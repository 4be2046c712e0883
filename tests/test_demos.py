import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start():
    # every line runs; a line whose comment opens with a value must give it
    text = (ROOT / "README.md").read_text()
    block = text.split("## Quick start (API)", 1)[1].split("```python\n", 1)[1]
    namespace, checked = {}, []
    for line in block.split("```", 1)[0].splitlines():
        code, _, comment = line.partition("  #")
        value = comment.split()[0].rstrip(",") if comment.strip() else ""
        if value in ("True", "2"):
            got = eval(code, namespace)
            assert got is True if value == "True" else (got == 2 and got is not True), line
            checked.append(value)
        elif value.endswith("..."):
            assert str(eval(code, namespace)).startswith(value[:-3]), line
            checked.append(value)
        else:
            exec(code, namespace)
    assert checked == ["5.4214...", "True", "True", "2", "2", "2"]
