"""The benchmark's workloads: fixed sets of extremal-trees CLI commands.

Each workload is a fixed multiset of ``extremal_trees.cli.main`` argument
lists.  The benchmark seed only decides the order in which one pass issues
them, so every seed does the same work.  Every (m, d) pair lies inside the
package's size guards; the only skipped rows are structural (``rootbound``
for m < 2, ``rigidity`` for m != 3r - 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SPECTRAL_CHECKS = "construction,lambda2,spectra,pipeline,rigidity"


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple[tuple[str, ...], ...]
    gauge: str = "mixed"  # the gauge in reference.py that resembles the work

    def order(self, seed: int) -> list[tuple[str, ...]]:
        """The commands of one pass, in the order the seed gives."""
        commands = list(self.commands)
        random.Random(seed).shuffle(commands)
        return commands


def _verify_pairs(ms, ds_of, checks: str) -> tuple[tuple[str, ...], ...]:
    return tuple(
        ("verify", "--m", str(m), "--d", str(d), "--checks", checks)
        for m in ms
        for d in ds_of(m)
    )


WORKLOADS = {
    # The default sweep of `verify --m 1..3 --d auto --checks all`, one
    # command per pair, without m = 3, d = 12..14 (n = 91..105): those three
    # take 13 of its 21 s, so a run could make only one pass.  The exact
    # charpoly oracle takes nearly all of it; every other layer runs at
    # small n as a regression guard.
    "default_sweep": Workload(
        why="the default verify sweep with every check, up to n=84; the charpoly "
            "oracle dominates and every other layer runs at small n",
        commands=_verify_pairs(
            range(1, 4),
            lambda m: [d for d in range(2 * m + 2, 2 * m + 9) if (2 * m + 1) * (d + 1) <= 84],
            "all"),
    ),
    # n up to 495: dense and block-circulant eigensolves dominate, which are
    # under 1% of default_sweep.  m = 5 is 3r - 1, so rigidity runs too.
    "spectral_sweep": Workload(
        why="eigensolves up to n=495 dominate (dense, block-circulant, pipeline, "
            "rigidity); under 1% of default_sweep",
        commands=_verify_pairs(range(2, 6), lambda m: range(40, 44), SPECTRAL_CHECKS),
        gauge="lapack",
    ),
    # |E| up to 2,277, just under the CLI's packing edge guard: sigma with
    # its successful and failing (k = m+1) packs takes nearly all of it.
    "packing_sweep": Workload(
        why="sigma packing up to |E|=2277 with successful and failing packs; "
            "about 2% of default_sweep",
        commands=_verify_pairs(range(1, 5), lambda m: range(14, 23), "packing"),
    ),
    # Pure exact arithmetic, no eigensolves: the closed-form charpoly
    # (Poly.compose over Fractions) and 7,203 rational quartic inequalities
    # serialised into one large JSON report.
    "exact_sweep": Workload(
        why="exact arithmetic only: closed-form charpoly over Fractions and "
            "7203 rational root-bound rows in one large report",
        commands=(
            ("verify", "--checks", "rootbound", "--m", "2..50", "--d", "6..200"),
            ("charpoly", "8", "40", "--exact"),
            ("charpoly", "5", "60", "--exact"),
            ("charpoly", "3", "120", "--exact"),
        ),
    ),
}
