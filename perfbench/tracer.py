"""Spans around the public functions of ``extremal_trees``, installed from outside.

``Tracer.install`` wraps every public function and public method (and the
arithmetic operators) defined in each layer module (the package's modules),
and rebinds the wrapper in every ``extremal_trees.*`` namespace that holds
the original, so a call through ``cli``'s ``from .spectral import lambda2``
is traced like a call inside ``spectral``.  Nothing under ``src/`` changes; ``uninstall`` restores the
originals.  Generator functions are left alone (a span would only cover the
creation of the generator).

A span is ``(name index, start, end, parent span index)``, kept in memory.
A layer's self time is the time of its spans minus the time of their child
spans.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "extremal_trees"
LAYERS = ("graphs", "polynomials", "chebyshev", "charpoly", "spectral",
          "graeffe", "packing", "rigidity", "cli")

# Arithmetic operators count as public methods, so that Poly arithmetic done
# for a caller is time in `polynomials`, not in the caller.
OPERATORS = {"__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__pow__", "__call__"}

# Per-layer metric groups: `<group>_calls` and `<group>_s` (or `.calls` and
# `.s` for a bare layer name) count and time the spans of these functions.
SPAN_GROUPS = {
    "graphs.build": ("graphs.build_extremal_graph",),
    "graphs.adjacency": ("graphs.Graph.adjacency_matrix",),
    "polynomials.compose": ("polynomials.Poly.compose",),
    "chebyshev": ("chebyshev.chebyshev_T", "chebyshev.chebyshev_U"),
    "charpoly.oracle": ("charpoly.char_poly_oracle",),
    "charpoly.exact": ("charpoly.char_poly_exact",),
    "charpoly.bracket": ("charpoly.bracket_factor",),
    "charpoly.identities": ("charpoly.verify_root_of_unity_identities",
                            "charpoly.verify_determinant_identities"),
    "spectral.eigensolve": ("spectral.symmetric_eigenvalues",),
    "spectral.dense": ("spectral.eigenvalues_dense",),
    "spectral.blocks": ("spectral.eigenvalues_block_circulant",),
    "graeffe.quartic": ("graeffe.check_root_bound_inequality",),
    "graeffe.max_root": ("graeffe.fn_max_root",),
    "graeffe.pipeline": ("graeffe.verify_upper_bound_pipeline",),
    "packing.sigma": ("packing.sigma",),
    "packing.pack": ("packing.pack_spanning_trees",),
    "packing.certificate": ("packing.clique_certificate",),
    "rigidity.hypotheses": ("rigidity.check_spectral_rigidity_hypotheses",),
    "rigidity.certificate": ("rigidity.rigidity_certificate",),
}


def _group_metric(group: str, suffix: str) -> str:
    return f"{group}{'_' if '.' in group else '.'}{suffix}"


# Metrics ``one_pass.py`` adds from its own measurements of a traced pass.
HARNESS_METRICS = {
    "cli.report_bytes": "bytes",
    "cli.rows": "count",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}

PER_LAYER_UNITS = {
    **{_group_metric(g, "calls"): "count" for g in SPAN_GROUPS},
    **{_group_metric(g, "s"): "s" for g in SPAN_GROUPS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "graphs.build_reuse_ratio": "ratio",
    "spectral.eigensolve_dim_sum": "count",
    "spectral.spectra_per_pair": "ratio",
    "packing.pack_success_ratio": "ratio",
    "packing.edges_scanned": "count",
    "errors.check_failures": "count",
    "errors.consistency_errors": "count",
    "trace.spans": "count",
    **HARNESS_METRICS,
}


def _observe_build(tracer, args, result):
    tracer.pairs["graphs.build"].add((args.get("m"), args.get("d")))


def _observe_eigensolve(tracer, args, result):
    tracer.counts["spectral.eigensolve_dim_sum"] += len(args.get("mat", ()))


def _observe_dense(tracer, args, result):
    tracer.pairs["spectral"].add(getattr(args.get("g"), "params", None))


def _observe_blocks(tracer, args, result):
    tracer.pairs["spectral"].add((args.get("m"), args.get("d")))


def _observe_pack(tracer, args, result):
    tracer.counts["packing.edges_scanned"] += getattr(args.get("g"), "edge_count", 0)
    tracer.counts["packing.pack_success"] += type(result).__name__ == "ForestPacking"


# Functions whose bound arguments or result feed a count or a ratio.  They
# read arguments by name and tolerate a missing one, so a changed signature
# costs a count, not the run.
OBSERVERS = {
    "graphs.build_extremal_graph": _observe_build,
    "spectral.symmetric_eigenvalues": _observe_eigensolve,
    "spectral.eigenvalues_dense": _observe_dense,
    "spectral.eigenvalues_block_circulant": _observe_blocks,
    "packing.pack_spanning_trees": _observe_pack,
}


def self_times(names, spans) -> dict[str, float]:
    """Self time per layer: span durations minus the durations of child spans.

    ``names[i]`` is ``"<layer>.<function>"``; a span is
    ``(name index, start, end, parent index or -1)``.  Spans of one thread
    nest, so a span's children never overlap each other.
    """
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[names[name].split(".", 1)[0]] += (end - start) - children[i]
    return dict(out)


def _ratio(numerator: float, denominator: float) -> float:
    """A ratio whose base is empty on a workload reads 0."""
    return numerator / denominator if denominator else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self.pairs: dict[str, set] = defaultdict(set)
        self._errors: dict[int, BaseException] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget the spans and counts recorded so far."""
        self.spans.clear()
        self.counts.clear()
        self.pairs.clear()
        self._errors.clear()

    def wrap(self, name: str, fn):
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._errors[id(exc)] = exc
                raise
            finally:
                spans[index] = (name_index, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap the layers' public functions wherever the package binds them."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.names.clear()
        originals: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                original, wrapper = originals.get(id(obj), (None, None))
                if original is obj:
                    self._patch(module, attr, wrapper)

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                self._patch(cls, attr, self.wrap(name, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def pass_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the spans recorded since the last reset."""
        calls: Counter = Counter()
        seconds: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            calls[name] += 1
            seconds[name] += end - start
        index = {name: i for i, name in enumerate(self.names)}
        out: dict[str, float] = {}
        for group, functions in SPAN_GROUPS.items():
            ids = [index[f] for f in functions if f in index]
            out[_group_metric(group, "calls")] = sum(calls[i] for i in ids)
            out[_group_metric(group, "s")] = sum(seconds[i] for i in ids)
        layer_self = self_times(self.names, self.spans)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        out["graphs.build_reuse_ratio"] = _ratio(len(self.pairs["graphs.build"]),
                                                 out["graphs.build_calls"])
        out["spectral.eigensolve_dim_sum"] = self.counts["spectral.eigensolve_dim_sum"]
        out["spectral.spectra_per_pair"] = _ratio(
            out["spectral.dense_calls"] + out["spectral.blocks_calls"],
            len(self.pairs["spectral"]))
        out["packing.pack_success_ratio"] = _ratio(self.counts["packing.pack_success"],
                                                   out["packing.pack_calls"])
        out["packing.edges_scanned"] = self.counts["packing.edges_scanned"]
        errors = Counter(type(e).__name__ for e in self._errors.values())
        out["errors.check_failures"] = errors["CheckFailure"]
        out["errors.consistency_errors"] = errors["ConsistencyError"]
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self) -> dict:
        """The spans recorded since the last reset, in a JSON-ready form."""
        return {"fields": ["name", "start", "end", "parent"],
                "names": list(self.names),
                "spans": [list(s) for s in self.spans]}


def span_cost() -> float:
    """Seconds that tracing adds to one call: a traced no-op against a bare one.

    Each is timed 5 times over 20,000 calls and the fastest timing counts.
    Spans times this cost estimates the tracing overhead of a pass without a
    second, untraced pass to compare with.
    """
    calls, repeats = 20000, 5

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("cli.noop", noop)

    def fastest(fn) -> float:
        times = []
        for _ in range(repeats):
            tracer.reset()
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    return max(0.0, (fastest(traced) - fastest(noop)) / calls)


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced passes of one run."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
