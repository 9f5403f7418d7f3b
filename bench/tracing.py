"""In-memory span tracer and the per-layer metrics derived from its spans.

Spans are recorded only by wrappers that the tracer swaps in for the
public functions each pdrtest module looks up at call time (for example
``pdrtest.lackfit.mc_pvalue``, which ``run_test`` calls); the library
itself is not modified.  A span holds its name, start, end, parent span
and run id; spans stay in memory until the traced run writes them out.

A span without a parent is a root: one test (a CLI call, a ``run_test``
call or a replayed simulate replicate).  The prefix of the run id says
what the spans were recorded for: ``op`` (the workload's own
operations) or ``mem`` (one operation repeated under tracemalloc for
per-stage peaks).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def kind(self) -> str:
        return self.run.split(":", 1)[0]


class Tracer:
    """Records nested spans; ``installed`` swaps the layer wrappers in.

    ``targets`` lists ``(module, attribute, span name, observe)``;
    ``observe(arguments, result)`` returns attributes for the span.  A
    callable attribute is evaluated only in :meth:`finalize`, so costly
    counts stay outside every timed interval.
    """

    def __init__(self, targets):
        self.spans: list[Span] = []
        self.memory = False
        self._run = ""
        self._stack: list[int] = []
        self._swaps = [
            (module, attr, getattr(module, attr), self._wrap(getattr(module, attr), name, observe))
            for module, attr, name, observe in targets
        ]

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(name, 0.0, parent=self._stack[-1] if self._stack else None, run=self._run)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        if self.memory:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if self.memory:
                sp.attrs["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 1e6

    def _wrap(self, fn, name, observe):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            if observe is not None:
                sp.attrs.update(observe(signature.bind(*args, **kwargs).arguments, out))
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, run: str):
        """Trace the layer calls made inside the block under run id ``run``."""
        self._run = run
        for module, attr, _, wrapped in self._swaps:
            setattr(module, attr, wrapped)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._swaps:
                setattr(module, attr, original)
            self._run = ""

    def finalize(self) -> None:
        for sp in self.spans:
            for key, value in sp.attrs.items():
                if callable(value):
                    sp.attrs[key] = value()

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "run": s.run, "attrs": s.attrs}
            for s in self.spans
        ]


def layer_targets():
    """The public functions wrapped in a traced run, by module."""
    import numpy as np
    from pdrtest import cli, lackfit, sdr

    def nbytes(*arrays):
        return sum(int(getattr(a, "nbytes", 0)) for a in arrays)

    return [
        (cli, "load_csv", "dataset.load_csv", None),
        (cli, "prepare_boston", "dataset.prepare_boston", None),
        (cli, "run_test", "lackfit.run_test", None),
        (cli, "estimate_basis", "sdr.estimate_basis", lambda a, r: {"q_hat": r.q_hat}),
        (lackfit, "get_family", "families.get_family", None),
        (lackfit, "estimate_basis", "sdr.estimate_basis", lambda a, r: {"q_hat": r.q_hat}),
        (sdr, "standardize", "dataset.standardize", None),
        (sdr, "dee_matrix", "sdr.dee_matrix", None),
        (sdr, "pdee_matrix", "sdr.pdee_matrix",
         lambda a, r: {"w_thresholds": lambda w=a["w"]: len(np.unique(np.asarray(w).reshape(len(w), -1), axis=0))}),
        (lackfit, "nls_fit", "fit.nls_fit",
         lambda a, r: {"iterations": r.iterations, "converged": bool(r.converged)}),
        (lackfit, "influence_vectors", "fit.influence_vectors", None),
        (lackfit, "build_projected", "lackfit.build_projected",
         lambda a, r: {"nxn_bytes": nbytes(getattr(r, "ind_full", None), getattr(r, "ind_first", None))}),
        (lackfit, "tn_statistic", "lackfit.tn_statistic", None),
        (lackfit, "rho_matrix", "lackfit.rho_matrix", lambda a, r: {"nxn_bytes": nbytes(r)}),
        (lackfit, "mc_pvalue", "lackfit.mc_pvalue",
         lambda a, r: {"gflop": 2.0 * a["m"] * a["a"].shape[0] * a["a"].shape[1] / 1e9}),
    ]


#: Per-layer time metrics: metric -> span names whose self times are summed
#: per root span, that is per test (each of these functions runs once in a
#: test, so this is the time per call).
TIME_METRICS = {
    "dataset.load.ms": ("dataset.load_csv", "dataset.prepare_boston"),
    "dataset.standardize.ms": ("dataset.standardize",),
    "families.get_family.ms": ("families.get_family",),
    "sdr.dee_matrix.ms": ("sdr.dee_matrix",),
    "sdr.pdee_matrix.ms": ("sdr.pdee_matrix",),
    "sdr.estimate_basis.ms": ("sdr.estimate_basis",),
    "fit.nls_fit.ms": ("fit.nls_fit",),
    "fit.influence_vectors.ms": ("fit.influence_vectors",),
    "lackfit.build_projected.ms": ("lackfit.build_projected",),
    "lackfit.tn_statistic.ms": ("lackfit.tn_statistic",),
    "lackfit.rho_matrix.ms": ("lackfit.rho_matrix",),
    "lackfit.mc_pvalue.ms": ("lackfit.mc_pvalue",),
    "simulate.generate.ms": ("simulate.generate",),
    "cli.main.self_ms": ("cli.main",),
    "run_test.unaccounted_ms": ("lackfit.run_test",),
}

#: Stages whose tracemalloc peak is reported as ``<stage>.peak_mb``.
PEAK_STAGES = ("lackfit.build_projected", "lackfit.tn_statistic",
               "lackfit.rho_matrix", "lackfit.mc_pvalue")

#: Span names each module's layer is recognised by, for coverage checks.
LAYER_SPANS = {
    "dataset": ("dataset.load_csv", "dataset.prepare_boston", "dataset.standardize"),
    "families": ("families.get_family",),
    "sdr": ("sdr.estimate_basis", "sdr.dee_matrix", "sdr.pdee_matrix"),
    "fit": ("fit.nls_fit", "fit.influence_vectors"),
    "lackfit": ("lackfit.run_test", "lackfit.build_projected", "lackfit.tn_statistic",
                "lackfit.rho_matrix", "lackfit.mc_pvalue"),
    "simulate": ("simulate.generate", "simulate.power_experiment"),
    "cli": ("cli.main",),
}


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.seconds
    return [sp.seconds - c for sp, c in zip(spans, covered)]


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[Span], overhead_ms: float) -> tuple[dict, dict]:
    """Per-layer metric values and the detail behind them.

    Times and counts come from the ``op`` spans.  A layer the workload's
    path never calls reads 0; its time metrics are listed under
    ``off_path``.
    """
    own = self_seconds(spans)
    root = list(range(len(spans)))
    per_root: dict[int, dict[str, float]] = {}
    calls: dict[str, int] = {}
    for i, (sp, t) in enumerate(zip(spans, own)):
        if sp.parent is not None:
            root[i] = root[sp.parent]  # a parent is recorded before its children
        if sp.kind == "mem":
            continue
        per_root.setdefault(root[i], {}).setdefault(sp.name, 0.0)
        per_root[root[i]][sp.name] += t
        calls[f"{sp.kind}:{sp.name}"] = calls.get(f"{sp.kind}:{sp.name}", 0) + 1

    values: dict[str, float] = {}
    off_path = []
    for metric, names in TIME_METRICS.items():
        sums = [sum(d[n] for n in names if n in d) for r, d in per_root.items()
                if spans[r].kind == "op" and any(n in d for n in names)]
        if not sums:
            off_path.append(metric)
        values[metric] = median_or_zero(sums) * 1e3

    ops = [sp for sp in spans if sp.kind == "op"]

    def attrs(name, key):
        return [sp.attrs[key] for sp in ops if sp.name == name and key in sp.attrs]

    values["sdr.q_hat"] = median_or_zero(attrs("sdr.estimate_basis", "q_hat"))
    values["sdr.w_thresholds"] = median_or_zero(attrs("sdr.pdee_matrix", "w_thresholds"))
    values["fit.nls_fit.iterations"] = median_or_zero(attrs("fit.nls_fit", "iterations"))
    converged = attrs("fit.nls_fit", "converged")
    values["fit.warning_ratio"] = (
        sum(not c for c in converged) / len(converged) if converged else 0.0
    )
    mc = [(sp.attrs["gflop"], t) for sp, t in zip(spans, own)
          if sp.kind == "op" and sp.name == "lackfit.mc_pvalue"]
    values["lackfit.mc_pvalue.gflop"] = median_or_zero(g for g, _ in mc)
    values["lackfit.mc_pvalue.gflops"] = median_or_zero(g / t for g, t in mc)
    nxn: dict[int, int] = {}
    for i, sp in enumerate(spans):
        if sp.kind == "op" and "nxn_bytes" in sp.attrs:
            nxn[root[i]] = nxn.get(root[i], 0) + sp.attrs["nxn_bytes"]
    values["lackfit.nxn_bytes"] = median_or_zero(nxn.values())
    for stage in PEAK_STAGES:
        values[f"{stage}.peak_mb"] = median_or_zero(
            sp.attrs["peak_mb"] for sp in spans if sp.kind == "mem" and sp.name == stage
        )

    cells = [sp for sp in ops if sp.name == "simulate.power_experiment"]
    if not cells:
        off_path += ["simulate.cell_s", "simulate.pool_overhead_s"]
    values["simulate.cell_s"] = median_or_zero(sp.seconds for sp in cells)
    values["simulate.pool_overhead_s"] = median_or_zero(sp.attrs["pool_overhead_s"] for sp in cells)
    values["trace.overhead_ms"] = overhead_ms

    # share of each layer in the traced tests' total wall time (a cell's
    # pool call is timed untraced, so it is not a root here)
    roots = sum(sp.seconds for sp in ops
                if sp.parent is None and sp.name != "simulate.power_experiment")
    shares = {}
    for metric, names in TIME_METRICS.items():
        if metric not in off_path and roots > 0:
            shares[metric] = sum(d[n] for r, d in per_root.items() if spans[r].kind == "op"
                                 for n in names if n in d) / roots
    detail = {"off_path": off_path, "calls": calls, "shares_of_op": shares}
    return values, detail
