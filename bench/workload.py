"""Workload process of the pdrtest benchmark.

``bench/run.py`` starts this script in a fresh interpreter, with
``PYTHONPATH`` set to the checkout's ``src`` and the BLAS thread count
fixed in the environment.  The script builds the workload's inputs from
the seed and makes one warm-up call; that ends set-up.  It then either
times operations with tracing off or traces them, checks every output,
and prints one line ``RESULT {json}`` for bench/run.py.  Every operation is
a closed loop with one client: the next call starts when the last returns.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import pdrtest
from pdrtest import cli
from pdrtest.dataset import load_boston
from pdrtest.families import get_family
from pdrtest.fit import nls_fit
from pdrtest.lackfit import run_test
from pdrtest.sdr import estimate_basis
from pdrtest.simulate import design, generate, power_experiment

import config
import tracing

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def rel_err(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


def value_problems(label: str, got, want) -> list[str]:
    err = rel_err(got, want)
    return [] if err <= config.VALUE_RTOL else [f"{label} differs from reference by {err:.3e} relative"]


#: Operation index of the warm-up call, kept apart from the timed
#: operations 0, 1, 2, ...
WARM_UP_OP = 10**9


def op_seed(seed: int, i: int) -> int:
    """Seed of operation ``i`` of a run: a function of (seed, i) only."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, dtype=np.uint64)[0] >> 1)


def maybe_span(tracer, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def timed(tracer, run: str, root: str, fn, *args, **kwargs):
    """Call ``fn``; with a tracer, under a root span and the layer wrappers."""
    if tracer is None:
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return time.perf_counter() - t0, out
    with tracer.installed(run):
        t0 = time.perf_counter()
        with tracer.span(root):
            out = fn(*args, **kwargs)
        return time.perf_counter() - t0, out


def binom_band(reps: int, p_low: float, p_high: float) -> tuple[int, int]:
    """Counts k with P(Bin(reps, p_low) < k) and P(Bin(reps, p_high) > k)
    both above ``config.BAND_TAIL``: the plausible rejection counts when
    the true rate lies in ``[p_low, p_high]``."""
    def pmf(k, p):
        return math.comb(reps, k) * p**k * (1 - p) ** (reps - k)

    lo, acc = 0, 0.0
    while lo < reps and acc + pmf(lo, p_low) < config.BAND_TAIL:
        acc += pmf(lo, p_low)
        lo += 1
    hi, acc = reps, 0.0
    while hi > 0 and acc + pmf(hi, p_high) < config.BAND_TAIL:
        acc += pmf(hi, p_high)
        hi -= 1
    return lo, hi


class CliWorkload:
    """``pdrtest test --preset boston`` run in-process through ``cli.main``."""

    root = "cli.main"
    tests_per_op = 1
    inputs = ["boston"]

    def __init__(self, cfg: dict, seed: int):
        self.cfg, self.seed = cfg, seed
        self.ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        # the fitted parameters are not in the CLI report: check them once here
        ds = load_boston()
        fit = nls_fit(ds, get_family(cfg["family"], ds.p1, ds.p2))
        self.setup_problems = value_problems(
            "beta", np.r_[fit.beta, fit.theta], self.ref["beta"] + self.ref["theta"])

    def argv(self, i: int) -> list[str]:
        return ["test", "--preset", "boston", "--family", self.cfg["family"],
                "--mc-reps", str(self.cfg["mc_reps"]), "--alpha", str(self.cfg["alpha"]),
                "--seed", str(op_seed(self.seed, i)), "--format", "json"]

    def op(self, i: int, tracer=None, run: str = "") -> tuple[float, list[str]]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            dt, rc = timed(tracer, run, self.root, cli.main, self.argv(i))
        if rc != 0:
            return dt, [f"cli exit status {rc}"]
        rec = json.loads(buf.getvalue())
        problems = value_problems("t_n", rec["t_n"], self.ref["t_n"])
        problems += value_problems("eigenvalues", rec["eigenvalues"], self.ref["eigenvalues"])
        problems += value_problems("b", rec["b_columns"], self.ref["b_columns"])
        if rec["q_hat"] != self.ref["q_hat"]:
            problems.append(f"q_hat {rec['q_hat']} != {self.ref['q_hat']}")
        if not (rec["reject"] and rec["p_hat"] <= self.cfg["alpha"]):
            problems.append(f"no rejection at alpha={self.cfg['alpha']} (p_hat={rec['p_hat']})")
        return dt, problems

    def warm_up(self) -> None:
        self.op(WARM_UP_OP)

    def finish(self) -> list[str]:
        return self.setup_problems


class TestWorkload:
    """One ``run_test`` on a large generated W-free sample."""

    root = "lackfit.run_test"
    tests_per_op = 1
    inputs = ["ex1"]

    def __init__(self, cfg: dict, seed: int):
        self.cfg, self.seed = cfg, seed
        dsg = design(cfg["case"], cfg["n"], cfg["a"])
        self.family = dsg.null_family
        self.ds = generate(dsg, np.random.default_rng(np.random.SeedSequence([seed, 0])))
        # references that do not depend on the multiplier draws: the family
        # is linear, so least squares is the fit; the design has a
        # one-dimensional subspace, so t_n is a cumulative residual sum
        # along the one direction
        x, y = self.ds.x, self.ds.y
        self.beta_ref = np.linalg.lstsq(x, y, rcond=None)[0]
        s = x @ estimate_basis(self.ds).b_first
        order = np.argsort(s, kind="stable")
        cum = np.cumsum((y - x @ self.beta_ref)[order])
        v = cum[np.searchsorted(s[order], s, side="right") - 1] / math.sqrt(len(y))
        self.tn_ref = float(np.mean(v**2))

    def op(self, i: int, tracer=None, run: str = "") -> tuple[float, list[str]]:
        dt, rep = timed(tracer, run, self.root, run_test, self.ds, self.family,
                        m=self.cfg["mc_reps"], seed=op_seed(self.seed, i), alpha=self.cfg["alpha"])
        problems = [] if rep.q_hat == 1 else [f"q_hat {rep.q_hat} != 1"]
        problems += value_problems("beta", rep.fit.beta, self.beta_ref)
        problems += value_problems("t_n", rep.t_n, self.tn_ref)
        if not rep.reject:
            problems.append(f"no rejection at alpha={self.cfg['alpha']} (p_hat={rep.p_hat})")
        return dt, problems

    def warm_up(self) -> None:
        self.op(WARM_UP_OP)

    def finish(self) -> list[str]:
        return []


class SimWorkload:
    """``power_experiment`` over a small size/power grid with a process pool.

    One operation is one cell: a ``power_experiment`` call on one design,
    as the library runs each design of a grid.  Operations cycle through
    the grid's cells.
    """

    root = "simulate.replicate"

    def __init__(self, cfg: dict, seed: int):
        self.cfg, self.seed = cfg, seed
        self.designs = [design(cfg["case"], n, a) for a in cfg["a"] for n in cfg["n"]]
        self.inputs = [f"n={d.n} a={d.a:g}" for d in self.designs]
        self.tests_per_op = cfg["reps"]
        # rejections and replicates per design, over the whole run
        self.counts = {(d.n, d.a): [0, 0] for d in self.designs}

    def _experiment(self, designs, reps, seed, workers):
        c = self.cfg
        t0 = time.perf_counter()
        table = power_experiment(designs, reps, c["mc_reps"], c["alpha"], seed, workers=workers)
        dt = time.perf_counter() - t0
        problems = []
        if len(table.rows) != len(designs):
            problems.append(f"{len(table.rows)} rows for {len(designs)} designs")
        for row, dsg in zip(table.rows, designs):
            k = row.rejection_rate * reps
            if (row.case, row.n, row.a, row.reps) != (dsg.case_id, dsg.n, dsg.a, reps) \
                    or abs(k - round(k)) > 1e-9:
                problems.append(f"malformed row {row}")
                continue
            self.counts[(dsg.n, dsg.a)][0] += round(k)
            self.counts[(dsg.n, dsg.a)][1] += reps
        return dt, problems

    def op(self, i: int) -> tuple[float, list[str]]:
        return self._experiment([self.designs[i % len(self.designs)]], self.cfg["reps"],
                                op_seed(self.seed, i), self.cfg["workers"])

    def warm_up(self) -> None:
        # one small pool call: forks the workers and runs every stage once
        power_experiment(self.designs[:1], self.cfg["workers"], self.cfg["mc_reps"],
                         self.cfg["alpha"], op_seed(self.seed, WARM_UP_OP),
                         workers=self.cfg["workers"])

    def replicate(self, dsg, seed: int, rep: int, tracer=None, run: str = ""):
        """Replay one replicate of a one-design experiment serially, with
        the stream derivation ``power_experiment`` uses for it."""
        def body():
            data_ss, test_ss = np.random.SeedSequence([seed, 0, rep]).spawn(2)
            with maybe_span(tracer, "simulate.generate"):
                ds = generate(dsg, np.random.default_rng(data_ss))
            test_seed = int(test_ss.generate_state(1, dtype=np.uint64)[0])
            with maybe_span(tracer, "lackfit.run_test"):
                return run_test(ds, dsg.null_family, m=self.cfg["mc_reps"],
                                seed=test_seed, alpha=self.cfg["alpha"]).reject

        return timed(tracer, run, self.root, body)

    def cell(self, tracer, dsg, seed: int, run: str):
        """Time a one-design pool call, then replay a sample of its
        replicates serially, untraced and traced; returns the
        traced-minus-untraced time of each replayed replicate and any
        problems.  The pool overhead is the cell's time minus the serial
        time its replicates would take, estimated from the sample, divided
        by the workers."""
        reps, workers = self.cfg["reps"], self.cfg["workers"]
        sample = range(0, reps, max(reps // self.cfg["trace_replicates"], 1))
        sample = sample[: self.cfg["trace_replicates"]]
        t0 = time.perf_counter()
        dt, problems = self._experiment([dsg], reps, seed, workers)
        untraced = [self.replicate(dsg, seed, r)[0] for r in sample]
        serial_s = statistics.fmean(untraced) * reps
        tracer.spans.append(tracing.Span(
            "simulate.power_experiment", t0, t0 + dt, run=run,
            attrs={"pool_overhead_s": dt - serial_s / workers}))
        traced = [self.replicate(dsg, seed, r, tracer, run)[0] for r in sample]
        return [t - u for t, u in zip(traced, untraced)], problems

    def finish(self) -> list[str]:
        c, problems = self.cfg, []
        for (n, a), (k, reps) in self.counts.items():
            if reps == 0:
                continue
            if a == 0.0:
                lo, hi = binom_band(reps, *c["size_range"])
                if not lo <= k <= hi:
                    problems.append(f"size n={n}: {k}/{reps} rejections outside [{lo}, {hi}]")
            elif c["power_floor"] is not None:
                lo, _ = binom_band(reps, c["power_floor"], c["power_floor"])
                if k < lo:
                    problems.append(f"power n={n} a={a}: {k}/{reps} below floor "
                                    f"{c['power_floor']} (min {lo})")
        return problems


KINDS = {"cli": CliWorkload, "test": TestWorkload, "sim": SimWorkload}


def attempt(fn, *args) -> tuple[float | None, list[str]]:
    """Run one operation; an exception counts as a failed operation."""
    try:
        return fn(*args)
    except Exception as exc:  # the benchmark reports failures, it does not stop
        return None, [f"{type(exc).__name__}: {exc}"]


class Tally:
    """Attempted and failed operations, with the first few messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages += problems[: 5 - len(self.messages)]

    def close(self, problems: list[str]) -> None:
        # a failed run-level check covers every operation of the run
        if problems:
            self.failed = self.attempted
            self.messages += problems


def measure(wl, seconds: float) -> dict:
    """Time operations for ``seconds``, then finish the pass over the
    workload's inputs, so that every input is timed equally often."""
    tally, times, inputs = Tally(), [], []
    start, i, k = time.monotonic(), 0, len(wl.inputs)
    while i % k or i == 0 or time.monotonic() - start < seconds:
        dt, problems = attempt(wl.op, i)
        tally.add(problems)
        if dt is not None:
            times.append(dt)
            inputs.append(wl.inputs[i % k])
        i += 1
    tally.close(wl.finish())
    return {"times": times, "inputs": inputs, "tally": tally}


def traced_run(wl, seconds: float, seed: int) -> dict:
    """Trace operations for ``seconds``; each traced operation is paired
    with the same operation untraced, and their difference is the tracing
    overhead.  Simulate cells are traced by replaying a sample of their
    replicates serially in this process, since pool workers keep no spans."""
    tracer = tracing.Tracer(tracing.layer_targets())
    tally, overhead = Tally(), []
    start, i = time.monotonic(), 0
    while i == 0 or time.monotonic() - start < seconds:
        run = f"op:{i}"
        if isinstance(wl, SimWorkload):
            dsg = wl.designs[i % len(wl.designs)]
            diffs, problems = attempt(wl.cell, tracer, dsg, op_seed(seed, i), run)
            overhead += diffs or []
            tally.add(problems)
        else:
            untraced, problems = attempt(wl.op, i)
            tally.add(problems)
            traced, problems = attempt(wl.op, i, tracer, run)
            tally.add(problems)
            if untraced is not None and traced is not None:
                overhead.append(traced - untraced)
        i += 1

    tracemalloc.start()
    tracer.memory = True
    try:
        if isinstance(wl, SimWorkload):
            wl.replicate(wl.designs[-1], op_seed(seed, 0), 0, tracer, "mem")
        else:
            wl.op(0, tracer, "mem")
    finally:
        tracer.memory = False
        tracemalloc.stop()

    tally.close(wl.finish())
    tracer.finalize()
    values, detail = tracing.layer_metrics(tracer.spans, tracing.median_or_zero(overhead) * 1e3)
    return {"tally": tally, "layers": values, "detail": detail, "spans": tracer.to_records()}


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with NumPy will use, or None if it
    cannot be asked (another BLAS, or a NumPy built against the system's)."""
    libs = Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*.so*")
    for path in sorted(libs):
        lib = ctypes.CDLL(str(path))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def provenance(cfg: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": config.nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_requested": cfg["blas_threads"],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workers": cfg["workers"],
        "pdrtest": pdrtest.__version__,
    }


#: How ``peak_rss_mb`` is computed; printed next to it.
PEAK_RSS_NOTE = ("own high-water RSS + workers x the largest reaped child's, an "
                 "estimate: forked workers' shared copy-on-write pages count once per worker")


def peak_rss_mb(workers: int) -> float:
    """High-water RSS of this process plus ``workers`` times that of its
    largest reaped child (pool workers run concurrently).  The children's
    high-water marks include pages they share with this process, so the
    sum counts shared pages such as NumPy's once per worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(config.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    args = p.parse_args(argv)

    cfg = config.workload_config(args.workload, args.smoke)
    wl = KINDS[cfg["kind"]](cfg, args.seed)
    wl.warm_up()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print("RESULT " + json.dumps({"setup_s": setup_s}), flush=True)
        return 0

    out = traced_run(wl, args.seconds, args.seed) if args.trace else measure(wl, args.seconds)
    tally = out.pop("tally")
    result = {
        "setup_s": setup_s,
        "tests_per_op": wl.tests_per_op,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.messages,
        "peak_rss_mb": peak_rss_mb(cfg["workers"]),
        "peak_rss_note": PEAK_RSS_NOTE if cfg["workers"] > 1 else "own high-water RSS",
        "provenance": provenance(cfg),
        **out,
    }
    spans = result.pop("spans", None)
    if spans is not None:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-s{args.seed}.json"
        trace_file.write_text(json.dumps(spans) + "\n", encoding="utf-8")
        result["trace_file"] = str(trace_file.relative_to(HERE.parent))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    if Path(pdrtest.__file__).resolve().parent != (HERE.parent / "src" / "pdrtest").resolve():
        sys.exit(f"pdrtest was imported from {pdrtest.__file__}, not from this checkout's src")
    sys.exit(main())
