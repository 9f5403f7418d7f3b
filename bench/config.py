"""Workload definitions shared by the benchmark command and its workload process.

Plain data only, so that the benchmark command (bench/run.py) never loads NumPy
itself; it fixes the BLAS thread count in each workload process's
environment before NumPy starts there.
"""

from __future__ import annotations

import os

#: Fresh processes set up per untraced run, half of the extra ones before
#: the measuring process and half after it, so that they sample the
#: machine at different moments; ``setup_s`` is their median.  A workload
#: may set a smaller ``setup_repeats`` when one set-up takes seconds.
SETUP_REPEATS = 5
#: Percentile of the per-operation slowdowns read as ``test_ms_tail``
#: (see ``end_to_end`` in bench/run.py), fixed per workload so that a
#: faster version is read at the same percentile as its parent.  It is the
#: highest percentile with ten of the first baseline's samples beyond it,
#: but at least the upper quartile: the sim workloads and large-n complete
#: too few operations for that rule to reach above it.  The maximum of so
#: few samples follows single stalls of the host and is too noisy to bound.
TAIL_PCT = 75.0
#: Tail probability beyond each end of the binomial bands on rejection counts.
BAND_TAIL = 1e-6
#: Relative tolerance for values that do not depend on the multiplier draws.
VALUE_RTOL = 1e-8

# Why each workload exists and which layer metric should move which
# end-to-end metric on it is recorded in BENCHMARK.json (``why``) and in
# bench/predictions.json.
WORKLOADS: dict[str, dict] = {
    # The analyst's real-data run through the CLI: W path at n=506, p1=11.
    # One BLAS thread: at n=506 a second one is no faster (about 215 ms
    # per test either way on 2 CPUs), and its first calls are slower.
    "boston-cli": {
        "kind": "cli",
        "family": "linear+w",
        "mc_reps": 2000,
        "alpha": 0.05,
        "workers": 1,
        "blas_threads": 1,
        # about 87 tests in a 20 s run: ten lie beyond p88
        "tail_pct": 88.0,
    },
    # The researcher's size/power grid without W: per-call overhead.  One
    # operation is one cell (one power_experiment call on one design) with
    # 100 replicates, the cell size of the repo's own simulate tests
    # (tests/test_simulate.py); a run times whole passes over the grid.
    "sim-desk": {
        "kind": "sim",
        "case": "ex3",
        "n": (100, 200),
        "a": (0.0, 0.6),
        "reps": 100,
        "mc_reps": 300,
        "alpha": 0.05,
        "workers": 2,
        "blas_threads": 1,
        # the acceptance suite's size range for the a=0 cells
        "size_range": (0.02, 0.09),
        "power_floor": 0.4,
        # replicates of a cell replayed serially in a traced run
        "trace_replicates": 16,
    },
    # The same grid with one W column: the difference is the pdee_matrix path.
    "sim-desk-w": {
        "kind": "sim",
        "case": "ex5c3",
        "n": (100, 200),
        "a": (0.0, 0.6),
        "reps": 100,
        "mc_reps": 300,
        "alpha": 0.05,
        "workers": 2,
        "blas_threads": 1,
        "size_range": (0.02, 0.09),
        "power_floor": None,
        "trace_replicates": 16,
    },
    # One large W-free test: n^2 memory and dense kernels.
    "large-n": {
        "kind": "test",
        "case": "ex1",
        "n": 8000,
        "a": 0.6,
        "mc_reps": 1000,
        "alpha": 0.05,
        "workers": 1,
        "blas_threads": "nproc",
        "setup_repeats": 3,
    },
}

#: Tiny sizes used by the benchmark's own smoke tests (``--smoke``).
SMOKE: dict[str, dict] = {
    "boston-cli": {"mc_reps": 50},
    "sim-desk": {"n": (60, 80), "reps": 2, "mc_reps": 20, "trace_replicates": 2},
    "sim-desk-w": {"n": (60, 80), "reps": 2, "mc_reps": 20, "trace_replicates": 2},
    "large-n": {"n": 1000, "mc_reps": 50},
}


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def workload_config(name: str, smoke: bool = False) -> dict:
    """Settings of one workload, with the BLAS thread count resolved."""
    cfg = {"setup_repeats": SETUP_REPEATS, "tail_pct": TAIL_PCT, **WORKLOADS[name]}
    if smoke:
        cfg.update(SMOKE[name])
    if cfg["blas_threads"] == "nproc":
        cfg["blas_threads"] = nproc()
    cfg["name"] = name
    return cfg


def check_threads(workers: int, blas_threads: int, cpus: int) -> None:
    """Refuse a configuration that would oversubscribe the CPUs."""
    if workers * blas_threads > cpus:
        raise ValueError(
            f"workers ({workers}) x BLAS threads ({blas_threads}) exceeds nproc ({cpus})"
        )
