"""The pdrtest benchmark: one command per workload, outputs checked.

Run from the root of a checkout:

    python3 bench/run.py --workload boston-cli --seed 1 --seconds 20 --trace 0

Workloads, metric names and units are listed in BENCHMARK.json; the
workload settings are in bench/config.py.  With ``--trace 0`` the last
line of standard output is a JSON object holding every end-to-end metric;
with ``--trace 1`` it holds every per-layer metric of a traced run.  The
lines above it give the same numbers for people, with sample counts and
provenance, and a full record is written under bench/out/.

The exit status is 1 when an output fails its correctness check (the
result is still printed) and 2 when the benchmark cannot run at all: no
program source next to it, a bad argument, or more workers x BLAS threads
than CPUs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Every child must be done this long after start, inside the 180 s that
#: one benchmark run may take.
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def tail(samples: list[float], pct: float) -> float:
    """``pct`` percentile of ``samples``, interpolated linearly between
    order statistics (the "inclusive" rule of ``statistics.quantiles``);
    100 is the maximum.  Interpolating steadies it on a few samples."""
    s = sorted(samples)
    h = (len(s) - 1) * pct / 100.0
    i = math.floor(h)
    return s[i] if i + 1 >= len(s) else s[i] + (h - i) * (s[i + 1] - s[i])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pdrtest").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def cpu_ticks() -> list[int] | None:
    """Clock ticks of all CPUs by state (user ... steal) from /proc/stat,
    or None where it cannot be read."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            return [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_pct(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two
    readings: wall times of a run with high steal are not comparable."""
    if before is None or after is None or sum(after) == sum(before):
        return None
    return 100.0 * (after[7] - before[7]) / (sum(after) - sum(before))


def run_child(args, cfg: dict, deadline: float, setup_only: bool) -> dict:
    """Start the workload process and return its RESULT record."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cfg["blas_threads"])
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"workload process exceeded the {BUDGET_S:.0f} s budget") from None
    finally:
        # pool workers of a crashed child must not outlive the run
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = [ln for ln in stdout.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with status {proc.returncode}")
    return json.loads(lines[-1][len("RESULT "):])


def end_to_end(child: dict, setups: list[float], pct: float) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced run.  ``test_ms_p50`` is the
    time of one pass over the workload's inputs: the sum, over its distinct
    inputs (the grid cells of a sim workload, else the one input), of their
    median operation time.  ``test_ms_tail`` is that pass time times the
    ``pct`` percentile of the slowdowns, each operation's time over its
    input's median, pooled over the inputs.  With one input it is the plain
    percentile of the operation times."""
    by_input: dict[str, list[float]] = {}
    for t, key in zip(child["times"], child["inputs"]):
        by_input.setdefault(key, []).append(t * 1e3)
    if not by_input:
        raise BenchError("no operation completed")
    total_s = sum(child["times"])
    counts = sorted(len(v) for v in by_input.values())
    medians = {key: statistics.median(v) for key, v in by_input.items()}
    slowdowns = [t / medians[key] for key, v in by_input.items() for t in v]
    pass_ms = sum(medians.values())
    values = {
        "setup_s": statistics.median(setups),
        "test_ms_p50": pass_ms,
        "test_ms_tail": pass_ms * tail(slowdowns, pct),
        "reps_per_s": child["tests_per_op"] * len(child["times"]) / total_s,
        "peak_rss_mb": child["peak_rss_mb"],
    }
    per_input = f"{len(by_input)} input(s), {counts[0]}-{counts[-1]} samples each"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "test_ms_p50": per_input,
        "test_ms_tail": f"p{pct:g} of {len(slowdowns)} slowdowns pooled over {per_input}",
        "reps_per_s": f"{child['tests_per_op']} test(s) per operation",
        "peak_rss_mb": child["peak_rss_note"],
    }
    return values, notes


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="pdrtest benchmark")
    p.add_argument("--workload", required=True, choices=sorted(config.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke tests")
    args = p.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    try:
        if not (SRC / "pdrtest" / "__init__.py").is_file():
            raise BenchError(f"no program source at {SRC / 'pdrtest'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.seed < 0 or args.seconds <= 0:
            raise BenchError("--seed must be >= 0 and --seconds > 0")
        cfg = config.workload_config(args.workload, args.smoke)
        config.check_threads(cfg["workers"], cfg["blas_threads"], config.nproc())

        ticks = cpu_ticks()
        extra = 0 if args.trace else cfg["setup_repeats"] - 1
        setups = [run_child(args, cfg, deadline, setup_only=True)["setup_s"]
                  for _ in range(extra // 2)]
        child = run_child(args, cfg, deadline, setup_only=False)
        setups.append(child["setup_s"])
        setups += [run_child(args, cfg, deadline, setup_only=True)["setup_s"]
                   for _ in range(extra - extra // 2)]
        if args.trace:
            values, notes = child["layers"], {}
            wanted = spec["per_layer"]
        else:
            values, notes = end_to_end(child, setups, cfg["tail_pct"])
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not produced: {', '.join(missing)}")
    except (BenchError, ValueError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = child["failed"] == 0
    provenance = dict(
        child["provenance"], commit=git_commit(), source=source_digest(), seed=args.seed,
        workload=args.workload, seconds=args.seconds, trace=args.trace, smoke=args.smoke,
        operations=child["attempted"], setups=len(setups),
        cpu_steal_pct=steal_pct(ticks, cpu_ticks()),
    )
    record = {"metrics": metrics, "notes": notes, "provenance": provenance,
              "problems": child["problems"], "setups_s": setups,
              **{k: child[k] for k in ("times", "inputs", "detail", "trace_file") if k in child}}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"pdrtest bench  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:8s} {notes.get(name, '')}")
    fail_ratio = child["failed"] / child["attempted"]
    print(f"  {'fail_ratio':34s} {fail_ratio:14.6g} {'ratio':8s} "
          f"{child['failed']} of {child['attempted']} operations failed")
    for problem in child["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print("  provenance " + json.dumps(provenance, sort_keys=True))
    print(f"  record written to {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
