"""Simulation designs, size/power experiments, and table renderings.

Eight data-generating processes are built in: four without a plain
covariate (``ex1`` .. ``ex4``) and four with one (``ex5c1`` .. ``ex5c4``).
Each has a departure magnitude ``a``; ``a = 0`` satisfies the null family
exactly, larger values bend the mean away from it.  Experiments repeat the
test on fresh data and record rejection frequencies; every replicate
derives its random streams from (master seed, grid index, replicate
index), so results do not depend on scheduling or worker count.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import logging
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, Schema, _integer, _real
from .errors import DataError
from .lackfit import BLOCK_ELEMENTS, _pipeline, check_settings, cores

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimDesign:
    """One cell of a simulation grid: a generating process at a given size.

    ``beta0`` drives the null-model index; ``beta1``, when present, drives
    the departure term.  ``rho`` parameterizes the covariate covariance
    ``1{i=j} + rho^|i-j| 1{i!=j}`` (0 means identity).
    """

    case_id: str
    n: int
    a: float
    p1: int
    p2: int
    beta0: np.ndarray
    beta1: np.ndarray | None
    rho: float
    error_dist: str  # "normal" or "t4"
    null_family: str

    def __post_init__(self):
        for name, b in (("beta0", self.beta0), ("beta1", self.beta1)):
            if b is not None and abs(np.linalg.norm(b) - 1.0) > 1e-12:
                raise DataError(f"{name} must have unit norm")
        if not _integer(self.n):
            raise DataError(f"n must be an integer, got {self.n!r}")
        if self.n < 3:
            raise DataError(f"n must be at least 3, got {self.n}")
        if not _real(self.a):
            raise DataError(f"departure a must be a real number, got {self.a!r}")
        if not np.isfinite(self.a):
            raise DataError(f"departure a must be finite, got {self.a}")
        object.__setattr__(self, "a", float(self.a))


_CASE_TABLE = {
    # case: (p1, p2, beta0, beta1, rho, error, null family,
    #        base mean of (u0, w), departure of (u0, u1, w))
    "ex1": (4, 0, (0, 0, 1, 1), None, 0.0, "normal", "linear",
            lambda u0, w: u0, lambda u0, u1, w: np.cos(0.6 * np.pi * u0)),
    "ex2": (4, 0, (1, 1, 0, 0), (0, 0, 1, 1), 0.0, "normal", "linear",
            lambda u0, w: u0, lambda u0, u1, w: 0.125 * np.exp(0.3 * u1)),
    "ex3": (8, 0, (1, 1, 1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 1, 1), 0.0, "normal", "linear",
            lambda u0, w: u0, lambda u0, u1, w: 0.3 * u1**3 + 0.3 * u1**2),
    "ex4": (4, 0, (1, 1, -1, -1), None, 0.5, "t4", "linear",
            lambda u0, w: u0, lambda u0, u1, w: np.exp(-(u0**2) / 2.0) / 2.0),
    "ex5c1": (4, 1, (0, 0, 1, 1), None, 0.0, "normal", "linear+w",
              lambda u0, w: u0 + w, lambda u0, u1, w: np.cos(0.6 * np.pi * u0)),
    "ex5c2": (4, 1, (1, 1, 0, 0), (0, 0, 1, 1), 0.0, "normal", "linear+sinw",
              lambda u0, w: u0 + np.sin(w), lambda u0, u1, w: 0.5 * u1**2 + 2.0 * np.sin(w)),
    "ex5c3": (8, 1, (1, 1, 1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 1, 1), 0.0, "normal", "linear+cosw",
              lambda u0, w: u0 + np.cos(w), lambda u0, u1, w: 0.3 * u1**3 + 0.3 * u1**2),
    "ex5c4": (4, 1, (1, 1, -1, -1), None, 0.5, "t4", "linear+sinw",
              lambda u0, w: u0 + np.sin(w), lambda u0, u1, w: np.exp(-(u0**2) / 2.0) * w),
}

CASES = tuple(_CASE_TABLE)


def design(case_id: str, n: int, a: float) -> SimDesign:
    """Fill in the fixed parameters of a named design."""
    try:
        p1, p2, b0, b1, rho, err, fam, _, _ = _CASE_TABLE[case_id]
    except KeyError:
        raise DataError(f"unknown case id {case_id!r}; known: {', '.join(CASES)}") from None
    unit = lambda v: np.asarray(v, dtype=float) / np.linalg.norm(v)
    return SimDesign(
        case_id=case_id,
        n=n,
        a=a,
        p1=p1,
        p2=p2,
        beta0=unit(b0),
        beta1=None if b1 is None else unit(b1),
        rho=rho,
        error_dist=err,
        null_family=fam,
    )


def generate(dsg: SimDesign, rng: np.random.Generator) -> Dataset:
    """Draw one dataset from the design's generating process."""
    n, p1 = dsg.n, dsg.p1
    x = rng.standard_normal((n, p1))
    if dsg.rho != 0.0:
        idx = np.arange(p1)
        sigma = np.where(idx[:, None] == idx[None, :], 1.0, dsg.rho ** np.abs(idx[:, None] - idx[None, :]))
        x = x @ np.linalg.cholesky(sigma).T
    w_col = rng.standard_normal(n) if dsg.p2 else None
    eps = rng.standard_t(4, size=n) if dsg.error_dist == "t4" else rng.standard_normal(n)

    u0 = x @ dsg.beta0
    u1 = None if dsg.beta1 is None else x @ dsg.beta1
    *_, base_mean, departure = _CASE_TABLE[dsg.case_id]
    y = base_mean(u0, w_col) + dsg.a * departure(u0, u1, w_col) + 0.5 * eps

    w = np.empty((n, 0)) if w_col is None else w_col.reshape(-1, 1)
    schema = Schema(
        y="y",
        x=tuple(f"x{j + 1}" for j in range(p1)),
        w=("w1",) if dsg.p2 else (),
    )
    return Dataset(y=y, x=x, w=w, column_names=schema)


@dataclass(frozen=True)
class PowerRow:
    """One grid cell's result; its fields, in order, are the CSV columns."""

    case: str
    n: int
    a: float
    reps: int
    mc_reps: int
    alpha: float
    rejection_rate: float
    seed: int


@dataclass
class PowerTable:
    rows: list[PowerRow]


def _one_replicate(args) -> tuple[bool, bool]:
    """Worker task: (rejected, fit_warning) for one replicate of one grid
    cell, whose settings :func:`_check_experiment` has checked."""
    dsg, grid_index, rep_index, seed, mc_reps, alpha = args
    root = np.random.SeedSequence([seed, grid_index, rep_index])
    data_ss, test_ss = root.spawn(2)
    ds = generate(dsg, np.random.default_rng(data_ss))
    test_seed = int(test_ss.generate_state(1, dtype=np.uint64)[0])
    report = _pipeline(ds, dsg.null_family, mc_reps, None, test_seed, alpha)
    return report.reject, not report.fit.converged


def _check_experiment(designs: list[SimDesign], reps: int, mc_reps: int, alpha: float,
                      seed: int, workers: int) -> int:
    """The processes that run the replicates, ``min(workers, reps, cores())``.
    Refuse, with a :class:`DataError`, a replicate or worker count that is
    not a positive integer, what :func:`check_settings` refuses, and one
    replicate of a design per process past the memory this process can use."""
    if not _integer(reps):
        raise DataError(f"reps must be an integer, got {reps}")
    if reps < 1:
        raise DataError(f"reps must be at least 1, got {reps}")
    if not _integer(workers):
        raise DataError(f"workers must be an integer, got {workers}")
    if workers < 1:
        raise DataError(f"workers must be at least 1, got {workers}")
    limit = check_settings(mc_reps, alpha, seed)
    # a fork pool starts all its processes at its first task: pool only those that can run
    procs = min(workers, reps, cores())
    if limit is None or not designs:
        return procs
    # A lower bound on one replicate's memory, from tracemalloc peaks of
    # generate and run_test at m = 300.  Without W the peak was 5.2-7.4
    # times the data's n (p1 + p2 + 2) 8 bytes at n = 8000 to 200 000 (ex1,
    # ex3, ex4).  With one W column it was 52-255 times the data at n = 500
    # to 8000 (ex5c1, ex5c3), most of it dense indicator blocks: over 4
    # times the data and the m replicates, 0.67-4.0 blocks of min(n^2,
    # BLOCK_ELEMENTS) float64, the least at n = 1000 to 1024, where the
    # block kernel holds only the indicator rows that can dominate each
    # column block.  Those rows are at least half of n^2.  So a replicate
    # holds at least 4 times its data, half a block with W, and its m
    # replicates, and a grid is refused only when it cannot run.
    def replicate_bytes(d: SimDesign) -> int:
        n = int(d.n)
        block = min(n * n, BLOCK_ELEMENTS) // 2 if d.p2 else 0
        return 8 * (4 * n * (d.p1 + d.p2 + 2) + block + int(mc_reps))

    big = max(designs, key=replicate_bytes)
    need = int(procs) * replicate_bytes(big)
    if need > limit:
        raise DataError(f"replicates of {big.case_id} at n={big.n} on {procs} worker(s) need "
                        f"at least {need:,} bytes, more than the {limit:,} bytes of memory "
                        "this process can use")
    return procs


def power_experiment(
    designs: list[SimDesign],
    reps: int,
    mc_reps: int,
    alpha: float,
    seed: int,
    workers: int = 1,
) -> PowerTable:
    """Rejection frequency of the test over fresh datasets, per grid cell.

    Deterministic given ``seed`` regardless of ``workers``.  The replicates
    of every design run in one process pool, made once per call, of
    ``min(workers, reps, cores())`` processes, or in this process when
    that is 1.  Failed replicates are logged and re-raised, non-converged
    fits only counted and logged.  A bad setting is a :class:`DataError`
    (exit 3 from the CLI), raised before any replicate runs: the counts,
    the Monte Carlo size and the seed must be integers, as
    :func:`check_settings` requires, and one replicate of the largest
    design per process must fit in memory.  The settings are checked once
    here, and not again in each replicate.
    """
    procs = _check_experiment(designs, reps, mc_reps, alpha, seed, workers)
    rows: list[PowerRow] = []
    with ProcessPoolExecutor(procs) if procs > 1 else contextlib.nullcontext() as pool:
        for gi, dsg in enumerate(designs):
            tasks = [(dsg, gi, r, seed, mc_reps, alpha) for r in range(reps)]
            try:
                if pool is None:
                    outcomes = [_one_replicate(t) for t in tasks]
                else:
                    outcomes = list(pool.map(_one_replicate, tasks, chunksize=8))
            except Exception:
                logger.exception(
                    "replicate failed in case=%s n=%d a=%g", dsg.case_id, dsg.n, dsg.a
                )
                raise
            rejections = sum(rej for rej, _ in outcomes)
            warnings = sum(wrn for _, wrn in outcomes)
            if warnings:
                logger.warning(
                    "case=%s n=%d a=%g: %d/%d replicates had non-converged fits",
                    dsg.case_id, dsg.n, dsg.a, warnings, reps,
                )
            rows.append(
                PowerRow(
                    case=dsg.case_id,
                    n=dsg.n,
                    a=dsg.a,
                    reps=reps,
                    mc_reps=mc_reps,
                    alpha=alpha,
                    rejection_rate=rejections / reps,
                    seed=seed,
                )
            )
    return PowerTable(rows=rows)


def _row_fields() -> list[str]:
    return [f.name for f in dataclasses.fields(PowerRow)]


def render_csv(table: PowerTable) -> str:
    """One CSV row per grid cell, one column per ``PowerRow`` field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_row_fields())
    writer.writerows(dataclasses.astuple(r) for r in table.rows)
    return buf.getvalue()


def render_text(table: PowerTable) -> str:
    """Aligned plain-text rendering of the table, one column per ``PowerRow``
    field: the rate to four decimals, other floats in ``%g``."""
    header = _row_fields()
    body = [
        [f"{v:.4f}" if name == "rejection_rate" else f"{v:g}" if isinstance(v, float) else str(v)
         for name, v in zip(header, dataclasses.astuple(r))]
        for r in table.rows
    ]
    widths = [max(len(row[i]) for row in [header, *body]) for i in range(len(header))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in [header, *body]]
    return "\n".join(lines) + "\n"


def render_curves(table: PowerTable) -> str:
    """Power-curve CSV: one row per departure magnitude, one rate column per n."""
    cases = sorted({r.case for r in table.rows})
    ns = sorted({r.n for r in table.rows})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["case", "a", *[f"rate_n{n}" for n in ns]])
    for case in cases:
        sub = [r for r in table.rows if r.case == case]
        for a in sorted({r.a for r in sub}):
            cells = {r.n: r.rejection_rate for r in sub if r.a == a}
            writer.writerow([case, repr(a), *[("" if n not in cells else repr(cells[n])) for n in ns]])
    return buf.getvalue()


#: Table renderings by format name.
RENDERERS = {"csv": render_csv, "text": render_text, "curves": render_curves}


def parse_table(text: str) -> PowerTable:
    """Parse the flat CSV rendering back into a table."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty table text") from None
    if header != _row_fields():
        raise DataError(f"unexpected header {header}")
    types = typing.get_type_hints(PowerRow)
    rows = [
        PowerRow(**{name: types[name](cell) for name, cell in zip(header, rec, strict=True)})
        for rec in reader if rec
    ]
    return PowerTable(rows=rows)


@dataclass(frozen=True)
class ExperimentSpec:
    """Parsed experiment-specification file."""

    case: str
    n: tuple[int, ...]
    a: tuple[float, ...]
    reps: int
    mc_reps: int
    alpha: float
    seed: int
    out: str | None = None

    def designs(self) -> list[SimDesign]:
        """Grid in row-major (a outer, n inner) order."""
        return [design(self.case, n, a) for a in self.a for n in self.n]


def read_experiment_spec(path: str | Path) -> ExperimentSpec:
    """Read a flat ``key = value`` experiment file.

    Recognized keys: case, n, a, reps, mc_reps, alpha, seed, out.  Lists
    are comma-separated; ``#`` starts a comment.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value

    required = {"case", "n", "a", "reps", "mc_reps", "alpha", "seed"}
    missing = sorted(required - entries.keys())
    if missing:
        raise DataError(f"{path}: missing key(s): {', '.join(missing)}")
    unknown = sorted(entries.keys() - required - {"out"})
    if unknown:
        raise DataError(f"{path}: unknown key(s): {', '.join(unknown)}")
    try:
        spec = ExperimentSpec(
            case=entries["case"],
            n=tuple(int(v) for v in entries["n"].split(",")),
            a=tuple(float(v) for v in entries["a"].split(",")),
            reps=int(entries["reps"]),
            mc_reps=int(entries["mc_reps"]),
            alpha=float(entries["alpha"]),
            seed=int(entries["seed"]),
            out=entries.get("out"),
        )
        _check_experiment(spec.designs(), spec.reps, spec.mc_reps, spec.alpha, spec.seed, 1)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    for key, values in (("n", spec.n), ("a", spec.a)):
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise DataError(f"{path}: repeated {key} value(s): {', '.join(map(str, repeated))}")
    return spec
