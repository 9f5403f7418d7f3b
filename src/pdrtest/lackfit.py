"""Residual-marked empirical-process statistic and its resampling p-value.

The statistic integrates the squared cumulative residual process, indexed
by componentwise dominance of the projected covariates, against the
empirical law of the projected sample.  Its null distribution is
approximated by multiplying estimated influence contributions with
independent standard normal draws; the p-value is the fraction of
resampled statistics at least as large as the observed one, which makes
the decision invariant to any common positive rescaling.  The statistic,
the score mean and each resampled statistic are one operation, the slot
sums of a :class:`DominanceKernel`, and the statistic and the replicates
are read from them alike, ``(y * y) @ weights / n^2``; no n x n array is
formed above n = 1024.  From ``THREAD_CROSSOVER`` observations, a W-free
multiplier pass runs one span of whole replicate blocks per core, up to
``MAX_THREADS``, concurrently, and gives one span's replicates bit for bit.
"""

from __future__ import annotations

import functools
import multiprocessing
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataError
from .families import ModelFamily, get_family
from .fit import FitResult, influence_vectors, nls_fit
from .sdr import BasisEstimate, estimate_basis


#: Entries of one dense indicator block.  Up to n = 1024 one block holds
#: every column, and the block kernel builds its indicators once; above
#: that it builds column blocks of this size on every call, with multiplier
#: blocks of as many rows to amortise each rebuild, so that no n x n array
#: is formed.
BLOCK_ELEMENTS = 1 << 20


#: Entries of one multiplier block over the sorted kernel, and over a block
#: kernel whose indicators are built whole: 512 KB of float64, so that a
#: block and its working copy stay in a core's L2 cache.  A sweep of 2^15
#: to 2^18 at n = 8000 and 2000 (2 cores, 2 MB L2 each) was flat to within
#: noise from 2^15 to 2^17 and slower above.
CACHE_ELEMENTS = 1 << 16


#: Observations from which a sorted-kernel multiplier pass runs on every
#: core.  The normal draws release the GIL, but the per-row seeding does
#: not, and with the thread start-up it outweighs the gain at small n: two
#: sweeps of the W-free ``mc_pvalue`` at m = 1000 on 2 cores put the
#: break-even between n = 1500 and 3000, and both gained 20-30% from
#: n = 4000 up.
THREAD_CROSSOVER = 4096


#: Threads of one sorted-kernel multiplier pass at most.  Each span holds
#: two multiplier blocks of buffers (1 MB), and the gain was measured on
#: 2 cores only.
MAX_THREADS = 2


def cores() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS and Windows
        return os.cpu_count() or 1


def block_width(n: int) -> int:
    """Columns, or replicate rows, of one block over n observations."""
    return max(1, BLOCK_ELEMENTS // n)


def cache_rows(n: int) -> int:
    """Replicate rows of one cache-sized multiplier block over n observations."""
    return max(1, CACHE_ELEMENTS // n)


def indicator_block(points: np.ndarray, cols: slice) -> np.ndarray:
    """Boolean dominance indicators ``1{points_i <= points_j}`` for every i
    and the columns j in ``cols``."""
    out = np.ones((points.shape[0], cols.stop - cols.start), dtype=bool)
    for c in range(points.shape[1]):
        col = points[:, c]
        out &= col[:, None] <= col[None, cols]
    return out


def column_blocks(n: int) -> list[slice]:
    width = block_width(n)
    return [slice(lo, min(lo + width, n)) for lo in range(0, n, width)]


class DominanceKernel:
    """Dominance sums ``out[..., j] = sum_i values[..., i] * 1{points_i <=
    points_j}`` over fixed (n, k) ``points``, in one operation:
    ``slot_sums(values, out=None)`` writes them, along the last axis and in
    the kernel's slot order, to ``out`` (a new array if None) and returns it.

    Point j's sum is in slot ``slot_of[j]``, and ``weights[t]`` counts the
    points whose sum slot t holds, so ``(y * y) @ weights`` adds each
    point's squared sum once.  ``rows`` is the replicate rows of one
    multiplier block, and ``threads`` the most threads a multiplier pass
    may run on.
    """

    def slot_sums(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError


class SortedKernel(DominanceKernel):
    """One column of points: slot t is sorted position t, and point j's sum
    is the cumulative sum read at the last position of its tie run.  Slots
    inside a run hold partial sums and have weight 0."""

    def __init__(self, points: np.ndarray):
        col, self.points, self.n = points[:, 0], points, points.shape[0]
        self.order = np.argsort(col, kind="stable")
        self.slot_of = np.searchsorted(col[self.order], col, side="right") - 1
        self.weights = np.bincount(self.slot_of, minlength=self.n).astype(float)

    @property
    def rows(self) -> int:
        return cache_rows(self.n)

    @property
    def threads(self) -> int:
        # a pool worker (simulate's) shares the cores with its siblings
        if self.n < THREAD_CROSSOVER or multiprocessing.parent_process() is not None:
            return 1
        return min(cores(), MAX_THREADS)

    def slot_sums(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # "clip" on indices that are all valid: the default "raise" buffers ``out``
        out = np.take(values, self.order, axis=-1, out=out, mode="clip")
        return np.cumsum(out, axis=-1, out=out)


class BlockKernel(DominanceKernel):
    """Two or more columns of points: slot j is point j, and the sums are
    products with the dense indicators.  While one block holds every
    column (``n <= block_width(n)``), the float64 indicator matrix is
    built once, on first use, and a multiplier block has the cache-sized
    rows of the sorted kernel.  Above that, column blocks are built on
    every call, a multiplier block has ``block_width(n)`` rows, and memory
    stays O(block * n).  A pass runs on one thread: its products already
    run on the BLAS threads."""

    threads = 1

    def __init__(self, points: np.ndarray):
        self.points, self.n = points, points.shape[0]
        self.slot_of, self.weights = np.arange(self.n), np.ones(self.n)

    @property
    def whole(self) -> bool:
        """Whether one block holds every column of the indicators."""
        return self.n <= block_width(self.n)

    @property
    def rows(self) -> int:
        return cache_rows(self.n) if self.whole else block_width(self.n)

    @functools.cached_property
    def indicators(self) -> np.ndarray:
        """The (n, n) float64 indicator matrix, for ``whole`` kernels."""
        return indicator_block(self.points, slice(0, self.n)).astype(float)

    def slot_sums(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.whole:
            return np.matmul(values, self.indicators, out=out)
        if out is None:
            out = np.empty(np.shape(values))
        for cols in column_blocks(self.n):
            np.matmul(values, indicator_block(self.points, cols), out=out[..., cols])
        return out


def dominance_kernel(points: np.ndarray) -> DominanceKernel:
    """The kernel over (n, k) ``points``: a sort for one column, dense
    indicator blocks for more."""
    return (SortedKernel if points.shape[1] == 1 else BlockKernel)(points)


@dataclass(frozen=True)
class ProjectedSample:
    """Projected covariates ``s`` (n, q_hat), the partial covariates ``w``
    (n, p2), and the dominance kernel over ``(s[:, 0], w)`` (``first``, for
    the score mean and the influence operator), built once.  Dominance is
    componentwise and inclusive.
    """

    s: np.ndarray
    w: np.ndarray
    first: DominanceKernel

    @classmethod
    def of(cls, s: np.ndarray, w: np.ndarray) -> "ProjectedSample":
        """The sample of points ``(s, w)``, arrays (n, q) and (n, p2)."""
        return cls(s, w, dominance_kernel(np.column_stack([s[:, :1], w])))

    @property
    def full(self) -> DominanceKernel:
        """The kernel over ``(s, w)``, for the statistic: ``first`` with one
        projection column, else built on each use, so that its indicators
        are not held through the multiplier pass."""
        if self.s.shape[1] == 1:
            return self.first
        return dominance_kernel(np.column_stack([self.s, self.w]))


@dataclass(frozen=True)
class TestReport:
    """Everything a test run produced, sufficient to reproduce it.

    ``basis`` is the direction estimate the statistic was built on and
    ``replicates`` the resampled statistics behind ``p_hat``; the
    Monte Carlo size is ``replicates.size``.
    """

    t_n: float
    p_hat: float
    basis: BasisEstimate
    replicates: np.ndarray
    fit: FitResult
    family: str
    alpha: float
    seed: int
    reject: bool

    @property
    def q_hat(self) -> int:
        return self.basis.q_hat

    @property
    def b(self) -> np.ndarray:
        return self.basis.b

    def to_record(self) -> dict:
        """Machine-readable record of the run: the basis record (every value
        ``dim`` prints) plus the test's own values.  ``mc_se`` is the Monte
        Carlo standard error of ``p_hat``, ``sqrt(p_hat (1 - p_hat) / m)``."""
        reps = self.replicates
        return {
            **self.basis.to_record(),
            "t_n": self.t_n,
            "p_hat": self.p_hat,
            "mc_se": float(np.sqrt(self.p_hat * (1.0 - self.p_hat) / reps.size)),
            "reject": self.reject,
            "m": reps.size,
            "seed": self.seed,
            "alpha": self.alpha,
            "family": self.family,
            "converged": self.fit.converged,
            "mc": {
                "count": reps.size,
                "min": float(reps.min()),
                "median": float(np.median(reps)),
                "max": float(reps.max()),
            },
        }


def build_projected(ds: Dataset, basis: BasisEstimate) -> ProjectedSample:
    """Project the index covariates on the estimated directions and build
    the sample's first-column dominance kernel."""
    if basis.b.shape[0] != ds.p1:
        raise ValueError(f"basis has {basis.b.shape[0]} rows, data has p1={ds.p1}")
    return ProjectedSample.of(ds.x @ basis.b, ds.w)


def tn_statistic(residuals: np.ndarray, proj: ProjectedSample) -> float:
    """Integrated squared residual partial-sum process over the sample points."""
    resid = np.asarray(residuals, dtype=float).reshape(-1)
    n = resid.shape[0]
    if proj.s.shape[0] != n:
        raise ValueError(f"{n} residuals but {proj.s.shape[0]} projected points")
    kernel = proj.full
    y = kernel.slot_sums(resid)
    return float(np.square(y, out=y) @ kernel.weights / (n * n))


class InfluenceOperator:
    """The n x n influence matrix ``a``, held as its factors.

    ``a[i, j] = r_i * 1{p_i <= p_j} - v_i' G_j``, where ``p`` are the
    first-column points ``(s_first, w)``, ``r`` the residuals, ``v`` the
    influence vectors and ``G_j`` the indicator-weighted score mean.  Only
    ``u @ a`` is defined, and no n x n array is formed.

    ``u @ a`` is the dominance sums of ``u * r`` less ``(u @ v) @ G``, so
    :meth:`slot_pass` is ``c = u @ v``, ``u *= r``, ``y = slot_sums(u)``,
    ``y -= c @ G``: one :meth:`DominanceKernel.slot_sums` of the
    first-column kernel.  ``r`` and ``v`` stay in point order, and only
    ``G = slot_sums(score') / n`` is in slot order, built once, here.  A
    replicate reads ``y`` as ``t_n`` reads its sums, ``(y * y) @ weights``,
    and ``__rmatmul__`` reads column j at ``slot_of[j]``.
    """

    __array_ufunc__ = None  # ``u @ a`` on an ndarray ``u`` calls __rmatmul__

    def __init__(self, r: np.ndarray, v: np.ndarray, score: np.ndarray, kernel: DominanceKernel):
        n = r.shape[0]
        self.kernel, self.shape = kernel, (n, n)
        # C order: ``u @ v`` sums in one order, to the same bits, for any layout of v
        self.r, self.v = r, np.ascontiguousarray(v)
        self.g = kernel.slot_sums(score.T) / n

    def slot_pass(self, u: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``u @ a`` in slot order, written to ``x``; ``u`` is overwritten.
        The two buffers swap roles, so the pass needs no third one."""
        c = u @ self.v
        u *= self.r
        y = self.kernel.slot_sums(u, x)
        y -= np.matmul(c, self.g, out=u)
        return y

    def square_sums(self, u: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Row-wise sums of squares of ``u @ a`` for (k, n) multipliers ``u``.
        ``x`` (k, n) is the working buffer; both are overwritten."""
        y = self.slot_pass(u, x)
        return np.square(y, out=y) @ self.kernel.weights

    def __rmatmul__(self, u) -> np.ndarray:
        u = np.array(u, dtype=float)  # a copy: the pass overwrites it
        return np.take(self.slot_pass(u, np.empty(u.shape)), self.kernel.slot_of, axis=-1)


def rho_matrix(fit: FitResult, v_hat: np.ndarray, proj: ProjectedSample) -> InfluenceOperator:
    """Influence contributions evaluated at every sample point, as an
    :class:`InfluenceOperator` of shape (n, n).

    Column j corresponds to the evaluation point ``(s_first_j, w_j)``;
    entry (i, j) is the residual of observation i marked by the
    first-column dominance indicator, minus the estimation-effect
    correction ``Ghat_j' v_i`` where ``Ghat_j`` is the indicator-weighted
    score mean.  Only the first projection column enters here: the
    resampling law targets the single-direction null structure.
    ``np.eye(n) @ rho_matrix(...)`` gives the dense matrix.
    """
    n = fit.residuals.shape[0]
    if proj.s.shape[0] != n:
        raise ValueError(f"fit has {n} rows but {proj.s.shape[0]} projected points")
    return InfluenceOperator(fit.residuals, v_hat, fit.score, proj.first)


def mc_replicate(a: InfluenceOperator | np.ndarray, u: np.ndarray) -> float:
    """Resampled statistic for one multiplier vector ``u``, over the
    operator or a dense (n, n) matrix."""
    u = np.asarray(u, dtype=float).reshape(-1)
    n = a.shape[0]
    delta = (u @ a) / np.sqrt(n)
    return float(np.mean(delta**2))


def pvalue_from_replicates(t_n: float, replicates: np.ndarray) -> float:
    """Fraction of replicate statistics at least as large as the observed one."""
    replicates = np.asarray(replicates, dtype=float).reshape(-1)
    return float(np.mean(replicates >= t_n))


def mc_pvalue(t_n: float, a: InfluenceOperator, m: int, seed: int) -> tuple[float, np.ndarray]:
    """Monte Carlo p-value of ``t_n`` against ``m`` multiplier replicates.

    ``a`` is the operator :func:`rho_matrix` returns.  Multiplier vector j
    comes from the substream ``SeedSequence(seed, spawn_key=(j,))``, the
    child j of ``SeedSequence(seed).spawn``, so the first k replicates are
    the same for any ``m >= k``.  Replicate j is the sum of squares of
    ``u_j @ a`` over n^2.

    The multipliers are drawn into one reused block buffer, of the rows the
    operator's kernel sets: about 2^16 entries over the sorted kernel and
    over a block kernel up to n = 1024 (8 rows at n = 8000, 129 at the
    housing data's 506), so that the draws and their working copy stay in
    cache, and ``block_width(n)`` rows over a larger block kernel.  Each
    block is one :meth:`InfluenceOperator.square_sums`.

    The blocks are cut into ``min(a.kernel.threads, blocks)`` contiguous
    spans of whole blocks, one per thread, each with its own buffers: more
    than one only over the sorted kernel from ``THREAD_CROSSOVER``
    observations, on the cores of the affinity mask up to ``MAX_THREADS``,
    and never in a multiprocessing child such as a ``simulate`` pool
    worker.  The calling thread runs the first span, and the helper threads
    are joined before this returns, so none outlives the call.  A replicate
    is drawn and summed the same way in any span, so the replicates do not
    depend on the thread count.  Returns the p-value and the replicate
    statistics themselves.
    """
    if m < 1:
        raise ValueError(f"need at least one replicate, got {m}")
    n, rows = a.shape[0], a.kernel.rows
    replicates = np.empty(m)
    blocks = (m + rows - 1) // rows  # no negation: m may be an unsigned numpy integer
    spans = min(a.kernel.threads, blocks)
    cuts = [min(m, rows * (blocks * i // spans)) for i in range(spans + 1)]

    def span(lo: int, hi: int) -> None:
        u = np.empty((min(hi - lo, rows), n))
        x = np.empty_like(u)
        for start in range(lo, hi, rows):
            k = min(rows, hi - start)
            for j, row in enumerate(u[:k], start):
                child = np.random.SeedSequence(seed, spawn_key=(j,))
                np.random.default_rng(child).standard_normal(out=row)
            replicates[start:start + k] = a.square_sums(u[:k], x[:k])

    if spans == 1:
        span(0, m)
    else:
        with ThreadPoolExecutor(spans - 1) as pool:
            helpers = [pool.submit(span, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
            span(cuts[0], cuts[1])
            for done in helpers:
                done.result()
    replicates /= n * n
    return pvalue_from_replicates(t_n, replicates), replicates


def check_settings(m: int, alpha: float, seed: int) -> None:
    """Reject a Monte Carlo size, level or seed the test cannot use, before
    any work is done.  ``m`` and ``seed`` must be integers, Python's or
    numpy's; a float or a bool is refused even when it is integral."""
    def integer(k) -> bool:
        return isinstance(k, numbers.Integral) and not isinstance(k, bool)

    if not integer(seed) or seed < 0:
        raise DataError(f"seed must be a non-negative integer, got {seed}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not integer(m):
        raise ValueError(f"the number of replicates must be an integer, got {m}")
    if m < 1:
        raise ValueError(f"need at least one replicate, got {m}")


def run_test(
    ds: Dataset,
    family: ModelFamily | str,
    *,
    m: int = 2000,
    c_n: float | None = None,
    seed: int,
    alpha: float = 0.05,
) -> TestReport:
    """Full pipeline: direction estimate, least-squares fit, statistic,
    multiplier resampling, decision.  Deterministic given ``seed``.
    """
    check_settings(m, alpha, seed)
    if isinstance(family, str):
        family = get_family(family, ds.p1, ds.p2)
    basis = estimate_basis(ds, c_n)
    fit = nls_fit(ds, family)
    proj = build_projected(ds, basis)
    t_n = tn_statistic(fit.residuals, proj)
    v_hat = influence_vectors(fit)
    a = rho_matrix(fit, v_hat, proj)
    p_hat, replicates = mc_pvalue(t_n, a, m, seed)
    return TestReport(
        t_n=t_n,
        p_hat=p_hat,
        basis=basis,
        replicates=replicates,
        fit=fit,
        family=family.name,
        alpha=alpha,
        seed=seed,
        reject=bool(p_hat <= alpha),
    )
