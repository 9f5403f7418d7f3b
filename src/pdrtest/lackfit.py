"""Residual-marked empirical-process statistic and its resampling p-value.

The statistic integrates the squared cumulative residual process, indexed
by componentwise dominance of the projected covariates, against the
empirical law of the projected sample.  Its null distribution is
approximated by multiplying estimated influence contributions with
independent standard normal draws; the p-value is the fraction of
resampled statistics at least as large as the observed one, which makes
the decision invariant to any common positive rescaling.  The statistic,
the score mean and each block of resampled statistics are one operation,
``slot_sums(values, spare)`` of a :class:`DominanceKernel`, and the
statistic and the replicates are read from its sums alike, ``(y * y) @
weights / n^2``; no n x n array is formed above n = 256.  Over two or
more columns the points are sorted by their first column, and each block
of columns is multiplied only by the rows that can dominate it, about half
of the n x n indicators in all.  Over one column of points the slot sums
are prefix sums in sorted order, taken for a block
of rows as one product per row of chunks of ``SCAN_CHUNK`` slots with a
triangular matrix of ones, in place of ``np.cumsum``'s serial chain of
adds.  From ``THREAD_CROSSOVER`` observations, a W-free multiplier pass
runs one span of whole replicate blocks per core, up to ``MAX_THREADS``,
concurrently, and gives one span's replicates bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _integer, _real
from .errors import DataError
from .families import ModelFamily, get_family
from .fit import FitResult, influence_vectors, nls_fit
from .sdr import BasisEstimate, estimate_basis


#: Entries of one dense indicator block of n rows.  Up to n = 1024 one
#: block holds every column, and the block kernel builds its indicators
#: once, in column blocks of a multiplier block's width; above that it
#: builds column blocks of ``block_width(n)`` columns on every call, with
#: multiplier blocks of as many rows to amortise each rebuild, so that no
#: n x n array is formed.  A column block keeps only the rows that can
#: dominate it, so one block holds at most this many entries, and the
#: blocks of all columns about half of n^2.
BLOCK_ELEMENTS = 1 << 20


#: Entries of one multiplier block over the sorted kernel, and over a block
#: kernel whose indicators are built whole: 512 KB of float64, so that a
#: block and its spare buffer stay in a core's L2 cache.  A sweep of 2^15
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


#: Slots per chunk of the sorted kernel's prefix sums.  A chunk's prefix
#: sums are one product with an upper-triangular matrix of ones, which runs
#: at a few flops per slot where ``np.cumsum`` is one serial chain of adds.
#: A sweep of 8, 16 and 32 on multiplier blocks from (8, 8000) to
#: (300, 100) (2 cores, one BLAS thread) was fastest at 16, or within noise.
SCAN_CHUNK = 16


#: Threads of one sorted-kernel multiplier pass at most.  Each span holds
#: two buffers of one multiplier block (1 MB), the only arrays of its size
#: that its pass touches, and the gain was measured on 2 cores only.
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
    and the columns j in ``cols``, over points sorted by their first
    column: the rows before ``cols`` are not compared in it."""
    out = np.ones((points.shape[0], cols.stop - cols.start), dtype=bool)
    for c in range(1, points.shape[1]):
        col = points[:, c]
        out &= col[:, None] <= col[None, cols]
    first = points[:, 0]
    out[cols.start:] &= first[cols.start:, None] <= first[None, cols]
    return out


class DominanceKernel:
    """Dominance sums ``sums[..., j] = sum_i values[..., i] * 1{points_i <=
    points_j}`` over fixed (n, k) ``points``, in one operation:
    ``slot_sums(values, spare)`` writes them, along the last axis and in
    the kernel's slot order, to ``values`` (which it may overwrite) or to
    ``spare`` of the same shape, and returns them with the other, now free.

    Point j's sum is in slot ``slot_of[j]``, and ``weights[t]`` counts the
    points whose sum slot t holds, so ``(y * y) @ weights`` adds each
    point's squared sum once.  ``rows`` is the replicate rows of one
    multiplier block, and ``threads`` the most threads a multiplier pass
    may run on.

    Every kernel sorts its points stably by their first column, ``order``,
    and a pass starts by gathering ``values`` into that order in ``spare``.
    By default slot t is sorted position t with weight 1; a kernel whose
    slots differ sets its own ``slot_of`` and ``weights`` when it is built.
    """

    def __init__(self, points: np.ndarray):
        self.points, self.n = points, points.shape[0]
        self.order = np.argsort(points[:, 0], kind="stable")

    @functools.cached_property
    def slot_of(self) -> np.ndarray:
        slots = np.empty(self.n, dtype=np.intp)
        slots[self.order] = np.arange(self.n)
        return slots

    @functools.cached_property
    def weights(self) -> np.ndarray:
        return np.ones(self.n)

    def _gather(self, values: np.ndarray, spare: np.ndarray) -> np.ndarray:
        """``values`` in first-column order along the last axis, in ``spare``."""
        # "clip" on indices that are all valid: the default "raise" buffers ``spare``
        return np.take(values, self.order, axis=-1, out=spare, mode="clip")

    def slot_sums(self, values: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class SortedKernel(DominanceKernel):
    """One column of points: slot t is sorted position t, and point j's sum
    is the prefix sum of the sorted values read at the last position of
    its tie run.  Slots inside a run hold partial sums and have weight 0.

    ``slot_sums`` gathers ``values`` into ``spare``.  1-D values and rows
    shorter than ``SCAN_CHUNK`` are then summed in place by ``np.cumsum``.
    Longer rows are summed back into ``values`` in chunks of
    ``SCAN_CHUNK`` slots: the running sum of the chunk totals up to each
    chunk is added to the first value of the next chunk, and then each
    chunk is multiplied by ``upper``, the upper-triangular matrix of ones,
    so that one product per row gives every prefix sum; a product cannot
    be written over its own input.  The slots after the last whole chunk
    take ``np.cumsum``."""

    def __init__(self, points: np.ndarray):
        super().__init__(points)
        col = points[:, 0]
        self.slot_of = np.searchsorted(col[self.order], col, side="right") - 1
        self.weights = np.bincount(self.slot_of, minlength=self.n).astype(float)
        self.upper = np.triu(np.ones((SCAN_CHUNK, SCAN_CHUNK)))

    @property
    def rows(self) -> int:
        return cache_rows(self.n)

    @property
    def threads(self) -> int:
        # a pool worker (simulate's) shares the cores with its siblings
        if self.n < THREAD_CROSSOVER or multiprocessing.parent_process() is not None:
            return 1
        return min(cores(), MAX_THREADS)

    def slot_sums(self, values: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = self._gather(values, spare)
        size = self.upper.shape[0]
        if t.ndim < 2 or self.n < size:
            return np.cumsum(t, axis=-1, out=t), values
        whole = self.n - self.n % size
        chunks = t[..., :whole].reshape(t.shape[:-1] + (-1, size))
        carry = np.matmul(chunks, self.upper[0])  # the chunk totals
        np.cumsum(carry, axis=-1, out=carry)
        chunks[..., 1:, 0] += carry[..., :-1]
        np.matmul(chunks, self.upper, out=values[..., :whole].reshape(chunks.shape))
        if whole < self.n:
            t[..., whole] += carry[..., -1]
            np.cumsum(t[..., whole:], axis=-1, out=values[..., whole:])
        return values, spare


class BlockKernel(DominanceKernel):
    """Two or more columns of points, in the default slots: the sums are
    products with dense indicator blocks.  A column block J of slots can
    only be dominated by the ``ends[J]`` slots whose first value is at most
    the largest of J's, ties included, so its block has only those rows.

    ``slot_sums`` gathers ``values`` into ``spare`` and writes each block's
    product, ``t[..., :ends[J]] @ block_J``, to ``values[..., J]``.  While
    one block of ``BLOCK_ELEMENTS`` holds every column (``n <=
    block_width(n)``), the blocks have the cache-sized width of a
    multiplier block and are built once, in float64, on first use.  Above
    that, blocks of ``block_width(n)`` columns are built on every call, a
    multiplier block has as many rows, and memory stays O(block * n).  A
    pass runs on one thread: its products already run on the BLAS
    threads."""

    threads = 1

    def __init__(self, points: np.ndarray):
        super().__init__(points)
        self.sorted = points[self.order]

    @property
    def whole(self) -> bool:
        """Whether one block of ``BLOCK_ELEMENTS`` holds every column."""
        return self.n <= block_width(self.n)

    @property
    def rows(self) -> int:
        return cache_rows(self.n) if self.whole else block_width(self.n)

    def blocks(self):
        """Each column block's slots and its float64 indicators over the
        slots that can dominate it, built now."""
        first, width = self.sorted[:, 0], self.rows
        for lo in range(0, self.n, width):
            cols = slice(lo, min(lo + width, self.n))
            end = np.searchsorted(first, first[cols.stop - 1], side="right")
            # cast here: a product with the boolean block took 1.15x as long (n = 8000)
            yield cols, indicator_block(self.sorted[:end], cols).astype(float)

    @functools.cached_property
    def indicators(self) -> list[tuple[slice, np.ndarray]]:
        """The blocks of a ``whole`` kernel."""
        return list(self.blocks())

    def slot_sums(self, values: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = self._gather(values, spare)
        for cols, block in self.indicators if self.whole else self.blocks():
            np.matmul(t[..., :block.shape[0]], block, out=values[..., cols])
            del block  # a built block is freed before the next is built
        return values, spare


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
    resid = np.array(residuals, dtype=float).reshape(-1)  # a copy: the kernel overwrites it
    n = resid.shape[0]
    if proj.s.shape[0] != n:
        raise ValueError(f"{n} residuals but {proj.s.shape[0]} projected points")
    kernel = proj.full
    y, _ = kernel.slot_sums(resid, np.empty(n))
    return float(np.square(y, out=y) @ kernel.weights / (n * n))


class InfluenceOperator:
    """The n x n influence matrix ``a``, held as its factors.

    ``a[i, j] = r_i * 1{p_i <= p_j} - v_i' G_j``, where ``p`` are the
    first-column points ``(s_first, w)``, ``r`` the residuals, ``v`` the
    influence vectors and ``G_j`` the indicator-weighted score mean.  Only
    ``u @ a`` is defined, and no n x n array is formed.

    ``u @ a`` is the dominance sums of ``u * r`` less ``(u @ v) @ G``, so
    :meth:`slot_pass` is ``c = u @ v``, ``u *= r``, ``y, free =
    slot_sums(u, x)``, ``y -= c @ G`` with the product in ``free``: one
    :meth:`DominanceKernel.slot_sums` of the first-column kernel.  ``r``
    and ``v`` stay in point order, and only ``G``, the slot sums of
    ``score'`` over n, is in slot order, built once, here.  A replicate
    reads ``y`` as ``t_n`` reads its sums, ``(y * y) @ weights``, and
    ``__rmatmul__`` reads column j at ``slot_of[j]``.
    """

    __array_ufunc__ = None  # ``u @ a`` on an ndarray ``u`` calls __rmatmul__

    def __init__(self, r: np.ndarray, v: np.ndarray, score: np.ndarray, kernel: DominanceKernel):
        n = r.shape[0]
        self.kernel, self.shape = kernel, (n, n)
        # C order: ``u @ v`` sums in one order, to the same bits, for any layout of v
        self.r, self.v = r, np.ascontiguousarray(v)
        t = score.T.copy(order="K")  # the kernel may overwrite it; score's own layout, no transpose
        # C order, whichever buffer holds the sums: ``c @ G`` over G in F order
        # took 1.6x as long at n = 8000
        self.g = np.ascontiguousarray(kernel.slot_sums(t, np.empty(t.shape))[0] / n)

    def slot_pass(self, u: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``u @ a`` in slot order, written to ``u`` or to ``x`` and
        returned; both are overwritten.  The kernel sums in the two
        buffers, and ``c @ G`` goes to the one it leaves free, so the pass
        needs no third one."""
        c = u @ self.v
        u *= self.r
        y, free = self.kernel.slot_sums(u, x)
        y -= np.matmul(c, self.g, out=free)
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


def _draw_multipliers(u: np.ndarray, seed: int, start: int) -> None:
    """Fill row i of the block ``u`` with the standard normal multipliers of
    replicate ``start + i``, drawn from the substream ``SeedSequence(seed,
    spawn_key=(start + i,))``, the child ``start + i`` of
    ``SeedSequence(seed).spawn``, so a row depends on its index only."""
    for j, row in enumerate(u, start):
        child = np.random.SeedSequence(seed, spawn_key=(j,))
        np.random.default_rng(child).standard_normal(out=row)


def mc_pvalue(t_n: float, a: InfluenceOperator, m: int, seed: int) -> tuple[float, np.ndarray]:
    """Monte Carlo p-value of ``t_n`` against ``m`` multiplier replicates.

    ``a`` is the operator :func:`rho_matrix` returns.  Multiplier vector j
    is drawn from its own substream of ``seed`` by
    :func:`_draw_multipliers`, so the first k replicates are the same for
    any ``m >= k``.  Replicate j is the sum of squares of ``u_j @ a`` over
    n^2.  ``m`` and ``seed`` are checked as :func:`check_settings` checks
    them.

    The multipliers are drawn into one reused block buffer, of the rows the
    operator's kernel sets: about 2^16 entries over the sorted kernel and
    over a block kernel up to n = 1024 (8 rows at n = 8000, 129 at the
    housing data's 506), so that the draws and a spare buffer of the same
    size stay in cache, and ``block_width(n)`` rows over a larger block
    kernel.  Each block is one :meth:`InfluenceOperator.square_sums` in
    those two buffers, so a pass holds ``2 * spans * rows * n`` floats
    (1 MB a span at 2^16 entries) and the ``m`` replicates; only a large
    block kernel allocates per block, its indicator blocks, one column
    block at a time and each over only the rows that can dominate it.  A
    block kernel's multiplier block is sorted into the spare buffer and
    multiplied block by block back into the draws' buffer, so over sorted
    points it does about half the flops of one product with the n x n
    indicators.

    The blocks are cut into ``min(a.kernel.threads, blocks)`` contiguous
    spans of whole blocks, one per thread, each with its own buffers: more
    than one only over the sorted kernel from ``THREAD_CROSSOVER``
    observations, on the cores of the affinity mask up to ``MAX_THREADS``,
    and never in a multiprocessing child such as a ``simulate`` pool
    worker.  The calling thread runs the first span in a thread pool that
    starts a helper thread for each further span only, and the helpers are
    joined before this returns, so none outlives the call.  A replicate is
    drawn and summed the same way in any span, so the replicates do not
    depend on the thread count.  Returns the p-value and the replicate
    statistics themselves.
    """
    _check_draws(m, seed)
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
            _draw_multipliers(u[:k], seed, start)
            replicates[start:start + k] = a.square_sums(u[:k], x[:k])

    with ThreadPoolExecutor(spans) as pool:  # a thread per submission at most
        helpers = [pool.submit(span, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
        span(cuts[0], cuts[1])
        for done in helpers:
            done.result()
    replicates /= n * n
    return pvalue_from_replicates(t_n, replicates), replicates


def _memory_bytes() -> int | None:
    """Bytes of memory this process can use: the smaller of physical memory
    and ``MemAvailable`` in ``/proc/meminfo``, of those that can be read,
    or None if neither can."""
    sizes = []
    with contextlib.suppress(AttributeError, ValueError, OSError):  # no sysconf on Windows
        sizes.append(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    with contextlib.suppress(OSError, ValueError, IndexError):  # only Linux has /proc/meminfo
        with open("/proc/meminfo", encoding="ascii") as fh:
            sizes += [int(line.split()[1]) * 1024 for line in fh if line.startswith("MemAvailable:")]
    return min((size for size in sizes if size > 0), default=None)


def _check_draws(m: int, seed: int) -> int | None:
    if not _integer(seed) or seed < 0:
        raise DataError(f"seed must be a non-negative integer, got {seed}")
    if not _integer(m):
        raise DataError(f"the number of replicates must be an integer, got {m}")
    if m < 1:
        raise DataError(f"need at least one replicate, got {m}")
    limit, need = _memory_bytes(), 8 * int(m)
    if limit is not None and need > limit:
        raise DataError(f"{m} replicates need {need:,} bytes for their values alone, "
                        f"more than the {limit:,} bytes of memory this process can use")
    return limit


def check_settings(m: int, alpha: float, seed: int) -> int | None:
    """Refuse a Monte Carlo size, level or seed the test cannot use, before
    any work is done, with a :class:`DataError` (exit 3 from the CLI).
    ``alpha`` must be a real number in (0, 1).  ``m`` must be a positive
    integer and ``seed`` a non-negative one, Python's or numpy's; a float
    or a bool is refused even when it is integral, and the ``m`` replicates
    alone, 8 m bytes, must fit in the memory that :func:`_memory_bytes`
    reads.  Returns that memory size, or None if it cannot be read."""
    if not _real(alpha):
        raise DataError(f"alpha must be a real number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")
    return _check_draws(m, seed)


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

    The one checked entry point: :func:`check_settings` refuses ``m``,
    ``alpha`` and ``seed``, and :func:`~pdrtest.sdr.estimate_basis`
    ``c_n``, before any work.  ``simulate`` checks an experiment's
    settings once and runs each replicate's pipeline unchecked.
    """
    check_settings(m, alpha, seed)
    return _pipeline(ds, family, m, c_n, seed, alpha)


def _pipeline(ds: Dataset, family: ModelFamily | str, m: int, c_n: float | None, seed: int,
              alpha: float) -> TestReport:
    """:func:`run_test` on settings already checked.  Each stage is called
    through this module's globals, so a wrapper set on the module sees it."""
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
