"""Residual-marked empirical-process statistic and its resampling p-value.

The statistic integrates the squared cumulative residual process, indexed
by componentwise dominance of the projected covariates, against the
empirical law of the projected sample.  Its null distribution is
approximated by multiplying estimated influence contributions with
independent standard normal draws; the p-value is the fraction of
resampled statistics at least as large as the observed one, which makes
the decision invariant to any common positive rescaling.  The statistic,
the score mean and the multiplier pass are all dominance sums over the
projected sample (:func:`dominance_sums`, and :class:`InfluenceOperator`
for the multipliers); no n x n array is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataError
from .families import ModelFamily, get_family
from .fit import FitResult, influence_vectors, nls_fit
from .sdr import BasisEstimate, estimate_basis


#: Entries of one dense block.  The dominance indicators and the influence
#: matrix are formed over column blocks, and the multiplier pass with W over
#: replicate blocks, of about this many entries each, so that no n x n array
#: is formed; up to n = 1024 one block holds all columns.
BLOCK_ELEMENTS = 1 << 20


#: Entries of one multiplier block on the W-free path of :func:`mc_pvalue`:
#: 512 KB of float64, so that a block and its sorted copy stay in a core's
#: L2 cache.  A sweep of 2^15 to 2^18 at n = 8000 and 2000 (2 cores, 2 MB L2
#: each) was flat to within noise from 2^15 to 2^17 and slower above.
CACHE_ELEMENTS = 1 << 16


def block_width(n: int) -> int:
    """Columns, or replicate rows, of one block over n observations."""
    return max(1, BLOCK_ELEMENTS // n)


def tie_runs(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending order of ``col`` and, for each entry, the sorted position of
    the last entry tied with it."""
    order = np.argsort(col, kind="stable")
    return order, np.searchsorted(col[order], col, side="right") - 1


def sorted_sums(values: np.ndarray, order: np.ndarray, tie_end: np.ndarray) -> np.ndarray:
    """1-D dominance sums: the cumulative sum of ``values`` along the last
    axis in ``order``, read at the end of each point's tie run."""
    out = np.take(values, order, axis=-1)
    np.cumsum(out, axis=-1, out=out)
    return np.take(out, tie_end, axis=-1)


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


def block_sums(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Dominance sums over (n, k) points, one dense column block at a time."""
    n = points.shape[0]
    out = np.empty(values.shape[:-1] + (n,))
    for cols in column_blocks(n):
        out[..., cols] = values @ indicator_block(points, cols)
    return out


@dataclass(frozen=True)
class ProjectedSample:
    """Projected covariates ``s`` (n, q_hat), the partial covariates ``w``
    (n, p2), and the sort of the first projection column.

    ``order`` sorts ``s[:, 0]`` ascending and ``tie_end[j]`` is the sorted
    position of the last observation tied with j.  Without W the
    first-column points are one-dimensional, and a dominance sum over them
    is a cumulative sum in ``order`` read at ``tie_end``.  Dominance is
    componentwise and inclusive, so tied points dominate each other.
    """

    s: np.ndarray
    w: np.ndarray
    order: np.ndarray
    tie_end: np.ndarray

    @classmethod
    def of(cls, s: np.ndarray, w: np.ndarray) -> "ProjectedSample":
        """The sample of points ``(s, w)``, arrays (n, q) and (n, p2), with
        ``s[:, 0]`` sorted."""
        return cls(s, w, *tie_runs(s[:, 0]))

    def points(self, first_only: bool = False) -> np.ndarray:
        """Evaluation points ``(s, w)``, or ``(s[:, 0], w)`` with ``first_only``."""
        return np.column_stack([self.s[:, :1] if first_only else self.s, self.w])

    def dominance_sums(self, values: np.ndarray, first_only: bool = False) -> np.ndarray:
        """``out[..., j] = sum_i values[..., i] * 1{points_i <= points_j}``
        over :meth:`points`."""
        values = np.asarray(values, dtype=float)
        points = self.points(first_only)
        if points.shape[1] == 1:
            return sorted_sums(values, self.order, self.tie_end)
        return block_sums(values, points)


def dominance_sums(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Componentwise dominance sums: ``out[..., j] = sum_i values[..., i] *
    1{points_i <= points_j}``.

    ``points`` is (n, k) or (n,).  One column is sorted once, in
    O(n log n) time; more columns are summed over dense column blocks of
    about ``BLOCK_ELEMENTS`` entries, so memory stays O(block * n).
    """
    points = np.asarray(points, dtype=float)
    points = points.reshape(points.shape[0], -1)
    return ProjectedSample.of(points[:, :1], points[:, 1:]).dominance_sums(values)


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
    """Project the index covariates on the estimated directions and sort
    the first projection column."""
    if basis.b.shape[0] != ds.p1:
        raise ValueError(f"basis has {basis.b.shape[0]} rows, data has p1={ds.p1}")
    return ProjectedSample.of(ds.x @ basis.b, ds.w)


def tn_statistic(residuals: np.ndarray, proj: ProjectedSample) -> float:
    """Integrated squared residual partial-sum process over the sample points."""
    resid = np.asarray(residuals, dtype=float).reshape(-1)
    n = resid.shape[0]
    if proj.s.shape[0] != n:
        raise ValueError(f"{n} residuals but {proj.s.shape[0]} projected points")
    v = proj.dominance_sums(resid) / np.sqrt(n)
    return float(np.mean(v**2))


class InfluenceOperator:
    """The n x n influence matrix ``a``, held as its factors.

    ``a[i, j] = r_i * 1{p_i <= p_j} - v_i' G_j``, where ``p`` are the
    first-column points ``(s_first, w)``, ``r`` the residuals, ``v`` the
    influence vectors and ``G_j`` the indicator-weighted score mean.  Only
    ``u @ a`` is defined, an (m, n) array for (m, n) multipliers, and no
    n x n array is formed.

    Without W the points are the first projection column alone, and
    :meth:`sorted_pass` computes ``u @ a`` in the column's sorted order:
    it gathers ``x = u[:, order]``, takes ``c = x @ v_sorted``, multiplies
    ``x`` by ``r_sorted``, takes the cumulative sum of ``x`` in place and
    subtracts ``c @ G_sorted``.  At the last sorted position of each tie
    run, ``x`` then equals ``u @ a`` for every point of the run; elsewhere
    it is a partial sum.  ``__rmatmul__`` gathers those positions through
    ``tie_end``.  ``weights[t]`` is the length of the tie run that ends at
    sorted position t and 0 elsewhere, so ``(x * x) @ weights`` is the
    row-wise sum of squares of ``u @ a`` with no gather back and no branch
    on ties.  The sorted factors and the weights are built once, here.
    With W the operator forms column blocks of ``a`` from the indicators.
    """

    __array_ufunc__ = None  # ``u @ a`` on an ndarray ``u`` calls __rmatmul__

    def __init__(self, r: np.ndarray, v: np.ndarray, g: np.ndarray, proj: ProjectedSample):
        n = r.shape[0]
        self.r, self.v, self.g, self.proj = r, v, g, proj
        self.shape = (n, n)
        self.weights = None
        if proj.w.shape[1] == 0:
            order = proj.order
            self.r_sorted, self.v_sorted, self.g_sorted = r[order], v[order], g[:, order]
            self.weights = np.bincount(proj.tie_end, minlength=n).astype(float)

    def sorted_pass(self, u: np.ndarray, x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
        """``u @ a`` in sorted order, written to ``x`` (W-free operators only).

        ``x`` has the shape of ``u``; position t holds ``u @ a`` of the
        points whose tie run ends at t.  ``scratch``, of the same shape, takes
        the correction product; it may be ``u`` itself, which is then
        overwritten.
        """
        # "clip" on indices that are all valid: the default "raise" buffers ``out``
        np.take(u, self.proj.order, axis=-1, out=x, mode="clip")
        c = x @ self.v_sorted
        x *= self.r_sorted
        np.cumsum(x, axis=-1, out=x)
        x -= np.matmul(c, self.g_sorted, out=scratch)
        return x

    def square_sums(self, u: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Row-wise sums of squares of ``u @ a`` for (k, n) multipliers ``u``
        (W-free operators only).  ``x`` (k, n) is the working buffer and
        ``u`` is overwritten."""
        x = self.sorted_pass(u, x, scratch=u)
        np.square(x, out=x)
        return x @ self.weights

    def __rmatmul__(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.weights is not None:
            x = self.sorted_pass(u, np.empty(u.shape))
            return np.take(x, self.proj.tie_end, axis=-1)
        points = self.proj.points(first_only=True)
        out = None
        for cols in column_blocks(points.shape[0]):
            a = self.r[:, None] * indicator_block(points, cols)
            a -= self.v @ self.g[:, cols]
            if out is None:  # after the block's temporaries are freed: a lower peak
                out = np.empty(u.shape[:-1] + (points.shape[0],))
            np.matmul(u, a, out=out[..., cols])
        return out


def rho_matrix(fit: FitResult, v_hat: np.ndarray, proj: ProjectedSample) -> InfluenceOperator:
    """Influence contributions evaluated at every sample point, as an
    :class:`InfluenceOperator` of shape (n, n).

    Column j corresponds to the evaluation point ``(s_first_j, w_j)``;
    entry (i, j) is the residual of observation i marked by the
    first-column dominance indicator, minus the estimation-effect
    correction ``Ghat_j' v_i`` where ``Ghat_j`` is the indicator-weighted
    score mean.  Only the first projection column enters here: the
    resampling law targets the single-direction null structure.  The
    operator holds the residuals, ``v_hat``, ``Ghat`` and the points;
    ``np.eye(n) @ rho_matrix(...)`` gives the dense matrix.
    """
    n = fit.residuals.shape[0]
    if proj.s.shape[0] != n:
        raise ValueError(f"fit has {n} rows but {proj.s.shape[0]} projected points")
    g_hat = proj.dominance_sums(fit.score.T, first_only=True) / n
    return InfluenceOperator(fit.residuals, v_hat, g_hat, proj)


def as_influence(a):
    """An :class:`InfluenceOperator` as it is; anything else as a float array."""
    return a if isinstance(a, InfluenceOperator) else np.asarray(a, dtype=float)


def mc_replicate(a: InfluenceOperator | np.ndarray, u: np.ndarray) -> float:
    """Resampled statistic for one multiplier vector ``u``."""
    a = as_influence(a)
    u = np.asarray(u, dtype=float).reshape(-1)
    n = a.shape[0]
    delta = (u @ a) / np.sqrt(n)
    return float(np.mean(delta**2))


def pvalue_from_replicates(t_n: float, replicates: np.ndarray) -> float:
    """Fraction of replicate statistics at least as large as the observed one."""
    replicates = np.asarray(replicates, dtype=float).reshape(-1)
    return float(np.mean(replicates >= t_n))


def mc_pvalue(
    t_n: float, a: InfluenceOperator | np.ndarray, m: int, seed: int
) -> tuple[float, np.ndarray]:
    """Monte Carlo p-value of ``t_n`` against ``m`` multiplier replicates.

    ``a`` is the (n, n) influence matrix or the operator
    :func:`rho_matrix` returns.  Multiplier vector j comes from a
    substream that depends only on ``(seed, j)``, so the first k
    replicates are the same for any ``m >= k``.  Replicate j is the sum of
    squares of ``u_j @ a`` over n^2.

    The multipliers are drawn into one reused block buffer.  A W-free
    operator takes blocks of about ``CACHE_ELEMENTS`` entries (8 rows at
    n = 8000), so that the draws and the sorted copy of
    :meth:`InfluenceOperator.square_sums` stay in cache; its tie weights
    count every point of a tie run at the run's last sorted position.
    Otherwise blocks have about ``BLOCK_ELEMENTS`` entries and each is one
    ``u @ a``.  Returns the p-value and the replicate statistics themselves.
    """
    if m < 1:
        raise ValueError(f"need at least one replicate, got {m}")
    a = as_influence(a)
    n = a.shape[0]
    w_free = isinstance(a, InfluenceOperator) and a.weights is not None
    rows = min(m, max(1, CACHE_ELEMENTS // n) if w_free else block_width(n))
    children = np.random.SeedSequence(seed).spawn(m)
    replicates = np.empty(m)
    # allocate the buffers after the substreams: in the other order, about 150
    # repeated n = 506 tests in one process raised its peak RSS by 5 MB
    u = np.empty((rows, n))
    x = np.empty_like(u) if w_free else None
    for lo in range(0, m, rows):
        block = children[lo:lo + rows]
        k = len(block)
        for row, child in zip(u, block):
            np.random.default_rng(child).standard_normal(out=row)
        if w_free:
            replicates[lo:lo + k] = a.square_sums(u[:k], x[:k])
        else:
            delta = u[:k] @ a
            replicates[lo:lo + k] = np.einsum("ij,ij->i", delta, delta)
    replicates /= n * n
    return pvalue_from_replicates(t_n, replicates), replicates


def check_settings(m: int, alpha: float, seed: int) -> None:
    """Reject a Monte Carlo size, level or seed the test cannot use, before
    any work is done."""
    if seed < 0:
        raise DataError(f"seed must be a non-negative integer, got {seed}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
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
