"""Sliced-inverse-regression machinery for estimating the partial central
subspace and its structural dimension.

The candidate matrix is built by averaging slice-mean covariance matrices
over every binary discretization of the response (no plain covariates) or
of the plain covariates W, with response slicing nested inside the W-cells.
The number of directions is chosen by a ridge-regularized ratio of squared
eigenvalues, which avoids hand-tuned thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _real, as_columns, standardize
from .errors import DataError

#: Target occupancy per response slice inside a W-cell.
SLICE_OCCUPANCY = 5
#: Upper bound on response slices inside a W-cell.
MAX_SLICES = 5
#: Cells smaller than this contribute nothing (weights renormalize).
MIN_CELL = 4


@dataclass(frozen=True)
class CandidateMatrix:
    """Symmetric PSD candidate matrix with its sorted eigendecomposition.

    Eigenvalues are sorted descending and clamped to be nonnegative;
    eigenvector columns are aligned with them and sign-fixed so that each
    column's largest-magnitude entry is positive.  All quantities live in
    the whitened covariate scale.
    """

    m: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class BasisEstimate:
    """Estimated direction matrix in original covariate scale.

    Attributes:
        q_hat: estimated structural dimension, in ``[1, p1]``.
        b: ``(p1, q_hat)`` matrix; unit-norm, sign-fixed columns.
        eigenvalues: spectrum of the candidate matrix, descending.
        ridge: ridge constant used for the dimension decision.
    """

    q_hat: int
    b: np.ndarray
    eigenvalues: np.ndarray
    ridge: float

    @property
    def b_first(self) -> np.ndarray:
        """First column of ``b`` (the one used by the resampling process
        downstream)."""
        return self.b[:, 0]

    def to_record(self) -> dict:
        """Machine-readable record of the estimate: every value ``dim`` prints."""
        return {
            "q_hat": self.q_hat,
            "c_n": self.ridge,
            "eigenvalues": self.eigenvalues.tolist(),
            "ridge_ratios": ridge_ratios(self.eigenvalues, self.ridge).tolist(),
            "b_columns": self.b.T.tolist(),
        }


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry of each is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        lead = int(np.argmax(np.abs(out[:, j])))
        if out[lead, j] < 0:
            out[:, j] = -out[:, j]
    return out


def _decompose(m: np.ndarray) -> CandidateMatrix:
    m = np.asarray(m, dtype=float)
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asym > 1e-10:
        raise ValueError(f"candidate matrix asymmetric by {asym:.3e}")
    m = 0.5 * (m + m.T)
    vals, vecs = np.linalg.eigh(m)
    if vals[0] < -1e-10:
        raise ValueError(f"candidate matrix has eigenvalue {vals[0]:.3e} < -1e-10")
    vals = np.clip(vals[::-1], 0.0, None)
    vecs = _fix_signs(vecs[:, ::-1])
    return CandidateMatrix(m=m, eigenvalues=vals, eigenvectors=vecs)


def _require_variation(y: np.ndarray) -> None:
    if np.all(y == y[0]):
        raise DataError(f"response has no variation: every value is {y[0]:g}")


def dee_matrix(z: np.ndarray, y: np.ndarray) -> CandidateMatrix:
    """Average the binary-slicing candidate over all response thresholds.

    For each threshold ``t = y_i`` the sample splits into ``{y <= t}`` and
    ``{y > t}``; thresholds leaving one side empty contribute zero.  For
    centered ``z`` the per-threshold candidate collapses to a rank-one
    term, so the average is a single cumulative-sum product.  A 1-D ``z``
    is one column.
    """
    z = as_columns("z", z)
    y = np.asarray(y, dtype=float).reshape(-1)
    n = z.shape[0]
    if n < 3:
        raise DataError(f"need at least 3 rows, got {n}")
    _require_variation(y)
    # the rank-one collapse below needs column sums of exactly zero
    if np.max(np.abs(z.mean(axis=0))) > 1e-6:
        raise DataError("z must be column-centered (whiten the covariates first)")

    order = np.argsort(y, kind="stable")
    ys = y[order]
    sums = np.cumsum(z[order], axis=0)
    # last index of each tied run: counts k_i = #{y_j <= y_i} are well defined
    run_end = np.r_[ys[1:] != ys[:-1], True]
    k = np.flatnonzero(run_end) + 1
    mult = np.diff(np.r_[0, k])
    usable = k < n  # k == n leaves the upper class empty
    k, mult = k[usable], mult[usable]
    s = sums[k - 1]
    weights = mult / (n * k * (n - k))
    return _decompose((s * weights[:, None]).T @ s)


def _slice_counts(sizes: np.ndarray) -> np.ndarray:
    """Response slices per cell of each size (cells below ``MIN_CELL`` are
    skipped by ``_cells_total``)."""
    sizes = np.asarray(sizes)
    wide = np.minimum(MAX_SLICES, sizes // SLICE_OCCUPANCY)
    return np.where(sizes >= 2 * SLICE_OCCUPANCY, wide, 2)


def order_statistic_sums(
    ranks: np.ndarray,
    weights: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    count: np.ndarray,
) -> np.ndarray:
    """For each query ``q``, the sum of ``weights[i]`` over the ``count[q]``
    positions ``i`` in ``[lo[q], hi[q])`` with the smallest ``ranks[i]``.

    ``ranks`` are distinct nonnegative integers; ``weights`` is ``(n, p)``;
    ``0 <= count[q] <= hi[q] - lo[q]``.  All queries descend one wavelet
    matrix over ``ranks`` together, one bit of the ranks per level, so the
    cost is ``O((n + Q) p log n)``.  At each level a range splits into its
    zero-bit rows (moved, in order, to the front of the next level) and its
    one-bit rows; a query needing more rows than the zero-bit part holds
    takes that whole part from the next level's prefix sums and continues
    among the one-bit rows.  Returns a ``(Q, p)`` array.
    """
    vals = np.asarray(ranks, dtype=np.int64).reshape(-1)
    wts = np.asarray(weights, dtype=float)
    n, p = wts.shape
    lo = np.asarray(lo, dtype=np.int64).reshape(-1)
    hi = np.asarray(hi, dtype=np.int64).reshape(-1)
    count = np.array(count, dtype=np.int64).reshape(-1)  # updated in place
    out = np.zeros((lo.size, p))
    prefix = np.zeros((n + 1, p))
    np.cumsum(wts, axis=0, out=prefix[1:])
    bits = int(vals.max()).bit_length() if n else 0
    for shift in range(bits - 1, -1, -1):
        is_zero = ((vals >> shift) & 1) == 0
        zeros_before = np.r_[0, np.cumsum(is_zero)]
        order = np.r_[np.flatnonzero(is_zero), np.flatnonzero(~is_zero)]
        vals, wts = vals[order], wts.take(order, axis=0)
        np.cumsum(wts, axis=0, out=prefix[1:])
        z_lo, z_hi = zeros_before.take(lo), zeros_before.take(hi)
        right = count > z_hi - z_lo
        # take() rather than fancy indexing: several times faster on rows
        out += prefix.take(z_hi * right, axis=0) - prefix.take(z_lo * right, axis=0)
        count -= (z_hi - z_lo) * right
        n_zero = zeros_before[-1]
        lo = np.where(right, n_zero + lo - z_lo, z_lo)
        hi = np.where(right, n_zero + hi - z_hi, z_hi)
    # every row left in [lo, hi) has the same rank, so count is 0 or 1 there
    return out + prefix.take(lo + count, axis=0) - prefix.take(lo, axis=0)


def _cells_total(
    z_rows: np.ndarray,
    cell_lo: np.ndarray,
    cell_size: np.ndarray,
    cell_t: np.ndarray,
    t_count: np.ndarray,
    ranks: np.ndarray | None = None,
) -> np.ndarray | None:
    """Unnormalized partial-slicing candidate of cells that are row ranges.

    Cell ``c`` is rows ``[cell_lo[c], cell_lo[c] + cell_size[c])`` of
    ``z_rows``, cut by threshold ``cell_t[c]``, which ``t_count`` observations
    take.  Cells below ``MIN_CELL`` rows are skipped; the rest are cut into
    ``_slice_counts`` response slices at ``(j * s) // h``, whose cell-centred
    means enter weighted by ``rows * t_count / used`` (``used``: the rows of
    the threshold's usable cells).  A slice sum covers the rows of smallest
    response rank in its cell: ``order_statistic_sums`` over ``ranks`` finds
    them, or, when ``ranks`` is None, each cell is already in response order.
    Returns None when no cell is usable.
    """
    n, p1 = z_rows.shape
    keep = cell_size >= MIN_CELL
    if not keep.any():
        return None
    cell_lo, cell_size, cell_t = cell_lo[keep], cell_size[keep], cell_t[keep]
    used = np.bincount(cell_t, weights=cell_size, minlength=t_count.size)

    # one row per slice: its cell, its index j inside the cell, its bounds
    h = _slice_counts(cell_size)
    cell = np.repeat(np.arange(cell_size.size), h)
    first = np.cumsum(h) - h
    j = np.arange(cell.size) - first[cell]
    s, hc = cell_size[cell], h[cell]
    lower = (j * s) // hc
    upper = ((j + 1) * s) // hc

    # z summed over each cell, and up to each inner slice's upper bound
    inner = j < hc - 1
    lo_q = cell_lo[cell[inner]]
    if ranks is None:
        # sums between consecutive bounds, accumulated: a full cumulative
        # sum for every threshold would double the cost of this path
        k = cell_lo.size
        bounds = np.concatenate([cell_lo, cell_lo + cell_size, lo_q + upper[inner], [0, n]])
        marks, where = np.unique(bounds, return_inverse=True)
        prefix = np.zeros((marks.size, p1))
        np.cumsum(np.add.reduceat(z_rows, marks[:-1], axis=0), axis=0, out=prefix[1:])
        at = prefix.take(where, axis=0)
        cell_sum = at[k : 2 * k] - at[:k]
        inner_sum = at[2 * k : -2] - at.take(cell[inner], axis=0)
    else:
        prefix = np.zeros((n + 1, p1))
        np.cumsum(z_rows, axis=0, out=prefix[1:])
        cell_sum = prefix[cell_lo + cell_size] - prefix[cell_lo]
        inner_sum = order_statistic_sums(ranks, z_rows, lo_q, lo_q + s[inner], upper[inner])
    # the last slice of a cell ends at the cell sum, the first starts at zero
    below_upper = cell_sum.take(cell, axis=0)
    below_upper[inner] = inner_sum
    below_lower = np.zeros_like(below_upper)
    below_lower[1:] = below_upper[:-1]
    below_lower[j == 0] = 0.0

    counts = upper - lower
    cell_mean = cell_sum / cell_size[:, None]
    centered = (below_upper - below_lower) / counts[:, None] - cell_mean.take(cell, axis=0)
    t = cell_t[cell]
    weight = counts * t_count[t] / used[t]
    return (centered * weight[:, None]).T @ centered


def _one_column_total(z: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray | None:
    """Every threshold of one W column in one ``_cells_total`` call: with the
    rows sorted by W, threshold ``j`` cuts the prefix ``[0, k_j)`` and the rest."""
    n = z.shape[0]
    y_rank = np.empty(n, dtype=np.int64)
    y_rank[np.argsort(y, kind="stable")] = np.arange(n)
    w_order = np.argsort(w[:, 0], kind="stable")
    w_sorted = w[w_order, 0]
    k = np.flatnonzero(np.r_[w_sorted[1:] != w_sorted[:-1], True]) + 1
    cells = np.r_[np.zeros_like(k), k], np.r_[k, n - k], np.tile(np.arange(k.size), 2)
    return _cells_total(z[w_order], *cells, np.diff(np.r_[0, k]), y_rank[w_order])


def _many_column_total(z: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray | None:
    """One ``_cells_total`` call per threshold of two or more W columns: the
    rows, in response order, are stably sorted by the threshold's cell id."""
    n, p2 = w.shape
    y_order = np.argsort(y, kind="stable")
    z_y, w_cols = z[y_order], np.ascontiguousarray(w[y_order].T)
    id_type = np.min_scalar_type((1 << p2) - 1)  # ids of up to 16 bits sort by radix
    parts = []
    for t, t_count in zip(*np.unique(w, axis=0, return_counts=True)):
        cell_ids = np.zeros(n, dtype=id_type)
        for a in range(p2):
            cell_ids |= (w_cols[a] <= t[a]).astype(id_type) << a
        by_cell = np.argsort(cell_ids, kind="stable")
        ids = cell_ids[by_cell]
        lo = np.concatenate(([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1))
        part = _cells_total(z_y.take(by_cell, axis=0), lo, np.diff(lo, append=n),
                            np.zeros_like(lo), t_count[None])
        if part is not None:
            parts.append(part)
    return sum(parts) if parts else None


def pdee_matrix(z: np.ndarray, y: np.ndarray, w: np.ndarray) -> CandidateMatrix:
    """Average partial-slicing candidates over all thresholds of W.

    Each observed ``w_i`` cuts the rows into up to ``2^p2`` cells by the
    componentwise pattern of ``w <= w_i``.  Within every cell of at least
    ``MIN_CELL`` rows the response is sliced into equal-frequency groups and
    the cell-centred slice-mean covariance is formed; cells combine weighted
    by size, renormalized over the usable ones.  Tied responses are split in
    input order (a stable sort), so with ties the result depends on the row
    order.  A 1-D ``z`` or ``w`` is one column.

    One rule, ``_cells_total``, slices every cell; the paths only lay the
    rows out so that each cell is a range.  One W column takes all
    thresholds at once in ``O(n log n)``, sorted by W, with slice sums read
    from one wavelet matrix over the response ranks
    (``order_statistic_sums``).  Two or more columns take one threshold at a
    time, each in ``O(n)`` for up to 16 columns, whose cell ids sort by radix.
    """
    z = as_columns("z", z)
    y = np.asarray(y, dtype=float).reshape(-1)
    w = as_columns("w", w)
    n, p2 = z.shape[0], w.shape[1]
    if p2 < 1:
        raise DataError("pdee_matrix needs at least one W column")
    if y.shape[0] != n or w.shape[0] != n:
        raise DataError(f"row mismatch: z has {n}, y has {y.shape[0]}, w has {w.shape[0]}")
    _require_variation(y)
    total = (_one_column_total if p2 == 1 else _many_column_total)(z, y, w)
    if total is None:
        raise DataError("W discretization produced no usable cells")
    return _decompose(total / n)


def ridge_ratios(eigenvalues: np.ndarray, c_n: float) -> np.ndarray:
    """Ridge-regularized ratios ``(lambda_{k+1}^2 + c_n) / (lambda_k^2 + c_n)``
    of consecutive squared eigenvalues, for ``k = 1 .. len - 1``."""
    sq = np.asarray(eigenvalues, dtype=float) ** 2
    return (sq[1:] + c_n) / (sq[:-1] + c_n)


def _check_ridge(c_n) -> float:
    """``c_n`` as a float, or a :class:`DataError` naming it unless it is a
    finite positive real number."""
    if not _real(c_n):
        raise DataError(f"c_n must be a real number, got {c_n!r}")
    if not (math.isfinite(c_n) and c_n > 0):
        raise DataError(f"the ridge c_n must be finite and positive, got {c_n}")
    return float(c_n)


def ridge_eigenvalue_ratio(eigenvalues: np.ndarray, c_n: float) -> int:
    """Estimated rank: the minimizer of ridge-regularized ratios of
    consecutive squared eigenvalues, ties toward the smaller index.
    """
    lam = np.asarray(eigenvalues, dtype=float).reshape(-1)
    if lam.size == 0:
        raise ValueError("empty spectrum")
    c_n = _check_ridge(c_n)
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be nonnegative")
    if np.any(np.diff(lam) > 1e-12):
        raise ValueError("eigenvalues must be sorted descending")
    if lam.size == 1:
        return 1
    return int(np.argmin(ridge_ratios(lam, c_n))) + 1


def default_ridge(n: int) -> float:
    """Ridge constant ``c_n = log(n)/n`` used when none is supplied.

    ``ridge_eigenvalue_ratio`` returns ``q_hat >= 2`` only when the second
    squared eigenvalue stands clearly above ``c_n``: with the third
    eigenvalue near zero it needs roughly ``lambda_2**4 > c_n * lambda_1**2``,
    so a weak second direction is resolved only at large n.
    """
    return math.log(n) / n


def estimate_basis(ds: Dataset, c_n: float | None = None) -> BasisEstimate:
    """Whiten X, build the candidate matrix (response-sliced when W is
    absent, W-partialled otherwise), pick the dimension, and back-transform
    the leading eigenvectors to original scale.  A ``c_n`` that is not a
    finite positive real number is a :class:`DataError`, raised before any
    work.
    """
    ridge = default_ridge(ds.n) if c_n is None else _check_ridge(c_n)
    z, std = standardize(ds.x)
    if ds.p2 == 0:
        cand = dee_matrix(z, ds.y)
    else:
        cand = pdee_matrix(z, ds.y, ds.w)
    q_hat = ridge_eigenvalue_ratio(cand.eigenvalues, ridge)
    b = std.whitener @ cand.eigenvectors[:, :q_hat]
    b = _fix_signs(b / np.linalg.norm(b, axis=0))
    return BasisEstimate(
        q_hat=q_hat,
        b=b,
        eigenvalues=cand.eigenvalues,
        ridge=ridge,
    )
