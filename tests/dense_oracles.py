"""Dense n x n forms of the dominance indicators and the influence matrix.

The library never forms these; the tests compare its dominance sums and
its influence operator against them.
"""

from __future__ import annotations

import numpy as np


def indicator_matrix(points: np.ndarray) -> np.ndarray:
    """Boolean matrix of componentwise dominance: ``out[i, j] = all(points[i] <= points[j])``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    out = np.ones((n, n), dtype=bool)
    for c in range(points.shape[1]):
        col = points[:, c]
        out &= col[:, None] <= col[None, :]
    return out


def rho_matrix(fit, v_hat: np.ndarray, proj) -> np.ndarray:
    """The influence matrix ``a[i, j] = r_i 1{p_i <= p_j} - v_i' Ghat_j`` over
    the first-column points, with ``Ghat = score' I / n``."""
    ind = indicator_matrix(proj.points(first_only=True))
    g_hat = fit.score.T @ ind / fit.residuals.shape[0]
    return fit.residuals[:, None] * ind - v_hat @ g_hat


def mc_replicates(a: np.ndarray, m: int, seed: int) -> np.ndarray:
    """The replicate statistics of ``mc_pvalue`` from one dense product,
    with the same per-replicate multiplier substreams."""
    n = a.shape[0]
    u = np.array([np.random.default_rng(c).standard_normal(n)
                  for c in np.random.SeedSequence(seed).spawn(m)]).reshape(m, n)
    return np.mean(((u @ a) / np.sqrt(n)) ** 2, axis=1)
