"""Dense n x n forms of the dominance indicators and the influence matrix,
and the exact conditional law of a multiplier replicate.

The library never forms these; the tests compare its dominance sums, its
influence operator and its Monte Carlo replicates against them.
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
    ind = indicator_matrix(proj.first.points)
    g_hat = fit.score.T @ ind / fit.residuals.shape[0]
    return fit.residuals[:, None] * ind - v_hat @ g_hat


def mc_replicates(a: np.ndarray, m: int, seed: int) -> np.ndarray:
    """The replicate statistics of ``mc_pvalue`` from one dense product,
    with the same per-replicate multiplier substreams."""
    n = a.shape[0]
    u = np.array([np.random.default_rng(c).standard_normal(n)
                  for c in np.random.SeedSequence(seed).spawn(m)]).reshape(m, n)
    return np.mean(((u @ a) / np.sqrt(n)) ** 2, axis=1)


def replicate_weights(a: np.ndarray) -> np.ndarray:
    """Weights of the conditional law of one replicate.  Given the data, a
    replicate is ``u' (a a' / n^2) u`` with ``u`` standard normal, so it is
    distributed as ``sum_k lam_k chi2_1`` with ``lam`` the squared singular
    values of ``a / n``."""
    return np.linalg.svd(a / a.shape[0], compute_uv=False) ** 2


def imhof_tail(x: float, lam: np.ndarray, tol: float = 1e-6) -> tuple[float, float]:
    """``P(sum_k lam_k chi2_1 >= x)`` for ``lam >= 0`` by Imhof's (1961)
    inversion, and a bound on the error of the value.

    ``P = 1/2 + (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du`` with
    ``theta(u) = sum_k arctan(lam_k u) / 2 - x u / 2`` and
    ``rho(u) = prod_k (1 + lam_k^2 u^2)^(1/4)``.  The integral stops at U,
    which leaves out at most ``1 / (pi (j/2) U^(j/2) prod lam_k^(1/2))`` for
    the j largest weights (Imhof's bound, using ``rho(u) >= prod_k
    (lam_k u)^(1/2)`` over any j of them); U is the smallest that makes the
    best such bound ``tol``.  The trapezoid rule takes about 20 nodes per
    unit of the fastest scale, ``1 / lam_max`` or ``2 / x``, and the change
    from halving its nodes is added to the returned bound.
    """
    lam = np.sort(lam[lam > 0])[::-1]
    j = np.arange(1, lam.size + 1)
    log_upper = 2 / j * (-np.log(np.pi * j / 2 * tol) - 0.5 * np.cumsum(np.log(lam)))
    upper = float(np.exp(log_upper.min()))
    half = int(np.ceil(upper / (0.1 * min(1 / lam[0], 2 / max(x, 1e-300)))))
    u = np.linspace(0.0, upper, 2 * half + 1)  # an even count of steps, for the halved rule
    f = np.empty_like(u)
    chunk = 4096  # nodes per evaluation, to bound the (chunk, lam.size) temporaries
    for lo in range(0, u.size, chunk):
        uu = u[lo:lo + chunk, None]
        theta = 0.5 * np.arctan(lam * uu).sum(axis=1) - 0.5 * x * uu[:, 0]
        rho = np.exp(0.25 * np.log1p((lam * uu) ** 2).sum(axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            f[lo:lo + chunk] = np.sin(theta) / (uu[:, 0] * rho)
    f[0] = 0.5 * (lam.sum() - x)  # the limit at u = 0

    def trapezoid(g, h):
        return h * (g.sum() - 0.5 * (g[0] + g[-1]))

    fine, coarse = trapezoid(f, u[1]), trapezoid(f[::2], 2 * u[1])
    return 0.5 + fine / np.pi, tol + abs(fine - coarse) / np.pi
