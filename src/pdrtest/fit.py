"""Nonlinear least squares for the hypothesized mean function.

The fitter is a damped Gauss-Newton iteration; the damping parameter
scales the diagonal of the Gauss-Newton matrix, grows tenfold on a
rejected step and shrinks tenfold on an accepted one.  For families whose
mean is linear in the parameters this reproduces the normal-equation
solution from any starting point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import SingularityError
from .families import ModelFamily

MAX_ITER = 200
DAMPING_INIT = 1e-3
SSE_RTOL = 1e-10
GRAD_RTOL = 1e-10


@dataclass
class FitResult:
    """Least-squares estimates with the by-products the resampling test needs.

    ``score`` holds one gradient row of the mean function per observation,
    evaluated at the estimates; ``residuals`` are ``y - G`` at the estimates.
    """

    beta: np.ndarray
    theta: np.ndarray
    residuals: np.ndarray
    score: np.ndarray
    sse: float
    converged: bool
    iterations: int


def nls_fit(
    ds: Dataset,
    family: ModelFamily,
    init: np.ndarray | None = None,
    max_iter: int = MAX_ITER,
) -> FitResult:
    """Minimize ``sum (y - G(beta'x, w, theta))^2`` by damped Gauss-Newton.

    ``init`` stacks ``(beta, theta)``; when omitted, beta starts at the
    least-squares regression of y on x and theta at zero.  Convergence is
    declared when the relative sse decrease falls below tolerance or the
    point is stationary by :func:`stationary`; neither depends on the units
    of y.  Hitting the iteration cap returns ``converged=False`` and leaves
    the decision to the caller.
    """
    if family.p1 != ds.p1:
        raise ValueError(f"family expects p1={family.p1}, data has {ds.p1}")
    if family.p2 > ds.p2:
        raise ValueError(f"family consumes {family.p2} W column(s), data has {ds.p2}")
    y, x, w = ds.y, ds.x, ds.w

    if init is None:
        beta0, *_ = np.linalg.lstsq(x, y, rcond=None)
        params = np.r_[beta0, np.zeros(family.d)]
    else:
        params = np.asarray(init, dtype=float).reshape(-1).copy()
        if params.size != family.n_params:
            raise ValueError(f"init has {params.size} entries, family needs {family.n_params}")

    def objective(p):
        r = y - np.asarray(family.mean(x, w, p[: family.p1], p[family.p1 :]), dtype=float)
        return r, float(r @ r)

    resid, sse = objective(params)
    if not np.isfinite(sse):
        raise ValueError("objective not finite at the starting point")

    damping = DAMPING_INIT
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        jac = family.gradient(x, w, params[: family.p1], params[family.p1 :])
        grad = jac.T @ resid
        if stationary(jac, resid, grad):
            converged = True
            break
        gn = jac.T @ jac
        diag = np.clip(np.diag(gn), 1e-12, None)

        accepted = False
        while damping < 1e12:
            try:
                step = np.linalg.solve(gn + damping * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = params + step
            trial_resid, trial_sse = objective(trial)
            if np.isfinite(trial_sse) and trial_sse < sse:
                accepted = True
                break
            damping *= 10.0
        if not accepted:
            # no downhill step found, and the point failed the stationarity
            # test above: the fit is reported unconverged
            break

        rel_drop = (sse - trial_sse) / max(sse, np.finfo(float).tiny)
        params, resid, sse = trial, trial_resid, trial_sse
        damping = max(damping / 10.0, 1e-12)
        if rel_drop < SSE_RTOL:
            converged = True
            break

    score = family.gradient(x, w, params[: family.p1], params[family.p1 :])
    return FitResult(
        beta=params[: family.p1].copy(),
        theta=params[family.p1 :].copy(),
        residuals=resid,
        score=np.asarray(score, dtype=float),
        sse=sse,
        converged=converged,
        iterations=iterations,
    )


def stationary(jac: np.ndarray, resid: np.ndarray, grad: np.ndarray) -> bool:
    """MINPACK's ``gtol`` test (More, Garbow & Hillstrom 1980): every column
    ``J_k`` of the Jacobian has ``|J_k' r| <= GRAD_RTOL * |J_k| * |r|``, so
    the residual is orthogonal to each column to within a cosine of
    GRAD_RTOL.  ``grad`` is ``J' r``.  An exactly zero residual passes."""
    bound = GRAD_RTOL * np.linalg.norm(jac, axis=0) * np.linalg.norm(resid)
    return bool(np.all(np.abs(grad) <= bound))


def influence_vectors(fit: FitResult) -> np.ndarray:
    """Per-observation influence of the parameter estimates.

    Row i is ``S^{-1} score_i resid_i`` with ``S`` the average outer product
    of the score rows: the usual least-squares expansion of the estimate
    error as a mean of independent terms.  An unconverged fit is used as it
    stands; its ``converged`` flag is what reports it.
    """
    n = fit.residuals.shape[0]
    s_hat = fit.score.T @ fit.score / n
    cond = np.linalg.cond(s_hat)
    if not np.isfinite(cond) or cond >= 1e12:
        raise SingularityError(
            f"score covariance condition number {cond:.3e}; columns are collinear"
        )
    return np.linalg.solve(s_hat, (fit.score * fit.residuals[:, None]).T).T
