"""Residual-marked empirical-process statistic and its resampling p-value.

The statistic integrates the squared cumulative residual process, indexed
by componentwise dominance of the projected covariates, against the
empirical law of the projected sample.  Its null distribution is
approximated by multiplying estimated influence contributions with
independent standard normal draws; the p-value is the fraction of
resampled statistics at least as large as the observed one, which makes
the decision invariant to any common positive rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataError
from .families import ModelFamily, get_family
from .fit import FitResult, influence_vectors, nls_fit
from .sdr import BasisEstimate, estimate_basis


@dataclass(frozen=True)
class ProjectedSample:
    """Projected covariates and their pairwise dominance indicators.

    ``ind_full[i, j]`` is ``1{(s_i, w_i) <= (s_j, w_j)}`` componentwise over
    all projection columns; ``ind_first`` uses only the first projection
    column.  Dominance is inclusive, so diagonals are true and tied points
    dominate each other.  With one projection column the two are one array.
    """

    s: np.ndarray
    w: np.ndarray
    ind_full: np.ndarray
    ind_first: np.ndarray


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
        ``dim`` prints) plus the test's own values."""
        reps = self.replicates
        return {
            **self.basis.to_record(),
            "t_n": self.t_n,
            "p_hat": self.p_hat,
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


def indicator_matrix(points: np.ndarray) -> np.ndarray:
    """Boolean matrix of componentwise dominance: ``out[i, j] = all(points[i] <= points[j])``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    out = np.ones((n, n), dtype=bool)
    for c in range(points.shape[1]):
        col = points[:, c]
        out &= col[:, None] <= col[None, :]
    return out


def build_projected(ds: Dataset, basis: BasisEstimate) -> ProjectedSample:
    """Project the index covariates on the estimated directions and build
    both dominance-indicator matrices."""
    if basis.b.shape[0] != ds.p1:
        raise ValueError(f"basis has {basis.b.shape[0]} rows, data has p1={ds.p1}")
    s = ds.x @ basis.b
    ind_full = indicator_matrix(np.column_stack([s, ds.w]))
    if basis.q_hat > 1:
        ind_first = indicator_matrix(np.column_stack([s[:, :1], ds.w]))
    else:  # the first column is all of s: both matrices are the same
        ind_first = ind_full
    return ProjectedSample(s=s, w=ds.w, ind_full=ind_full, ind_first=ind_first)


def tn_statistic(residuals: np.ndarray, proj: ProjectedSample) -> float:
    """Integrated squared residual partial-sum process over the sample points."""
    resid = np.asarray(residuals, dtype=float).reshape(-1)
    n = resid.shape[0]
    if proj.ind_full.shape != (n, n):
        raise ValueError(f"{n} residuals but {proj.ind_full.shape} indicators")
    v = (resid @ proj.ind_full) / np.sqrt(n)
    return float(np.mean(v**2))


def rho_matrix(fit: FitResult, v_hat: np.ndarray, proj: ProjectedSample) -> np.ndarray:
    """Influence contributions evaluated at every sample point.

    Column j corresponds to the evaluation point ``(s_first_j, w_j)``;
    entry (i, j) is the residual of observation i marked by the
    first-column dominance indicator, minus the estimation-effect
    correction ``Ghat_j' v_i`` where ``Ghat_j`` is the indicator-weighted
    score mean.  Only the first projection column enters here: the
    resampling law targets the single-direction null structure.
    """
    n = fit.residuals.shape[0]
    if proj.ind_first.shape != (n, n):
        raise ValueError(f"fit has {n} rows but indicators are {proj.ind_first.shape}")
    g_hat = fit.score.T @ proj.ind_first / n
    return fit.residuals[:, None] * proj.ind_first - v_hat @ g_hat


def mc_replicate(a: np.ndarray, u: np.ndarray) -> float:
    """Resampled statistic for one multiplier vector ``u``."""
    a = np.asarray(a, dtype=float)
    u = np.asarray(u, dtype=float).reshape(-1)
    n = a.shape[0]
    delta = (u @ a) / np.sqrt(n)
    return float(np.mean(delta**2))


def pvalue_from_replicates(t_n: float, replicates: np.ndarray) -> float:
    """Fraction of replicate statistics at least as large as the observed one."""
    replicates = np.asarray(replicates, dtype=float).reshape(-1)
    return float(np.mean(replicates >= t_n))


def mc_pvalue(
    t_n: float, a: np.ndarray, m: int, seed: int
) -> tuple[float, np.ndarray]:
    """Monte Carlo p-value of ``t_n`` against ``m`` multiplier replicates.

    Multiplier vector j comes from a substream that depends only on
    ``(seed, j)``, so the first k replicates are the same for any
    ``m >= k``.  Returns the p-value and the replicate statistics
    themselves.
    """
    if m < 1:
        raise ValueError(f"need at least one replicate, got {m}")
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    u = np.empty((m, n))
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(m)):
        u[k] = np.random.default_rng(child).standard_normal(n)
    replicates = np.mean(((u @ a) / np.sqrt(n)) ** 2, axis=1)
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
