"""Hypothesized mean functions and their parameter gradients.

A :class:`ModelFamily` bundles the mean ``G(beta'x, w, theta)`` with its
gradient in the stacked parameter ``(beta, theta)``.  Mean and gradient are
vectorized over rows: they take ``x`` of shape ``(n, p1)`` and ``w`` of
shape ``(n, p2)`` and return ``(n,)`` and ``(n, p1 + d)`` respectively.

Families are obtained from a registry by name so the command line can
select them; :func:`register_family` is the extension point for custom
mean functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import as_columns
from .errors import DataError

MeanFn = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
GradFn = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

#: Probes used to cross-check a supplied gradient at construction.
_N_PROBES = 10
_PROBE_SEED = 20260810


@dataclass(frozen=True)
class ModelFamily:
    """A known mean function with parameter dimensions and gradient.

    Attributes:
        name: registry label.
        p1: length of the index parameter beta.
        d: length of the extra parameter theta.
        p2: number of W columns the mean consumes (0 = ignores W).
        mean: vectorized mean function.
        grad: vectorized gradient in ``(beta, theta)``; when omitted,
            central finite differences are used by the fitter.

    A supplied gradient is validated against finite differences on random
    probes at construction time.
    """

    name: str
    p1: int
    d: int
    mean: MeanFn
    grad: GradFn | None = None
    p2: int = 0

    def __post_init__(self):
        if self.p1 < 1 or self.d < 0 or self.p2 < 0:
            raise ValueError(f"bad dimensions p1={self.p1}, d={self.d}, p2={self.p2}")
        if self.grad is not None:
            self._check_gradient()

    @property
    def n_params(self) -> int:
        return self.p1 + self.d

    def gradient(self, x, w, beta, theta) -> np.ndarray:
        """Analytic gradient when available, finite differences otherwise."""
        if self.grad is not None:
            return np.asarray(self.grad(x, w, beta, theta), dtype=float)
        return finite_diff_grad(self, x, w, beta, theta)

    def _check_gradient(self) -> None:
        rng = np.random.default_rng(_PROBE_SEED)
        for _ in range(_N_PROBES):
            x = rng.standard_normal((1, self.p1))
            w = rng.standard_normal((1, max(self.p2, 1)))[:, : self.p2]
            beta = rng.standard_normal(self.p1)
            theta = rng.standard_normal(self.d)
            got = np.asarray(self.grad(x, w, beta, theta), dtype=float).reshape(-1)
            want = finite_diff_grad(self, x, w, beta, theta).reshape(-1)
            err = np.abs(got - want) / (1.0 + np.abs(want))
            if np.any(err > 1e-5):
                j = int(np.argmax(err))
                raise ValueError(
                    f"family {self.name!r}: gradient component {j} disagrees with "
                    f"finite differences ({got[j]:.6g} vs {want[j]:.6g})"
                )


def finite_diff_grad(
    family: ModelFamily,
    x: np.ndarray,
    w: np.ndarray,
    beta: np.ndarray,
    theta: np.ndarray,
) -> np.ndarray:
    """Central-difference gradient of the mean in ``(beta, theta)``.

    Step per coordinate is ``1e-6 * (1 + |coordinate|)``.  Returns shape
    ``(n, p1 + d)``.  A 1-D ``x`` or ``w`` is one column.
    """
    x, w = as_columns("x", x), as_columns("w", w)
    params = np.r_[np.asarray(beta, dtype=float), np.asarray(theta, dtype=float)]
    p1 = family.p1
    out = np.empty((x.shape[0], params.size))
    for j in range(params.size):
        h = 1e-6 * (1.0 + abs(params[j]))
        hi, lo = params.copy(), params.copy()
        hi[j] += h
        lo[j] -= h
        f_hi = np.asarray(family.mean(x, w, hi[:p1], hi[p1:]), dtype=float)
        f_lo = np.asarray(family.mean(x, w, lo[:p1], lo[p1:]), dtype=float)
        if not (np.all(np.isfinite(f_hi)) and np.all(np.isfinite(f_lo))):
            raise ValueError(f"mean not finite near probe of coordinate {j}")
        out[:, j] = (f_hi - f_lo) / (2.0 * h)
    return out


def _linear(p1: int, p2: int) -> ModelFamily:
    return ModelFamily(
        name="linear",
        p1=p1,
        d=0,
        p2=0,
        mean=lambda x, w, beta, theta: x @ beta,
        grad=lambda x, w, beta, theta: np.asarray(x, dtype=float),
    )


def _linear_plus(p1: int, p2: int, label: str, f) -> ModelFamily:
    if p2 != 1:
        raise DataError(f"family {label!r} needs exactly one W column, got {p2}")

    def mean(x, w, beta, theta):
        return x @ beta + theta[0] * f(w[:, 0])

    def grad(x, w, beta, theta):
        return np.column_stack([x, f(w[:, 0])])

    return ModelFamily(name=label, p1=p1, d=1, p2=1, mean=mean, grad=grad)


_REGISTRY: dict[str, Callable[[int, int], ModelFamily]] = {
    "linear": _linear,
    "linear+w": lambda p1, p2: _linear_plus(p1, p2, "linear+w", lambda v: v),
    "linear+sinw": lambda p1, p2: _linear_plus(p1, p2, "linear+sinw", np.sin),
    "linear+cosw": lambda p1, p2: _linear_plus(p1, p2, "linear+cosw", np.cos),
}


def register_family(name: str, factory: Callable[[int, int], ModelFamily]) -> None:
    """Add a named family factory ``(p1, p2) -> ModelFamily`` to the registry."""
    if name in _REGISTRY:
        raise ValueError(f"family {name!r} already registered")
    _REGISTRY[name] = factory


def get_family(name: str, p1: int, p2: int) -> ModelFamily:
    """Instantiate a registered family for the given data dimensions.  An
    unknown name, or a W-column count the family cannot use, is a
    :class:`DataError`."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise DataError(f"unknown family {name!r}; registered: {known}") from None
    return factory(p1, p2)


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))
