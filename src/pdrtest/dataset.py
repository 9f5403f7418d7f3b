"""Tabular data loading, validation, and covariate standardization.

A :class:`Dataset` holds the response ``y``, the index covariates ``x``
(those entering through a linear combination), and the plain covariates
``w`` (those entering the mean function directly).  ``w`` may be empty,
which selects the W-free estimation path downstream.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataError, SingularityError

#: Column names of the bundled Boston housing table, in file order.
BOSTON_COLUMNS = (
    "CRIM", "ZN", "INDUS", "CHAS", "NOX", "RM", "AGE",
    "DIS", "RAD", "TAX", "PTRATIO", "B", "LSTAT", "MEDV",
)

#: Eigenvalues of the covariance below this fraction of the largest are
#: treated as zero and make the whitener undefined.
EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True)
class Schema:
    """Column roles for :func:`load_csv`: one response, index covariates, plain covariates."""

    y: str
    x: tuple[str, ...]
    w: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "w", tuple(self.w))
        if len(self.x) < 1:
            raise DataError("schema needs at least one x column")
        names = [self.y, *self.x, *self.w]
        if len(set(names)) != len(names):
            raise DataError(f"schema assigns a column to more than one role: {names}")


#: Roles of the raw Boston housing columns: MEDV is the response, the rest
#: are read as index covariates until :func:`prepare_boston` assigns them.
BOSTON_SCHEMA = Schema(y="MEDV", x=tuple(c for c in BOSTON_COLUMNS if c != "MEDV"))


def as_columns(name: str, values) -> np.ndarray:
    """``values`` as a float array of rows and columns: a 1-D array is one
    column, and more than two dimensions is a :class:`DataError`."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim > 2:
        raise DataError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    return arr.reshape(-1, 1) if arr.ndim == 1 else np.atleast_2d(arr)


@dataclass
class Dataset:
    """Aligned response and covariate arrays.

    Attributes:
        y: response, shape ``(n,)``.
        x: index covariates, shape ``(n, p1)`` with ``p1 >= 1``.
        w: plain covariates, shape ``(n, p2)``; ``p2 == 0`` means "no W".
        column_names: column roles, for reporting.
        dropped_rows: rows rejected during loading (reporting only).
    """

    y: np.ndarray
    x: np.ndarray
    w: np.ndarray
    column_names: Schema | None = None
    dropped_rows: int = 0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        n = self.y.shape[0]
        self.x = as_columns("x", self.x)
        self.w = np.empty((n, 0)) if self.w is None else as_columns("w", self.w)
        if self.x.shape[0] != n or self.w.shape[0] != n:
            raise DataError(
                f"row mismatch: y has {n}, x has {self.x.shape[0]}, w has {self.w.shape[0]}"
            )
        if n < 3:
            raise DataError(f"need at least 3 rows, got {n}")
        if self.x.shape[1] < 1:
            raise DataError("x must have at least one column")
        for name, arr in (("y", self.y), ("x", self.x), ("w", self.w)):
            if not np.all(np.isfinite(arr)):
                raise DataError(f"{name} contains non-finite entries")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p1(self) -> int:
        return self.x.shape[1]

    @property
    def p2(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True)
class Standardization:
    """Affine map taking raw index covariates to whitened coordinates.

    ``z = (x - center) @ whitener`` has mean ~0 and identity sample
    covariance; ``whitener`` is the symmetric inverse square root of the
    sample covariance, so whitened-scale directions back-transform to the
    original scale as ``whitener @ direction``.
    """

    center: np.ndarray
    whitener: np.ndarray


def load_csv(path: str | Path, schema: Schema) -> Dataset:
    """Load a headered CSV, keeping only schema columns and fully numeric rows.

    Rows with a missing or non-numeric cell in any schema column are dropped;
    the count is reported on ``Dataset.dropped_rows``.  Row order is preserved.

    Raises:
        FileNotFoundError: missing file.
        DataError: missing header, unknown or repeated schema column, or
            fewer than 3 usable rows.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:  # Excel writes a BOM
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        wanted = [schema.y, *schema.x, *schema.w]
        missing = [c for c in wanted if c not in header]
        if missing:
            raise DataError(f"{path}: column(s) not in header: {', '.join(missing)}")
        repeated = [c for c in wanted if header.count(c) > 1]
        if repeated:
            raise DataError(f"{path}: column(s) repeated in header: {', '.join(repeated)}")
        idx = [header.index(c) for c in wanted]

        kept: list[list[float]] = []
        dropped = 0
        for row in reader:
            if not row:
                continue  # blank line, not a data row
            try:
                vals = [float(row[i]) for i in idx]
            except (ValueError, IndexError):
                dropped += 1
                continue
            if not all(math.isfinite(v) for v in vals):
                dropped += 1
                continue
            kept.append(vals)

    if not kept:
        raise DataError(f"{path}: no usable rows ({dropped} dropped)")
    data = np.asarray(kept, dtype=float)
    if data.shape[0] < 3:
        raise DataError(f"{path}: only {data.shape[0]} usable rows, need at least 3")
    k1 = len(schema.x)
    ds = Dataset(
        y=data[:, 0],
        x=data[:, 1 : 1 + k1],
        w=data[:, 1 + k1 :],
        column_names=schema,
        dropped_rows=dropped,
    )
    return ds


def standardize(x: np.ndarray) -> tuple[np.ndarray, Standardization]:
    """Whiten columns of ``x``: subtract means, multiply by the symmetric
    inverse square root of the sample covariance.  A 1-D ``x`` is one column.

    Raises:
        SingularityError: the sample covariance has an eigenvalue below
            ``EIGENVALUE_FLOOR`` times its largest one.
    """
    x = as_columns("x", x)
    center = x.mean(axis=0)
    cov = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
    vals, vecs = np.linalg.eigh(cov)
    floor = EIGENVALUE_FLOOR * vals[-1]
    if vals[0] <= floor:
        raise SingularityError(
            f"covariance is near-singular: eigenvalue {vals[0]:.3e} below "
            f"{floor:.3e} (= {EIGENVALUE_FLOOR:g} x largest {vals[-1]:.3e})"
        )
    whitener = (vecs / np.sqrt(vals)) @ vecs.T
    z = (x - center) @ whitener

    zcov = np.atleast_2d(np.cov(z, rowvar=False, ddof=1))
    err = max(
        float(np.max(np.abs(z.mean(axis=0)))),
        float(np.max(np.abs(zcov - np.eye(x.shape[1])))),
    )
    if not err <= 1e-8:  # NaN fails too
        raise SingularityError(
            f"whitening failed numerically: residual deviation {err:.3e} exceeds 1e-8"
        )
    return z, Standardization(center=center, whitener=whitener)


def prepare_boston(raw: Dataset) -> Dataset:
    """Build the housing-analysis dataset from the raw 14-column table.

    The response becomes ``log(MEDV)``, ``CRIM`` is used as the plain
    covariate, ``CHAS`` is discarded, and the remaining 11 predictors form
    the index block.  All predictors (including CRIM) are standardized
    column-wise to mean 0, variance 1; the response is only log-transformed.
    """
    if raw.column_names is None:
        raise DataError("raw dataset carries no column names")
    names = [raw.column_names.y, *raw.column_names.x, *raw.column_names.w]
    missing = [c for c in BOSTON_COLUMNS if c not in names]
    if missing:
        raise DataError(f"missing column(s): {', '.join(missing)}")

    table = np.column_stack([raw.y.reshape(-1, 1), raw.x, raw.w])

    def col(name: str) -> np.ndarray:
        return table[:, names.index(name)]

    medv = col("MEDV")
    if np.any(medv <= 0):
        bad = int(np.argmax(medv <= 0))
        raise DataError(f"MEDV must be positive to take logs; row {bad} has {medv[bad]}")
    y = np.log(medv)

    def scaled(name: str) -> np.ndarray:
        c = col(name)
        sd = c.std(ddof=1)
        if sd == 0:
            raise DataError(f"predictor {name} is constant, cannot standardize")
        return (c - c.mean()) / sd

    x_names = tuple(c for c in BOSTON_COLUMNS if c not in ("MEDV", "CRIM", "CHAS"))
    x = np.column_stack([scaled(c) for c in x_names])
    w = scaled("CRIM").reshape(-1, 1)
    return Dataset(
        y=y, x=x, w=w,
        column_names=Schema(y="log(MEDV)", x=x_names, w=("CRIM",)),
        dropped_rows=raw.dropped_rows,
    )


def boston_path() -> Path:
    """Path of the bundled 506-row housing CSV."""
    return Path(resources.files("pdrtest").joinpath("data/boston.csv"))  # type: ignore[arg-type]


def load_boston() -> Dataset:
    """Load and prepare the bundled housing data in one step."""
    return prepare_boston(load_csv(boston_path(), BOSTON_SCHEMA))
