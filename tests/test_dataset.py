"""Loading, validation, whitening, and the housing preparation pipeline."""

from __future__ import annotations

import codecs
import csv
from pathlib import Path

import numpy as np
import pytest

from pdrtest import DataError, Dataset, Schema, SingularityError, load_csv
from pdrtest.dataset import BOSTON_SCHEMA, boston_path, prepare_boston, standardize


class TestLoadCsv:
    def test_three_row_file(self, write_csv):
        path = write_csv(
            "t.csv", ["y", "x1", "x2"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
        )
        ds = load_csv(path, Schema(y="y", x=("x1", "x2")))
        assert (ds.n, ds.p1, ds.p2) == (3, 2, 0)
        assert ds.dropped_rows == 0
        np.testing.assert_array_equal(ds.y, [1.0, 4.0, 7.0])

    def test_non_numeric_row_dropped_and_counted(self, write_csv):
        path = write_csv(
            "t.csv",
            ["y", "x1"],
            [[1.0, 2.0], ["oops", 3.0], [4.0, 5.0], [6.0, 7.0]],
        )
        ds = load_csv(path, Schema(y="y", x=("x1",)))
        assert ds.n == 3
        assert ds.dropped_rows == 1
        np.testing.assert_array_equal(ds.y, [1.0, 4.0, 6.0])

    def test_missing_cell_dropped(self, write_csv):
        path = write_csv(
            "t.csv", ["y", "x1"], [[1.0, 2.0], [3.0, ""], [4.0, 5.0], [6.0, 7.0]]
        )
        ds = load_csv(path, Schema(y="y", x=("x1",)))
        assert (ds.n, ds.dropped_rows) == (3, 1)

    def test_boston_schema_dimensions(self, write_csv):
        ds = load_csv(boston_path(), BOSTON_SCHEMA)
        assert (ds.n, ds.p1, ds.p2) == (506, 11, 1)

    def test_byte_order_mark_ignored(self, write_csv, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark, which
        # must not become part of the first column's name
        path = write_csv("t.csv", ["y", "x1"], [[1, 2], [3, 4], [5, 6]])
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + Path(path).read_bytes())
        ds = load_csv(marked, Schema(y="y", x=("x1",)))
        np.testing.assert_array_equal(ds.y, [1.0, 3.0, 5.0])
        # the housing data, first column CRIM, loads the same with a mark
        marked.write_bytes(codecs.BOM_UTF8 + boston_path().read_bytes())
        got, want = load_csv(marked, BOSTON_SCHEMA), load_csv(boston_path(), BOSTON_SCHEMA)
        for name in ("y", "x", "w"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert (got.column_names, got.dropped_rows) == (want.column_names, want.dropped_rows)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", Schema(y="y", x=("x1",)))

    def test_unknown_column(self, write_csv):
        path = write_csv("t.csv", ["y", "x1"], [[1, 2], [3, 4], [5, 6]])
        with pytest.raises(DataError, match="x9"):
            load_csv(path, Schema(y="y", x=("x9",)))

    def test_repeated_column_named(self, write_csv):
        path = write_csv("t.csv", ["y", "x1", "x1"], [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        with pytest.raises(DataError, match="repeated in header: x1"):
            load_csv(path, Schema(y="y", x=("x1",)))

    def test_zero_usable_rows(self, write_csv):
        path = write_csv("t.csv", ["y", "x1"], [["a", "b"], ["c", "d"]])
        with pytest.raises(DataError, match="no usable rows"):
            load_csv(path, Schema(y="y", x=("x1",)))

    def test_too_few_rows(self, write_csv):
        path = write_csv("t.csv", ["y", "x1"], [[1, 2], [3, 4]])
        with pytest.raises(DataError, match="at least 3"):
            load_csv(path, Schema(y="y", x=("x1",)))

    def test_order_preserving_and_deterministic(self, write_csv):
        rows = [[float(i), float(i * i)] for i in range(1, 20)]
        path = write_csv("t.csv", ["y", "x1"], rows)
        first = load_csv(path, Schema(y="y", x=("x1",)))
        second = load_csv(path, Schema(y="y", x=("x1",)))
        np.testing.assert_array_equal(first.y, [r[0] for r in rows])
        np.testing.assert_array_equal(first.y, second.y)
        np.testing.assert_array_equal(first.x, second.x)


class TestDatasetValidation:
    def test_row_mismatch(self):
        with pytest.raises(DataError, match="row mismatch"):
            Dataset(y=np.arange(4.0), x=np.ones((3, 2)), w=None)

    def test_non_finite(self):
        x = np.ones((4, 2))
        x[1, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            Dataset(y=np.arange(4.0), x=x, w=None)

    def test_w_absent_is_zero_width(self):
        ds = Dataset(y=np.arange(3.0), x=np.eye(3), w=None)
        assert ds.p2 == 0
        assert ds.w.shape == (3, 0)

    @pytest.mark.parametrize("name, shape", [("x", (60, 2, 1)), ("w", (60, 1, 1))])
    def test_three_dimensional_array_named(self, name, shape):
        arrays = {"x": np.ones((60, 2)), "w": None, name: np.ones(shape)}
        message = rf"^{name} must be 1-D or 2-D, got shape \({shape[0]}, {shape[1]}, 1\)$"
        with pytest.raises(DataError, match=message):
            Dataset(y=np.arange(60.0), **arrays)

    def test_one_dimensional_x_is_one_column(self):
        x = np.linspace(0.0, 1.0, 5)
        ds = Dataset(y=np.arange(5.0), x=x, w=x[::-1])
        assert ds.x.shape == ds.w.shape == (5, 1)
        np.testing.assert_array_equal(ds.x[:, 0], x)
        with pytest.raises(DataError, match="row mismatch: y has 5, x has 4"):
            Dataset(y=np.arange(5.0), x=x[:4], w=None)


class TestStandardize:
    def test_whitened_input_passes_through(self):
        rng = np.random.default_rng(0)
        z0, _ = standardize(rng.standard_normal((60, 3)))
        z1, std = standardize(z0)
        np.testing.assert_allclose(z1, z0, atol=1e-8)
        np.testing.assert_allclose(std.whitener, np.eye(3), atol=1e-8)
        np.testing.assert_allclose(std.center, np.zeros(3), atol=1e-9)

    def test_duplicated_column_is_singular(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(30)
        x = np.column_stack([col, col, rng.standard_normal(30)])
        with pytest.raises(SingularityError, match="eigenvalue"):
            standardize(x)

    def test_correlated_gaussian_whitens(self):
        # covariance 1{i=j} + 0.5^|i-j| 1{i!=j}, the correlated design used
        # in the simulations
        rng = np.random.default_rng(2)
        idx = np.arange(4)
        sigma = np.where(idx[:, None] == idx[None, :], 1.0, 0.5 ** np.abs(idx[:, None] - idx[None, :]))
        x = rng.standard_normal((200, 4)) @ np.linalg.cholesky(sigma).T
        z, _ = standardize(x)
        np.testing.assert_allclose(np.cov(z, rowvar=False, ddof=1), np.eye(4), atol=1e-8)
        np.testing.assert_allclose(z.mean(axis=0), np.zeros(4), atol=1e-8)

    def test_direction_round_trip(self):
        # back-transformed directions have unit length in the x metric:
        # (W eta)' Cov(x) (W eta) = eta'eta
        rng = np.random.default_rng(3)
        x = rng.standard_normal((120, 5)) @ rng.standard_normal((5, 5))
        _, std = standardize(x)
        cov = np.cov(x, rowvar=False, ddof=1)
        for _ in range(5):
            eta = rng.standard_normal(5)
            b = std.whitener @ eta
            assert abs(b @ cov @ b - eta @ eta) <= 1e-8 * max(1.0, eta @ eta)

    def test_one_dimensional_x_is_one_column(self):
        x = np.random.default_rng(4).standard_normal(50)
        z, std = standardize(x)
        z_col, std_col = standardize(x[:, None])
        assert z.shape == (50, 1)
        np.testing.assert_array_equal(z, z_col)
        np.testing.assert_array_equal(std.whitener, std_col.whitener)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_deviation_fails_the_whitening_check(self):
        # one row has no sample covariance: the NaN it whitens to is refused
        with pytest.raises(SingularityError, match="residual deviation nan"):
            standardize(np.array([[1.0, 2.0]]))


class TestPrepareBoston:
    def test_dimensions(self, boston):
        assert (boston.n, boston.p1, boston.p2) == (506, 11, 1)
        assert boston.column_names.y == "log(MEDV)"
        assert "CHAS" not in boston.column_names.x
        assert boston.column_names.w == ("CRIM",)

    def test_predictors_standardized(self, boston):
        np.testing.assert_allclose(boston.x.mean(axis=0), np.zeros(11), atol=1e-10)
        np.testing.assert_allclose(boston.x.std(axis=0, ddof=1), np.ones(11), atol=1e-10)
        np.testing.assert_allclose(boston.w.std(axis=0, ddof=1), [1.0], atol=1e-10)

    def _raw(self, medv):
        # a dataset as load_csv reads it with BOSTON_SCHEMA
        rng = np.random.default_rng(4)
        n = len(medv)
        return Dataset(
            y=np.asarray(medv, dtype=float),
            x=rng.standard_normal((n, len(BOSTON_SCHEMA.x))),
            w=rng.standard_normal((n, 1)),
            column_names=BOSTON_SCHEMA,
        )

    def test_unit_medv_gives_zero_response(self):
        ds = prepare_boston(self._raw([1.0] * 10))
        np.testing.assert_array_equal(ds.y, np.zeros(10))

    def test_nonpositive_medv_rejected(self):
        medv = [1.0] * 10
        medv[4] = 0.0
        with pytest.raises(DataError, match="MEDV must be positive to take logs; row 4 has 0.0"):
            prepare_boston(self._raw(medv))

    def test_constant_predictor_named(self):
        raw = self._raw([1.0] * 10)
        raw.x[:, BOSTON_SCHEMA.x.index("RM")] = 6.0
        with pytest.raises(DataError, match="predictor RM is constant"):
            prepare_boston(raw)
        raw = self._raw([1.0] * 10)
        raw.w[:] = 0.5
        with pytest.raises(DataError, match="predictor CRIM is constant"):
            prepare_boston(raw)

    def test_missing_column_rejected(self, tmp_path):
        # the table without LSTAT: load_csv refuses it before prepare_boston runs
        with open(boston_path(), newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("LSTAT")
        path = tmp_path / "no_lstat.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(row[:drop] + row[drop + 1:] for row in rows)
        with pytest.raises(DataError, match="column.s. not in header: LSTAT"):
            prepare_boston(load_csv(path, BOSTON_SCHEMA))

    def test_other_schema_rejected(self):
        rng = np.random.default_rng(5)
        raw = Dataset(
            y=rng.uniform(1, 2, size=10),
            x=rng.standard_normal((10, 3)),
            w=None,
            column_names=Schema(y="MEDV", x=("CRIM", "ZN", "INDUS")),
        )
        with pytest.raises(DataError, match="needs BOSTON_SCHEMA's columns"):
            prepare_boston(raw)
