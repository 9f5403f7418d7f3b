"""Candidate matrices, dimension selection, and basis estimation."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdrtest import DataError, Dataset, design, estimate_basis, generate, ridge_eigenvalue_ratio
from pdrtest.dataset import standardize
from pdrtest.sdr import (
    MAX_SLICES,
    MIN_CELL,
    SLICE_OCCUPANCY,
    dee_matrix,
    order_statistic_sums,
    pdee_matrix,
)

BETA_EX1 = np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2.0)


def sir_candidate(z: np.ndarray, slice_label: np.ndarray) -> np.ndarray:
    """Slice-mean covariance `sum_h p_h zbar_h zbar_h'` for centered ``z``.

    ``slice_label`` must be integers ``0..H-1`` with every value occupied.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    labels = np.asarray(slice_label, dtype=int).reshape(-1)
    n = z.shape[0]
    if n == 0:
        raise DataError("empty input")
    if labels.shape[0] != n:
        raise DataError(f"{labels.shape[0]} labels for {n} rows")
    if labels.min() < 0:
        raise DataError("negative slice label")
    counts = np.bincount(labels)
    if np.any(counts == 0):
        empty = int(np.argmax(counts == 0))
        raise DataError(f"slice {empty} has no members; compact the labels first")
    sums = np.zeros((counts.size, z.shape[1]))
    np.add.at(sums, labels, z)
    means = sums / counts[:, None]
    weighted = means * (counts / n)[:, None]
    return weighted.T @ means


def slice_matrix_oracle(z, labels):
    """Independent double-loop evaluation of sum_h p_h zbar_h zbar_h'."""
    z = np.asarray(z, dtype=float)
    n, p = z.shape
    out = np.zeros((p, p))
    for h in np.unique(labels):
        members = [i for i in range(n) if labels[i] == h]
        zbar = np.zeros(p)
        for i in members:
            zbar += z[i]
        zbar /= len(members)
        for a in range(p):
            for b in range(p):
                out[a, b] += (len(members) / n) * zbar[a] * zbar[b]
    return out


def rounding_floor(z):
    """A few ulps of ``max|z|**2``: the scale of either candidate path's
    rounding error when the slice means nearly cancel against the cell mean,
    so that the candidate entries, and a bound relative to them, are tiny."""
    return 4 * np.finfo(float).eps * np.max(np.abs(z)) ** 2


def assert_one_column_path_matches_loop(z, y, w):
    """The one-column path of ``pdee_matrix`` against its per-threshold loop.

    A constant second W column cuts the same cells, and with two columns
    ``pdee_matrix`` slices each threshold on its own.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    try:
        expected = pdee_matrix(z, y, np.column_stack([w, np.zeros_like(w)])).m
    except DataError as exc:
        with pytest.raises(DataError) as info:
            pdee_matrix(z, y, w[:, None])
        assert str(info.value) == str(exc)
        return
    got = pdee_matrix(z, y, w[:, None]).m
    atol = 1e-12 * np.abs(expected).max() + rounding_floor(z)
    np.testing.assert_allclose(got, expected, rtol=0, atol=atol)


def one_column_inputs(n, p1, y_digits, w_kind, seed):
    """Random ``(z, y, w)`` with ties in y at every rounding level and W of
    the given kind."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p1))
    y = np.round(rng.standard_normal(n), y_digits)
    w = {
        "continuous": lambda: rng.standard_normal(n),
        "rounded": lambda: np.round(rng.standard_normal(n), 1),
        "few": lambda: rng.integers(0, 4, n).astype(float),
        "constant": lambda: np.full(n, 1.5),
    }[w_kind]()
    return z, y, w


def exact_one_column_candidate(z, y, w):
    """``pdee_matrix(z, y, w[:, None]).m`` in exact rational arithmetic,
    straight from the definition: each W threshold cuts two cells, each usable
    cell is sliced on the response (ties in input order), and the slice means
    are centred on the cell mean."""
    n, p = z.shape
    zq = [[Fraction(float(v)) for v in row] for row in z]
    y_order = np.argsort(y, kind="stable")
    total = [[Fraction(0)] * p for _ in range(p)]
    for t, t_count in zip(*np.unique(w, return_counts=True)):
        cells = [[i for i in y_order if w[i] <= t], [i for i in y_order if w[i] > t]]
        cells = [cell for cell in cells if len(cell) >= MIN_CELL]
        used = sum(len(cell) for cell in cells)
        for cell in cells:
            s = len(cell)
            h = 2 if s < 2 * SLICE_OCCUPANCY else min(MAX_SLICES, s // SLICE_OCCUPANCY)
            mean = [sum(zq[i][a] for i in cell) / s for a in range(p)]
            for j in range(h):
                members = cell[j * s // h : (j + 1) * s // h]
                c = [sum(zq[i][a] for i in members) / len(members) - mean[a] for a in range(p)]
                weight = Fraction(int(t_count), used) * len(members)
                for a in range(p):
                    for b in range(p):
                        total[a][b] += weight * c[a] * c[b]
    return [[v / n for v in row] for row in total]


def assert_exact(got, exact, z):
    err = max(abs(Fraction(float(g)) - e) for g_row, e_row in zip(got, exact)
              for g, e in zip(g_row, e_row))
    scale = max(abs(e) for row in exact for e in row)
    assert err <= Fraction(1e-12) * scale + Fraction(rounding_floor(z)), float(err)


class TestSirCandidate:
    def test_zero_slice_means_give_zero_matrix(self):
        v = np.array([1.0, 2.0])
        u = np.array([-3.0, 0.5])
        z = np.vstack([v, -v, u, -u])
        labels = np.array([0, 0, 1, 1])
        np.testing.assert_allclose(sir_candidate(z, labels), np.zeros((2, 2)), atol=1e-15)

    def test_single_slice_of_centered_data(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((20, 3))
        z -= z.mean(axis=0)
        m = sir_candidate(z, np.zeros(20, dtype=int))
        np.testing.assert_allclose(m, np.zeros((3, 3)), atol=1e-28)

    def test_matches_double_loop_oracle(self):
        z = np.array(
            [[1.0, -2.0], [0.5, 0.25], [-1.5, 3.0], [2.0, 2.0], [-0.5, -1.0], [0.25, 0.75]]
        )
        labels = np.array([0, 1, 0, 2, 1, 2])
        np.testing.assert_allclose(
            sir_candidate(z, labels), slice_matrix_oracle(z, labels), atol=1e-12
        )

    def test_empty_slice_rejected(self):
        z = np.ones((4, 2))
        with pytest.raises(DataError, match="slice 1"):
            sir_candidate(z, np.array([0, 0, 2, 2]))

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((12, 3))
        labels = rng.integers(0, 3, size=12)
        if len(np.unique(labels)) < 3:  # ensure all three slices occur
            labels[:3] = [0, 1, 2]
        perm = rng.permutation(12)
        np.testing.assert_allclose(
            sir_candidate(z, labels), sir_candidate(z[perm], labels[perm]), atol=1e-12
        )


class TestDeeMatrix:
    def test_constant_response_rejected(self):
        z = np.random.default_rng(2).standard_normal((10, 2))
        with pytest.raises(DataError, match="no variation"):
            dee_matrix(z, np.ones(10))
        w = np.random.default_rng(3).standard_normal((10, 1))
        with pytest.raises(DataError, match="no variation"):
            pdee_matrix(z, np.ones(10), w)

    def test_average_of_binary_slicings(self):
        # independent oracle: average sir_candidate over every threshold,
        # skipping thresholds that leave the upper class empty
        rng = np.random.default_rng(3)
        z = rng.standard_normal((15, 3))
        z -= z.mean(axis=0)
        y = np.round(rng.standard_normal(15), 1)  # provoke ties
        n = len(y)
        acc = np.zeros((3, 3))
        for t in y:
            labels = (y > t).astype(int)
            if labels.max() == 0:
                continue
            acc += sir_candidate(z, labels)
        np.testing.assert_allclose(dee_matrix(z, y).m, acc / n, atol=1e-12)

    def test_noise_spectrum_shrinks(self):
        # response independent of z: largest eigenvalue below 0.1 nearly always
        passes = 0
        for r in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([10, r]))
            z, _ = standardize(rng.standard_normal((400, 4)))
            y = rng.standard_normal(400)
            passes += dee_matrix(z, y).eigenvalues[0] < 0.1
        assert passes >= 95

    def test_recovers_single_index_direction(self):
        cosines = []
        for r in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([11, r]))
            ds = generate(design("ex1", 200, 0.0), rng)
            cosines.append(abs(estimate_basis(ds).b_first @ BETA_EX1))
        assert np.mean(cosines) >= 0.95

    def test_symmetric_psd_with_bounded_trace(self):
        rng = np.random.default_rng(4)
        z, _ = standardize(rng.standard_normal((80, 5)))
        y = z[:, 0] + 0.3 * rng.standard_normal(80)
        cand = dee_matrix(z, y)
        np.testing.assert_allclose(cand.m, cand.m.T, atol=1e-12)
        assert cand.eigenvalues.min() >= 0.0
        assert np.trace(cand.m) <= 5 + 1e-6

    def test_eigenvectors_orthonormal_and_sign_fixed(self):
        rng = np.random.default_rng(16)
        z, _ = standardize(rng.standard_normal((100, 4)))
        y = z @ np.array([1.0, 0.5, 0.0, 0.0]) + 0.3 * rng.standard_normal(100)
        cand = dee_matrix(z, y)
        np.testing.assert_allclose(cand.eigenvectors.T @ cand.eigenvectors, np.eye(4), atol=1e-8)
        for col in cand.eigenvectors.T:
            assert col[np.argmax(np.abs(col))] > 0


class TestPdeeMatrix:
    def test_constant_w_reduces_to_full_sample_slicing(self):
        rng = np.random.default_rng(5)
        z, _ = standardize(rng.standard_normal((40, 3)))
        y = rng.standard_normal(40)
        w = np.full((40, 1), 2.5)
        got = pdee_matrix(z, y, w).m

        # oracle: equal-frequency slices of y over the whole sample,
        # H = min(5, n // 5), slice means around the global mean
        n, h = 40, min(5, 40 // 5)
        order = np.argsort(y, kind="stable")
        bounds = (np.arange(h) * n) // h
        labels = np.empty(n, dtype=int)
        for idx, (lo, hi) in enumerate(zip(bounds, np.r_[bounds[1:], n])):
            labels[order[lo:hi]] = idx
        np.testing.assert_allclose(got, slice_matrix_oracle(z - z.mean(0), labels), atol=1e-12)

    def test_noise_spectrum_shrinks(self):
        passes = 0
        for r in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([12, r]))
            z, _ = standardize(rng.standard_normal((400, 4)))
            y = rng.standard_normal(400)
            w = rng.standard_normal((400, 1))
            passes += pdee_matrix(z, y, w).eigenvalues[0] < 0.1
        assert passes >= 95

    def test_recovers_partial_index_direction(self):
        cosines = []
        for r in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([13, r]))
            ds = generate(design("ex5c1", 200, 0.0), rng)
            cosines.append(abs(estimate_basis(ds).b_first @ BETA_EX1))
        assert np.mean(cosines) >= 0.9

    def test_two_w_columns_supported(self):
        rng = np.random.default_rng(6)
        z, _ = standardize(rng.standard_normal((60, 3)))
        w = rng.standard_normal((60, 2))
        y = z[:, 0] + w[:, 0] + 0.2 * rng.standard_normal(60)
        cand = pdee_matrix(z, y, w)
        assert cand.eigenvalues.shape == (3,)
        assert cand.eigenvalues.min() >= 0.0
        assert np.trace(cand.m) <= 3 + 1e-6

    @given(
        n=st.integers(3, 80),
        p1=st.integers(1, 4),
        y_digits=st.integers(0, 2),
        w_kind=st.sampled_from(["continuous", "rounded", "few", "constant"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    # the slice means nearly cancel: entries near 1e-8, rounding near 1e-20
    @example(n=8, p1=1, y_digits=2, w_kind="constant", seed=20260810)
    def test_one_column_path_matches_loop(self, n, p1, y_digits, w_kind, seed):
        assert_one_column_path_matches_loop(*one_column_inputs(n, p1, y_digits, w_kind, seed))

    @pytest.mark.parametrize(
        "args",
        [
            (8, 1, 2, "constant", 20260810),  # the cancelling example above
            (30, 2, 1, "rounded", 1),
            (40, 3, 0, "few", 2),
            (27, 2, 2, "continuous", 3),
        ],
    )
    def test_both_paths_match_exact_value(self, args):
        z, y, w = one_column_inputs(*args)
        exact = exact_one_column_candidate(z, y, w)
        assert_exact(pdee_matrix(z, y, w[:, None]).m, exact, z)
        assert_exact(pdee_matrix(z, y, np.column_stack([w, np.zeros_like(w)])).m, exact, z)

    @pytest.mark.parametrize(
        "size",
        [
            MIN_CELL - 1,
            MIN_CELL,
            2 * SLICE_OCCUPANCY - 1,
            2 * SLICE_OCCUPANCY,
            SLICE_OCCUPANCY * MAX_SLICES - 1,
            SLICE_OCCUPANCY * MAX_SLICES,
            SLICE_OCCUPANCY * MAX_SLICES + 1,
        ],
    )
    def test_one_column_path_at_cell_size_edges(self, size):
        # two W levels: cells of exactly `size` and `size + 1` rows
        rng = np.random.default_rng(size)
        n = 2 * size + 1
        z = rng.standard_normal((n, 3))
        y = np.round(rng.standard_normal(n), 1)
        w = rng.permutation((np.arange(n) >= size).astype(float))
        assert_one_column_path_matches_loop(z, y, w)

    def test_one_column_path_over_every_cell_size(self):
        # distinct W: the thresholds cut cells of every size 1 .. n - 1
        rng = np.random.default_rng(20)
        n = SLICE_OCCUPANCY * MAX_SLICES + 2
        z = rng.standard_normal((n, 2))
        assert_one_column_path_matches_loop(z, rng.standard_normal(n), rng.standard_normal(n))

    def test_one_column_path_matches_loop_on_boston(self, boston):
        z, _ = standardize(boston.x)
        assert_one_column_path_matches_loop(z, boston.y, boston.w)

    def test_one_column_path_scales(self):
        # the loop is O(n^2 log n), and an n x n boolean would be 400 MB here
        rng = np.random.default_rng(21)
        n = 20_000
        z, _ = standardize(rng.standard_normal((n, 4)))
        y = z[:, 0] + 0.5 * rng.standard_normal(n)
        w = np.round(rng.standard_normal(n), 2)
        tracemalloc.start()
        try:
            cand = pdee_matrix(z, y, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200e6
        assert abs(cand.eigenvectors[0, 0]) > 0.99

    def test_all_cells_undersized_rejected(self):
        z = np.array([[1.0], [-1.0], [0.5]])
        with pytest.raises(DataError, match="no usable cells"):
            pdee_matrix(z, np.array([1.0, 2.0, 3.0]), np.array([[0.0], [1.0], [2.0]]))


class TestOrderStatisticSums:
    @given(
        n=st.integers(0, 60),
        p=st.integers(1, 3),
        q=st.integers(3, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_sorting_the_range(self, n, p, q, seed):
        rng = np.random.default_rng(seed)
        ranks = rng.choice(2 * n + 1, size=n, replace=False)  # distinct, with gaps
        weights = rng.standard_normal((n, p))
        lo = rng.integers(0, n + 1, size=q)
        hi = rng.integers(lo, n + 1)
        count = rng.integers(0, hi - lo + 1)
        count[0] = 0
        count[1] = hi[1] - lo[1]
        hi[2] = lo[2]
        count[2] = 0
        before = count.copy()

        got = order_statistic_sums(ranks, weights, lo, hi, count)

        expected = np.zeros((q, p))
        for k in range(q):
            smallest = lo[k] + np.argsort(ranks[lo[k] : hi[k]])[: count[k]]
            expected[k] = weights[smallest].sum(axis=0)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(count, before)


class TestRidgeRatio:
    def test_rank_one_spectrum(self):
        assert ridge_eigenvalue_ratio(np.array([1.0, 0.0, 0.0, 0.0]), 0.01) == 1

    def test_rank_two_spectrum(self):
        assert ridge_eigenvalue_ratio(np.array([4.0, 1.0, 0.0, 0.0]), 0.001) == 2

    def test_single_eigenvalue(self):
        assert ridge_eigenvalue_ratio(np.array([0.7]), 0.01) == 1

    def test_tie_breaks_toward_smallest(self):
        # equal ratios everywhere: all-zero spectrum
        assert ridge_eigenvalue_ratio(np.zeros(5), 0.05) == 1

    def test_requires_positive_ridge(self):
        for c_n in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="ridge"):
                ridge_eigenvalue_ratio(np.array([1.0, 0.0]), c_n)

    def test_requires_descending(self):
        with pytest.raises(ValueError, match="descending"):
            ridge_eigenvalue_ratio(np.array([0.1, 1.0]), 0.01)

    @given(
        head=st.lists(st.floats(0.05, 10.0), min_size=1, max_size=4),
        extra=st.integers(1, 5),
        c_n=st.floats(1e-4, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_appending_zeros_never_changes_decision(self, head, extra, c_n):
        # spectra already ending in a zero tail: growing the tail is a no-op
        lam = np.r_[sorted(head, reverse=True), 0.0]
        base = ridge_eigenvalue_ratio(lam, c_n)
        grown = ridge_eigenvalue_ratio(np.r_[lam, np.zeros(extra)], c_n)
        assert base == grown


class TestEstimateBasis:
    def test_null_dimension_is_one(self):
        hits = 0
        for r in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([14, r]))
            hits += estimate_basis(generate(design("ex1", 200, 0.0), rng)).q_hat == 1
        assert hits >= 95

    def test_boston_dimension_is_two(self, boston):
        assert estimate_basis(boston).q_hat == 2

    def test_unit_norm_and_sign_convention(self, boston):
        basis = estimate_basis(boston)
        norms = np.linalg.norm(basis.b, axis=0)
        np.testing.assert_allclose(norms, np.ones(basis.q_hat), atol=1e-10)
        for col in basis.b.T:
            lead = np.argmax(np.abs(col))
            assert col[lead] > 0
        np.testing.assert_array_equal(basis.b_first, basis.b[:, 0])

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        ds = generate(design("ex5c1", 100, 0.3), rng)
        perm = np.random.default_rng(8).permutation(ds.n)
        permuted = Dataset(y=ds.y[perm], x=ds.x[perm], w=ds.w[perm])
        a = estimate_basis(ds)
        b = estimate_basis(permuted)
        assert a.q_hat == b.q_hat
        np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=1e-10)
        np.testing.assert_allclose(a.b, b.b, atol=1e-8)

    def test_custom_ridge_accepted(self, boston):
        basis = estimate_basis(boston, c_n=0.5)
        assert basis.ridge == 0.5
        assert basis.q_hat == 1  # heavy ridge flattens the ratios toward j=1
