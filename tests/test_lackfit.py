"""Test statistic, influence contributions, and the resampling p-value."""

from __future__ import annotations

import json

import dataclasses
import functools
import os
import threading
import tracemalloc
from types import SimpleNamespace

import dense_oracles
import numpy as np
import pytest
from dense_oracles import indicator_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdrtest import (
    DataError,
    Dataset,
    SingularityError,
    build_projected,
    cli,
    design,
    estimate_basis,
    generate,
    get_family,
    influence_vectors,
    lackfit,
    load_boston,
    mc_pvalue,
    mc_replicate,
    nls_fit,
    pvalue_from_replicates,
    rho_matrix,
    run_test,
    tn_statistic,
)
from pdrtest.lackfit import ProjectedSample


def point_sums(kernel, values):
    """The kernel's dominance sums of ``values``, point by point."""
    return np.take(kernel.slot_sums(values), kernel.slot_of, axis=-1)


def proj_from_points(s, w=None):
    s = np.asarray(s, dtype=float).reshape(len(s), -1)  # a 1-d list: n scalar projections
    return ProjectedSample.of(s, np.empty((s.shape[0], 0)) if w is None else w)


def indicators(kernel):
    """The library's dominance indicators: its dominance sums of the unit rows."""
    sums = point_sums(kernel, np.eye(kernel.n))
    assert np.isin(sums, (0.0, 1.0)).all()
    return sums == 1.0


def indicator_oracle(points):
    """Triple-loop dominance evaluation."""
    points = np.atleast_2d(points)
    n, k = points.shape
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            ok = True
            for c in range(k):
                if points[i, c] > points[j, c]:
                    ok = False
                    break
            out[i, j] = ok
    return out


class TestIndicators:
    def test_two_ordered_scalars(self):
        proj = proj_from_points([1.0, 2.0])
        np.testing.assert_array_equal(indicators(proj.full), [[True, True], [False, True]])

    def test_ties_dominate_mutually(self):
        proj = proj_from_points([1.0, 1.0, 2.0])
        ind = indicators(proj.full)
        assert ind[0, 1] and ind[1, 0]

    def test_diagonal_always_true(self):
        rng = np.random.default_rng(0)
        proj = proj_from_points(rng.standard_normal((15, 2)), rng.standard_normal((15, 1)))
        assert indicators(proj.full).diagonal().all()
        assert indicators(proj.first).diagonal().all()

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal((10, 2))
        w = rng.standard_normal((10, 1))
        proj = proj_from_points(s, w)
        np.testing.assert_array_equal(indicators(proj.full), indicator_oracle(np.column_stack([s, w])))
        np.testing.assert_array_equal(
            indicators(proj.first), indicator_oracle(np.column_stack([s[:, :1], w]))
        )

    def test_full_dominance_implies_first_column_dominance(self):
        rng = np.random.default_rng(2)
        proj = proj_from_points(rng.standard_normal((12, 3)), rng.standard_normal((12, 1)))
        assert np.all(indicators(proj.first)[indicators(proj.full)])

    def test_single_projection_column_makes_them_equal(self):
        rng = np.random.default_rng(3)
        proj = proj_from_points(rng.standard_normal((12, 1)), rng.standard_normal((12, 2)))
        np.testing.assert_array_equal(indicators(proj.full), indicators(proj.first))

    def test_one_direction_sorts_one_column(self):
        ds = generate(design("ex5c1", 60, 0.0), np.random.default_rng(4))
        basis = estimate_basis(ds)
        assert basis.q_hat == 1
        proj = build_projected(ds, basis)
        # one kernel serves the statistic and the operator, and it holds no
        # n x n array: only the points and per-point arrays
        assert proj.full is proj.first
        assert all(np.asarray(f).size <= 60 * 2 for f in vars(proj.first).values())
        np.testing.assert_array_equal(
            indicators(proj.full), indicator_oracle(np.column_stack([proj.s, ds.w])))
        # without W the kernel is the sort of s[:, 0]
        proj = ProjectedSample.of(proj.s, np.empty((60, 0)))
        assert proj.full is proj.first
        np.testing.assert_array_equal(proj.first.order, np.argsort(proj.s[:, 0], kind="stable"))

    def test_run_test_matches_dense_oracles(self):
        for dsg in (design("ex1", 80, 0.4), design("ex5c1", 80, 0.4)):  # without and with W
            ds = generate(dsg, np.random.default_rng(5))
            rep = run_test(ds, dsg.null_family, m=50, seed=6)
            assert rep.q_hat == 1
            proj = build_projected(ds, rep.basis)
            v = rep.fit.residuals @ indicator_matrix(proj.full.points) / np.sqrt(ds.n)
            assert rep.t_n == pytest.approx(np.mean(v**2), rel=1e-10)
            a = dense_oracles.rho_matrix(rep.fit, influence_vectors(rep.fit), proj)
            want = dense_oracles.mc_replicates(a, 50, 6)
            np.testing.assert_allclose(rep.replicates, want, rtol=1e-10)
            assert rep.p_hat == np.mean(want >= rep.t_n)

    def test_build_projected_uses_basis(self):
        rng = np.random.default_rng(4)
        ds = generate(design("ex5c1", 60, 0.0), rng)
        basis = estimate_basis(ds)
        proj = build_projected(ds, basis)
        np.testing.assert_allclose(proj.s, ds.x @ basis.b)
        assert proj.first.slot_of.shape == proj.first.weights.shape == (60,)
        np.testing.assert_array_equal(proj.first.points, np.column_stack([proj.s[:, :1], ds.w]))


def assert_rel(got, want, rel=1e-10):
    """Agreement within ``rel`` relative to the largest entry of ``want``."""
    assert np.shape(got) == np.shape(want)
    err = np.max(np.abs(np.asarray(got) - want), initial=0.0)
    assert err <= rel * np.max(np.abs(want), initial=0.0), err


def draw_points(rng, n, k, kind):
    """n points in k dimensions: continuous, tied on a 3-value grid, or
    drawn with repetition from a few distinct rows."""
    if kind == "random":
        return rng.standard_normal((n, k))
    if kind == "tied":
        return rng.integers(0, 3, (n, k)).astype(float)
    pool = rng.standard_normal((max(1, n // 4), k))
    return pool[rng.integers(0, pool.shape[0], n)]


def blocks_of(monkeypatch, n, width):
    """Make every column and replicate block ``width`` wide at this n, on
    the W path and the W-free path of ``mc_pvalue``."""
    monkeypatch.setattr(lackfit, "BLOCK_ELEMENTS", n * width)
    monkeypatch.setattr(lackfit, "CACHE_ELEMENTS", n * width)
    assert lackfit.block_width(n) == width


def dominance_sums(values, points):
    """The library's dominance sums over raw (n,) or (n, k) points."""
    points = np.asarray(points, dtype=float)
    return point_sums(lackfit.dominance_kernel(points.reshape(points.shape[0], -1)), values)


class TestDominanceSums:
    @given(n=st.integers(1, 40), k=st.integers(1, 3),
           kind=st.sampled_from(["random", "tied", "duplicated"]),
           width=st.integers(1, 45), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_oracle(self, n, k, kind, width, seed):
        rng = np.random.default_rng(seed)
        points = draw_points(rng, n, k, kind)
        values = rng.standard_normal((3, n))
        ind = indicator_matrix(points)
        with pytest.MonkeyPatch.context() as mp:
            blocks_of(mp, n, width)
            assert_rel(dominance_sums(values, points), values @ ind)
            assert_rel(dominance_sums(values[0], points), values[0] @ ind)

    def test_one_column_needs_no_block(self, monkeypatch):
        # the 1-D path is a sort: any block width gives the same sums
        rng = np.random.default_rng(24)
        points = rng.integers(0, 50, 300).astype(float)
        values = rng.standard_normal(300)
        want = dominance_sums(values, points)
        blocks_of(monkeypatch, 300, 1)
        np.testing.assert_array_equal(dominance_sums(values, points), want)
        assert_rel(want, values @ indicator_matrix(points[:, None]))

    @pytest.mark.parametrize("k, width", [(1, 30), (2, 30), (2, 7)])  # sorted, whole, column blocks
    @pytest.mark.parametrize("shape", [(30,), (4, 30)])
    def test_slot_sums_into_out(self, monkeypatch, k, width, shape):
        rng = np.random.default_rng(53)
        kernel = lackfit.dominance_kernel(draw_points(rng, 30, k, "tied"))
        blocks_of(monkeypatch, 30, width)
        values = rng.standard_normal(shape)
        out = np.empty(shape)
        assert kernel.slot_sums(values, out) is out
        np.testing.assert_array_equal(out, kernel.slot_sums(values))
        assert_rel(point_sums(kernel, values), values @ indicator_matrix(kernel.points))

    def test_ties_read_at_end_of_run(self):
        sums = dominance_sums(np.array([1.0, 10.0, 100.0, 1000.0]), np.array([2.0, 1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(sums, [111.0, 10.0, 111.0, 1111.0])


def random_operator(rng, n, k, kind, p2=0):
    """An influence operator over n points of the given kind in k
    projection columns (only the first enters) and p2 W columns, with
    random residuals, scores and influence vectors, and its dense oracle."""
    points = draw_points(rng, n, k + p2, kind)
    proj = ProjectedSample.of(points[:, :k], points[:, k:])
    fit = SimpleNamespace(residuals=rng.standard_normal(n), score=rng.standard_normal((n, 3)))
    v = rng.standard_normal((n, 3))
    return rho_matrix(fit, v, proj), dense_oracles.rho_matrix(fit, v, proj)


class TestInfluenceOperator:
    @given(case=st.sampled_from(["ex1", "ex3", "ex5c1", "ex5c3"]), n=st.integers(30, 60),
           width=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dense_form_matches_oracle(self, case, n, width, seed):
        ds, fit, proj = fitted_instance(case, n, 0.4, seed)
        v = influence_vectors(fit)
        with pytest.MonkeyPatch.context() as mp:
            blocks_of(mp, n, width)
            a = rho_matrix(fit, v, proj)
            assert a.shape == (n, n)
            assert_rel(np.eye(n) @ a, dense_oracles.rho_matrix(fit, v, proj))

    @given(case=st.sampled_from(["ex1", "ex3", "ex5c1", "ex5c3"]), n=st.integers(30, 60),
           m=st.integers(1, 90), width=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
    @example(case="ex5c3", n=30, m=90, width=30, seed=1)  # indicators whole, three row blocks
    @example(case="ex5c3", n=30, m=90, width=7, seed=1)  # column blocks built per call
    @settings(max_examples=40, deadline=None)
    def test_mc_pvalue_matches_dense_product(self, case, n, m, width, seed):
        ds, fit, proj = fitted_instance(case, n, 0.4, seed)
        v = influence_vectors(fit)
        t_n = tn_statistic(fit.residuals, proj)
        with pytest.MonkeyPatch.context() as mp:
            blocks_of(mp, n, width)
            p, reps = mc_pvalue(t_n, rho_matrix(fit, v, proj), m, seed)
        want = dense_oracles.mc_replicates(dense_oracles.rho_matrix(fit, v, proj), m, seed)
        assert_rel(reps, want)
        assert p == np.mean(want >= t_n)

    def test_two_w_columns_and_two_directions(self, monkeypatch):
        rng = np.random.default_rng(25)
        s, w = rng.standard_normal((50, 2)), rng.integers(0, 4, (50, 2)).astype(float)
        proj = ProjectedSample.of(s, w)
        fit = nls_fit(Dataset(y=rng.standard_normal(50), x=s, w=w), get_family("linear", 2, 2))
        v = influence_vectors(fit)
        blocks_of(monkeypatch, 50, 7)
        assert_rel(np.eye(50) @ rho_matrix(fit, v, proj), dense_oracles.rho_matrix(fit, v, proj))
        assert tn_statistic(fit.residuals, proj) == pytest.approx(
            np.mean((fit.residuals @ indicator_matrix(proj.full.points)) ** 2) / 50, rel=1e-10)

    @given(n=st.integers(1, 40), k=st.integers(1, 2),
           kind=st.sampled_from(["random", "tied", "duplicated"]),
           m=st.integers(1, 60), rows=st.integers(1, 25), seed=st.integers(0, 2**32 - 1))
    @example(n=12, k=1, kind="tied", m=7, rows=3, seed=1)  # m not a multiple of the rows
    @settings(max_examples=100, deadline=None)
    def test_sorted_statistic_matches_dense_replicates(self, n, k, kind, m, rows, seed):
        a, dense = random_operator(np.random.default_rng(seed), n, k, kind)
        with pytest.MonkeyPatch.context() as mp:
            blocks_of(mp, n, rows)
            _, reps = mc_pvalue(0.0, a, m, seed)
        assert_rel(reps, dense_oracles.mc_replicates(dense, m, seed))

    @given(n=st.integers(1, 40), k=st.integers(1, 2), p2=st.integers(0, 2),
           kind=st.sampled_from(["random", "tied", "duplicated"]),
           width=st.integers(1, 45), seed=st.integers(0, 2**32 - 1))
    @example(n=12, k=1, p2=0, kind="tied", width=12, seed=1)
    @example(n=12, k=2, p2=1, kind="duplicated", width=5, seed=1)  # column blocks
    @settings(max_examples=200, deadline=None)
    def test_sorted_pass_readouts_match_dense_matrix(self, n, k, p2, kind, width, seed):
        # both readouts of the slot-order pass, with and without W
        rng = np.random.default_rng(seed)
        a, dense = random_operator(rng, n, k, kind, p2)
        u = rng.standard_normal((5, n))
        with pytest.MonkeyPatch.context() as mp:
            blocks_of(mp, n, width)
            assert_rel(np.eye(n) @ a, dense)
            assert_rel(u @ a, u @ dense)
            assert_rel(a.square_sums(u.copy(), np.empty_like(u)), np.sum((u @ dense) ** 2, axis=1))

    @pytest.mark.parametrize("case", ["ex1", "ex5c3"])
    def test_inputs_left_unchanged(self, case):
        # the operator holds the residuals and influence vectors it is given
        _, fit, proj = fitted_instance(case, 50, 0.4, 50)
        v = influence_vectors(fit)
        u = np.random.default_rng(51).standard_normal((4, 50))
        given = (fit.residuals, v, fit.score, u)
        before = [x.copy() for x in given]
        a = rho_matrix(fit, v, proj)
        mc_pvalue(0.0, a, 30, 52)
        assert_rel(u[0] @ a, (u @ a)[0])
        assert_rel(u @ a, u @ (np.eye(50) @ a))
        for got, want in zip(given, before):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("width, builds", [(50, 2), (7, 8 * (2 + 23))])
    def test_block_kernel_indicator_builds(self, monkeypatch, width, builds):
        # two kernels (t_n's and the operator's): built whole, once each;
        # in 8 column blocks, rebuilt for t_n, the score mean and each of
        # the 23 multiplier blocks of 7 rows
        built = []
        build = lackfit.indicator_block
        monkeypatch.setattr(lackfit, "indicator_block", lambda p, cols: built.append(cols) or build(p, cols))
        blocks_of(monkeypatch, 50, width)
        rng = np.random.default_rng(30)
        s, w = rng.standard_normal((50, 2)), rng.integers(0, 4, (50, 1)).astype(float)
        proj = ProjectedSample.of(s, w)
        fit = nls_fit(Dataset(y=rng.standard_normal(50), x=s, w=w), get_family("linear", 2, 1))
        v = influence_vectors(fit)
        t_n = tn_statistic(fit.residuals, proj)
        a = rho_matrix(fit, v, proj)
        _, reps = mc_pvalue(t_n, a, 160, 31)
        assert len(built) == builds
        assert_rel(reps, dense_oracles.mc_replicates(dense_oracles.rho_matrix(fit, v, proj), 160, 31))

    def test_w_path_run_test_memory_at_boston(self):
        tracemalloc.start()
        try:
            rep = run_test(load_boston(), "linear+w", m=2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.q_hat == 2 and rep.replicates.shape == (2000,)
        assert peak < 8e6, f"tracemalloc peak {peak / 1e6:.1f} MB"

    def test_w_path_run_test_memory_at_boston_keeps_one_indicator_matrix(self, boston):
        # with q_hat = 2, t_n's (s, w) kernel sums one row: its 2 MB of
        # float64 indicators are not kept through rho_matrix and mc_pvalue
        tracemalloc.start()
        try:
            rep = run_test(boston, "linear+w", m=2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.q_hat == 2 and rep.replicates.shape == (2000,)
        assert peak < 4.5e6, f"tracemalloc peak {peak / 1e6:.1f} MB"

    def test_w_free_mc_pvalue_memory_at_eight_thousand(self):
        ds, fit, proj = fitted_instance("ex1", 8000, 0.6, 28)
        a = rho_matrix(fit, influence_vectors(fit), proj)
        tracemalloc.start()
        try:
            _, reps = mc_pvalue(1.0, a, 1000, 29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reps.shape == (1000,)
        assert peak < 10e6, f"tracemalloc peak {peak / 1e6:.1f} MB"

    def test_w_free_run_at_fifty_thousand(self):
        # the dense influence matrix alone would take 8 n^2 = 20 GB here
        ds = generate(design("ex1", 50_000, 0.4), np.random.default_rng(26))
        tracemalloc.start()
        try:
            rep = run_test(ds, "linear", m=20, seed=27)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.q_hat == 1 and rep.replicates.shape == (20,)
        assert rep.t_n > 0.0 and rep.reject
        assert peak < 100e6, f"tracemalloc peak {peak / 1e6:.0f} MB"


class TestTnStatistic:
    def test_zero_residuals(self):
        proj = proj_from_points([0.3, -0.1, 2.0])
        assert tn_statistic(np.zeros(3), proj) == 0.0

    def test_single_point(self):
        proj = proj_from_points([0.7])
        assert tn_statistic(np.array([1.3]), proj) == pytest.approx(1.69, abs=1e-12)

    def test_two_point_hand_value(self):
        proj = proj_from_points([1.0, 2.0])
        assert tn_statistic(np.array([1.0, -1.0]), proj) == pytest.approx(0.25, abs=1e-14)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        resid = rng.standard_normal(14)
        proj = proj_from_points(rng.standard_normal((14, 2)), rng.standard_normal((14, 1)))
        n = 14
        ind = indicator_oracle(proj.full.points)
        acc = 0.0
        for j in range(n):
            v = sum(resid[i] * ind[i, j] for i in range(n)) / np.sqrt(n)
            acc += v * v
        assert tn_statistic(resid, proj) == pytest.approx(acc / n, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        resid = rng.standard_normal(n)
        proj = proj_from_points(rng.standard_normal((n, 2)))
        assert tn_statistic(resid, proj) >= 0.0


def fitted_instance(case="ex5c1", n=40, a=0.0, seed=6, family=None):
    rng = np.random.default_rng(seed)
    dsg = design(case, n, a)
    ds = generate(dsg, rng)
    fam = get_family(family or dsg.null_family, ds.p1, ds.p2)
    fit = nls_fit(ds, fam)
    basis = estimate_basis(ds)
    proj = build_projected(ds, basis)
    return ds, fit, proj


class TestRhoMatrix:
    def test_zero_residuals_give_zero_matrix(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 3))
        beta = np.array([1.0, 0.5, -0.25])
        ds = Dataset(y=x @ beta, x=x, w=None)
        fit = nls_fit(ds, get_family("linear", 3, 0))
        proj = build_projected(ds, estimate_basis(ds))
        v = influence_vectors(fit)
        a = np.eye(20) @ rho_matrix(fit, v, proj)
        np.testing.assert_allclose(a, np.zeros_like(a), atol=1e-8)

    def test_score_mean_at_maximal_point(self):
        # at the componentwise-maximal evaluation point the indicator
        # column is all ones, so the correction uses the full score mean;
        # with no W the first-column projection is scalar, so a maximal
        # sample point always exists
        ds, fit, proj = fitted_instance(case="ex1")
        v = influence_vectors(fit)
        a = np.eye(ds.n) @ rho_matrix(fit, v, proj)
        ind = indicator_oracle(proj.first.points)
        col_all_ones = np.flatnonzero(ind.all(axis=0))
        assert col_all_ones.size >= 1
        j = int(col_all_ones[0])
        want = fit.residuals * ind[:, j] - v @ fit.score.mean(axis=0)
        np.testing.assert_allclose(a[:, j], want, atol=1e-12)

    def test_matches_triple_loop_oracle(self):
        ds, fit, proj = fitted_instance(n=8, a=0.4, seed=8)
        v = influence_vectors(fit)
        n, k = fit.score.shape
        a = np.eye(n) @ rho_matrix(fit, v, proj)
        ind = indicator_oracle(proj.first.points)
        oracle = np.zeros((n, n))
        for j in range(n):
            ghat = np.zeros(k)
            for i in range(n):
                ghat += fit.score[i] * ind[i, j]
            ghat /= n
            for i in range(n):
                oracle[i, j] = fit.residuals[i] * ind[i, j] - ghat @ v[i]
        np.testing.assert_allclose(a, oracle, atol=1e-12)


class TestMcReplicate:
    def test_zero_multipliers(self):
        a = np.random.default_rng(9).standard_normal((6, 6))
        assert mc_replicate(a, np.zeros(6)) == 0.0

    def test_identity_matrix_value(self):
        rng = np.random.default_rng(10)
        u = rng.standard_normal(9)
        assert mc_replicate(np.eye(9), u) == pytest.approx(np.sum(u**2) / 81, rel=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 8))
        u = rng.standard_normal(8)
        acc = 0.0
        for j in range(8):
            d = sum(a[i, j] * u[i] for i in range(8)) / np.sqrt(8)
            acc += d * d
        assert mc_replicate(a, u) == pytest.approx(acc / 8, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_equals_quadratic_form(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 50))
        a = rng.standard_normal((n, n))
        u = rng.standard_normal(n)
        quad = u @ (a @ a.T / n**2) @ u
        assert mc_replicate(a, u) == pytest.approx(quad, abs=1e-10, rel=1e-10)


class TestMcPvalue:
    def test_zero_statistic_gives_one(self):
        a, _ = random_operator(np.random.default_rng(12), 10, 1, "random")
        p, reps = mc_pvalue(0.0, a, m=50, seed=1)
        assert p == 1.0
        assert reps.shape == (50,)

    def test_counting_rule(self):
        assert pvalue_from_replicates(2.5, np.array([1.0, 2.0, 3.0])) == pytest.approx(1 / 3)

    def test_pvalue_on_grid(self):
        a, _ = random_operator(np.random.default_rng(13), 12, 1, "random")
        p, _ = mc_pvalue(0.01, a, m=37, seed=2)
        assert (p * 37) == pytest.approx(round(p * 37), abs=1e-12)

    def test_deterministic_given_seed(self):
        a, _ = random_operator(np.random.default_rng(14), 15, 1, "random", p2=1)
        p1, r1 = mc_pvalue(0.3, a, m=40, seed=5)
        p2, r2 = mc_pvalue(0.3, a, m=40, seed=5)
        p3, r3 = mc_pvalue(0.3, a, m=40, seed=6)
        assert p1 == p2
        np.testing.assert_array_equal(r1, r2)
        assert not np.array_equal(r1, r3)

    def test_replicate_depends_only_on_seed_and_index(self):
        a, dense = random_operator(np.random.default_rng(22), 30, 1, "random", p2=1)
        _, r10 = mc_pvalue(0.5, a, m=10, seed=4)
        _, r25 = mc_pvalue(0.5, a, m=25, seed=4)
        np.testing.assert_allclose(r10, r25[:10], rtol=1e-12)
        children = np.random.SeedSequence(4).spawn(25)
        for j in range(10):
            u = np.random.default_rng(children[j]).standard_normal(30)
            assert r10[j] == pytest.approx(mc_replicate(dense, u), rel=1e-12)

    @given(st.floats(1e-6, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, c):
        # decision depends only on the ordering, which positive scaling keeps
        a, _ = random_operator(np.random.default_rng(15), 10, 1, "random")
        t_n = 0.8
        p, reps = mc_pvalue(t_n, a, m=60, seed=3)
        assert pvalue_from_replicates(c * t_n, c * reps) == p

    def test_seed_memory_does_not_grow_with_m(self):
        # each replicate's substream is made when its row is drawn: a list
        # of m seed objects would hold about 400 B per replicate
        a, _ = random_operator(np.random.default_rng(16), 10, 1, "random")
        tracemalloc.start()
        try:
            _, reps = mc_pvalue(1.0, a, 10_000, 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reps.shape == (10_000,)
        assert peak < 2e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def threaded_pass(monkeypatch, a, m, seed, rows, cores):
    """``mc_pvalue``'s replicates in blocks of ``rows``, run serially and
    with the thread crossover forced below n on ``cores`` cores, and, for
    the threaded run, the row count of every block and the threads that
    summed them."""
    n = a.shape[0]
    monkeypatch.setattr(lackfit, "CACHE_ELEMENTS", n * rows)
    _, serial = mc_pvalue(0.0, a, m, seed)
    blocks, idents = [], set()
    square_sums = lackfit.InfluenceOperator.square_sums

    def recorded(self, u, x):
        blocks.append(u.shape[0])
        idents.add(threading.get_ident())
        return square_sums(self, u, x)

    monkeypatch.setattr(lackfit, "THREAD_CROSSOVER", 1)
    monkeypatch.setattr(lackfit, "MAX_THREADS", cores)
    monkeypatch.setattr(lackfit, "cores", lambda: cores)
    monkeypatch.setattr(lackfit.InfluenceOperator, "square_sums", recorded)
    _, reps = mc_pvalue(0.0, a, m, seed)
    return serial, reps, blocks, idents


class TestThreadedPass:
    """The multiplier pass cut into one span of whole blocks per core gives
    the serial pass's replicates, bit for bit."""

    ROWS = 7

    @pytest.mark.parametrize("m", [1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS - 2, 150])
    @pytest.mark.parametrize("cores", [2, 5])
    def test_sorted_kernel_matches_serial_pass(self, monkeypatch, m, cores):
        _, fit, proj = fitted_instance("ex1", 60, 0.4, 40)
        a = rho_matrix(fit, influence_vectors(fit), proj)
        assert isinstance(a.kernel, lackfit.SortedKernel)
        serial, reps, blocks, idents = threaded_pass(monkeypatch, a, m, 41, self.ROWS, cores)
        np.testing.assert_array_equal(reps, serial)
        # each block of the serial partition summed once; the calling thread
        # runs one span and helpers the others (an idle helper may take two)
        want = [self.ROWS] * (m // self.ROWS) + [m % self.ROWS] * (m % self.ROWS > 0)
        assert sorted(blocks) == sorted(want)
        spans = min(cores, len(want))
        assert threading.get_ident() in idents and min(spans, 2) <= len(idents) <= spans

    def test_sorted_kernel_thread_count(self, monkeypatch):
        kernel = lackfit.SortedKernel(np.arange(8.0)[:, None])
        monkeypatch.setattr(lackfit, "cores", lambda: 64)
        assert kernel.threads == 1  # below the crossover
        monkeypatch.setattr(lackfit, "THREAD_CROSSOVER", 8)
        assert kernel.threads == lackfit.MAX_THREADS == 2
        monkeypatch.setattr(lackfit, "cores", lambda: 1)
        assert kernel.threads == 1

    def test_block_kernel_stays_serial(self, monkeypatch):
        _, fit, proj = fitted_instance("ex5c3", 60, 0.4, 42)
        a = rho_matrix(fit, influence_vectors(fit), proj)
        assert isinstance(a.kernel, lackfit.BlockKernel)
        serial, reps, blocks, idents = threaded_pass(monkeypatch, a, 150, 43, self.ROWS, 4)
        np.testing.assert_array_equal(reps, serial)
        assert len(blocks) == 22 and idents == {threading.get_ident()}

    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_failing_span_raises_and_leaves_no_thread(self, monkeypatch, where):
        a, _ = random_operator(np.random.default_rng(44), 40, 1, "random")
        monkeypatch.setattr(lackfit, "CACHE_ELEMENTS", 40 * 3)
        monkeypatch.setattr(lackfit, "THREAD_CROSSOVER", 1)
        monkeypatch.setattr(lackfit, "cores", lambda: 3)
        square_sums = lackfit.InfluenceOperator.square_sums

        def failing(self, u, x):
            if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
                raise RuntimeError("span failed")
            return square_sums(self, u, x)

        monkeypatch.setattr(lackfit.InfluenceOperator, "square_sums", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^span failed$"):
            mc_pvalue(0.0, a, 30, 45)
        assert threading.active_count() == before

    def test_runs_without_an_affinity_call(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        a, _ = random_operator(np.random.default_rng(46), 40, 1, "random")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert lackfit.cores() == (os.cpu_count() or 1)
        monkeypatch.setattr(lackfit, "CACHE_ELEMENTS", 40 * 3)
        _, serial = mc_pvalue(0.0, a, 50, 47)
        monkeypatch.setattr(lackfit, "THREAD_CROSSOVER", 1)
        _, reps = mc_pvalue(0.0, a, 50, 47)
        np.testing.assert_array_equal(reps, serial)


class TestRunTest:
    def test_identical_seeds_give_identical_reports(self):
        ds = generate(design("ex5c1", 60, 0.5), np.random.default_rng(16))
        a = run_test(ds, "linear+w", m=80, seed=42)
        b = run_test(ds, "linear+w", m=80, seed=42)
        for name in ("t_n", "p_hat", "q_hat", "seed", "reject"):
            assert getattr(a, name) == getattr(b, name)
        assert a.basis.ridge == b.basis.ridge
        np.testing.assert_array_equal(a.b, b.b)
        np.testing.assert_array_equal(a.basis.eigenvalues, b.basis.eigenvalues)
        np.testing.assert_array_equal(a.replicates, b.replicates)
        assert a.replicates.shape == (80,)

    def test_report_record_fields(self, tmp_path, capsys):
        ds = generate(design("ex1", 50, 0.0), np.random.default_rng(17))
        rep = run_test(ds, "linear", m=30, seed=7, alpha=0.1)
        rec = rep.to_record()
        # the test record is the basis record plus the test's own values
        assert rec.items() >= rep.basis.to_record().items()
        assert set(rec) - set(rep.basis.to_record()) == {
            "t_n", "p_hat", "mc_se", "reject", "m", "seed", "alpha", "family", "converged", "mc"}
        # the CLI's JSON report is this record plus the data provenance
        path = tmp_path / "ex1.csv"
        np.savetxt(path, np.column_stack([ds.y, ds.x]), delimiter=",",
                   header="y,x1,x2,x3,x4", comments="")  # %.18e round-trips
        assert cli.main(["test", "--data", str(path), "--y", "y", "--x", "x1,x2,x3,x4",
                         "--mc-reps", "30", "--seed", "7", "--alpha", "0.1",
                         "--format", "json"]) == cli.EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert set(rec) | {"config"} == set(printed)
        assert json.loads(json.dumps(rec)) == {k: v for k, v in printed.items() if k != "config"}
        assert rec["m"] == 30 and rec["seed"] == 7
        assert rec["converged"] == rep.fit.converged
        assert rec["mc"] == {"count": 30, "min": rep.replicates.min(),
                             "median": np.median(rep.replicates), "max": rep.replicates.max()}
        assert rep.reject == (rep.p_hat <= 0.1)
        assert rep.t_n >= 0.0

    def test_mc_standard_error_hand_value(self):
        ds = generate(design("ex1", 50, 0.0), np.random.default_rng(17))
        rep = dataclasses.replace(run_test(ds, "linear", m=30, seed=7),
                                  p_hat=0.25, replicates=np.ones(300))
        # sqrt(0.25 * 0.75 / 300) = 0.025
        assert rep.to_record()["mc_se"] == pytest.approx(0.025, rel=1e-14)

    def test_alpha_validated(self):
        ds = generate(design("ex1", 50, 0.0), np.random.default_rng(18))
        with pytest.raises(ValueError, match="alpha"):
            run_test(ds, "linear", m=10, seed=1, alpha=1.2)

    @pytest.mark.parametrize("setting, error", [
        ({"seed": 1.5}, DataError), ({"seed": 1.0}, DataError), ({"seed": True}, DataError),
        ({"m": 2.5}, ValueError), ({"m": 50.0}, ValueError), ({"m": True}, ValueError),
    ])
    def test_non_integer_seed_or_m_named_before_any_work(self, monkeypatch, setting, error):
        def fail(*args, **kwargs):
            raise AssertionError("basis estimated before the settings were checked")

        ds = generate(design("ex1", 50, 0.0), np.random.default_rng(18))
        monkeypatch.setattr(lackfit, "estimate_basis", fail)
        with pytest.raises(error, match="integer, got"):
            run_test(ds, "linear", **{"m": 50, "seed": 1, **setting})

    @pytest.mark.filterwarnings("error")  # an unsigned m must not wrap round in the block count
    @pytest.mark.parametrize("m, seed", [(np.int64(20), np.int64(3)), (20, np.uint64(2**64 - 1)),
                                         (np.uint32(20), 2**64)])
    def test_numpy_and_large_integers_accepted(self, m, seed):
        ds = generate(design("ex1", 50, 0.0), np.random.default_rng(18))
        rep = run_test(ds, "linear", m=m, seed=seed)
        assert rep.replicates.shape == (20,)
        np.testing.assert_array_equal(rep.replicates, run_test(ds, "linear", m=20, seed=int(seed)).replicates)

    def test_two_w_columns_end_to_end(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((80, 3))
        w = rng.standard_normal((80, 2))
        beta = np.array([1.0, -0.5, 0.25])
        y = x @ beta + w[:, 0] - 0.5 * w[:, 1] + 0.3 * rng.standard_normal(80)
        ds = Dataset(y=y, x=x, w=w)
        rep = run_test(ds, "linear", m=60, seed=3)
        assert rep.b.shape[0] == 3
        assert 0.0 <= rep.p_hat <= 1.0
        assert rep.replicates.shape == (60,)
        assert rep.p_hat == np.mean(rep.replicates >= rep.t_n)

    def test_boston_rejects_plain_linear_family_too(self, boston):
        # the rejection does not hinge on how W enters the fitted mean
        rep = run_test(boston, "linear", m=400, seed=2)
        assert rep.q_hat == 2
        assert rep.p_hat <= 0.01

    def test_rejects_strong_departure(self):
        # visible bend in the mean (a=0.8) should be caught almost always
        rejections = 0
        for r in range(200):
            root = np.random.SeedSequence([30, r])
            data_ss, test_ss = root.spawn(2)
            ds = generate(design("ex1", 200, 0.8), np.random.default_rng(data_ss))
            rep = run_test(
                ds, "linear", m=300,
                seed=int(test_ss.generate_state(1, dtype=np.uint64)[0]),
            )
            rejections += rep.reject
        assert rejections / 200 >= 0.90

    def test_row_permutation_leaves_statistic_unchanged(self):
        ds = generate(design("ex5c1", 70, 0.3), np.random.default_rng(19))
        perm = np.random.default_rng(20).permutation(ds.n)
        permuted = Dataset(y=ds.y[perm], x=ds.x[perm], w=ds.w[perm])

        def pieces(d):
            fit = nls_fit(d, get_family("linear+w", d.p1, d.p2))
            proj = build_projected(d, estimate_basis(d))
            a = rho_matrix(fit, influence_vectors(fit), proj)
            return tn_statistic(fit.residuals, proj), a

        t0, a0 = pieces(ds)
        t1, a1 = pieces(permuted)
        assert t1 == pytest.approx(t0, abs=1e-10)
        # influence matrix is permutation-similar, so every replicate
        # statistic matches when the multipliers are permuted consistently
        eye = np.eye(ds.n)
        np.testing.assert_allclose(eye @ a1, (eye @ a0)[np.ix_(perm, perm)], atol=1e-10)
        u = np.random.default_rng(21).standard_normal(ds.n)
        assert mc_replicate(a1, u[perm]) == pytest.approx(mc_replicate(a0, u), abs=1e-10)


def degenerate_dataset(kind, n, rng):
    """n rows of three index covariates and one or two W columns, with ties
    in x or in W, a constant W column, or repeated rows; "three rows" has
    n = 3 and one index covariate, so the whitening holds and every W-cell
    is below MIN_CELL."""
    x = rng.standard_normal((n, 1 if kind == "three rows" else 3))
    w = rng.standard_normal((n, 1))
    if kind == "tied x":
        x = np.round(x)
    elif kind == "tied w":
        w = np.round(w)
    elif kind == "constant w":
        w = np.ones((n, 1))
    elif kind == "one constant w":
        w = np.column_stack([w, np.ones(n)])
    y = x @ np.array([1.0, -0.5, 0.25])[:x.shape[1]] + w[:, 0] + 0.3 * rng.standard_normal(n)
    if kind == "duplicated rows":
        rows = rng.integers(0, max(1, n // 3), n)
        y, x, w = y[rows], x[rows], w[rows]
    return Dataset(y=y, x=x, w=w)


class TestDegenerateInputs:
    @given(kind=st.sampled_from(["tied x", "tied w", "constant w", "one constant w",
                                 "duplicated rows", "three rows"]),
           n=st.integers(4, 80), family=st.sampled_from(["linear", "linear+w"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_defined_result_or_named_error(self, kind, n, family, seed):
        ds = degenerate_dataset(kind, 3 if kind == "three rows" else n, np.random.default_rng(seed))
        try:
            rep = run_test(ds, family if ds.p2 == 1 else "linear", m=40, seed=seed)
        except (DataError, SingularityError):
            return
        assert np.isfinite(rep.t_n) and rep.t_n >= 0.0
        assert rep.replicates.shape == (40,) and np.isfinite(rep.replicates).all()
        assert rep.p_hat == np.mean(rep.replicates >= rep.t_n)


@functools.lru_cache(maxsize=None)
def law_instance(case):
    """A fitted null instance of ``case`` (Boston as it is), its influence
    operator, ``t_n`` and the weights of the replicates' exact law, which
    come from the dense oracle."""
    if case == "boston":
        ds, family = load_boston(), "linear+w"
    else:
        dsg = design(case, 200, 0.0)
        ds, family = generate(dsg, np.random.default_rng(3)), dsg.null_family
    fit = nls_fit(ds, get_family(family, ds.p1, ds.p2))
    proj = build_projected(ds, estimate_basis(ds))
    v = influence_vectors(fit)
    lam = dense_oracles.replicate_weights(dense_oracles.rho_matrix(fit, v, proj))
    return rho_matrix(fit, v, proj), tn_statistic(fit.residuals, proj), lam


@pytest.mark.parametrize("case", ["ex1", "ex3", "ex5c1", "ex5c3", "boston"])
class TestMonteCarloLaw:
    """The replicates of ``mc_pvalue`` against their exact conditional law,
    ``sum_k lam_k chi2_1``, with no reference to the draws."""

    M = 2000

    def test_pvalue_matches_exact_tail(self, case):
        a, t_n, lam = law_instance(case)
        p_hat, reps = mc_pvalue(t_n, a, self.M, 31)
        # at the observed statistic, and at the law's mean, where the tail is never small
        for x, got in ((t_n, p_hat), (lam.sum(), pvalue_from_replicates(lam.sum(), reps))):
            p, err = dense_oracles.imhof_tail(x, lam)
            assert err < 1e-5
            assert abs(got - p) <= 4 * np.sqrt(p * (1 - p) / self.M) + err, (x, got, p)

    def test_replicate_mean_matches_exact_mean(self, case):
        a, _, lam = law_instance(case)
        _, reps = mc_pvalue(0.0, a, self.M, 32)
        # one replicate has mean sum(lam) and variance 2 sum(lam^2)
        assert abs(reps.mean() - lam.sum()) <= 4 * np.sqrt(2 * np.sum(lam**2) / self.M)
