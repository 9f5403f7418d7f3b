"""Least-squares fitting, influence vectors, and gradient checks."""

from __future__ import annotations

import dataclasses
import multiprocessing

import numpy as np
import pytest

from pdrtest import (
    Dataset,
    ModelFamily,
    SingularityError,
    design,
    families,
    family_names,
    finite_diff_grad,
    generate,
    get_family,
    influence_vectors,
    nls_fit,
    power_experiment,
    register_family,
    run_test,
)

BETA_EX1 = np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2.0)


def make_linear_dataset(rng, n=50, p=4, beta=None, noise=0.0):
    x = rng.standard_normal((n, p))
    beta = rng.standard_normal(p) if beta is None else beta
    y = x @ beta + noise * rng.standard_normal(n)
    return Dataset(y=y, x=x, w=None), beta


class TestNlsFit:
    def test_noiseless_linear_is_exact(self):
        ds, beta = make_linear_dataset(np.random.default_rng(0))
        fit = nls_fit(ds, get_family("linear", ds.p1, 0))
        np.testing.assert_allclose(fit.beta, beta, atol=1e-8)
        assert fit.sse <= 1e-16 * ds.n
        assert fit.converged

    def test_linear_matches_normal_equations_from_any_start(self):
        rng = np.random.default_rng(1)
        ds, _ = make_linear_dataset(rng, noise=0.7)
        target, *_ = np.linalg.lstsq(ds.x, ds.y, rcond=None)
        family = get_family("linear", ds.p1, 0)
        for _ in range(5):
            init = rng.standard_normal(ds.p1) * 10
            fit = nls_fit(ds, family, init=init)
            np.testing.assert_allclose(fit.beta, target, atol=1e-8)

    def test_beta_coverage_under_null(self):
        # noise level 0.5 is known, so the asymptotic standard error is
        # 0.5 * sqrt(diag((X'X)^-1)); 3-sigma coverage should be near 1
        hits = 0
        for r in range(200):
            rng = np.random.default_rng(np.random.SeedSequence([20, r]))
            ds = generate(design("ex1", 200, 0.0), rng)
            fit = nls_fit(ds, get_family("linear", 4, 0))
            se = 0.5 * np.sqrt(np.diag(np.linalg.inv(ds.x.T @ ds.x)))
            hits += bool(np.all(np.abs(fit.beta - BETA_EX1) <= 3 * se))
        assert hits / 200 >= 0.99

    def test_theta_consistency_with_sine_term(self):
        # generating process has theta = 1 exactly when a = 0
        for r in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([21, r]))
            ds = generate(design("ex5c2", 400, 0.0), rng)
            fit = nls_fit(ds, get_family("linear+sinw", ds.p1, ds.p2))
            assert abs(fit.theta[0] - 1.0) <= 0.1

    def test_residuals_recompute(self):
        rng = np.random.default_rng(2)
        ds = generate(design("ex5c2", 100, 0.5), rng)
        family = get_family("linear+sinw", ds.p1, ds.p2)
        fit = nls_fit(ds, family)
        again = ds.y - family.mean(ds.x, ds.w, fit.beta, fit.theta)
        np.testing.assert_allclose(fit.residuals, again, atol=1e-10)

    def test_score_orthogonal_to_residuals(self):
        rng = np.random.default_rng(3)
        ds = generate(design("ex5c1", 150, 0.0), rng)
        fit = nls_fit(ds, get_family("linear+w", ds.p1, ds.p2))
        assert fit.converged
        bound = 1e-4 * np.sqrt(ds.n) * fit.residuals.std()
        assert np.max(np.abs(fit.score.T @ fit.residuals)) <= bound

    def test_nonfinite_start_rejected(self):
        ds, _ = make_linear_dataset(np.random.default_rng(4))
        family = ModelFamily(
            name="log-index", p1=ds.p1, d=0, mean=lambda x, w, b, t: np.log(x @ b)
        )
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
            nls_fit(ds, family, init=np.full(ds.p1, -1.0))

    def test_iteration_cap_reports_nonconvergence(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 2))
        y = np.sin(x @ np.array([1.5, -2.0])) + 0.1 * rng.standard_normal(60)
        ds = Dataset(y=y, x=x, w=None)
        family = ModelFamily(
            name="sine-index", p1=2, d=0, mean=lambda x_, w_, b, t: np.sin(x_ @ b)
        )
        fit = nls_fit(ds, family, init=np.array([8.0, 8.0]), max_iter=1)
        assert not fit.converged
        assert fit.iterations == 1


    @pytest.mark.parametrize("case", ["ex5c1", "ex5c2", "ex5c3", "ex5c4", "ex1"])
    def test_stopping_rule_ignores_response_units(self, case):
        # a gradient bound in the units of y would call a small response
        # converged at the start, with theta = 0, and reject a correct null
        dsg = design(case, 100, 0.0)
        ds = generate(dsg, np.random.default_rng(7))
        unit = run_test(ds, dsg.null_family, m=500, seed=3)
        for c in (1e-12, 1e-10, 1e12):
            rep = run_test(Dataset(y=c * ds.y, x=ds.x, w=ds.w), dsg.null_family, m=500, seed=3)
            assert rep.fit.converged
            assert rep.fit.iterations == unit.fit.iterations
            np.testing.assert_allclose(rep.fit.theta / c, unit.fit.theta, rtol=1e-6, atol=1e-12)
            assert rep.t_n / c**2 == pytest.approx(unit.t_n, rel=1e-6)
            assert rep.p_hat == unit.p_hat

    def test_zero_residual_is_converged(self):
        ds, _ = make_linear_dataset(np.random.default_rng(6))
        fit = nls_fit(Dataset(y=np.zeros(ds.n), x=ds.x, w=None), get_family("linear", ds.p1, 0))
        assert fit.converged and fit.iterations == 1 and fit.sse == 0.0


class TestInfluenceVectors:
    def test_zero_residuals_give_zero_influence(self):
        ds, _ = make_linear_dataset(np.random.default_rng(6))
        fit = nls_fit(ds, get_family("linear", ds.p1, 0))
        v = influence_vectors(fit)
        np.testing.assert_allclose(v, np.zeros_like(v), atol=1e-8)

    def test_matches_direct_solve_on_linear_model(self):
        # v_i = (X'X/n)^{-1} x_i eps_i, assembled entry by entry
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 2))
        y = x @ np.array([1.0, -1.0]) + rng.standard_normal(5)
        ds = Dataset(y=y, x=x, w=None)
        fit = nls_fit(ds, get_family("linear", 2, 0))
        v = influence_vectors(fit)
        s_inv = np.linalg.inv(x.T @ x / 5)
        for i in range(5):
            np.testing.assert_allclose(v[i], s_inv @ (x[i] * fit.residuals[i]), atol=1e-10)

    def test_mean_influence_near_zero(self):
        rng = np.random.default_rng(8)
        ds = generate(design("ex5c1", 200, 0.0), rng)
        fit = nls_fit(ds, get_family("linear+w", ds.p1, ds.p2))
        v = influence_vectors(fit)
        assert np.max(np.abs(v.mean(axis=0))) <= 1e-4 * fit.residuals.std()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        ds = generate(design("ex1", 80, 0.0), rng)
        fit = nls_fit(ds, get_family("linear", 4, 0))
        v = influence_vectors(fit)
        perm = np.random.default_rng(10).permutation(ds.n)
        permuted = Dataset(y=ds.y[perm], x=ds.x[perm], w=None)
        fit_p = nls_fit(permuted, get_family("linear", 4, 0))
        np.testing.assert_allclose(influence_vectors(fit_p), v[perm], atol=1e-8)

    def test_collinear_scores_rejected(self):
        rng = np.random.default_rng(11)
        col = rng.standard_normal(30)
        x = np.column_stack([col, col + 1e-14 * rng.standard_normal(30)])
        y = col + 0.1 * rng.standard_normal(30)
        fit = nls_fit(Dataset(y=y, x=x, w=None), get_family("linear", 2, 0))
        with pytest.raises(SingularityError, match="condition"):
            influence_vectors(fit)

    def test_unconverged_fit_still_gives_influence_vectors(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((60, 2))
        y = np.sin(x @ np.array([1.5, -2.0]))
        ds = Dataset(y=y, x=x, w=None)
        family = ModelFamily(name="sine2", p1=2, d=0, mean=lambda x_, w_, b, t: np.sin(x_ @ b))
        fit = nls_fit(ds, family, init=np.array([8.0, 8.0]), max_iter=1)
        assert not fit.converged
        v = influence_vectors(fit)
        assert v.shape == (60, 2)
        assert np.all(np.isfinite(v))


class TestGradients:
    def test_linear_family_gradient_exact(self):
        family = get_family("linear", 3, 0)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 3))
        w = np.empty((4, 0))
        got = finite_diff_grad(family, x, w, rng.standard_normal(3), np.empty(0))
        np.testing.assert_allclose(got, x, atol=1e-9)

    def test_one_dimensional_x_is_one_column(self):
        family = get_family("linear", 1, 0)
        x = np.random.default_rng(16).standard_normal(50)
        got = finite_diff_grad(family, x, np.empty((50, 0)), np.ones(1), np.empty(0))
        np.testing.assert_array_equal(
            got, finite_diff_grad(family, x[:, None], np.empty((50, 0)), np.ones(1), np.empty(0)))
        assert got.shape == (50, 1)

    def test_sine_index_gradient_at_zero(self):
        family = ModelFamily(
            name="sine-probe", p1=3, d=0, mean=lambda x, w, b, t: np.sin(x @ b)
        )
        x = np.array([[0.3, -1.2, 0.7]])
        got = finite_diff_grad(family, x, np.empty((1, 0)), np.zeros(3), np.empty(0))
        np.testing.assert_allclose(got, x, atol=1e-6)

    def test_smooth_family_against_analytic(self):
        def mean(x, w, b, t):
            return np.exp(x @ b) * (1.0 + t[0] * w[:, 0])

        def grad(x, w, b, t):
            g = np.exp(x @ b)
            return np.column_stack([x * (g * (1.0 + t[0] * w[:, 0]))[:, None], g * w[:, 0]])

        family = ModelFamily(name="exp-index", p1=2, d=1, p2=1, mean=mean, grad=grad)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((6, 2)) * 0.5
        w = rng.standard_normal((6, 1))
        beta, theta = rng.standard_normal(2) * 0.5, rng.standard_normal(1)
        got = finite_diff_grad(family, x, w, beta, theta)
        want = grad(x, w, beta, theta)
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-5

    def test_every_registered_family_passes_probe_check(self):
        # construction already cross-checks analytic against finite
        # differences; re-run explicitly over fresh probes
        rng = np.random.default_rng(15)
        for name in family_names():
            family = get_family(name, 4, 1)
            for _ in range(10):
                x = rng.standard_normal((3, 4))
                w = rng.standard_normal((3, 1))
                beta = rng.standard_normal(4)
                theta = rng.standard_normal(family.d)
                got = family.gradient(x, w, beta, theta)
                want = finite_diff_grad(family, x, w, beta, theta)
                assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-5

    def test_bad_gradient_rejected_at_construction(self):
        with pytest.raises(ValueError, match="disagrees"):
            ModelFamily(
                name="broken",
                p1=2,
                d=0,
                mean=lambda x, w, b, t: x @ b,
                grad=lambda x, w, b, t: 2.0 * np.asarray(x),
            )


def cubic_family(name, theta_scale=1.0):
    """A factory of ``x'b + t (x'b)^3``, with an analytic gradient that is
    wrong in its theta component unless ``theta_scale`` is 1."""

    def mean(x, w, b, t):
        return x @ b + t[0] * (x @ b) ** 3

    def grad(x, w, b, t):
        z = x @ b
        return np.column_stack([x * (1.0 + 3.0 * t[0] * z**2)[:, None], theta_scale * z**3])

    return lambda p1, p2: ModelFamily(name=name, p1=p1, d=1, mean=mean, grad=grad)


class TestRegisterFamily:
    @pytest.fixture(autouse=True)
    def registry(self, monkeypatch):
        # each test registers into a copy, and the registry is restored after it
        monkeypatch.setattr(families, "_REGISTRY", dict(families._REGISTRY))

    def test_registered_family_runs_the_test(self):
        register_family("cubic-index", cubic_family("cubic-index"))
        assert "cubic-index" in family_names()
        ds = generate(design("ex3", 60, 0.0), np.random.default_rng(30))
        rep = run_test(ds, "cubic-index", m=50, seed=31)
        assert rep.family == "cubic-index" and rep.fit.theta.shape == (1,)
        assert np.isfinite(rep.t_n) and 0.0 <= rep.p_hat <= 1.0 and rep.replicates.shape == (50,)

    def test_registered_family_in_pool_workers(self):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers see a family registered here only when forked")
        register_family("cubic-index", cubic_family("cubic-index"))
        designs = [dataclasses.replace(design("ex3", 60, 0.0), null_family="cubic-index")]
        pooled = power_experiment(designs, reps=4, mc_reps=30, alpha=0.05, seed=32, workers=2)
        serial = power_experiment(designs, reps=4, mc_reps=30, alpha=0.05, seed=32, workers=1)
        assert pooled.rows == serial.rows

    def test_wrong_gradient_refused_when_built(self):
        register_family("bad-cubic", cubic_family("bad-cubic", theta_scale=2.0))
        with pytest.raises(ValueError, match="^family 'bad-cubic': gradient component 3 disagrees"):
            get_family("bad-cubic", 3, 0)

    @pytest.mark.parametrize("name", ["cubic-index", "linear"])
    def test_repeated_name_refused(self, name):
        if name not in family_names():
            register_family(name, cubic_family(name))
        with pytest.raises(ValueError, match=f"^family '{name}' already registered$"):
            register_family(name, cubic_family(name))
