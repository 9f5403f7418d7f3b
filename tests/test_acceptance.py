"""Acceptance criteria, one test per criterion, one printed verdict line each.

Desk-scale replication counts with widened binomial tolerances; every
random stream is derived from fixed seeds, so the verdicts are
reproducible.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from pdrtest import (
    Dataset,
    build_projected,
    default_ridge,
    design,
    estimate_basis,
    family_names,
    finite_diff_grad,
    generate,
    get_family,
    influence_vectors,
    load_boston,
    mc_pvalue,
    mc_replicate,
    nls_fit,
    power_experiment,
    pvalue_from_replicates,
    rho_matrix,
    ridge_eigenvalue_ratio,
    run_test,
    tn_statistic,
)

MASTER_SEED = 20260810


def verdict(cid: str, ok: bool, detail: str) -> bool:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    return ok


def rejection_rate(case: str, n: int, a: float, reps: int, mc_reps: int = 300) -> float:
    table = power_experiment(
        [design(case, n, a)], reps=reps, mc_reps=mc_reps, alpha=0.05, seed=MASTER_SEED
    )
    return table.rows[0].rejection_rate


def keyed_rng(key: str, r: int) -> np.random.Generator:
    """Replicate ``r`` of the stream named ``key``."""
    key_int = int.from_bytes(key.encode(), "big") % 2**32
    return np.random.default_rng(np.random.SeedSequence([MASTER_SEED, key_int, r]))


def dimension_frequency(key: str, draw, reps: int, want_q: int) -> float:
    """Share of ``reps`` datasets ``draw(rng)`` whose estimated dimension is ``want_q``."""
    hits = sum(estimate_basis(draw(keyed_rng(key, r))).q_hat == want_q for r in range(reps))
    return hits / reps


def two_index_sample(n: int, rng: np.random.Generator, second_index: bool = True) -> Dataset:
    """``Y = exp(5 u0) - exp(-5 u1) + 0.5 eps`` on example 2's directions,
    ``u0 = beta0'X`` and ``u1 = beta1'X`` with ``X ~ N(0, I_4)``.

    Without the second index the same draws give the single-index
    companion ``Y = exp(5 u0) + 0.5 eps``.
    """
    dsg = design("ex2", n, 1.0)
    x = rng.standard_normal((n, dsg.p1))
    eps = rng.standard_normal(n)
    mean = np.exp(5.0 * (x @ dsg.beta0))
    if second_index:
        mean -= np.exp(-5.0 * (x @ dsg.beta1))
    return Dataset(y=mean + 0.5 * eps, x=x, w=None)


@pytest.fixture(scope="module")
def null_pvalues():
    """500 p-values from correctly specified data (a=0, n=100, m=300)."""
    vals = np.empty(500)
    for r in range(500):
        root = np.random.SeedSequence([MASTER_SEED, 77, r])
        data_ss, test_ss = root.spawn(2)
        ds = generate(design("ex1", 100, 0.0), np.random.default_rng(data_ss))
        report = run_test(
            ds, "linear", m=300, seed=int(test_ss.generate_state(1, dtype=np.uint64)[0])
        )
        vals[r] = report.p_hat
    return vals


def test_c1_size_example3():
    t0 = time.perf_counter()
    rates = {n: rejection_rate("ex3", n, 0.0, reps=500) for n in (50, 100, 200)}
    elapsed = time.perf_counter() - t0
    ok = all(0.02 <= r <= 0.09 for r in rates.values()) and elapsed <= 600
    assert verdict(
        "C1 size example3",
        ok,
        f"empirical sizes {rates} (target [0.02, 0.09] each), {elapsed:.0f}s (cap 600s)",
    )


def test_c2_power_example3():
    strong = rejection_rate("ex3", 200, 1.0, reps=200)
    moderate = rejection_rate("ex3", 200, 0.4, reps=200)
    ok = strong >= 0.95 and 0.70 <= moderate <= 0.95
    assert verdict(
        "C2 power example3",
        ok,
        f"rate(a=1.0)={strong:.4f} (>=0.95), rate(a=0.4)={moderate:.4f} (in [0.70, 0.95])",
    )


def test_c3_size_power_example4():
    size = rejection_rate("ex4", 200, 0.0, reps=500)
    power = rejection_rate("ex4", 200, 1.0, reps=200)
    ok = 0.02 <= size <= 0.09 and power >= 0.95
    assert verdict(
        "C3 example4 (correlated X, t4 errors)",
        ok,
        f"size={size:.4f} (in [0.02, 0.09]), power(a=1)={power:.4f} (>=0.95)",
    )


def test_c4_size_power_example5_case1():
    size = rejection_rate("ex5c1", 400, 0.0, reps=300)
    power = rejection_rate("ex5c1", 200, 1.0, reps=100)
    ok = 0.02 <= size <= 0.09 and power >= 0.97
    assert verdict(
        "C4 example5 case1",
        ok,
        f"size(n=400)={size:.4f} (in [0.02, 0.09]), power(a=1, n=200)={power:.4f} (>=0.97)",
    )


def test_c5a_null_dimension_consistency():
    freq = dimension_frequency(
        "ex1", lambda rng: generate(design("ex1", 200, 0.0), rng), reps=200, want_q=1
    )
    ok = freq >= 0.95
    assert verdict(
        "C5a dimension under the null", ok, f"P(q_hat=1)={freq:.3f} (>=0.95, example1 null n=200)"
    )


def test_c5b_alternative_dimension_consistency():
    """Under a two-index alternative the estimated dimension reaches 2.

    The ridge rule resolves a second direction only when its squared
    eigenvalue stands well above ``c_n = log(n)/n``, so the design and n
    are fixed first by the population spectrum (one W-free draw of
    200 000 rows): at n = 20 000 it must give 2 at ``c_n`` and still at
    1.5 ``c_n`` (it turns to 1 near 2.1 ``c_n``).  The single-index
    companion, the same draws without the u1 term, must then give 1 at the
    same n, so a rule that always says 2 fails too.

    Example 2 is not usable here.  Its departure ``0.125 exp(0.3 u1)`` is
    almost linear, so the mean is nearly the single index
    ``u0 + 0.0375 u1``; at n = 400 the ratio of the second to the first
    eigenvalue has 10/50/90% quantiles 0.0034/0.0054/0.0098 at a = 1 and
    0.0034/0.0054/0.0099 at a = 0 (200 replicates each), and its
    population second eigenvalue is about 1e-5.
    """
    n = 20_000
    c_n = default_ridge(n)
    population = estimate_basis(two_index_sample(200_000, keyed_rng("c5b population", 0)))
    resolved = [ridge_eigenvalue_ratio(population.eigenvalues, k * c_n) for k in (1.0, 1.5)]
    alternative = dimension_frequency(
        "c5b", lambda rng: two_index_sample(n, rng), reps=200, want_q=2
    )
    null = dimension_frequency(
        "c5b", lambda rng: two_index_sample(n, rng, second_index=False), reps=200, want_q=1
    )
    ok = resolved == [2, 2] and alternative >= 0.80 and null >= 0.95
    assert verdict(
        "C5b dimension under the alternative",
        ok,
        f"P(q_hat=2)={alternative:.3f} (>=0.80, two-index design n={n}), "
        f"population q at (1, 1.5) c_n={resolved} (want [2, 2]), "
        f"single-index companion P(q_hat=1)={null:.3f} (>=0.95)",
    )


def test_c6_boston_housing():
    ds = load_boston()
    t0 = time.perf_counter()
    hits = 0
    pvals = []
    for seed in range(10):
        report = run_test(ds, "linear+w", m=2000, seed=seed)
        pvals.append(report.p_hat)
        hits += report.q_hat == 2 and report.p_hat <= 0.01
    elapsed = time.perf_counter() - t0
    ok = hits >= 9 and elapsed <= 120
    assert verdict(
        "C6 housing data",
        ok,
        f"{hits}/10 seeds with q_hat=2 and p_hat<=0.01 (max p={max(pvals):.4f}), "
        f"{elapsed:.1f}s (cap 120s)",
    )


def test_c7a_p_value_scale_invariance():
    ds = generate(design("ex5c1", 60, 0.3), np.random.default_rng(MASTER_SEED))
    fit = nls_fit(ds, get_family("linear+w", ds.p1, ds.p2))
    proj = build_projected(ds, estimate_basis(ds))
    t_n = tn_statistic(fit.residuals, proj)
    a = rho_matrix(fit, influence_vectors(fit), proj)
    p, reps = mc_pvalue(t_n, a, m=500, seed=MASTER_SEED)
    scales = (1e-6, 0.5, 3.0, 1e6)
    ok = all(pvalue_from_replicates(c * t_n, c * reps) == p for c in scales)
    assert verdict(
        "C7a scale invariance", ok, f"p={p:.4f} unchanged under scalings {scales}"
    )


def test_c7b_quadratic_form_oracle():
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 51))
        a = rng.standard_normal((n, n))
        u = rng.standard_normal(n)
        worst = max(worst, abs(mc_replicate(a, u) - u @ (a @ a.T / n**2) @ u))
    ok = worst <= 1e-10
    assert verdict("C7b quadratic-form oracle", ok, f"max |difference| = {worst:.2e} (<=1e-10)")


def test_c7c_loop_oracles():
    ds = generate(design("ex5c1", 18, 0.4), np.random.default_rng(MASTER_SEED + 2))
    fit = nls_fit(ds, get_family("linear+w", ds.p1, ds.p2))
    proj = build_projected(ds, estimate_basis(ds))
    v_hat = influence_vectors(fit)
    n, k = fit.score.shape

    t_acc = 0.0
    for j in range(n):
        s = sum(
            fit.residuals[i] * (np.all(proj.s[i] <= proj.s[j]) and np.all(proj.w[i] <= proj.w[j]))
            for i in range(n)
        ) / np.sqrt(n)
        t_acc += s * s
    t_err = abs(tn_statistic(fit.residuals, proj) - t_acc / n)

    a = np.eye(n) @ rho_matrix(fit, v_hat, proj)
    a_err = 0.0
    for j in range(n):
        ghat = np.zeros(k)
        for i in range(n):
            ghat += fit.score[i] * (proj.s[i, 0] <= proj.s[j, 0] and np.all(proj.w[i] <= proj.w[j]))
        ghat /= n
        for i in range(n):
            ind = proj.s[i, 0] <= proj.s[j, 0] and np.all(proj.w[i] <= proj.w[j])
            want = fit.residuals[i] * ind - ghat @ v_hat[i]
            a_err = max(a_err, abs(a[i, j] - want))
    ok = t_err <= 1e-12 and a_err <= 1e-12
    assert verdict(
        "C7c brute-force loop oracles", ok,
        f"statistic error {t_err:.2e}, influence-matrix error {a_err:.2e} (<=1e-12)",
    )


def test_c7d_gradient_accuracy():
    rng = np.random.default_rng(MASTER_SEED + 3)
    worst = 0.0
    for name in family_names():
        family = get_family(name, 4, 1)
        for _ in range(10):
            x = rng.standard_normal((3, 4))
            w = rng.standard_normal((3, 1))
            beta, theta = rng.standard_normal(4), rng.standard_normal(family.d)
            got = family.gradient(x, w, beta, theta)
            want = finite_diff_grad(family, x, w, beta, theta)
            worst = max(worst, float(np.max(np.abs(got - want) / (1.0 + np.abs(want)))))
    ok = worst <= 1e-5
    assert verdict(
        "C7d gradients", ok,
        f"max relative error {worst:.2e} over families {family_names()} (<=1e-5)",
    )


def test_null_rejection_rate_at_level(null_pvalues):
    rate = float(np.mean(null_pvalues <= 0.05))
    ok = 0.02 <= rate <= 0.09
    assert verdict(
        "C7e-companion null size", ok,
        f"rejection at alpha=0.05 over 500 null runs: {rate:.4f} (in [0.02, 0.09])",
    )


def test_c7e_null_pvalue_uniformity(null_pvalues):
    counts, _ = np.histogram(null_pvalues, bins=np.linspace(0.0, 1.0, 11))
    fracs = counts / null_pvalues.size
    ok = bool(np.all((fracs >= 0.05) & (fracs <= 0.15)))
    assert verdict(
        "C7e null p-value uniformity", ok,
        f"decile fractions {np.round(fracs, 3).tolist()} (each in [0.05, 0.15])",
    )


def test_c7f_seed_and_worker_determinism():
    designs = [design("ex5c1", 50, 0.0), design("ex1", 50, 0.6)]
    serial = power_experiment(designs, reps=6, mc_reps=40, alpha=0.05, seed=MASTER_SEED, workers=1)
    parallel = power_experiment(designs, reps=6, mc_reps=40, alpha=0.05, seed=MASTER_SEED, workers=2)
    again = power_experiment(designs, reps=6, mc_reps=40, alpha=0.05, seed=MASTER_SEED, workers=1)
    ds = generate(design("ex5c1", 60, 0.0), np.random.default_rng(MASTER_SEED))
    r1 = run_test(ds, "linear+w", m=60, seed=9)
    r2 = run_test(ds, "linear+w", m=60, seed=9)
    ok = (
        serial.rows == parallel.rows == again.rows
        and r1.t_n == r2.t_n
        and r1.p_hat == r2.p_hat
        and np.array_equal(r1.b, r2.b)
    )
    assert verdict(
        "C7f determinism", ok,
        "identical tables for workers in {1, 2} and identical reports for equal seeds",
    )
