"""Generating processes, experiments, table round trips, spec files."""

from __future__ import annotations

import dataclasses
import logging
import math
import multiprocessing
import re
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from pdrtest import DataError, design, generate, lackfit, power_experiment, run_test, simulate
from pdrtest.simulate import (
    PowerRow,
    PowerTable,
    parse_table,
    read_experiment_spec,
    render_csv,
    render_curves,
    render_text,
)


def force_threads(monkeypatch) -> set[int]:
    """Force the threaded multiplier pass at n = 50 (4-row blocks, three
    cores) and return the set that collects the threads summing its blocks."""
    idents: set[int] = set()
    square_sums = lackfit.InfluenceOperator.square_sums

    def recorded(self, u, x):
        idents.add(threading.get_ident())
        return square_sums(self, u, x)

    monkeypatch.setattr(lackfit, "THREAD_CROSSOVER", 1)
    monkeypatch.setattr(lackfit, "CACHE_ELEMENTS", 50 * 4)
    monkeypatch.setattr(lackfit, "cores", lambda: 3)
    monkeypatch.setattr(lackfit.InfluenceOperator, "square_sums", recorded)
    return idents


def _worker_pass(ds):
    """In a pool worker, with the threaded pass forced here rather than
    inherited: one test's replicates and how many threads summed them."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        idents = force_threads(monkeypatch)
        replicates = run_test(ds, "linear", m=25, seed=15).replicates
    return replicates, len(idents)


class _ErrorFreeRng:
    """Forwards matrix draws to a real generator, zeroes out 1-d noise draws.

    The generating processes draw X as a 2-d block and the error (and W)
    as 1-d vectors, so this isolates the noiseless mean structure.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def standard_normal(self, size=None):
        if isinstance(size, tuple):
            return self._rng.standard_normal(size)
        return np.zeros(size)

    def standard_t(self, df, size=None):
        return np.zeros(size)


class TestDesigns:
    def test_unknown_case_rejected(self):
        with pytest.raises(DataError, match="unknown case"):
            design("ex9", 100, 0.0)

    @pytest.mark.parametrize("a, message", [
        (np.nan, "^departure a must be finite, got nan$"),
        (np.inf, "^departure a must be finite, got inf$"),
        (-np.inf, "^departure a must be finite, got -inf$"),
        ("x", "^departure a must be a real number, got 'x'$"),
        (None, "^departure a must be a real number, got None$"),
        (True, "^departure a must be a real number, got True$"),
    ])
    def test_non_finite_departure_rejected(self, a, message):
        with pytest.raises(DataError, match=message):
            design("ex1", 100, a)

    @pytest.mark.parametrize("n, message", [
        (2, r"^n must be at least 3, got 2$"),
        (50.0, r"^n must be an integer, got 50.0$"),
        (True, r"^n must be an integer, got True$"),
    ])
    def test_bad_size_named_before_any_replicate(self, n, message, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("data generated before the size was checked")

        monkeypatch.setattr(simulate, "generate", fail)
        with pytest.raises(DataError, match=message):
            power_experiment([design("ex1", n, 0.0)], 2, 10, 0.05, 1)

    def test_numpy_integer_size_accepted(self):
        assert design("ex1", np.int64(50), 0.0).n == 50
        # a numpy departure is stored as Python's float, so the curves print 0.6
        a = design("ex1", 50, np.float64(0.6)).a
        assert type(a) is float and repr(a) == "0.6"

    @pytest.mark.parametrize("case", ["ex1", "ex2", "ex3", "ex4", "ex5c1", "ex5c2", "ex5c3", "ex5c4"])
    def test_directions_are_unit_norm(self, case):
        dsg = design(case, 100, 0.5)
        assert abs(np.linalg.norm(dsg.beta0) - 1.0) <= 1e-12
        if dsg.beta1 is not None:
            assert abs(np.linalg.norm(dsg.beta1) - 1.0) <= 1e-12

    def test_dimensions(self):
        assert (design("ex3", 50, 0).p1, design("ex3", 50, 0).p2) == (8, 0)
        assert (design("ex5c3", 50, 0).p1, design("ex5c3", 50, 0).p2) == (8, 1)
        assert design("ex4", 50, 0).error_dist == "t4"
        assert design("ex5c4", 50, 0).null_family == "linear+sinw"


class TestGenerate:
    def test_null_model_without_noise_is_exact(self):
        dsg = design("ex1", 50, 0.0)
        ds = generate(dsg, _ErrorFreeRng(0))
        np.testing.assert_array_equal(ds.y, ds.x @ dsg.beta0)

    def test_case1_mean_structure_without_noise(self):
        dsg = design("ex5c1", 50, 1.0)
        ds = generate(dsg, _ErrorFreeRng(1))
        u0 = ds.x @ dsg.beta0
        want = u0 + ds.w[:, 0] + np.cos(0.6 * np.pi * u0)
        np.testing.assert_allclose(ds.y, want, atol=1e-14)

    def test_correlated_design_covariance(self):
        dsg = design("ex4", 5000, 0.0)
        ds = generate(dsg, np.random.default_rng(2))
        idx = np.arange(4)
        sigma = np.where(idx[:, None] == idx[None, :], 1.0, 0.5 ** np.abs(idx[:, None] - idx[None, :]))
        np.testing.assert_allclose(np.cov(ds.x, rowvar=False), sigma, atol=0.05)

    def test_exponential_departure_mean(self):
        # E[Y - beta0'X] = 0.125 * E[exp(0.3 V)] = 0.125 * exp(0.045)
        dsg = design("ex2", 20000, 1.0)
        ds = generate(dsg, np.random.default_rng(3))
        want = 0.125 * math.exp(0.045)  # 0.13075...
        assert abs(np.mean(ds.y - ds.x @ dsg.beta0) - want) <= 0.01

    def test_t4_errors_are_heavier(self):
        dsg = design("ex4", 20000, 0.0)
        ds = generate(dsg, np.random.default_rng(4))
        resid = ds.y - ds.x @ dsg.beta0
        # Var(0.5 * t4) = 0.25 * 2 = 0.5
        assert abs(np.var(resid) - 0.5) <= 0.05

    def test_w_present_only_for_partial_cases(self):
        assert generate(design("ex3", 30, 0.0), np.random.default_rng(5)).p2 == 0
        assert generate(design("ex5c2", 30, 0.0), np.random.default_rng(6)).p2 == 1


class TestPowerExperiment:
    def test_single_replicate_rate_is_binary(self):
        table = power_experiment([design("ex1", 50, 0.0)], reps=1, mc_reps=20, alpha=0.05, seed=9)
        assert table.rows[0].rejection_rate in (0.0, 1.0)

    def test_same_seed_reproduces_table(self):
        designs = [design("ex1", 50, 0.0), design("ex1", 50, 0.8)]
        t1 = power_experiment(designs, reps=6, mc_reps=30, alpha=0.05, seed=10)
        t2 = power_experiment(designs, reps=6, mc_reps=30, alpha=0.05, seed=10)
        assert t1.rows == t2.rows

    def test_worker_count_does_not_change_rows(self):
        designs = [design("ex5c1", 50, 0.0)]
        serial = power_experiment(designs, reps=6, mc_reps=25, alpha=0.05, seed=11, workers=1)
        parallel = power_experiment(designs, reps=6, mc_reps=25, alpha=0.05, seed=11, workers=2)
        assert serial.rows == parallel.rows

    def test_one_pool_per_call(self, monkeypatch):
        made = []

        class Counted(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", Counted)
        monkeypatch.setattr(simulate, "cores", lambda: 2)  # the pool is bounded by the cores
        designs = [design("ex1", 40, 0.0), design("ex1", 40, 0.8), design("ex3", 40, 0.0)]
        pooled = power_experiment(designs, reps=3, mc_reps=20, alpha=0.05, seed=12, workers=2)
        assert made == [(2,)]
        serial = power_experiment(designs, reps=3, mc_reps=20, alpha=0.05, seed=12, workers=1)
        assert pooled.rows == serial.rows and len(made) == 1

    def test_pool_bounded_by_reps_and_cores(self, monkeypatch):
        made = []

        class Recorded:
            """Runs the tasks in this process and starts none."""

            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", Recorded)
        monkeypatch.setattr(simulate, "cores", lambda: 4)
        designs = [design("ex3", 40, 0.0)]
        serial = power_experiment(designs, reps=3, mc_reps=20, alpha=0.05, seed=12, workers=1)
        assert made == []
        for workers, reps, procs in [(100_000, 3, 3), (100_000, 8, 4), (2, 8, 2), (3, 1, 1)]:
            made.clear()
            table = power_experiment(designs, reps=reps, mc_reps=20, alpha=0.05, seed=12,
                                     workers=workers)
            assert made == ([procs] if procs > 1 else [])
            assert table.rows[0].reps == reps
        assert power_experiment(designs, reps=3, mc_reps=20, alpha=0.05, seed=12,
                                workers=100_000).rows == serial.rows
        # memory is charged for the processes pooled, not the workers asked for
        per_replicate = 8 * (4 * 40 * 10 + 20)
        monkeypatch.setattr(lackfit, "_memory_bytes", lambda: 3 * per_replicate)
        assert simulate._check_experiment(designs, 3, 20, 0.05, 12, 100_000) == 3
        with pytest.raises(DataError, match=r"^replicates of ex3 at n=40 on 4 worker\(s\)"):
            simulate._check_experiment(designs, 8, 20, 0.05, 12, 100_000)

    def test_settings_checked_once_per_call(self, monkeypatch):
        calls = []

        def counted(check):
            def recorded(*args):
                calls.append(args)
                return check(*args)
            return recorded

        monkeypatch.setattr(simulate, "check_settings", counted(simulate.check_settings))
        monkeypatch.setattr(lackfit, "check_settings", counted(lackfit.check_settings))
        designs = [design("ex1", 40, 0.0), design("ex3", 40, 0.5)]
        power_experiment(designs, reps=3, mc_reps=20, alpha=0.05, seed=12, workers=1)
        assert calls == [(20, 0.05, 12)]

    def test_failing_design_named_in_log(self, caplog, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers see the patched test only when forked")
        pipeline = simulate._pipeline

        def failing(ds, *args, **kwargs):
            if ds.n == 41:
                raise RuntimeError("replicate broke")
            return pipeline(ds, *args, **kwargs)

        monkeypatch.setattr(simulate, "_pipeline", failing)
        designs = [design("ex1", 40, 0.0), design("ex1", 41, 0.5)]
        with caplog.at_level(logging.ERROR, logger=simulate.logger.name):
            with pytest.raises(RuntimeError, match="^replicate broke$"):
                power_experiment(designs, 2, 20, 0.05, 1, workers=2)
        assert [r.getMessage() for r in caplog.records] == ["replicate failed in case=ex1 n=41 a=0.5"]

    def test_threaded_pass_does_not_change_rows(self, monkeypatch):
        # with workers=1 every multiplier pass runs here, on two threads (a
        # new helper each pass); pool workers run theirs on one, whatever
        # the start method
        idents = force_threads(monkeypatch)
        designs = [design("ex1", 50, 0.3), design("ex3", 50, 0.3)]
        threaded = power_experiment(designs, reps=8, mc_reps=25, alpha=0.2, seed=13, workers=1)
        assert threading.get_ident() in idents and len(idents) > 1
        pooled = power_experiment(designs, reps=8, mc_reps=25, alpha=0.2, seed=13, workers=2)
        assert threaded.rows == pooled.rows

    def test_pool_worker_pass_stays_on_one_thread(self, monkeypatch):
        ds = generate(design("ex1", 50, 0.3), np.random.default_rng(14))
        idents = force_threads(monkeypatch)
        here = run_test(ds, "linear", m=25, seed=15).replicates
        assert len(idents) == 2
        with ProcessPoolExecutor(max_workers=2) as pool:
            outcomes = list(pool.map(_worker_pass, [ds, ds]))
        for replicates, threads in outcomes:
            np.testing.assert_array_equal(replicates, here)
            assert threads == 1

    def test_negative_seed_named_before_any_replicate(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("data generated before the seed was checked")

        monkeypatch.setattr(simulate, "generate", fail)
        with pytest.raises(DataError, match="^seed must be a non-negative integer, got -2$"):
            power_experiment([design("ex1", 40, 0.0)], 1, 10, 0.05, -2, workers=1)

    @pytest.mark.parametrize("alpha, mc_reps, message", [
        (1.5, 10, r"^alpha must be in \(0, 1\), got 1.5$"),
        (0.05, 0, r"^need at least one replicate, got 0$"),
        ("0.05", 10, r"^alpha must be a real number, got '0.05'$"),
        (None, 10, r"^alpha must be a real number, got None$"),
    ])
    def test_bad_level_or_mc_size_named_before_any_replicate(self, alpha, mc_reps, message,
                                                               caplog, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("data generated before the settings were checked")

        monkeypatch.setattr(simulate, "generate", fail)
        with caplog.at_level(logging.ERROR, logger=simulate.logger.name):
            with pytest.raises(DataError, match=message):
                power_experiment([design("ex1", 40, 0.0)], 2, mc_reps, alpha, 1, workers=1)
        assert not [r for r in caplog.records if "replicate failed" in r.getMessage()]

    def test_replicates_past_memory_named_before_any_replicate(self, caplog, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("data generated before the Monte Carlo size was checked")

        monkeypatch.setattr(simulate, "generate", fail)
        monkeypatch.setattr(lackfit, "_memory_bytes", lambda: 8007)
        with caplog.at_level(logging.ERROR, logger=simulate.logger.name):
            with pytest.raises(DataError, match="^1001 replicates need 8,008 bytes"):
                power_experiment([design("ex1", 40, 0.0)], 2, 1001, 0.05, 1, workers=2)
        assert not [r for r in caplog.records if "replicate failed" in r.getMessage()]

    @pytest.mark.parametrize("mc_reps, seed, message", [
        (10, 1.5, r"^seed must be a non-negative integer, got 1.5$"),
        (10, 2.0, r"^seed must be a non-negative integer, got 2.0$"),
        (10, True, r"^seed must be a non-negative integer, got True$"),
        (2.5, 1, r"^the number of replicates must be an integer, got 2.5$"),
        (10.0, 1, r"^the number of replicates must be an integer, got 10.0$"),
    ])
    def test_non_integer_seed_or_mc_size_named_before_any_replicate(
            self, mc_reps, seed, message, caplog, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("data generated before the settings were checked")

        monkeypatch.setattr(simulate, "generate", fail)
        with caplog.at_level(logging.ERROR, logger=simulate.logger.name):
            with pytest.raises(DataError, match=message):
                power_experiment([design("ex1", 40, 0.0)], 2, mc_reps, 0.05, seed, workers=1)
        assert not [r for r in caplog.records if "replicate failed" in r.getMessage()]

    @pytest.mark.parametrize("reps, workers, message", [
        (2.5, 1, r"^reps must be an integer, got 2.5$"),
        (2.0, 1, r"^reps must be an integer, got 2.0$"),
        (True, 1, r"^reps must be an integer, got True$"),
        (0, 1, r"^reps must be at least 1, got 0$"),
        (2, 2.5, r"^workers must be an integer, got 2.5$"),
        (2, True, r"^workers must be an integer, got True$"),
        (2, None, r"^workers must be an integer, got None$"),
    ])
    def test_non_integer_reps_or_workers_named_before_any_replicate(
            self, reps, workers, message, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("data generated before the counts were checked")

        monkeypatch.setattr(simulate, "generate", fail)
        with pytest.raises(DataError, match=message):
            power_experiment([design("ex1", 40, 0.0)], reps, 10, 0.05, 1, workers=workers)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("data generated before the worker count was checked")

        monkeypatch.setattr(simulate, "generate", fail)
        with pytest.raises(DataError, match=f"^workers must be at least 1, got {workers}$"):
            power_experiment([design("ex1", 40, 0.0)], 1, 10, 0.05, 1, workers=workers)

    def test_grid_past_memory_named_before_any_replicate(self, caplog, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("data generated before the grid's memory was checked")

        monkeypatch.setattr(simulate, "generate", fail)
        monkeypatch.setattr(lackfit, "_memory_bytes", lambda: 16_000_000_000)
        monkeypatch.setattr(simulate, "cores", lambda: 2)  # the pool is bounded by the cores
        designs = [design("ex3", 100, 0.0), design("ex3", 10**11, 0.0)]
        need = 2 * 8 * (4 * 10**11 * 10 + 10)
        with caplog.at_level(logging.ERROR, logger=simulate.logger.name):
            with pytest.raises(DataError, match=(
                    rf"^replicates of ex3 at n=100000000000 on 2 worker\(s\) need at least "
                    rf"{need:,} bytes, more than the 16,000,000,000 bytes of memory")):
                power_experiment(designs, 2, 10, 0.05, 1, workers=2)
        assert not [r for r in caplog.records if "replicate failed" in r.getMessage()]

    # one replicate: 4 times the data's n (p1 + p2 + 2) float64, half a dense
    # indicator block of min(n^2, BLOCK_ELEMENTS) with W, and m replicates
    @pytest.mark.parametrize("case, n, workers, need", [
        ("ex3", 1000, 1, 8 * (4 * 1000 * 10 + 10)),
        ("ex3", 1000, 2, 2 * 8 * (4 * 1000 * 10 + 10)),
        ("ex5c3", 1000, 1, 8 * (4 * 1000 * 11 + 1000**2 // 2 + 10)),
        ("ex5c3", 2000, 1, 8 * (4 * 2000 * 11 + lackfit.BLOCK_ELEMENTS // 2 + 10)),
    ])
    def test_memory_bound_at_its_boundary(self, case, n, workers, need, monkeypatch):
        reads = []

        def memory():
            reads.append(1)
            return limit

        monkeypatch.setattr(lackfit, "_memory_bytes", memory)
        monkeypatch.setattr(simulate, "cores", lambda: 2)  # the pool is bounded by the cores
        designs = [design(case, 50, 0.0), design(case, n, 0.6)]
        limit = need
        simulate._check_experiment(designs, 2, 10, 0.05, 1, workers)
        assert len(reads) == 1
        limit = need - 1
        with pytest.raises(DataError, match=f"^replicates of {case} at n={n} on {workers} "
                                            rf"worker\(s\) need at least {need:,} bytes, "
                                            f"more than the {need - 1:,} bytes"):
            simulate._check_experiment(designs, 2, 10, 0.05, 1, workers)
        assert len(reads) == 2

    def test_rate_is_exact_fraction(self):
        table = power_experiment([design("ex1", 60, 0.6)], reps=7, mc_reps=40, alpha=0.05, seed=12)
        r = table.rows[0]
        assert r.rejection_rate * r.reps == pytest.approx(round(r.rejection_rate * r.reps), abs=1e-12)

    def test_quadratic_departure_with_plain_covariate_detected(self):
        # the squared-index bend of case 2 is caught essentially always
        table = power_experiment([design("ex5c2", 200, 1.0)], reps=100, mc_reps=300,
                                 alpha=0.05, seed=77)
        assert table.rows[0].rejection_rate >= 0.95

    def test_orthogonal_direction_departure_detected(self):
        # the departure lives in a direction orthogonal to the fitted index,
        # where a fixed-direction residual test would be blind
        table = power_experiment([design("ex2", 200, 1.0)], reps=100, mc_reps=300,
                                 alpha=0.05, seed=77)
        assert table.rows[0].rejection_rate >= 0.80

    def test_size_sanity_remaining_null_cases(self):
        # a=0 cells of the generating processes not exercised by the
        # acceptance criteria keep the level too
        for case in ("ex2", "ex5c2", "ex5c3", "ex5c4"):
            table = power_experiment([design(case, 100, 0.0)], reps=300, mc_reps=300,
                                     alpha=0.05, seed=14)
            rate = table.rows[0].rejection_rate
            assert 0.02 <= rate <= 0.09, (case, rate)

    def test_rejection_monotone_in_departure(self):
        # desk-scale check: rates may wobble by Monte Carlo noise but
        # should never drop by more than 0.05 as the departure grows
        for case in ("ex1", "ex3"):
            rates = []
            for a in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
                table = power_experiment([design(case, 200, a)], reps=100, mc_reps=200,
                                         alpha=0.05, seed=13)
                rates.append(table.rows[0].rejection_rate)
            for lo, hi in zip(rates, rates[1:]):
                assert hi >= lo - 0.05, f"{case}: {rates}"


class TestTables:
    def _table(self, n_rows=1):
        rows = [
            PowerRow(case="ex1", n=50 + 10 * i, a=0.1 * i, reps=100, mc_reps=200,
                     alpha=0.05, rejection_rate=i / 10, seed=7)
            for i in range(n_rows)
        ]
        return PowerTable(rows=rows)

    def test_csv_header_is_power_row_fields(self):
        header = render_csv(self._table(1)).splitlines()[0]
        assert header.split(",") == [f.name for f in dataclasses.fields(PowerRow)]

    def test_single_row_csv_has_two_lines(self):
        text = render_csv(self._table(1))
        assert len(text.strip().splitlines()) == 2

    def test_full_grid_csv_has_header_plus_grid_rows(self):
        # a 6-departure x 3-size grid renders as 18 data rows
        text = render_csv(self._table(18))
        assert len(text.strip().splitlines()) == 19

    def test_round_trip(self):
        table = self._table(5)
        assert parse_table(render_csv(table)).rows == table.rows

    def test_text_header_is_power_row_fields(self):
        lines = render_text(self._table(2)).splitlines()
        assert lines[0].split() == [f.name for f in dataclasses.fields(PowerRow)]
        assert lines[2].split() == ["ex1", "60", "0.1", "100", "200", "0.05", "0.1000", "7"]

    def test_text_rendering_aligned(self):
        text = render_text(self._table(3))
        lines = text.splitlines()
        assert len(lines) == 4
        assert len({len(ln) for ln in lines}) == 1  # fixed width

    def test_curves_rendering(self):
        rows = [
            PowerRow(case="ex1", n=n, a=a, reps=10, mc_reps=10, alpha=0.05,
                     rejection_rate=a, seed=1)
            for a in (0.0, 0.5) for n in (50, 100)
        ]
        text = render_curves(PowerTable(rows=rows))
        lines = text.strip().splitlines()
        assert lines[0] == "case,a,rate_n50,rate_n100"
        assert len(lines) == 3


class TestExperimentSpec:
    def _write(self, tmp_path, text):
        path = tmp_path / "exp.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_parse_and_grid(self, tmp_path):
        path = self._write(
            tmp_path,
            """
            # Table-1-shaped grid
            case = ex3
            n = 50, 100, 200
            a = 0, 0.2, 0.4, 0.6, 0.8, 1.0
            reps = 500
            mc_reps = 300
            alpha = 0.05
            seed = 20260810
            out = table1.csv
            """,
        )
        spec = read_experiment_spec(path)
        assert spec.case == "ex3"
        assert len(spec.designs()) == 18
        assert spec.out == "table1.csv"

    def test_missing_key(self, tmp_path):
        path = self._write(tmp_path, "case = ex1\nn = 50\na = 0\nreps = 5\nmc_reps = 5\nalpha = 0.05\n")
        with pytest.raises(DataError, match="seed"):
            read_experiment_spec(path)

    def test_unknown_case(self, tmp_path):
        path = self._write(
            tmp_path,
            "case = nope\nn = 50\na = 0\nreps = 5\nmc_reps = 5\nalpha = 0.05\nseed = 1\n",
        )
        with pytest.raises(DataError, match="unknown case"):
            read_experiment_spec(path)

    def test_duplicate_key(self, tmp_path):
        path = self._write(tmp_path, "case = ex1\ncase = ex2\n")
        with pytest.raises(DataError, match="duplicate"):
            read_experiment_spec(path)

    def test_unknown_key(self, tmp_path):
        path = self._write(
            tmp_path,
            "case = ex1\nn = 50\na = 0\nreps = 5\nmc_reps = 5\nalpha = 0.05\nseed = 1\nbogus = 3\n",
        )
        with pytest.raises(DataError, match="bogus"):
            read_experiment_spec(path)

    def test_negative_seed_names_file_and_value(self, tmp_path):
        path = self._write(
            tmp_path,
            "case = ex1\nn = 50\na = 0\nreps = 5\nmc_reps = 5\nalpha = 0.05\nseed = -3\n",
        )
        with pytest.raises(DataError, match="exp.txt: seed must be a non-negative integer, got -3"):
            read_experiment_spec(path)

    def test_replicates_past_memory_name_file_and_sizes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lackfit, "_memory_bytes", lambda: 16_000_000_000)
        path = self._write(
            tmp_path,
            "case = ex1\nn = 50\na = 0\nreps = 5\nmc_reps = 100000000000\nalpha = 0.05\nseed = 1\n",
        )
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: 100000000000 replicates need "
                                            "800,000,000,000 bytes .* than the 16,000,000,000 bytes"):
            read_experiment_spec(path)

    def test_grid_past_memory_names_file_and_sizes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lackfit, "_memory_bytes", lambda: 16_000_000_000)
        path = self._write(
            tmp_path,
            "case = ex3\nn = 100000000000\na = 0\nreps = 5\nmc_reps = 5\nalpha = 0.05\nseed = 1\n",
        )
        need = 8 * (4 * 10**11 * 10 + 5)
        with pytest.raises(DataError, match=(
                f"^{re.escape(str(path))}: replicates of ex3 at n=100000000000 on 1 "
                rf"worker\(s\) need at least {need:,} bytes, more than the 16,000,000,000 bytes")):
            read_experiment_spec(path)

    @pytest.mark.parametrize("key, value, message", [
        ("mc_reps", "0", "exp.txt: need at least one replicate, got 0"),
        ("alpha", "1.5", r"exp.txt: alpha must be in \(0, 1\), got 1.5"),
        ("reps", "0", "exp.txt: reps must be at least 1, got 0"),
        ("a", "0, nan", "exp.txt: departure a must be finite, got nan"),
        ("a", "inf", "exp.txt: departure a must be finite, got inf"),
    ])
    def test_bad_setting_names_file_and_value(self, tmp_path, key, value, message):
        entries = {"case": "ex1", "n": "50", "a": "0", "reps": "5", "mc_reps": "5",
                   "alpha": "0.05", "seed": "1", key: value}
        path = self._write(tmp_path, "".join(f"{k} = {v}\n" for k, v in entries.items()))
        with pytest.raises(DataError, match=message):
            read_experiment_spec(path)
