"""Generating processes, experiments, table round trips, spec files."""

from __future__ import annotations

import dataclasses
import logging
import math
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from pdrtest import DataError, design, generate, lackfit, power_experiment, run_test, simulate
from pdrtest.simulate import (
    PowerRow,
    PowerTable,
    emit_table,
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

    @pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
    def test_non_finite_departure_rejected(self, a):
        with pytest.raises(ValueError, match=f"departure a must be finite, got {a}"):
            design("ex1", 100, a)

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
    ])
    def test_bad_level_or_mc_size_named_before_any_replicate(self, alpha, mc_reps, message,
                                                               caplog, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("data generated before the settings were checked")

        monkeypatch.setattr(simulate, "generate", fail)
        with caplog.at_level(logging.ERROR, logger=simulate.logger.name):
            with pytest.raises(ValueError, match=message):
                power_experiment([design("ex1", 40, 0.0)], 2, mc_reps, alpha, 1, workers=1)
        assert not [r for r in caplog.records if "replicate failed" in r.getMessage()]

    @pytest.mark.parametrize("mc_reps, seed, error, message", [
        (10, 1.5, DataError, r"^seed must be a non-negative integer, got 1.5$"),
        (10, 2.0, DataError, r"^seed must be a non-negative integer, got 2.0$"),
        (10, True, DataError, r"^seed must be a non-negative integer, got True$"),
        (2.5, 1, ValueError, r"^the number of replicates must be an integer, got 2.5$"),
        (10.0, 1, ValueError, r"^the number of replicates must be an integer, got 10.0$"),
    ])
    def test_non_integer_seed_or_mc_size_named_before_any_replicate(
            self, mc_reps, seed, error, message, caplog, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("data generated before the settings were checked")

        monkeypatch.setattr(simulate, "generate", fail)
        with caplog.at_level(logging.ERROR, logger=simulate.logger.name):
            with pytest.raises(error, match=message):
                power_experiment([design("ex1", 40, 0.0)], 2, mc_reps, 0.05, seed, workers=1)
        assert not [r for r in caplog.records if "replicate failed" in r.getMessage()]

    @pytest.mark.parametrize("reps, workers, error, message", [
        (2.5, 1, ValueError, r"^reps must be an integer, got 2.5$"),
        (2.0, 1, ValueError, r"^reps must be an integer, got 2.0$"),
        (True, 1, ValueError, r"^reps must be an integer, got True$"),
        (2, 2.5, DataError, r"^workers must be an integer, got 2.5$"),
        (2, True, DataError, r"^workers must be an integer, got True$"),
    ])
    def test_non_integer_reps_or_workers_named_before_any_replicate(
            self, reps, workers, error, message, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("data generated before the counts were checked")

        monkeypatch.setattr(simulate, "generate", fail)
        with pytest.raises(error, match=message):
            power_experiment([design("ex1", 40, 0.0)], reps, 10, 0.05, 1, workers=workers)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("data generated before the worker count was checked")

        monkeypatch.setattr(simulate, "generate", fail)
        with pytest.raises(DataError, match=f"^workers must be at least 1, got {workers}$"):
            power_experiment([design("ex1", 40, 0.0)], 1, 10, 0.05, 1, workers=workers)

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

    def test_round_trip(self, tmp_path):
        table = self._table(5)
        path = emit_table(table, tmp_path / "t.csv", format="csv")
        parsed = parse_table(path.read_text())
        assert parsed.rows == table.rows

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

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            emit_table(PowerTable(rows=[]), tmp_path / "t.csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_table(self._table(1), tmp_path / "t.csv", format="yaml")


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

    @pytest.mark.parametrize("key, value, message", [
        ("mc_reps", "0", "exp.txt: need at least one replicate, got 0"),
        ("alpha", "1.5", r"exp.txt: alpha must be in \(0, 1\), got 1.5"),
        ("reps", "0", "exp.txt: reps must be positive, got 0"),
        ("a", "0, nan", "exp.txt: departure a must be finite, got nan"),
        ("a", "inf", "exp.txt: departure a must be finite, got inf"),
    ])
    def test_bad_setting_names_file_and_value(self, tmp_path, key, value, message):
        entries = {"case": "ex1", "n": "50", "a": "0", "reps": "5", "mc_reps": "5",
                   "alpha": "0.05", "seed": "1", key: value}
        path = self._write(tmp_path, "".join(f"{k} = {v}\n" for k, v in entries.items()))
        with pytest.raises(DataError, match=message):
            read_experiment_spec(path)
