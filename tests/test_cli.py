"""Command-line behavior: outputs, determinism, exit codes."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdrtest
from pdrtest import design, generate, lackfit
from pdrtest.cli import EXIT_DATA, EXIT_IO, EXIT_OK, main


def write_dataset_csv(path, ds):
    header = [ds.column_names.y, *ds.column_names.x, *ds.column_names.w]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n):
            cells = [ds.y[i], *ds.x[i], *ds.w[i]]
            writer.writerow([repr(float(v)) for v in cells])
    return str(path)


def assert_text_is_json_record(args, capsys):
    """The text report is one aligned ``key = <JSON value>`` line per key of
    the JSON report, in sorted order."""
    assert main([*args, "--format", "json"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert main([*args, "--format", "text"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(record)
    keys = []
    for line in lines:
        key, value = line.split(" = ", 1)
        keys.append(key.rstrip())
        assert json.loads(value) == record[keys[-1]], keys[-1]
    assert keys == sorted(record)
    assert len({line.index(" = ") for line in lines}) == 1


@pytest.fixture
def ex1_file(tmp_path):
    ds = generate(design("ex1", 400, 0.0), np.random.default_rng(31))
    return write_dataset_csv(tmp_path / "ex1.csv", ds)


class TestCmdTest:
    def test_boston_preset_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "test", "--preset", "boston", "--family", "linear+w",
            "--mc-reps", "200", "--seed", "3", "--format", "json", "--out", str(out),
        ])
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert record["q_hat"] == 2
        assert record["p_hat"] <= 0.01
        assert record["m"] == record["mc"]["count"] == 200
        assert record["seed"] == 3
        assert record["family"] == "linear+w"
        assert len(record["b_columns"]) == 2
        assert len(record["ridge_ratios"]) == 10
        assert sorted(record["config"]) == sorted(
            ["command", "data", "preset", "y", "x", "w", "n", "dropped_rows"])
        assert record["config"]["command"] == "test"

    @pytest.mark.parametrize("source", ["boston", "csv"])
    def test_dim_record_is_part_of_test_record(self, source, ex1_file, capsys):
        if source == "boston":
            data, family = ["--preset", "boston"], "linear+w"
        else:
            data, family = ["--data", ex1_file, "--y", "y", "--x", "x1,x2,x3,x4"], "linear"
        common = [*data, "--cn", "0.02", "--format", "json"]
        assert main(["dim", *common]) == EXIT_OK
        dim = json.loads(capsys.readouterr().out)
        assert main(["test", *common, "--family", family,
                     "--mc-reps", "50", "--seed", "2"]) == EXIT_OK
        test = json.loads(capsys.readouterr().out)
        dim_config, test_config = dim.pop("config"), test.pop("config")
        assert test.items() >= dim.items()
        assert set(test) - set(dim) == {
            "t_n", "p_hat", "mc_se", "reject", "m", "seed", "alpha", "family", "converged", "mc"}
        assert dim_config == {**test_config, "command": "dim"}
        for record, config in ((dim, dim_config), (test, test_config)):
            assert not set(config) & set(record)

    def test_same_seed_byte_identical_reports(self, tmp_path):
        args = [
            "test", "--preset", "boston", "--family", "linear+w",
            "--mc-reps", "100", "--seed", "11", "--format", "json",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*args, "--out", str(out1)]) == EXIT_OK
        assert main([*args, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_text_and_json_share_values(self, capsys):
        assert_text_is_json_record([
            "test", "--preset", "boston", "--family", "linear+w",
            "--mc-reps", "100", "--seed", "11",
        ], capsys)

    def test_generated_seed_is_printed(self, ex1_file, capsys):
        code = main(["test", "--data", ex1_file, "--y", "y",
                     "--x", "x1,x2,x3,x4", "--mc-reps", "50"])
        assert code == EXIT_OK
        assert "seed" in capsys.readouterr().out

    def test_missing_column_names_it(self, ex1_file, capsys):
        code = main(["test", "--data", ex1_file, "--y", "price",
                     "--x", "x1,x2,x3,x4", "--mc-reps", "20", "--seed", "1"])
        assert code == EXIT_DATA
        assert "price" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = main(["test", "--data", "/nonexistent/data.csv", "--y", "y",
                     "--x", "x1", "--mc-reps", "20", "--seed", "1"])
        assert code == EXIT_IO

    def test_bad_alpha_is_config_error(self, ex1_file, capsys):
        code = main(["test", "--data", ex1_file, "--y", "y", "--x", "x1,x2,x3,x4",
                     "--alpha", "1.5", "--mc-reps", "20", "--seed", "1"])
        assert code == EXIT_DATA
        assert "alpha" in capsys.readouterr().err

    def test_zero_replicates_is_config_error(self, ex1_file, capsys):
        code = main(["test", "--data", ex1_file, "--y", "y", "--x", "x1,x2,x3,x4",
                     "--mc-reps", "0", "--seed", "1"])
        assert code == EXIT_DATA

    def test_negative_seed_named_before_fitting(self, ex1_file, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("basis estimated before the seed was checked")

        monkeypatch.setattr(lackfit, "estimate_basis", fail)
        code = main(["test", "--data", ex1_file, "--y", "y", "--x", "x1,x2,x3,x4",
                     "--mc-reps", "20", "--seed", "-1"])
        assert code == EXIT_DATA
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_unknown_family(self, ex1_file, capsys):
        code = main(["test", "--data", ex1_file, "--y", "y",
                     "--x", "x1,x2,x3,x4", "--family", "quadratic",
                     "--mc-reps", "20", "--seed", "1"])
        assert code == EXIT_DATA
        assert "quadratic" in capsys.readouterr().err


class TestCmdDim:
    def test_text_and_json_share_values(self, capsys):
        assert_text_is_json_record(["dim", "--preset", "boston"], capsys)

    def test_boston_dimension(self, capsys):
        assert main(["dim", "--preset", "boston", "--format", "json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["q_hat"] == 2
        assert len(record["eigenvalues"]) == 11
        assert len(record["ridge_ratios"]) == 10

    def test_null_simulated_file_gives_one(self, ex1_file, capsys):
        assert main(["dim", "--data", ex1_file, "--y", "y", "--x", "x1,x2,x3,x4",
                     "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["q_hat"] == 1

    def test_ridge_override_flows_through(self, capsys):
        # a heavy ridge flattens the ratios, pushing the decision to 1
        assert main(["dim", "--preset", "boston", "--cn", "0.5",
                     "--format", "json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["c_n"] == 0.5
        assert record["q_hat"] == 1

    def test_non_finite_ridge_is_data_error(self, capsys):
        for value in ("nan", "inf"):
            assert main(["dim", "--preset", "boston", "--cn", value,
                         "--format", "json"]) == EXIT_DATA
            assert f"got {value}" in capsys.readouterr().err

    def test_single_column_always_one(self, tmp_path, capsys):
        rng = np.random.default_rng(32)
        path = tmp_path / "one.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "x1"])
            for _ in range(50):
                x = float(rng.standard_normal())
                writer.writerow([repr(float(np.sin(3 * x)) + 0.1 * float(rng.standard_normal())), repr(x)])
        assert main(["dim", "--data", str(path), "--y", "y", "--x", "x1",
                     "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["q_hat"] == 1

    def test_two_w_columns(self, tmp_path, capsys):
        rng = np.random.default_rng(33)
        x, w = rng.standard_normal((120, 3)), rng.standard_normal((120, 2))
        y = x[:, 0] + w[:, 0] * w[:, 1] + 0.3 * rng.standard_normal(120)
        path = tmp_path / "two_w.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "x1", "x2", "x3", "w1", "w2"])
            for row in np.column_stack([y, x, w]):
                writer.writerow([repr(float(v)) for v in row])
        columns = ["--data", str(path), "--y", "y", "--x", "x1,x2,x3", "--w", "w1,w2"]
        assert main(["dim", *columns, "--format", "json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        record.pop("config")
        schema = pdrtest.Schema(y="y", x=("x1", "x2", "x3"), w=("w1", "w2"))
        assert record == pdrtest.estimate_basis(pdrtest.load_csv(path, schema)).to_record()
        assert main(["test", *columns, "--family", "linear+w",
                     "--mc-reps", "20", "--seed", "1"]) == EXIT_DATA
        assert "family 'linear+w' needs exactly one W column, got 2" in capsys.readouterr().err


class TestCmdSimulate:
    def _spec(self, tmp_path, **overrides):
        entries = {
            "case": "ex1", "n": "40", "a": "0, 0.8", "reps": "4",
            "mc_reps": "25", "alpha": "0.05", "seed": "5",
        }
        entries.update(overrides)
        path = tmp_path / "exp.txt"
        path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        return str(path)

    def test_writes_csv(self, tmp_path, capsys):
        spec = self._spec(tmp_path)
        out = tmp_path / "rates.csv"
        assert main(["simulate", "--spec", spec, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "case,n,a,reps,mc_reps,alpha,rejection_rate,seed"
        assert len(lines) == 3

    def test_stdout_text_format(self, tmp_path, capsys):
        spec = self._spec(tmp_path)
        assert main(["simulate", "--spec", spec, "--format", "text"]) == EXIT_OK
        assert "rate" in capsys.readouterr().out

    def test_unknown_case_exits_nonzero(self, tmp_path, capsys):
        spec = self._spec(tmp_path, case="exo")
        assert main(["simulate", "--spec", spec]) == EXIT_DATA

    @pytest.mark.parametrize("overrides, message", [
        ({"n": "40, 2"}, "n must be at least 3, got 2"),
        ({"n": "40, 60, 40"}, "repeated n value(s): 40"),
        ({"a": "0, 0.8, 0.80"}, "repeated a value(s): 0.8"),
        ({"a": "0, nan"}, "departure a must be finite, got nan"),
    ])
    def test_bad_grid_is_data_error_naming_spec(self, overrides, message, tmp_path, capsys):
        spec = self._spec(tmp_path, **overrides)
        assert main(["simulate", "--spec", spec]) == EXIT_DATA
        assert f"{spec}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_config_error(self, workers, tmp_path, capsys):
        spec = self._spec(tmp_path)
        assert main(["simulate", "--spec", spec, "--workers", workers]) == EXIT_DATA
        assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err

    def test_missing_spec_file(self, capsys):
        assert main(["simulate", "--spec", "/nonexistent/exp.txt"]) == EXIT_IO


@pytest.mark.parametrize("command", ["test", "dim"])
@pytest.mark.parametrize("flags", [["--y", "NOX", "--x", "RM"], ["--w", "CRIM"]])
def test_preset_rejects_column_flags(command, flags, capsys):
    # the preset fixes its columns; --data alone may point it at another copy
    assert main([command, "--preset", "boston", *flags, "--format", "json"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags[::2]), err


def test_star_import_names_exist():
    namespace = {}
    exec("from pdrtest import *", namespace)
    assert set(pdrtest.__all__) <= set(namespace)


def test_module_entry_point_runs():
    # the child imports the pdrtest this process imported, installed or not
    src = str(Path(pdrtest.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pdrtest.cli", "--help"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
