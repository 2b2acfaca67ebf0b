"""Command-line driver: exit codes, artifacts, reproducibility."""

import csv
import hashlib
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewdiff import experiments, paths
from skewdiff.analytics import stationary_min_samples
from skewdiff.cli import main
from skewdiff.errors import UnknownKind
from skewdiff.experiments import (
    EXPERIMENTS,
    default_config,
    emit_plot_data,
    normalize_config,
    output_file,
    run_experiment,
)


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


SMALL_CIR = {
    "experiment": "cir-baseline",
    "seed": 7,
    "n_paths": 6000,
    "grid": {"T": 1.0, "n_steps": 256},
}

SMALL_STATIONARY = {
    "experiment": "stationary-skew",
    "seed": 3,
    "grid": {"T": 200.0, "n_steps": 200 * 256},
}


class TestListExperiments:
    def test_prints_all_names(self):
        result = CliRunner().invoke(main, ["list-experiments"])
        assert result.exit_code == 0
        assert result.output.split() == EXPERIMENTS


class TestValidate:
    def test_valid_config(self, tmp_path):
        path = _write_config(tmp_path, SMALL_CIR)
        result = CliRunner().invoke(main, ["validate", "--config", path])
        assert result.exit_code == 0
        assert result.output.startswith("ok: cir-baseline")

    def test_schema_violation_exits_two(self, tmp_path):
        path = _write_config(tmp_path, {"experiment": "no-such", "seed": 0})
        result = CliRunner().invoke(main, ["validate", "--config", path])
        assert result.exit_code == 2

    def test_degenerate_skew_parameter_exits_two(self, tmp_path):
        cfg = dict(SMALL_CIR, params={"sigma": 2.0, "delta": 3.0, "b": 1.0,
                                      "p": 1.2})
        path = _write_config(tmp_path, cfg)
        result = CliRunner().invoke(main, ["validate", "--config", path])
        assert result.exit_code == 2
        assert "identically zero" in result.stderr

    def test_missing_file_exits_two(self, tmp_path):
        # a missing file, a directory and a file that is not UTF-8
        (tmp_path / "latin1.json").write_bytes(
            b'{"experiment": "cir-baseline", "seed": 0, "note": "\xe9"}')
        for name in ("nope.json", ".", "latin1.json"):
            path = str(tmp_path / name)
            for cmd in (["validate", "--config", path],
                        ["run", "--config", path, "--out",
                         str(tmp_path / "out")]):
                result = CliRunner().invoke(main, cmd)
                assert result.exit_code == 2, (name, cmd[0], result.output)
                assert isinstance(result.exception, SystemExit)
                assert "invalid" in result.stderr

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        result = CliRunner().invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2


class TestRun:
    def test_success_writes_report_and_status_lines(self, tmp_path):
        cfg_path = _write_config(tmp_path, SMALL_CIR)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--config", cfg_path, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "[PASS]" in result.output and "tolerance:" in result.output
        report = json.loads((out / "report.json").read_text())
        assert report["experiment"] == "cir-baseline"
        assert report["passed"] is True
        assert "mean_estimate" in report["metrics"]

    def test_unmet_criteria_exit_one(self, tmp_path):
        # coarse and fine grids are the same grid, so both runs draw the
        # same streams and the strict-decrease gate cannot pass
        cfg = {
            "experiment": "localtime-ratios",
            "seed": 1,
            "n_paths": 4,
            "grid": {"T": 0.5, "n_steps": 64},
            "options": {"coarse_n_steps": 64},
        }
        cfg_path = _write_config(tmp_path, cfg)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--config", cfg_path, "--out", str(out)])
        assert result.exit_code == 1
        assert "[FAIL]" in result.output
        assert (out / "report.json").exists()

    def test_invalid_config_exit_two(self, tmp_path):
        cfg_path = _write_config(tmp_path, {"experiment": "cir-baseline",
                                            "seed": -1})
        result = CliRunner().invoke(
            main, ["run", "--config", cfg_path, "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_runtime_failure_exit_three(self, tmp_path):
        # a start so far out that the chi-squared series oracle would need
        # more terms than its cap
        cfg = {
            "experiment": "besq-law",
            "seed": 0,
            "x0": 1e6,
            "n_paths": 200,
            "grid": {"T": 1.0, "n_steps": 16},
        }
        cfg_path = _write_config(tmp_path, cfg)
        result = CliRunner().invoke(
            main, ["run", "--config", cfg_path, "--out", str(tmp_path)])
        assert result.exit_code == 3
        assert "runtime failure" in result.stderr
        assert not (tmp_path / "report.json").exists()

    def test_oversized_batch_exits_three(self, tmp_path):
        # numpy refuses the 73 TiB terminal array (was a traceback and exit
        # 1); the address-space limit, far above what the imports reserve,
        # makes the refusal independent of the machine's overcommit policy
        import resource
        import skewdiff

        cfg = {"experiment": "cir-baseline", "seed": 11,
               "n_paths": 10_000_000_000_000}
        limit = 64 << 30
        env = {**os.environ, "PYTHONPATH": os.path.dirname(
            os.path.dirname(skewdiff.__file__))}
        done = subprocess.run(
            [sys.executable, "-m", "skewdiff.cli", "run", "--config",
             _write_config(tmp_path, cfg), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (limit, limit)))
        assert done.returncode == 3, done.stderr
        assert "runtime failure: out of memory" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "out" / "report.json").exists()

    def test_too_few_stationary_samples_exit_two(self, tmp_path):
        # the sample count follows from n_steps, burn_frac and thin, so the
        # config is refused before anything runs (was exit 3 at runtime)
        need = stationary_min_samples()
        n_steps = next(n for n in range(1, 10 ** 6)
                       if paths.long_run_sample_count(n, 0.1, 100) >= need)
        for n, code in ((n_steps - 1, 2), (n_steps, 0)):
            cfg = {"experiment": "stationary-skew", "seed": 0,
                   "grid": {"T": n / 256, "n_steps": n}}
            result = CliRunner().invoke(
                main, ["validate", "--config", _write_config(tmp_path, cfg)])
            assert result.exit_code == code, result.output
            assert ("grid/n_steps" in result.stderr) == (code == 2)
        cfg = {"experiment": "stationary-skew", "seed": 0,
               "grid": {"T": 100.0, "n_steps": 25600}}
        result = CliRunner().invoke(
            main, ["run", "--config", _write_config(tmp_path, cfg),
                   "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "grid/n_steps" in result.stderr
        assert "231 samples" in result.stderr
        assert not (tmp_path / "report.json").exists()

    def test_empty_jump_window_fails_its_criterion(self, tmp_path):
        # at c = 1e-6 no sample falls in [c - h, c): the ratio criterion
        # fails by name and the report stays finite (was exit 3)
        cfg = {"experiment": "stationary-skew", "seed": 3,
               "curve": {"kind": "constant", "level": 0.001},
               "grid": {"T": 500.0, "n_steps": 128000}}
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--config", _write_config(tmp_path, cfg),
                   "--out", str(out)])
        assert result.exit_code == 1, result.output
        with open(out / "report.json") as fh:
            report = json.load(fh, parse_constant=_reject_constant)
        assert "jump_ratio" not in report["metrics"]
        assert "target_jump_ratio" in report["metrics"]
        ratio = report["criteria"][1]
        assert not ratio["passed"]
        assert ratio["detail"].startswith(
            "no sample in the window [-0.499999, 1e-06)")

    def test_invariant_law_far_above_one_thousand(self, tmp_path):
        # mean level delta/b = 2,000: the top bin edges lie past 1,000,
        # where a bracketed root search stopped with a ValueError traceback
        cfg = {**SMALL_STATIONARY, "seed": 11, "params": {"b": 0.001}}
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--config", _write_config(tmp_path, cfg),
                   "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        with open(out / "report.json") as fh:
            report = json.load(fh, parse_constant=_reject_constant)
        gof, ratio = report["criteria"]
        assert gof["passed"]
        assert not ratio["passed"]
        assert ratio["detail"].startswith("no sample in the window [0.5, 1)")

    @pytest.mark.parametrize("options", [
        {"n_x": 100},
        {"x_max": 1.2},
        {"x_max": 1.2, "x0_list": [0.5]},   # barrier past 0.8 * x_max
        {"x0_list": [0.5, 9.0]},            # x0 beyond x_max
        {"n_x": 401.5},
        {"x0_list": []},
        {"n_t": 0},
        {"extra_tol": -0.1},
        {"nx": 401},
        # gate thresholds and the scheme are fixed, even at their old values
        {"extra_tol": 0.01},
        {"max_refine_factor": 0.35},
        {"mc_band_width": 0.0},
        # x0 that print alike would share a metric and a criterion name
        {"x0_list": [1.0, 1.0000001, 2.0]},
        {"x0_list": [0.5, 2.0, 0.5]},
    ])
    def test_bad_pde_options_exit_two(self, tmp_path, options):
        cfg = {"experiment": "pde-cross-check", "seed": 0, "n_paths": 100,
               "options": options}
        cfg_path = _write_config(tmp_path, cfg)
        result = CliRunner().invoke(
            main, ["run", "--config", cfg_path, "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "invalid config" in result.stderr
        assert not (tmp_path / "report.json").exists()

    def test_out_naming_a_file_exits_two_before_running(self, tmp_path,
                                                         monkeypatch):
        ran = []
        monkeypatch.setitem(
            experiments._RUNNERS, "cir-baseline",
            lambda cfg, model, threads: ran.append(1) or ({}, [], {}))
        cfg_path = _write_config(tmp_path, SMALL_CIR)
        out = tmp_path / "taken"
        out.write_text("")
        result = CliRunner().invoke(
            main, ["run", "--config", cfg_path, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "output directory" in result.stderr
        assert not ran

    def test_failed_write_exits_three(self, tmp_path, monkeypatch):
        # report.json is taken by a directory
        monkeypatch.setitem(
            experiments._RUNNERS, "cir-baseline",
            lambda cfg, model, threads: ({"x": {"value": 1.0}}, [], {}))
        cfg_path = _write_config(tmp_path, SMALL_CIR)
        (tmp_path / "out" / "report.json").mkdir(parents=True)
        result = CliRunner().invoke(
            main, ["run", "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "cannot write" in result.stderr

    @pytest.mark.parametrize("taken", ["localtime.csv", "report.json"])
    def test_failed_write_leaves_no_output(self, tmp_path, monkeypatch,
                                           taken):
        # a directory sits where one output file goes: the plot data is
        # written before report.json, and what was written is removed
        plot = {"localtime": (["t", "upper", "lower", "symmetric"],
                              [(0.0, 0.0, 0.0, 0.0), (1.0, 0.5, 0.5, 0.5)])}
        monkeypatch.setitem(
            experiments._RUNNERS, "cir-baseline",
            lambda cfg, model, threads: ({"x": {"value": 1.0}}, [], plot))
        cfg_path = _write_config(tmp_path, SMALL_CIR)
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        result = CliRunner().invoke(
            main, ["run", "--config", cfg_path, "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "cannot write" in result.stderr
        assert [p.name for p in out.iterdir()] == [taken]

    def test_output_file_removed_when_its_write_fails(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(OSError):
            with output_file(path) as fh:
                fh.write("{")
                raise OSError(28, "No space left on device")
        assert not path.exists()

    def test_seed_override(self, tmp_path):
        cfg_path = _write_config(tmp_path, SMALL_CIR)
        outs = {}
        for seed in (7, 8):
            out = tmp_path / f"seed{seed}"
            result = CliRunner().invoke(
                main, ["run", "--config", cfg_path, "--seed", str(seed),
                       "--out", str(out)])
            assert result.exit_code == 0
            outs[seed] = json.loads((out / "report.json").read_text())
        assert outs[7]["config"]["seed"] == 7
        assert outs[8]["config"]["seed"] == 8
        assert (outs[7]["metrics"]["mean_estimate"]["value"]
                != outs[8]["metrics"]["mean_estimate"]["value"])

    def test_plot_csv_written(self, tmp_path):
        cfg_path = _write_config(tmp_path, SMALL_STATIONARY)
        out = tmp_path / "out"
        CliRunner().invoke(main, ["run", "--config", cfg_path,
                                  "--out", str(out)])
        with open(out / "stationary-hist.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "empirical", "target"]
        assert len(rows) == 61
        float(rows[1][0])  # numeric payload


class TestValidateAgreesWithRun:
    @pytest.mark.parametrize("cfg", [
        {"experiment": "cir-baseline", "seed": 0, "curve": {"kind": "bogus"}},
        {"experiment": "cir-baseline", "seed": 0, "curve": {"levle": 3.0}},
        {"experiment": "cir-baseline", "seed": 0,
         "curve": {"kind": "linear", "level": 1.0}},
        {"experiment": "cir-baseline", "seed": 0,
         "curve": {"kind": "constant", "level": -1.0}},
        {"experiment": "cir-baseline", "seed": 0,
         "curve": {"csv": "no-such-file.csv"}},
        {"experiment": "pde-cross-check", "seed": 0,
         "options": {"x_max": 1.2, "x0_list": [0.5]}},
        {"experiment": "localtime-ratios", "seed": 0, "x0": -1},
        {"experiment": "stationary-skew", "seed": 0, "params": {"b": 0}},
        {"experiment": "dsr-demo", "seed": 0, "params": {"dsr_c": None}},
        {"experiment": "cir-baseline", "seed": 0, "options": {"atol": 0.1}},
        {"experiment": "dsr-demo", "seed": 0,
         "options": {"drift_mode": "magic"}},
        # the drift step is not an option, whatever the value
        {"experiment": "dsr-demo", "seed": 0,
         "options": {"drift_mode": "implicit_sqrt_term"}},
        # too few paths for a standard error (was exit 3) or a KS test
        {"experiment": "cir-baseline", "seed": 1, "n_paths": 1},
        {"experiment": "pde-cross-check", "seed": 0, "n_paths": 1},
        {"experiment": "besq-law", "seed": 0, "n_paths": 9},
        # a curve tabulated short of the grid's T = 0.01 (was exit 1)
        {"experiment": "skew-occupation", "seed": 0,
         "curve": {"kind": "constant", "level": 1.0, "T_max": 0.001}},
        # sampled data ending at t = 0.2 < T = 1 (was exit 0)
        {"experiment": "cir-baseline", "seed": 0,
         "curve": {"csv": "ends-at-0.2.csv"}},
        # a skew process against a classical oracle (was exit 1)
        {"experiment": "cir-baseline", "seed": 0, "params": {"p": 0.9},
         "curve": {"kind": "constant", "level": 1.0}},
        {"experiment": "besq-law", "seed": 0, "params": {"p": 0.9},
         "curve": {"kind": "constant", "level": 1.0}},
        {"experiment": "dsr-demo", "seed": 0, "params": {"p": 0.9},
         "curve": {"kind": "constant", "level": 1.0}},
        # a moving barrier against a constant-barrier oracle (was exit 0/1)
        {"experiment": "skew-occupation", "seed": 0,
         "curve": {"kind": "linear", "intercept": 1.0, "slope": 20.0}},
        {"experiment": "stationary-skew", "seed": 0,
         "curve": {"kind": "linear", "intercept": 1.0, "slope": 0.001}},
        {"experiment": "pde-cross-check", "seed": 0,
         "curve": {"kind": "linear", "intercept": 1.0, "slope": 0.8}},
        # a drift constant only dsr-demo simulates (was ok, then run at c = 0)
        {"experiment": "cir-baseline", "seed": 3, "n_paths": 4000,
         "grid": {"T": 1.0, "n_steps": 128}, "params": {"dsr_c": 1.0}},
        {"experiment": "girsanov-consistency", "seed": 0,
         "params": {"dsr_c": 1.0}},
        # fields the experiment never reads (was ok)
        {"experiment": "pde-cross-check", "seed": 0, "x0": 3.0},
        {"experiment": "stationary-skew", "seed": 0, "n_paths": 100_000},
        {"experiment": "regime-check", "seed": 0, "x0": 1.0},
        # gate thresholds and method constants are fixed in code, so their
        # old options are refused even at their old defaults
        {"experiment": "stationary-skew", "seed": 0,
         "options": {"level": 0.01}},
        {"experiment": "stationary-skew", "seed": 0,
         "options": {"ratio_rtol": 0.1}},
        {"experiment": "localtime-ratios", "seed": 0,
         "options": {"rtol": 0.1}},
        {"experiment": "relloc-identity", "seed": 0,
         "options": {"max_residual": 0.1}},
        {"experiment": "skew-occupation", "seed": 0,
         "options": {"atol": 0.02}},
        {"experiment": "dsr-demo", "seed": 0, "options": {"fd_h": 0.1}},
    ])
    def test_both_exit_two_without_traceback(self, tmp_path, monkeypatch,
                                             cfg):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ends-at-0.2.csv").write_text(
            "t,lambda\n0,1\n0.1,1\n0.2,1\n")
        path = _write_config(tmp_path, cfg)
        for cmd in (["validate", "--config", path],
                    ["run", "--config", path, "--out", str(tmp_path)]):
            result = CliRunner().invoke(main, cmd)
            assert result.exit_code == 2, (cmd[0], result.output)
            assert isinstance(result.exception, SystemExit)
            assert "invalid" in result.stderr
        assert not (tmp_path / "report.json").exists()

    def test_curve_of_another_kind_replaces_the_default(self):
        cfg = normalize_config({"experiment": "cir-baseline", "seed": 0,
                                "curve": {"kind": "linear", "slope": 0.5}})
        assert cfg["curve"] == {"kind": "linear", "slope": 0.5}
        cfg = normalize_config({"experiment": "cir-baseline", "seed": 0,
                                "curve": {"level": 0.5}})
        assert cfg["curve"] == {"kind": "constant", "level": 0.5}

    def test_non_finite_json_number_exits_two(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"experiment": "cir-baseline", "seed": 0, "x0": NaN}')
        result = CliRunner().invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)


class TestFiniteReports:
    def test_non_finite_metric_exits_three_without_report(self, tmp_path,
                                                          monkeypatch):
        # a runner whose metric comes out NaN (no valid config is known to
        # produce one)
        monkeypatch.setitem(
            experiments._RUNNERS, "cir-baseline",
            lambda cfg, model, threads: ({"x": {"value": math.nan}}, [], {}))
        cfg_path = _write_config(tmp_path, SMALL_CIR)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--config", cfg_path, "--out", str(out)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "non-finite" in result.stderr
        assert not (out / "report.json").exists()

    def test_non_finite_plot_value_exits_three_without_files(self, tmp_path,
                                                              monkeypatch):
        plot = {"localtime": (["t", "upper", "lower", "symmetric"],
                              [(0.0, 0.0, 0.0, 0.0), (1.0, math.nan, 0.0, 0.0)])}
        monkeypatch.setitem(
            experiments._RUNNERS, "cir-baseline",
            lambda cfg, model, threads: ({"x": {"value": 1.0}}, [], plot))
        cfg_path = _write_config(tmp_path, SMALL_CIR)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["run", "--config", cfg_path, "--out", str(out)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "non-finite" in result.stderr
        assert not out.exists() or not any(out.iterdir())


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_CONFIGS = st.fixed_dictionaries(
    {
        "experiment": st.sampled_from(EXPERIMENTS),
        "seed": st.integers(0, 1000),
        "grid": st.fixed_dictionaries({"T": _floats(0.05, 1.0),
                                       "n_steps": st.integers(1, 32)}),
    },
    optional={
        # absent, so stationary-skew and regime-check configs reach run
        "n_paths": st.integers(1, 30),
        "x0": _floats(-0.5, 2.0),
        "params": st.fixed_dictionaries({}, optional={
            "sigma": _floats(0.5, 3.0),
            "delta": _floats(0.8, 3.0),
            "b": _floats(0.0, 2.0),
            "p": _floats(0.05, 1.2),
            "dsr_c": st.one_of(st.none(), _floats(0.0, 2.0)),
        }),
        "curve": st.one_of(
            st.fixed_dictionaries({"kind": st.just("constant")},
                                  optional={"level": _floats(-0.2, 2.0)}),
            st.fixed_dictionaries({"kind": st.just("linear")},
                                  optional={"intercept": _floats(0.0, 2.0),
                                            "slope": _floats(-1.0, 1.0)}),
            st.fixed_dictionaries({"kind": st.sampled_from(
                ["sinusoidal", "bogus"])}, optional={"levle": _floats(0, 1)}),
        ),
        "options": st.fixed_dictionaries({}, optional={
            "coarse_n_steps": st.integers(1, 16),
            "thin": st.integers(0, 4),
        }),
    },
)


class TestExitCodeContract:
    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=_CONFIGS)
    def test_exit_codes_hold_for_small_configs(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            out = os.path.join(tmp, "out")
            checked = CliRunner().invoke(main, ["validate", "--config", path])
            result = CliRunner().invoke(
                main, ["run", "--config", path, "--out", out])
            for res in (checked, result):
                # a traceback leaves its exception here instead of SystemExit
                assert res.exception is None or isinstance(res.exception,
                                                           SystemExit), \
                    res.exception
            assert result.exit_code in (0, 1, 2, 3)
            assert (checked.exit_code == 2) == (result.exit_code == 2)
            report = os.path.join(out, "report.json")
            assert os.path.exists(report) == (result.exit_code in (0, 1))
            if result.exit_code in (0, 1):
                with open(report) as fh:
                    doc = json.load(fh, parse_constant=_reject_constant)
                for metric in doc["metrics"].values():
                    assert all(math.isfinite(v) for v in metric.values())


def _reject_constant(name):
    raise AssertionError(f"report holds {name}")


class TestThreadReproducibility:
    def test_reports_identical_across_thread_counts(self, tmp_path):
        cfg_path = _write_config(tmp_path, SMALL_CIR)
        dumps = {}
        for threads in (1, 3):
            out = tmp_path / f"t{threads}"
            result = CliRunner().invoke(
                main, ["run", "--config", cfg_path, "--threads", str(threads),
                       "--out", str(out)])
            assert result.exit_code == 0
            report = json.loads((out / "report.json").read_text())
            report.pop("runtime_seconds")
            dumps[threads] = json.dumps(report, sort_keys=True)
        assert dumps[1] == dumps[3]

    @pytest.mark.parametrize("cfg", [
        {"experiment": "pde-cross-check", "seed": 5, "n_paths": 3000,
         "grid": {"T": 1.0, "n_steps": 512},
         "options": {"n_x": 201, "n_t": 16}},
        {"experiment": "girsanov-consistency", "seed": 5, "n_paths": 3000,
         "grid": {"T": 1.0, "n_steps": 512}},
        {"experiment": "localtime-ratios", "seed": 5, "n_paths": 8,
         "grid": {"T": 2.0, "n_steps": 1024},
         "options": {"coarse_n_steps": 512}},
        {"experiment": "relloc-identity", "seed": 5, "n_paths": 8,
         "grid": {"T": 2.0, "n_steps": 1024},
         "options": {"coarse_n_steps": 512}},
    ])
    def test_threads_reach_every_simulation(self, tmp_path, monkeypatch,
                                            cfg):
        # rows of 512 steps, so two threads split each chunk's draws
        workers = []
        fill = paths._DrawPhase.fill

        def recorded_fill(self, *args):
            workers.append(self.workers)
            return fill(self, *args)

        monkeypatch.setattr(paths._DrawPhase, "fill", recorded_fill)
        cfg_path = _write_config(tmp_path, cfg)
        dumps = {}
        for threads in (1, 2):
            workers.clear()
            out = tmp_path / f"t{threads}"
            result = CliRunner().invoke(
                main, ["run", "--config", cfg_path, "--threads", str(threads),
                       "--out", str(out)])
            assert result.exit_code in (0, 1), result.output
            assert set(workers) == {min(threads, paths._cpus())}
            report = json.loads((out / "report.json").read_text())
            report.pop("runtime_seconds")
            dumps[threads] = json.dumps(report, sort_keys=True)
        assert dumps[1] == dumps[2]


# Small configs whose reports and plot rows (minus runtime and versions)
# are pinned to digests recorded with the drift-implicit step, so a change
# to a stream, the scheme or an estimator shows here
GOLDEN = {
    # 200 paths: enough that a pairwise sum over them moves the last bits
    # of the sequential one
    "localtime-ratios": ({"n_paths": 200, "grid": {"T": 2.0, "n_steps": 1024},
                          "options": {"coarse_n_steps": 256}},
                         "b9ede1ba6418db2a39bac2d3e9602136"
                         "2f8bde7c1f4dde03eb4d7616390b2b20"),
    "relloc-identity": ({"n_paths": 200, "grid": {"T": 2.0, "n_steps": 1024},
                         "options": {"coarse_n_steps": 256}},
                        "aaa186dc963a580346a8e9427f4f9ff1"
                        "af11102fa7b8df4fcae28d87629db6a2"),
    # 12,000 paths: one chunk of the path-step budget
    "girsanov-consistency": ({"n_paths": 12_000,
                              "grid": {"T": 1.0, "n_steps": 64}},
                             "bfbaeeda067131a1961f138930056bb2"
                             "7a2dff3f82d9082b62dac462957d0181"),
    "cir-baseline": ({"n_paths": 4000, "grid": {"T": 1.0, "n_steps": 128}},
                     "359d169d619aaa1017d4e355aee136a6"
                     "09a326314d596e32ae11cf2fcacc2538"),
    "pde-cross-check": ({"n_paths": 2000, "grid": {"T": 1.0, "n_steps": 128},
                         "options": {"n_x": 201, "n_t": 16}},
                        "13b71f07d9267b0dd58304dba0cdffbf"
                        "9ea6571637b042ac33d2d9e31cabfa4c"),
}


class TestGoldenReports:
    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_report_digest(self, name):
        over, expected = GOLDEN[name]
        bundle = run_experiment({"experiment": name, "seed": 3, **over})
        report = {k: v for k, v in bundle["report"].items()
                  if k not in ("runtime_seconds", "versions")}
        plots = {kind: [header, [[repr(float(v)) for v in row]
                                 for row in rows]]
                 for kind, (header, rows) in bundle["plot_data"].items()}
        text = json.dumps([report, plots], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == expected


def _benchmark_hooks(monkeypatch):
    """(module, name) of each global the benchmark's traced pass wraps."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    layers = importlib.import_module("layers")
    return [(mod_name, attr) for mod_name, attr, *_ in
            layers.HOOKS + layers.GENERATOR_HOOKS]


class TestBenchmarkHooks:
    def test_traced_names_resolve(self, monkeypatch):
        # the benchmark's traced pass wraps these module globals by name
        for mod_name, attr in _benchmark_hooks(monkeypatch):
            assert hasattr(importlib.import_module(mod_name), attr), \
                (mod_name, attr)


class TestImports:
    def test_every_imported_name_is_read(self, monkeypatch):
        # the lint check: an import binds a name that some expression in
        # the module reads, that __all__ or a "# noqa: F401" re-export
        # names, or that the benchmark wraps by name
        import ast

        import skewdiff

        hooked = {}
        for mod_name, attr in _benchmark_hooks(monkeypatch):
            hooked.setdefault(mod_name.rsplit(".", 1)[-1], set()).add(attr)
        unread = []
        src = os.path.dirname(skewdiff.__file__)
        for fname in sorted(os.listdir(src)):
            if not fname.endswith(".py"):
                continue
            with open(os.path.join(src, fname), encoding="utf-8") as fh:
                text = fh.read()
            lines = text.splitlines()
            tree = ast.parse(text)
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            read |= hooked.get(fname[:-3], set())
            for node in ast.walk(tree):
                if (isinstance(node, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__all__"
                                for t in node.targets)):
                    read |= set(ast.literal_eval(node.value))
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if (isinstance(node, ast.ImportFrom)
                        and node.module == "__future__"
                        or "noqa: F401" in lines[node.lineno - 1]):
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{fname}:{node.lineno}: {name}")
        assert unread == []


class TestExports:
    def test_all_names_resolve(self):
        import skewdiff

        for info in pkgutil.iter_modules(skewdiff.__path__):
            mod = importlib.import_module(f"skewdiff.{info.name}")
            for name in getattr(mod, "__all__", ()):
                assert hasattr(mod, name), (info.name, name)


# scipy subpackages only the oracles that use them import, in their bodies
_DEFERRED = ("scipy.stats", "scipy.optimize", "scipy.integrate",
             "scipy.sparse")

_LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if ".".join(m.split(".")[:2]) in {pkgs!r})))
"""


def _deferred_loaded_after(code: str) -> list[str]:
    """Deferred scipy modules a fresh interpreter holds after ``code``."""
    import skewdiff

    env = {**os.environ, "PYTHONPATH": os.path.dirname(
        os.path.dirname(skewdiff.__file__))}
    done = subprocess.run(
        [sys.executable, "-c", code + _LOADED.format(pkgs=_DEFERRED)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _deferred_loaded_by_run(tmp_path, cfg) -> set[str]:
    """Deferred scipy subpackages a fresh ``skewdiff run`` of ``cfg`` loads.

    The run must write its report and exit by the contract: 0 when the
    report passed, 1 when a criterion failed.  Whether the science gates
    pass at a test's small sample size is not what is checked here.
    """
    path = _write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    report = os.path.join(out, "report.json")
    argv = ["run", "--config", path, "--out", out]
    code = ("import json\n"
            "from skewdiff.cli import main\n"
            "try:\n"
            f"    main(args={argv!r})\n"
            "except SystemExit as exc:\n"
            f"    passed = json.load(open({report!r}))['passed']\n"
            "    assert exc.code == (0 if passed else 1), exc.code\n")
    loaded = _deferred_loaded_after(code)
    assert os.path.exists(report)
    return {".".join(m.split(".")[:2]) for m in loaded}


class TestColdStart:
    def test_cli_import_defers_heavy_scipy(self):
        assert _deferred_loaded_after("import skewdiff.cli") == []

    def test_girsanov_run_loads_no_heavy_scipy(self, tmp_path):
        cfg = {"experiment": "girsanov-consistency", "seed": 1,
               "n_paths": 4000, "grid": {"T": 1.0, "n_steps": 64}}
        assert _deferred_loaded_by_run(tmp_path, cfg) == set()

    def test_stationary_run_loads_no_heavy_scipy(self, tmp_path):
        # the bin edges and the plotted density are closed forms
        assert _deferred_loaded_by_run(tmp_path, SMALL_STATIONARY) == set()

    @pytest.mark.parametrize("name", ["besq-law", "dsr-demo"])
    def test_ks_runs_load_no_heavy_scipy(self, tmp_path, name):
        # above 140 samples the KS p-value comes from scipy.special alone
        cfg = {"experiment": name, "seed": 1, "n_paths": 2000,
               "grid": {"T": 1.0, "n_steps": 64}}
        assert _deferred_loaded_by_run(tmp_path, cfg) == set()

    def test_pde_run_loads_only_sparse(self, tmp_path):
        cfg = {"experiment": "pde-cross-check", "seed": 0, "n_paths": 400,
               "grid": {"T": 1.0, "n_steps": 64},
               "options": {"n_x": 201, "n_t": 16}}
        assert _deferred_loaded_by_run(tmp_path, cfg) == {"scipy.sparse"}


class TestPlotData:
    def test_unknown_kind_rejected(self, tmp_path):
        bundle = run_experiment(default_config("regime-check", seed=0))
        with pytest.raises(UnknownKind):
            emit_plot_data(bundle, "bogus-kind", str(tmp_path))
        with pytest.raises(UnknownKind):
            # known kind, but this experiment produces no such table
            emit_plot_data(bundle, "localtime", str(tmp_path))

    def test_normalize_merges_defaults(self):
        cfg = normalize_config(dict(SMALL_CIR))
        assert cfg["params"]["delta"] == 3.0
        assert cfg["n_paths"] == 6000
        assert cfg["grid"]["n_steps"] == 256
