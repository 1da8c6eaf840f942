import argparse
import json
import logging
import math
import os
import warnings

import pytest

from mimosg import cli, montecarlo
from mimosg.cli import (EXIT_CONFIG, EXIT_GATE, EXIT_NUMERICAL, EXIT_OK,
                        MAX_SAMPLES, build_params, format_csv, load_config,
                        main, make_parser, parse_threshold_grid,
                        write_results)
from mimosg.errors import ConfigError
from mimosg.params import default_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigHandling:
    def test_threshold_grid(self):
        thr = parse_threshold_grid("-10:20:1")
        assert thr.size == 31
        assert 10 * math.log10(thr[0]) == pytest.approx(-10.0)
        assert 10 * math.log10(thr[-1]) == pytest.approx(20.0)

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            parse_threshold_grid("10:0:1")
        with pytest.raises(ConfigError):
            parse_threshold_grid("oops")

    @pytest.mark.parametrize("grid", ["0:1e12:1e-9", "0:1:1e-320",
                                      "0:1000000:1"])
    def test_oversized_grid(self, grid):
        """Refused before any array is allocated; the count of the second
        grid overflows to inf. A grid of 1000000 points is accepted."""
        with pytest.raises(ConfigError, match="more than 1000000 points"):
            parse_threshold_grid(grid)
        assert parse_threshold_grid("0:99.9999:0.0001").size == 1_000_000

    @pytest.mark.parametrize("grid", ["nan:1:1", "0:inf:1", "0:1:nan",
                                      "-inf:0:1", "0:1:inf"])
    def test_non_finite_grid(self, grid):
        with pytest.raises(ConfigError, match="finite"):
            parse_threshold_grid(grid)

    @pytest.mark.parametrize("grid", ["-4000:-3999:1", "4000:4001:1",
                                      "0:3090:10"])
    def test_grid_outside_linear_range(self, grid):
        """A finite dB grid whose linear values underflow to 0 or overflow
        to inf is refused, without a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="finite, positive linear"):
                parse_threshold_grid(grid)
        assert parse_threshold_grid("-3000:3000:1000")[[0, -1]].tolist() \
            == [1e-300, 1e300]

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"frobnicate": 1}))
        with pytest.raises(ConfigError, match="frobnicate"):
            load_config(str(path), {})

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m": 128, "eps": 0.5}))
        cfg = load_config(str(path), {"m": 64})
        assert cfg["m"] == 64 and cfg["eps"] == 0.5

    def test_default_config_is_the_reference_setting(self):
        """The CLI's defaults and default_params() are one setting: the
        13 model keys of DEFAULT_CONFIG build the same SystemParams."""
        assert build_params(load_config(None, {})) == default_params()

    def test_unit_conversion_roundtrip(self):
        cfg = load_config(None, {})
        p = build_params(cfg)
        assert 10 * math.log10(p.p_d) + 30 == pytest.approx(45.0, rel=1e-9)
        assert -10 * math.log10(p.omega) == pytest.approx(130.0, rel=1e-9)


class TestOutput:
    def test_csv_format(self):
        text = format_csv(["a", "b"], [(1.0, 0.123456789012345)])
        lines = text.split("\r\n")
        assert lines[0] == "a,b"
        assert lines[1].split(",")[1] == "0.123456789012"  # 12 significant digits

    def test_empty_curve_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results({"header": ["threshold_db", "coverage"], "rows": []},
                      str(path), "csv")
        assert path.read_bytes() == b"threshold_db,coverage\r\n"

    def test_json_roundtrip(self, tmp_path):
        rec = {"header": ["x", "y"], "rows": [(1.0, 2.0), (3.0, 4.0)],
               "kind": "test", "params": {"m": 64}}
        path = tmp_path / "r.json"
        write_results(rec, str(path), "json")
        doc = json.loads(path.read_text())
        assert doc["columns"] == ["x", "y"]
        assert doc["values"] == [[1.0, 2.0], [3.0, 4.0]]
        assert doc["params"]["m"] == 64


class TestSubcommands:
    def test_coverage_csv_contract(self, capsys):
        code, out, _ = run_cli(capsys, "coverage", "--mode", "async", "--m",
                               "64", "--eps", "0", "--thresholds-db",
                               "-10:20:5")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].strip() == "threshold_db,coverage"
        assert len(lines) == 8
        vals = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert vals == sorted(vals, reverse=True)

    def test_coverage_json_embeds_snapshot(self, capsys, tmp_path):
        out_path = tmp_path / "c.json"
        code, _, _ = run_cli(capsys, "coverage", "--mode", "sync", "--m",
                             "128", "--eps", "0.5", "--thresholds-db",
                             "0:10:5", "--format", "json", "-o",
                             str(out_path))
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["params"]["m"] == 128
        assert doc["params"]["mode"] == "sync"
        assert doc["effective_config"]["eps"] == 0.5
        assert doc["version"].startswith("mimosg-")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "coverage-mc", "--mode", "async",
                                 "--eps", "0", "--trials", "40", "--seed",
                                 "7", "--thresholds-db", "0:10:5", "-o",
                                 str(path))
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_rate_runs(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--mode", "async", "--eps",
                               "0", "--m", "64")
        assert code == EXIT_OK
        assert out.splitlines()[0].strip() == "eps,rate_bps_hz"

    def test_rate_mc_reports_ci(self, capsys):
        code, out, _ = run_cli(capsys, "rate-mc", "--mode", "async", "--eps",
                               "0.5", "--trials", "50", "--seed", "2")
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header.strip() == "eps,rate_bps_hz,ci95_half_width"
        assert float(row.split(",")[1]) > 0.0

    def test_special_cases(self, capsys):
        for case, extra in [("no-pc", ["--eps", "0"]),
                            ("full-pc", ["--eps", "1"]),
                            ("infinite-m", ["--eps", "0"])]:
            code, out, _ = run_cli(capsys, "special", "--case", case,
                                   "--mode", "async", "--thresholds-db",
                                   "0:6:3", *extra)
            assert code == EXIT_OK, case
            assert out.startswith("threshold_db,coverage")

    def test_special_case_guard(self, capsys):
        code, _, err = run_cli(capsys, "special", "--case", "no-pc", "--mode",
                               "async", "--eps", "0.5")
        assert code == EXIT_CONFIG
        assert "error" in err

    @pytest.mark.parametrize("command,extra", [
        ("coverage", []),
        ("rate", []),
        ("sweep", ["--param", "np", "--values", "5"]),
        ("special", ["--case", "no-pc", "--eps", "0"]),
        ("validate", ["--gate", "0.9", "--trials", "5"])])
    def test_zero_gamma_shape_rejected(self, capsys, tmp_path, command,
                                       extra):
        """--n-gamma 0 is an error, not a request for the mode default; a
        fractional shape from a config file is an error, not truncated."""
        code, out, err = run_cli(capsys, command, "--mode", "sync",
                                 "--n-gamma", "0", "--thresholds-db", "0:6:3",
                                 *extra)
        assert code == EXIT_CONFIG
        assert "n_shape must be >= 1" in err
        assert out == ""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_gamma": 2.5}))
        code, out, err = run_cli(capsys, command, "--mode", "sync",
                                 "--config", str(path), "--thresholds-db",
                                 "0:6:3", *extra)
        assert code == EXIT_CONFIG
        assert "n_shape must be an integer" in err
        assert out == ""

    @pytest.mark.parametrize("command, loaded, message", [
        ("coverage", {"m": "abc"}, "key 'm' must be an integer, got 'abc'"),
        ("validate", {"m": "abc"}, "key 'm' must be an integer, got 'abc'"),
        ("coverage", {"m": 64.5}, "key 'm' must be an integer, got 64.5"),
        ("coverage", {"eps": True}, "key 'eps' must be a number, got True"),
        ("validate", {"window_km": "x"}, "key 'window_km' must be a number")],
        ids=["coverage-m-abc", "validate-m-abc", "coverage-m-fraction",
             "coverage-eps-bool", "validate-window_km-str"])
    def test_config_value_of_wrong_type(self, capsys, tmp_path, command,
                                        loaded, message):
        """A config-file value of the wrong type exits 2 with the key
        named, not with a traceback or a truncated value."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(loaded))
        extra = ["--gate", "0.9", "--trials", "5"] * (command == "validate")
        code, out, err = run_cli(capsys, command, *extra, "--config",
                                 str(path), "--thresholds-db", "0:6:3")
        assert code == EXIT_CONFIG
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("output", [1, True, 7])
    def test_config_output_not_a_path(self, capsys, tmp_path, output):
        """A non-string output would be opened as a file descriptor (1 is
        standard output, which would then be closed): exit 2 with the key
        named, before anything is written or closed."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"output": output}))
        code, out, err = run_cli(capsys, "coverage", "--config", str(path),
                                 "--thresholds-db", "0:6:3")
        assert code == EXIT_CONFIG
        assert f"config key 'output' must be a path or null, got " \
               f"{json.dumps(output)}" in err
        assert out == ""
        os.fstat(1)     # still open
        code, out, _ = run_cli(capsys, "coverage", "--thresholds-db", "0:6:3")
        assert code == EXIT_OK and out.startswith("threshold_db,coverage")

    @pytest.mark.parametrize("command, argv, loaded, message", [
        ("coverage-mc", ["--window-km", "inf"], {}, "window must be finite"),
        ("coverage-mc", [], {"r_e_km": math.inf}, "r_e must be finite"),
        ("rate", [], {"alpha": math.inf}, "alpha must be finite"),
        ("rate", [], {"omega_db": -math.inf}, "omega must be finite"),
        ("rate", [], {"p_u_dbm": math.inf}, "p_u must be finite"),
        ("coverage", [], {"p_d_dbm": math.inf}, "p_d must be finite"),
        ("coverage", [], {"sigma2_dbm": math.inf}, "sigma2 must be finite"),
        ("coverage", [], {"p_d_dbm": 1e308},
         "config key 'p_d_dbm' is out of range: 1e+308"),
        ("rate", [], {"p_u_dbm": 4000.0},
         "config key 'p_u_dbm' is out of range: 4000.0"),
        ("coverage-mc", [], {"sigma2_dbm": 1e308},
         "config key 'sigma2_dbm' is out of range: 1e+308"),
        ("validate", ["--gate", "0.9"], {"omega_db": -1e308},
         "config key 'omega_db' is out of range: -1e+308")],
        ids=["window_km", "r_e_km", "alpha", "omega_db", "p_u_dbm",
             "p_d_dbm", "sigma2_dbm", "p_d_dbm-overflow", "p_u_dbm-overflow",
             "sigma2_dbm-overflow", "omega_db-overflow"])
    def test_non_finite_model_input_exits_config(self, capsys, tmp_path,
                                                 command, argv, loaded,
                                                 message):
        """An infinite model input, or a finite dB or dBm value whose
        linear value overflows a float, exits 2 with its name, instead of
        a traceback, a numerical-error exit or a meaningless value."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(loaded))
        code, out, err = run_cli(capsys, command, *argv, "--config", str(path),
                                 "--trials", "5", "--thresholds-db", "0:6:3")
        assert code == EXIT_CONFIG
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("command, extra", [
        ("coverage", []), ("rate", []), ("coverage-mc", ["--trials", "2"])])
    def test_huge_path_loss_exponent_exits_numerical(self, capsys, tmp_path,
                                                     command, extra):
        """alpha = 600 overflows the powers of distance of both engines,
        and alpha = 30 or 100 the analytic engine's tau grid: exit 3 with
        one line on standard error, not a traceback, numpy warnings or a
        Monte Carlo coverage of 0."""
        path = tmp_path / "cfg.json"
        for alpha in (600,) if command == "coverage-mc" else (30, 100, 600):
            path.write_text(json.dumps({"alpha": alpha}))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, command, *extra, "--config",
                                         str(path), "--thresholds-db", "0:6:3")
            assert code == EXIT_NUMERICAL
            assert err.startswith("numerical error: ")
            assert f"path-loss exponent {float(alpha)!r}" in err
            assert err.count("\n") == 1
            assert out == ""

    def test_huge_integer_seed_accepted(self, capsys):
        """An int is exact however large: a 30-digit seed is a seed, not
        a value that is "not an integer" because it has no exact float."""
        code, out, err = run_cli(capsys, "coverage-mc", "--trials", "2",
                                 "--seed", "1" + "0" * 29,
                                 "--thresholds-db", "0:6:3")
        assert code == EXIT_OK
        assert out.count("\n") == 4
        assert err == ""

    @pytest.mark.parametrize("command, extra", [
        ("coverage-mc", []), ("rate-mc", []), ("validate", ["--gate", "0.9"])],
        ids=["coverage-mc", "rate-mc", "validate"])
    def test_huge_window_exits_config_before_any_trial(
            self, capsys, monkeypatch, command, extra):
        """A window whose expected station count would need a
        nearest-station block beyond MAX_TRIAL_BLOCK is refused before a
        network is sampled (here: 190 GiB for one trial at 1e5 km)."""
        def no_network(*args, **kwargs):
            raise AssertionError("a trial sampled a network")
        monkeypatch.setattr(montecarlo, "build_network", no_network)
        code, out, err = run_cli(capsys, command, *extra, "--window-km", "1e5",
                                 "--trials", "1", "--thresholds-db", "0:6:3")
        assert code == EXIT_CONFIG
        assert "window of 100000.0 km is too large" in err
        assert str(montecarlo.MAX_TRIAL_BLOCK) in err
        assert out == ""

    @pytest.mark.parametrize("command, trials, extra", [
        ("coverage-mc", "1000000000000", []),
        ("rate-mc", "100000000000000000000", []),
        ("validate", "1000000000000", ["--gate", "0.9"])],
        ids=["coverage-mc", "rate-mc", "validate"])
    def test_huge_trial_count_exits_config_before_any_trial(
            self, capsys, monkeypatch, command, trials, extra):
        """A trial count beyond MAX_TRIALS (1e12, 1e20) is a typo, not a
        request: it is refused before a network is sampled, not left to
        run trials for days."""
        def no_network(*args, **kwargs):
            raise AssertionError("a trial sampled a network")
        monkeypatch.setattr(montecarlo, "build_network", no_network)
        code, out, err = run_cli(capsys, command, *extra, "--trials", trials,
                                 "--thresholds-db", "0:6:3")
        assert code == EXIT_CONFIG
        assert err == (f"error: trials must be at most "
                       f"{montecarlo.MAX_TRIALS}, got {trials}\n")
        assert out == ""

    @pytest.mark.parametrize("window", ["4", "8"])
    def test_reference_windows_accepted(self, capsys, window):
        """The 4 km window of the validation suite and the 8 km window of
        perfbench's sync workload stay within MAX_TRIAL_BLOCK."""
        code, out, _ = run_cli(capsys, "coverage-mc", "--window-km", window,
                               "--trials", "2", "--thresholds-db", "0:6:3")
        assert code == EXIT_OK
        assert out.count("\n") == 4

    def test_zero_noise_runs(self, capsys, tmp_path):
        """sigma2_dbm = -Infinity is 0 W of noise, a valid model input."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sigma2_dbm": -math.inf}))
        code, out, _ = run_cli(capsys, "coverage", "--config", str(path),
                               "--thresholds-db", "0:6:3")
        assert code == EXIT_OK
        assert out.count("\n") == 4

    @pytest.mark.parametrize("command", ["coverage", "validate"])
    def test_config_n_gamma_numeric_string(self, capsys, tmp_path, command):
        """n_gamma follows the type rule of every numeric key: the string
        "2" runs, with the output of the number 2."""
        extra = ["--gate", "0.9", "--trials", "5"] * (command == "validate")
        path = tmp_path / "cfg.json"
        results = []
        for value in (2, "2"):
            path.write_text(json.dumps({"n_gamma": value}))
            results.append(run_cli(capsys, command, "--mode", "sync", *extra,
                                   "--config", str(path), "--thresholds-db",
                                   "0:6:3"))
        assert results[0][0] == EXIT_OK
        assert results[1] == results[0]

    def test_pdf_check_passes(self, capsys):
        code, out, err = run_cli(capsys, "pdf-check", "--samples", "40000")
        assert code == EXIT_OK
        assert "worst KS" in err
        rows = out.strip().splitlines()
        assert rows[0].strip() == "law,ks_distance"
        assert len(rows) == 4

    def test_pdf_check_distances_scale_with_geometry(self, capsys,
                                                     tmp_path):
        """The conditioning distances follow r_e, so a geometry with r0
        above the reference setting's 0.8 km runs as coverage does."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"r0_km": 0.9, "r_e_km": 2.0}))
        code, out, err = run_cli(capsys, "pdf-check", "--config", str(path),
                                 "--samples", "20000", "--format", "json")
        assert code == EXIT_OK, err
        assert len(json.loads(out)["values"]) == 3

    def test_pdf_check_gate_follows_sample_count(self, capsys):
        """At 1000 samples the gate is the KS 0.1% point 1.95/sqrt(n),
        which correct samplers pass; from about 9500 samples on it is
        0.02."""
        code, out, err = run_cli(capsys, "pdf-check", "--samples", "1000",
                                 "--seed", "1", "--format", "json")
        assert code == EXIT_OK, err
        doc = json.loads(out)
        assert doc["ks_gate"] == 1.95 / math.sqrt(1000)
        assert max(v for _, v in doc["values"]) > 0.02
        assert f"(gate {doc['ks_gate']:.4g})" in err
        code, out, _ = run_cli(capsys, "pdf-check", "--samples", "10000",
                               "--format", "json")
        assert json.loads(out)["ks_gate"] == 0.02

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_pdf_check_non_positive_samples_exits_config(self, capsys,
                                                         samples):
        code, out, err = run_cli(capsys, "pdf-check", "--samples", samples)
        assert code == EXIT_CONFIG
        assert f"--samples must be >= 1, got {samples}" in err
        assert out == ""

    @pytest.mark.parametrize("samples", ["100000000000",
                                         "100000000000000000000"])
    def test_pdf_check_oversized_samples_exits_config(self, capsys,
                                                      monkeypatch, samples):
        """A sample count beyond MAX_SAMPLES is refused before any draw,
        not left to numpy (745 GiB per law at 1e11; past its largest
        dimension at 1e20)."""
        def no_draw(*args, **kwargs):
            raise AssertionError("pdf-check drew a sample")
        monkeypatch.setattr(cli, "trunc_rayleigh_sample", no_draw)
        code, out, err = run_cli(capsys, "pdf-check", "--samples", samples)
        assert code == EXIT_CONFIG
        assert err == (f"error: --samples must be at most {MAX_SAMPLES}, "
                       f"got {samples}\n")
        assert out == ""

    def test_pdf_check_default_samples_accepted(self, capsys):
        """The default of 100 000 samples per law is within MAX_SAMPLES."""
        code, out, _ = run_cli(capsys, "pdf-check", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["ks_gate"] == 0.02

    def test_pdf_check_output_is_pinned(self, capsys):
        """The KS distances and gate at 2000 samples and seed 7, exact:
        the three laws' supports, their draw order and the KS statistic
        replay bit for bit."""
        code, out, _ = run_cli(capsys, "pdf-check", "--samples", "2000",
                               "--seed", "7", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["values"] == [
            ["serving", 0.01246530523719147],
            ["serving_given_station", 0.011014588393937569],
            ["serving_given_user_pair", 0.032736485994285525]]
        assert doc["ks_gate"] == 0.043603325561245895

    @pytest.mark.parametrize("fmt", ["xml", 1, None])
    def test_config_format_checked_before_any_trial(self, capsys, monkeypatch,
                                                    tmp_path, fmt):
        """A config file's unknown format exits 2 when the config is read,
        not after the whole run when the result is written."""
        def no_trials(*args):
            raise AssertionError("trials ran")
        monkeypatch.setattr(montecarlo, "_run_trials", no_trials)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"format": fmt}))
        code, out, err = run_cli(capsys, "validate", "--gate", "0.9",
                                 "--trials", "100", "--config", str(path))
        assert code == EXIT_CONFIG
        assert ("config key 'format' must be one of ['csv', 'json'], got "
                f"{json.dumps(fmt)}") in err
        assert out == ""

    @pytest.mark.parametrize("gate", ["-1", "nan", "inf"])
    def test_validate_unpassable_gate_exits_config(self, capsys, monkeypatch,
                                                   gate):
        """Refused before any trial runs."""
        def no_trials(*args):
            raise AssertionError("trials ran")
        monkeypatch.setattr(montecarlo, "_run_trials", no_trials)
        code, out, err = run_cli(capsys, "validate", "--gate", gate,
                                 "--trials", "5", "--thresholds-db", "0:6:3")
        assert code == EXIT_CONFIG
        assert "gate must be a finite number >= 0" in err
        assert out == ""

    def test_validate_gate_failure_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--gate", "0.0",
                                 "--mode", "async", "--eps", "0.5",
                                 "--trials", "60", "--thresholds-db", "0:6:3")
        assert code == EXIT_GATE
        assert "FAIL" in err

    def test_validate_pass_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--gate", "0.9", "--mode",
                               "async", "--eps", "0.5", "--trials", "60",
                               "--thresholds-db", "0:6:3")
        assert code == EXIT_OK
        assert "PASS" in err

    def test_validate_json_counts_skipped_trials(self, capsys):
        """Seed 42 skips trial 171 (zero-cell outside the margin); the
        JSON says so, and a rerun writes the same bytes."""
        argv = ("validate", "--gate", "0.9", "--mode", "async", "--trials",
                "200", "--seed", "42", "--thresholds-db", "0:6:3",
                "--format", "json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        doc = json.loads(first)
        assert (doc["trials_used"], doc["trials_skipped"]) == (199, 1)
        assert doc["trials_used"] + doc["trials_skipped"] == doc["trials"]

    @pytest.mark.parametrize("command,extra", [
        ("coverage-mc", ("--thresholds-db", "0:6:3")), ("rate-mc", ())],
        ids=["coverage-mc", "rate-mc"])
    def test_mc_json_counts_skipped_trials(self, capsys, command, extra):
        """coverage-mc and rate-mc record their trial counts as validate
        does: seed 42 skips trial 171, and a rerun writes the same bytes."""
        argv = (command, "--mode", "async", "--trials", "200", "--seed",
                "42", "--format", "json", *extra)
        code, first, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        doc = json.loads(first)
        assert (doc["trials_used"], doc["trials_skipped"]) == (199, 1)
        assert (doc["trials_used"] + doc["trials_skipped"]
                == doc["effective_config"]["trials"])

    def test_sweep_np(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--param", "np", "--values",
                               "5,10,15", "--mode", "async", "--eps", "0.5")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].strip() == "np,rate_bps_hz"
        assert len(lines) == 4

    def test_analytic_diagnostics_in_json(self, capsys):
        """Clamp counts, the ends of each rate integral and the error bound
        of its closed-form head are data in the JSON outputs; the sweep
        keeps its [value, rate] pairs in `values` and its diagnostics
        apart, and a rerun writes the same bytes."""
        argv = ("sweep", "--param", "np", "--values", "5,30", "--mode",
                "sync", "--eps", "0.5", "--n-gamma", "4", "--format", "json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        doc = json.loads(first)
        assert [v for v, _ in doc["values"]] == [5.0, 30.0]
        diag = doc["diagnostics"]
        assert [d["np"] for d in diag] == [5.0, 30.0]
        assert all(set(d) == {"np", "z_lo", "z_hi", "head_bound"}
                   for d in diag)
        assert all(0.0 < d["z_lo"] < d["z_hi"] for d in diag)
        assert all(0.0 <= d["head_bound"] <= 1e-16 for d in diag)

        _, out, _ = run_cli(capsys, "rate", "--mode", "async", "--eps", "0",
                            "--format", "json")
        diag = json.loads(out)["diagnostics"]
        assert diag == [{"eps": 0.0, "z_lo": diag[0]["z_lo"],
                         "z_hi": diag[0]["z_hi"],
                         "head_bound": diag[0]["head_bound"]}]
        # the head reaches past the first point where L is flat to 1e-13
        assert 1e-15 < diag[0]["z_lo"] < 1e-8
        assert 0.0 <= diag[0]["head_bound"] <= 1e-16

        _, out, _ = run_cli(capsys, "coverage", "--mode", "sync", "--eps",
                            "0.5", "--thresholds-db", "0:10:5", "--format",
                            "json")
        assert json.loads(out)["clamped"] == 0

        _, out, _ = run_cli(capsys, "validate", "--gate", "0.9", "--mode",
                            "async", "--eps", "0.5", "--trials", "60",
                            "--thresholds-db", "0:6:3", "--format", "json")
        assert json.loads(out)["analytic_clamped"] == 0

    @pytest.mark.parametrize("values, message", [
        ("5.5,5", "must be integers, got 5.5"),
        ("2,x", "must be numbers, got '2,x'")], ids=["fraction", "text"])
    def test_sweep_np_rejects_non_integer_values(self, capsys, values,
                                                 message):
        """A fractional pilot length is an error, not truncated into a row
        labelled with the wrong value; a non-number is an error too."""
        code, out, err = run_cli(capsys, "sweep", "--param", "np", "--mode",
                                 "sync", "--values", values)
        assert code == EXIT_CONFIG
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_rate_equals_sweep_at_fractional_frame(self, capsys, mode):
        """n_p = 5 leaves 35 data symbols, n_u = 35/3: rate computes the
        same frame as the sweep, bit for bit."""
        argv = ("--np", "5", "--eps", "0.5", "--mode", mode, "--format",
                "json")
        code, out, _ = run_cli(capsys, "rate", *argv)
        assert code == EXIT_OK
        rate = json.loads(out)["values"][0][1]
        code, out, _ = run_cli(capsys, "sweep", "--param", "np", "--values",
                               "5", *argv[2:])
        assert code == EXIT_OK
        assert json.loads(out)["values"] == [[5.0, rate]]

    @pytest.mark.parametrize("command, extra", [
        ("coverage", []), ("coverage-mc", ["--trials", "2"]),
        ("rate-mc", ["--trials", "2"]),
        ("validate", ["--gate", "0.9", "--trials", "2"])])
    def test_fractional_frame_accepted(self, capsys, command, extra):
        """Every command takes a frame whose data symbols do not split
        into whole uplink and downlink parts."""
        code, out, _ = run_cli(capsys, command, *extra, "--np", "5",
                               "--thresholds-db", "0:6:3", "--format", "json")
        assert code in ((EXIT_OK, EXIT_GATE) if command == "validate"
                        else (EXIT_OK,))
        params = json.loads(out)["params"]
        assert (params["n_u"], params["n_d"]) == (35 / 3, 35 - 35 / 3)

    @pytest.mark.parametrize("command, extra", [
        ("coverage", []), ("rate", []), ("coverage-mc", ["--trials", "2"]),
        ("rate-mc", ["--trials", "2"]),
        ("validate", ["--gate", "0.9", "--trials", "2"])])
    def test_frame_part_below_one_symbol_exits_config(self, capsys, command,
                                                      extra):
        """n_p = 39 leaves n_u = 1/3: exit 2, before any computation."""
        code, out, err = run_cli(capsys, command, *extra, "--np", "39",
                                 "--thresholds-db", "0:6:3")
        assert code == EXIT_CONFIG
        assert "frame parts must be >= 1" in err
        assert out == ""

    @pytest.mark.parametrize("argv, config, where", [
        (["rate-mc", "--trials", "1"], {}, ("values", 0, 2)),
        (["coverage"], {"sigma2_dbm": -math.inf},
         ("effective_config", "sigma2_dbm"))], ids=["rate-mc", "coverage"])
    def test_json_output_is_standard(self, capsys, tmp_path, argv, config,
                                     where):
        """A non-finite float (a one-trial CI, zero noise in dBm) is
        written as a string, not as a bare Infinity that standard JSON
        refuses; the effective config reads back to the same input."""
        def refuse(name):
            raise ValueError(f"not standard JSON: {name}")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, *argv, "--config", str(path),
                               "--thresholds-db", "0:6:3", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out, parse_constant=refuse)
        value = doc
        for key in where:
            value = value[key]
        assert value in ("Infinity", "-Infinity")
        path.write_text(json.dumps(doc["effective_config"]))
        assert (build_params(load_config(str(path), {}))
                == build_params(load_config(None, config)))

    def test_sweep_eps(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--param", "eps", "--values",
                               "0,1", "--mode", "sync", "--n-gamma", "2")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 3

    @pytest.mark.parametrize("text", ["5", "null", '["m"]', "[]", '"eps"'],
                             ids=["number", "null", "list", "empty-list",
                                  "string"])
    def test_config_top_level_not_an_object(self, capsys, tmp_path, text):
        """A config file must hold a JSON object; anything else exits 2
        with that said, before any command runs."""
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "coverage", "--config", str(path),
                                 "--thresholds-db", "0:6:3")
        assert code == EXIT_CONFIG
        assert f"must hold a JSON object, got {text}" in err
        assert out == ""

    @pytest.mark.parametrize("grid", ["nan:1:1", "0:inf:1"])
    def test_non_finite_grid_exits_config(self, capsys, grid):
        code, out, err = run_cli(capsys, "coverage", "--thresholds-db", grid)
        assert code == EXIT_CONFIG
        assert "must be finite" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["coverage", "coverage-mc"])
    @pytest.mark.parametrize("grid", ["-4000:-3999:1", "4000:4001:1"])
    def test_grid_outside_linear_range_exits_config(self, capsys, command,
                                                    grid):
        code, out, err = run_cli(capsys, command, "--trials", "2",
                                 f"--thresholds-db={grid}")
        assert code == EXIT_CONFIG
        assert "finite, positive linear values" in err
        assert out == ""

    def test_oversized_grid_exits_config(self, capsys):
        code, out, err = run_cli(capsys, "coverage", "--thresholds-db",
                                 "0:1e12:1e-9")
        assert code == EXIT_CONFIG
        assert "more than 1000000 points" in err
        assert out == ""

    @pytest.mark.parametrize("command, extra", [
        ("validate", ["--gate", "0.9", "--trials", "5", "--thresholds-db",
                      "0:6:3"]),
        ("pdf-check", ["--samples", "100"])], ids=["validate", "pdf-check"])
    def test_negative_seed_exits_config(self, capsys, command, extra):
        code, out, err = run_cli(capsys, command, *extra, "--seed", "-1")
        assert code == EXIT_CONFIG
        assert "seed must be >= 0, got -1" in err
        assert out == ""

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_workers_exit_config(self, capsys, workers):
        code, out, err = run_cli(capsys, "validate", "--gate", "0.9",
                                 "--trials", "5", "--workers", workers,
                                 "--thresholds-db", "0:6:3")
        assert code == EXIT_CONFIG
        assert f"workers must be >= 1, got {workers}" in err
        assert out == ""

    @pytest.mark.parametrize("argv, verbose", [
        (["-v", "rate"], True), (["rate", "-v"], True),
        (["--verbose", "rate", "--verbose"], True), (["rate"], False)])
    def test_verbose_flag_before_or_after_command(self, argv, verbose):
        assert make_parser().parse_args(argv).verbose is verbose

    # each subcommand with the options it requires
    SUBCOMMANDS = {"coverage": [], "coverage-mc": [], "rate": [],
                   "rate-mc": [], "validate": ["--gate", "0.1"],
                   "special": ["--case", "no-pc"],
                   "sweep": ["--param", "np", "--values", "5"],
                   "pdf-check": []}

    def test_subcommands_listed(self):
        subs = next(a for a in make_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        assert set(subs.choices) == set(self.SUBCOMMANDS)

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_common_options_on_every_subcommand(self, command):
        args = make_parser().parse_args(
            [command, *self.SUBCOMMANDS[command], "--config", "cfg.json",
             "--seed", "7", "--format", "json", "-o", "out.json"])
        assert args.command == command
        assert (args.config, args.seed, args.format, args.output) == (
            "cfg.json", 7, "json", "out.json")

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_subcommand_help_lists_common_options(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for option in ("--config CONFIG", "--seed SEED",
                       "--format {csv,json}", "--output OUTPUT, -o OUTPUT",
                       "--verbose, -v", "--n-gamma N_GAMMA"):
            assert f"\n  {option}" in out

    @pytest.mark.parametrize("n_gamma", ["17", "2000"])
    @pytest.mark.parametrize("command", ["coverage", "rate"])
    def test_gamma_shape_above_cap_exits_config(self, capsys, command,
                                               n_gamma):
        code, out, err = run_cli(capsys, command, "--mode", "sync",
                                 "--eps", "0.5", "--n-gamma", n_gamma)
        assert code == EXIT_CONFIG
        assert err.startswith("error: n_shape must be <= 16")
        assert "Traceback" not in err
        assert out == ""

    def test_bad_flag_exits_config(self, capsys):
        code, _, err = run_cli(capsys, "coverage", "--thresholds-db", "junk")
        assert code == EXIT_CONFIG
        assert err.startswith("error:")

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "coverage", "--config", "/nonexistent")
        assert code == EXIT_CONFIG


class TestParserReuse:
    """The parser is built once per process; each ``main`` call parses its
    own arguments into a fresh namespace."""

    def test_successive_mains_parse_independently(self, capsys,
                                                  monkeypatch):
        levels = []
        monkeypatch.setattr(logging, "basicConfig",
                            lambda **kw: levels.append(kw["level"]))
        make_parser.cache_clear()
        calls = [(["-v", "rate", "--mode", "sync", "--eps", "0.5"],
                  logging.INFO, "sync", 0.5),
                 (["coverage", "--thresholds-db", "0:6:3"],
                  logging.WARNING, "async", 0.0),
                 (["sweep", "--param", "np", "--values", "5", "-v",
                   "--m", "32"], logging.INFO, "async", 0.0),
                 (["rate", "--np", "4"], logging.WARNING, "async", 0.0)]
        docs = []
        for argv, _, _, _ in calls:
            code, out, _ = run_cli(capsys, *argv, "--format", "json")
            assert code == EXIT_OK
            docs.append(json.loads(out))
        assert levels == [level for _, level, _, _ in calls]
        assert [d["kind"] for d in docs] == ["rate", "coverage", "sweep",
                                             "rate"]
        assert [(d["effective_config"]["mode"], d["effective_config"]["eps"])
                for d in docs] == [(mode, eps) for *_, mode, eps in calls]
        assert [d["effective_config"]["m"] for d in docs] == [64, 64, 32, 64]
        assert [d["effective_config"]["n_p"] for d in docs] == [10, 10, 10, 4]
        # the second call's grid does not carry over to the fourth
        assert [d["effective_config"]["thresholds_db"] for d in docs[1::2]] \
            == ["0:6:3", "-10:20:1"]

    def test_make_parser_is_cached_until_cleared(self):
        parser = make_parser()
        assert make_parser() is parser
        make_parser.cache_clear()
        fresh = make_parser()
        assert fresh is not parser
        assert make_parser() is fresh

    @pytest.mark.parametrize("command", [None, *TestSubcommands.SUBCOMMANDS])
    def test_help_of_a_used_parser_equals_a_fresh_one(self, capsys,
                                                      monkeypatch, command):
        """``--help`` of the program and of every subcommand, printed by a
        parser that earlier calls have parsed with, is byte for byte that
        of a parser on its first use, which is built by the same code as
        before the parser was kept."""
        monkeypatch.setenv("COLUMNS", "80")
        argv = ([] if command is None else [command]) + ["--help"]

        def help_text():
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            return capsys.readouterr().out

        make_parser.cache_clear()
        first = help_text()
        for args in (["-v", "rate", "--mode", "sync"],
                     ["coverage", "--thresholds-db", "0:6:3", "-v"]):
            assert main(args) == EXIT_OK
        capsys.readouterr()
        assert help_text() == first
        assert first.startswith("usage: mimosg")
