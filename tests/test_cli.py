import json
import math
import warnings

import numpy as np
import pytest

from mimosg import montecarlo
from mimosg.cli import (EXIT_CONFIG, EXIT_GATE, EXIT_OK, build_params,
                        format_csv, load_config, main, make_parser,
                        parse_threshold_grid, write_results)
from mimosg.errors import ConfigError


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
        """Clamp counts and where each rate integral ended are data in the
        JSON outputs; the sweep keeps its [value, rate] pairs in `values`
        and its diagnostics apart, and a rerun writes the same bytes."""
        argv = ("sweep", "--param", "np", "--values", "5,30", "--mode",
                "sync", "--eps", "0.5", "--n-gamma", "4", "--format", "json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        doc = json.loads(first)
        assert [v for v, _ in doc["values"]] == [5.0, 30.0]
        diag = doc["diagnostics"]
        assert [d["np"] for d in diag] == [5.0, 30.0]
        assert all(set(d) == {"np", "t_hi", "tail_truncated"} for d in diag)
        assert all(d["t_hi"] in 10.0 ** np.arange(10)
                   and d["tail_truncated"] is False for d in diag)

        _, out, _ = run_cli(capsys, "rate", "--mode", "async", "--eps", "0",
                            "--format", "json")
        diag = json.loads(out)["diagnostics"]
        assert diag == [{"eps": 0.0, "t_hi": diag[0]["t_hi"],
                         "tail_truncated": False}]
        assert diag[0]["t_hi"] in 10.0 ** np.arange(10)

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

    def test_bad_flag_exits_config(self, capsys):
        code, _, err = run_cli(capsys, "coverage", "--thresholds-db", "junk")
        assert code == EXIT_CONFIG
        assert err.startswith("error:")

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "coverage", "--config", "/nonexistent")
        assert code == EXIT_CONFIG
