import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mimosg
from mimosg import _kernels, analytic, cli, montecarlo

# the public API, sorted: a change to it is a change to this list
PUBLIC_API = [
    "ConfigError", "CoverageCurve", "DomainError", "EstimationError",
    "McConfig", "MimosgError", "NetworkRealization", "NumericalError",
    "RateResult", "RealizationError", "SystemParams", "ValidationReport",
    "__version__", "build_network", "c_m", "coverage",
    "coverage_fullpc_async", "coverage_infinite_m", "coverage_no_pc",
    "default_gamma_shape", "default_params", "density_from_exclusion",
    "derive_frame", "draw_phases", "ergodic_rate", "eta_shape",
    "gamma_cdf_approx", "make_params", "phase_probabilities", "q2", "q3",
    "run_coverage_mc", "run_rate_mc", "sample_hppp", "serving_cdf",
    "serving_pdf", "serving_sample", "v_m", "validate",
]


class TestImportSurface:
    def test_all_names_resolve_once(self):
        assert len(mimosg.__all__) == len(set(mimosg.__all__))
        missing = [n for n in mimosg.__all__ if not hasattr(mimosg, n)]
        assert missing == []

    def test_public_api_is_pinned(self):
        assert PUBLIC_API == sorted(PUBLIC_API)
        assert sorted(mimosg.__all__) == PUBLIC_API

    @pytest.mark.parametrize("module,name", [
        (montecarlo, "draw_phases"), (montecarlo, "build_network"),
        (montecarlo, "run_trial"), (montecarlo, "_run_trials"),
        (montecarlo, "run_coverage_mc"), (cli, "validate"),
        (cli, "ergodic_rate")])
    def test_mc_and_cli_hook_targets_exist(self, module, name):
        # the benchmark's tracer hooks these where their callers look them
        # up: module attributes of montecarlo and cli, not of the modules
        # that define them
        assert callable(vars(module).get(name)), name

    @pytest.mark.parametrize("name", ["nearest_bs", "pairwise_dist",
                                      "all_deltas", "sinr_batch"])
    def test_engine_kernels_exist(self, name):
        # geometry and montecarlo call these as _kernels.<name>, and the
        # benchmark's tracer hooks them under the same names
        assert callable(getattr(_kernels, name))

    def test_analytic_hook_targets_exist(self):
        # the benchmark's tracer hooks these where the engine looks them
        # up: attributes of the analytic module, and methods defined on
        # _Context itself; it counts context builds through cache_info
        assert callable(analytic._context)
        assert callable(analytic._context.cache_info)
        for name in ("_coverage_values", "log_panel_grid",
                     "gauss_legendre_panels"):
            assert callable(vars(analytic).get(name)), name
        methods = vars(analytic._Context)
        for name in ("_build_e2_table", "e1_exponent", "e2_exponent"):
            assert callable(methods.get(name)), name
        # the tracer counts the rows of e1_exponent's b argument
        assert list(inspect.signature(methods["e1_exponent"]).parameters) \
            == ["self", "b", "c", "x"]


# Runs the CLI on coverage, rate, sweep and a 3-trial validate, then prints
# the scipy modules the process has loaded.
_GUARD_SCRIPT = """
import json, sys
from mimosg.cli import main
out = sys.argv[1]
common = ["--thresholds-db", "0:10:5", "--output", out, "--format", "json"]
codes = [main(["coverage", "--mode", "async", *common]),
         main(["rate", "--mode", "sync", "--eps", "0.5", "--output", out]),
         main(["sweep", "--param", "np", "--values", "5,10", "--mode", "sync",
               "--output", out]),
         main(["validate", "--mode", "async", "--gate", "0.9", "--trials",
               "3", *common])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    """scipy is a test-only oracle: no command the CLI runs imports it."""
    src = str(Path(mimosg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD_SCRIPT, str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"][:3] == [0, 0, 0]
    assert result["codes"][3] in (0, 4)
    assert result["scipy"] == []
