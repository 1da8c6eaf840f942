import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mimosg
from mimosg import _kernels, analytic


class TestImportSurface:
    def test_all_names_resolve_once(self):
        assert len(mimosg.__all__) == len(set(mimosg.__all__))
        missing = [n for n in mimosg.__all__ if not hasattr(mimosg, n)]
        assert missing == []

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
