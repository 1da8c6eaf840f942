import inspect

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
