import pytest

import mimosg
from mimosg import _kernels


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
