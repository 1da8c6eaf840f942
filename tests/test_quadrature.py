import math

import numpy as np
import pytest

from mimosg.quadrature import gauss_legendre_panels, log_panel_grid


class TestPanels:
    def test_gauss_panels_integrate_polynomial(self):
        nodes, weights = gauss_legendre_panels(np.array([0.0, 0.5, 1.0]), 8)
        assert np.dot(weights, nodes ** 7) == pytest.approx(1.0 / 8.0, rel=1e-13)

    def test_log_grid_covers_tail(self):
        nodes, weights = log_panel_grid(1.0, 1e12, panels_per_decade=4,
                                        n_per_panel=10)
        val = float(np.dot(weights, nodes ** -2.0))
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_linear_grid(self):
        nodes, weights = gauss_legendre_panels(np.linspace(0.0, 2.0, 5), 6)
        assert float(np.dot(weights, np.exp(nodes))) == pytest.approx(
            math.expm1(2.0), rel=1e-12)
