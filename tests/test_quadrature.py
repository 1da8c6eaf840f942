import math

import numpy as np
import pytest

from mimosg.errors import QuadratureError
from mimosg.quadrature import (DEFAULT_QUAD, QuadratureConfig,
                               gauss_legendre_panels, linear_panel_grid,
                               log_panel_grid, quad_1d, quad_2d,
                               truncate_upper_limit)

# pi*lam*r0^2 for the reference geometry; the upper incomplete gamma
# Gamma(2, 0.01) computed with a 40-digit oracle.
A0 = 0.01
GAMMA2_UPPER_A0 = 0.99995033208665973


class TestQuad1d:
    def test_exponential(self):
        assert quad_1d(lambda t: np.exp(-t), 0.0, np.inf) == pytest.approx(
            1.0, rel=1e-9)

    def test_first_moment(self):
        assert quad_1d(lambda t: t * np.exp(-t), 0.0, np.inf) == pytest.approx(
            1.0, rel=1e-9)

    def test_incomplete_gamma_closed_form(self):
        # inner integrand of the cross-moment at alpha*eps/2 = 1
        val = quad_1d(lambda s: s * np.exp(-s), A0, np.inf)
        assert val == pytest.approx(GAMMA2_UPPER_A0, abs=1e-8)

    def test_finite_interval(self):
        assert quad_1d(np.cos, 0.0, math.pi / 2) == pytest.approx(1.0, rel=1e-12)

    def test_reversed_limits(self):
        assert quad_1d(np.cos, math.pi / 2, 0.0) == pytest.approx(-1.0, rel=1e-12)

    def test_empty_interval(self):
        assert quad_1d(np.exp, 1.0, 1.0) == 0.0

    def test_deterministic_replay(self):
        f = lambda t: np.exp(-t) * np.sin(7.0 * t) ** 2
        a = quad_1d(f, 0.0, np.inf)
        b = quad_1d(f, 0.0, np.inf)
        assert a == b  # bit-identical

    def test_nonconvergence_raises_with_diagnostics(self):
        cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300, max_depth=4)
        with pytest.raises(QuadratureError) as err:
            quad_1d(lambda t: np.abs(np.sin(1.0 / (t + 1e-8))), 0.0, 1.0, cfg)
        assert err.value.estimate is not None
        assert err.value.intervals is not None

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-12])
    def test_error_estimate_is_scale_free(self, scale):
        # sin^2(30x) e^(-x/3) on [0, 10] in closed form; an error estimate
        # that grows like |K15 - G7|^1.5 stops splitting early on small
        # integrands (relative error 0.36 at scale 1e-12)
        a, b, top = 1.0 / 3.0, 60.0, 10.0
        z = complex(-a, b)
        exact = scale * (0.5 * (1.0 - math.exp(-a * top)) / a
                         - 0.5 * ((np.exp(z * top) - 1.0) / z).real)

        def f(x):
            return scale * np.sin(30.0 * x) ** 2 * np.exp(-x / 3.0)

        got = quad_1d(f, 0.0, top)
        tol = max(DEFAULT_QUAD.abs_tol, DEFAULT_QUAD.rel_tol * exact)
        assert abs(got - exact) <= tol
        relative_only = QuadratureConfig(abs_tol=1e-300)
        got = quad_1d(f, 0.0, top, relative_only)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_truncation_requires_decay(self):
        with pytest.raises(QuadratureError):
            truncate_upper_limit(lambda t: np.ones_like(np.asarray(t)), 0.0)


class TestQuad2d:
    def test_separable(self):
        val = quad_2d(lambda s, t: np.exp(-s) * np.exp(-t), 0.0, np.inf,
                      0.0, np.inf)
        assert val == pytest.approx(1.0, rel=1e-7)

    def test_triangular_domain(self):
        # int_0^1 int_0^s 1 dt ds = 1/2
        val = quad_2d(lambda s, t: np.ones_like(np.asarray(t)), 0.0, 1.0,
                      0.0, lambda s: s)
        assert val == pytest.approx(0.5, rel=1e-9)


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
        nodes, weights = linear_panel_grid(0.0, 2.0, 4, 6)
        assert float(np.dot(weights, np.exp(nodes))) == pytest.approx(
            math.expm1(2.0), rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        assert DEFAULT_QUAD.truncation_mass <= 1e-8
