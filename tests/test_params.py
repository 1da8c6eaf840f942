import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimosg.errors import ConfigError, DomainError
from mimosg.params import (SystemParams, c_m, dbm_to_watt, default_gamma_shape,
                           default_params, density_from_exclusion,
                           derive_frame, eta_shape, make_params,
                           phase_probabilities, split_frame_real, v_m)

# Reference values computed with a 40-digit log-gamma oracle.
C_M_REFERENCE = {
    1: 0.88622692545275801,
    2: 1.329340388179137,
    64: 7.9843904074837702,
    128: 11.302665376639599,
    10_000: 99.998750007812988,
    1_000_000: 999.99987500000781,
}
ETA_REFERENCE = {
    1: 1.0, 2: 1.414213562373095, 3: 1.6509636244473133,
    4: 1.8072040072196897, 5: 1.9192597481868874, 6: 2.0041451295984074,
    7: 2.070996628837124, 8: 2.1252005594420327, 9: 2.170156536901524,
    10: 2.2081252132060089, 11: 2.2406732477028209, 12: 2.2689233908192352,
}


class TestUnits:
    def test_dbm(self):
        assert dbm_to_watt(45.0) == pytest.approx(31.622776601683793, rel=1e-12)
        assert dbm_to_watt(23.0) == pytest.approx(0.19952623149688796, rel=1e-12)
        assert dbm_to_watt(-200.0) == pytest.approx(1e-23, rel=1e-12)

    def test_default_params_are_linear(self):
        p = default_params()
        assert p.omega == pytest.approx(1e-13, rel=1e-12)
        assert p.omega < 1.0  # attenuation, not gain


class TestDeriveFrame:
    def test_reference_split(self):
        assert derive_frame(40, 10, 2) == (10, 20)

    def test_no_data_symbols(self):
        with pytest.raises(ConfigError):
            derive_frame(40, 40, 2)

    def test_non_integer_split(self):
        with pytest.raises(ConfigError, match="30"):
            derive_frame(30, 10, 2)

    def test_real_split_for_sweeps(self):
        n_u, n_d = split_frame_real(40, 5, 2.0)
        assert n_u + n_d == pytest.approx(35.0)
        assert n_d == pytest.approx(2.0 * n_u)

    @given(n_u=st.integers(1, 50), z=st.integers(1, 5), n_p=st.integers(1, 30))
    def test_roundtrip(self, n_u, z, n_p):
        n_d = z * n_u
        got = derive_frame(n_p + n_u + n_d, n_p, z)
        assert got == (n_u, n_d)


class TestNormConstants:
    @pytest.mark.parametrize("m,expected", sorted(C_M_REFERENCE.items()))
    def test_c_m_reference(self, m, expected):
        assert c_m(m) == pytest.approx(expected, rel=1e-10)

    def test_c_m_does_not_overflow(self):
        assert math.isfinite(c_m(10_000))
        assert math.isfinite(c_m(10_000_000))

    def test_c_m_domain(self):
        with pytest.raises(DomainError):
            c_m(0)

    def test_v_m_values(self):
        assert v_m(1) == pytest.approx(1.0 - math.pi / 4.0, rel=1e-12)
        assert v_m(64) == pytest.approx(0.24950982088115402, rel=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 64, 128, 10_000, 1_000_000])
    def test_identity_and_bounds(self, m):
        c = c_m(m)
        v = v_m(m)
        assert 0.0 < v < 1.0
        assert c < math.sqrt(m)
        assert c * c + v == pytest.approx(m, rel=1e-9)

    def test_v_m_limit(self):
        assert v_m(10_000_000) == pytest.approx(0.25, abs=1e-6)

    @pytest.mark.parametrize("n,expected", sorted(ETA_REFERENCE.items()))
    def test_eta(self, n, expected):
        assert eta_shape(n) == pytest.approx(expected, rel=1e-12)


class TestDensity:
    def test_reference(self):
        assert density_from_exclusion(0.5) == pytest.approx(1.2732395447351628,
                                                            rel=1e-12)

    def test_unit_radius(self):
        assert density_from_exclusion(math.pi ** -0.5) == pytest.approx(1.0)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            density_from_exclusion(0.0)


class TestPhaseProbabilities:
    def test_conditioned_reference(self, params_async):
        tri = phase_probabilities(params_async)
        assert tri == pytest.approx((0.25, 0.25, 0.5))
        assert sum(tri) == pytest.approx(1.0)

    def test_frame_offset_simulation_oracle(self, params_async, rng):
        """Draw uniform integer frame offsets and count phase overlaps; the
        empirical overlap frequencies, given that the observer is in its
        downlink phase, must match the probability triple."""
        p = params_async
        n = 200_000
        # observer symbol uniform over its frame; interferer offset uniform
        obs_sym = rng.integers(0, p.n_tot, size=n)
        off = rng.integers(0, p.n_tot, size=n)
        other_sym = (obs_sym + off) % p.n_tot
        obs_dl = obs_sym >= p.n_p + p.n_u          # frame order: p, u, d
        other_dl = other_sym >= p.n_p + p.n_u
        sig = 3.0 / math.sqrt(n)
        tri = phase_probabilities(p)
        assert abs(np.mean(other_dl[obs_dl]) - tri.downlink) < 2.0 * sig

    def test_pilot_only_frame(self):
        p = make_params(p_d=1.0, p_u=1.0, sigma2=0.0, omega=1e-13, alpha=4.0,
                        m=8, n_tot=42, n_p=40, z=1.0, r_e=0.5, eps=0.0,
                        mode="async")
        tri = phase_probabilities(p)
        assert tri.pilot == pytest.approx(40.0 / 42.0)


class TestSystemParams:
    def test_mode_aliases(self):
        assert default_params("asynchronous").mode == "async"
        assert default_params("synchronous").mode == "sync"

    def test_frame_sum_enforced(self, params_async):
        """n_u and n_d are derived, so they cannot be set apart from the
        frame and always fill it."""
        with pytest.raises(TypeError):
            params_async.with_updates(n_u=11)
        p = params_async.with_updates(n_p=15)
        assert p.n_p + p.n_u + p.n_d == pytest.approx(p.n_tot, rel=1e-15)
        assert p.n_d == pytest.approx(p.z * p.n_u, rel=1e-15)

    def test_frame_parts_at_least_one(self, params_async):
        with pytest.raises(ConfigError, match="frame parts"):
            params_async.with_updates(n_p=39)   # n_u = 1/3

    def test_derived_values_exact(self):
        """lam, n_u and n_d are properties of r_e, n_tot, n_p and z, not
        stored fields."""
        p = default_params()
        assert p.lam == 1.0 / (math.pi * 0.5 * 0.5)
        assert p.n_u == 10
        assert p.n_d == 20
        assert not {"lam", "n_u", "n_d"} & {f.name for f in fields(p)}

    def test_pilot_sweep_by_update(self):
        assert (default_params("sync").with_updates(n_p=15)
                == default_params("sync", n_p=15, strict_frame=False))

    def test_alpha_bound(self, params_async):
        with pytest.raises(ConfigError):
            params_async.with_updates(alpha=2.0)

    def test_eps_range(self, params_async):
        with pytest.raises(ConfigError):
            params_async.with_updates(eps=1.5)

    def test_r0_inside_ball(self, params_async):
        with pytest.raises(ConfigError):
            params_async.with_updates(r0=0.7, r_e=0.5)

    def test_lambda_derived_from_r_e(self):
        p = make_params(p_d=1.0, p_u=1.0, sigma2=0.0, omega=1e-13, alpha=4.0,
                        m=8, n_tot=40, n_p=10, z=2.0, r_e=0.25, eps=0.0,
                        mode="sync")
        assert p.lam == pytest.approx(density_from_exclusion(0.25))

    def test_k_equals_pilot_length(self, params_async):
        assert params_async.k == params_async.n_p == 10

    def test_default_gamma_shape(self):
        assert default_gamma_shape("async") == 1
        assert default_gamma_shape("sync") == 4

    def test_immutable(self, params_async):
        with pytest.raises(AttributeError):
            params_async.m = 3

    def test_hashable_for_caching(self, params_async):
        assert isinstance(hash(params_async), int)
