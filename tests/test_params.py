import math
from dataclasses import fields
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import gammaln

from mimosg.errors import ConfigError, DomainError
from mimosg.params import (SystemParams, c_m, dbm_to_watt, default_gamma_shape,
                           default_params, density_from_exclusion, eta_shape,
                           frame_weights, split_frame_real, v_m)

PI_50 = "3.14159265358979323846264338327950288419716939937510"
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
    """The frame split of split_frame_real, which SystemParams derives
    n_u and n_d with."""

    def test_no_data_symbols(self):
        with pytest.raises(ConfigError, match="no data symbols"):
            split_frame_real(40, 40, 2)

    def test_real_split_for_sweeps(self):
        n_u, n_d = split_frame_real(40, 5, 2.0)
        assert n_u + n_d == pytest.approx(35.0)
        assert n_d == pytest.approx(2.0 * n_u)


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
        with pytest.raises(DomainError):
            c_m(2.5)

    @pytest.mark.parametrize("m", [*range(1, 65), 128, 512, 4096, 10_000,
                                   20_000])
    def test_c_m_within_two_ulp_of_exact_form(self, m):
        """Against sqrt(pi) M C(2M, M) / 4^M in 50-digit arithmetic; both
        the closed form and the asymptotic series are covered."""
        with localcontext() as ctx:
            ctx.prec = 50
            exact = (Decimal(PI_50).sqrt() * (m * math.comb(2 * m, m))
                     / Decimal(4) ** m)
            got = c_m(m)
            assert abs(Decimal(got) - exact) <= 2 * Decimal(math.ulp(got))

    @pytest.mark.parametrize("m", [10 ** 5, 10 ** 6, 10 ** 7])
    def test_c_m_follows_sqrt_m_asymptote(self, m):
        c = c_m(m)
        assert math.isfinite(c)
        assert c == pytest.approx(
            math.sqrt(m) * (1.0 - 1.0 / (8 * m) + 1.0 / (128 * m * m)),
            rel=1e-15)

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

    @pytest.mark.parametrize("n", range(1, 17))
    def test_eta_against_scipy_gammaln(self, n):
        assert eta_shape(n) == pytest.approx(
            n * math.exp(-gammaln(n + 1) / n), rel=1e-15, abs=0.0)


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
        tri = frame_weights(params_async).phases
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
        tri = frame_weights(p).phases
        assert abs(np.mean(other_dl[obs_dl]) - tri.downlink) < 2.0 * sig

    def test_sync_is_all_downlink(self, params_sync):
        """Synchronous, every interfering cell shares the observer's
        downlink phase."""
        tri = frame_weights(params_sync).phases
        assert tri == (0.0, 0.0, 1.0)
        assert (tri.pilot, tri.uplink, tri.downlink) == (0.0, 0.0, 1.0)

    def test_pilot_only_frame(self):
        p = SystemParams(p_d=1.0, p_u=1.0, sigma2=0.0, omega=1e-13, alpha=4.0,
                         m=8, n_tot=42, n_p=40, z=1.0, r_e=0.5, eps=0.0,
                         mode="async", r0=0.05)
        tri = frame_weights(p).phases
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
                == default_params("sync", n_p=15))

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
        p = SystemParams(p_d=1.0, p_u=1.0, sigma2=0.0, omega=1e-13, alpha=4.0,
                         m=8, n_tot=40, n_p=10, z=2.0, r_e=0.25, eps=0.0,
                         mode="sync", r0=0.05)
        assert p.lam == pytest.approx(density_from_exclusion(0.25))

    def test_default_gamma_shape(self):
        assert default_gamma_shape("async") == 1
        assert default_gamma_shape("sync") == 4

    def test_immutable(self, params_async):
        with pytest.raises(AttributeError):
            params_async.m = 3

    def test_hashable_for_caching(self, params_async):
        assert isinstance(hash(params_async), int)

    def test_frame_weights(self):
        """Synchronous, every weight is exactly 1, one user per pilot group
        and no station-to-station weight; asynchronous, the frame
        fractions of the reference frame n_p = n_u = 10, n_d = 20 of 40."""
        sync = frame_weights(default_params("sync"))
        assert sync == (1, 1, 1, 0, (0, 0, 1))
        assert sync.bs == 0.0 and sync.users == 1
        fw = frame_weights(default_params("async"))
        assert fw.f_w == (10 + 10) / 40 ** 2 == 0.0125
        assert fw.rho2 == 20 ** 2 / 40 ** 2 == 0.25
        assert fw.users == 10
        assert fw.bs == 20
