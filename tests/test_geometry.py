import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from mimosg import _kernels
from mimosg.errors import DomainError, RealizationError
from mimosg.geometry import (NetworkRealization, build_network, sample_hppp,
                             serving_cdf, serving_given_bs_cdf,
                             serving_given_bs_pdf, serving_given_bs_sample,
                             serving_given_user_pair_cdf,
                             serving_given_user_pair_pdf,
                             serving_given_user_pair_sample, serving_pdf,
                             serving_sample)
from mimosg.params import default_params
from reference_sinr import central_cells, extract_bundle

LAM = 1.2732395447351628   # exclusion ball radius 0.5 km
R0 = 0.05


def ks_distance(sample, cdf) -> float:
    sample = np.sort(np.asarray(sample))
    grid = cdf(sample)
    n = sample.size
    return float(max(np.max(np.arange(1, n + 1) / n - grid),
                     np.max(grid - np.arange(0, n) / n)))


class TestTruncatedRayleighCore:
    @given(lam=st.floats(0.05, 20.0), lo=st.floats(0.01, 2.0),
           width=st.floats(0.05, 5.0))
    def test_cdf_support_edges(self, lam, lo, width):
        # the interior value may round to exactly 1.0 when the remaining
        # tail mass is below float resolution, so only monotone bounds hold
        from mimosg.geometry import trunc_rayleigh_cdf
        hi = lo + width
        mid = 0.5 * (lo + hi)
        assert trunc_rayleigh_cdf(lo, lam, lo, hi) == 0.0
        assert trunc_rayleigh_cdf(hi, lam, lo, hi) == 1.0
        c = trunc_rayleigh_cdf(mid, lam, lo, hi)
        assert 0.0 < c <= 1.0
        assert np.isfinite(c)

    @given(lam=st.floats(0.05, 20.0), lo=st.floats(0.01, 2.0),
           width=st.floats(0.05, 5.0), seed=st.integers(0, 2 ** 31))
    def test_sampler_lands_in_support(self, lam, lo, width, seed):
        from mimosg.geometry import trunc_rayleigh_sample
        hi = lo + width
        r = trunc_rayleigh_sample(lam, lo, hi,
                                  np.random.default_rng(seed), size=8)
        assert np.all((r >= lo) & (r < hi))
        assert np.all(np.isfinite(r))


class TestHppp:
    def test_zero_density(self, rng):
        assert len(sample_hppp(0.0, 4.0, rng)) == 0

    def test_count_statistics(self):
        rng = np.random.default_rng(7)
        mean = LAM * 16.0
        draws = np.array([len(sample_hppp(LAM, 4.0, rng)) for _ in range(10_000)])
        # 3 sigma of the averaged Poisson count
        assert abs(draws.mean() - mean) < 3.0 * math.sqrt(mean / 10_000)

    def test_seed_replay(self):
        a = sample_hppp(LAM, 4.0, np.random.default_rng(5))
        b = sample_hppp(LAM, 4.0, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_window_containment(self, rng):
        pts = sample_hppp(10.0, 2.0, rng)
        assert np.all((pts >= 0.0) & (pts <= 2.0))

    def test_invalid_window(self, rng):
        with pytest.raises(DomainError):
            sample_hppp(1.0, 0.0, rng)


class TestServingLaw:
    def test_normalization(self):
        val = quad(lambda r: serving_pdf(r, LAM, R0), R0, np.inf,
                   epsabs=0.0, epsrel=1e-12)[0]
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_support(self):
        assert serving_pdf(R0 / 2.0, LAM, R0) == 0.0

    def test_median(self, rng):
        median = math.sqrt(R0 ** 2 + math.log(2.0) / (math.pi * LAM))
        assert median == pytest.approx(0.41926935869436766, rel=1e-12)
        sample = serving_sample(LAM, R0, rng, size=200_000)
        assert np.median(sample) == pytest.approx(median, rel=5e-3)
        assert serving_cdf(median, LAM, R0) == pytest.approx(0.5, rel=1e-12)

    def test_sampler_matches_cdf(self, rng):
        sample = serving_sample(LAM, R0, rng, size=100_000)
        assert ks_distance(sample, lambda r: serving_cdf(r, LAM, R0)) < 0.02


class TestServingGivenStation:
    def test_normalization(self):
        r2 = 0.9
        val = quad(lambda r: serving_given_bs_pdf(r, r2, LAM, R0), R0, r2,
                   epsabs=0.0, epsrel=1e-12)[0]
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_support(self):
        assert serving_given_bs_pdf(0.95, 0.9, LAM, R0) == 0.0
        assert serving_given_bs_pdf(0.04, 0.9, LAM, R0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            serving_given_bs_pdf(0.1, R0 / 2.0, LAM, R0)

    def test_unbounded_limit_recovers_serving_law(self):
        r = np.linspace(0.06, 2.0, 50)
        far = serving_given_bs_pdf(r, 50.0, LAM, R0)
        base = serving_pdf(r, LAM, R0)
        np.testing.assert_allclose(far, base, atol=1e-6)

    def test_against_rejection_oracle(self, rng):
        # rejection route: draw the unconditional law, keep draws below r2
        r2 = 0.8
        raw = serving_sample(LAM, R0, rng, size=400_000)
        oracle = raw[raw < r2][:100_000]
        direct = serving_given_bs_sample(r2, LAM, R0, rng, size=oracle.size)
        cdf = lambda r: serving_given_bs_cdf(r, r2, LAM, R0)
        assert ks_distance(direct, cdf) < 0.01
        assert ks_distance(oracle, cdf) < 0.01


class TestServingGivenUserPair:
    X, R = 1.0, 0.2

    def test_support_and_normalization(self):
        lo = max(R0, self.X - self.R)
        hi = self.X + self.R
        pdf = lambda s: serving_given_user_pair_pdf(s, self.R, self.X, LAM, R0)
        assert pdf(lo - 1e-6) == 0.0
        assert pdf(hi + 1e-6) == 0.0
        val = quad(pdf, lo, hi, epsabs=0.0, epsrel=1e-12)[0]
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            serving_given_user_pair_pdf(0.5, 0.2, R0 / 2.0, LAM, R0)

    def test_sampler_mean_matches_quadrature(self, rng):
        lo = max(R0, self.X - self.R)
        hi = self.X + self.R
        mean = quad(lambda s: s * serving_given_user_pair_pdf(
            s, self.R, self.X, LAM, R0), lo, hi, epsabs=0.0, epsrel=1e-12)[0]
        sample = serving_given_user_pair_sample(self.R, self.X, LAM, R0, rng,
                                                size=100_000)
        assert sample.mean() == pytest.approx(mean, rel=5e-3)

    def test_samples_respect_triangle_support(self, rng):
        # every draw obeys max(r0, x-r) < s < x+r
        for (r, x) in [(0.2, 1.0), (0.8, 0.3), (0.04, 0.06)]:
            s = serving_given_user_pair_sample(r, x, LAM, R0, rng, size=5000)
            assert np.all(s > max(R0, x - r))
            assert np.all(s < x + r)

    def test_narrow_support_stability(self, rng):
        # far tail: both exponentials underflow naive forms
        s = serving_given_user_pair_sample(0.01, 3.0, LAM, R0, rng, size=1000)
        assert np.all((s > 2.99) & (s < 3.01))
        assert np.all(np.isfinite(s))

    def test_conditional_samplers_deterministic(self):
        a2 = serving_given_bs_sample(0.8, LAM, R0,
                                     np.random.default_rng(4), size=16)
        b2 = serving_given_bs_sample(0.8, LAM, R0,
                                     np.random.default_rng(4), size=16)
        np.testing.assert_array_equal(a2, b2)
        a3 = serving_given_user_pair_sample(0.2, 1.0, LAM, R0,
                                            np.random.default_rng(4), size=16)
        b3 = serving_given_user_pair_sample(0.2, 1.0, LAM, R0,
                                            np.random.default_rng(4), size=16)
        np.testing.assert_array_equal(a3, b3)


class TestNetwork:
    def test_invariants(self, params_async, rng):
        net = build_network(params_async, 4.0, rng)
        assert net.valid.all()
        assert net.users.shape == (net.n_bs, 10, 2)
        # serving distance beyond the exclusion disk, association = nearest
        for j in range(net.n_bs):
            d = np.linalg.norm(net.users[j] - net.bs[j], axis=1)
            np.testing.assert_allclose(d, net.serving[j], rtol=1e-12)
            assert np.all(d > params_async.r0)
            full = np.linalg.norm(net.users[j][:, None, :] - net.bs[None, :, :],
                                  axis=2)
            np.testing.assert_array_equal(full.argmin(axis=1), j)

    def test_no_rejection_without_exclusion(self, rng):
        p = default_params("async").with_updates(r0=1e-9)
        net = build_network(p, 3.0, rng)
        assert net.valid.all()

    def test_zero_stations_raises(self):
        p = default_params("async")
        rng = np.random.default_rng(0)

        class Empty:
            def poisson(self, lam):
                return 0

            def random(self, *a, **k):
                return rng.random(*a, **k)

        with pytest.raises(RealizationError):
            build_network(p, 4.0, Empty())

    def test_seed_replay(self, params_async):
        a = build_network(params_async, 4.0, np.random.default_rng(3))
        b = build_network(params_async, 4.0, np.random.default_rng(3))
        np.testing.assert_array_equal(a.bs, b.bs)
        np.testing.assert_array_equal(a.users, b.users)

    def test_serving_distances_follow_closed_form(self, params_async):
        """Users of the cell covering a fixed point are typical locations,
        so their serving distances must follow the closed-form law. This
        cross-validates the simulator and the law against each other."""
        rng = np.random.default_rng(99)
        centre = np.array([2.0, 2.0])
        dists = []
        total = 0
        while total < 100_000:
            net = build_network(params_async, 4.0, rng)
            j = int(np.argmin(np.linalg.norm(net.bs - centre, axis=1)))
            if net.valid[j]:
                dists.append(net.serving[j])
                total += net.serving[j].size
        sample = np.concatenate(dists)[:100_000]
        ks = ks_distance(sample, lambda r: serving_cdf(
            r, params_async.lam, params_async.r0))
        assert ks < 0.02

    def test_equal_count_population_is_biased(self, params_async):
        """Pooling a fixed user count from every cell weights cells equally
        instead of by area and measurably shortens serving distances; this
        pins why the measurement population is the centre cell only."""
        rng = np.random.default_rng(99)
        dists = []
        while sum(d.size for d in dists) < 40_000:
            net = build_network(params_async, 4.0, rng)
            cells = central_cells(net, 1.0)
            if cells.size:
                dists.append(net.serving[cells].ravel())
        sample = np.concatenate(dists)[:40_000]
        ks = ks_distance(sample, lambda r: serving_cdf(
            r, params_async.lam, params_async.r0))
        assert 0.04 < ks < 0.12
        median_law = math.sqrt(params_async.r0 ** 2
                               + math.log(2.0) / params_async.pi_lam)
        assert np.median(sample) < median_law  # stochastically shorter


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


class TestGoldenRealizations:
    """Seeded realizations pinned bit for bit (SHA-256 of the raw float64
    bytes, NaN rows included). Any change to the order of random draws,
    to the nearest-station arithmetic or to which points fill a cell
    (the first K eligible ones in draw order) moves these digests."""

    # mode, window, seed, attempts_per_cell, r0 override, n_bs,
    # invalid cells, nearest-station batches, digests of bs/users/serving,
    # serving[0, 0]
    CASES = {
        "async-4km": ("async", 4.0, 0, 10_000, {}, 22, [], 1,
                      "67efe2bdc0275259", "cb7f043a5faf363c",
                      "54f7c2f739a3fff5", 0.7718446515680116),
        "sync-8km-three-batches": (
            "sync", 8.0, 0, 10_000, {}, 85, [], 3,
            "3cbd2ce6654803dd", "a29a2fb94f5bea52", "138c3738068abefb",
            0.5031967620092987),
        # one batch only: cells 4 and 12 end partly filled, 25 and 28 empty
        "async-4km-short-budget": (
            "async", 4.0, 4, 1, {"r0": 0.3}, 30, [4, 12, 25, 28], 1,
            "49fe0e84c9ba643f", "9f588b76c030131b", "04c29d4d4db86142",
            0.3529857300887313),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_seeded_output_is_pinned(self, case, monkeypatch):
        (mode, window, seed, attempts, over, n_bs, invalid, batches,
         h_bs, h_users, h_serving, s00) = self.CASES[case]
        calls = []
        real = _kernels.nearest_bs
        monkeypatch.setattr(_kernels, "nearest_bs",
                            lambda pts, bs: calls.append(1) or real(pts, bs))
        p = default_params(mode, m=64, eps=0.5, **over)
        net = build_network(p, window, np.random.default_rng(seed),
                            attempts_per_cell=attempts)
        assert len(calls) == batches
        assert net.n_bs == n_bs
        assert np.flatnonzero(~net.valid).tolist() == invalid
        assert np.isnan(net.users[~net.valid]).all()
        assert np.isnan(net.serving[~net.valid]).all()
        assert np.isfinite(net.users[net.valid]).all()
        assert net.serving[0, 0] == s00
        assert (_digest(net.bs), _digest(net.users),
                _digest(net.serving)) == (h_bs, h_users, h_serving)


class TestBundle:
    def test_brute_force_distances(self, params_async, rng):
        net = build_network(params_async, 4.0, rng)
        cell = int(central_cells(net, 1.0)[0])
        b = extract_bundle(net, cell, 3, margin=1.0)
        pos = net.users[cell, 3]
        for row, j in enumerate(b.other_cells):
            assert b.bs_to_user[row] == pytest.approx(
                np.linalg.norm(net.bs[j] - pos), rel=1e-12)
            assert b.bs_to_bs[row] == pytest.approx(
                np.linalg.norm(net.bs[j] - net.bs[cell]), rel=1e-12)
            for k in range(net.k):
                assert b.user_to_user[row, k] == pytest.approx(
                    np.linalg.norm(net.users[j, k] - pos), rel=1e-12)
                assert b.cross_to_desired_bs[row, k] == pytest.approx(
                    np.linalg.norm(net.users[j, k] - net.bs[cell]), rel=1e-12)

    def test_triangle_and_association_inequalities(self, params_async, rng):
        net = build_network(params_async, 4.0, rng)
        for cell in central_cells(net, 1.0)[:3]:
            for k in range(3):
                b = extract_bundle(net, int(cell), k, margin=1.0)
                assert np.all(b.cross_serving < b.cross_to_desired_bs)
                assert np.all(b.cross_to_desired_bs < b.user_to_user + b.x)
                assert np.all(b.cross_serving > params_async.r0)
                assert b.x > params_async.r0

    def test_sorted_by_distance(self, params_async, rng):
        net = build_network(params_async, 4.0, rng)
        cell = int(central_cells(net, 1.0)[0])
        b = extract_bundle(net, cell, 0, margin=1.0)
        assert np.all(np.diff(b.bs_to_user) >= 0)

    def test_skip_signal_outside_central_region(self, params_async, rng):
        net = build_network(params_async, 4.0, rng)
        central = set(central_cells(net, 1.0).tolist())
        border = [j for j in range(net.n_bs) if j not in central]
        if border:
            assert extract_bundle(net, border[0], 0, margin=1.0) is None

    def test_single_cell_bundle_empty(self, params_async):
        rng = np.random.default_rng(12)
        bs = np.array([[2.0, 2.0]])
        users = 2.0 + 0.2 * rng.random((1, 10, 2))
        serving = np.linalg.norm(users[0] - bs[0], axis=1).reshape(1, 10)
        net = NetworkRealization(bs=bs, users=users, serving=serving,
                                 valid=np.array([True]), window=4.0)
        b = extract_bundle(net, 0, 0, margin=1.0)
        assert b.n_other == 0
        assert b.user_to_user.shape == (0, 10)
