"""Per-link statistics: the Monte Carlo phase draw, and the scalar
one-user SINR reference of ``reference_sinr`` against naive re-derivations
and closed forms."""
import numpy as np
import pytest

from mimosg.errors import DomainError
from mimosg.geometry import NetworkRealization, build_network
from mimosg.montecarlo import (PHASE_DOWNLINK, PHASE_PILOT, PHASE_UPLINK,
                               draw_phases)
from mimosg.params import c_m, default_params, frame_weights, v_m
from reference_sinr import (DeltaSet, central_cells, chi_dd,
                            chi_pilot_or_uplink, compute_delta, delta1,
                            extract_bundle, inverse_sinr, isolated_cell_sinr,
                            run_kernels)


def make_isolated(params, seed=5, window=4.0):
    """Single-station network with all users in the central region."""
    rng = np.random.default_rng(seed)
    bs = np.array([[window / 2, window / 2]])
    r = params.r0 + 0.3 * rng.random((1, params.n_p))
    ang = 2.0 * np.pi * rng.random((1, params.n_p))
    users = bs[:, None, :] + np.stack([r * np.cos(ang), r * np.sin(ang)], -1)
    return NetworkRealization(bs=bs, users=users, serving=r,
                              valid=np.array([True]), window=window)


def deltas_for(net, params):
    run = run_kernels(net, params, int(net.valid.argmax()),
                      np.full(net.n_bs, PHASE_DOWNLINK, np.int8))
    table = np.full((net.n_bs, params.n_p), np.nan)
    table[run.user_cell, run.pilot_slot] = run.deltas
    return table


def path_gain(r, p):
    """beta = omega r^-alpha, r in km."""
    return p.omega * r ** -p.alpha


def uplink_power(r, p):
    """Fractional power control p_u beta^-eps at serving distance r."""
    return p.p_u * path_gain(r, p) ** -p.eps


def delta_set_for(bundle, table):
    return DeltaSet(tagged=table[bundle.cell_index, bundle.pilot_index],
                    other=table[bundle.other_cells])


class TestDrawPhases:
    def test_sync_degenerate(self, params_sync, rng):
        ph = draw_phases(params_sync, 12, rng)
        assert np.all(ph == PHASE_DOWNLINK)
        assert not chi_pilot_or_uplink(ph).any()

    def test_async_frequencies(self, params_async, rng):
        n = 100_000
        ph = draw_phases(params_async, n, rng)
        for code, p_exp in [(PHASE_PILOT, 0.25), (PHASE_UPLINK, 0.25),
                            (PHASE_DOWNLINK, 0.5)]:
            freq = np.mean(ph == code)
            sigma = np.sqrt(p_exp * (1 - p_exp) / n)
            assert abs(freq - p_exp) < 3.0 * sigma

    def test_seed_determinism(self, params_async):
        a = draw_phases(params_async, 50, np.random.default_rng(8))
        b = draw_phases(params_async, 50, np.random.default_rng(8))
        np.testing.assert_array_equal(a, b)

    def test_async_draw_matches_weighted_choice(self, params_async):
        """The phase draw is rng.choice(3, p=...) value for value, and it
        leaves the generator at the same next draw."""
        probs = list(frame_weights(params_async).phases)
        for seed in range(50):
            for n in range(65):
                mine = np.random.default_rng((seed, n))
                ref = np.random.default_rng((seed, n))
                got = draw_phases(params_async, n, mine)
                want = ref.choice(3, size=n, p=probs)
                assert got.dtype == np.int8
                assert got.tolist() == want.tolist()
                assert mine.random() == ref.random()

    def test_sync_draw_is_the_downlink_law(self, params_sync):
        """The synchronous draw runs the same categorical draw on the law
        (0, 0, 1): every cell downlink, value for value what
        rng.choice(3, p=...) gives, with the generator left at the same
        next draw."""
        probs = list(frame_weights(params_sync).phases)
        assert probs == [0.0, 0.0, 1.0]
        for seed in range(20):
            for n in (0, 1, 12, 64):
                mine = np.random.default_rng((seed, n))
                ref = np.random.default_rng((seed, n))
                got = draw_phases(params_sync, n, mine)
                want = ref.choice(3, size=n, p=probs)
                assert got.dtype == np.int8
                assert got.tolist() == want.tolist() == [PHASE_DOWNLINK] * n
                assert mine.random() == ref.random()

    def test_indicator_views(self, params_async, rng):
        ph = draw_phases(params_async, 1000, rng)
        np.testing.assert_array_equal(chi_dd(ph) | chi_pilot_or_uplink(ph),
                                      np.ones(1000, dtype=bool))


class TestDelta:
    def test_isolated_closed_form(self):
        p = default_params("async", eps=0.5)
        net = make_isolated(p)
        b = extract_bundle(net, 0, 2, margin=1.0)
        expected = (p.p_u * p.omega ** 0.5 * b.x ** (-p.alpha * 0.5)
                    + p.sigma2 / p.n_p)
        assert compute_delta(b, p) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mode", ["async", "sync"])
    def test_brute_force_oracle(self, mode, rng):
        p = default_params(mode, eps=0.5)
        net = build_network(p, 4.0, rng)
        cell = int(central_cells(net, 1.0)[0])
        b = extract_bundle(net, cell, 4, margin=1.0)
        val = compute_delta(b, p)

        # naive term-by-term accumulation, scalar loops
        acc = uplink_power(b.x, p) * path_gain(b.x, p)
        for row in range(b.n_other):
            for k in range(p.n_p):
                if mode == "sync" and k != b.pilot_index:
                    continue
                pw = uplink_power(b.cross_serving[row, k], p)
                beta = path_gain(b.cross_to_desired_bs[row, k], p)
                if mode == "sync":
                    acc += pw * beta
                else:
                    acc += (p.n_p + p.n_u) / p.n_tot ** 2 * pw * beta
        if mode == "async":
            for row in range(b.n_other):
                acc += (p.p_d * p.n_p * p.n_d / p.n_tot ** 2
                        * path_gain(b.bs_to_bs[row], p))
        acc += p.sigma2 / p.n_p
        assert val == pytest.approx(acc, rel=1e-12)

    def test_kernel_matches_bundle(self, rng):
        for mode in ("async", "sync"):
            p = default_params(mode, eps=0.5)
            net = build_network(p, 4.0, rng)
            table = deltas_for(net, p)
            for cell in central_cells(net, 1.0)[:2]:
                for k in (0, 7):
                    b = extract_bundle(net, int(cell), k, margin=1.0)
                    assert compute_delta(b, p) == pytest.approx(
                        table[cell, k], rel=1e-12)

    def test_delta_floor(self, rng):
        p = default_params("async", eps=0.0)
        net = build_network(p, 4.0, rng)
        cell = int(central_cells(net, 1.0)[0])
        b = extract_bundle(net, cell, 0, margin=1.0)
        floor = uplink_power(b.x, p) * path_gain(b.x, p) + p.sigma2 / p.n_p
        assert compute_delta(b, p) >= floor


class TestDelta1:
    def test_isolated_noise_free_is_zero(self):
        p = default_params("async", eps=0.5, sigma2=0.0)
        net = make_isolated(p)
        b = extract_bundle(net, 0, 0, margin=1.0)
        assert delta1(compute_delta(b, p), b.x, p) == pytest.approx(0.0, abs=1e-9)

    def test_definitional_arithmetic(self, params_async, rng):
        p = params_async
        net = build_network(p, 4.0, rng)
        b = extract_bundle(net, int(central_cells(net, 1.0)[0]), 1, margin=1.0)
        d = compute_delta(b, p)
        expected = d / (p.p_u * p.omega ** (1 - p.eps)) - b.x ** (-p.alpha)
        assert delta1(d, b.x, p) == pytest.approx(expected, rel=1e-12)

    def test_full_control_collapses_omega(self):
        p = default_params("async", eps=1.0)
        assert delta1(3.0, 0.4, p) == pytest.approx(3.0 / p.p_u - 1.0)


class TestInverseSinr:
    def test_isolated_noise_free_closed_form(self):
        p = default_params("async", m=64, eps=0.5, sigma2=0.0)
        net = make_isolated(p)
        b = extract_bundle(net, 0, 0, margin=1.0)
        table = deltas_for(net, p)
        inv = inverse_sinr(b, np.zeros(0, np.int8),
                           delta_set_for(b, table), p)
        assert inv.gamma2 == 0.0 and inv.gamma3 == 0.0
        assert inv.sinr == pytest.approx(6.8923101238510452, rel=1e-9)
        assert inv.sinr == pytest.approx(isolated_cell_sinr(64, 10), rel=1e-12)

    def test_sync_gamma3_zero(self, rng):
        p = default_params("sync", eps=0.5)
        net = build_network(p, 4.0, rng)
        b = extract_bundle(net, int(central_cells(net, 1.0)[0]), 0, margin=1.0)
        table = deltas_for(net, p)
        ph = np.full(b.n_other, PHASE_DOWNLINK, np.int8)
        inv = inverse_sinr(b, ph, delta_set_for(b, table), p)
        assert inv.gamma3 == 0.0
        assert inv.gamma1 > 0.0 and inv.gamma2 > 0.0

    @pytest.mark.parametrize("mode,eps", [("async", 0.0), ("async", 0.5),
                                          ("sync", 0.5)])
    def test_independent_rederivation(self, mode, eps, rng):
        """Naive scalar re-accumulation of every summand, in reversed order."""
        p = default_params(mode, m=64, eps=eps)
        net = build_network(p, 4.0, rng)
        b = extract_bundle(net, int(central_cells(net, 1.0)[0]), 3, margin=1.0)
        table = deltas_for(net, p)
        dset = delta_set_for(b, table)
        rng2 = np.random.default_rng(17)
        ph = draw_phases(p, b.n_other, rng2)
        inv = inverse_sinr(b, ph, dset, p)

        c = c_m(p.m)
        c2 = c * c
        x = b.x
        g1 = (v_m(p.m) - 1.0) / c2 + p.n_p / c2
        g1 += p.sigma2 * x ** p.alpha / (p.p_d * p.omega * c2)
        g1 += (p.sigma2 * x ** (p.alpha * (1 - p.eps))
               / (p.p_u * c2 * p.omega ** (1 - p.eps)))
        g1 += (p.sigma2 ** 2 * x ** (p.alpha * (2 - p.eps))
               / (p.n_p * p.p_u * p.p_d * c2 * p.omega ** (2 - p.eps)))
        pref = (x ** (p.alpha * (1 - p.eps)) / c2) * (
            p.n_p + p.sigma2 * x ** p.alpha / (p.p_d * p.omega))
        cross = 0.0
        rows = list(range(b.n_other))[::-1]
        if mode == "sync":
            for r in rows:
                cross += (b.cross_serving[r, b.pilot_index] ** (p.alpha * p.eps)
                          * b.cross_to_desired_bs[r, b.pilot_index] ** -p.alpha)
            g1 += pref * cross
        else:
            for r in rows:
                for k in range(p.n_p)[::-1]:
                    cross += (b.cross_serving[r, k] ** (p.alpha * p.eps)
                              * b.cross_to_desired_bs[r, k] ** -p.alpha)
            bsbs = sum(b.bs_to_bs[r] ** -p.alpha for r in rows)
            g1 += pref * ((p.n_p + p.n_u) / p.n_tot ** 2 * cross
                          + p.p_d * p.n_p * p.n_d
                          / (p.p_u * p.omega ** -p.eps * p.n_tot ** 2) * bsbs)

        d1 = dset.tagged / (p.p_u * p.omega ** (1 - p.eps)) - x ** (-p.alpha * (1 - p.eps))
        amp = x ** p.alpha + x ** (p.alpha * (2 - p.eps)) * d1
        g2 = 0.0
        g3 = 0.0
        for r in rows:
            rj = b.bs_to_user[r]
            if mode == "sync":
                g2 += (p.n_p / c2) * amp * rj ** -p.alpha
                g2 += ((p.m - 1) / c2) * x ** (2 * p.alpha) \
                    * (dset.tagged / dset.other[r, b.pilot_index]) \
                    * rj ** (-2 * p.alpha)
            else:
                if ph[r] == PHASE_DOWNLINK:
                    g2 += (p.n_p / c2) * amp * rj ** -p.alpha
                    ratio = sum(dset.tagged / dset.other[r, k]
                                for k in range(p.n_p))
                    g2 += ((p.m - 1) / c2) * x ** (2 * p.alpha) \
                        * (p.n_p + p.n_u) / p.n_tot ** 2 * ratio \
                        * rj ** (-2 * p.alpha)
                else:
                    for k in range(p.n_p):
                        g3 += (b.cross_serving[r, k] ** (p.alpha * p.eps)
                               * b.user_to_user[r, k] ** -p.alpha)
        g3 *= amp * p.p_u / (p.p_d * p.omega ** p.eps * c2)

        assert inv.gamma1 == pytest.approx(g1, rel=1e-10)
        assert inv.gamma2 == pytest.approx(g2, rel=1e-10)
        if mode == "async":
            assert inv.gamma3 == pytest.approx(g3, rel=1e-10)

    def test_monotone_in_interferers(self, rng):
        """Dropping the farthest interfering cell never raises the total."""
        p = default_params("async", eps=0.5)
        net = build_network(p, 4.0, rng)
        b = extract_bundle(net, int(central_cells(net, 1.0)[0]), 0, margin=1.0)
        table = deltas_for(net, p)
        ph = draw_phases(p, b.n_other, np.random.default_rng(3))
        full = inverse_sinr(b, ph, delta_set_for(b, table), p)

        import dataclasses
        trimmed = dataclasses.replace(
            b, other_cells=b.other_cells[:-1], bs_to_user=b.bs_to_user[:-1],
            bs_to_bs=b.bs_to_bs[:-1], cross_serving=b.cross_serving[:-1],
            cross_to_desired_bs=b.cross_to_desired_bs[:-1],
            user_to_user=b.user_to_user[:-1])
        ph_t = ph[:-1]
        dset = delta_set_for(b, table)
        dset_t = DeltaSet(tagged=dset.tagged, other=dset.other[:-1])
        part = inverse_sinr(trimmed, ph_t, dset_t, p)
        assert part.total <= full.total + 1e-15

    def test_phase_mismatch_rejected(self, params_async, rng):
        net = build_network(params_async, 4.0, rng)
        b = extract_bundle(net, int(central_cells(net, 1.0)[0]), 0, margin=1.0)
        table = deltas_for(net, params_async)
        with pytest.raises(DomainError):
            inverse_sinr(b, np.zeros(b.n_other + 2, np.int8),
                         delta_set_for(b, table), params_async)

    def test_power_scaling_of_noise_terms(self, rng):
        """With eps=0, scaling p_d and sigma2 together leaves every noise-
        over-p_d term invariant; realized SINR changes only through the
        uplink-power terms held fixed here."""
        p0 = default_params("async", eps=0.0)
        net = build_network(p0, 4.0, rng)
        b = extract_bundle(net, int(central_cells(net, 1.0)[0]), 0, margin=1.0)
        ph = draw_phases(p0, b.n_other, np.random.default_rng(1))
        scale = 7.0
        p1 = p0.with_updates(p_d=p0.p_d * scale, sigma2=p0.sigma2 * scale,
                             p_u=p0.p_u * scale)
        t0 = deltas_for(net, p0) * scale  # deltas are linear in power at eps=0
        t1 = deltas_for(net, p1)
        np.testing.assert_allclose(t0[~np.isnan(t0)], t1[~np.isnan(t1)],
                                   rtol=1e-12)
        inv0 = inverse_sinr(b, ph, delta_set_for(b, t0 / scale), p0)
        inv1 = inverse_sinr(b, ph, delta_set_for(b, t1), p1)
        assert inv0.total == pytest.approx(inv1.total, rel=1e-12)
