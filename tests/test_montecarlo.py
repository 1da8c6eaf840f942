import concurrent.futures
import logging
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mimosg import _kernels, montecarlo
from mimosg.errors import ConfigError, EstimationError
from mimosg.geometry import build_network
from mimosg.montecarlo import (MAX_TRIALS, McConfig, ValidationReport,
                               run_coverage_mc, run_rate_mc, run_trial,
                               trial_rng, validate, wilson_interval)
from mimosg.params import PHASE_DOWNLINK, SystemParams, default_params
from reference_sinr import (DeltaSet, central_cells, compute_delta,
                            extract_bundle, inverse_sinr, isolated_cell_sinr,
                            run_kernels)

THR_DB = np.arange(-10.0, 21.0, 5.0)
THR = tuple((10.0 ** (THR_DB / 10.0)).tolist())


def small_cfg(**kw):
    base = dict(trials=200, seed=42, window=4.0, margin=1.0, thresholds=THR)
    base.update(kw)
    return McConfig(**base)


class TestConfig:
    def test_margin_bound(self):
        with pytest.raises(ConfigError):
            McConfig(trials=10, margin=2.5, window=4.0)

    def test_trials_bound(self):
        """At least 1 trial and at most MAX_TRIALS, which keeps the
        acceptance run's 10 000 and the benchmark reference's 20 000."""
        with pytest.raises(ConfigError):
            McConfig(trials=0)
        with pytest.raises(ConfigError, match="trials must be at most"):
            McConfig(trials=MAX_TRIALS + 1)
        for trials in (10_000, 20_000, MAX_TRIALS):
            assert McConfig(trials=trials).trials == trials

    def test_seed_bound(self):
        """A negative seed is a ConfigError, not a ValueError from the
        per-trial SeedSequence."""
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            McConfig(trials=10, seed=-1)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_bound(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            McConfig(trials=10, workers=workers)

    @pytest.mark.parametrize("thresholds", [(-1.0, math.nan), (1.0, -1e-300),
                                            (math.nan,), (1.0, math.inf)],
                             ids=["negative", "tiny-negative", "nan", "inf"])
    def test_thresholds_bound(self, thresholds):
        """Refused before any trial runs; 0 is a valid threshold."""
        with pytest.raises(ConfigError, match="thresholds must be finite"):
            McConfig(trials=10, thresholds=thresholds)
        assert McConfig(trials=10, thresholds=(0.0, 1.0)).thresholds \
            == (0.0, 1.0)


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the process pool with a fake that maps in this process and
    records each pool's size and chunk size."""
    record = SimpleNamespace(sizes=[], chunks=[])

    class SerialPool:
        def __init__(self, max_workers):
            record.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            record.chunks.append(chunksize)
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        SerialPool)
    return record


def fake_trial(params, cfg, index):
    """A run_trial stand-in: 10 tagged users and a fresh row of success
    counts."""
    return 10, np.full(len(cfg.thresholds), float(index % 10)), 1.0


class TestFold:
    """Each trial is folded into the estimators as it arrives, in trial
    order, serial or pooled."""

    def test_memory_does_not_grow_with_trials(self, params_async,
                                              monkeypatch):
        """200 trials that each return a fresh row of 20 000 counts: the
        run's traced peak stays under 10 rows, where keeping every trial's
        row would take 200."""
        n_thr = 20_000
        monkeypatch.setattr(montecarlo, "run_trial", fake_trial)
        cfg = small_cfg(trials=200, thresholds=np.linspace(0.0, 1.0, n_thr))
        tracemalloc.start()
        try:
            curve = run_coverage_mc(params_async, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert curve.trials_used == 200
        assert peak < 10 * n_thr * 8

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("thresholds", [THR[1:2], THR], ids=["1", "7"])
    def test_coverage_is_trial_order_sum(self, params_async, workers,
                                         thresholds):
        """The curve is the trial-order sum of each used trial's counts / n
        divided by the trials used, bit for bit, with one threshold too
        (where numpy's mean of one column would sum pairwise)."""
        cfg = small_cfg(trials=60, thresholds=thresholds, workers=workers)
        total, used = np.zeros(len(thresholds)), 0
        for index in range(cfg.trials):
            n, counts, _ = run_trial(params_async, cfg, index)
            if n > 0:
                total = total + counts / n
                used += 1
        curve = run_coverage_mc(params_async, cfg)
        assert curve.trials_used == used
        assert curve.coverage.tolist() == (total / used).tolist()

    @pytest.mark.parametrize("n_thr, chunk", [(31, 625), (100_001, 1)])
    def test_pool_chunk_bounds_held_counts(self, params_async, monkeypatch,
                                           serial_pool, n_thr, chunk):
        """10 000 trials on 2 workers: a chunk is trials / (8 workers) = 625
        trials, but holds no more than MAX_CHUNK_FLOATS success counts."""
        # one shared row: a run that kept every trial's row must not need
        # 8 GB here
        row = np.zeros(n_thr)
        monkeypatch.setattr(montecarlo, "run_trial",
                            lambda params, cfg, index: (10 * (index == 0),
                                                        row, 0.0))
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        run_coverage_mc(params_async, small_cfg(
            trials=10_000, workers=2, thresholds=np.linspace(0.0, 1.0, n_thr)))
        assert serial_pool.chunks == [chunk]

    def test_pooled_run_logs_progress(self, params_async, monkeypatch,
                                      serial_pool, caplog):
        """A pooled run logs the same ten progress lines as a serial one."""
        monkeypatch.setattr(montecarlo, "run_trial", fake_trial)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        lines = {}
        for workers in (1, 2):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="mimosg.montecarlo"):
                run_coverage_mc(params_async,
                                small_cfg(trials=50, workers=workers))
            lines[workers] = [r.getMessage() for r in caplog.records]
        assert serial_pool.sizes == [2]
        assert lines[2] == lines[1] == [f"trials {i}/50"
                                        for i in range(5, 51, 5)]


class TestDeterminism:
    def test_seed_replay(self, params_async):
        cfg = small_cfg(trials=60)
        a = run_coverage_mc(params_async, cfg)
        b = run_coverage_mc(params_async, cfg)
        np.testing.assert_array_equal(a.coverage, b.coverage)

    def test_worker_count_invariance(self, params_async):
        cfg1 = small_cfg(trials=40, workers=1)
        cfg2 = small_cfg(trials=40, workers=2)
        a = run_coverage_mc(params_async, cfg1)
        b = run_coverage_mc(params_async, cfg2)
        np.testing.assert_array_equal(a.coverage, b.coverage)

    @pytest.mark.parametrize("workers, trials, cpus, pool", [
        (5000, 10, 4, 4), (5000, 3, 64, 3), (2, 10, 4, 2), (5000, 10, None, 0)])
    def test_pool_size_is_capped(self, params_async, monkeypatch, serial_pool,
                                 workers, trials, cpus, pool):
        """The pool starts min(workers, trials, CPUs) processes, none
        when that is 1, and the curve is the serial one. The executor is a
        fake that records its size and maps in this process."""
        sizes = serial_pool.sizes
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        serial = run_coverage_mc(params_async, small_cfg(trials=trials))
        got = run_coverage_mc(params_async,
                              small_cfg(trials=trials, workers=workers))
        assert sizes == ([pool] if pool else [])
        np.testing.assert_array_equal(got.coverage, serial.coverage)

    def test_trial_rng_is_stable_hash(self):
        a = trial_rng(7, 3).random(4)
        b = trial_rng(7, 3).random(4)
        c = trial_rng(7, 4).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestEstimates:
    def test_coverage_exactly_non_increasing(self, params_async):
        curve = run_coverage_mc(params_async, small_cfg(trials=150))
        assert np.all(np.diff(curve.coverage) <= 0.0)

    def test_ci_shrinks_with_trials(self, params_async_pc):
        a = run_coverage_mc(params_async_pc, small_cfg(trials=150))
        b = run_coverage_mc(params_async_pc, small_cfg(trials=600))
        mid = len(THR) // 2
        ratio = b.ci_half_width[mid] / a.ci_half_width[mid]
        assert 0.35 < ratio < 0.75  # ~ 1/2 expected for 4x the trials

    def test_isolated_cell_step(self):
        """Sparse network with sigma2=0: coverage steps at the single-cell
        SINR bound c_m^2 / (v_m - 1 + n_p) = 8.38 dB for 64 antennas."""
        p = SystemParams(p_d=default_params().p_d, p_u=default_params().p_u,
                         sigma2=0.0, omega=1e-13, alpha=4.0, m=64, n_tot=40,
                         n_p=10, z=2.0, r_e=1.0 / math.sqrt(math.pi * 0.01),
                         r0=0.05, eps=0.0, mode="async")
        bound = isolated_cell_sinr(64, 10)
        assert 10 * math.log10(bound) == pytest.approx(8.3837, abs=1e-3)
        cfg = McConfig(trials=1500, seed=3, window=4.0, margin=0.2,
                       thresholds=(10 ** 0.8, 10 ** 0.9))
        curve = run_coverage_mc(p, cfg)
        assert curve.coverage[0] > 0.9      # 8 dB, below the bound
        assert curve.coverage[1] < 0.02     # 9 dB, above the bound

    def test_rate_matches_ccdf_integration(self, params_async):
        """Identity E{R} = int P(R > s) ds on the same trial population."""
        cfg = small_cfg(trials=250)
        rate = run_rate_mc(params_async, cfg)
        s_grid = np.linspace(0.0, 8.0, 321)
        thr = 2.0 ** s_grid - 1.0
        thr[0] = 0.0
        curve = run_coverage_mc(params_async, small_cfg(
            trials=250, thresholds=tuple(thr)))
        pref = params_async.n_p * params_async.n_d / params_async.n_tot
        ccdf_route = pref * np.trapezoid(curve.coverage, s_grid)
        assert rate.rate == pytest.approx(ccdf_route, rel=0.02)

    def test_degenerate_trials_raise(self):
        p = default_params("async").with_updates(
            r_e=1.0 / math.sqrt(math.pi * 1e-6))
        with pytest.raises(EstimationError):
            run_coverage_mc(p, small_cfg(trials=3))

    def test_thresholds_required(self, params_async):
        with pytest.raises(ConfigError):
            run_coverage_mc(params_async, small_cfg(thresholds=()))


class TestWilson:
    def test_interval_bounds(self):
        centre, half = wilson_interval(np.array([0.0, 0.5, 1.0]), 100)
        assert np.all(half > 0.0)
        assert np.all(centre - half >= 0.0)
        assert np.all(centre + half <= 1.0)

    def test_shrinks_with_n(self):
        _, h1 = wilson_interval(np.array([0.3]), 100)
        _, h2 = wilson_interval(np.array([0.3]), 400)
        assert h2[0] == pytest.approx(h1[0] / 2.0, rel=0.1)


class TestValidate:
    def test_report_structure(self, params_async_pc):
        rep = validate(params_async_pc, small_cfg(trials=250), gate=0.2)
        assert isinstance(rep, ValidationReport)
        assert rep.worst_dev == pytest.approx(float(np.max(rep.abs_dev)))
        assert rep.passed == (rep.worst_dev <= rep.gate)
        assert rep.n_shape == 1
        table = rep.format_table()
        assert ("PASS" in table) == rep.passed
        doc = rep.to_json_dict()
        assert "conventions of this validation suite" in doc["note"]

    def test_zero_gate_always_fails(self, params_async_pc):
        rep = validate(params_async_pc, small_cfg(trials=120), gate=0.0)
        assert not rep.passed


class TestKernelParity:
    """The production kernels against independent references."""

    @pytest.mark.parametrize("mode,eps,n_p", [
        ("async", 0.5, 10), ("sync", 0.5, 10), ("async", 0.0, 10),
        ("sync", 0.0, 10), ("async", 0.5, 7), ("sync", 0.5, 7)],
        ids=["async-0.5", "sync-0.5", "async-0.0", "sync-0.0",
             "async-0.5-np7", "sync-0.5-np7"])
    def test_sinr_and_delta_paths(self, mode, eps, n_p, rng):
        """all_deltas and sinr_batch against the scalar per-bundle oracle
        (reference_sinr.compute_delta / inverse_sinr), user by user."""
        p = default_params(mode, eps=eps, n_p=n_p)
        net = build_network(p, 4.0, rng)
        phases = _random_phases(p, net, rng)
        _check_against_oracle(net, p, central_cells(net, 1.0)[0], phases)

    @pytest.mark.parametrize("mode", ["async", "sync"])
    def test_realization_with_an_empty_cell(self, mode, params_async,
                                            params_sync):
        """The realization of seed 42 trial 592: cell 21 of its 26 holds no
        user beyond r0, so the user layout skips it, and the zero-cell 20
        still tags K users. Both kernels against the oracle there, with
        the trial's own phase draw."""
        p = params_async if mode == "async" else params_sync
        rng = trial_rng(42, 592)
        net = build_network(p, 4.0, rng)
        assert net.n_bs == 26
        assert np.flatnonzero(~net.valid).tolist() == [21]
        phases = montecarlo.draw_phases(p, net.n_bs, rng)
        run = _check_against_oracle(net, p, 20, phases)
        assert run.tag.tolist() == list(range(20 * p.n_p, 21 * p.n_p))
        # every user's Delta, the cells after the empty one included
        assert run.deltas.size == 25 * p.n_p
        for u, (cell, slot) in enumerate(zip(run.user_cell, run.pilot_slot)):
            b = extract_bundle(net, int(cell), int(slot), margin=0.0)
            assert compute_delta(b, p) == pytest.approx(run.deltas[u],
                                                         rel=1e-12)

    @pytest.mark.parametrize("mode", ["async", "sync"])
    def test_delta_from_foreign_pilot_table(self, mode, rng):
        """Every Delta is p_u omega^(1-eps) (x^(-alpha(1-eps)) + I[cell,
        group]) + sigma2/n_p, with I the foreign pilot power table of
        all_deltas: one column per pilot group, K synchronous, 1
        asynchronous."""
        p = default_params(mode, eps=0.5)
        net = build_network(p, 4.0, rng)
        run = run_kernels(net, p, central_cells(net, 1.0)[0],
                          _random_phases(p, net, rng))
        n_groups = p.n_p if p.sync else 1
        assert run.foreign.shape == (net.n_bs, n_groups)
        pwr = p.p_u * p.omega ** (1.0 - p.eps)
        want = (pwr * (run.d_serv ** (-p.alpha * (1.0 - p.eps))
                       + run.foreign[run.user_cell, run.pilot_slot % n_groups])
                + p.sigma2 / p.n_p)
        np.testing.assert_allclose(run.deltas, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("mode,eps", [("async", 0.0), ("async", 0.5),
                                          ("sync", 0.5), ("sync", 1.0)])
    def test_tagged_foreign_pilot_power(self, mode, eps, rng):
        """The tagged station's row of the table is the oracle's Delta
        with the own pilot and the pilot noise taken out, in units of
        p_u omega^(1-eps)."""
        p = default_params(mode, eps=eps)
        net = build_network(p, 4.0, rng)
        cell = int(central_cells(net, 1.0)[0])
        run = run_kernels(net, p, cell, _random_phases(p, net, rng))
        pwr = p.p_u * p.omega ** (1.0 - p.eps)
        for k in range(p.n_p):
            b = extract_bundle(net, cell, k)
            want = ((compute_delta(b, p) - p.sigma2 / p.n_p) / pwr
                    - b.x ** (-p.alpha * (1.0 - p.eps)))
            got = run.foreign[cell, k % run.foreign.shape[1]]
            assert got == pytest.approx(want, rel=1e-12)

    def test_nearest_station_paths(self, rng):
        """nearest_bs against a brute-force norm and argmin at 20 and 80
        stations; one point sits exactly on a station."""
        for n_bs in (20, 80):
            window = 4.0 * math.sqrt(n_bs / 20)
            bs = rng.random((n_bs, 2)) * window
            pts = rng.random((500, 2)) * window
            pts[123] = bs[7]
            idx, dist = _kernels.nearest_bs(pts, bs)
            full = np.linalg.norm(pts[:, None, :] - bs[None, :, :], axis=2)
            np.testing.assert_array_equal(idx, full.argmin(axis=1))
            np.testing.assert_allclose(dist, full.min(axis=1), rtol=1e-15,
                                       atol=0)
            assert idx[123] == 7 and dist[123] == 0.0


class TestNearestStation:
    """The station-major nearest_bs against argmin on the point-major
    matrix: the same index, ties to the lower station, and a distance equal
    (==) to sqrt(dx*dx + dy*dy) of the chosen station."""

    @staticmethod
    def _check(pts, bs):
        idx, dist = _kernels.nearest_bs(pts, bs)
        dx = pts[:, 0:1] - bs[:, 0]
        dy = pts[:, 1:2] - bs[:, 1]
        want = (dx * dx + dy * dy).argmin(axis=1)
        rows = np.arange(len(pts))
        assert idx.tolist() == want.tolist()
        assert np.all(dist == np.sqrt(dx[rows, want] * dx[rows, want]
                                      + dy[rows, want] * dy[rows, want]))
        return idx, dist

    def test_coincident_stations_lower_index_wins(self, rng):
        bs = rng.random((6, 2)) * 4.0
        bs[4] = bs[1]
        pts = np.vstack([bs[1] + 1e-3, rng.random((200, 2)) * 4.0])
        idx, _ = self._check(pts, bs)
        assert idx[0] == 1
        assert 4 not in idx.tolist()

    def test_exactly_equidistant_point(self):
        bs = np.array([[2.0, 5.0], [3.0, 1.0], [1.0, 1.0]])
        pts = np.array([[2.0, 1.0], [2.0, 3.0], [0.0, 0.0]])
        idx, dist = self._check(pts, bs)
        # (2, 1) is exactly 1 from stations 1 and 2: station 1 wins. (2, 3)
        # ties stations 1 and 2 at sqrt(5), but station 0 is nearer at 2.
        assert idx.tolist() == [1, 0, 2]
        assert dist.tolist() == [1.0, 2.0, math.sqrt(2.0)]

    def test_single_station(self, rng):
        bs = rng.random((1, 2))
        idx, _ = self._check(rng.random((50, 2)), bs)
        assert not idx.any()

    def test_many_stations(self, rng):
        """300 stations: indices past any 8-bit type."""
        bs = rng.random((300, 2)) * 20.0
        pts = np.vstack([bs[[0, 255, 256, 299]], rng.random((700, 2)) * 20.0])
        idx, dist = self._check(pts, bs)
        assert idx[:4].tolist() == [0, 255, 256, 299]
        assert not dist[:4].any()
        assert idx.max() > 255


def _check_against_oracle(net, p, cell, phases):
    """all_deltas and sinr_batch on ``net`` tagging ``cell``, against the
    scalar oracle user by user; the kernels' run."""
    run = run_kernels(net, p, cell, phases)
    user_cell, pilot_slot, deltas, tag, sinr = (
        run.user_cell, run.pilot_slot, run.deltas, run.tag, run.sinr)
    table = np.full((net.n_bs, p.n_p), np.nan)
    table[user_cell, pilot_slot] = deltas
    assert tag.size == p.n_p
    for t, u in enumerate(tag):
        b = extract_bundle(net, int(user_cell[u]), int(pilot_slot[u]))
        assert b is not None
        assert compute_delta(b, p) == pytest.approx(deltas[u], rel=1e-12)
        inv = inverse_sinr(
            b, phases[b.other_cells],
            DeltaSet(tagged=table[b.cell_index, b.pilot_index],
                     other=table[b.other_cells]), p)
        got = [g[t] for g in sinr]
        want = [inv.gamma1, inv.gamma2, inv.gamma3]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-18)
    return run


def _random_phases(p, net, rng):
    """One random phase per cell asynchronous; all downlink synchronous."""
    if p.sync:
        return np.full(net.n_bs, PHASE_DOWNLINK, dtype=np.int8)
    return rng.integers(0, 3, size=net.n_bs).astype(np.int8)


class TestGoldenTrials:
    """run_trial outputs pinned bit for bit (seed 42, 4 km window, the
    seven thresholds of THR). Trial 171 is skipped: its zero-cell lies
    outside the margin. Trial 592 has a cell that holds no user beyond r0
    (cell 21 of 26, after the zero-cell 20). The rate sums were recorded
    with c_m(64) from its exact closed form."""

    CASES = {
        ("async", 0): (10, [1, 1, 0, 0, 0, 0, 0], 1.0936720626592944),
        ("async", 5): (10, [10, 7, 6, 4, 0, 0, 0], 15.220517214018969),
        ("async", 10): (10, [1, 0, 0, 0, 0, 0, 0], 0.31637391877057713),
        ("async", 171): (0, [0] * 7, 0.0),
        ("async", 592): (10, [4, 3, 2, 2, 0, 0, 0], 6.066588337326799),
        ("sync", 0): (10, [10, 7, 1, 1, 0, 0, 0], 8.724844879603152),
        ("sync", 5): (10, [10, 10, 9, 6, 0, 0, 0], 21.61884196445868),
        ("sync", 10): (10, [10, 10, 4, 0, 0, 0, 0], 10.386198374987632),
        ("sync", 171): (0, [0] * 7, 0.0),
        ("sync", 592): (10, [10, 7, 5, 3, 0, 0, 0], 13.2584402259569),
    }

    @pytest.mark.parametrize("mode,index", sorted(CASES))
    def test_trial_output_is_pinned(self, mode, index, params_async,
                                    params_sync):
        p = params_async if mode == "async" else params_sync
        n, counts, rate_sum = run_trial(p, small_cfg(), index)
        want_n, want_counts, want_rate = self.CASES[mode, index]
        assert n == want_n
        assert counts.tolist() == want_counts
        assert rate_sum == want_rate

    # an odd pilot length: K = 7 users in 7 pilot groups (sync) or one
    # group of 7 (async), on the integral frame n_u = 11, n_d = 22
    CASES_NP7 = {
        ("async", 0): (7, [1, 0, 0, 0, 0, 0, 0], 0.370569923348431),
        ("async", 5): (7, [7, 6, 5, 4, 1, 0, 0], 14.681612192368464),
        ("async", 10): (7, [1, 0, 0, 0, 0, 0, 0], 0.5558637878219255),
        ("sync", 0): (7, [7, 7, 3, 0, 0, 0, 0], 5.4972381791200995),
        ("sync", 5): (7, [7, 7, 6, 5, 1, 0, 0], 18.417779427677267),
        ("sync", 10): (7, [7, 7, 4, 0, 0, 0, 0], 8.099727576986185),
    }

    @pytest.mark.parametrize("mode,index", sorted(CASES_NP7))
    def test_odd_pilot_length_is_pinned(self, mode, index):
        p = default_params(mode, m=64, eps=0.0 if mode == "async" else 0.5,
                           n_p=7)
        n, counts, rate_sum = run_trial(p, small_cfg(), index)
        want_n, want_counts, want_rate = self.CASES_NP7[mode, index]
        assert n == want_n
        assert counts.tolist() == want_counts
        assert rate_sum == want_rate
