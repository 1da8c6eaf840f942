"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. Tolerances are pinned here and nowhere else.

Two criteria check the true statement of the property they were written
for, because the statement first proposed for each is false:

* criterion 7 checks that the exponential-mixture form (1 - e^(-eta A))^N
  with eta = N (N!)^(-1/N) (the closed form of ``reference_mixture``, with
  the engine's ``eta_shape``) lies at or below the unit-mean Gamma CDF, and
  strictly below it somewhere for N > 1. This is Alzer's lower bound
  (H. Alzer, "On some inequalities for the incomplete gamma function",
  Math. Comp. 66, 1997); the upper bound uses eta = N instead;
* criterion 9 checks that the relative gap between the exact foreign-uplink
  moment at x = 0.3 km, from this suite's own reference, and the simplified
  one that the engine computes (``_context(p).q3``) is positive and equals
  its independently
  derived value (59.04% at eps = 0 in closed form, 57.96% at eps = 0.5 by
  adaptive quadrature). The simplification
  replaces user-to-user distances, bounded below by r_e - x, with
  station-to-user distances bounded below by r_e, so it underestimates
  the moment by 1 - (1 - x^2/r_e^2)^2 at eps = 0; a 25% gate holds only
  for x < 0.183 km.

Criterion 2 is expected red, with its gates unloosened. Its synchronous
settings miss the 0.07 gate by 0.080-0.090, each time at the first
threshold above the simulated SINR ceiling c_m^2/(v_m - 1 + n_p) (8.4 dB
at M = 64, 11.4 dB at M = 128): MC coverage there is exactly 0, while
the analytic form passes the deterministic floor of the inverse SINR
through the Gamma-mixture expansion and so has no ceiling. The async
M = 128, eps = 0 setting misses the 0.05 gate by 0.0537 at -10 dB, where
the analytic value lies above MC, consistent with the mean-field
treatment of nearby foreign-uplink users that criterion 9 measures.
Closing these gaps needs a change to the analytic model.
"""
import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammainc

from mimosg import _kernels
from mimosg.analytic import (_context, coverage, coverage_infinite_m,
                             coverage_no_pc, ergodic_rate, q2)
from mimosg.geometry import (NetworkRealization, trunc_rayleigh_cdf,
                             trunc_rayleigh_sample)
from mimosg.montecarlo import McConfig, run_rate_mc, validate
from mimosg.params import c_m, default_params
from reference_ks import ks_distance
from reference_mixture import gamma_mixture_cdf
from reference_sinr import (DeltaSet, compute_delta, extract_bundle,
                            inverse_sinr, isolated_cell_sinr)

THRESHOLD_DB = np.arange(-10.0, 21.0, 1.0)
THRESHOLDS = tuple((10.0 ** (THRESHOLD_DB / 10.0)).tolist())

MC_TRIALS = 10_000
MC_SEED = 20240817
ASYNC_GATE = 0.05
SYNC_GATE = 0.07
SETTING_TIME_LIMIT_S = 600.0


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


class TestCriterion1DistanceLaws:
    def test_sampler_ks_suite(self):
        lam, r0 = 1.2732395447351628, 0.05
        rng = np.random.default_rng(MC_SEED)
        t0 = time.monotonic()
        r2, r_uu, x = 0.8, 0.2, 1.0
        # the three laws' supports: a user's serving distance, the same
        # given a station r2 away, a foreign user's given the user pair
        supports = [(r0, np.inf), (r0, r2), (max(r0, x - r_uu), x + r_uu)]
        ks1, ks2, ks3 = (
            ks_distance(trunc_rayleigh_sample(lam, lo, hi, rng, 100_000),
                        lambda r: trunc_rayleigh_cdf(r, lam, lo, hi))
            for lo, hi in supports)
        elapsed = time.monotonic() - t0
        ok = max(ks1, ks2, ks3) < 0.02 and elapsed < 30.0
        report(1, ok, f"KS = ({ks1:.5f}, {ks2:.5f}, {ks3:.5f}) < 0.02, "
                      f"runtime {elapsed:.1f}s < 30s")
        assert ks1 < 0.02 and ks2 < 0.02 and ks3 < 0.02
        assert elapsed < 30.0


class TestCriterion2McVsAnalytic:
    @pytest.mark.parametrize("m", [64, 128])
    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_async(self, m, eps):
        p = default_params("async", m=m, eps=eps)
        cfg = McConfig(trials=MC_TRIALS, seed=MC_SEED, thresholds=THRESHOLDS)
        t0 = time.monotonic()
        rep = validate(p, cfg, gate=ASYNC_GATE, n_shape=1)
        elapsed = time.monotonic() - t0
        ok = rep.passed and elapsed < SETTING_TIME_LIMIT_S
        report(2, ok, f"async M={m} eps={eps} N=1: worst |analytic-MC| = "
                      f"{rep.worst_dev:.4f} (gate {ASYNC_GATE}), "
                      f"{elapsed:.0f}s")
        assert elapsed < SETTING_TIME_LIMIT_S
        assert rep.passed, rep.format_table()

    @pytest.mark.parametrize("m", [64, 128])
    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_sync_best_shape(self, m, eps):
        from mimosg.montecarlo import run_coverage_mc
        p = default_params("sync", m=m, eps=eps)
        cfg = McConfig(trials=MC_TRIALS, seed=MC_SEED, thresholds=THRESHOLDS)
        t0 = time.monotonic()
        mc = run_coverage_mc(p, cfg)
        devs, curves = {}, {}
        for n in (2, 3, 4, 8):
            curves[n] = coverage(mc.thresholds, p, n).coverage
            devs[n] = float(np.max(np.abs(curves[n] - mc.coverage)))
        elapsed = time.monotonic() - t0
        best_n = min(devs, key=devs.get)
        signed = curves[best_n] - mc.coverage
        worst = int(np.argmax(np.abs(signed)))
        ceiling_db = 10.0 * math.log10(isolated_cell_sinr(m, p.n_p))
        ok = devs[best_n] <= SYNC_GATE and elapsed < SETTING_TIME_LIMIT_S
        report(2, ok, f"sync M={m} eps={eps}: best N={best_n}, worst dev "
                      f"{devs[best_n]:.4f} (gate {SYNC_GATE}) at "
                      f"{THRESHOLD_DB[worst]:+.0f} dB; all "
                      f"{ {n: round(d, 4) for n, d in devs.items()} }, "
                      f"{elapsed:.0f}s")
        table = "\n".join(
            f"{t:+8.2f} {a:.6f} {c:.6f} {h:.6f} {d:+.6f}"
            for t, a, c, h, d in zip(THRESHOLD_DB, curves[best_n],
                                     mc.coverage, mc.ci_half_width, signed))
        assert elapsed < SETTING_TIME_LIMIT_S
        assert devs[best_n] <= SYNC_GATE, (
            f"best N={best_n}: worst analytic-MC = {signed[worst]:+.4f} at "
            f"{THRESHOLD_DB[worst]:+.0f} dB (analytic "
            f"{curves[best_n][worst]:.4f}, MC {mc.coverage[worst]:.4f}); "
            f"simulated SINR ceiling "
            f"c_m^2/(v_m-1+n_p) = {ceiling_db:.1f} dB, above which MC "
            f"coverage is 0\nthreshold_db analytic mc mc_ci95 signed_dev\n"
            f"{table}")


class TestCriterion3SpecialCaseEquivalence:
    def test_no_pc_reduction(self):
        th = 10.0 ** (np.linspace(-10.0, 20.0, 10) / 10.0)
        worst = 0.0
        for mode, n in (("async", 1), ("sync", 4)):
            p = default_params(mode, eps=0.0)
            dev = float(np.max(np.abs(coverage(th, p, n).coverage
                                      - coverage_no_pc(th, p, n).coverage)))
            worst = max(worst, dev)
        ok = worst < 1e-3
        report(3, ok, f"eps=0 reduced vs general: max |dev| = {worst:.2e} "
                      f"< 1e-3 (10 thresholds, both modes)")
        assert ok

    def test_infinite_m_limit(self):
        th = 10.0 ** (np.linspace(-10.0, 20.0, 10) / 10.0)
        worst = 0.0
        for mode, n in (("async", 1), ("sync", 4)):
            p = default_params(mode, m=10 ** 6, eps=0.0)
            dev = float(np.max(np.abs(
                coverage(th, p, n).coverage
                - coverage_infinite_m(th, p, n).coverage)))
            worst = max(worst, dev)
        ok = worst < 0.02
        report(3, ok, f"M->inf formula vs general at M=1e6: max |dev| = "
                      f"{worst:.4f} < 0.02")
        assert ok


class TestCriterion4FullPowerControlCollapse:
    def test_async_rate_collapses_and_sync_exceeds(self):
        pa = default_params("async", m=64, eps=1.0)
        ps = default_params("sync", m=64, eps=1.0)
        r_async_an = ergodic_rate(pa, 1).rate
        r_sync_an = ergodic_rate(ps, 4).rate
        cfg = McConfig(trials=3000, seed=MC_SEED, thresholds=(1.0,))
        r_async_mc = run_rate_mc(pa, cfg)
        r_sync_mc = run_rate_mc(ps, cfg)
        ok = (r_async_an < 0.5 and r_async_mc.rate < 0.5
              and r_sync_an > r_async_an and r_sync_mc.rate > r_async_mc.rate)
        report(4, ok, f"async eps=1 rate: analytic {r_async_an:.3g}, MC "
                      f"{r_async_mc.rate:.3g} (both < 0.5); sync rate "
                      f"analytic {r_sync_an:.3f}, MC {r_sync_mc.rate:.3f} "
                      f"(both exceed async)")
        assert r_async_an < 0.5
        assert r_async_mc.rate < 0.5
        assert r_sync_an > r_async_an
        assert r_sync_mc.rate > r_async_mc.rate


class TestCriterion5InteriorPilotOptimum:
    @pytest.mark.parametrize("mode,n", [("async", 1), ("sync", 4)])
    def test_interior_maximum(self, mode, n):
        grid = [2, 5, 10, 15, 20, 25, 30]
        rates = []
        for n_p in grid:
            p = default_params(mode, m=64, eps=0.5, n_p=n_p)
            rates.append(ergodic_rate(p, n).rate)
        arg = int(np.argmax(rates))
        ok = 0 < arg < len(grid) - 1
        report(5, ok, f"{mode} rate over N_p={grid}: "
                      f"{[round(r, 3) for r in rates]} -> max at "
                      f"N_p={grid[arg]} (interior)")
        assert ok


class TestCriterion6SyncBeatsAsyncAtDefaults:
    def test_rate_ordering(self):
        r_sync = ergodic_rate(default_params("sync", m=64, eps=0.5), 4).rate
        r_async = ergodic_rate(default_params("async", m=64, eps=0.5), 1).rate
        ok = r_sync >= r_async
        report(6, ok, f"default setting rates: sync {r_sync:.3f} >= async "
                      f"{r_async:.3f}")
        assert ok


class TestCriterion7GammaApproximation:
    def test_shape_one_equality(self):
        a = np.linspace(0.0, 20.0, 2001)
        worst = float(np.max(np.abs(gamma_mixture_cdf(a, 1) - gammainc(1, a))))
        ok = worst < 1e-12
        report(7, ok, f"N=1 exact equality: max |dev| = {worst:.2e} < 1e-12")
        assert ok

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_claimed_upper_bound_direction(self, n):
        """The claimed direction, (1-e^-eta A)^N >= unit-mean Gamma CDF, is
        reversed: with eta = N (N!)^(-1/N) the mixture is Alzer's (1997)
        LOWER bound, strict for N > 1. Checked on [0, 20]: approx - exact
        <= 0 everywhere and < 0 somewhere. With eta = N (the upper-bound
        constant) the mixture exceeds the exact CDF and this test fails.
        """
        a = np.linspace(0.0, 20.0, 2001)
        diff = gamma_mixture_cdf(a, n) - gammainc(n, n * a)
        below = bool(np.all(diff <= 1e-12))
        strict = float(diff.min()) < 0.0
        report(7, below and strict,
               f"N={n} claimed upper bound checked and reversed: "
               f"approx-exact in [{float(diff.min()):.4f}, "
               f"{float(diff.max()):.1e}] (<= 0 everywhere, < 0 somewhere: "
               f"Alzer's lower bound)")
        assert below, ("the exponential-mixture form exceeds the exact CDF "
                       f"by up to {float(diff.max()):.4f} for shape {n}")
        assert strict, f"the lower bound is not strict for shape {n}"


class TestCriterion8ClosedFormSpotValues:
    def test_q2_values(self):
        pa = default_params("async", eps=0.0)
        ps = default_params("sync", eps=0.0)
        ok = (abs(q2(pa) - 16.0) < 1e-9 and q2(ps) == 0.0
              and _context(ps).q3 == 0.0)
        report(8, ok, f"Q2(async) = {q2(pa):.12g} (= 16 km^-4); "
                      f"Q2(sync) = {q2(ps)}, Q3(sync) = {_context(ps).q3}")
        assert ok

    def test_c64_against_independent_oracle(self):
        # 40-digit reference: Gamma(64.5)/Gamma(64)
        oracle = 7.9843904074837702
        val = c_m(64)
        ok = abs(val - oracle) < 1e-4 and abs(val - 7.98439) < 1e-4
        report(8, ok, f"C_64 = {val:.10f} vs oracle {oracle:.10f} "
                      f"(|dev| = {abs(val - oracle):.2e} < 1e-4)")
        assert ok

    def test_isolated_cell_sinr_monte_carlo(self):
        """Forced single-cell layout, zero noise: every realized SINR must
        equal c_m^2/(v_m - 1 + n_p) to 1e-6."""
        p = default_params("async", m=64, eps=0.5, sigma2=0.0)
        rng = np.random.default_rng(MC_SEED)
        bound = isolated_cell_sinr(64, 10)
        worst = 0.0
        for _ in range(50):
            r = p.r0 + 0.5 * rng.random((1, p.n_p))
            ang = 2.0 * np.pi * rng.random((1, p.n_p))
            bs = np.array([[2.0, 2.0]])
            users = bs[:, None, :] + np.stack(
                [r * np.cos(ang), r * np.sin(ang)], -1)
            net = NetworkRealization(bs=bs, users=users, serving=r,
                                     valid=np.array([True]), window=4.0)
            for k in range(p.n_p):
                b = extract_bundle(net, 0, k, margin=1.0)
                dset = DeltaSet(tagged=compute_delta(b, p),
                                other=np.zeros((0, p.n_p)))
                inv = inverse_sinr(b, np.zeros(0, np.int8), dset, p)
                worst = max(worst, abs(inv.sinr - bound) / bound)
        ok = worst < 1e-6
        report(8, ok, f"isolated-cell SINR: MC vs c_m^2/(v_m-1+n_p) = "
                      f"{bound:.6f}, worst relative dev {worst:.2e} < 1e-6")
        assert ok


Q3_X = 0.3  # km, tagged user's serving distance (r_e = 0.5 km)


def q3_reference(x: float, p) -> tuple[float, float]:
    """(exact, simplified) foreign-uplink moment, derived without the
    production quadrature grids.

    Both integrate n_p * lam * E[s^(alpha eps)] * d^(-alpha) over foreign
    users at |y| > r_e, where s is the foreign user's serving distance
    with density proportional to s e^(-pi lam s^2) on its allowed range:
    exact uses d = |y - x| and s in (max(r0, x - d), x + d); simplified
    uses d = |y| and s in (r0, |y|). At eps = 0 the moment is 1 and, for
    alpha = 4, both integrals have closed forms.
    """
    if p.eps == 0.0:
        assert p.alpha == 4.0, "closed forms below are for alpha = 4"
        return (p.n_p * p.lam * math.pi * p.r_e ** 2
                / (p.r_e ** 2 - x ** 2) ** 2,
                p.n_p * p.lam * math.pi / p.r_e ** 2)
    q, k = p.pi_lam, p.alpha * p.eps / 2.0 + 1.0

    def moment(lo, hi):
        u1, u2 = q * lo * lo, q * hi * hi
        return (q ** (1.0 - k) * math.gamma(k)
                * (gammainc(k, u2) - gammainc(k, u1))
                / (math.exp(-u1) - math.exp(-u2)))

    def exact_integrand(theta, r):
        d = math.sqrt(r * r + x * x - 2.0 * r * x * math.cos(theta))
        return moment(max(p.r0, x - d), x + d) * d ** -p.alpha * r

    exact = integrate.dblquad(exact_integrand, p.r_e, math.inf, 0.0,
                              math.pi, epsabs=0.0, epsrel=1e-10)[0]
    simplified = integrate.quad(lambda r: moment(p.r0, r) * r ** (1 - p.alpha),
                                p.r_e, math.inf, epsabs=0.0, epsrel=1e-12)[0]
    # theta over (0, pi) covers half of the symmetric exact integral
    return (2.0 * p.n_p * p.lam * exact,
            2.0 * math.pi * p.n_p * p.lam * simplified)


class TestCriterion9ForeignUplinkGapReport:
    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_exact_vs_simplified_gap(self, eps):
        """The relative gap between the exact Q3, from ``q3_reference``, and
        the production (simplified) Q3 at x = 0.3 km is positive (the
        distance substitution underestimates the moment) and equals its
        independently derived value. The production Q3 is first pinned to
        the reference's simplified value. The gap is ~58-59% here, so a 25%
        gate would hold only for x < 0.183 km."""
        p = default_params("async", eps=eps)
        ref_exact, ref_simplified = q3_reference(Q3_X, p)
        exact = ref_exact
        simplified = _context(p).q3
        pin = abs(simplified - ref_simplified) / ref_simplified
        gap = (exact - simplified) / exact
        ref_gap = (ref_exact - ref_simplified) / ref_exact
        tol = 1e-9 if eps == 0.0 else 1e-6
        ok = pin < 1e-12 and gap > 0.0 and abs(gap - ref_gap) < tol
        report(9, ok, f"eps={eps}: Q3 exact {exact:.6f} vs simplified "
                      f"{simplified:.6f} km^-4 (reference {ref_simplified:.6f}"
                      f", rel dev {pin:.1e} < 1e-12) -> relative gap "
                      f"{gap:.4%}; independent {ref_gap:.4%} "
                      f"(|dev| {abs(gap - ref_gap):.1e} < {tol:.0e})")
        assert pin < 1e-12, (simplified, ref_simplified)
        assert gap > 0.0
        assert abs(gap - ref_gap) < tol, (gap, ref_gap)
