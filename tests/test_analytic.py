import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import gammainc

from mimosg import _kernels, analytic
from mimosg.analytic import (_TAYLOR_K, _TAYLOR_Z, CoverageCurve, _context,
                             _e1_integral, _e1_splits, _mixture_signs,
                             _tau_grid, coverage, coverage_fullpc_async,
                             coverage_infinite_m, coverage_no_pc,
                             ergodic_rate, q2)
from mimosg.errors import DomainError, NumericalError
from mimosg.geometry import NetworkRealization
from mimosg.params import c_m, default_params, eta_shape, v_m
from mimosg.quadrature import gauss_legendre_panels, leggauss, log_panel_grid
from reference_mixture import gamma_mixture_cdf
from reference_sinr import run_kernels

# frozen high-precision oracle values for the reference geometry
CROSS_MOMENT = {0.0: 16.0, 0.5: 2.8856400139492937, 1.0: 0.9783991390254186}
Q1_ASYNC = {0.0: 318.9786384922728, 0.5: 0.36080523919038715,
            1.0: 0.1222998924098752}

# frozen engine outputs that any re-arrangement of the same quadrature sums
# must reproduce to 1e-12: sync, m=64, eps=0.5, N=4 coverage at -10..20 dB
# and the rates of the `sweep --param np` values 2, 5, 10, 15, 20, 25, 30
GOLDEN_SYNC_COVERAGE = [
    0.991101661442765, 0.9848697581271835, 0.9752681236107476,
    0.9611454120991433, 0.9413209593183433, 0.9147614823430873,
    0.8807852286397367, 0.8392416090090667, 0.7906002826165328,
    0.7358888453077241, 0.6764557027676174, 0.6136108656192487,
    0.548287387232897, 0.4809057590395836, 0.41156392673273473,
    0.34054684937235036, 0.26901255803657675, 0.19956293030368008,
    0.13625169528141293, 0.08362353886599337, 0.044924668629752765,
    0.02050535651819164, 0.007683972547916609, 0.0022676278912647065,
    0.0004997795389132152, 7.67698864253908e-05, 7.515256730171106e-06,
    4.182304172435723e-07, 1.1451410775988626e-08, 1.2859297305137864e-10,
    4.709388870016422e-13]
GOLDEN_SWEEP_RATES = {
    2: 3.7578929997506374, 5: 6.416150260728132, 10: 8.250295766597265,
    15: 8.445045283196412, 20: 7.697616841933244, 25: 6.330428090239962,
    30: 4.52347008078725}
# the same for async, m=64, N=1 coverage at -10..20 dB (eps 0 and 0.5), the
# special cases at eps 0.5 (infinite M; N=1 async, N=4 sync), eps 0 (no power
# control, async, N=1) and eps 1 (full power control, async, N=1, at
# -70..-30 dB where coverage is not trivially 0), and the async eps=0.5, N=1
# rates at n_p 5, 10 and 20
GOLDEN_ASYNC_COVERAGE_EPS0 = [
    0.671853693690126, 0.6367138598750035, 0.6004373222709359,
    0.5632944448312232, 0.5255580497481009, 0.48749516906497314,
    0.44936032626369093, 0.4113909151111491, 0.3738051468761038,
    0.3368029288787997, 0.3005699098065176, 0.26528475424938686,
    0.23112943925791174, 0.1983019192869322, 0.1670297797190008,
    0.1375823974312096, 0.11027763838853691, 0.08547747343767609,
    0.06356578355905829, 0.04490246147775072, 0.029752756411829194,
    0.01820143606117154, 0.010076838957586449, 0.004923180285634756,
    0.0020563216750627052, 0.0007055087713714794, 0.00018906624605076884,
    3.714351201069767e-05, 4.938779931635172e-06, 4.0192066523793544e-07,
    1.7637791383021018e-08]
GOLDEN_ASYNC_COVERAGE_EPS05 = [
    0.19110702657884102, 0.17147373115764866, 0.15335569216668726,
    0.1366766483308372, 0.12135367444950626, 0.10730027361251351,
    0.0944290913343164, 0.08265430108437441, 0.07189372183915788,
    0.06207072875414088, 0.053116005372979405, 0.04496915550754793,
    0.03758013861347767, 0.03091040689864895, 0.024933501043610994,
    0.019634710515028193, 0.01500925525319233, 0.011058374382802863,
    0.007782853435191826, 0.005174074606584521, 0.0032037874255654176,
    0.001815366573202685, 0.0009206773478219088, 0.0004064440733828512,
    0.00015081690602619793, 4.501486442436563e-05, 1.0225884620044912e-05,
    1.6492078737002331e-06, 1.7301664923701545e-07, 1.0575996333294369e-08,
    3.278685192894768e-10]
GOLDEN_INFINITE_M_ASYNC = [
    0.9989497139923507, 0.9986783529255858, 0.9983370706137918,
    0.9979079612203603, 0.9973685978563244, 0.9966909284628072,
    0.9958399238224276, 0.9947719348919508, 0.9934327172312035,
    0.9917550870652126, 0.9896561908418214, 0.9870344045170927,
    0.9837659393375053, 0.979701329613064, 0.9746621292177904,
    0.9684383614527914, 0.9607875593209018, 0.9514365898225016,
    0.9400878281457206, 0.9264315218028141, 0.9101661547809159,
    0.8910279844619404, 0.8688293368842688, 0.8435024962356192,
    0.8151423261561024, 0.7840370826640074, 0.7506750391910916,
    0.7157167099978583, 0.6799299268590021, 0.6440967841500906,
    0.6089135775398485]
GOLDEN_INFINITE_M_SYNC = [
    0.9994074829534316, 0.9987713657252995, 0.9975418751960001,
    0.9952739278379887, 0.9912997326732267, 0.9847109526245674,
    0.9744105359049344, 0.9592636441728857, 0.9383456529782528,
    0.9112347926414213, 0.8782472505064778, 0.8404928441817776,
    0.7996723875328007, 0.7576578701065997, 0.7160386553210083,
    0.6758535015049945, 0.6375952137592478, 0.6013907682771356,
    0.5671954951107678, 0.534911520791177, 0.5044338760954781,
    0.4756616967469216, 0.4484996200293805, 0.422857614090296,
    0.39865068515343904, 0.3757985959352521, 0.35422560019356286,
    0.33386019092723673, 0.31463486372117955, 0.2964858931506893,
    0.27935312104757815]
GOLDEN_NO_PC_ASYNC = [
    0.6718536936904865, 0.6367138598754085, 0.6004373222713884,
    0.5632944448317176, 0.5255580497486327, 0.48749516906553914,
    0.4493603262642757, 0.41139091511175574, 0.37380514687670946,
    0.33680292887940755, 0.3005699098071048, 0.2652847542499541,
    0.23112943925843882, 0.19830191928742014, 0.16702977971944105,
    0.13758239743158554, 0.11027763838886351, 0.08547747343793415,
    0.06356578355926235, 0.044902461477900994, 0.029752756411933798,
    0.018201436061236975, 0.010076838957622729, 0.004923180285652303,
    0.0020563216750709213, 0.0007055087713746117, 0.0001890662460516382,
    3.714351201084631e-05, 4.938779931652231e-06, 4.0192066523977355e-07,
    1.7637791383121484e-08]
GOLDEN_FULLPC_ASYNC_LOW = [
    0.18036653553703458, 0.1032575374685955, 0.055822658875865516,
    0.027832074121992772, 0.011917657139821528, 0.0036107066652566093,
    0.0004433344003042277, 3.935413580686666e-06, 3.758554597230521e-12]
GOLDEN_ASYNC_RATES = {5: 0.8150665382216828, 10: 0.8736947569527425,
                      20: 0.7505944355934537}


def e1_exponent_full_grid(p, b, c, x):
    """Oracle for `_Context.e1_exponent`: the same fixed tau grid, with
    expm1 evaluated on every node instead of a Taylor tail."""
    q = p.pi_lam
    a = q * x ** 2
    bt = b * q ** (p.alpha / 2.0)
    ct = c * q ** p.alpha
    tau, wtau = log_panel_grid(1.0, 1e24, panels_per_decade=4,
                               n_per_panel=10)
    th = tau ** (-p.alpha / 2.0)
    beta = bt * a ** (-p.alpha / 2.0)
    gam = ct * a ** (-p.alpha)
    z = np.multiply.outer(gam, th)
    z += beta[:, None]
    z *= th
    np.expm1(z, out=z)
    return a * (z @ wtau)


def e2_oracle(p, dt_coef):
    """Oracle for the E2 table: the exponent at coupling coefficient
    dt_coef <= 0, int_te^inf int_a0^min(t, s_cap) e^-s expm1(dt_coef s^p
    t^(-a/2)) / (e^-a0 - e^-t) ds dt with s_cap = a0 + 45, evaluated per
    coupling on a log t-grid of its own, every t node with its own 32-node
    inner row. The grid stops at a t_max where the remainder is below
    1e-15; the remainder's leading term, dt_coef M1 t_max^(1-a/2) /
    ((a/2 - 1) e^-a0) with M1 the first moment of the capped inner row,
    is added in closed form (the next term is below 1e-15 of it), so the
    cut costs no relative accuracy at small couplings."""
    q = p.pi_lam
    a0 = q * p.r0 ** 2
    te = q * p.r_e ** 2
    s_cap = a0 + 45.0
    pexp = p.alpha * p.eps / 2.0
    t_max = max(10.0 * te,
                (abs(dt_coef) * 40.0 ** pexp
                 / (1e-15 * (p.alpha / 2.0 - 1.0)))
                ** (2.0 / (p.alpha - 2.0)))
    t, wt = log_panel_grid(te, t_max, panels_per_decade=4, n_per_panel=10)
    gl_x, gl_w = leggauss(32)
    half = 0.5 * (np.minimum(t, s_cap) - a0)[:, None]
    s = a0 + half * (gl_x + 1.0)
    ws = half * gl_w * np.exp(-s)
    z = dt_coef * s ** pexp * t[:, None] ** (-p.alpha / 2.0)
    inner = np.sum(ws * np.expm1(z), axis=1)
    cut = (dt_coef * float(np.dot(ws[-1], s[-1] ** pexp))
           * t_max ** (1.0 - p.alpha / 2.0) / (p.alpha / 2.0 - 1.0))
    return (float(np.dot(wt, inner / (math.exp(-a0) - np.exp(-t))))
            + cut / math.exp(-a0))


def e2_at(p, g):
    """The engine's E2 exponent at coupling coefficients -g."""
    scale = p.pi_lam ** (p.alpha * (1.0 - p.eps) / 2.0)
    return _context(p).e2_exponent(-np.asarray(g, dtype=float) / scale)


def _e1_oracle_rows(case):
    """(params, [(b, c, x), ...]) for one case of the E1 oracle test; each
    (b, c, x) is one kernel call. The engine cases end with one call that
    holds all their rows, so that rows of every split share the chunks."""
    if case in ("sync", "async", "infinite_m"):
        p = default_params("async" if case == "async" else "sync", eps=0.5)
        ctx = _context(p)
        x = ctx.x_vals
        calls = []
        for t_db in np.arange(-10.0, 31.0, 2.0):
            t_lin = 10.0 ** (t_db / 10.0)
            for n in range(1, 5):
                b, c, _ = ctx.coefficients(eta_shape(4) * n * t_lin, x)
                if case == "infinite_m":
                    b = np.zeros_like(x)
                    c = -eta_shape(4) * n * t_lin * x ** (2.0 * p.alpha)
                calls.append((b, c, x))
        calls.append(tuple(np.concatenate(col) for col in zip(*calls)))
        return p, calls
    p = default_params("sync", eps=0.5)
    a4, a8 = p.alpha, 2.0 * p.alpha
    x = np.array([0.3, 0.8, 1.7])
    if case == "single_row":
        return p, [(np.array([-0.02]), np.array([-1e-3]), np.array([0.9]))]
    if case == "split_at_0":
        # |z| <= |beta| + |gam| < Z on all of tau >= 1: no expm1 node
        beta, gam = np.array([-3e-5, -1e-9, 0.0]), np.array([-5e-6, 0.0, -2e-7])
    elif case == "overflow_guard":
        # beta^K or gam^K overflows float64 (|v| > 10^(308/K)), though
        # every split lies inside the grid
        beta = np.array([-1e45, 0.0, -5e44])
        gam = np.array([-1e90, -3e89, 0.0])
    elif case == "split_at_n":
        # the grid ends at 1e24, where |beta| th >= 1e50 * 1e-48 > Z: the
        # first row is expm1 on every node, the others split inside
        beta, gam = np.array([-1e50, -1.0, -1e-3]), np.array([-1e3, 0.0, -1.0])
    else:  # taylor_edge: split at 0 with |z| just under Z at the first node
        x, beta, gam = np.array([0.8]), np.array([-7e-3]), np.array([-2.9e-3])
    return p, [(beta * x ** a4, gam * x ** a8, x)]


class TestGammaApprox:
    """The closed form (1 - e^-eta A)^N of the tests' oracle, with the
    engine's eta, against the exact Gamma CDF; and the engine's binomial
    expansion against the closed form."""

    def test_shape_one_is_exact(self):
        a = np.linspace(0.0, 20.0, 801)
        np.testing.assert_allclose(gamma_mixture_cdf(a, 1), gammainc(1, a),
                                   atol=1e-12)

    def test_zero(self):
        assert gamma_mixture_cdf(0.0, 4) == 0.0

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_lower_bound_direction(self, n):
        # The exponential-mixture form is a LOWER bound on the unit-mean
        # Gamma CDF for shape > 1 (it only coincides at shape 1). The
        # acceptance suite reports the upper-bound claim separately.
        a = np.linspace(0.0, 20.0, 2001)
        diff = gamma_mixture_cdf(a, n) - gammainc(n, n * a)
        assert diff.max() <= 1e-12
        assert diff.min() < -0.01  # strictly below somewhere

    def test_expansion_identity(self, params_async):
        """The engine's alternating binomial sum, with its eta, its terms
        n = 1..N and its signs, equals 1 - (1 - e^-eta A)^N: given the
        exponent -eta n A on every x row, the coverage at threshold A is
        1 - F(A) times the x-grid mass of the serving density e^-u."""
        a = np.array([0.05, 0.3, 0.73, 2.0])
        ctx = _context(params_async)
        mass = np.dot(ctx.x_weights, np.exp(-ctx.x_nodes))
        assert mass == pytest.approx(1.0, abs=2e-10)
        for n in (1, 2, 4, 5):
            got, clamped = analytic._coverage_values(
                a, params_async, n,
                lambda c, ent: -ent * np.ones(c.x_vals.size))
            np.testing.assert_allclose(
                got, mass * (1.0 - gamma_mixture_cdf(a, n)), rtol=1e-12,
                atol=1e-15)
            assert clamped == 0


class TestInHouseSpecialFunctions:
    """The cubic spline of the engine against scipy, which the engine does
    not import."""

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_spline_against_scipy(self, eps):
        """Rebuilt on the knots and knot values of the E2 table, the
        spline matches scipy's not-a-knot CubicSpline in value at the knots
        and between them; the table's power-law continuation past its end
        matches scipy's value and first derivative there."""
        table = _context(default_params("async", eps=eps)).e2_table()
        x = table.spline.x
        y = np.append(table.spline.c[3], table.spline(x[-1]))
        ours, ref = analytic._Spline(x, y), CubicSpline(x, y)
        t = np.sort(np.concatenate([x, 0.5 * (x[1:] + x[:-1])]))
        np.testing.assert_allclose(ours(t), ref(t), rtol=1e-14, atol=0.0)
        # a scalar
        assert float(ours(x[-1])) == pytest.approx(float(ref(x[-1])),
                                                   rel=1e-14, abs=0.0)
        end = math.log(analytic._E2_HI)
        assert table.end_value == pytest.approx(float(ref(end)), rel=1e-14,
                                                abs=0.0)
        assert table.end_slope == pytest.approx(float(ref(end, 1)),
                                                rel=1e-14, abs=0.0)
        assert ours.c.shape == ref.c.shape == (4, x.size - 1)

    def test_spline_needs_equal_spacing(self):
        with pytest.raises(ValueError, match="equally spaced"):
            analytic._Spline([0.0, 1.0, 3.0, 4.0, 5.0],
                             [0.0, 1.0, 0.0, 1.0, 0.0])


class TestExclusionBallConstants:
    def test_q2_reference(self, params_async):
        assert q2(params_async) == pytest.approx(16.0, rel=1e-12)

    def test_q2_sync_zero(self, params_sync):
        assert q2(params_sync) == 0.0

    def test_q2_divergence(self, params_async):
        with pytest.raises(Exception):
            q2(params_async.with_updates(alpha=2.0))

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_q1_async_reference(self, eps):
        p = default_params("async", eps=eps)
        assert _context(p).q1 == pytest.approx(Q1_ASYNC[eps], rel=1e-9)

    def test_q1_sync_vs_async_term_toggle(self):
        """The two modes differ exactly by the documented extra terms."""
        for eps in (0.0, 0.5):
            pa = default_params("async", eps=eps)
            ps = default_params("sync", eps=eps)
            cm = CROSS_MOMENT[eps]
            noise = pa.sigma2 * pa.omega ** (eps - 1.0) / (pa.n_p * pa.p_u)
            assert _context(ps).q1 == pytest.approx(cm + noise, rel=1e-9)
            extra = (pa.p_d * pa.n_p * pa.n_d * q2(pa)
                     / (pa.p_u * pa.omega ** -eps * pa.n_tot ** 2))
            expected = (pa.n_p + pa.n_u) / pa.n_tot ** 2 * pa.n_p * cm + extra + noise
            assert _context(pa).q1 == pytest.approx(expected, rel=1e-9)

    def test_q1_eps0_closed_reduction(self, params_async):
        # at eps=0 the cross moment reduces to R_e^-alpha * (pi lam R_e^2)
        # ^(1-alpha/2) / (alpha/2-1) = 16 for the reference geometry
        assert CROSS_MOMENT[0.0] == 16.0
        assert _context(params_async).q1 == pytest.approx(
            0.0125 * 10 * 16.0 + Q1_ASYNC[0.0] - 2.0 - 5.0117e-11, rel=1e-6)

    def test_q3_sync_zero(self, params_sync):
        assert _context(params_sync).q3 == 0.0

    def test_q3_structural_identity(self, params_async):
        # simplified foreign-uplink moment = N_p * cross moment, exactly
        assert _context(params_async).q3 == pytest.approx(
            params_async.n_p * CROSS_MOMENT[0.0], rel=1e-9)

    @pytest.mark.parametrize("alpha", [3.0, 4.0, 5.0])
    @pytest.mark.parametrize("eps", [0.25, 0.3, 0.75])
    @pytest.mark.parametrize("r0", [0.05, 0.3])
    def test_cross_moment_against_scipy_quad(self, alpha, eps, r0):
        """The panel sums of the cross moment against the adaptive oracle:
        ``quad`` over t with the inner integral int_a0^t s^p e^-s ds from
        ``gammainc``, at non-integer shapes p + 1 = alpha eps / 2 + 1."""
        p = default_params("async", eps=eps).with_updates(alpha=alpha, r0=r0)
        q = p.pi_lam
        a0, te = q * p.r0 ** 2, q * p.r_e ** 2
        k = alpha * eps / 2.0 + 1.0

        def f(t):
            inner = math.gamma(k) * (gammainc(k, t) - gammainc(k, a0))
            return t ** (-alpha / 2.0) * inner / (math.exp(-a0) - math.exp(-t))

        ref = (q ** (alpha * (1.0 - eps) / 2.0)
               * quad(f, te, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0])
        assert analytic._cross_moment(*analytic._geometry(p)) \
            == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_q1_monte_carlo_estimator(self, eps, rng):
        """Sample the exclusion-ball field and the conditional serving law;
        the empirical cross moment must sit within 5% of the quadrature. At
        eps 0 the serving draws do not matter (r^0 = 1), at eps 0.5 they
        do; one draw per station (2.882 against 2.886 here)."""
        p = default_params("async", m=64, eps=eps)
        r_far = 40.0
        area = math.pi * (r_far ** 2 - p.r_e ** 2)
        total = 0.0
        reps = 4000
        from mimosg.geometry import trunc_rayleigh_sample
        for _ in range(reps):
            n = rng.poisson(p.lam * area)
            u = rng.random(n)
            rl = np.sqrt(p.r_e ** 2 + u * (r_far ** 2 - p.r_e ** 2))
            rs = trunc_rayleigh_sample(p.lam, p.r0, rl, rng, size=n)
            total += np.sum(rs ** (p.alpha * p.eps) * rl ** (-p.alpha))
        est = total / reps
        assert est == pytest.approx(CROSS_MOMENT[p.eps], rel=0.05)


class TestCoefficients:
    def test_zero_threshold(self, params_async):
        b, c, d = _context(params_async).coefficients(0.0, 0.3)
        assert b == 0.0 and c == 0.0 and d == 0.0

    def test_nonpositive(self, params_sync):
        b, c, d = _context(params_sync).coefficients(eta_shape(4) * 3 * 2.0,
                                                     0.7)
        assert b <= 0.0 and c <= 0.0 and d <= 0.0

    def test_c_mode_ratio(self):
        pa = default_params("async", eps=0.5)
        ps = default_params("sync", eps=0.5)
        _, ca, _ = _context(pa).coefficients(eta_shape(1) * 1.0, 0.3)
        _, cs, _ = _context(ps).coefficients(eta_shape(1) * 1.0, 0.3)
        assert ca / cs == pytest.approx(10 * 400 * 20 / 40.0 ** 4, rel=1e-12)

    def test_d_mode_ratio(self):
        pa = default_params("async", eps=0.5)
        ps = default_params("sync", eps=0.5)
        _, _, da = _context(pa).coefficients(eta_shape(1) * 1.0, 0.3)
        _, _, ds = _context(ps).coefficients(eta_shape(1) * 1.0, 0.3)
        assert da / ds == pytest.approx(20.0 / 1600.0, rel=1e-12)


def _lone_cell_run(p, rng):
    """The kernels on one station with its K users, tagged, in downlink."""
    bs = np.array([[2.0, 2.0]])
    r = p.r0 + 0.6 * rng.random((1, p.n_p))
    ang = 2.0 * np.pi * rng.random((1, p.n_p))
    users = bs[:, None, :] + np.stack([r * np.cos(ang), r * np.sin(ang)], -1)
    net = NetworkRealization(bs=bs, users=users, serving=r,
                             valid=np.array([True]), window=4.0)
    return run_kernels(net, p, 0, np.full(1, 2, dtype=np.int8))


class TestSharedTerms:
    """The analytic c1 and the Monte Carlo g1 read one set of per-user
    terms: in a lone cell, where every interference sum of g1 is empty,
    g1 plus c1's mean-field terms is c1."""

    @pytest.mark.parametrize("mode", ["async", "sync"])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_lone_cell_g1_is_c1_without_mean_fields(self, mode, eps, rng):
        p = default_params(mode, eps=eps)
        run = _lone_cell_run(p, rng)
        g1, g2, g3 = run.sinr
        assert not g2.any() and not g3.any()
        x = run.d_serv[run.tag]
        t = _kernels.user_terms(x, p)
        np.testing.assert_array_equal(g1, t.base)

        ctx = _context(p)
        # the station-to-station sum replaced by Q2, and the foreign uplink
        mean_field = t.i_coef * ctx.bs_q2 + ctx.foreign_uplink(x)
        assert (mean_field == 0.0).all() == p.sync
        np.testing.assert_allclose(g1 + mean_field, ctx.c1(x), rtol=1e-15,
                                   atol=0.0)

    @pytest.mark.parametrize("mode", ["async", "sync"])
    def test_lone_cell_has_no_foreign_pilot_power(self, mode, rng):
        """With no other cell, the foreign pilot power table is all zero
        and Delta is the own pilot plus the pilot noise."""
        p = default_params(mode, eps=0.5)
        run = _lone_cell_run(p, rng)
        assert run.foreign.shape == (1, p.n_p if p.sync else 1)
        assert not run.foreign.any()
        pwr = p.p_u * p.omega ** (1.0 - p.eps)
        np.testing.assert_allclose(
            run.deltas,
            pwr * run.d_serv ** (-p.alpha * (1.0 - p.eps)) + p.sigma2 / p.n_p,
            rtol=1e-15, atol=0.0)


class TestLaplaceTerms:
    def test_unit_at_zero_threshold(self, params_async):
        ctx = _context(params_async)
        x = np.array([0.3])
        b, c, d = ctx.coefficients(0.0, x)
        assert np.exp(ctx.e1_exponent(b, c, x))[0] == pytest.approx(1.0)
        assert np.exp(ctx.users * ctx.e2_exponent(d))[0] == pytest.approx(1.0)

    def test_bounded_and_monotone_in_threshold(self, params_async):
        ts = [0.1, 0.5, 1.0, 3.0, 10.0, 100.0]
        ctx = _context(params_async)
        x = np.array([0.4])
        e1s, e2s = [], []
        for t in ts:
            b, c, d = ctx.coefficients(eta_shape(1) * t, x)
            e1s.append(float(np.exp(ctx.e1_exponent(b, c, x))[0]))
            e2s.append(float(np.exp(ctx.users * ctx.e2_exponent(d))[0]))
        for seq in (e1s, e2s):
            assert all(0.0 < v <= 1.0 for v in seq)
            assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_e1_against_adaptive_quadrature(self, params_async):
        p = params_async
        ctx = _context(p)
        eta = eta_shape(1)
        for t_lin, x in [(1.0, 0.3), (4.0, 0.8)]:
            b, c, _ = ctx.coefficients(eta * t_lin, np.array([x]))
            bt = float(b[0]) * p.pi_lam ** (p.alpha / 2.0)
            ct = float(c[0]) * p.pi_lam ** p.alpha
            a = p.pi_lam * x * x

            def f(u):
                t = math.exp(u)
                return t * math.expm1(bt * t ** (-p.alpha / 2.0)
                                      + ct * t ** -p.alpha)

            # finite split keeps the adaptive reference free of truncation
            # loss; the algebraic remainder beyond t_cut is added in closed
            # form to first order (second order is ~1e-12 here). The
            # integral runs in u = log t: on t itself the integrand's
            # features at t ~ a are invisible across [a, 1e8]
            t_cut = 1e8
            ref = quad(f, math.log(a), math.log(t_cut), epsabs=0.0,
                       epsrel=1e-12)[0] \
                + bt * t_cut ** (1.0 - p.alpha / 2.0) / (p.alpha / 2.0 - 1.0)
            got = float(ctx.e1_exponent(b, c, np.array([x]))[0])
            assert got == pytest.approx(ref, rel=1e-7, abs=1e-12)

    def test_e1_against_field_simulation(self, params_async, rng):
        """Sample the interfering-station field around the tagged user and
        average exp of the realized exponent: validates the Campbell step
        itself, not just the quadrature. Reference point: T=1, n=1, x=0.3."""
        p = params_async
        t_lin, n, x = 1.0, 1, 0.3
        ctx = _context(p)
        xs = np.array([x])
        b_row, c_row, _ = ctx.coefficients(eta_shape(n) * n * t_lin, xs)
        b, c = float(b_row[0]), float(c_row[0])
        r_far = 12.0  # exponent tail beyond this is ~1e-4 of the total
        area = math.pi * (r_far ** 2 - x * x)
        vals = []
        for _ in range(150):
            counts = rng.poisson(p.lam * area, size=400)
            mx = counts.max()
            u = rng.random((400, mx))
            rr = np.sqrt(x * x + u * (r_far ** 2 - x * x))
            mask = np.arange(mx)[None, :] < counts[:, None]
            s = np.where(mask, b * rr ** -p.alpha + c * rr ** (-2 * p.alpha),
                         0.0).sum(axis=1)
            vals.append(np.exp(s))
        estimate = float(np.concatenate(vals).mean())
        e1 = float(np.exp(ctx.e1_exponent(b_row, c_row, xs))[0])
        assert e1 == pytest.approx(estimate, rel=0.03)

    def test_e1_exponent_against_scipy_quad(self, params_sync):
        """Rows sharing one tau grid, from tiny through moderate to
        saturating exponents (B x^-a + C x^-2a down to -1.6e4)."""
        p = params_sync
        q = p.pi_lam
        rows = [(-1e-10, -1e-13, 0.2), (-3e-3, -2e-5, 0.4),
                (-0.02, -1e-3, 0.9), (-10.0, -1.0, 0.3),
                (-1e3, -1e4, 1.5), (0.0, -5.0, 0.6)]
        b, c, x = (np.array(col) for col in zip(*rows))
        assert np.min(b * x ** -p.alpha + c * x ** (-2 * p.alpha)) < -40.0
        got = _context(p).e1_exponent(b, c, x)
        for (bi, ci, xi), val in zip(rows, got):
            bt, ct = bi * q ** (p.alpha / 2.0), ci * q ** p.alpha

            def f(t):
                return math.expm1(bt * t ** (-p.alpha / 2.0)
                                  + ct * t ** -p.alpha)

            a = q * xi * xi
            ref = (quad(f, a, 10.0 * a, epsabs=0.0, epsrel=1e-13)[0]
                   + quad(f, 10.0 * a, np.inf, epsabs=0.0, epsrel=1e-13)[0])
            assert val == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("case, rtol", [
        ("sync", 1e-13), ("async", 1e-13), ("infinite_m", 1e-13),
        ("single_row", 1e-13), ("split_at_0", 1e-13), ("split_at_n", 1e-13),
        ("overflow_guard", 1e-13),
        # largest Taylor remainder; a degree-5 tail would miss it by 1.2e-14
        ("taylor_edge", 2e-15)])
    def test_e1_exponent_against_full_grid(self, case, rtol):
        p, calls = _e1_oracle_rows(case)
        ctx = _context(p)
        grid = _tau_grid(p.alpha)
        th_min = 1e24 ** (-p.alpha / 2.0)
        for b, c, x in calls:
            beta, gam = b * x ** -p.alpha, c * x ** (-2.0 * p.alpha)
            split = _e1_splits(grid, beta, gam)
            if case in ("split_at_0", "taylor_edge"):
                assert np.max(np.abs(beta)) + np.max(np.abs(gam)) < _TAYLOR_Z
                assert not split.any()
            if case == "split_at_n":
                assert np.abs(beta[0]) * th_min > _TAYLOR_Z
                assert split[0] == grid.th.size
                assert 0 < split[1:].max() < grid.th.size
            if case == "overflow_guard":
                with np.errstate(over="ignore"):
                    raw = np.maximum(np.abs(beta), np.abs(gam)) ** _TAYLOR_K
                assert np.all(np.isinf(raw))
                assert np.all((0 < split) & (split < grid.th.size))
            np.testing.assert_allclose(ctx.e1_exponent(b, c, x),
                                       e1_exponent_full_grid(p, b, c, x),
                                       rtol=rtol, atol=0.0)

    def test_e1_row_alone_equals_row_in_block(self):
        """A row's E1 is bit-identical alone and inside a block that mixes
        rows split at node 0 with rows split further on, with more of each
        than one chunk of the tail holds: the rows on both sides of every
        chunk boundary of either kind, and the first and last of each."""
        p = default_params("sync", eps=0.5)
        ctx = _context(p)
        grid = _tau_grid(p.alpha)
        a = p.pi_lam * ctx.x_vals ** 2
        ent = np.geomspace(1e-9, 300.0, 96)[:, None]
        beta = (ent * ctx.unit_b * (a / p.pi_lam) ** (-p.alpha / 2.0)).ravel()
        gam = (ent * ctx.unit_c * (a / p.pi_lam) ** -p.alpha).ravel()
        split = _e1_splits(grid, beta, gam)
        block = _e1_integral(grid, beta, gam)
        picks = []
        # rows per chunk of the tail: split at node 0, split further on
        for rows, step in ((np.flatnonzero(split == 0),
                            analytic._HEAD_CHUNK // 4),
                           (np.flatnonzero(split > 0),
                            analytic._HEAD_CHUNK // 16)):
            assert rows.size > step
            edges = np.arange(step, rows.size, step)
            picks.append(rows[np.concatenate([[0, rows.size - 1],
                                              edges - 1, edges])])
        for i in np.concatenate(picks):
            alone = _e1_integral(grid, beta[i:i + 1], gam[i:i + 1])
            assert alone[0] == block[i]

    # Relative offsets from _TAYLOR_Z of the bound |beta| th_0 + |gam|
    # th_0^2 at the first node: far below it, on both sides of the margin
    # of the pre-check (1e-9), and within 1e-12 of it
    SPLIT_EDGE_OFFSETS = (-0.5, -1e-6, -2e-9, -1e-9 * (1.0 + 1e-6),
                          -1e-9 * (1.0 - 1e-6), -1e-12, -3e-13, 0.0, 3e-13,
                          1e-12)
    # _e1_integral of the edge rows (pure beta, half and half, pure gam,
    # each at every offset) and of SPLIT_FIXED_ROWS, as computed by
    # searching the split of every row; alpha = 4
    SPLIT_EDGE_VALUES = [
        -0.005097721504959274, -0.010186782355959195, -0.01018679250512938,
        -0.010186792515298878, -0.010186792515298897, -0.010186792525458227,
        -0.010186792525465345, -0.0101867925254684, -0.01018679252547145,
        -0.010186792525478569,
        -0.0034158330672762033, -0.006825883734417769, -0.006825890535140365,
        -0.006825890541954709, -0.006825890541954722, -0.006825890548762253,
        -0.0068258905487670225, -0.006825890548769067, -0.006825890548771112,
        -0.006825890548775882,
        -0.001733464177412038, -0.0034630656337561704, -0.003463069082204529,
        -0.0034630690856598846, -0.0034630690856598915, -0.003463069089111792,
        -0.003463069089114211, -0.0034630690891152473, -0.0034630690891162825,
        -0.0034630690891187025]
    SPLIT_FIXED_ROWS = [(-1e-3, -1e-5), (-0.3, -20.0), (-50.0, -1e3),
                        (-1e4, -1e6), (0.0, -3e-2), (-2.5e-2, 0.0),
                        (0.0, 0.0)]
    SPLIT_FIXED_VALUES = [
        -0.0010031646935708596, -1.7185902150674937, -12.3949345237097,
        -176.6805916625229, -0.00993612113723755, -0.024896351850529363, 0.0]

    @staticmethod
    def _searched_splits(grid, beta, gam):
        """The split of every row by the root and a binary search, with
        no pre-check: th_split = 2 Z / (|beta| + sqrt(beta^2 + 4 Z |gam|))
        and the count of nodes with th at or above it."""
        bm = np.abs(beta)
        with np.errstate(divide="ignore"):
            root = -2.0 * _TAYLOR_Z / (
                np.sqrt(np.abs(gam) * (4.0 * _TAYLOR_Z) + bm * bm) + bm)
        return np.searchsorted(-grid.th, root, side="right")

    def test_split_pre_check_is_exact(self):
        """Rows whose bound at the first node stays below _TAYLOR_Z (1 -
        1e-9) get split 0 without a search. At and near that edge, and on
        random rows over the couplings the engine meets, every split is
        the searched one, and _e1_integral returns, bit for bit, what it
        returned when it searched every row."""
        grid = _tau_grid(4.0)
        th0 = grid.th[0]
        beta, gam = [], []
        for f in (0.0, 0.5, 1.0):
            for rel in self.SPLIT_EDGE_OFFSETS:
                bound = _TAYLOR_Z * (1.0 + rel)
                beta.append(-(1.0 - f) * bound / th0)
                gam.append(-f * bound / th0 ** 2)
        beta, gam = np.array(beta), np.array(gam)
        split = _e1_splits(grid, beta, gam)
        np.testing.assert_array_equal(
            split, self._searched_splits(grid, beta, gam))
        # both sides of the edge occur: split 0 at and just below it
        assert split.min() == 0 and split.max() == 1
        assert _e1_integral(grid, beta, gam).tolist() \
            == self.SPLIT_EDGE_VALUES

        fixed_b, fixed_g = (np.array(col) for col in
                            zip(*self.SPLIT_FIXED_ROWS))
        assert _e1_integral(grid, fixed_b, fixed_g).tolist() \
            == self.SPLIT_FIXED_VALUES

        rng = np.random.default_rng(25)
        rb = -10.0 ** rng.uniform(-9.0, 4.0, 4000)
        rg = -10.0 ** rng.uniform(-12.0, 6.0, 4000)
        rg[::7] = 0.0
        rb[3::7] = 0.0
        split = _e1_splits(grid, rb, rg)
        np.testing.assert_array_equal(split,
                                      self._searched_splits(grid, rb, rg))
        assert 0.1 < np.mean(split == 0) < 0.9

    @pytest.mark.parametrize("mode, eps, n_p", [
        ("sync", 0.0, 2), ("sync", 0.5, 2), ("sync", 1.0, 2),
        ("sync", 0.5, 30), ("async", 0.5, 10), ("async", 1.0, 10)])
    def test_e1_tau_rule_against_finer_rule(self, mode, eps, n_p):
        """The shipped tau rule (quarter decades of 10 nodes, 960 nodes)
        against eighth decades of 16 nodes (3072), on the rows of the N = 1
        coverage that the rate integrates, z from 1e-8 to z_hi. Over 4000
        rows drawn from the E1 calls of 12 rates (sync eps 0, 0.5, 1 at
        n_p 2, 10, 30 and N = 4; async eps 0, 0.5, 1 at N = 1) the largest
        relative difference was 1.9e-11 (at beta -0.53, gam -16.4) and the
        median 7e-15; here it is at most 1.6e-11. The bound is 5 times
        2e-11."""
        p = default_params(mode, eps=eps, n_p=n_p)
        ctx = _context(p)
        z_hi = ergodic_rate(p, 1).z_hi
        tau, w = log_panel_grid(1.0, 1e24, panels_per_decade=8,
                                n_per_panel=16)
        th = tau ** (-p.alpha / 2.0)
        x = ctx.x_vals
        worst = 0.0
        for ent in np.geomspace(1e-8, z_hi, 16):
            shipped = ctx.e1_exponent(ent * ctx.unit_b, ent * ctx.unit_c, x)
            z = np.multiply.outer(ent * ctx.unit_c * x ** (-2.0 * p.alpha),
                                  th)
            z += (ent * ctx.unit_b * x ** -p.alpha)[:, None]
            z *= th
            fine = p.pi_lam * x ** 2 * (np.expm1(z) @ w)
            worst = max(worst, np.max(np.abs(shipped / fine - 1.0)))
        assert worst < 1e-10

    def test_e2_table_shared_across_pilot_lengths(self):
        pa = default_params("sync", eps=0.5, n_p=5)
        pb = default_params("sync", eps=0.5, n_p=25)
        ctx_a, ctx_b = _context(pa), _context(pb)
        assert ctx_a is not ctx_b
        shared = ctx_a.e2_table()
        assert ctx_b.e2_table() is shared
        fresh = ctx_b._build_e2_table()
        assert fresh is not shared
        assert (fresh.end_value, fresh.end_slope) == (shared.end_value,
                                                      shared.end_slope)
        assert fresh.linear_slope == shared.linear_slope
        np.testing.assert_array_equal(fresh.spline.x, shared.spline.x)
        np.testing.assert_array_equal(fresh.spline.c, shared.spline.c)

    @pytest.mark.parametrize("r0", [0.05, 0.3])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_e2_table_against_oracle(self, eps, r0):
        """The one-pass table at its knots against the per-coupling build.
        Up to g = 100 the two agree to rounding. Beyond it the 32-node
        inner rule does not resolve the layer near a0 where expm1
        saturates (width about (t^(a/2)/g)^(1/p)); its error changes with
        t, and the two builds sample it at different t nodes, so they part
        by up to 8.3e-7 there, where E2 < -15."""
        p = default_params("async", eps=eps).with_updates(r0=r0)
        grid = np.geomspace(1e-12, 1e15, 217)
        ref = np.array([e2_oracle(p, -g) for g in grid])
        got = e2_at(p, grid)
        near = grid <= 100.0
        assert np.all(ref[~near] < -15.0)
        np.testing.assert_allclose(got[near], ref[near], rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(got[~near], ref[~near], rtol=2e-6,
                                   atol=0.0)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_e2_spline_against_direct(self, eps):
        """Tabulated-spline evaluation vs direct double quadrature."""
        p = default_params("async", eps=eps)
        for coef in (-1e-7, -0.013, -1.7, -210.0, -4.4e4):
            via_spline = float(e2_at(p, -coef)[0])
            assert via_spline == pytest.approx(e2_oracle(p, coef), rel=1e-6,
                                               abs=1e-13)

    @pytest.mark.parametrize("g", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_e2_exponent_against_scipy_quad(self, eps, g):
        """The E2 exponent at table knots against nested adaptive
        quadrature of its double integral. Up to g = 1 the table is exact
        to rounding; at g = 1e3 the 32-node inner s-rule misses the layer
        near a0 where expm1 saturates, by 2.0e-8 (eps 0.5) and -1.6e-8
        (eps 1) relative."""
        p = default_params("sync", eps=eps)
        q = p.pi_lam
        a0 = q * p.r0 ** 2
        te = q * p.r_e ** 2
        s_cap = a0 + 45.0
        pexp = p.alpha * p.eps / 2.0

        def inner(t):
            c = g * t ** (-p.alpha / 2.0)
            return quad(lambda s: math.exp(-s) * math.expm1(-c * s ** pexp),
                        a0, min(t, s_cap), epsabs=0.0, epsrel=1e-13,
                        limit=200)[0]

        # in log t up to s_cap, where the inner upper end moves, then in t
        ref = (quad(lambda u: math.exp(u) * inner(math.exp(u))
                    / (math.exp(-a0) - math.exp(-math.exp(u))),
                    math.log(te), math.log(s_cap), epsabs=0.0, epsrel=1e-13,
                    limit=200)[0]
               + quad(lambda t: inner(t) / math.exp(-a0), s_cap, np.inf,
                      epsabs=0.0, epsrel=1e-13, limit=200)[0])
        rtol = 1e-13 if g <= 1.0 else 3e-8
        assert float(e2_at(p, g)[0]) == pytest.approx(ref, rel=rtol, abs=0.0)

    def test_e2_eps0_reduction(self):
        """At eps=0 the inner average collapses; the 1-D route must agree."""
        p = default_params("async", eps=0.0)
        ctx = _context(p)
        from mimosg.analytic import _e2_exponent_no_pc
        eta = eta_shape(1)
        for t_lin, x in [(0.5, 0.3), (2.0, 0.7), (20.0, 1.2)]:
            _, _, d = ctx.coefficients(eta * t_lin, np.array([x]))
            full = float(ctx.e2_exponent(d)[0])
            red = float(_e2_exponent_no_pc(ctx, d)[0])
            assert full == pytest.approx(red, rel=1e-6, abs=1e-12)

    def test_sync_async_exponent_factor(self):
        """Tabulated E2 exponent is shared; modes differ only through the
        D coefficient ratio and the per-user multiplicity."""
        pa = default_params("async", eps=0.5)
        ps = default_params("sync", eps=0.5)
        ctx_a, ctx_s = _context(pa), _context(ps)
        _, _, da = ctx_a.coefficients(eta_shape(1) * 1.0, 0.4)
        _, _, ds = ctx_s.coefficients(eta_shape(1) * 1.0, 0.4)
        ea = math.log(np.exp(ctx_a.users * ctx_a.e2_exponent(da))[0])
        es = math.log(np.exp(ctx_s.users * ctx_s.e2_exponent(ds))[0])
        assert ea == pytest.approx(
            pa.n_p * float(ctx_a.e2_exponent(np.array([da]))[0]), rel=1e-12)
        assert es == pytest.approx(
            float(ctx_s.e2_exponent(np.array([ds]))[0]), rel=1e-12)


class TestCoverage:
    def test_limits(self, params_async):
        lo = coverage(np.array([1e-9]), params_async, 1).coverage[0]
        hi = coverage(np.array([1e9]), params_async, 1).coverage[0]
        assert lo == pytest.approx(1.0, abs=2e-2)
        assert hi == pytest.approx(0.0, abs=1e-12)

    def test_monotone_and_bounded(self, params_sync):
        th = 10.0 ** (np.arange(-10.0, 21.0, 1.0) / 10.0)
        cov = coverage(th, params_sync, 4).coverage
        assert np.all((cov >= 0.0) & (cov <= 1.0))
        assert np.all(np.diff(cov) <= 1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_threshold_rejected(self, params_async, bad):
        """A DomainError, not a NumericalError from the quadrature."""
        with pytest.raises(DomainError, match="finite and >= 0"):
            coverage(np.array([1.0, bad]), params_async, 1)

    def test_negative_threshold_rejected(self, params_async):
        with pytest.raises(DomainError):
            coverage(np.array([-0.5]), params_async, 1)

    @pytest.mark.parametrize("n_shape", [17, 50, 2000, math.inf])
    def test_gamma_shape_above_cap_refused(self, params_sync, n_shape):
        """Coverage and rate refuse a shape whose expansion amplifies the
        quadrature's errors past use, with a DomainError, before any
        binomial coefficient is formed."""
        assert analytic._MAX_GAMMA_SHAPE < n_shape
        th = np.array([0.1, 1.0])
        cap = f"n_shape must be <= {analytic._MAX_GAMMA_SHAPE}"
        with pytest.raises(DomainError, match=cap):
            coverage(th, params_sync, n_shape)
        with pytest.raises(DomainError, match=cap):
            ergodic_rate(params_sync, n_shape)

    @pytest.mark.parametrize("n_shape", [8, analytic._MAX_GAMMA_SHAPE])
    def test_largest_shapes_run(self, n_shape):
        """N = 8, the largest shape criterion 2 uses, and the cap itself
        run at the sync eps 0.5 defaults."""
        p = default_params("sync", eps=0.5)
        th = 10.0 ** (np.arange(-10.0, 21.0, 5.0) / 10.0)
        cov = coverage(th, p, n_shape).coverage
        assert np.all((cov >= 0.0) & (cov <= 1.0))
        assert np.all(np.diff(cov) <= 0.0)
        assert 0.0 < ergodic_rate(p, n_shape).rate < 20.0

    def test_alternating_sum_stable_to_n8(self, params_sync):
        th = 10.0 ** (np.arange(-10.0, 21.0, 3.0) / 10.0)
        for n in (2, 3, 4, 8):
            cov = coverage(th, params_sync, n).coverage
            assert np.all(np.isfinite(cov))
            assert np.all((cov >= 0.0) & (cov <= 1.0))

    def test_eps0_cross_path(self):
        th = 10.0 ** (np.linspace(-10.0, 20.0, 10) / 10.0)
        for mode, n in (("async", 1), ("sync", 4)):
            p = default_params(mode, eps=0.0)
            general = coverage(th, p, n).coverage
            reduced = coverage_no_pc(th, p, n).coverage
            assert np.max(np.abs(general - reduced)) < 1e-3

    def test_infinite_m_cross_path(self):
        th = 10.0 ** (np.linspace(-10.0, 20.0, 10) / 10.0)
        for mode, n in (("async", 1), ("sync", 4)):
            p = default_params(mode, m=10 ** 6, eps=0.0)
            general = coverage(th, p, n).coverage
            limit = coverage_infinite_m(th, p, n).coverage
            assert np.max(np.abs(general - limit)) < 0.02

    def test_fullpc_cross_path(self):
        p = default_params("async", eps=1.0)
        th = 10.0 ** (np.arange(-10.0, 21.0, 3.0) / 10.0)
        f = coverage_fullpc_async(th, p, 1).coverage
        g = coverage(th, p, 1).coverage
        assert np.max(np.abs(f - g)) < 0.05
        # at thresholds low enough for non-trivial coverage the dominant
        # foreign-uplink reduction still tracks the general pipeline
        th_low = 10.0 ** (np.arange(-70.0, -29.0, 5.0) / 10.0)
        f_low = coverage_fullpc_async(th_low, p, 1).coverage
        g_low = coverage(th_low, p, 1).coverage
        assert f_low[0] > 0.1  # non-degenerate comparison
        assert np.max(np.abs(f_low - g_low)) < 0.05

    @pytest.mark.parametrize("path, mode, n_shape", [
        *[(path, mode, n) for path in ("general", "no_pc", "infinite_m")
          for mode in ("sync", "async") for n in (1, 4)],
        ("fullpc", "async", 1), ("fullpc", "async", 4)])
    def test_value_alone_equals_value_in_curve(self, path, mode, n_shape):
        """Rows are batched over the whole curve; a threshold's coverage
        must not depend on the thresholds it is computed with."""
        curve_fn, eps = {"general": (coverage, 0.5),
                         "no_pc": (coverage_no_pc, 0.0),
                         "infinite_m": (coverage_infinite_m, 0.5),
                         "fullpc": (coverage_fullpc_async, 1.0)}[path]
        p = default_params(mode, eps=eps)
        th = 10.0 ** (np.arange(-10.0, 21.0, 1.0) / 10.0)
        curve = curve_fn(th, p, n_shape).coverage
        alone = [curve_fn(th[i:i + 1], p, n_shape).coverage[0]
                 for i in range(th.size)]
        np.testing.assert_allclose(alone, curve, rtol=0.0, atol=1e-15)

    def test_fullpc_monotone_in_power_ratio(self):
        th = np.array([1e-5])
        vals = []
        for p_u in (0.05, 0.2, 0.8):
            p = default_params("async", eps=1.0).with_updates(p_u=p_u)
            vals.append(coverage_fullpc_async(th, p, 1).coverage[0])
        assert vals[0] >= vals[1] >= vals[2]

    def test_fullpc_zero_threshold(self):
        # exact up to the documented 1e-10 truncation of the radial integral
        p = default_params("async", eps=1.0)
        got = coverage_fullpc_async(np.array([0.0]), p, 1).coverage[0]
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_mode_guards(self, params_async, params_sync):
        with pytest.raises(DomainError):
            coverage_fullpc_async(np.array([1.0]), params_async, 1)  # eps != 1
        with pytest.raises(DomainError):
            coverage_no_pc(np.array([1.0]), params_sync, 4)  # eps != 0

    def test_c1_contains_isolated_floor(self, params_async):
        m = params_async.m
        floor = (v_m(m) - 1.0 + params_async.n_p) / c_m(m) ** 2
        assert float(_context(params_async).c1(0.3)) > floor


class TestErgodicRate:
    def test_rate_positive_and_sane(self):
        p = default_params("async", m=64, eps=0.0)
        r = ergodic_rate(p, 1)
        assert 0.0 < r.rate < p.n_p * p.n_d / p.n_tot * 20.0

    @pytest.mark.parametrize("mode, eps, n_p, n_shape", [
        pytest.param("async", eps, n_p, 1, id=f"async-{eps}-{n_p}")
        for eps in (0.0, 0.25, 0.5, 0.75) for n_p in (10, 20)]
        + [pytest.param("sync", 0.5, 10, 4, id="sync-0.5-10")])
    def test_rate_matches_manual_integration(self, mode, eps, n_p, n_shape):
        """Independent route: integrate the coverage curve over T on a rule
        graded in log T, 6 panels per decade of 16 nodes from 1e-10 to 1e4,
        plus one 16-node panel on [0, 1e-10]. It resolves the steep drop
        of async coverage at small T when eps > 0."""
        p = default_params(mode, m=64, eps=eps, n_p=n_p)
        t, w = log_panel_grid(1e-10, 1e4, panels_per_decade=6,
                              n_per_panel=16)
        t0, w0 = gauss_legendre_panels(np.array([0.0, 1e-10]), 16)
        t, w = np.concatenate([t0, t]), np.concatenate([w0, w])
        cov = coverage(t, p, n_shape).coverage
        manual = (p.n_p * p.n_d / p.n_tot / math.log(2.0)
                  * float(np.dot(w, cov / (1.0 + t))))
        assert ergodic_rate(p, n_shape).rate == pytest.approx(manual,
                                                              rel=1e-9)

    @pytest.mark.parametrize("eps", [0.9, 1.0])
    def test_low_end_converged(self, eps, monkeypatch):
        """Where coverage drops at T far below 1e-10, starting the
        quadrature further down, at z_lo = 1e-24 with the closed-form head
        kept below it, does not move the rate."""
        p = default_params("async", m=64, eps=eps)
        rate = ergodic_rate(p, 1).rate
        monkeypatch.setattr(analytic, "_Z_LO_CANDIDATES", np.array([1e-24]))
        monkeypatch.setattr(analytic, "_Z_HEAD_TOL", 0.0)
        deep = ergodic_rate(p, 1)
        assert deep.z_lo == 1e-24
        assert rate == pytest.approx(deep.rate, rel=1e-9)

    @pytest.mark.parametrize("mode, eps, n_p, n_shape", [
        ("async", 0.5, 10, 1), ("async", 1.0, 10, 1), ("sync", 0.5, 2, 4),
        ("sync", 0.5, 30, 4), ("sync", 0.0, 10, 4)])
    def test_halving_z_panels(self, mode, eps, n_p, n_shape, monkeypatch):
        """z panels of half the width, 6 per decade, do not move the rate."""
        p = default_params(mode, m=64, eps=eps, n_p=n_p)
        rate = ergodic_rate(p, n_shape).rate
        monkeypatch.setattr(analytic, "_Z_PANELS_PER_DECADE",
                            2.0 * analytic._Z_PANELS_PER_DECADE)
        assert ergodic_rate(p, n_shape).rate == pytest.approx(rate,
                                                              rel=1e-10)

    @pytest.mark.parametrize("n_p", [10, 15, 20, 25])
    def test_halving_z_panels_sync_full_power_control(self, n_p,
                                                      monkeypatch):
        """At sync eps 1, N = 4, the setting where halving the z panels
        moves the rate most (1.06e-10, 4.9e-10, 7.3e-10 and 6.0e-10 at
        n_p 10, 15, 20 and 25), the 3-per-decade z rule holds the rate to
        1e-9, not to test_halving_z_panels' 1e-10."""
        p = default_params("sync", m=64, eps=1.0, n_p=n_p)
        rate = ergodic_rate(p, 4).rate
        monkeypatch.setattr(analytic, "_Z_PANELS_PER_DECADE",
                            2.0 * analytic._Z_PANELS_PER_DECADE)
        assert ergodic_rate(p, 4).rate == pytest.approx(rate, rel=1e-9)

    @pytest.mark.parametrize("mode, eps, m", [
        ("async", 0.0, 64), ("async", 0.5, 64), ("async", 1.0, 64),
        ("sync", 0.5, 64), ("sync", 0.0, 4096)])
    def test_isolated_cell_ceiling_bounds_laplace_function(self, mode, eps,
                                                          m):
        """L(z) <= L(0) e^(-z f), f = (v_m - 1 + n_p) / C_M^2: the bound
        that sets z_hi, where it is 1e-18."""
        p = default_params(mode, m=m, eps=eps)
        f = (v_m(m) - 1.0 + p.n_p) / c_m(m) ** 2
        z_hi = ergodic_rate(p, 1).z_hi
        assert z_hi == pytest.approx(math.log(1e18) / f, rel=1e-15)
        z = np.concatenate([[0.0], np.geomspace(1e-3, z_hi, 40)])
        laplace, _ = analytic._coverage_values(z, p, 1)
        assert np.all(laplace <= laplace[0] * np.exp(-z * f))
        assert laplace[-1] < 1e-18

    @pytest.mark.parametrize("mode, eps, n_p, n_shape", [
        pytest.param("sync", eps, n_p, 4, id=f"sync-{eps}-{n_p}")
        for eps in (0.0, 0.5, 1.0) for n_p in (2, 10, 30)]
        + [pytest.param("async", eps, n_p, 1, id=f"async-{eps}-{n_p}")
           for eps in (0.0, 0.5, 0.75, 1.0) for n_p in (10, 20)])
    def test_closed_form_head(self, mode, eps, n_p, n_shape, monkeypatch):
        """The head L(0) sum_n s_n ln(1 + z_lo/(eta n)) replaces panels
        without moving the rate: forcing its bound to 0 starts the
        quadrature at the first point where L is flat to 1e-13, and the
        two rates agree to 1e-15. The lower bound the head's test divides
        by, max over the probe points of L(z) sum_n s_n ln(1 + z/(eta n)),
        is at most that integral."""
        p = default_params(mode, m=64, eps=eps, n_p=n_p)
        rate = ergodic_rate(p, n_shape)
        monkeypatch.setattr(analytic, "_Z_HEAD_TOL", 0.0)
        full = ergodic_rate(p, n_shape)
        assert full.z_lo in analytic._Z_LO_CANDIDATES
        assert rate.z_lo > full.z_lo
        assert 0.0 <= rate.head_bound <= 1e-16
        assert rate.rate == pytest.approx(full.rate, rel=1e-15)

        z = np.concatenate([analytic._Z_LO_CANDIDATES,
                            analytic._Z_HEAD_PROBES])
        laplace, _ = analytic._coverage_values(z, p, 1)
        eta_n = eta_shape(n_shape) * np.arange(1, n_shape + 1)
        kernel = np.log1p(np.divide.outer(z, eta_n)) @ _mixture_signs(n_shape)
        integral = full.rate * math.log(2.0) * p.n_tot / (p.n_p * p.n_d)
        assert np.max(laplace * kernel) <= integral

    def test_unconverged_low_end_raises(self, params_async, monkeypatch):
        # L(z) <= L(0) in floating point, so no z meets a zero tolerance
        monkeypatch.setattr(analytic, "_Z_LO_TOL", 0.0)
        with pytest.raises(NumericalError):
            ergodic_rate(params_async, 1)


class TestGoldenValues:
    def test_sync_coverage(self, params_sync):
        th = 10.0 ** (np.arange(-10.0, 21.0, 1.0) / 10.0)
        cov = coverage(th, params_sync, 4).coverage
        np.testing.assert_allclose(cov, GOLDEN_SYNC_COVERAGE, rtol=0.0,
                                   atol=1e-12)

    def test_pilot_length_sweep_rates(self):
        for n_p, golden in GOLDEN_SWEEP_RATES.items():
            p = default_params("sync", eps=0.5, n_p=n_p)
            assert ergodic_rate(p, 4).rate == pytest.approx(golden, rel=1e-12)

    @pytest.mark.parametrize("eps, golden", [
        (0.0, GOLDEN_ASYNC_COVERAGE_EPS0), (0.5, GOLDEN_ASYNC_COVERAGE_EPS05)],
        ids=["eps0", "eps0.5"])
    def test_async_coverage(self, eps, golden):
        th = 10.0 ** (np.arange(-10.0, 21.0, 1.0) / 10.0)
        cov = coverage(th, default_params("async", m=64, eps=eps), 1).coverage
        np.testing.assert_allclose(cov, golden, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("curve_fn, mode, eps, n_shape, db, golden", [
        (coverage_infinite_m, "async", 0.5, 1, (-10, 20),
         GOLDEN_INFINITE_M_ASYNC),
        (coverage_infinite_m, "sync", 0.5, 4, (-10, 20),
         GOLDEN_INFINITE_M_SYNC),
        (coverage_no_pc, "async", 0.0, 1, (-10, 20), GOLDEN_NO_PC_ASYNC),
        (coverage_fullpc_async, "async", 1.0, 1, (-70, -30),
         GOLDEN_FULLPC_ASYNC_LOW)],
        ids=["infinite_m-async", "infinite_m-sync", "no_pc-async",
             "fullpc-async"])
    def test_special_cases(self, curve_fn, mode, eps, n_shape, db, golden):
        step = 1.0 if db[0] == -10 else 5.0
        th = 10.0 ** (np.arange(db[0], db[1] + 1.0, step) / 10.0)
        cov = curve_fn(th, default_params(mode, eps=eps), n_shape).coverage
        np.testing.assert_allclose(cov, golden, rtol=0.0, atol=1e-12)

    def test_async_rates(self):
        for n_p, golden in GOLDEN_ASYNC_RATES.items():
            p = default_params("async", eps=0.5, n_p=n_p)
            assert ergodic_rate(p, 1).rate == pytest.approx(golden, rel=1e-12)
