"""Closed-form coverage probability and ergodic rate via quadrature.

The conditional inverse SINR is approximated by c1(x) + e1(x) + e2(x): a
deterministic part and two interference fields whose Laplace functionals
reduce, through Campbell's theorem over the exclusion-ball point fields,
to the exponential integrals evaluated here. Coverage at threshold T is
the alternating binomial sum over n = 1..N of

    integral_{r0}^inf 2 pi lam x e^{-pi lam (x^2 - r0^2)}
        * exp(-eta n T c1(x)) * E1(T,n,x) * E2(T,n,x) dx.

This module deliberately bakes in the mean-field approximations of the
closed-form route (phase indicators and observation-variance ratios
replaced by their means, conditional cross-moments replaced by the
unconditioned exclusion-ball values Q1/Q2/Q3). The Monte Carlo engine
uses exact realized values, so the gap between the two engines measures
the quality of exactly these approximations.

Numerical strategy: all integrands are smooth after mapping semi-infinite
tails onto log-spaced Gauss-Legendre panels, so fixed tensorised panels
(vectorised in numpy) replace adaptive quadrature in the hot path. The
doubly-integrated E2 exponent depends on its arguments only through one
nonpositive scalar, so it is tabulated once per geometry (pi lam, r0,
r_e, alpha, eps) on a log-log grid and spline-interpolated; tests pin
both shortcuts against the adaptive reference in :mod:`mimosg.quadrature`.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gammainc, gammaln

from .errors import DomainError, NumericalError
from .params import (SystemParams, default_gamma_shape,
                     derived_constants, eta_shape)
from .quadrature import (DEFAULT_QUAD, gauss_legendre_panels, leggauss,
                         log_panel_grid)

log = logging.getLogger(__name__)

# Truncation levels (documented design choices, not tunables):
# the x-integral stops where its exponential weight drops below 1e-10,
# tail integrands are chased down to ~1e-15 of their leading coefficient,
# and the rate integral stops once coverage falls below 1e-6.
X_WEIGHT_CUTOFF = 1e-10
TAIL_CUTOFF = 1e-15
RATE_COVERAGE_CUTOFF = 1e-6

_GUARD_LIMIT = 2.0  # |alternating sum| beyond this signals lost precision


@dataclass
class CoverageCurve:
    thresholds: np.ndarray       # linear SINR thresholds
    coverage: np.ndarray
    mode: str
    method: str                  # analytic | analytic-special | monte-carlo
    params: SystemParams
    n_shape: int | None = None
    ci_half_width: np.ndarray | None = None
    trials_used: int | None = None    # Monte Carlo: trials with tagged users

    def as_rows(self):
        return list(zip(self.thresholds.tolist(), self.coverage.tolist()))


@dataclass
class RateResult:
    rate: float                  # bits/s/Hz aggregated over a cell
    method: str
    ci_half_width: float | None = None


def gamma_cdf_approx(a, n_shape: int):
    """(1 - exp(-eta * A))^N: the exponential-mixture stand-in for the CDF
    of a unit-mean Gamma variable with shape N.

    Note the direction: for N > 1 this is a lower bound on the true CDF
    (equality at N = 1); it is tight for moderate A, which is what the
    coverage expansion relies on.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise DomainError("gamma_cdf_approx requires A >= 0")
    eta = eta_shape(n_shape)
    out = (-np.expm1(-eta * a)) ** n_shape
    return float(out) if out.ndim == 0 else out


def gamma_cdf_exact(a, n_shape: int):
    """CDF of the unit-mean Gamma(N, 1/N) variable: P(N, N*A)."""
    a = np.asarray(a, dtype=float)
    out = gammainc(n_shape, n_shape * a)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# exclusion-ball constants
# ---------------------------------------------------------------------------

def _lower_inc(p1: float, a, b):
    """integral_a^b s^(p1-1) e^-s ds via regularized lower incomplete gamma."""
    scale = math.exp(gammaln(p1))
    return (gammainc(p1, b) - gammainc(p1, a)) * scale


def q2(params: SystemParams) -> float:
    """Mean aggregate path-gain of interfering stations under the exclusion
    ball: 2 R_e^-alpha / (alpha - 2) asynchronous, zero synchronous."""
    if params.alpha <= 2:
        raise DomainError("q2 diverges for alpha <= 2")
    if params.sync:
        return 0.0
    return 2.0 * params.r_e ** (-params.alpha) / (params.alpha - 2.0)


def _cross_moment(params: SystemParams,
                  n_per: int = DEFAULT_QUAD.grid_outer) -> float:
    """E{ sum_j r_jj^(alpha eps) r_lj^-alpha }: the conditional cross moment
    of a foreign user's serving distance and its distance to the tagged
    station, integrated over the exclusion-ball field.

    Evaluated as q^(alpha(1-eps)/2) * int_te^inf t^(-alpha/2)
    [gamma_inc between a0 and t] / (e^-a0 - e^-t) dt with q = pi lam.
    """
    p = params
    q = p.pi_lam
    a0 = q * p.r0 ** 2
    te = q * p.r_e ** 2
    pexp = p.alpha * p.eps / 2.0

    # the tail integral beyond t_max is ~ Gamma(pexp+1) t_max^(1-alpha/2)
    # / (alpha/2 - 1); size t_max so that remainder is negligible
    gtot = math.exp(gammaln(pexp + 1.0))
    t_max = max(10.0 * te,
                (gtot / (1e-13 * (p.alpha / 2.0 - 1.0))) ** (2.0 / (p.alpha - 2.0)))
    t, wt = log_panel_grid(te, t_max, panels_per_decade=4, n_per_panel=n_per)
    inner = _lower_inc(pexp + 1.0, a0, t)
    vals = t ** (-p.alpha / 2.0) * inner / (math.exp(-a0) - np.exp(-t))
    return q ** (p.alpha * (1.0 - p.eps) / 2.0) * float(np.dot(wt, vals))


def q1(x: float, params: SystemParams) -> float:
    """Mean excess observation variance given serving distance x.

    The exclusion-ball step drops the conditioning on x, so the value is
    constant in x; the argument is kept for the contract (x > r0).
    """
    if x <= params.r0:
        raise DomainError(f"need x > r0={params.r0!r}, got {x!r}")
    return _q1_const(params)


def _q1_const(params: SystemParams) -> float:
    p = params
    cm = _cross_moment(p)
    noise = p.sigma2 * p.omega ** (p.eps - 1.0) / (p.n_p * p.p_u)
    if p.sync:
        return cm + noise
    return ((p.n_p + p.n_u) / p.n_tot ** 2 * p.n_p * cm
            + p.p_d * p.n_p * p.n_d * q2(p)
            / (p.p_u * p.omega ** (-p.eps) * p.n_tot ** 2)
            + noise)


def q3(x: float, params: SystemParams, exact: bool = False) -> float:
    """Mean foreign-uplink interference moment sum_j sum_k'
    r_jjk'^(alpha eps) r_lkjk'^-alpha given serving distance x.

    The production form replaces the user-to-user distance by the
    station-to-user distance, which makes it x-independent (N_p times the
    cross moment). It also conditions the foreign user's serving distance
    on (r0, |y|), with |y| that user's distance to the tagged station,
    where the exact form uses (max(r0, x - d), x + d) with d the
    user-to-user distance. At eps = 0 the serving-distance moment is 1, so
    only the distance swap shows; for eps > 0 the gap between the two forms
    mixes both changes. ``exact=True`` evaluates the full triple integral
    over the exclusion-ball field with the law-of-cosines coupling; it only
    converges for x < r_e (an interferer may otherwise coincide with the
    tagged user) and exists as the quality oracle for the approximation.
    """
    p = params
    if x <= p.r0:
        raise DomainError(f"need x > r0={p.r0!r}, got {x!r}")
    if p.sync:
        return 0.0
    if not exact:
        return p.n_p * _cross_moment(p)
    if x >= p.r_e:
        raise DomainError(
            "exact foreign-uplink moment diverges for x >= r_e "
            f"(x={x!r}, r_e={p.r_e!r})")
    return _q3_exact(x, p)


def _q3_exact(x: float, params: SystemParams) -> float:
    p = params
    q = p.pi_lam
    pexp = p.alpha * p.eps / 2.0

    # theta panels graded toward 0 where the user-to-user distance bottoms out
    th_breaks = np.array([0.0, 0.05, 0.15, 0.4, 0.9, 1.8, math.pi])
    th, wth = gauss_legendre_panels(th_breaks, 16)

    # outer radial grid: graded near r_e then log tail
    tail_scale = math.exp(gammaln(pexp + 1.0)) * q ** (-pexp)
    r_max = max(10.0 * p.r_e,
                (tail_scale * p.n_p * p.lam / TAIL_CUTOFF) ** (1.0 / (p.alpha - 2.0)))
    r_breaks = np.concatenate([
        p.r_e * np.array([1.0, 1.02, 1.06, 1.15, 1.3, 1.6, 2.0]),
        np.geomspace(2.2 * p.r_e, r_max, 24),
    ])
    r, wr = gauss_legendre_panels(r_breaks, 12)

    rr = r[:, None]
    r1 = np.sqrt(rr ** 2 + x ** 2 - 2.0 * rr * x * np.cos(th[None, :]))
    lo = np.maximum(p.r0, x - r1)
    hi = x + r1
    u1 = q * lo ** 2
    u2 = q * hi ** 2
    den = np.exp(-u1) - np.exp(-u2)
    mom = q ** (-pexp) * _lower_inc(pexp + 1.0, u1, u2) / den
    integrand = mom * r1 ** (-p.alpha)
    inner = integrand @ wth                      # theta integral, half range
    total = float(np.dot(wr, inner * r)) * 2.0   # symmetric in theta
    return p.n_p * p.lam * total


# ---------------------------------------------------------------------------
# coefficient functions
# ---------------------------------------------------------------------------

def coefficients(t_lin: float, n: int, x, params: SystemParams,
                 n_shape: int | None = None):
    """Campbell exponent coefficients (B, C, D) at threshold T, expansion
    index n and serving distance x. All three are <= 0."""
    p = params
    if n_shape is None:
        n_shape = default_gamma_shape(p.mode)
    if t_lin < 0:
        raise DomainError("threshold must be >= 0")
    eta = eta_shape(n_shape)
    dc = derived_constants(p.m, n_shape)
    return _coefficients(t_lin, n, np.asarray(x, dtype=float), p,
                         eta, dc.c_m_sq, _q1_const(p))


def _coefficients(t_lin, n, x, p: SystemParams, eta, c2, q1_val):
    xa = x ** p.alpha
    x2e = x ** (p.alpha * (2.0 - p.eps))
    x1e = x ** (p.alpha * (1.0 - p.eps))
    ent = eta * n * t_lin
    amp = xa + x2e * q1_val
    if p.sync:
        b = -ent * (p.n_p / c2) * amp
        c = -ent * ((p.m - 1.0) / c2) * x ** (2.0 * p.alpha)
        d = -(ent / c2) * x1e * (p.n_p + p.sigma2 * xa / (p.p_d * p.omega))
    else:
        b = -ent * (p.n_p / c2) * (p.n_d ** 2 / p.n_tot ** 2) * amp
        c = (-ent * ((p.m - 1.0) / c2) * x ** (2.0 * p.alpha)
             * p.n_p * p.n_d ** 2 * (p.n_p + p.n_u) / p.n_tot ** 4)
        d = (-(ent / c2) * ((p.n_p + p.n_u) / p.n_tot ** 2) * x1e
             * (p.n_p + p.sigma2 * xa / (p.p_d * p.omega)))
    return b, c, d


# ---------------------------------------------------------------------------
# engine context: grids and tabulated exponents per parameter set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _E2Table:
    """Log-log spline of -E2 exponent over the coupling magnitude, with
    the exact linear slope below ``lo``."""
    spline: CubicSpline
    lo: float
    hi: float
    linear_slope: float


@lru_cache(maxsize=32)
def _e2_slot(pi_lam: float, r0: float, r_e: float, alpha: float,
             eps: float) -> list:
    """Holder of the one E2 table of a geometry. The doubly-integrated
    exponent depends only on these five values, not on n_p, m or the
    mode, so a sweep over those builds the table once."""
    return []


@dataclass
class _Context:
    params: SystemParams
    q1: float
    q2: float
    q3: float
    x_nodes: np.ndarray        # in u = pi lam (x^2 - r0^2) coordinates
    x_weights: np.ndarray
    x_vals: np.ndarray

    # --- c1 -------------------------------------------------------------
    def c1(self, x, c2, vm):
        p = self.params
        x = np.asarray(x, dtype=float)
        xa = x ** p.alpha
        x1e = x ** (p.alpha * (1.0 - p.eps))
        x2e = x ** (p.alpha * (2.0 - p.eps))
        val = ((vm - 1.0) / c2 + p.n_p / c2
               + p.sigma2 * xa / (p.p_d * p.omega * c2)
               + p.sigma2 * x1e / (p.p_u * c2 * p.omega ** (1.0 - p.eps))
               + p.sigma2 ** 2 * x2e
               / (p.n_p * p.p_u * p.p_d * c2 * p.omega ** (2.0 - p.eps)))
        if not p.sync:
            val = val + ((xa + x2e * self.q1)
                         * p.p_u * p.n_d * (p.n_p + p.n_u) * self.q3
                         / (p.p_d * p.omega ** p.eps * c2 * p.n_tot ** 2))
            val = val + ((p.n_p + p.sigma2 * xa / (p.p_d * p.omega))
                         * p.p_d * p.n_p * p.n_d * x1e * self.q2
                         / (p.p_u * p.omega ** (-p.eps) * c2 * p.n_tot ** 2))
        return val

    # --- E1 exponent ------------------------------------------------------
    def e1_exponent(self, b, c, x):
        """int_{q x^2}^inf expm1(B q^(a/2) t^(-a/2) + C q^a t^(-a)) dt,
        vectorised over matching arrays b, c, x."""
        p = self.params
        q = p.pi_lam
        b = np.atleast_1d(np.asarray(b, dtype=float))
        c = np.atleast_1d(np.asarray(c, dtype=float))
        x = np.atleast_1d(np.asarray(x, dtype=float))
        a = q * x ** 2
        bt = b * q ** (p.alpha / 2.0)      # coefficient of t^(-a/2)
        ct = c * q ** p.alpha              # coefficient of t^(-a)

        # per-row scaled grid t = a * tau on a shared log tau-grid; truncate
        # where the remaining tail integral (not the integrand) is negligible
        with np.errstate(divide="ignore"):
            tau_tail = np.maximum(
                (np.abs(bt) / (TAIL_CUTOFF * (p.alpha / 2.0 - 1.0)))
                ** (2.0 / (p.alpha - 2.0)) / a,
                (np.abs(ct) / (TAIL_CUTOFF * (p.alpha - 1.0)))
                ** (1.0 / (p.alpha - 1.0)) / a)
        tau_max = float(np.clip(np.max(tau_tail, initial=10.0), 10.0, 1e24))
        tau, wtau = log_panel_grid(1.0, tau_max, panels_per_decade=4,
                                   n_per_panel=10)
        # with t = a tau the exponent is beta th + gam th^2, th = tau^(-a/2):
        # the powers act on the 1-D grid and the row coefficients only
        th = tau ** (-p.alpha / 2.0)
        beta = bt * a ** (-p.alpha / 2.0)
        gam = ct * a ** (-p.alpha)
        z = np.multiply.outer(gam, th)
        z += beta[:, None]
        z *= th
        np.expm1(z, out=z)
        return a * (z @ wtau)

    # --- E2 exponent ------------------------------------------------------
    def _e2_direct(self, dt_coef: float) -> float:
        """Doubly-integrated exponent at coupling coefficient dt_coef <= 0:
        int_te^inf int_a0^t e^-s expm1(dt_coef s^p t^(-a/2)) /
        (e^-a0 - e^-t) ds dt."""
        p = self.params
        q = p.pi_lam
        a0 = q * p.r0 ** 2
        te = q * p.r_e ** 2
        pexp = p.alpha * p.eps / 2.0
        if dt_coef == 0.0:
            return 0.0
        # tail ~ |coef| E{s^p} t^(-a/2): truncate on the remaining integral
        t_max = max(10.0 * te,
                    (abs(dt_coef) * 40.0 ** pexp
                     / (TAIL_CUTOFF * (p.alpha / 2.0 - 1.0)))
                    ** (2.0 / (p.alpha - 2.0)))
        t, wt = log_panel_grid(te, t_max, panels_per_decade=4, n_per_panel=10)
        s_cap = a0 + 45.0
        s_hi = np.minimum(t, s_cap)
        gl_x, gl_w = leggauss(DEFAULT_QUAD.grid_inner)
        half = 0.5 * (s_hi - a0)
        s = a0 + half[:, None] * (gl_x[None, :] + 1.0)
        ws = half[:, None] * gl_w[None, :]
        z = dt_coef * s ** pexp * t[:, None] ** (-p.alpha / 2.0)
        inner = np.sum(ws * np.exp(-s) * np.expm1(z), axis=1)
        return float(np.dot(wt, inner / (math.exp(-a0) - np.exp(-t))))

    def _build_e2_table(self) -> _E2Table:
        lo, hi = 1e-12, 1e15
        grid = np.geomspace(lo, hi, int(math.log10(hi / lo)) * 8 + 1)
        vals = np.array([self._e2_direct(-g) for g in grid])
        if np.any(vals >= 0):
            raise NumericalError("E2 exponent table is not negative")
        # small-coupling behaviour is exactly linear with this slope
        return _E2Table(spline=CubicSpline(np.log(grid), np.log(-vals)),
                        lo=lo, hi=hi, linear_slope=vals[0] / (-grid[0]))

    def e2_table(self) -> _E2Table:
        """The E2 table of this geometry, built on first use and shared
        with every parameter set of the same geometry."""
        p = self.params
        slot = _e2_slot(p.pi_lam, p.r0, p.r_e, p.alpha, p.eps)
        if not slot:
            slot.append(self._build_e2_table())
        return slot[0]

    def e2_exponent(self, d):
        """Exponent of E2 (before the per-user multiplicity factor) at
        coefficient D; spline-interpolated in log-log space."""
        p = self.params
        d = np.atleast_1d(np.asarray(d, dtype=float))
        dt_coef = d * p.pi_lam ** (p.alpha * (1.0 - p.eps) / 2.0)
        table = self.e2_table()
        lo, hi = table.lo, table.hi
        mag = np.abs(dt_coef)
        out = np.zeros_like(mag)
        tiny = (mag > 0) & (mag < lo)
        out[tiny] = dt_coef[tiny] * table.linear_slope
        mid = (mag >= lo) & (mag <= hi)
        out[mid] = -np.exp(table.spline(np.log(mag[mid])))
        big = mag > hi
        if np.any(big):
            # asymptotic power-law continuation of the log-log spline
            slope = float(table.spline(math.log(hi), 1))
            base = float(table.spline(math.log(hi)))
            out[big] = -np.exp(base + slope * (np.log(mag[big]) - math.log(hi)))
        return out


def _x_grid(params: SystemParams):
    """Gauss-Legendre panels in u = pi lam (x^2 - r0^2), where the serving
    density is exactly e^-u du."""
    u_max = -math.log(X_WEIGHT_CUTOFF)
    breaks = np.array([0.0, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.5,
                       7.5, 10.0, 13.0, 17.0, u_max])
    u, w = gauss_legendre_panels(breaks, DEFAULT_QUAD.grid_outer)
    return u, w


@lru_cache(maxsize=32)
def _context(params: SystemParams) -> _Context:
    u, w = _x_grid(params)
    x = np.sqrt(params.r0 ** 2 + u / params.pi_lam)
    q3_simpl = 0.0 if params.sync else params.n_p * _cross_moment(params)
    return _Context(params=params, q1=_q1_const(params), q2=q2(params),
                    q3=q3_simpl, x_nodes=u, x_weights=w, x_vals=x)


# ---------------------------------------------------------------------------
# public single-point terms
# ---------------------------------------------------------------------------

def e1_term(t_lin: float, n: int, x: float, params: SystemParams,
            n_shape: int | None = None) -> float:
    """Laplace functional of the station interference field at (T, n, x)."""
    if n_shape is None:
        n_shape = default_gamma_shape(params.mode)
    ctx = _context(params)
    eta = eta_shape(n_shape)
    dc = derived_constants(params.m, n_shape)
    b, c, _ = _coefficients(t_lin, n, np.asarray([x]), params, eta,
                            dc.c_m_sq, ctx.q1)
    return float(np.exp(ctx.e1_exponent(b, c, np.asarray([x])))[0])


def e2_term(t_lin: float, n: int, x: float, params: SystemParams,
            n_shape: int | None = None) -> float:
    """Laplace functional of the foreign-user interference field."""
    if n_shape is None:
        n_shape = default_gamma_shape(params.mode)
    ctx = _context(params)
    eta = eta_shape(n_shape)
    dc = derived_constants(params.m, n_shape)
    _, _, d = _coefficients(t_lin, n, np.asarray([x]), params, eta,
                            dc.c_m_sq, ctx.q1)
    mult = params.n_p if not params.sync else 1.0
    return float(np.exp(mult * ctx.e2_exponent(d))[0])


def c1_term(x, params: SystemParams) -> np.ndarray:
    """Deterministic part of the approximate inverse SINR at distance x."""
    ctx = _context(params)
    dc = derived_constants(params.m, 1)
    return ctx.c1(np.asarray(x, dtype=float), dc.c_m_sq, dc.v_m)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def _coverage_values(thresholds, params: SystemParams, n_shape: int,
                     variant: str = "general") -> np.ndarray:
    p = params
    ctx = _context(p)
    eta = eta_shape(n_shape)
    dc = derived_constants(p.m, n_shape)
    c2 = dc.c_m_sq
    x = ctx.x_vals
    w = ctx.x_weights
    mult = 1.0 if p.sync else float(p.n_p)

    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(thresholds < 0):
        raise DomainError("thresholds must be >= 0 (linear scale)")
    out = np.empty(thresholds.shape[0])
    c1_base = ctx.c1(x, c2, dc.v_m)
    u = ctx.x_nodes               # serving density is e^-u du in u-space

    clamped = 0
    for it, t_lin in enumerate(thresholds):
        acc = 0.0
        for n in range(1, n_shape + 1):
            try:
                b, c, d = _coefficients(t_lin, n, x, p, eta, c2, ctx.q1)
                if variant == "general":
                    expo = (-eta * n * t_lin * c1_base
                            + ctx.e1_exponent(b, c, x)
                            + mult * ctx.e2_exponent(d))
                elif variant == "fullpc":
                    # dominant foreign-uplink term only (eps = 1)
                    xa = x ** p.alpha
                    x2e = x ** (p.alpha * (2.0 - p.eps))
                    term = ((xa + x2e * ctx.q1) * p.p_u * p.n_d
                            * (p.n_p + p.n_u) * ctx.q3
                            / (p.p_d * p.omega ** p.eps * c2 * p.n_tot ** 2))
                    expo = -eta * n * t_lin * term
                elif variant == "infinite_m":
                    if p.sync:
                        c_inf = -eta * n * t_lin * x ** (2.0 * p.alpha)
                    else:
                        c_inf = (-eta * n * t_lin * x ** (2.0 * p.alpha)
                                 * p.n_p * p.n_d ** 2 * (p.n_p + p.n_u)
                                 / p.n_tot ** 4)
                    expo = ctx.e1_exponent(np.zeros_like(x), c_inf, x)
                elif variant == "no_pc":
                    expo = (-eta * n * t_lin * c1_base
                            + ctx.e1_exponent(b, c, x)
                            + mult * _e2_exponent_no_pc(ctx, d))
                else:  # pragma: no cover
                    raise ValueError(variant)
                integral = float(np.dot(w, np.exp(expo - u)))
            except FloatingPointError as exc:  # pragma: no cover
                raise NumericalError(
                    f"coverage quadrature failed at T={t_lin!r}, n={n}") from exc
            acc += (-1.0) ** (n + 1) * math.comb(n_shape, n) * integral
        if not np.isfinite(acc) or abs(acc) > _GUARD_LIMIT:
            raise NumericalError(
                f"alternating expansion lost precision at T={t_lin!r}: {acc!r}")
        if acc < 0.0 or acc > 1.0:
            clamped += 1
            log.debug("clamping coverage %.3e at T=%.4g", acc, t_lin)
        out[it] = min(1.0, max(0.0, acc))
    if clamped:
        log.info("clamped %d/%d coverage values into [0, 1]", clamped,
                 len(thresholds))
    return out


def _e2_exponent_no_pc(ctx: _Context, d) -> np.ndarray:
    """1-D reduction of the E2 exponent available when eps = 0: the inner
    average collapses since the serving-distance weight is flat."""
    p = ctx.params
    q = p.pi_lam
    te = q * p.r_e ** 2
    d = np.atleast_1d(np.asarray(d, dtype=float))
    dt_coef = d * q ** (p.alpha / 2.0)
    mag = float(np.max(np.abs(dt_coef)))
    t_max = max(10.0 * te,
                (max(mag, 1.0) / (TAIL_CUTOFF * (p.alpha / 2.0 - 1.0)))
                ** (2.0 / (p.alpha - 2.0)))
    t, wt = log_panel_grid(te, t_max, panels_per_decade=4, n_per_panel=10)
    z = dt_coef[:, None] * t[None, :] ** (-p.alpha / 2.0)
    return np.expm1(z) @ wt


def coverage(thresholds, params: SystemParams,
             n_shape: int | None = None) -> CoverageCurve:
    """Coverage probability P(SINR > T) on a grid of linear thresholds."""
    if n_shape is None:
        n_shape = default_gamma_shape(params.mode)
    if n_shape < 1:
        raise DomainError("n_shape must be >= 1")
    vals = _coverage_values(np.asarray(thresholds, dtype=float), params,
                            int(n_shape), "general")
    return CoverageCurve(thresholds=np.asarray(thresholds, dtype=float),
                         coverage=vals, mode=params.mode, method="analytic",
                         params=params, n_shape=int(n_shape))


def coverage_fullpc_async(thresholds, params: SystemParams,
                          n_shape: int | None = None) -> CoverageCurve:
    """Full-power-control special case (asynchronous, eps = 1): only the
    foreign-uplink term survives."""
    if params.sync or params.eps != 1.0:
        raise DomainError("full-power-control case requires async mode, eps=1")
    if n_shape is None:
        n_shape = default_gamma_shape(params.mode)
    vals = _coverage_values(np.asarray(thresholds, dtype=float), params,
                            int(n_shape), "fullpc")
    return CoverageCurve(thresholds=np.asarray(thresholds, dtype=float),
                         coverage=vals, mode=params.mode,
                         method="analytic-special", params=params,
                         n_shape=int(n_shape))


def coverage_infinite_m(thresholds, params: SystemParams,
                        n_shape: int | None = None) -> CoverageCurve:
    """Antenna-count limit: only the pilot-contamination exponent survives,
    with its (M-1)/C_M^2 prefactor -> 1."""
    if n_shape is None:
        n_shape = default_gamma_shape(params.mode)
    vals = _coverage_values(np.asarray(thresholds, dtype=float), params,
                            int(n_shape), "infinite_m")
    return CoverageCurve(thresholds=np.asarray(thresholds, dtype=float),
                         coverage=vals, mode=params.mode,
                         method="analytic-special", params=params,
                         n_shape=int(n_shape))


def coverage_no_pc(thresholds, params: SystemParams,
                   n_shape: int | None = None) -> CoverageCurve:
    """No-power-control special case (eps = 0): E2 reduces to a 1-D
    integral. Sanity route for the general pipeline."""
    if params.eps != 0.0:
        raise DomainError("no-power-control case requires eps=0")
    if n_shape is None:
        n_shape = default_gamma_shape(params.mode)
    vals = _coverage_values(np.asarray(thresholds, dtype=float), params,
                            int(n_shape), "no_pc")
    return CoverageCurve(thresholds=np.asarray(thresholds, dtype=float),
                         coverage=vals, mode=params.mode,
                         method="analytic-special", params=params,
                         n_shape=int(n_shape))


# ---------------------------------------------------------------------------
# ergodic rate
# ---------------------------------------------------------------------------

def ergodic_rate(params: SystemParams, n_shape: int | None = None) -> RateResult:
    """Cell-aggregate downlink ergodic rate in bits/s/Hz:
    (n_p n_d / n_tot) * integral_0^inf P(SINR > t) / ((t+1) ln 2) dt."""
    if n_shape is None:
        n_shape = default_gamma_shape(params.mode)

    # locate the threshold where coverage dies off
    t_hi = 1.0
    while t_hi < 1e9:
        c = _coverage_values(np.array([t_hi]), params, int(n_shape))[0]
        if c < RATE_COVERAGE_CUTOFF:
            break
        t_hi *= 10.0

    head_t, head_w = gauss_legendre_panels(np.array([0.0, 0.25, 1.0]), 16)
    if t_hi > 1.0:
        tail_t, tail_w = log_panel_grid(1.0, t_hi, panels_per_decade=3,
                                        n_per_panel=10)
        t_all = np.concatenate([head_t, tail_t])
        w_all = np.concatenate([head_w, tail_w])
    else:
        t_all, w_all = head_t, head_w
    cov = _coverage_values(t_all, params, int(n_shape))
    pref = params.n_p * params.n_d / params.n_tot
    rate = pref / math.log(2.0) * float(np.dot(w_all, cov / (1.0 + t_all)))
    return RateResult(rate=rate, method="analytic")
