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
(vectorised in numpy) replace adaptive quadrature in the hot path. A
coverage call evaluates every (threshold, n, x) row of the alternating sum
in one array pass: the Campbell coefficients are linear in eta n T, so each
row is one scalar times a per-context vector over the x grid. E1 is
integrated on one fixed log tau-grid shared by every row (tau in
[1, 1e24], 960 nodes, built once per alpha). Each row splits that grid at
the first node where its |z| bound drops below 1e-4: the head is summed
with expm1, in chunks of bounded size, and the far tail from the degree-4
Taylor polynomial of expm1 through precomputed suffix sums of the grid
moments, whose remainder (below 8e-19 of the tail) is under the unit
roundoff. The doubly-integrated E2 exponent depends on its arguments only
through one nonpositive scalar, so it is tabulated once per geometry
(pi lam, r0, r_e, alpha, eps) on a log-log grid and spline-interpolated;
tests pin these shortcuts against direct quadrature and against
``scipy.integrate.quad`` as the adaptive reference.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gammainc, gammaln

from .errors import DomainError, NumericalError
from .params import SystemParams, c_m, default_gamma_shape, eta_shape, v_m
from .quadrature import gauss_legendre_panels, leggauss, log_panel_grid

log = logging.getLogger(__name__)

# Truncation levels (documented design choices, not tunables):
# the x-integral stops where its exponential weight drops below 1e-10,
# tail integrands are chased down to ~1e-15 of their leading coefficient,
# and the rate integral stops once coverage falls below 1e-6.
X_WEIGHT_CUTOFF = 1e-10
TAIL_CUTOFF = 1e-15
RATE_COVERAGE_CUTOFF = 1e-6

# Gauss-Legendre points per outer panel (x grid, cross-moment t grid) and
# per inner s-panel of the E2 double integral.
GRID_OUTER = 12
GRID_INNER = 32

_GUARD_LIMIT = 2.0  # |alternating sum| beyond this signals lost precision

# E1 Taylor tail (see _Context.e1_exponent); fixed so that the remainder,
# below Z^K/(K+1)! of the tail, stays under the unit roundoff. Not tunable.
_TAYLOR_Z = 1e-4
_TAYLOR_K = 4
# With z = beta th + gam th^2, z^k/k! is the sum over i+j = k of
# (beta th)^i/i! (gam th^2)^j/j!, so the polynomial is the sum over
# 1 <= i+j <= K of beta^i gam^j/(i! j!) times th^(i+2j).
_TAYLOR_PAIRS = [(i, j) for i in range(_TAYLOR_K + 1)
                 for j in range(_TAYLOR_K + 1 - i) if i + j >= 1]
_TAYLOR_I = np.array([i for i, _ in _TAYLOR_PAIRS])
_TAYLOR_J = np.array([j for _, j in _TAYLOR_PAIRS])
_TAYLOR_COEF = np.array([1.0 / (math.factorial(i) * math.factorial(j))
                         for i, j in _TAYLOR_PAIRS])
# The one E1 tau grid: [1, 1e24] in quarter decades of 10 nodes. The head
# of a call is evaluated in chunks of at most _HEAD_CHUNK (row, node)
# elements, so the working set does not grow with the row count.
_TAU_MAX = 1e24
_HEAD_CHUNK = 32768
# (T, n, x) rows per coverage block: whole thresholds, 32 of them at N = 4
_ROW_BLOCK = 21504


def _int_powers(v: np.ndarray, k: int) -> np.ndarray:
    """v^0 .. v^k along a new first axis, by repeated products (pow() of a
    negative base is many times slower)."""
    out = np.empty((k + 1,) + v.shape)
    out[0] = 1.0
    out[1] = v
    for n in range(2, k + 1):
        np.multiply(out[n - 1], v, out=out[n])
    return out


@dataclass(frozen=True)
class _TauGrid:
    """The fixed E1 grid of one alpha: th = tau^(-alpha/2), falling from 1
    along the nodes, the weights w, and ``moments[k, s]`` = coef_k times
    sum_{j >= s} w_j th_j^(i_k + 2 j_k) for every Taylor pair k, so the
    tail sum from any split s is one column lookup."""
    th: np.ndarray
    w: np.ndarray
    moments: np.ndarray


@lru_cache(maxsize=8)
def _tau_grid(alpha: float) -> _TauGrid:
    tau, w = log_panel_grid(1.0, _TAU_MAX, panels_per_decade=4,
                            n_per_panel=10)
    th = tau ** (-alpha / 2.0)
    # th^m as exp(m log th); powers below ~1e-300 are dropped so that no
    # subnormal enters the sums. Suffix sums run from the far end, the
    # small terms first.
    lp = np.multiply.outer(np.arange(2 * _TAYLOR_K + 1.0), np.log(th))
    lp[lp < -690.0] = -np.inf
    terms = np.exp(lp) * w
    suffix = np.zeros((lp.shape[0], th.size + 1))
    suffix[:, :-1] = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
    moments = suffix[_TAYLOR_I + 2 * _TAYLOR_J] * _TAYLOR_COEF[:, None]
    return _TauGrid(th=th, w=w, moments=moments)


def _e1_splits(grid: _TauGrid, beta, gam) -> np.ndarray:
    """Per row, the number of head nodes: those where the bound
    |beta| th + |gam| th^2 on |z| reaches _TAYLOR_Z. The bound grows with
    th, so they are the nodes with th at or above its positive root."""
    bm = np.abs(beta)
    # -th_split = -2 Z / (|beta| + sqrt(beta^2 + 4 Z |gam|)), in place
    root = np.abs(gam)
    root *= 4.0 * _TAYLOR_Z
    root += bm * bm
    np.sqrt(root, out=root)
    root += bm
    with np.errstate(divide="ignore"):
        np.divide(-2.0 * _TAYLOR_Z, root, out=root)
    # at most 960: 16 bits, which also lets argsort use a radix sort
    return np.searchsorted(-grid.th, root, side="right").astype(np.int16)


def _e1_integral(grid: _TauGrid, beta: np.ndarray,
                 gam: np.ndarray) -> np.ndarray:
    """sum_j w_j expm1(beta th_j + gam th_j^2) for 1-D rows beta, gam: the
    head of each row with expm1, its tail from the Taylor moments.

    Every sum runs in a fixed order per row, so that a row's value does
    not depend on the rows it is batched with (a BLAS product, or a numpy
    reduction, may round by row position or array size). The tail adds
    the Taylor terms one pair after the other. For the head, rows are
    taken in the order of their split, so that the rows of a chunk share
    about one head width; the chunk is laid out node by row, the nodes
    past a row's own split are zeroed, and einsum adds it node after
    node."""
    split = _e1_splits(grid, beta, gam)
    out = np.zeros(beta.shape)
    step = _HEAD_CHUNK // 16
    for lo in range(0, beta.size, step):
        rows = slice(lo, lo + step)
        pb = _int_powers(beta[rows], _TAYLOR_K)
        pg = _int_powers(gam[rows], _TAYLOR_K)
        for k, (i, j) in enumerate(_TAYLOR_PAIRS):
            out[rows] += pb[i] * pg[j] * grid.moments[k, split[rows]]

    order = np.argsort(split, kind="stable")
    buf = np.empty(_HEAD_CHUNK + grid.th.size)
    lo, n_rows = beta.size - np.count_nonzero(split), beta.size
    while lo < n_rows:
        # rows [lo, hi): width * rows stays within the chunk budget
        probe = split[order[min(lo + _HEAD_CHUNK // int(split[order[lo]]),
                                n_rows) - 1]]
        hi = min(n_rows, lo + _HEAD_CHUNK // int(probe))
        rows = order[lo:hi]
        s = split[rows]
        width, first = int(s[-1]), int(s[0])
        th = grid.th[:width, None]
        # a spare zero row: einsum would add a lone row in another order
        # than the rows of a wider chunk
        b, g = np.append(beta[rows], 0.0), np.append(gam[rows], 0.0)
        z = buf[:width * b.size].reshape(width, b.size)
        np.multiply(th, g, out=z)
        z += b
        z *= th
        np.expm1(z, out=z)
        # the nodes past each row's split form a staircase below `first`
        z[first:, :-1][np.arange(first, width)[:, None] >= s] = 0.0
        out[rows] += np.einsum("j,jr->r", grid.w[:width], z)[:-1]
        lo = hi
    return out


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
    clamped: int | None = None   # analytic: values clamped into [0, 1]

    def as_rows(self):
        return list(zip(self.thresholds.tolist(), self.coverage.tolist()))


@dataclass
class RateResult:
    rate: float                  # bits/s/Hz aggregated over a cell
    method: str
    ci_half_width: float | None = None
    t_hi: float | None = None    # analytic: upper end of the rate integral
    # analytic: coverage at the largest t_hi (1e9) was still above
    # RATE_COVERAGE_CUTOFF, so the integral was cut short
    tail_truncated: bool = False


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


def _gamma_shape(n_shape: int | None, params: SystemParams) -> int:
    """The Gamma shape N of the coverage expansion: the mode's default when
    ``n_shape`` is None, else ``n_shape``, which must be an integer >= 1."""
    if n_shape is None:
        return default_gamma_shape(params.mode)
    if n_shape < 1:
        raise DomainError(f"n_shape must be >= 1, got {n_shape!r}")
    if n_shape != int(n_shape):
        raise DomainError(f"n_shape must be an integer, got {n_shape!r}")
    return int(n_shape)


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


def _cross_moment(params: SystemParams) -> float:
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
    t, wt = log_panel_grid(te, t_max, panels_per_decade=4,
                           n_per_panel=GRID_OUTER)
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
    return _q1_const(params, _cross_moment(params))


def _q1_const(params: SystemParams, cm: float) -> float:
    """Q1 from the cross moment ``cm`` = :func:`_cross_moment`."""
    p = params
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
    eta = eta_shape(_gamma_shape(n_shape, p))
    if t_lin < 0:
        raise DomainError("threshold must be >= 0")
    return _coefficients(t_lin, n, np.asarray(x, dtype=float), p, eta,
                         _q1_const(p, _cross_moment(p)))


def _coefficients(t_lin, n, x, p: SystemParams, eta, q1_val):
    c = c_m(p.m)
    c2 = c * c
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
    # on the x grid: c1, and B, C, D per unit of eta n T (all three are
    # linear in it); C_M and V_M depend on m only, not on the Gamma shape
    c1_x: np.ndarray = field(init=False)
    unit_b: np.ndarray = field(init=False)
    unit_c: np.ndarray = field(init=False)
    unit_d: np.ndarray = field(init=False)

    def __post_init__(self):
        self.c1_x = self.c1(self.x_vals)
        self.unit_b, self.unit_c, self.unit_d = _coefficients(
            1.0, 1, self.x_vals, self.params, 1.0, self.q1)

    # --- c1 -------------------------------------------------------------
    def c1(self, x):
        p = self.params
        c = c_m(p.m)
        c2 = c * c
        vm = v_m(p.m)
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
            val = val + self.foreign_uplink(x)
            val = val + ((p.n_p + p.sigma2 * xa / (p.p_d * p.omega))
                         * p.p_d * p.n_p * p.n_d * x1e * self.q2
                         / (p.p_u * p.omega ** (-p.eps) * c2 * p.n_tot ** 2))
        return val

    def foreign_uplink(self, x):
        """The mean foreign-uplink term of c1(x) (asynchronous mode)."""
        p = self.params
        c = c_m(p.m)
        c2 = c * c
        return ((x ** p.alpha + x ** (p.alpha * (2.0 - p.eps)) * self.q1)
                * p.p_u * p.n_d * (p.n_p + p.n_u) * self.q3
                / (p.p_d * p.omega ** p.eps * c2 * p.n_tot ** 2))

    # --- E1 exponent ------------------------------------------------------
    def e1_exponent(self, b, c, x):
        """int_{q x^2}^inf expm1(B q^(a/2) t^(-a/2) + C q^a t^(-a)) dt,
        vectorised over arrays b, c, x that broadcast together; every
        element of the broadcast shape is one row.

        With t = a tau the integrand is expm1(z), z = beta th + gam th^2,
        th = tau^(-a/2), on the one fixed log tau-grid over [1, 1e24]
        (``_tau_grid``). |z| falls along the grid, so each row splits it at
        its own first node where |beta| th + |gam| th^2 < _TAYLOR_Z: the
        head is summed with expm1, in chunks of at most _HEAD_CHUNK
        elements over rows ordered by split, and the tail from the
        degree-K Taylor polynomial of expm1 through the suffix sums of the
        grid moments M_m = sum w th^m, m <= 2K, exactly. The dropped
        remainder is below Z^K/(K+1)! ~ 8e-19 of the tail. A row's value
        does not depend on the other rows of the call."""
        p = self.params
        q = p.pi_lam
        x = np.asarray(x, dtype=float)
        a = q * x ** 2
        # the powers act on x only; the rows are products with b and c
        beta = np.asarray(b, dtype=float) * (q ** (p.alpha / 2.0)
                                             * a ** (-p.alpha / 2.0))
        gam = np.asarray(c, dtype=float) * (q ** p.alpha * a ** (-p.alpha))
        shape = np.broadcast_shapes(beta.shape, gam.shape, a.shape)
        rows = _e1_integral(_tau_grid(p.alpha),
                            np.broadcast_to(beta, shape).ravel(),
                            np.broadcast_to(gam, shape).ravel())
        return a * rows.reshape(shape)

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
        gl_x, gl_w = leggauss(GRID_INNER)
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
    u, w = gauss_legendre_panels(breaks, GRID_OUTER)
    return u, w


@lru_cache(maxsize=32)
def _context(params: SystemParams) -> _Context:
    u, w = _x_grid(params)
    x = np.sqrt(params.r0 ** 2 + u / params.pi_lam)
    cm = _cross_moment(params)
    return _Context(params=params, q1=_q1_const(params, cm), q2=q2(params),
                    q3=0.0 if params.sync else params.n_p * cm,
                    x_nodes=u, x_weights=w, x_vals=x)


# ---------------------------------------------------------------------------
# public single-point terms
# ---------------------------------------------------------------------------

def e1_term(t_lin: float, n: int, x: float, params: SystemParams,
            n_shape: int | None = None) -> float:
    """Laplace functional of the station interference field at (T, n, x)."""
    eta = eta_shape(_gamma_shape(n_shape, params))
    ctx = _context(params)
    b, c, _ = _coefficients(t_lin, n, np.asarray([x]), params, eta, ctx.q1)
    return float(np.exp(ctx.e1_exponent(b, c, np.asarray([x])))[0])


def e2_term(t_lin: float, n: int, x: float, params: SystemParams,
            n_shape: int | None = None) -> float:
    """Laplace functional of the foreign-user interference field."""
    eta = eta_shape(_gamma_shape(n_shape, params))
    ctx = _context(params)
    _, _, d = _coefficients(t_lin, n, np.asarray([x]), params, eta, ctx.q1)
    mult = params.n_p if not params.sync else 1.0
    return float(np.exp(mult * ctx.e2_exponent(d))[0])


def c1_term(x, params: SystemParams) -> np.ndarray:
    """Deterministic part of the approximate inverse SINR at distance x."""
    return _context(params).c1(x)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def _general_exponent(ctx: _Context, ent: np.ndarray) -> np.ndarray:
    """Exponent of every (T, n, x) row; ``ent`` holds eta n T on axes
    broadcasting against the x grid."""
    ctx.e2_table()   # built, if it must be, before the rows' arrays exist
    return _c1_e1_e2_exponent(ctx, ent, ctx.e2_exponent)


def _no_pc_exponent(ctx: _Context, ent: np.ndarray) -> np.ndarray:
    return _c1_e1_e2_exponent(
        ctx, ent, lambda d: _e2_exponent_no_pc(ctx, d))


def _c1_e1_e2_exponent(ctx: _Context, ent: np.ndarray, e2) -> np.ndarray:
    """-eta n T c1 + E1 + mult E2, summed in this order into one array."""
    mult = 1.0 if ctx.params.sync else float(ctx.params.n_p)
    e1 = ctx.e1_exponent(ent * ctx.unit_b, ent * ctx.unit_c, ctx.x_vals)
    expo = -ent * ctx.c1_x
    expo += e1
    del e1
    expo += mult * e2(ent * ctx.unit_d)
    return expo


def _infinite_m_exponent(ctx: _Context, ent: np.ndarray) -> np.ndarray:
    # C with its (M-1)/C_M^2 prefactor -> 1; B and D vanish
    p = ctx.params
    c_inf = -ctx.x_vals ** (2.0 * p.alpha)
    if not p.sync:
        c_inf = c_inf * p.n_p * p.n_d ** 2 * (p.n_p + p.n_u) / p.n_tot ** 4
    return ctx.e1_exponent(0.0, ent * c_inf, ctx.x_vals)


def _fullpc_exponent(ctx: _Context, ent: np.ndarray) -> np.ndarray:
    # dominant foreign-uplink term only (eps = 1)
    return -ent * ctx.foreign_uplink(ctx.x_vals)


def _alternating_sum(ctx: _Context, exponent, ent: np.ndarray,
                     signs: np.ndarray) -> np.ndarray:
    """sum_n signs_n int exp(exponent) e^-u du for a block of thresholds;
    ``ent`` is eta n T with shape (thresholds, n, 1)."""
    try:
        expo = exponent(ctx, ent)
        expo -= ctx.x_nodes       # serving density is e^-u du in u-space
        np.exp(expo, out=expo)
    except FloatingPointError as exc:  # pragma: no cover
        raise NumericalError("coverage quadrature failed") from exc
    # per-row sums (einsum, not BLAS), so that a value does not depend on
    # the thresholds it is computed with
    return np.einsum("tn,n->t", np.einsum("tnx,x->tn", expo, ctx.x_weights),
                     signs)


def _coverage_values(thresholds, params: SystemParams, n_shape: int,
                     exponent=_general_exponent):
    """(coverage, clamped count) at linear ``thresholds``: the alternating
    sum over n of the x-integral of exp(exponent). All (T, n, x) rows are
    evaluated as arrays, in blocks of whole thresholds of at most
    _ROW_BLOCK rows, so that the working set does not grow with the
    number of thresholds."""
    ctx = _context(params)
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(thresholds < 0):
        raise DomainError("thresholds must be >= 0 (linear scale)")
    n = np.arange(1, n_shape + 1)
    signs = np.array([(-1.0) ** (k + 1) * math.comb(n_shape, k) for k in n])
    ent = eta_shape(n_shape) * np.multiply.outer(thresholds, n)[..., None]
    per_block = max(1, _ROW_BLOCK // (n_shape * ctx.x_vals.size))
    blocks = np.array_split(ent, max(1, -(-thresholds.size // per_block)))
    acc = np.concatenate([_alternating_sum(ctx, exponent, block, signs)
                          for block in blocks])
    bad = ~np.isfinite(acc) | (np.abs(acc) > _GUARD_LIMIT)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericalError("alternating expansion lost precision at "
                             f"T={thresholds[i]!r}: {acc[i]!r}")
    outside = np.flatnonzero((acc < 0.0) | (acc > 1.0))
    for i in outside:
        log.debug("clamping coverage %.3e at T=%.4g", acc[i], thresholds[i])
    if outside.size:
        log.info("clamped %d/%d coverage values into [0, 1]", outside.size,
                 thresholds.size)
    return np.clip(acc, 0.0, 1.0), int(outside.size)


def _e2_exponent_no_pc(ctx: _Context, d) -> np.ndarray:
    """1-D reduction of the E2 exponent available when eps = 0: the inner
    average collapses since the serving-distance weight is flat, leaving
    int_te^inf expm1(D q^(a/2) t^(-a/2)) dt, te = q r_e^2. That is the E1
    integral at C = 0 and x = r_e, so it runs on the same fixed grid and
    each value depends on its own D only."""
    p = ctx.params
    return ctx.e1_exponent(np.asarray(d, dtype=float), 0.0, p.r_e)


def _analytic_curve(thresholds, params: SystemParams, n_shape: int | None,
                    exponent, method: str) -> CoverageCurve:
    n_shape = _gamma_shape(n_shape, params)
    thresholds = np.asarray(thresholds, dtype=float)
    vals, clamped = _coverage_values(thresholds, params, n_shape, exponent)
    return CoverageCurve(thresholds=thresholds, coverage=vals,
                         mode=params.mode, method=method, params=params,
                         n_shape=n_shape, clamped=clamped)


def coverage(thresholds, params: SystemParams,
             n_shape: int | None = None) -> CoverageCurve:
    """Coverage probability P(SINR > T) on a grid of linear thresholds."""
    return _analytic_curve(thresholds, params, n_shape,
                           _general_exponent, "analytic")


def coverage_fullpc_async(thresholds, params: SystemParams,
                          n_shape: int | None = None) -> CoverageCurve:
    """Full-power-control special case (asynchronous, eps = 1): only the
    foreign-uplink term survives."""
    if params.sync or params.eps != 1.0:
        raise DomainError("full-power-control case requires async mode, eps=1")
    return _analytic_curve(thresholds, params, n_shape,
                           _fullpc_exponent, "analytic-special")


def coverage_infinite_m(thresholds, params: SystemParams,
                        n_shape: int | None = None) -> CoverageCurve:
    """Antenna-count limit: only the pilot-contamination exponent survives,
    with its (M-1)/C_M^2 prefactor -> 1."""
    return _analytic_curve(thresholds, params, n_shape,
                           _infinite_m_exponent, "analytic-special")


def coverage_no_pc(thresholds, params: SystemParams,
                   n_shape: int | None = None) -> CoverageCurve:
    """No-power-control special case (eps = 0): E2 reduces to a 1-D
    integral. Sanity route for the general pipeline."""
    if params.eps != 0.0:
        raise DomainError("no-power-control case requires eps=0")
    return _analytic_curve(thresholds, params, n_shape,
                           _no_pc_exponent, "analytic-special")


# ---------------------------------------------------------------------------
# ergodic rate
# ---------------------------------------------------------------------------

def ergodic_rate(params: SystemParams, n_shape: int | None = None) -> RateResult:
    """Cell-aggregate downlink ergodic rate in bits/s/Hz:
    (n_p n_d / n_tot) * integral_0^inf P(SINR > t) / ((t+1) ln 2) dt.

    The integral ends at t_hi, the first of 1, 10, .., 1e8 where coverage
    is below RATE_COVERAGE_CUTOFF, else at 1e9; ``tail_truncated`` says
    that coverage at 1e9 was still above the cutoff."""
    n_shape = _gamma_shape(n_shape, params)

    # locate the threshold where coverage dies off: all decades in one call
    decades = 10.0 ** np.arange(10)
    cov, _ = _coverage_values(decades, params, n_shape)
    below = np.flatnonzero(cov[:-1] < RATE_COVERAGE_CUTOFF)
    t_hi = float(decades[below[0]] if below.size else decades[-1])
    truncated = bool(not below.size and cov[-1] >= RATE_COVERAGE_CUTOFF)
    if truncated:
        log.warning("coverage %.3e at T=1e9 is above %.0e: the rate integral "
                    "is cut short there", cov[-1], RATE_COVERAGE_CUTOFF)

    head_t, head_w = gauss_legendre_panels(np.array([0.0, 0.25, 1.0]), 16)
    if t_hi > 1.0:
        tail_t, tail_w = log_panel_grid(1.0, t_hi, panels_per_decade=3,
                                        n_per_panel=10)
        t_all = np.concatenate([head_t, tail_t])
        w_all = np.concatenate([head_w, tail_w])
    else:
        t_all, w_all = head_t, head_w
    cov, _ = _coverage_values(t_all, params, n_shape)
    pref = params.n_p * params.n_d / params.n_tot
    rate = pref / math.log(2.0) * float(np.dot(w_all, cov / (1.0 + t_all)))
    return RateResult(rate=rate, method="analytic", t_hi=t_hi,
                      tail_truncated=truncated)
