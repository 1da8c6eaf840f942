"""Closed-form coverage probability and ergodic rate via quadrature.

The conditional inverse SINR is approximated by c1(x) + e1(x) + e2(x): a
deterministic part and two interference fields whose Laplace functionals
reduce, through Campbell's theorem over the exclusion-ball point fields,
to the exponential integrals evaluated here. Coverage at threshold T is
the Gamma mixture sum_n s_n L(eta n T), n = 1..N, of one Laplace function
of the inverse SINR (``_laplace``), which the rate integrates too:

    L(z) = integral_{r0}^inf 2 pi lam x e^{-pi lam (x^2 - r0^2)}
        * exp(-z c1(x)) * E1(z,x) * E2(z,x) dx.

The inverse SINR is the Monte Carlo kernels' g1 + g2 + g3, every term of
it read from ``_kernels`` (per-user terms, amplitude, g2's and g3's scales,
pilot noise, station-to-station weight). Only the realized sums are
replaced: in g1's foreign pilot power I_t, the station-to-station part
by its mean Q2 (in c1) and the cross part by E2 (D); Delta's ratio delta1
(I_t plus pilot noise) by its mean Q1; g3's foreign-uplink sum, phase
indicator included, by its mean Q3 (in c1); g2's sums by E1 (B, C). The
Monte Carlo engine keeps the realized values, so the gap between the two
engines measures exactly these replacements.

The synchronous and asynchronous modes share every formula; they differ
only in the frame weights of an interfering cell (see ``_Context``).

Numerical strategy: all integrands are smooth after mapping semi-infinite
tails onto log-spaced Gauss-Legendre panels, so fixed tensorised panels
(vectorised in numpy) replace adaptive quadrature in the hot path. L runs
on a flat array of z, every (z, x) row in one array pass: the Campbell
coefficients are linear in z, so each row is one scalar times a
per-context vector over the x grid. E1 is integrated on one fixed log
tau-grid shared by every row (tau in [1, 1e24], 960 nodes, built once per
alpha). Each row splits that grid at the first node where the bound of its
expm1 argument drops below 1e-2 (searched for only where the bound at the
first node reaches it): the head is summed with expm1, in chunks of
bounded size, and the far tail from the degree-7 Taylor polynomial of
expm1, whose remainder (below Z^K/(K+1)! = 2.5e-19 of the tail) is under
the unit roundoff. The tail reads precomputed suffix moments of the grid
normalized at the split node, so the polynomial runs in beta th_s and gam
th_s^2, which are at most 1e-2 in size, and never forms a power of beta or
gam (their 7th powers may overflow). It is evaluated by nested Horner in
both arguments, elementwise over rows; the rows split at node 0 share one
column of moments. The ergodic rate is one integral of L on log panels,
whose low panels, where L is flat, are replaced by a closed form while a
bound keeps that within 1e-16 of the integral (``ergodic_rate``). The
doubly-integrated E2 exponent depends on its arguments only through one
nonpositive scalar coupling, so it is tabulated once per geometry (pi lam,
r0, r_e, alpha, eps) on a log-log grid of 217 knots and
spline-interpolated; the cross moment behind Q1 and Q3, which depends on
the same five values, is kept per geometry too. The table is built in one
pass for all knots: a shared t-grid below the inner cut, and beyond it,
where every t has the same inner row, one cumulative sum of panels between
consecutive knots of a universal function of the coupling. Tests pin these
shortcuts against direct quadrature and against ``scipy.integrate.quad``
as the adaptive reference.

The module needs numpy alone. Its one special function is its own: the
not-a-knot cubic spline of the E2 table (``_Spline``), which tests check
against ``scipy.interpolate.CubicSpline``. The incomplete gamma integral
of the exclusion-ball moments runs on the same Gauss-Legendre panels as
every other integral here (``_cross_moment``).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import (amp, beam_scale, bs_gain, own_cell, pilot_noise,
                       uplink_scale, user_terms)
from .errors import ConfigError, NumericalError
from .params import (SystemParams, _is_integer, default_gamma_shape,
                     eta_shape, frame_weights)
from .quadrature import (gauss_legendre_panels, leggauss, log_breaks,
                         log_panel_grid)

log = logging.getLogger(__name__)

# Truncation levels (documented design choices, not tunables):
# the x-integral stops where its exponential weight drops below 1e-10;
# the rate's Laplace integral is laid out on panels of 8 nodes, 3 per
# decade, from the first of 1e-8, .., 1e-30 where L is within 1e-13 of
# L(0) to where L is below 1e-18; its panels below the largest break
# where L = L(0) is within 1e-16 of the integral are summed in closed
# form, that bound read from L at 1e-1, .., 1e-7 and the candidates.
X_WEIGHT_CUTOFF = 1e-10
_Z_LO_CANDIDATES = 10.0 ** -np.arange(8.0, 31.0)
_Z_HEAD_PROBES = 10.0 ** -np.arange(1.0, 8.0)
_Z_LO_TOL, _Z_HI_TAIL, _Z_HEAD_TOL = 1e-13, 1e-18, 1e-16
_Z_PANELS_PER_DECADE, _Z_PANEL_NODES = 3.0, 8

# Gauss-Legendre points per outer panel (x grid, cross-moment t grid) and
# per inner s-panel of the E2 double integral.
GRID_OUTER = 12
GRID_INNER = 32

_GUARD_LIMIT = 2.0  # |alternating sum| beyond this signals lost precision

# Largest Gamma shape N. The alternating sum weighs L(eta n T) by C(N, n),
# so an error of L reaches coverage amplified up to sum_n C(N, n) = 2^N - 1
# times, and the rate's kernel sum_n s_n / (z + eta n) rounds like
# 2^N times the unit roundoff. Against x, E2 and inner grids twice as fine,
# sync eps 1 coverage errs by 1.3e-6 at N = 8, 5.2e-4 at N = 16 (6.7e-4 at
# r0 = 0.3 km) and 3.4e-3 at N = 20, about doubling with each step of N.
_MAX_GAMMA_SHAPE = 16

# E1 Taylor tail (see _Context.e1_exponent); fixed so that the remainder,
# below Z^K/(K+1)! ~ 2.5e-19 of the tail, stays under the unit roundoff.
# Not tunable.
_TAYLOR_Z = 1e-2
_TAYLOR_K = 7
# The one E1 tau grid: [1, 1e24] in quarter decades of 10 nodes. The head
# of a call is evaluated in chunks of at most _HEAD_CHUNK (row, node)
# elements, so the working set does not grow with the row count.
_TAU_MAX = 1e24
_HEAD_CHUNK = 32768
# (z, x) elements per block of _laplace: 128 values of z
_ROW_BLOCK = 21504
# E2 lookups per chunk (64 KiB per array): the arrays of a chunk are then
# reused from the heap, where lookups of whole blocks map fresh pages and
# fault them in on every call
_E2_CHUNK = 8192
# Gauss-Legendre nodes per panel of the E2 table's far field, one panel
# between consecutive knots (an eighth of a decade in coupling)
_E2_PANEL_NODES = 8
# The coupling magnitudes the E2 table's knots span, 8 per decade; below
# _E2_LO the exponent is linear, above _E2_HI a power law
_E2_LO, _E2_HI = 1e-12, 1e15


@dataclass(frozen=True)
class _TauGrid:
    """The fixed E1 grid of one alpha: th = tau^(-alpha/2), falling from 1
    along the nodes, and the weights w. For every split s = 0..n (n
    nodes), ``th_split[s]`` is th_s and ``moments[m, s]`` the suffix
    moment sum_{j >= s} w_j (th_j/th_s)^m, m = 0..2K, normalized at the
    split node, so the tail sum from any split is one column lookup; both
    are 0 at s = n, where no tail is left."""
    th: np.ndarray
    w: np.ndarray
    th_split: np.ndarray
    moments: np.ndarray


@lru_cache(maxsize=8)
def _tau_grid(alpha: float) -> _TauGrid:
    tau, w = log_panel_grid(1.0, _TAU_MAX, panels_per_decade=4,
                            n_per_panel=10)
    # The moments in blocks of one decade (40 nodes): within a block, the
    # powers of th relative to the block's first node, which neither
    # underflow nor overflow for m <= 2K, and their suffix sums from the
    # far end; each block's sum at its first node is then carried into the
    # block before it, the last block first. From alpha ~ 27 the far nodes'
    # th underflow to 0 and some moments are not finite; e1_exponent
    # reports a row that reads one as an overflow of the path-loss exponent.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        th = tau ** (-alpha / 2.0)
        lth = np.log(th).reshape(-1, 40)
        m = np.arange(2 * _TAYLOR_K + 1.0)[:, None, None]
        rel = m * (lth - lth[:, :1])
        local = np.cumsum((np.exp(rel) * w.reshape(lth.shape))[..., ::-1],
                          axis=-1)[..., ::-1]
        step = np.exp(m[:, :, 0] * (lth[1:, 0] - lth[:-1, 0]))
        carry = np.zeros(local.shape[:2])
        for b in range(lth.shape[0] - 2, -1, -1):
            carry[:, b] = step[:, b] * (local[:, b + 1, 0] + carry[:, b + 1])
        moments = np.zeros((m.size, th.size + 1))
        moments[:, :-1] = ((local + carry[..., None])
                           * np.exp(-rel)).reshape(m.size, -1)
    return _TauGrid(th=th, w=w, th_split=np.append(th, 0.0), moments=moments)


def _e1_splits(grid: _TauGrid, beta, gam) -> np.ndarray:
    """Per row, the number of head nodes: those where the bound
    |beta| th + |gam| th^2 on |z| reaches _TAYLOR_Z. The bound grows with
    th, so they are the nodes with th at or above its positive root.

    Only rows whose bound at the first node, th_0, reaches _TAYLOR_Z (1 -
    1e-9) are searched; the bound of every other row stays below
    _TAYLOR_Z at th_0, by a margin far above the rounding of the bound and
    of the root, so its root lies above th_0 and its split is 0."""
    bm = np.abs(beta)
    gm = np.abs(gam)
    th0 = grid.th[0]
    bound = gm * th0
    bound += bm
    bound *= th0
    rows = np.flatnonzero(bound >= _TAYLOR_Z * (1.0 - 1e-9))
    bm, root = bm[rows], gm[rows]
    # -th_split = -2 Z / (|beta| + sqrt(beta^2 + 4 Z |gam|)), in place
    root *= 4.0 * _TAYLOR_Z
    root += bm * bm
    np.sqrt(root, out=root)
    root += bm
    with np.errstate(divide="ignore"):
        np.divide(-2.0 * _TAYLOR_Z, root, out=root)
    # at most 960: 16 bits, which also lets argsort use a radix sort
    split = np.zeros(bound.size, dtype=np.int16)
    split[rows] = np.searchsorted(-grid.th, root, side="right")
    return split


def _e1_tail(grid: _TauGrid, beta: np.ndarray, gam: np.ndarray,
             split: np.ndarray) -> np.ndarray:
    """The Taylor tail of every row from its split. The rows split at node
    0 share one column of moments, which is broadcast, and run in chunks
    of _HEAD_CHUNK // 4 rows; the others read theirs with one ``take`` per
    chunk of _HEAD_CHUNK // 16 rows, which keeps that (2K + 1, rows)
    gather small. A row split at the last node has no tail: its tail is 0,
    and is not formed, since beta th_s would be -inf * 0 where beta has
    overflowed. Every operation is elementwise, so a row's value does not
    depend on the rows it is batched with."""
    out = np.zeros(beta.shape)
    first = split == 0
    inner = ~first & (split < grid.th.size)
    for rows, step in ((np.flatnonzero(first), _HEAD_CHUNK // 4),
                       (np.flatnonzero(inner), _HEAD_CHUNK // 16)):
        for lo in range(0, rows.size, step):
            r = rows[lo:lo + step]
            if first[r[0]]:
                ts, nm = grid.th_split[0], grid.moments[:, 0]
            else:
                s = split[r]
                ts, nm = grid.th_split.take(s), grid.moments.take(s, axis=1)
            b = beta[r] * ts
            ts *= ts
            out[r] = _taylor_horner(b, gam[r] * ts, nm)
    return out


def _taylor_horner(b: np.ndarray, g: np.ndarray, nm) -> np.ndarray:
    """sum over 1 <= i + j <= K of b^i/i! g^j/j! nm[i + 2j], nested: S_j =
    nm[2j] + b (nm[2j+1] + (b/2) (nm[2j+2] + ...)) up to i = K - j, then
    S_0 + g (S_1 + (g/2) (S_2 + ...)), with S_0's i = 0 term left out.
    ``nm`` holds the moments N_0..N_2K, each a scalar or a row array.

    The S_j run side by side, i from K down to 1, so that each b/i is
    formed once, as the product with 1/i, into one scratch row; so is
    each g/j. Every S_j takes its steps in the nested order above, so the
    sum rounds as if each S_j were run alone. The call holds K + 2 rows
    the size of b, in one block."""
    k = _TAYLOR_K
    block = np.empty((k + 2,) + b.shape)
    tmp, acc, s = block[0], block[1], block[2:]
    for i in range(k, 0, -1):
        bi = b if i == 1 else np.multiply(b, 1.0 / i, out=tmp)
        for j in range(k - i):
            s[j] += nm[2 * j + i]
            s[j] *= bi
        np.multiply(bi, nm[2 * k - i], out=s[k - i])    # S_(K-i) starts
    np.multiply(g, 1.0 / k, out=acc)
    acc *= nm[2 * k]
    for j in range(k - 1, 0, -1):
        s[j] += nm[2 * j]
        acc += s[j]
        acc *= g if j == 1 else np.multiply(g, 1.0 / j, out=tmp)
    acc += s[0]
    return acc


def _e1_integral(grid: _TauGrid, beta: np.ndarray,
                 gam: np.ndarray) -> np.ndarray:
    """sum_j w_j expm1(beta th_j + gam th_j^2) for 1-D rows beta, gam: the
    head of each row with expm1, its tail from the Taylor moments.

    Every sum runs in a fixed order per row, so that a row's value does
    not depend on the rows it is batched with (a BLAS product, or a numpy
    reduction, may round by row position or array size); see
    ``_e1_tail`` for the tail. For the head, rows are taken in the order
    of their split, so that the rows of a chunk share about one head
    width; the chunk is laid out node by row, the nodes past a row's own
    split are zeroed, and einsum adds it node after node.

    The nodes whose th underflowed to 0 (from alpha ~ 27) are left out of
    the head: they add expm1(0) = 0 to a finite row, and would add
    expm1(-inf * 0) = NaN to a row whose beta overflowed to -inf."""
    split = _e1_splits(grid, beta, gam)
    out = _e1_tail(grid, beta, gam, split)

    heads = np.flatnonzero(split)
    order = heads[np.argsort(split[heads], kind="stable")]
    buf = np.empty(_HEAD_CHUNK + grid.th.size)
    live = np.count_nonzero(grid.th)
    lo, n_rows = 0, order.size
    while lo < n_rows:
        # rows [lo, hi): width * rows stays within the chunk budget
        probe = split[order[min(lo + _HEAD_CHUNK // int(split[order[lo]]),
                                n_rows) - 1]]
        hi = min(n_rows, lo + _HEAD_CHUNK // int(probe))
        rows = order[lo:hi]
        s = split[rows]
        width, first = min(int(s[-1]), live), int(s[0])
        th = grid.th[:width, None]
        # a spare zero row: einsum would add a lone row in another order
        # than the rows of a wider chunk
        b, g = np.append(beta[rows], 0.0), np.append(gam[rows], 0.0)
        z = buf[:width * b.size].reshape(width, b.size)
        # (g th + b) th: row copies and in-place column scales, which are
        # cheaper than one broadcast product th g
        z[...] = g
        z *= th
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
    method: str                  # analytic | analytic-special | monte-carlo
    params: SystemParams
    n_shape: int | None = None
    ci_half_width: np.ndarray | None = None
    trials_used: int | None = None    # Monte Carlo: trials with tagged users
    clamped: int | None = None   # analytic: values clamped into [0, 1]


@dataclass
class RateResult:
    rate: float                  # bits/s/Hz aggregated over a cell
    method: str
    ci_half_width: float | None = None
    trials_used: int | None = None    # Monte Carlo: trials with tagged users
    z_lo: float | None = None    # analytic: ends of the Laplace integral
    z_hi: float | None = None
    head_bound: float | None = None   # analytic: relative error of its head


def _gamma_shape(n_shape: int | None, params: SystemParams) -> int:
    """The Gamma shape N of the coverage expansion: the mode's default when
    ``n_shape`` is None, else ``n_shape``, which must be an integer from 1
    to _MAX_GAMMA_SHAPE."""
    if n_shape is None:
        return default_gamma_shape(params.mode)
    if n_shape < 1:
        raise ConfigError(f"n_shape must be >= 1, got {n_shape!r}")
    if n_shape > _MAX_GAMMA_SHAPE:
        raise ConfigError(f"n_shape must be <= {_MAX_GAMMA_SHAPE}, got "
                          f"{n_shape!r}: the alternating expansion "
                          "amplifies errors about 2^n_shape times")
    if not _is_integer(n_shape):
        raise ConfigError(f"n_shape must be an integer, got {n_shape!r}")
    return int(n_shape)


# ---------------------------------------------------------------------------
# exclusion-ball constants
# ---------------------------------------------------------------------------

def q2(params: SystemParams) -> float:
    """Mean aggregate path-gain of interfering stations under the exclusion
    ball: 2 R_e^-alpha / (alpha - 2) asynchronous, zero synchronous.
    Finite: :class:`SystemParams` holds alpha > 2."""
    if params.sync:
        return 0.0
    return 2.0 * params.r_e ** (-params.alpha) / (params.alpha - 2.0)


def _geometry(params: SystemParams) -> tuple:
    """(pi lam, r0, r_e, alpha, eps): all that the cross moment and the E2
    table depend on, and the key under which each is kept."""
    return params.pi_lam, params.r0, params.r_e, params.alpha, params.eps


@lru_cache(maxsize=32)
def _cross_moment(pi_lam: float, r0: float, r_e: float, alpha: float,
                  eps: float) -> float:
    """E{ sum_j r_jj^(alpha eps) r_lj^-alpha }: the conditional cross moment
    of a foreign user's serving distance and its distance to the tagged
    station, integrated over the exclusion-ball field. It depends on the
    geometry alone (see ``_geometry``), so a sweep over n_p, m or the mode
    computes it once.

    Evaluated as q^(alpha(1-eps)/2) * int_te^inf t^(-alpha/2) I(t) /
    (e^-a0 - e^-t) dt with q = pi lam and I(t) = int_a0^t s^p e^-s ds,
    p = alpha eps / 2. The outer integral runs on a log t-grid. I(t) at
    every outer node is one cumulative sum of Gauss-Legendre panels in
    ln s, where the integrand s^(p+1) e^-s is entire: eight log-spaced
    panels from a0 to te, then one panel between consecutive t nodes.
    """
    q = pi_lam
    a0 = q * r0 ** 2
    te = q * r_e ** 2
    pexp = alpha * eps / 2.0

    # the tail integral beyond t_max is ~ Gamma(pexp+1) t_max^(1-alpha/2)
    # / (alpha/2 - 1); size t_max so that remainder is negligible
    gtot = math.exp(math.lgamma(pexp + 1.0))
    t_max = max(10.0 * te, (gtot / (1e-13 * (alpha / 2.0 - 1.0)))
                ** (2.0 / (alpha - 2.0)))
    t, wt = log_panel_grid(te, t_max, panels_per_decade=4,
                           n_per_panel=GRID_OUTER)
    u, wu = gauss_legendre_panels(
        np.log(np.concatenate([np.geomspace(a0, te, 9), t])), 8)
    # s^(p+1) e^-s as one exponential, which cannot overflow at large s
    wu *= np.exp((pexp + 1.0) * u - np.exp(u))
    inner = np.cumsum(wu.reshape(-1, 8).sum(axis=1))[8:]
    vals = t ** (-alpha / 2.0) * inner / (math.exp(-a0) - np.exp(-t))
    return q ** (alpha * (1.0 - eps) / 2.0) * float(np.dot(wt, vals))


# ---------------------------------------------------------------------------
# engine context: grids and tabulated exponents per parameter set
# ---------------------------------------------------------------------------

class _Spline:
    """The not-a-knot cubic spline through (x, y), at least 4 knots, x
    increasing and equally spaced (as the E2 table's log grid is, to
    rounding): the interpolant of ``scipy.interpolate.CubicSpline`` with
    its default end conditions. ``x`` and ``c`` have the layout of scipy's
    ``PPoly``: on [x[i], x[i+1]] the value is sum_k c[k, i] h^(3-k), h =
    t - x[i]; beyond the ends the end pieces continue.

    The knot slopes solve scipy's tridiagonal system (the not-a-knot rows
    included) by the Thomas algorithm, without pivoting: on any increasing
    x every pivot of the elimination is positive. The equal spacing gives
    each point its piece without a search."""

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = np.diff(x)
        step = (x[-1] - x[0]) / dx.size
        if not np.allclose(dx, step, rtol=1e-9, atol=0.0):
            raise ValueError("spline knots must be equally spaced")
        slope = np.diff(y) / dx
        # row i: lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]
        lower = np.r_[0.0, dx[1:], x[-1] - x[-3]]
        diag = np.r_[dx[1], 2.0 * (dx[:-1] + dx[1:]), dx[-2]]
        upper = np.r_[x[2] - x[0], dx[:-1], 0.0]
        rhs = np.empty(x.size)
        rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0]
                  + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        rhs[-1] = (dx[-1] ** 2 * slope[-2]
                   + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        s = np.array(_thomas(lower.tolist(), diag.tolist(), upper.tolist(),
                             rhs.tolist()))
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        self.x = x
        self.c = np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])
        self._inv_step = 1.0 / step

    def __call__(self, t):
        """Value at t."""
        t = np.asarray(t, dtype=float)
        shape, t = t.shape, t.ravel()
        x = self.x
        # the piece from the spacing; a point within rounding of a knot may
        # take either piece next to it, and the two agree there to rounding
        i = ((t - x[0]) * self._inv_step).astype(np.intp)
        np.clip(i, 0, x.size - 2, out=i)
        h = x.take(i)
        np.subtract(t, h, out=h)
        # Horner's rule in place: a call holds four arrays the size of t
        out = self.c[0].take(i)
        tmp = np.empty_like(out)
        for row in self.c[1:]:
            out *= h
            out += np.take(row, i, out=tmp)
        return out.reshape(shape)


def _thomas(lower, diag, upper, rhs):
    """Solution of a tridiagonal system, row i being lower[i] s[i-1] +
    diag[i] s[i] + upper[i] s[i+1] = rhs[i]; on Python floats, which is
    faster than numpy at a few hundred rows."""
    n = len(diag)
    cp, dp = [0.0] * n, [0.0] * n
    cp[0], dp[0] = upper[0] / diag[0], rhs[0] / diag[0]
    for i in range(1, n):
        piv = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / piv
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / piv
    for i in range(n - 2, -1, -1):
        dp[i] -= cp[i] * dp[i + 1]
    return dp


@dataclass(frozen=True)
class _E2Table:
    """Log-log spline of -E2 exponent over the coupling magnitude (217
    knots, 8 per decade from _E2_LO to _E2_HI, built in one pass by
    :meth:`_Context._build_e2_table`), with the exact linear slope below
    _E2_LO, and above _E2_HI the continuation of the spline's last piece
    as a power law: its value and slope at log _E2_HI."""
    spline: _Spline
    linear_slope: float
    end_value: float
    end_slope: float


class _Context:
    """What the analytic engine derives from one parameter set: from the
    cross moment of its geometry, Q1, Q2 and Q3; and on the fixed x
    grid the Monte Carlo kernels' per-user terms, and from them c1 and B,
    C, D per unit of eta n T (all three are linear in it).

    The modes differ only in how much of an interfering cell's frame
    counts, the frame weights of :func:`~mimosg.params.frame_weights`: f_w,
    rho2, users (the multiplicity of E2) and products of them, the frame
    factors of C and g3. Synchronous, the weights are 1 and the
    station-to-station weight is 0; so are g3's factor, Q2 and Q3, and with
    them the terms of c1 beyond g1's own.
    """

    def __init__(self, params: SystemParams):
        p = self.params = params
        try:
            cm = _cross_moment(*_geometry(p))
        except OverflowError:
            raise _overflow(p) from None
        fw = frame_weights(p)
        self.f_w, self.rho2, self.users = fw.f_w, fw.rho2, fw.users
        # the frame factors of C and of g3
        self.c_weight = fw.f_w * fw.users * fw.rho2
        self.uplink_weight = fw.bs * fw.f_w
        # Q3, the mean foreign-uplink moment sum_j sum_k' r_jjk'^(alpha eps)
        # r_lkjk'^-alpha, zero synchronous. This simplified form replaces
        # the user-to-user distance by the station-to-user distance, which
        # makes it independent of the serving distance x (N_p times the
        # cross moment). It also conditions the foreign user's serving
        # distance on (r0, |y|), with |y| that user's distance to the tagged
        # station, where the exact form uses (max(r0, x - d), x + d) with d
        # the user-to-user distance. At eps = 0 the serving-distance moment
        # is 1, so only the distance swap shows; for eps > 0 the gap between
        # the two forms mixes both changes. The exact form, a double
        # integral over the exclusion-ball field with the law-of-cosines
        # coupling that converges only for x < r_e, is the test oracle
        # ``tests/test_acceptance.py::q3_reference``.
        self.q3 = p.n_p * cm if fw.bs else 0.0
        self.q2 = q2(p)
        # I_t's station-to-station part with its sum replaced by Q2; Q1 is
        # the mean of delta1 = I_t + pilot noise
        self.bs_q2 = bs_gain(p) * self.q2
        self.q1 = self.f_w * self.users * cm + self.bs_q2 + pilot_noise(p)
        # the x grid, in u = pi lam (x^2 - r0^2), and the x-only terms on it
        self.x_nodes, self.x_weights = _x_grid()
        self.x_vals = np.sqrt(p.r0 ** 2 + self.x_nodes / p.pi_lam)
        with np.errstate(over="ignore", invalid="ignore"):
            self.terms = user_terms(self.x_vals, p)
            self.c1_x = self.c1(self.x_vals)
            self.unit_b, self.unit_c, self.unit_d = self.coefficients(
                1.0, self.x_vals)
        if not np.isfinite([self.c1_x, self.unit_b, self.unit_c,
                            self.unit_d]).all():
            raise _overflow(p)

    def _terms(self, x):
        """The x-only terms at x."""
        return user_terms(np.asarray(x, dtype=float), self.params)

    def coefficients(self, ent, x):
        """Campbell coefficients (B, C, D) at distances x, with ``ent`` =
        eta n T: g2's beamforming and pilot terms and g1's cross term, the
        phase indicators replaced by the frame weights."""
        t = self._terms(x)
        b = -ent * self.rho2 * beam_scale(amp(t, self.q1), self.params)
        c = -ent * t.pilot * self.c_weight
        d = -ent * self.f_w * t.i_coef
        return b, c, d

    def c1(self, x):
        """g1 with its station-to-station sum replaced by Q2 (its cross
        sum is E2's), plus the mean foreign uplink."""
        t = self._terms(x)
        return t.base + t.i_coef * self.bs_q2 + self.foreign_uplink(x)

    def foreign_uplink(self, x):
        """g3 with its sum replaced by Q3, its phase indicator by the frame
        weight, and Delta's ratio by Q1."""
        return (uplink_scale(amp(self._terms(x), self.q1), self.params)
                * self.uplink_weight * self.q3)

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
        degree-K Taylor polynomial of expm1 (K = 7, Z = 1e-2). With the
        suffix moments normalized at the split node s, N_m = sum_{j >= s}
        w_j (th_j/th_s)^m, m <= 2K, the tail is exactly the polynomial's
        sum over i + j <= K of (beta th_s)^i/i! (gam th_s^2)^j/j! N_(i+2j),
        summed by nested Horner (``_taylor_horner``): its arguments are at
        most Z in size, so no power overflows however large beta and gam
        are. The dropped remainder is below
        Z^K/(K+1)! ~ 2.5e-19 of the tail. A row's value does not depend on
        the other rows of the call."""
        p = self.params
        q = p.pi_lam
        x = np.asarray(x, dtype=float)
        a = q * x ** 2
        # the powers act on x only; the rows are products with b and c
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                scale_b = q ** (p.alpha / 2.0) * a ** (-p.alpha / 2.0)
                scale_c = q ** p.alpha * a ** (-p.alpha)
        except OverflowError:
            raise _overflow(p) from None
        if not (np.isfinite(scale_b).all() and np.isfinite(scale_c).all()):
            raise _overflow(p)
        beta = np.asarray(b, dtype=float) * scale_b
        gam = np.asarray(c, dtype=float) * scale_c
        shape = np.broadcast_shapes(beta.shape, gam.shape, a.shape)
        beta = np.broadcast_to(beta, shape).ravel()
        gam = np.broadcast_to(gam, shape).ravel()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rows = _e1_integral(_tau_grid(p.alpha), beta, gam)
        # a row that is not finite from its own finite beta and gam read a
        # moment that is not (``_tau_grid``); from non-finite ones, it is
        # the caller's, which reports it with its threshold
        if not np.isfinite(rows).all() and (
                ~np.isfinite(rows) & np.isfinite(beta)
                & np.isfinite(gam)).any():
            raise _overflow(p)
        return a * rows.reshape(shape)

    # --- E2 exponent ------------------------------------------------------
    @staticmethod
    def _e2_inner_rows(a0: float, pexp: float, s_hi: np.ndarray):
        """The inner s-rule on [a0, s_hi] for each upper end: the nodes
        s^pexp and the weights w e^-s, one row of GRID_INNER per end."""
        gl_x, gl_w = leggauss(GRID_INNER)
        half = 0.5 * (s_hi - a0)
        s = a0 + half[:, None] * (gl_x[None, :] + 1.0)
        return s ** pexp, half[:, None] * gl_w * np.exp(-s)

    @staticmethod
    def _build_e2_table(pi_lam: float, r0: float, r_e: float, alpha: float,
                        eps: float) -> _E2Table:
        """The exponent -E(g) at the table's couplings g, all in one pass:

            E(g) = int_te^inf int_a0^min(t, s_cap) e^-s expm1(-g s^p
                   t^(-a/2)) / (e^-a0 - e^-t) ds dt,

        with s_cap = a0 + 45, past which e^-s is below 3e-20 of its value
        at a0. The lower end te = pi lam r_e^2 is 1 (to rounding), since
        lam = 1 / (pi r_e^2), so it lies below s_cap. On te <= t < s_cap,
        one log t-grid, each node with its own inner row, serves every g.
        From s_cap on, every t has the inner row capped at s_cap and e^-a0
        - e^-t rounds to e^-a0, so with v = g t^(-a/2) that part is (2/a)
        g^(2/a) H(g s_cap^(-a/2)) / e^-a0, H(V) = int_0^V F(-v) v^(-2/a-1)
        dv and F(y) = sum w expm1(y s^p) over the capped row: H runs up
        the knots as one cumulative sum of Gauss-Legendre panels in log v,
        one panel between consecutive knots, from its power series below
        the first."""
        a0 = pi_lam * r0 ** 2
        te = pi_lam * r_e ** 2
        pexp = alpha * eps / 2.0
        s_cap = a0 + 45.0
        k = 2.0 / alpha
        grid = np.geomspace(_E2_LO, _E2_HI,
                            int(math.log10(_E2_HI / _E2_LO)) * 8 + 1)

        sp, w = (row[0] for row in
                 _Context._e2_inner_rows(a0, pexp, np.array([s_cap])))
        v = grid * s_cap ** (-alpha / 2.0)
        # below the first knot v s^p <= 1e-12, and F(-v) is its series
        h = sum((-v[0]) ** n * np.dot(w, sp ** n) / math.factorial(n)
                * v[0] ** -k / (n - k) for n in (1, 2, 3))
        u, wu = gauss_legendre_panels(np.log(v), _E2_PANEL_NODES)
        vu = np.exp(u)
        f = np.empty(u.size)
        step = _HEAD_CHUNK // GRID_INNER
        for i in range(0, u.size, step):
            z = np.multiply.outer(-vu[i:i + step], sp)
            np.expm1(z, out=z)
            f[i:i + step] = np.einsum("ns,s->n", z, w)
        f *= wu * vu ** -k
        h += np.concatenate(
            [[0.0], np.cumsum(f.reshape(-1, _E2_PANEL_NODES).sum(axis=1))])
        vals = k * grid ** k * h / math.exp(-a0)

        t, wt = log_panel_grid(te, s_cap, panels_per_decade=4, n_per_panel=10)
        c, w = _Context._e2_inner_rows(a0, pexp, t)
        c *= t[:, None] ** (-alpha / 2.0)    # s^p t^(-a/2)
        wt = wt / (math.exp(-a0) - np.exp(-t))
        step = max(1, _HEAD_CHUNK // c.size)
        for i in range(0, grid.size, step):
            z = np.multiply.outer(-grid[i:i + step], c)
            np.expm1(z, out=z)
            z *= w
            vals[i:i + step] += np.einsum("kts,t->k", z, wt)
        if np.any(vals >= 0):
            raise NumericalError("E2 exponent table is not negative")
        spline = _Spline(np.log(grid), np.log(-vals))
        # the last piece, sum_k c[k] h^(3-k), and its slope at log _E2_HI
        c3, c2, c1, c0 = spline.c[:, -1]
        h = math.log(_E2_HI) - spline.x[-2]
        # small-coupling behaviour is exactly linear with this slope
        return _E2Table(spline=spline, linear_slope=vals[0] / (-grid[0]),
                        end_value=float(((c3 * h + c2) * h + c1) * h + c0),
                        end_slope=float((3.0 * c3 * h + 2.0 * c2) * h + c1))

    def e2_exponent(self, d):
        """Exponent of E2 (before the per-user multiplicity factor) at
        coefficient D; spline-interpolated in log-log space. Evaluated in
        chunks of _E2_CHUNK values; each value depends on its own D only."""
        d = np.atleast_1d(np.asarray(d, dtype=float))
        flat = d.ravel()
        out = np.empty(flat.size)
        for lo in range(0, flat.size, _E2_CHUNK):
            out[lo:lo + _E2_CHUNK] = self._e2_values(flat[lo:lo + _E2_CHUNK])
        return out.reshape(d.shape)

    def _e2_values(self, d: np.ndarray) -> np.ndarray:
        p = self.params
        dt_coef = d * p.pi_lam ** (p.alpha * (1.0 - p.eps) / 2.0)
        table = _e2_table(*_geometry(p))
        mag = np.abs(dt_coef)
        out = np.zeros_like(mag)
        tiny = (mag > 0) & (mag < _E2_LO)
        out[tiny] = dt_coef[tiny] * table.linear_slope
        mid = (mag >= _E2_LO) & (mag <= _E2_HI)
        out[mid] = -np.exp(table.spline(np.log(mag[mid])))
        big = mag > _E2_HI
        if np.any(big):
            # asymptotic power-law continuation of the log-log spline
            out[big] = -np.exp(table.end_value + table.end_slope
                               * (np.log(mag[big]) - math.log(_E2_HI)))
        return out


def _x_grid():
    """Gauss-Legendre panels in u = pi lam (x^2 - r0^2), where the serving
    density is exactly e^-u du."""
    u_max = -math.log(X_WEIGHT_CUTOFF)
    breaks = np.array([0.0, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.5,
                       7.5, 10.0, 13.0, 17.0, u_max])
    return gauss_legendre_panels(breaks, GRID_OUTER)


_context = lru_cache(maxsize=32)(_Context)


@lru_cache(maxsize=32)
def _e2_table(pi_lam: float, r0: float, r_e: float, alpha: float,
              eps: float) -> _E2Table:
    """The E2 table of a geometry (see ``_geometry``). The doubly-integrated
    exponent depends only on these five values, not on n_p, m or the
    mode, so a sweep over those builds the table once."""
    return _Context._build_e2_table(pi_lam, r0, r_e, alpha, eps)


def _overflow(p: SystemParams) -> NumericalError:
    """The error of a path-loss exponent so large that a power of a
    distance or of pi lam overflows a float."""
    return NumericalError(f"path-loss exponent {p.alpha!r} overflows the "
                          "analytic engine's powers of distance")


# ---------------------------------------------------------------------------
# the Laplace function and coverage
# ---------------------------------------------------------------------------

def _general_exponent(ctx: _Context, z: np.ndarray) -> np.ndarray:
    """Exponent of L's integrand at every (z, x) row; ``z`` is a column
    broadcasting against the x grid."""
    # built, if it must be, before the rows' arrays exist
    _e2_table(*_geometry(ctx.params))
    return _c1_e1_e2_exponent(ctx, z, ctx.e2_exponent)


def _no_pc_exponent(ctx: _Context, z: np.ndarray) -> np.ndarray:
    return _c1_e1_e2_exponent(
        ctx, z, lambda d: _e2_exponent_no_pc(ctx, d))


def _c1_e1_e2_exponent(ctx: _Context, z: np.ndarray, e2) -> np.ndarray:
    """-z c1 + E1 + users E2, summed in this order into one array."""
    e1 = ctx.e1_exponent(z * ctx.unit_b, z * ctx.unit_c, ctx.x_vals)
    expo = -z * ctx.c1_x
    expo += e1
    del e1
    expo += ctx.users * e2(z * ctx.unit_d)
    return expo


def _infinite_m_exponent(ctx: _Context, z: np.ndarray) -> np.ndarray:
    # C with its (M-1)/C_M^2 prefactor -> 1; B and D vanish
    c_inf = -ctx.terms.x2a * ctx.c_weight
    return ctx.e1_exponent(0.0, z * c_inf, ctx.x_vals)


def _fullpc_exponent(ctx: _Context, z: np.ndarray) -> np.ndarray:
    # dominant foreign-uplink term only (eps = 1)
    return -z * ctx.foreign_uplink(ctx.x_vals)


def _laplace(params: SystemParams, z: np.ndarray,
             exponent=_general_exponent) -> np.ndarray:
    """L = int exp(exponent) e^-u du, unclamped, at each z >= 0 of the flat
    array ``z``; in equal blocks of at most _ROW_BLOCK (z, x) elements, so
    that the working set does not grow with z.size."""
    ctx = _context(params)
    per_block = _ROW_BLOCK // ctx.x_vals.size
    out = []
    for block in np.array_split(z, max(1, -(-z.size // per_block))):
        # a product past the float range is -inf, a row whose L is 0
        with np.errstate(over="ignore"):
            expo = exponent(ctx, block[:, None])
        expo -= ctx.x_nodes       # serving density is e^-u du in u-space
        np.exp(expo, out=expo)
        # per-row sums (einsum, not BLAS), so that a value does not depend
        # on the rows it is computed with
        out.append(np.einsum("zx,x->z", expo, ctx.x_weights))
        del expo    # before the next block's arrays exist
    return np.concatenate(out)


def _mixture_signs(n_shape: int) -> np.ndarray:
    """s_n = (-1)^(n+1) C(N, n), n = 1..N: the Gamma mixture
    1 - (1 - e^(-eta A))^N is sum_n s_n e^(-eta n A)."""
    return np.array([(-1.0) ** (k + 1) * math.comb(n_shape, k)
                     for k in range(1, n_shape + 1)])


def _coverage_values(thresholds, params: SystemParams, n_shape: int,
                     exponent=_general_exponent):
    """(coverage, clamped count) at linear ``thresholds``: the Gamma
    mixture sum_n s_n L(eta n T) of :func:`_laplace`, with L evaluated at
    every (T, n) at once."""
    thresholds = np.asarray(thresholds, dtype=float)
    if not np.all((thresholds >= 0.0) & (thresholds < np.inf)):
        raise ConfigError("thresholds must be finite and >= 0 (linear scale)")
    with np.errstate(over="ignore"):    # eta n T = inf: L is 0 there
        ent = eta_shape(n_shape) * np.multiply.outer(
            thresholds, np.arange(1, n_shape + 1))
    laplace = _laplace(params, ent.ravel(), exponent).reshape(ent.shape)
    acc = np.einsum("tn,n->t", laplace, _mixture_signs(n_shape))
    bad = ~np.isfinite(acc) | (np.abs(acc) > _GUARD_LIMIT)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericalError("alternating expansion lost precision at "
                             f"T={float(thresholds[i])!r}: "
                             f"{float(acc[i])!r}")
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
    return CoverageCurve(thresholds=thresholds, coverage=vals, method=method,
                         params=params, n_shape=n_shape, clamped=clamped)


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
        raise ConfigError("full-power-control case requires async mode, eps=1")
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
        raise ConfigError("no-power-control case requires eps=0")
    return _analytic_curve(thresholds, params, n_shape,
                           _no_pc_exponent, "analytic-special")


# ---------------------------------------------------------------------------
# ergodic rate
# ---------------------------------------------------------------------------

def ergodic_rate(params: SystemParams, n_shape: int | None = None) -> RateResult:
    """Cell-aggregate downlink ergodic rate in bits/s/Hz:
    (n_p n_d / n_tot) * integral_0^inf P(SINR > t) / ((t+1) ln 2) dt.

    Coverage is the mixture sum_n s_n L(eta n t) of the Laplace function L
    (:func:`_laplace`), so the rate is pref / ln 2 times one integral,
    int_0^inf L(z) k(z) dz with k(z) = sum_n s_n / (z + eta n). Its panels
    run from the first candidate where L is L(0) to 1e-13 up to z_hi =
    ln(1e18) / f, f = (v_m - 1 + n_p) / C_M^2 (``own_cell``), past which L
    is below 1e-18: c1 >= f, since c1 adds non-negative terms to the same
    f, and the E1, E2 exponents are <= 0, so L(z) <= L(0) e^(-z f). The
    head [0, z_lo] is L(0) sum_n s_n ln(1 + z_lo / (eta n)), with z_lo the
    largest panel break where that is within _Z_HEAD_TOL of the integral
    (see :func:`_head_end`); the panels below it are dropped."""
    n_shape = _gamma_shape(n_shape, params)
    z_probe = np.concatenate([_Z_LO_CANDIDATES, _Z_HEAD_PROBES])
    probe = _laplace(params, np.append(0.0, z_probe))
    l0, l_probe = probe[0], probe[1:]
    # against L(0), not 1: the x grid's mass caps L at 1 - 1e-10
    flat = np.flatnonzero(l0 - l_probe[:_Z_LO_CANDIDATES.size] < _Z_LO_TOL)
    if not flat.size:
        raise NumericalError("L(z) is not flat near z = 0 down to 1e-30 at "
                             f"path-loss exponent {params.alpha!r}")
    f = own_cell(params)
    z_hi = math.log(1.0 / _Z_HI_TAIL) / f
    breaks = log_breaks(float(_Z_LO_CANDIDATES[flat[0]]), z_hi,
                        _Z_PANELS_PER_DECADE)
    eta_n = eta_shape(n_shape) * np.arange(1, n_shape + 1)
    signs = _mixture_signs(n_shape)
    first, head_bound = _head_end(z_probe, l0, l_probe, breaks, eta_n,
                                  signs)
    z_lo = float(breaks[first])
    z, w = gauss_legendre_panels(breaks[first:], _Z_PANEL_NODES)
    l_z = _laplace(params, z)
    body = np.dot(w, l_z * ((1.0 / np.add.outer(z, eta_n)) @ signs))
    head = l0 * np.dot(signs, np.log1p(z_lo / eta_n))
    rate = params.rate_prefactor / math.log(2.0) * float(body + head)
    return RateResult(rate=rate, method="analytic", z_lo=z_lo, z_hi=z_hi,
                      head_bound=head_bound)


def _head_end(z_probe, l0, l_probe, breaks, eta_n, signs):
    """(index, bound): the largest of ``breaks`` b where L = L(0) on [0, b]
    errs by at most _Z_HEAD_TOL of the rate's integral I, and that bound
    relative to I; the first break if none does.

    L is nonincreasing and k > 0 (k(z) = int_0^inf e^(-zt) (1 - (1 -
    e^(-eta t))^N) dt), so I >= L(z) int_0^z k for every probe point z,
    and on [0, b] the error is at most (L(0) - L(z_p)) sum_n |s_n| ln(1 +
    b / (eta n)), z_p the smallest probe point at or above b. ``l0`` and
    ``l_probe`` are L at 0 and at the probe points ``z_probe``."""
    i_lb = np.max(l_probe * (np.log1p(np.divide.outer(z_probe, eta_n))
                             @ signs))
    order = np.argsort(z_probe)
    at = np.searchsorted(z_probe[order], breaks)
    inside = at < z_probe.size
    bound = np.full(breaks.size, np.inf)
    bound[inside] = ((l0 - l_probe[order][at[inside]])
                     * (np.log1p(np.divide.outer(breaks[inside], eta_n))
                        @ np.abs(signs)) / i_lb)
    met = np.flatnonzero(bound <= _Z_HEAD_TOL)
    first = int(met[-1]) if met.size else 0
    return first, float(bound[first])
