"""Adaptive 1-D/2-D quadrature and fixed-panel node builders.

The adaptive routine is a standard Gauss(7)/Kronrod(15) interval-splitting
scheme with deterministic, fixed-order summation inside every panel, so a
result is bit-identical however the panels were produced. Improper upper
limits are truncated where the integrand envelope falls below
``truncation_mass`` times the running peak.

The coverage engine does not call the adaptive routine in its hot path; it
evaluates smooth transformed integrands on fixed Gauss-Legendre panels
(vectorised), and the test-suite cross-checks those panels against
:func:`quad_1d`.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

# Kronrod-15 nodes on [-1, 1] and the matching Gauss-7 / Kronrod-15 weights.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_depth: int = 2000          # maximum number of interval splits
    truncation_mass: float = 1e-8  # tail cutoff relative to running peak
    grid_outer: int = 12           # Gauss-Legendre points per outer panel
    grid_inner: int = 32           # Gauss-Legendre points per inner s-panel

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.truncation_mass <= 0:
            raise ValueError("truncation_mass must be positive")


DEFAULT_QUAD = QuadratureConfig()


def _gk15(f, a: float, b: float):
    """One Gauss-Kronrod panel; returns (integral, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _XK), dtype=float)
    ik = half * float(np.dot(_WK, fx))
    ig = half * float(np.dot(_WG, fx[1::2]))
    err = abs(ik - ig)
    # QUADPACK's scale-free estimate (Piessens et al. 1983, qk15): resasc
    # is the Kronrod integral of |f - mean f| over the panel
    mean = 0.5 * float(np.dot(_WK, fx))
    resasc = abs(half) * float(np.dot(_WK, np.abs(fx - mean)))
    if err != 0.0 and resasc != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return ik, err


def truncate_upper_limit(f, a: float, cfg: QuadratureConfig = DEFAULT_QUAD,
                         probe_start: float | None = None) -> float:
    """Find a finite stand-in for an infinite upper limit.

    Probes the integrand on a geometric grid and stops once |f| has fallen
    below ``truncation_mass`` times the largest magnitude seen, twice in a
    row. The integrand must eventually decay for this to terminate.
    """
    t = probe_start if probe_start is not None else (abs(a) + 1.0)
    if t <= a:
        t = a + 1.0
    peak = 0.0
    below = 0
    for _ in range(200):
        val = abs(np.asarray(f(t), dtype=float).item())
        peak = max(peak, val)
        if peak > 0 and val <= cfg.truncation_mass * peak:
            below += 1
            if below >= 2:
                return t
        else:
            below = 0
        t = a + 2.0 * (t - a)
        if not math.isfinite(t):
            break
    raise QuadratureError(
        "could not truncate improper upper limit: integrand does not decay "
        f"below {cfg.truncation_mass!r} of its peak", estimate=None,
        error=None, intervals=None)


def quad_1d(f, a: float, b: float, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Adaptive integral of a vectorisable scalar function over (a, b).

    ``b`` may be ``numpy.inf``; the tail is truncated via
    :func:`truncate_upper_limit`. Raises :class:`QuadratureError` when the
    error estimate does not meet the tolerances within ``max_depth`` splits.
    """
    if not math.isfinite(a):
        raise QuadratureError("lower limit must be finite")
    if math.isinf(b):
        b = truncate_upper_limit(f, a, cfg)
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    val, err = _gk15(f, a, b)
    # Heap keyed on -error so the worst panel is split first; the id tie-break
    # keeps the ordering total and deterministic.
    counter = 0
    heap = [(-err, counter, a, b, val, err)]
    total = val
    total_err = err
    for _ in range(cfg.max_depth):
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            break
        neg_err, _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:      # interval exhausted at machine precision
            heapq.heappush(heap, (0.0, counter + 1, pa, pb, pval, 0.0))
            counter += 1
            total_err -= perr
            continue
        lv, le = _gk15(f, pa, pm)
        rv, re = _gk15(f, pm, pb)
        total += (lv + rv) - pval
        total_err += (le + re) - perr
        counter += 1
        heapq.heappush(heap, (-le, counter, pa, pm, lv, le))
        counter += 1
        heapq.heappush(heap, (-re, counter, pm, pb, rv, re))
    else:
        if total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            raise QuadratureError(
                "adaptive quadrature did not converge", estimate=sign * total,
                error=total_err, intervals=len(heap))
    # Fixed-order reduction: re-sum panels sorted by left endpoint.
    panels = sorted(heap, key=lambda p: p[2])
    total = math.fsum(p[4] for p in panels)
    return sign * total


def quad_2d(f, outer_a: float, outer_b: float, inner_a, inner_b,
            cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Nested adaptive integral of f(s, t) dt ds with t-limits depending on s.

    ``inner_a`` / ``inner_b`` are floats or callables of the outer variable.
    The inner integral runs at a slightly tighter tolerance than the outer
    one so inner noise does not masquerade as outer structure.
    """
    inner_cfg = QuadratureConfig(
        rel_tol=cfg.rel_tol * 0.1, abs_tol=cfg.abs_tol * 0.1,
        max_depth=cfg.max_depth, truncation_mass=cfg.truncation_mass,
        grid_outer=cfg.grid_outer, grid_inner=cfg.grid_inner)

    def lim(bound, s):
        return bound(s) if callable(bound) else bound

    def outer_integrand(svals):
        svals = np.atleast_1d(np.asarray(svals, dtype=float))
        out = np.empty_like(svals)
        for i, s in enumerate(svals):
            out[i] = quad_1d(lambda t: f(s, t), lim(inner_a, s),
                             lim(inner_b, s), inner_cfg)
        return out

    return quad_1d(outer_integrand, outer_a, outer_b, cfg)


@lru_cache(maxsize=32)
def leggauss(n: int):
    """Read-only n-point Gauss-Legendre rule on [-1, 1], built once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_panels(breaks: np.ndarray, n_per_panel: int):
    """Gauss-Legendre nodes/weights on consecutive panels between ``breaks``."""
    breaks = np.asarray(breaks, dtype=float)
    x, w = leggauss(n_per_panel)
    lo = breaks[:-1, None]
    hi = breaks[1:, None]
    half = 0.5 * (hi - lo)
    nodes = (lo + half * (x[None, :] + 1.0)).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights


def log_panel_grid(a: float, b: float, panels_per_decade: float = 3.0,
                   n_per_panel: int = 10):
    """Gauss-Legendre panels log-spaced between 0 < a < b."""
    if not 0 < a < b:
        raise ValueError(f"need 0 < a < b, got ({a!r}, {b!r})")
    decades = math.log10(b / a)
    n_panels = max(1, int(math.ceil(decades * panels_per_decade)))
    breaks = a * (b / a) ** (np.arange(n_panels + 1) / n_panels)
    return gauss_legendre_panels(breaks, n_per_panel)


def linear_panel_grid(a: float, b: float, n_panels: int, n_per_panel: int):
    breaks = np.linspace(a, b, n_panels + 1)
    return gauss_legendre_panels(breaks, n_per_panel)
