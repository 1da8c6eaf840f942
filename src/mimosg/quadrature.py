"""Fixed Gauss-Legendre panel rules for the analytic engine.

The coverage engine evaluates smooth transformed integrands on fixed
panels, vectorised in numpy, so every sum runs in a fixed order and a
result is bit-identical however often it is recomputed. The test-suite
checks these panels against ``scipy.integrate.quad`` as the adaptive
oracle.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


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
