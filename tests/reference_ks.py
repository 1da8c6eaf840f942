"""The one-sample Kolmogorov-Smirnov distance that the distance-law tests
(``test_geometry.py``, acceptance criterion 1) measure samples with,
kept apart from ``pdf-check``'s own so that it checks the samplers
independently."""
from __future__ import annotations

import numpy as np


def ks_distance(sample, cdf) -> float:
    """sup |F_n - F| of ``sample`` against the CDF ``cdf``."""
    sample = np.sort(np.asarray(sample))
    grid = cdf(sample)
    n = sample.size
    return float(max(np.max(np.arange(1, n + 1) / n - grid),
                     np.max(grid - np.arange(0, n) / n)))
