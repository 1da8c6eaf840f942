"""Closed form of the Gamma mixture that softens the SINR indicator in the
coverage formula: the oracle of acceptance criterion 7 and
``test_analytic.py::TestGammaApprox``, which check it against the exact
Gamma CDF (``scipy.special.gammainc``) and check the engine's binomial
expansion against it: ``mimosg.analytic._coverage_values``, the program's
only form of the mixture, which applies the signs s_n to the Laplace
function ``_laplace`` at eta n T.
"""
from __future__ import annotations

import numpy as np

from mimosg.params import eta_shape


def gamma_mixture_cdf(a, n: int):
    """(1 - exp(-eta A))^N with the engine's eta = N (N!)^(-1/N): the
    exponential-mixture stand-in for the CDF of a unit-mean Gamma variable
    of shape N. For N > 1 it is a lower bound on the true CDF (equality at
    N = 1); it is tight for moderate A, which is what the coverage
    expansion relies on."""
    return (-np.expm1(-eta_shape(n) * np.asarray(a, dtype=float))) ** n
