"""Per-link statistics: path loss, power control, pilot observation
variances, phase-overlap indicators and the inverse-SINR decomposition.

These are the scalar reference implementations operating on a single
tagged user's :class:`~mimosg.geometry.DistanceBundle`. The Monte Carlo
engine evaluates the same sums batched over all tagged users through
:mod:`mimosg._kernels`; the test-suite pins the two against each other.

The Monte Carlo path evaluates the conditional (geometry-given) SINR
directly: the decomposition below is already an expectation over small
scale fading and precoding randomness, so no per-symbol fading is drawn.
Phase indicators are drawn once per realization per interfering cell,
conditioned on the observer being in its downlink phase.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .geometry import DistanceBundle
from .params import MODE_SYNC, SystemParams, c_m, phase_probabilities, v_m

PHASE_PILOT = 0
PHASE_UPLINK = 1
PHASE_DOWNLINK = 2


def path_loss(r, omega: float, alpha: float):
    """beta = omega * r^-alpha with r in km."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("path loss undefined at non-positive distance")
    out = omega * r ** (-alpha)
    return float(out) if out.ndim == 0 else out


def uplink_power(beta_serving, p_u: float, eps: float):
    """Fractional power control: P = p_u * beta^-eps (uncapped)."""
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"eps must lie in [0, 1], got {eps!r}")
    beta_serving = np.asarray(beta_serving, dtype=float)
    if np.any(beta_serving <= 0):
        raise DomainError("path loss must be positive")
    out = p_u * beta_serving ** (-eps)
    return float(out) if out.ndim == 0 else out


@dataclass
class PhaseIndicators:
    """Realized phase of each interfering cell at the observed symbol."""

    phase: np.ndarray  # (n_cells,) int8 in {PHASE_PILOT, PHASE_UPLINK, PHASE_DOWNLINK}

    @property
    def chi_dd(self) -> np.ndarray:
        return self.phase == PHASE_DOWNLINK

    @property
    def chi_pilot_or_uplink(self) -> np.ndarray:
        return self.phase <= PHASE_UPLINK


def draw_phases(params: SystemParams, n_cells: int,
                rng: np.random.Generator) -> PhaseIndicators:
    """One categorical phase draw per interfering cell.

    The observer is in its downlink phase, so each independent interfering
    cell is in pilot/uplink/downlink with probabilities (n_p, n_u, n_d) /
    n_tot. The synchronous mode is degenerate: every cell shares the
    observer's phase.
    """
    if params.mode == MODE_SYNC:
        return PhaseIndicators(phase=np.full(n_cells, PHASE_DOWNLINK,
                                             dtype=np.int8))
    # the steps of rng.choice(3, size=n_cells, p=probs), without its
    # per-call checks of p: the same uniforms give the same draws
    cdf = np.array(phase_probabilities(params)).cumsum()
    cdf /= cdf[-1]
    draws = cdf.searchsorted(rng.random(n_cells), side="right")
    return PhaseIndicators(phase=draws.astype(np.int8))


@dataclass
class InverseSinr:
    gamma1: float
    gamma2: float
    gamma3: float

    @property
    def total(self) -> float:
        return self.gamma1 + self.gamma2 + self.gamma3

    @property
    def sinr(self) -> float:
        return 1.0 / self.total


@dataclass
class DeltaSet:
    """Observation variances needed by one tagged user's SINR."""

    tagged: float               # Delta of the tagged user at its own BS
    other: np.ndarray           # (n_o, K) Deltas of interfering cells' users


def compute_delta(bundle: DistanceBundle, params: SystemParams) -> float:
    """Observation variance Delta of the tagged user's pilot correlation.

    Synchronous cells contribute their co-pilot users directly; cells
    outside the synchronization set contribute all users through the
    pilot/uplink leakage variance and their base station through the
    downlink leakage variance.
    """
    p = params
    own = p.p_u * p.omega ** (1.0 - p.eps) * bundle.x ** (-p.alpha * (1.0 - p.eps))
    if bundle.n_other == 0:
        return own + p.sigma2 / p.n_p
    if p.sync:
        k = bundle.pilot_index
        co_serv = bundle.cross_serving[:, k]
        co_dist = bundle.cross_to_desired_bs[:, k]
        cross = float(np.sum(co_serv ** (p.alpha * p.eps) * co_dist ** (-p.alpha)))
        return own + p.p_u * p.omega ** (1.0 - p.eps) * cross + p.sigma2 / p.n_p
    cross = float(np.sum(bundle.cross_serving ** (p.alpha * p.eps)
                         * bundle.cross_to_desired_bs ** (-p.alpha)))
    bsterm = float(np.sum(bundle.bs_to_bs ** (-p.alpha)))
    return (own
            + (p.n_p + p.n_u) / p.n_tot ** 2
            * p.p_u * p.omega ** (1.0 - p.eps) * cross
            + p.p_d * p.n_p * p.n_d / p.n_tot ** 2 * p.omega * bsterm
            + p.sigma2 / p.n_p)


def delta1(delta: float, x: float, params: SystemParams) -> float:
    """Excess observation variance after removing the own-pilot part:
    p_u^-1 * omega^(eps-1) * Delta - x^(-alpha(1-eps))."""
    if x <= 0:
        raise DomainError("serving distance must be positive")
    p = params
    return (p.omega ** (p.eps - 1.0) / p.p_u) * delta - x ** (-p.alpha * (1.0 - p.eps))


def inverse_sinr(bundle: DistanceBundle, phases: PhaseIndicators,
                 deltas: DeltaSet, params: SystemParams) -> InverseSinr:
    """Conditional inverse SINR of the tagged user, split into the
    intra-cell/noise part (gamma1), the pilot-contamination part (gamma2)
    and the foreign-uplink part (gamma3, asynchronous only)."""
    p = params
    c = c_m(p.m)
    c2 = c * c
    x = bundle.x

    xa = x ** p.alpha
    x1e = x ** (p.alpha * (1.0 - p.eps))
    x2e = x ** (p.alpha * (2.0 - p.eps))
    x2a = x ** (2.0 * p.alpha)

    g1 = ((v_m(p.m) - 1.0) / c2 + p.n_p / c2
          + p.sigma2 * xa / (p.p_d * p.omega * c2)
          + p.sigma2 * x1e / (p.p_u * c2 * p.omega ** (1.0 - p.eps))
          + p.sigma2 ** 2 * x2e
          / (p.n_p * p.p_u * p.p_d * c2 * p.omega ** (2.0 - p.eps)))

    d1 = delta1(deltas.tagged, x, p)
    amp = xa + x2e * d1
    noise_amp = p.n_p + p.sigma2 * xa / (p.p_d * p.omega)

    if bundle.n_other == 0:
        out = InverseSinr(gamma1=g1, gamma2=0.0, gamma3=0.0)
        _check_finite(out)
        return out

    if phases.phase.shape[0] != bundle.n_other:
        raise DomainError("phase draw does not match the bundle's cell count")

    r_jl = bundle.bs_to_user
    if p.sync:
        k = bundle.pilot_index
        cross = float(np.sum(bundle.cross_serving[:, k] ** (p.alpha * p.eps)
                             * bundle.cross_to_desired_bs[:, k] ** (-p.alpha)))
        g1 += (x1e / c2) * noise_amp * cross
        beam = float(np.sum(r_jl ** (-p.alpha)))
        pil = float(np.sum(deltas.tagged / deltas.other[:, k]
                           * r_jl ** (-2.0 * p.alpha)))
        g2 = (p.n_p / c2) * amp * beam + ((p.m - 1.0) / c2) * x2a * pil
        g3 = 0.0
    else:
        f_w = (p.n_p + p.n_u) / p.n_tot ** 2
        cross = float(np.sum(bundle.cross_serving ** (p.alpha * p.eps)
                             * bundle.cross_to_desired_bs ** (-p.alpha)))
        bsbs = float(np.sum(bundle.bs_to_bs ** (-p.alpha)))
        g1 += (x1e / c2) * noise_amp * (
            f_w * cross
            + p.p_d * p.n_p * p.n_d / (p.p_u * p.omega ** (-p.eps) * p.n_tot ** 2)
            * bsbs)

        dd = phases.chi_dd
        beam = float(np.sum(r_jl[dd] ** (-p.alpha)))
        pil = float(np.sum((deltas.tagged / deltas.other[dd]).sum(axis=1)
                           * r_jl[dd] ** (-2.0 * p.alpha)))
        g2 = ((p.n_p / c2) * amp * beam
              + ((p.m - 1.0) / c2) * x2a * f_w * pil)

        pu = phases.chi_pilot_or_uplink
        g3 = (amp * p.p_u / (p.p_d * p.omega ** p.eps * c2)
              * float(np.sum(bundle.cross_serving[pu] ** (p.alpha * p.eps)
                             * bundle.user_to_user[pu] ** (-p.alpha))))

    out = InverseSinr(gamma1=g1, gamma2=g2, gamma3=g3)
    _check_finite(out)
    return out


def _check_finite(inv: InverseSinr) -> None:
    for name in ("gamma1", "gamma2", "gamma3"):
        val = getattr(inv, name)
        if not np.isfinite(val) or val < 0:
            raise NumericalError(f"{name} is not a finite non-negative "
                                 f"number: {val!r}")


def isolated_cell_sinr(m: int, n_p: int) -> float:
    """Noise-free single-cell SINR: c_m^2 / (v_m - 1 + n_p)."""
    c = c_m(m)
    return c * c / (v_m(m) - 1.0 + n_p)
