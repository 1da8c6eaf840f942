"""System parameters, unit conventions and derived constants.

Internal conventions: distances in kilometres, powers in watts (linear
scale). dB/dBm values are converted once at the configuration boundary
(see :mod:`mimosg.cli`). The path-loss coefficient ``omega`` is the linear
attenuation at a reference distance of 1 km, so ``omega < 1``.

The special functions here, ``c_m`` and the log-Gamma of ``eta_shape``,
come from :mod:`math` alone; the tests check them against exact forms and
against scipy.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import ConfigError, DomainError

MODE_ASYNC = "async"
MODE_SYNC = "sync"

_MODE_ALIASES = {
    "async": MODE_ASYNC,
    "asynchronous": MODE_ASYNC,
    "sync": MODE_SYNC,
    "synchronous": MODE_SYNC,
}


def normalize_mode(mode: str) -> str:
    try:
        return _MODE_ALIASES[str(mode).strip().lower()]
    except KeyError:
        raise ConfigError(f"unknown mode {mode!r}; expected 'sync' or 'async'") from None


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def attenuation_db_to_linear(db: float) -> float:
    """Path loss quoted as a positive attenuation in dB -> linear factor < 1."""
    return 10.0 ** (-db / 10.0)


def split_frame_real(n_tot: int, n_p: int, z: float) -> tuple[float, float]:
    """Split the data part of an ``n_tot``-symbol coherence block into
    uplink and downlink parts with ``n_d = z * n_u``.

    :class:`SystemParams` derives ``n_u``/``n_d`` with it. The parts may
    be fractional: over the pilot length the remaining symbols rarely
    divide evenly, and every formula downstream is well defined for
    real-valued phase durations.
    """
    if n_p < 1 or n_p != int(n_p):
        raise ConfigError(f"n_p must be a positive integer, got {n_p!r}")
    if z <= 0:
        raise ConfigError(f"Z must be > 0, got {z!r}")
    data = n_tot - n_p
    if data <= 0:
        raise ConfigError(f"no data symbols left: n_tot={n_tot}, n_p={n_p}")
    n_u = data / (1.0 + z)
    return n_u, data - n_u


def density_from_exclusion(r_e: float) -> float:
    """Base-station density (km^-2) whose exclusion ball of radius ``r_e``
    contains one point on average: lambda = 1 / (pi * r_e^2)."""
    if r_e <= 0:
        raise DomainError(f"r_e must be > 0, got {r_e!r}")
    return 1.0 / (math.pi * r_e * r_e)


# sqrt(pi), correctly rounded; c_m switches from the exact form to the
# asymptotic series at _C_M_SERIES_FROM, where the series' first dropped
# term is below 1e-18 of the value
_SQRT_PI = 1.772453850905516
_C_M_SERIES_FROM = 128
# Gamma(m + 1/2) / (Gamma(m) sqrt(m)) = sum_k _C_M_SERIES[k] m^-k + O(m^-7)
_C_M_SERIES = (1.0, -1 / 8, 1 / 128, 5 / 1024, -21 / 32768, -399 / 262144,
               869 / 4194304)


@functools.lru_cache(maxsize=64)
def c_m(m: int) -> float:
    """Mean of the norm of an M-variate standard complex Gaussian vector,
    Gamma(M + 1/2) / Gamma(M), to about one ulp.

    Below _C_M_SERIES_FROM it is the closed form sqrt(pi) M C(2M, M) / 4^M,
    whose rational part is one correctly rounded integer division; from
    there on sqrt(M) times the asymptotic series in 1/M. Neither forms a
    Gamma value or a difference of log-Gammas, so nothing overflows and
    nothing cancels at any M."""
    if m < 1 or m != int(m):
        raise DomainError(f"antenna count must be a positive integer, got {m!r}")
    m = int(m)
    if m < _C_M_SERIES_FROM:
        return _SQRT_PI * (m * math.comb(2 * m, m) / 4 ** m)
    inv, acc = 1.0 / m, 0.0
    for coef in reversed(_C_M_SERIES):
        acc = acc * inv + coef
    return math.sqrt(m) * acc


def v_m(m: int) -> float:
    """Variance of the same norm: M - c_m(M)^2. Lies in (0, 1), -> 1/4."""
    c = c_m(m)
    return float(m - c * c)


def eta_shape(n: int) -> float:
    """Exponential-rate constant n * (n!)^(-1/n) of the Gamma CDF bound;
    factorial handled in log space.

    With this constant (1 - e^(-eta A))^n is the *lower* bound on the CDF
    of a unit-mean Gamma variable of shape n, strict for n > 1 (H. Alzer,
    "On some inequalities for the incomplete gamma function", Math. Comp.
    66, 1997); the matching upper bound uses eta = n.
    """
    if n < 1 or n != int(n):
        raise DomainError(f"shape parameter must be a positive integer, got {n!r}")
    n = int(n)
    return n * math.exp(-math.lgamma(n + 1) / n)


def default_gamma_shape(mode: str) -> int:
    """Gamma shape used by the coverage expansion: 1 suffices in the
    asynchronous mode, 4 is a good default for the synchronous one."""
    return 1 if normalize_mode(mode) == MODE_ASYNC else 4


class PhaseTriple(NamedTuple):
    pilot: float
    uplink: float
    downlink: float


# phase codes of an interfering cell at the observed symbol: the index of
# its phase among PhaseTriple's fields, as the phase draw maps uniforms
PHASE_PILOT, PHASE_UPLINK, PHASE_DOWNLINK = 0, 1, 2


class FrameWeights(NamedTuple):
    """How much of an interfering cell's frame counts: the weights that make
    the two modes one set of formulas in both engines, and the law of its
    phase at a symbol of the observer's downlink phase. The fields hold
    their asynchronous values, the phases by independence of the frame
    offsets; synchronous, the weights are 1, one user per pilot group, the
    station-to-station weight ``bs`` is 0 and every cell is in downlink."""
    f_w: float      # its pilot and uplink symbols, (n_p + n_u) / n_tot^2
    rho2: float     # its downlink share squared, n_d^2 / n_tot^2
    users: int      # users per pilot group: n_p, every pilot collides
    bs: float       # its downlink symbols heard in the tagged pilot, n_d
    phases: PhaseTriple  # P(pilot, uplink, downlink): (n_p, n_u, n_d) / n_tot


# cached: the Monte Carlo kernels and phase draw read it on every trial
@functools.lru_cache(maxsize=64)
def frame_weights(p: "SystemParams") -> FrameWeights:
    if p.sync:
        return FrameWeights(1.0, 1.0, 1, 0.0, PhaseTriple(0.0, 0.0, 1.0))
    return FrameWeights((p.n_p + p.n_u) / p.n_tot ** 2, p.n_d ** 2 / p.n_tot ** 2,
                        p.n_p, p.n_d, PhaseTriple(p.n_p / p.n_tot, p.n_u / p.n_tot,
                                                  p.n_d / p.n_tot))


@dataclass(frozen=True)
class SystemParams:
    """The independent scalar model inputs, in internal units.

    Powers in watts, distances in km, ``omega`` linear. The geometry is
    given by the exclusion-ball radius ``r_e`` and the frame by ``n_tot``,
    ``n_p`` and the downlink/uplink ratio ``z``; the station density
    ``lam`` and the uplink/downlink symbol counts ``n_u``/``n_d`` follow
    from them as properties (:func:`split_frame_real`). ``n_u``/``n_d``
    may be fractional, as at most points of a pilot-length sweep, but
    must each be at least one symbol; ``n_p`` is also the number K of
    users scheduled per cell and must be an integer.
    """

    p_d: float          # downlink BS power, W
    p_u: float          # uplink open-loop power, W
    sigma2: float       # noise power, W
    omega: float        # path loss at 1 km, linear
    alpha: float        # path loss exponent, > 2
    m: int              # antennas per BS
    n_tot: int          # symbols per coherence block
    n_p: int            # pilot symbols (= users per cell)
    z: float            # downlink/uplink symbol ratio n_d / n_u
    eps: float          # fractional power-control parameter in [0, 1]
    r0: float           # user exclusion radius, km
    r_e: float          # exclusion-ball radius, km
    mode: str           # 'sync' or 'async'

    def __post_init__(self):
        object.__setattr__(self, "mode", normalize_mode(self.mode))
        for name in ("p_d", "p_u", "sigma2", "omega", "alpha", "r_e"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("p_d", "p_u", "omega"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.sigma2 < 0:
            raise ConfigError(f"sigma2 must be >= 0, got {self.sigma2!r}")
        if self.alpha <= 2:
            raise ConfigError(f"alpha must be > 2, got {self.alpha!r}")
        if self.m < 1 or self.m != int(self.m):
            raise ConfigError(f"m must be a positive integer, got {self.m!r}")
        n_u, n_d = split_frame_real(self.n_tot, self.n_p, self.z)
        if n_u < 1 - 1e-9 or n_d < 1 - 1e-9:
            raise ConfigError(
                f"frame parts must be >= 1, got n_u={n_u!r}, n_d={n_d!r}")
        if not 0.0 <= self.eps <= 1.0:
            raise ConfigError(f"eps must lie in [0, 1], got {self.eps!r}")
        if not 0 < self.r0 < self.r_e:
            raise ConfigError(
                f"need 0 < r0 < r_e, got r0={self.r0!r}, r_e={self.r_e!r}")

    @property
    def lam(self) -> float:
        """Station density, km^-2."""
        return density_from_exclusion(self.r_e)

    @property
    def n_u(self) -> float:
        """Uplink symbols."""
        return split_frame_real(self.n_tot, self.n_p, self.z)[0]

    @property
    def n_d(self) -> float:
        """Downlink symbols."""
        return split_frame_real(self.n_tot, self.n_p, self.z)[1]

    @property
    def rate_prefactor(self) -> float:
        """n_p n_d / n_tot: the cell-aggregate rate is this times
        E{log2(1 + SINR)}."""
        return self.n_p * self.n_d / self.n_tot

    @property
    def pi_lam(self) -> float:
        return math.pi * self.lam

    @property
    def sync(self) -> bool:
        return self.mode == MODE_SYNC

    def with_updates(self, **changes) -> "SystemParams":
        return replace(self, **changes)


def default_params(mode: str = MODE_ASYNC, *, m: int = 64, eps: float = 0.0,
                   n_p: int = 10, **overrides) -> SystemParams:
    """Reference parameter set used throughout the validation suite.

    45 dBm downlink, 23 dBm uplink open-loop power, -200 dBm noise, 130 dB
    path loss at 1 km, alpha = 4, a 40-symbol block with a 10-symbol pilot
    and Z = 2, and a 500 m exclusion ball with a 50 m user exclusion disk.

    Note the uplink transmit power ``p_u * beta^-eps`` is deliberately left
    uncapped, so for eps near 1 it can exceed any realistic device power.
    """
    base = dict(p_d=dbm_to_watt(45.0), p_u=dbm_to_watt(23.0),
                sigma2=dbm_to_watt(-200.0),
                omega=attenuation_db_to_linear(130.0), alpha=4.0,
                m=m, n_tot=40, n_p=n_p, z=2.0, r_e=0.5, r0=0.05,
                eps=eps, mode=mode)
    base.update(overrides)
    return SystemParams(**base)
