"""System parameters, unit conventions and derived constants.

Internal conventions: distances in kilometres, powers in watts (linear
scale). dB/dBm values are converted once at the configuration boundary
(see :mod:`mimosg.cli`). The path-loss coefficient ``omega`` is the linear
attenuation at a reference distance of 1 km, so ``omega < 1``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from scipy.special import gammaln, poch

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


def derive_frame(n_tot: int, n_p: int, z: float) -> tuple[int, int]:
    """Split the data part of an ``n_tot``-symbol coherence block.

    The non-pilot symbols are divided into uplink and downlink parts with
    ``n_d = z * n_u`` (see :func:`split_frame_real`). Both parts must come
    out as positive integers.
    """
    if n_tot != int(n_tot) or n_p != int(n_p):
        raise ConfigError(f"n_tot and n_p must be integers, got ({n_tot!r}, {n_p!r})")
    n_tot, n_p = int(n_tot), int(n_p)
    n_u, _ = split_frame_real(n_tot, n_p, z)
    n_u_int = round(n_u)
    n_d_int = n_tot - n_p - n_u_int
    if (n_u_int < 1 or n_d_int < 1
            or abs(n_u - n_u_int) > 1e-9 * max(1.0, abs(n_u))
            or abs(n_d_int - z * n_u_int) > 1e-9 * max(1.0, n_d_int)):
        raise ConfigError(
            f"frame split is not integral: n_tot={n_tot}, n_p={n_p}, Z={z!r} "
            f"gives n_u={n_u!r}")
    return n_u_int, n_d_int


def split_frame_real(n_tot: int, n_p: int, z: float) -> tuple[float, float]:
    """Like :func:`derive_frame` but allowing fractional uplink/downlink parts.

    :class:`SystemParams` derives ``n_u``/``n_d`` with it. Under a sweep
    over the pilot length the remaining symbols rarely divide evenly;
    every formula downstream is well defined for real-valued phase
    durations.
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


def c_m(m: int) -> float:
    """Mean of the norm of an M-variate standard complex Gaussian vector,
    Gamma(M + 1/2) / Gamma(M). Evaluated as a rising-factorial ratio, which
    never forms the raw Gamma values, so it neither overflows nor loses
    precision to log-difference cancellation at very large M."""
    if m < 1:
        raise DomainError(f"antenna count must be >= 1, got {m!r}")
    return float(poch(m, 0.5))


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
    return float(n * math.exp(-gammaln(n + 1) / n))


def default_gamma_shape(mode: str) -> int:
    """Gamma shape used by the coverage expansion: 1 suffices in the
    asynchronous mode, 4 is a good default for the synchronous one."""
    return 1 if normalize_mode(mode) == MODE_ASYNC else 4


class PhaseTriple(NamedTuple):
    pilot: float
    uplink: float
    downlink: float


def phase_probabilities(params: "SystemParams") -> PhaseTriple:
    """Probabilities (n_p, n_u, n_d) / n_tot that an interfering cell is in
    its pilot, uplink or downlink phase at a symbol of the observer's
    downlink phase; by independence of the frame offsets they sum to one."""
    return PhaseTriple(params.n_p / params.n_tot, params.n_u / params.n_tot,
                       params.n_d / params.n_tot)


@dataclass(frozen=True)
class SystemParams:
    """The independent scalar model inputs, in internal units.

    Powers in watts, distances in km, ``omega`` linear. The geometry is
    given by the exclusion-ball radius ``r_e`` and the frame by ``n_tot``,
    ``n_p`` and the downlink/uplink ratio ``z``; the station density
    ``lam`` and the uplink/downlink symbol counts ``n_u``/``n_d`` follow
    from them as properties. ``n_u``/``n_d`` may be fractional (pilot-length
    sweeps); ``n_p`` is also the number K of users scheduled per cell and
    must be an integer.
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
        for name in ("p_d", "p_u", "omega"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.sigma2 < 0:
            raise ConfigError(f"sigma2 must be >= 0, got {self.sigma2!r}")
        if self.alpha <= 2:
            raise ConfigError(f"alpha must be > 2, got {self.alpha!r}")
        if self.m < 1 or self.m != int(self.m):
            raise ConfigError(f"m must be a positive integer, got {self.m!r}")
        if self.n_p < 1 or self.n_p != int(self.n_p):
            raise ConfigError(f"n_p must be a positive integer, got {self.n_p!r}")
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
    def k(self) -> int:
        """Users scheduled per cell (pilot reuse: one user per sequence)."""
        return self.n_p

    @property
    def pi_lam(self) -> float:
        return math.pi * self.lam

    @property
    def sync(self) -> bool:
        return self.mode == MODE_SYNC

    def with_updates(self, **changes) -> "SystemParams":
        from dataclasses import replace
        return replace(self, **changes)


def make_params(*, p_d: float, p_u: float, sigma2: float, omega: float,
                alpha: float, m: int, n_tot: int, n_p: int, mode: str,
                eps: float, z: float, r_e: float, r0: float = 0.05,
                strict_frame: bool = True) -> SystemParams:
    """Build :class:`SystemParams` from its inputs.

    ``strict_frame=True`` also requires the frame split to come out in
    whole symbols (:func:`derive_frame`); ``strict_frame=False`` allows a
    fractional uplink/downlink split.
    """
    if strict_frame:
        derive_frame(n_tot, n_p, z)
    return SystemParams(p_d=p_d, p_u=p_u, sigma2=sigma2, omega=omega,
                        alpha=alpha, m=m, n_tot=n_tot, n_p=n_p, z=z, eps=eps,
                        r0=r0, r_e=r_e, mode=mode)


def default_params(mode: str = MODE_ASYNC, *, m: int = 64, eps: float = 0.0,
                   n_p: int = 10, strict_frame: bool = True,
                   **overrides) -> SystemParams:
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
                eps=eps, mode=mode, strict_frame=strict_frame)
    base.update(overrides)
    return make_params(**base)
