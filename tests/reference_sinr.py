"""Scalar one-user reference of the Monte Carlo SINR: the oracle that the
kernel-parity tests compare the batched ``mimosg._kernels``
(``all_deltas``, ``sinr_batch``) against. Acceptance criteria 2 and 8
take the isolated-cell SINR ceiling from it.

One tagged user at a time: ``extract_bundle`` collects every distance
family entering its SINR into a :class:`DistanceBundle`,
``compute_delta`` gives its observation variance and ``inverse_sinr`` the
conditional inverse SINR, split into the intra-cell/noise part (gamma1),
the pilot-contamination part (gamma2) and the foreign-uplink part (gamma3,
asynchronous only). The sums run over one user's bundle, not over the
kernels' realization-wide arrays, so the two share no indexing.

The decomposition is already an expectation over small-scale fading and
precoding randomness, so no per-symbol fading is drawn. Phases are the
int8 codes of ``mimosg.montecarlo.draw_phases``, one per interfering cell.

``run_kernels`` takes a realization's tagged SINR from
``mimosg._kernels.cell_sinr``, the entry the Monte Carlo engine calls, and
lays its users out on its own, so that the tests which compare against the
kernels call them in one place.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from mimosg import _kernels
from mimosg.errors import DomainError, NumericalError
from mimosg.geometry import NetworkRealization
from mimosg.montecarlo import PHASE_DOWNLINK, PHASE_UPLINK
from mimosg.params import SystemParams, c_m, v_m


class KernelRun(NamedTuple):
    """The flattened users of a realization and the kernels' outputs."""
    user_cell: np.ndarray    # (nu,) cell of every user
    pilot_slot: np.ndarray   # (nu,) pilot slot of every user
    d_serv: np.ndarray       # (nu,) serving distances
    deltas: np.ndarray       # (nu,) Delta of every user
    foreign: np.ndarray      # (n_bs, n_groups) foreign pilot power table
    tag: np.ndarray          # (nt,) flat indices of the tagged users
    sinr: tuple              # (g1, g2, g3) of the tagged users


def run_kernels(net: NetworkRealization, params: SystemParams,
                tag_cell: int, phases: np.ndarray) -> KernelRun:
    """``all_deltas`` on every user of ``net`` and ``cell_sinr`` on the
    users of ``tag_cell``, with ``phases`` one code per cell. The users of
    the valid cells are flattened cell by cell, each cell's in slot order;
    ``user_cell`` and ``pilot_slot`` name the cell and slot of each."""
    k = params.n_p
    cells = np.flatnonzero(net.valid)
    user_cell = cells.repeat(k)
    pilot_slot = np.tile(np.arange(k), cells.size)
    pos = net.users[cells].reshape(-1, 2)
    d_serv = net.serving[cells].reshape(-1)
    deltas, foreign, _ = _kernels.all_deltas(
        d_serv, _kernels.pairwise_dist(net.bs, pos),
        _kernels.pairwise_dist(net.bs, net.bs), net.valid, params)
    tag = np.flatnonzero(user_cell == tag_cell)
    sinr = _kernels.cell_sinr(net, tag_cell, phases, params)
    return KernelRun(user_cell, pilot_slot, d_serv, deltas, foreign, tag,
                     sinr)


def central_cells(net: NetworkRealization, margin: float) -> np.ndarray:
    """Indices of valid cells whose BS lies in the margin-trimmed core."""
    lo, hi = margin, net.window - margin
    inside = np.all((net.bs >= lo) & (net.bs <= hi), axis=1)
    return np.flatnonzero(inside & net.valid)


@dataclass
class DistanceBundle:
    """Every distance family entering the SINR of one tagged user.

    Arrays are aligned on the first axis with ``other_cells`` (valid
    interfering cells, sorted by increasing distance to the tagged user);
    columns of the 2-D arrays run over the K users of each cell.
    """

    cell_index: int
    pilot_index: int
    x: float                         # serving distance of the tagged user
    other_cells: np.ndarray          # (n_o,) indices into the realization
    bs_to_user: np.ndarray           # (n_o,)   BS j -> tagged user
    bs_to_bs: np.ndarray             # (n_o,)   BS j -> serving BS
    cross_serving: np.ndarray        # (n_o, K) user (j,k') -> its own BS
    cross_to_desired_bs: np.ndarray  # (n_o, K) user (j,k') -> serving BS
    user_to_user: np.ndarray         # (n_o, K) user (j,k') -> tagged user

    @property
    def n_other(self) -> int:
        return self.other_cells.shape[0]


def extract_bundle(net: NetworkRealization, cell: int, k: int,
                   margin: float = 1.0) -> DistanceBundle | None:
    """Collect the tagged user's distances; ``None`` when the tagged cell
    falls outside the central measurement region (border-effect guard).
    Interference always comes from the full window."""
    if not net.valid[cell]:
        raise DomainError(f"cell {cell} holds no eligible users")
    if cell not in central_cells(net, margin):
        return None

    pos = net.users[cell, k]
    bs_l = net.bs[cell]
    others = np.flatnonzero(net.valid)
    others = others[others != cell]

    d_bs_user = np.hypot(*(net.bs[others] - pos).T)
    order = np.argsort(d_bs_user, kind="stable")
    others = others[order]
    d_bs_user = d_bs_user[order]

    d_bs_bs = np.hypot(*(net.bs[others] - bs_l).T)
    cross_serving = net.serving[others]
    flat = net.users[others].reshape(-1, 2)
    cross_to_bs = np.hypot(*(flat - bs_l).T).reshape(cross_serving.shape)
    user_user = np.hypot(*(flat - pos).T).reshape(cross_serving.shape)

    return DistanceBundle(
        cell_index=int(cell), pilot_index=int(k),
        x=float(net.serving[cell, k]),
        other_cells=others, bs_to_user=d_bs_user, bs_to_bs=d_bs_bs,
        cross_serving=cross_serving, cross_to_desired_bs=cross_to_bs,
        user_to_user=user_user)


def chi_dd(phases: np.ndarray) -> np.ndarray:
    """Cells in their downlink phase, as the observer is."""
    return phases == PHASE_DOWNLINK


def chi_pilot_or_uplink(phases: np.ndarray) -> np.ndarray:
    """Cells in their pilot or uplink phase."""
    return phases <= PHASE_UPLINK


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


def inverse_sinr(bundle: DistanceBundle, phases: np.ndarray,
                 deltas: DeltaSet, params: SystemParams) -> InverseSinr:
    """Conditional inverse SINR of the tagged user; ``phases`` holds the
    phase code of each of the bundle's interfering cells."""
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

    if phases.shape[0] != bundle.n_other:
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

        dd = chi_dd(phases)
        beam = float(np.sum(r_jl[dd] ** (-p.alpha)))
        pil = float(np.sum((deltas.tagged / deltas.other[dd]).sum(axis=1)
                           * r_jl[dd] ** (-2.0 * p.alpha)))
        g2 = ((p.n_p / c2) * amp * beam
              + ((p.m - 1.0) / c2) * x2a * f_w * pil)

        pu = chi_pilot_or_uplink(phases)
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
