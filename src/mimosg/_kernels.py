"""Hot numeric kernels of the Monte Carlo engine, in vectorised numpy.

Distances (``nearest_bs``, ``pairwise_dist``) are formed one coordinate
column at a time as dx*dx + dy*dy. ``nearest_bs`` works station-major:
its (n_bs, n_pts) matrix has the points on the long, contiguous axis, and
the search reduces over the short station axis.

``all_deltas`` and ``sinr_batch`` evaluate the same sums as the scalar
one-user reference in ``tests/reference_sinr.py``, batched over all users
of a realization; the kernel-parity tests pin the two against each other.
They take the realization's arrays and the
:class:`~mimosg.params.SystemParams` whole, and derive the rest (tagged
distances, 1/Delta tables, C_M^2, V_M) themselves, and compute each
realized sum once: ``sinr_batch`` reads g1 and delta1 from the tagged
station's row of ``all_deltas``' foreign pilot power table. The users of
all valid cells are flattened cell-major into one axis ("nu"), K per cell
in slot order; the tagged users ("nt") are those of one cell. d_bu[j, i]
is the distance from station j to user i, d_uu[i, t] from user i to
tagged user t. ``phases`` holds one code per cell: 0 pilot, 1 uplink, 2
downlink. The first argument of each kernel is the per-user array its
work scales with, so a wrapper (``perfbench/run.py --trace 1``) sizes a
call by len(args[0]).

``user_terms`` holds the terms of the inverse SINR that depend on a
user's serving distance alone, and ``bs_gain`` the station-to-station
weight; the analytic engine reads both and replaces only the realized sums.

Both modes run the same formulas; the mode reaches them only as data, the
frame weights of :func:`~mimosg.params.frame_weights`. Users whose pilots
collide form a pilot group: the K slots of a cell fall into K // users
groups, slot s into group s % (K // users). Asynchronous, every pilot
collides and each cell is one group; synchronous, only equal slots do and
each slot is a group. The weights are the frame fractions asynchronous
and 1 synchronous, where the station-to-station weight is 0, and the
synchronous phases are all downlink, so g3 is +0.0.

All randomness stays outside these kernels (numpy Generators in the
callers), so replays are bit-exact.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .params import c_m, frame_weights, v_m


# ---------------------------------------------------------------------------
# nearest base station
# ---------------------------------------------------------------------------

def _sq_dist(a, b):
    """Squared distances |a_i - b_j|^2, one coordinate column at a time:
    dx*dx + dy*dy in that order."""
    d2 = a[:, 0:1] - b[:, 0]
    dy = a[:, 1:2] - b[:, 1]
    d2 *= d2
    dy *= dy
    d2 += dy
    return d2


def nearest_bs(pts: np.ndarray, bs: np.ndarray):
    """Index of and distance to the nearest base station for each point.

    d2[j, i] = |bs_j - pts_i|^2 is reduced over its station axis j.
    ``dist`` is the square root of the exact minimum. ``idx`` is the first
    station that reaches it, as argmin would pick: each hit is weighted by
    n_bs - j and the largest weight wins. ``idx`` has the narrowest unsigned
    integer type that holds n_bs.
    """
    n_bs = bs.shape[0]
    d2 = _sq_dist(bs, pts)
    d2_min = d2.min(axis=0)
    rank = np.arange(n_bs, 0, -1, dtype=np.min_scalar_type(n_bs))
    idx = n_bs - (rank[:, None] * (d2 == d2_min)).max(axis=0)
    return idx, np.sqrt(d2_min)


def pairwise_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix |a_i - b_j|, shape (len(a), len(b))."""
    d2 = _sq_dist(a, b)
    return np.sqrt(d2, out=d2)


# ---------------------------------------------------------------------------
# batched inverse-SINR accumulation
# ---------------------------------------------------------------------------

class UserTerms(NamedTuple):
    """The terms of the inverse SINR that depend on the serving distance x
    alone, elementwise over x (:func:`user_terms`)."""
    xa: np.ndarray          # x^alpha
    x1e: np.ndarray         # x^(alpha (1 - eps))
    x2e: np.ndarray         # x^(alpha (2 - eps))
    x2a: np.ndarray         # x^(2 alpha)
    base: np.ndarray        # the own-cell and noise sum of g1
    noise_amp: np.ndarray   # pilot-noise amplitude, n_p + sigma2 x^a/(p_d omega)


def user_terms(x, p) -> UserTerms:
    """The x-only terms of the inverse SINR at serving distances x."""
    alpha, eps, sigma2, omega = p.alpha, p.eps, p.sigma2, p.omega
    n_p, p_d, p_u = p.n_p, p.p_d, p.p_u
    c = c_m(p.m)
    c2 = c * c
    xa = x ** alpha
    x1e = x ** (alpha * (1.0 - eps))
    x2e = x ** (alpha * (2.0 - eps))
    base = ((v_m(p.m) - 1.0) / c2 + n_p / c2
            + sigma2 * xa / (p_d * omega * c2)
            + sigma2 * x1e / (p_u * c2 * omega ** (1.0 - eps))
            + sigma2 ** 2 * x2e / (n_p * p_u * p_d * c2 * omega ** (2.0 - eps)))
    return UserTerms(xa, x1e, x2e, x ** (2.0 * alpha), base,
                     n_p + sigma2 * xa / (p_d * omega))


def bs_gain(p) -> float:
    """The station-to-station weight of the foreign pilot power, p_d n_p
    w_bs / (p_u omega^-eps n_tot^2), w_bs the ``bs`` frame weight."""
    return (p.p_d * p.n_p * frame_weights(p).bs
            / (p.p_u * p.omega ** (-p.eps) * p.n_tot ** 2))


def sinr_batch(tag_user, pilot_slot, d_serv, user_cell, d_bu, d_uu, deltas,
               foreign, valid, phases, p):
    """Inverse-SINR decomposition (g1, g2, g3) for every tagged user of one
    realization.

    tag_user: (nt,) flat indices of the tagged users, all of one cell.
    deltas, foreign: the two outputs of :func:`all_deltas`. valid: (n_bs,)
    bool cell validity. phases: (n_bs,) int8 phase of every cell as seen by
    the tagged cell (its own entry is ignored).
    """
    alpha, eps, omega, n_p = p.alpha, p.eps, p.omega, p.n_p
    fw = frame_weights(p)
    c = c_m(p.m)
    c2 = c * c
    t = user_terms(d_serv[tag_user], p)
    tag_cell = user_cell[tag_user[0]]
    n_bs, n_groups = foreign.shape
    tag_group = pilot_slot[tag_user] % n_groups                    # (nt,)

    # 1/Delta_{jk} summed over the users k of each pilot group of cell j
    inv_delta_pilot = np.zeros((n_bs, n_p))
    inv_delta_pilot[user_cell, pilot_slot] = 1.0 / deltas
    inv_delta_group = inv_delta_pilot.reshape(n_bs, fw.users, n_groups).sum(axis=1)

    # the foreign pilot power at the tagged station, in each tagged user's
    # group: g1's channel-estimation error and Delta's ratio delta1
    foreign_t = foreign[tag_cell, tag_group]
    g1 = t.base + (t.x1e / c2) * t.noise_amp * foreign_t
    delta1 = foreign_t + p.sigma2 * omega ** (eps - 1.0) / (n_p * p.p_u)
    amp = t.xa + t.x2e * delta1

    chi_dd = (phases == 2) & (np.arange(n_bs) != tag_cell) & valid  # (n_bs,)

    r_jl = d_bu[:, tag_user].T                                    # (nt, n_bs)
    beam = (r_jl ** (-alpha) * chi_dd).sum(axis=1)
    pil = (inv_delta_group.T[tag_group] * chi_dd
           * r_jl ** (-2.0 * alpha)).sum(axis=1)
    g2 = ((n_p / c2) * amp * beam
          + ((p.m - 1.0) / c2) * t.x2a * fw.f_w * deltas[tag_user] * pil)

    um = (user_cell != tag_cell) & (phases[user_cell] <= 1)        # (nu,)
    d_ut = np.where(um, d_uu.T, 1.0)
    # masking P_i before the product gives the same +0.0 terms
    g3 = (amp * p.p_u / (p.p_d * omega ** eps * c2)
          * ((d_serv ** (alpha * eps) * um)[None, :]
             * d_ut ** (-alpha)).sum(axis=1))
    return g1, g2, g3


def all_deltas(d_serv, user_cell, d_bu, d_bb, valid, p):
    """Delta of every user at its own station, and the (n_bs, n_groups)
    foreign pilot power table I, in units of p_u omega^(1-eps): at station
    j in group g, f_w sum r_i^(alpha eps) d_ji^-alpha over the group's users
    i of other cells plus ``bs_gain`` sum d_jj'^-alpha over the other
    stations. Delta = p_u omega^(1-eps) (x^(-alpha(1-eps)) + I[cell,
    group]) + sigma2/n_p."""
    alpha, eps = p.alpha, p.eps
    fw = frame_weights(p)
    n_bs = d_bb.shape[0]
    n_groups = p.n_p // fw.users
    cells = np.arange(n_bs)

    w = d_serv[None, :] ** (alpha * eps) * d_bu ** (-alpha)   # (n_bs, nu)
    # a user's own station takes no part in its sums: +0.0 there, the
    # value a mask multiply gives
    w[user_cell, np.arange(d_serv.shape[0])] = 0.0
    other_bs = (cells[None, :] != cells[:, None]) & valid[None, :]
    d_off = np.where(other_bs, d_bb, 1.0)  # keep the zero diagonal out
    bsbs = (d_off ** (-alpha) * other_bs).sum(axis=1)
    # the user axis runs K per cell in slot order, so its last reshaped
    # axis is the pilot group: sums over the users of each group
    foreign = (fw.f_w * w.reshape(n_bs, -1, n_groups).sum(axis=1)
               + (bs_gain(p) * bsbs)[:, None])
    # each run of n_groups users is one user of every group, all of one cell
    own = d_serv.reshape(-1, n_groups) ** (-alpha * (1.0 - eps))
    pwr = p.p_u * p.omega ** (1.0 - eps)
    deltas = pwr * (own + foreign[user_cell[::n_groups]]) + p.sigma2 / p.n_p
    return deltas.reshape(-1), foreign
