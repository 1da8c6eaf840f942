"""Hot numeric kernels of the Monte Carlo engine, in vectorised numpy.

Distances (``nearest_bs``, ``pairwise_dist``) are formed one coordinate
column at a time as dx*dx + dy*dy. ``nearest_bs`` works station-major:
its (n_bs, n_pts) matrix has the points on the long, contiguous axis, and
the search reduces over the short station axis.

``all_deltas`` and ``sinr_batch`` evaluate the same sums as the scalar
one-user reference in ``tests/reference_sinr.py``, batched over all users
of a realization; the kernel-parity tests pin the two against each other.
They take the realization's arrays and the
:class:`~mimosg.params.SystemParams` whole, and derive the rest (the user
layout, tagged distances, 1/Delta group sums, C_M^2, V_M) themselves, and
compute each realized sum once: ``sinr_batch`` reads g1 and delta1 from
the tagged station's row of ``all_deltas``' foreign pilot power table, and
g3 from the users' r^(alpha eps) that ``all_deltas`` forms for that table.

``cell_sinr(net, cell, phases, p)`` is the one entry the Monte Carlo
engine calls: it flattens a realization into the layout below, builds the
distance tables, runs ``all_deltas`` and returns ``sinr_batch``'s
(g1, g2, g3) for the users of one tagged cell. The parity tests run the
same entry.

The user layout follows from the (n_bs,) cell mask ``valid`` alone: the
users of the valid cells in cell order form one axis ("nu"), K = n_p per
cell in slot order, so user i is in cell flatnonzero(valid)[i // K] and
slot i % K. The tagged users ("nt") are those of one cell. d_bu[j, i] is
the distance from station j to user i, d_uu[i, t] from user i to tagged
user t. ``phases`` holds one ``params.PHASE_*`` code per station. The
first argument of each kernel is the per-user array its work scales
with, so a wrapper (``perfbench/run.py --trace 1``) sizes a call by
len(args[0]).

Each term of the inverse SINR has its one implementation here:
``user_terms`` (the terms of a user's serving distance alone),
``own_cell``, ``amp``, ``beam_scale``, ``uplink_scale``, ``pilot_noise``
and ``bs_gain``. The analytic engine reads them all and replaces only the
realized sums.

Both modes run the same formulas; the mode reaches them only as data, the
frame weights of :func:`~mimosg.params.frame_weights`. Users whose pilots
collide form a pilot group: the K slots of a cell fall into K // users
groups, slot s into group s % (K // users), and so user i into group
i % (K // users). Asynchronous, every pilot collides and each cell is one
group; synchronous, only equal slots do and each slot is a group. The weights are the frame fractions asynchronous
and 1 synchronous, where the station-to-station weight is 0, and the
synchronous phases are all downlink, so g3 is +0.0.

All randomness stays outside these kernels (numpy Generators in the
callers), so replays are bit-exact.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .params import PHASE_DOWNLINK, c_m, frame_weights, v_m


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
    x2e: np.ndarray         # x^(alpha (2 - eps))
    x2a: np.ndarray         # x^(2 alpha)
    base: np.ndarray        # the own-cell and noise sum of g1
    # g1's weight of the foreign pilot power I_t: x^(alpha (1 - eps)) / C_M^2
    # times the pilot-noise amplitude n_p + sigma2 x^alpha / (p_d omega)
    i_coef: np.ndarray
    pilot: np.ndarray       # g2's pilot-contamination weight, (M - 1) x^2a/C_M^2


def own_cell(p) -> float:
    """g1's noise-free own-cell sum, (V_M - 1)/C_M^2 + n_p/C_M^2, the floor
    of g1 at every serving distance."""
    c = c_m(p.m)
    c2 = c * c
    return (v_m(p.m) - 1.0) / c2 + p.n_p / c2


def user_terms(x, p) -> UserTerms:
    """The x-only terms of the inverse SINR at serving distances x."""
    alpha, eps, sigma2, omega = p.alpha, p.eps, p.sigma2, p.omega
    n_p, p_d, p_u = p.n_p, p.p_d, p.p_u
    c = c_m(p.m)
    c2 = c * c
    xa = x ** alpha
    x1e = x ** (alpha * (1.0 - eps))
    x2e = x ** (alpha * (2.0 - eps))
    x2a = x ** (2.0 * alpha)
    base = (own_cell(p)
            + sigma2 * xa / (p_d * omega * c2)
            + sigma2 * x1e / (p_u * c2 * omega ** (1.0 - eps))
            + sigma2 ** 2 * x2e / (n_p * p_u * p_d * c2 * omega ** (2.0 - eps)))
    noise_amp = n_p + sigma2 * xa / (p_d * omega)
    return UserTerms(xa, x2e, x2a, base, (x1e / c2) * noise_amp,
                     ((p.m - 1.0) / c2) * x2a)


def amp(t: UserTerms, ratio):
    """g2's and g3's amplitude at Delta's ratio delta1 (or its mean Q1)."""
    return t.xa + t.x2e * ratio


def beam_scale(a, p):
    """g2's scale of its beamforming sum, n_p a / C_M^2."""
    c = c_m(p.m)
    return (p.n_p / (c * c)) * a


def uplink_scale(a, p):
    """g3's scale of its foreign-uplink sum, a p_u / (p_d omega^eps C_M^2)."""
    c = c_m(p.m)
    return a * p.p_u / (p.p_d * p.omega ** p.eps * (c * c))


def pilot_noise(p) -> float:
    """delta1's pilot-noise term, sigma2 omega^(eps-1) / (n_p p_u)."""
    return p.sigma2 * p.omega ** (p.eps - 1.0) / (p.n_p * p.p_u)


def bs_gain(p) -> float:
    """The station-to-station weight of the foreign pilot power, p_d n_p
    w_bs / (p_u omega^-eps n_tot^2), w_bs the ``bs`` frame weight."""
    return (p.p_d * p.n_p * frame_weights(p).bs
            / (p.p_u * p.omega ** (-p.eps) * p.n_tot ** 2))


def _user_cells(valid, p):
    """The cell of every user: each valid cell in order, K = n_p times."""
    return np.flatnonzero(valid).repeat(p.n_p)


def sinr_batch(tag_user, d_serv, d_bu, d_uu, deltas, foreign, serv_pow,
               valid, phases, p):
    """Inverse-SINR decomposition (g1, g2, g3) for every tagged user of one
    realization.

    tag_user: (nt,) flat indices of the tagged users, all of one cell.
    deltas, foreign, serv_pow: the three outputs of :func:`all_deltas`.
    valid: (n_bs,) bool cell validity. phases: (n_bs,) int8 phase of
    every cell as seen by the tagged cell (its own entry is ignored).
    """
    alpha = p.alpha
    fw = frame_weights(p)
    t = user_terms(d_serv[tag_user], p)
    user_cell = _user_cells(valid, p)
    tag_cell = user_cell[tag_user[0]]
    n_bs, n_groups = foreign.shape
    tag_group = tag_user % n_groups                                # (nt,)

    # 1/Delta_{jk} summed over the users k of each pilot group of cell j:
    # the valid cells' users, K per cell, run group-last
    inv_delta_group = np.zeros((n_bs, n_groups))
    inv_delta_group[valid] = (1.0 / deltas).reshape(
        -1, fw.users, n_groups).sum(axis=1)

    # the foreign pilot power at the tagged station, in each tagged user's
    # group: g1's channel-estimation error and Delta's ratio delta1
    foreign_t = foreign[tag_cell, tag_group]
    g1 = t.base + t.i_coef * foreign_t
    a = amp(t, foreign_t + pilot_noise(p))

    chi_dd = ((phases == PHASE_DOWNLINK) & (np.arange(n_bs) != tag_cell)
              & valid)                                             # (n_bs,)

    r_jl = d_bu[:, tag_user].T                                    # (nt, n_bs)
    beam = (r_jl ** (-alpha) * chi_dd).sum(axis=1)
    pil = (inv_delta_group.T[tag_group] * chi_dd
           * r_jl ** (-2.0 * alpha)).sum(axis=1)
    g2 = beam_scale(a, p) * beam + t.pilot * fw.f_w * deltas[tag_user] * pil

    um = (user_cell != tag_cell) & (phases[user_cell] != PHASE_DOWNLINK)
    d_ut = np.where(um, d_uu.T, 1.0)
    # masking P_i before the product gives the same +0.0 terms
    g3 = uplink_scale(a, p) * ((serv_pow * um)[None, :]
                               * d_ut ** (-alpha)).sum(axis=1)
    return g1, g2, g3


def all_deltas(d_serv, d_bu, d_bb, valid, p):
    """Delta of every user at its own station; the (n_bs, n_groups)
    foreign pilot power table I, in units of p_u omega^(1-eps): at station
    j in group g, f_w sum r_i^(alpha eps) d_ji^-alpha over the group's users
    i of other cells plus ``bs_gain`` sum d_jj'^-alpha over the other
    stations; and r_i^(alpha eps) of every user i, which g3 reads too.
    Delta = p_u omega^(1-eps) (x^(-alpha(1-eps)) + I[cell, group]) +
    sigma2/n_p."""
    alpha, eps = p.alpha, p.eps
    fw = frame_weights(p)
    n_bs = d_bb.shape[0]
    n_groups = p.n_p // fw.users
    cells = np.arange(n_bs)
    user_cell = _user_cells(valid, p)

    serv_pow = d_serv ** (alpha * eps)
    w = serv_pow[None, :] * d_bu ** (-alpha)                  # (n_bs, nu)
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
    return deltas.reshape(-1), foreign, serv_pow


def cell_sinr(net, cell, phases, p):
    """(g1, g2, g3) of the K users of valid cell ``cell`` of the
    realization ``net`` (a :class:`~mimosg.geometry.NetworkRealization`),
    in slot order: the distance tables and ``all_deltas`` over every user
    of the valid cells, then ``sinr_batch`` on the cell's users."""
    valid = net.valid
    # the users of the valid cells, flattened in the kernels' layout
    pos = net.users[valid].reshape(-1, 2)
    d_serv = net.serving[valid].reshape(-1)
    d_bu = pairwise_dist(net.bs, pos)
    d_bb = pairwise_dist(net.bs, net.bs)
    deltas, foreign, serv_pow = all_deltas(d_serv, d_bu, d_bb, valid, p)
    # a valid cell holds exactly K users, so the cell tags the K after
    # those of the valid cells before it
    tag_user = p.n_p * int(valid[:cell].sum()) + np.arange(p.n_p)
    d_uu = pairwise_dist(pos, pos[tag_user])                      # (nu, nt)
    return sinr_batch(tag_user, d_serv, d_bu, d_uu, deltas, foreign,
                      serv_pow, valid, phases, p)
