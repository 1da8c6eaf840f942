"""Hot numeric kernels of the Monte Carlo engine, in vectorised numpy.

Distances (``nearest_bs``, ``pairwise_dist``) are formed one coordinate
column at a time as dx*dx + dy*dy. ``nearest_bs`` works station-major:
its (n_bs, n_pts) matrix has the points on the long, contiguous axis, and
the search reduces over the short station axis.

``all_deltas`` and ``sinr_batch`` evaluate the same sums as the scalar
one-user reference in ``tests/reference_sinr.py``, batched over all users
of a realization; the kernel-parity tests pin the two against each other.
They take the realization's arrays and the
:class:`~mimosg.params.SystemParams` whole:

    all_deltas(d_serv, user_cell, pilot_slot, d_bu, d_bb, valid, p)
    sinr_batch(tag_user, pilot_slot, d_serv, user_cell, d_bu, d_bb, d_uu,
               deltas, valid, phases, p)

and derive everything else (tagged distances and the tagged cell, the
1/Delta tables, C_M^2 and V_M) themselves. The frame parts ``n_u`` and
``n_d`` they use are properties of the parameter set, derived from
``n_tot``, ``n_p`` and ``z``. ``phases`` is the one phase draw of the
realization, shape (n_bs,). ``perfbench/run.py --trace 1`` times each
kernel inside a full Monte Carlo run.

All randomness stays outside these kernels (numpy Generators in the
callers), so replays are bit-exact.
"""
from __future__ import annotations

import numpy as np

from .params import c_m, v_m


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
#
# Index conventions: users of all valid cells are flattened into one axis
# ("nu"); the tagged users ("nt") are the users of one cell, given by
# their indices into it. d_bu[j, i] is the distance from base station j
# to user i; d_uu[i, t] from user i to tagged user t. phase codes:
# 0 pilot, 1 uplink, 2 downlink. The first argument of each kernel is
# the per-user array its work scales with (all users for all_deltas, the
# tagged users for sinr_batch), so a wrapper can size a call from
# len(args[0]) alone; the benchmark's tracer counts users that way.
# ---------------------------------------------------------------------------

def sinr_batch(tag_user, pilot_slot, d_serv, user_cell, d_bu, d_bb, d_uu,
               deltas, valid, phases, p):
    """Inverse-SINR decomposition (g1, g2, g3) for every tagged user of one
    realization.

    tag_user: (nt,) flat indices of the tagged users, all of one cell.
    deltas: (nu,) output of :func:`all_deltas`. valid: (n_bs,) bool cell
    validity. phases: (n_bs,) int8 phase of every cell as seen by the
    tagged cell (its own entry is ignored).
    """
    alpha, eps, sigma2, omega = p.alpha, p.eps, p.sigma2, p.omega
    n_p, n_u, n_d, n_tot, p_d, p_u = p.n_p, p.n_u, p.n_d, p.n_tot, p.p_d, p.p_u
    c = c_m(p.m)
    c2 = c * c
    vm = v_m(p.m)
    x = d_serv[tag_user]
    tag_cell = user_cell[tag_user[0]]
    nt = x.shape[0]
    n_bs = d_bb.shape[0]

    # inv_delta_pilot[j, k] = 1/Delta_{jk}; its row sums sum_k' 1/Delta_{jk'}
    inv_delta_pilot = np.zeros((n_bs, p.k))
    inv_delta_pilot[user_cell, pilot_slot] = 1.0 / deltas

    xa = x ** alpha
    x1e = x ** (alpha * (1.0 - eps))
    x2e = x ** (alpha * (2.0 - eps))
    x2a = x ** (2.0 * alpha)

    base = ((vm - 1.0) / c2 + n_p / c2
            + sigma2 * xa / (p_d * omega * c2)
            + sigma2 * x1e / (p_u * c2 * omega ** (1.0 - eps))
            + sigma2 ** 2 * x2e / (n_p * p_u * p_d * c2 * omega ** (2.0 - eps)))

    delta_t = deltas[tag_user]
    delta1 = (omega ** (eps - 1.0) / p_u) * delta_t - x ** (-alpha * (1.0 - eps))
    amp = xa + x2e * delta1
    noise_amp = n_p + sigma2 * xa / (p_d * omega)
    f_w = (n_p + n_u) / n_tot ** 2

    serv_ae = d_serv ** (alpha * eps)
    cells = np.arange(n_bs)
    other_u = user_cell != tag_cell                                # (nu,)
    other_c = (cells != tag_cell) & valid                          # (n_bs,)

    w_lu = d_bu[tag_cell] ** (-alpha)                              # (nu,)
    if p.sync:
        same_pilot = pilot_slot[None, :] == pilot_slot[tag_user][:, None]
        cross = (serv_ae * w_lu * (other_u & same_pilot)).sum(axis=1)
        g1 = base + (x1e / c2) * noise_amp * cross
    else:
        cross = (serv_ae * w_lu * other_u).sum()
        # the zero self-distance of the tagged cell must not poison the sum
        d_lj = np.where(other_c, d_bb[tag_cell], 1.0)
        bsbs = (d_lj ** (-alpha) * other_c).sum()
        g1 = base + (x1e / c2) * noise_amp * (
            f_w * cross + p_d * n_p * n_d / (p_u * omega ** (-eps) * n_tot ** 2) * bsbs)

    r_jl = d_bu[:, tag_user].T                                    # (nt, n_bs)
    if p.sync:
        beam = (r_jl ** (-alpha) * other_c).sum(axis=1)
        pil = (inv_delta_pilot[:, pilot_slot[tag_user]].T * other_c
               * r_jl ** (-2.0 * alpha)).sum(axis=1)
        g2 = (n_p / c2) * amp * beam + ((p.m - 1.0) / c2) * x2a * delta_t * pil
        g3 = np.zeros(nt)
    else:
        inv_delta_sum = inv_delta_pilot.sum(axis=1)
        chi_dd = (phases == 2) & other_c
        beam = (r_jl ** (-alpha) * chi_dd).sum(axis=1)
        pil = (inv_delta_sum * chi_dd * r_jl ** (-2.0 * alpha)).sum(axis=1)
        g2 = ((n_p / c2) * amp * beam
              + ((p.m - 1.0) / c2) * x2a * f_w * delta_t * pil)
        um = other_u & (phases[user_cell] <= 1)                    # (nu,)
        d_ut = np.where(um, d_uu.T, 1.0)
        # masking P_i before the product gives the same +0.0 terms
        g3 = (amp * p_u / (p_d * omega ** eps * c2)
              * ((serv_ae * um)[None, :] * d_ut ** (-alpha)).sum(axis=1))
    return g1, g2, g3


# ---------------------------------------------------------------------------
# per-cell delta accumulation
# ---------------------------------------------------------------------------

def all_deltas(d_serv, user_cell, pilot_slot, d_bu, d_bb, valid, p):
    """Observation variance Delta for every user at its own base station."""
    alpha, eps, sigma2, omega = p.alpha, p.eps, p.sigma2, p.omega
    n_p, n_u, n_d, n_tot, p_d, p_u = p.n_p, p.n_u, p.n_d, p.n_tot, p.p_d, p.p_u
    nu = d_serv.shape[0]
    n_bs = d_bb.shape[0]
    cells = np.arange(n_bs)

    pwr = p_u * omega ** (1.0 - eps)
    pwr_beta = pwr * d_serv ** (alpha * eps)                   # P_i * omega
    w = pwr_beta[None, :] * d_bu ** (-alpha)       # P_i' * beta_{j i'}, (n_bs, nu)
    # a user's own station takes no part in its sums: +0.0 there, the
    # value a mask multiply gives
    w[user_cell, np.arange(nu)] = 0.0
    own = pwr * d_serv ** (-alpha * (1.0 - eps))

    if p.sync:
        # per pilot slot: sum over co-pilot users of other cells
        deltas = np.empty(nu)
        for s in range(p.k):
            rows = pilot_slot == s
            contrib = w[:, rows].sum(axis=1)                          # (n_bs,)
            deltas[rows] = own[rows] + contrib[user_cell[rows]] + sigma2 / n_p
        return deltas
    cross = w.sum(axis=1)                                               # (n_bs,)
    other_bs = (cells[None, :] != cells[:, None]) & valid[None, :]
    d_off = np.where(other_bs, d_bb, 1.0)  # keep the zero diagonal out
    bsterm = (omega * d_off ** (-alpha) * other_bs).sum(axis=1)
    per_cell = ((n_p + n_u) / n_tot ** 2 * cross
                + p_d * n_p * n_d / n_tot ** 2 * bsterm)
    return own + per_cell[user_cell] + sigma2 / n_p
