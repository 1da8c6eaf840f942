"""Hot numeric kernels: numba-jitted with a pure-numpy fallback.

The numba path is used when numba is importable; the numpy path runs
otherwise, or when the environment variable ``MIMOSG_NO_NUMBA=1`` is set
before import. Without numba installed the numpy path is the only one
that runs, and it is the one the benchmark measures.

Distances (``nearest_bs``, ``pairwise_dist``) are formed one coordinate
column at a time as dx*dx + dy*dy, the same arithmetic as the numba loop.
The SINR and delta kernels sum in a different order on the two paths and
agree to about 1e-12 relative.
``perfbench/run.py --trace 1`` times each kernel inside a full Monte
Carlo run.

All randomness stays outside these kernels (numpy Generators in the
callers), so for a given path replays are bit-exact.
"""
from __future__ import annotations

import math
import os

import numpy as np

_env = os.environ.get("MIMOSG_NO_NUMBA", "").strip().lower()
_DISABLED = _env not in ("", "0", "false", "no")

try:
    if _DISABLED:
        raise ImportError("numba disabled via MIMOSG_NO_NUMBA")
    from numba import njit
    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        if args and callable(args[0]):
            return args[0]
        return wrap

USE_NUMBA = HAVE_NUMBA


# ---------------------------------------------------------------------------
# nearest base station
# ---------------------------------------------------------------------------

def _sq_dist(a, b):
    """Squared distances |a_i - b_j|^2, one coordinate column at a time:
    dx*dx + dy*dy in that order, the same sum the numba loop forms."""
    d2 = a[:, 0:1] - b[:, 0]
    dy = a[:, 1:2] - b[:, 1]
    d2 *= d2
    dy *= dy
    d2 += dy
    return d2


def _nearest_bs_np(pts, bs):
    d2 = _sq_dist(pts, bs)
    idx = np.argmin(d2, axis=1)
    dist = np.sqrt(d2[np.arange(pts.shape[0]), idx])
    return idx, dist


@njit(cache=True)
def _nearest_bs_nb(pts, bs):  # pragma: no cover - exercised via dispatch
    n = pts.shape[0]
    m = bs.shape[0]
    idx = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.float64)
    for i in range(n):
        best = 1e300
        bj = -1
        for j in range(m):
            dx = pts[i, 0] - bs[j, 0]
            dy = pts[i, 1] - bs[j, 1]
            d2 = dx * dx + dy * dy
            if d2 < best:
                best = d2
                bj = j
        idx[i] = bj
        dist[i] = math.sqrt(best)
    return idx, dist


def nearest_bs(pts: np.ndarray, bs: np.ndarray):
    """Index of and distance to the nearest base station for each point."""
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    bs = np.ascontiguousarray(bs, dtype=np.float64)
    if USE_NUMBA:
        return _nearest_bs_nb(pts, bs)
    return _nearest_bs_np(pts, bs)


def pairwise_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix |a_i - b_j|, shape (len(a), len(b))."""
    d2 = _sq_dist(a, b)
    return np.sqrt(d2, out=d2)


# ---------------------------------------------------------------------------
# batched inverse-SINR accumulation
#
# Index conventions: users of all valid cells are flattened into one axis
# ("nu"); tagged users are a subset ("nt"). d_bu[j, i] is the distance from
# base station j to user i; d_uu[i, t] from user i to tagged user t.
# phase codes: 0 pilot, 1 uplink, 2 downlink.
# ---------------------------------------------------------------------------

def _sinr_batch_np(x, tag_user, tag_cell, pilot_slot, d_serv, user_cell,
                   d_bu, d_bb, d_uu, deltas, inv_delta_sum, inv_delta_pilot,
                   cell_valid, phases, sync, alpha, eps, n_p, n_u, n_d,
                   n_tot, c2, vm, mm, p_d, p_u, omega, sigma2):
    """Vectorised inverse-SINR terms for all tagged users of one realization.

    phases: (nt, n_bs) int8 phase of every cell as seen by each tagged
    user's observer cell (entries for the observer itself are ignored).
    inv_delta_sum[j] = sum_k' 1/Delta_{jk'}; inv_delta_pilot[j, k] = 1/Delta_{jk}.
    """
    nt = x.shape[0]
    n_bs = d_bb.shape[0]
    valid = cell_valid.astype(bool)

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
    other_u = (user_cell[None, :] != tag_cell[:, None])          # (nt, nu)
    other_c = (cells[None, :] != tag_cell[:, None]) & valid[None, :]

    w_lu = d_bu[tag_cell, :] ** (-alpha)                          # (nt, nu)
    if sync:
        same_pilot = pilot_slot[None, :] == pilot_slot[tag_user][:, None]
        cross = np.sum(serv_ae[None, :] * w_lu * (other_u & same_pilot), axis=1)
        g1 = base + (x1e / c2) * noise_amp * cross
    else:
        cross = np.sum(serv_ae[None, :] * w_lu * other_u, axis=1)
        # zero self-distances on the diagonal must not poison masked sums
        d_lj = np.where(other_c, d_bb[tag_cell, :], 1.0)
        bsbs = np.sum(d_lj ** (-alpha) * other_c, axis=1)
        g1 = base + (x1e / c2) * noise_amp * (
            f_w * cross + p_d * n_p * n_d / (p_u * omega ** (-eps) * n_tot ** 2) * bsbs)

    r_jl = d_bu[:, tag_user].T                                    # (nt, n_bs)
    if sync:
        beam = np.sum(r_jl ** (-alpha) * other_c, axis=1)
        pil = np.sum(inv_delta_pilot[:, pilot_slot[tag_user]].T * other_c
                     * r_jl ** (-2.0 * alpha), axis=1)
        g2 = (n_p / c2) * amp * beam + ((mm - 1.0) / c2) * x2a * delta_t * pil
        g3 = np.zeros(nt)
    else:
        chi_dd = (phases == 2) & other_c
        beam = np.sum(r_jl ** (-alpha) * chi_dd, axis=1)
        pil = np.sum(inv_delta_sum[None, :] * chi_dd * r_jl ** (-2.0 * alpha), axis=1)
        g2 = ((n_p / c2) * amp * beam
              + ((mm - 1.0) / c2) * x2a * f_w * delta_t * pil)
        chi_pu_user = phases[:, user_cell] <= 1                   # (nt, nu)
        um = other_u & chi_pu_user
        d_ut = np.where(um, d_uu.T, 1.0)
        g3 = (amp * p_u / (p_d * omega ** eps * c2)
              * np.sum(serv_ae[None, :] * (d_ut ** (-alpha)) * um, axis=1))
    return g1, g2, g3


@njit(cache=True)
def _sinr_batch_nb(x, tag_user, tag_cell, pilot_slot, d_serv, user_cell,
                   d_bu, d_bb, d_uu, deltas, inv_delta_sum, inv_delta_pilot,
                   cell_valid, phases, sync, alpha, eps, n_p, n_u, n_d,
                   n_tot, c2, vm, mm, p_d, p_u, omega, sigma2):  # pragma: no cover
    nt = x.shape[0]
    nu = d_serv.shape[0]
    n_bs = d_bb.shape[0]

    g1 = np.empty(nt)
    g2 = np.empty(nt)
    g3 = np.zeros(nt)
    f_w = (n_p + n_u) / (n_tot * n_tot)

    # hoist the power evaluations out of the pair loops
    serv_ae = d_serv ** (alpha * eps)
    w_uu = d_uu ** (-alpha)                 # (nu, nt)

    for t in range(nt):
        l = tag_cell[t]
        i = tag_user[t]
        xt = x[t]
        xa = xt ** alpha
        x1e = xt ** (alpha * (1.0 - eps))
        x2e = xt ** (alpha * (2.0 - eps))
        x2a = xt ** (2.0 * alpha)
        base = ((vm - 1.0) / c2 + n_p / c2
                + sigma2 * xa / (p_d * omega * c2)
                + sigma2 * x1e / (p_u * c2 * omega ** (1.0 - eps))
                + sigma2 * sigma2 * x2e
                / (n_p * p_u * p_d * c2 * omega ** (2.0 - eps)))
        dt = deltas[i]
        delta1 = (omega ** (eps - 1.0) / p_u) * dt - xt ** (-alpha * (1.0 - eps))
        amp = xa + x2e * delta1
        noise_amp = n_p + sigma2 * xa / (p_d * omega)

        w_l = d_bu[l] ** (-alpha)
        cross = 0.0
        g3sum = 0.0
        for u in range(nu):
            cu = user_cell[u]
            if cu == l or cell_valid[cu] == 0:
                continue
            if sync == 1 and pilot_slot[u] != pilot_slot[i]:
                continue
            cross += serv_ae[u] * w_l[u]
            if sync == 0 and phases[t, cu] <= 1:
                g3sum += serv_ae[u] * w_uu[u, t]

        bsbs = 0.0
        beam = 0.0
        pil = 0.0
        for j in range(n_bs):
            if j == l or cell_valid[j] == 0:
                continue
            if sync == 0:
                bsbs += d_bb[l, j] ** (-alpha)
            rjl_a = d_bu[j, i] ** (-alpha)
            if sync == 1:
                beam += rjl_a
                pil += inv_delta_pilot[j, pilot_slot[i]] * rjl_a * rjl_a
            elif phases[t, j] == 2:
                beam += rjl_a
                pil += inv_delta_sum[j] * rjl_a * rjl_a

        if sync == 1:
            g1[t] = base + (x1e / c2) * noise_amp * cross
            g2[t] = (n_p / c2) * amp * beam + ((mm - 1.0) / c2) * x2a * dt * pil
        else:
            g1[t] = base + (x1e / c2) * noise_amp * (
                f_w * cross
                + p_d * n_p * n_d / (p_u * omega ** (-eps) * n_tot * n_tot) * bsbs)
            g2[t] = ((n_p / c2) * amp * beam
                     + ((mm - 1.0) / c2) * x2a * f_w * dt * pil)
            g3[t] = (amp * p_u / (p_d * omega ** eps * c2)) * g3sum
    return g1, g2, g3


def sinr_batch(x, tag_user, tag_cell, pilot_slot, d_serv, user_cell, d_bu,
               d_bb, d_uu, deltas, inv_delta_sum, inv_delta_pilot, cell_valid,
               phases, sync, alpha, eps, n_p, n_u, n_d, n_tot, c2, vm, mm,
               p_d, p_u, omega, sigma2):
    """Inverse-SINR decomposition (g1, g2, g3) for every tagged user."""
    args = (np.ascontiguousarray(x, dtype=np.float64),
            np.ascontiguousarray(tag_user, dtype=np.int64),
            np.ascontiguousarray(tag_cell, dtype=np.int64),
            np.ascontiguousarray(pilot_slot, dtype=np.int64),
            np.ascontiguousarray(d_serv, dtype=np.float64),
            np.ascontiguousarray(user_cell, dtype=np.int64),
            np.ascontiguousarray(d_bu, dtype=np.float64),
            np.ascontiguousarray(d_bb, dtype=np.float64),
            np.ascontiguousarray(d_uu, dtype=np.float64),
            np.ascontiguousarray(deltas, dtype=np.float64),
            np.ascontiguousarray(inv_delta_sum, dtype=np.float64),
            np.ascontiguousarray(inv_delta_pilot, dtype=np.float64),
            np.ascontiguousarray(cell_valid, dtype=np.uint8),
            np.ascontiguousarray(phases, dtype=np.int8),
            1 if sync else 0,
            float(alpha), float(eps), float(n_p), float(n_u), float(n_d),
            float(n_tot), float(c2), float(vm), float(mm), float(p_d),
            float(p_u), float(omega), float(sigma2))
    if USE_NUMBA:
        return _sinr_batch_nb(*args)
    return _sinr_batch_np(*args)


# ---------------------------------------------------------------------------
# per-cell delta accumulation
# ---------------------------------------------------------------------------

def _deltas_np(d_serv, user_cell, pilot_slot, d_bu, d_bb, cell_valid, sync,
               alpha, eps, n_p, n_u, n_d, n_tot, p_d, p_u, omega, sigma2, k):
    nu = d_serv.shape[0]
    n_bs = d_bb.shape[0]
    valid = cell_valid.astype(bool)
    cells = np.arange(n_bs)

    pwr_beta = p_u * omega ** (1.0 - eps) * d_serv ** (alpha * eps)  # P_i * omega
    w = pwr_beta[None, :] * d_bu ** (-alpha)       # P_i' * beta_{j i'}, (n_bs, nu)
    own = p_u * omega ** (1.0 - eps) * d_serv ** (-alpha * (1.0 - eps))

    othercell = (user_cell[None, :] != cells[:, None])
    if sync:
        # per pilot slot: sum over co-pilot users of other cells
        deltas = np.empty(nu)
        for s in range(k):
            cols = pilot_slot == s
            contrib = np.sum(w[:, cols] * othercell[:, cols], axis=1)  # (n_bs,)
            rows = cols
            deltas[rows] = own[rows] + contrib[user_cell[rows]] + sigma2 / n_p
        return deltas
    cross = np.sum(w * othercell, axis=1)                               # (n_bs,)
    other_bs = (cells[None, :] != cells[:, None]) & valid[None, :]
    d_off = np.where(other_bs, d_bb, 1.0)  # keep the zero diagonal out
    bsterm = np.sum(omega * d_off ** (-alpha) * other_bs, axis=1)
    per_cell = ((n_p + n_u) / n_tot ** 2 * cross
                + p_d * n_p * n_d / n_tot ** 2 * bsterm)
    return own + per_cell[user_cell] + sigma2 / n_p


@njit(cache=True)
def _deltas_nb(d_serv, user_cell, pilot_slot, d_bu, d_bb, cell_valid, sync,
               alpha, eps, n_p, n_u, n_d, n_tot, p_d, p_u, omega, sigma2,
               k):  # pragma: no cover
    nu = d_serv.shape[0]
    n_bs = d_bb.shape[0]
    deltas = np.empty(nu)
    # per-user transmit-power-times-unit-path-gain factor, hoisted
    pwg = p_u * omega ** (1.0 - eps) * d_serv ** (alpha * eps)

    # accumulate per (cell, pilot slot) so each user pair is visited once
    acc = np.zeros((n_bs, k))
    for u in range(nu):
        cu = user_cell[u]
        s = pilot_slot[u]
        for j in range(n_bs):
            if j == cu:
                continue
            acc[j, s] += pwg[u] * d_bu[j, u] ** (-alpha)

    bsterm = np.zeros(n_bs)
    if sync == 0:
        for j in range(n_bs):
            tot = 0.0
            for j2 in range(n_bs):
                if j2 == j or cell_valid[j2] == 0:
                    continue
                tot += omega * d_bb[j, j2] ** (-alpha)
            bsterm[j] = tot

    for i in range(nu):
        ci = user_cell[i]
        own = p_u * omega ** (1.0 - eps) * d_serv[i] ** (-alpha * (1.0 - eps))
        if sync == 1:
            deltas[i] = own + acc[ci, pilot_slot[i]] + sigma2 / n_p
        else:
            cross = 0.0
            for s in range(k):
                cross += acc[ci, s]
            deltas[i] = (own + (n_p + n_u) / (n_tot * n_tot) * cross
                         + p_d * n_p * n_d / (n_tot * n_tot) * bsterm[ci]
                         + sigma2 / n_p)
    return deltas


def all_deltas(d_serv, user_cell, pilot_slot, d_bu, d_bb, cell_valid, sync,
               alpha, eps, n_p, n_u, n_d, n_tot, p_d, p_u, omega, sigma2, k):
    """Observation variance Delta for every user at its own base station."""
    args = (np.ascontiguousarray(d_serv, dtype=np.float64),
            np.ascontiguousarray(user_cell, dtype=np.int64),
            np.ascontiguousarray(pilot_slot, dtype=np.int64),
            np.ascontiguousarray(d_bu, dtype=np.float64),
            np.ascontiguousarray(d_bb, dtype=np.float64),
            np.ascontiguousarray(cell_valid, dtype=np.uint8),
            1 if sync else 0,
            float(alpha), float(eps), float(n_p), float(n_u), float(n_d),
            float(n_tot), float(p_d), float(p_u), float(omega), float(sigma2),
            int(k))
    if USE_NUMBA:
        return _deltas_nb(*args)
    return _deltas_np(*args)
