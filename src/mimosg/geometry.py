"""Poisson network sampling, user association and the distance law.

The paper's three conditional serving-distance laws are one law, the
truncated Rayleigh density 2*pi*lam*r*exp(-pi*lam*r^2) restricted to an
interval (lo, hi), on three supports:

* a user's serving distance, with an exclusion disk of radius r0:
  (r0, inf);
* the same given the distance r2 to another base station: (r0, r2),
  because the serving station is the nearest one;
* a foreign user's serving distance given the distance r between the two
  users and the tagged user's own serving distance x: (max(r0, x - r),
  x + r) by the triangle inequalities.

``trunc_rayleigh_cdf`` and ``trunc_rayleigh_sample`` take the support as
(lo, hi); `pdf-check` and acceptance criterion 1 check the sampler
against the CDF on each of the three. The sampler inverts the closed-form
CDF, with no rejection step, and both are stable in the far tail
(expm1/log1p forms).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, RealizationError
from .params import SystemParams

log = logging.getLogger(__name__)

ATTEMPTS_PER_CELL = 10_000  # candidate points per station (build_network)


# ---------------------------------------------------------------------------
# the truncated Rayleigh law
# ---------------------------------------------------------------------------

def trunc_rayleigh_cdf(r, lam: float, lo, hi):
    r = np.asarray(r, dtype=float)
    q = math.pi * lam
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    frac = (np.expm1(-q * (r ** 2 - lo ** 2))
            / np.expm1(-q * (hi ** 2 - lo ** 2)))
    return np.clip(np.where(r <= lo, 0.0, np.where(r >= hi, 1.0, frac)), 0.0, 1.0)


def trunc_rayleigh_sample(lam: float, lo, hi, rng: np.random.Generator,
                          size):
    q = math.pi * lam
    u = rng.random(size)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    span = u * (-np.expm1(-q * (hi ** 2 - lo ** 2)))
    return np.sqrt(lo ** 2 - np.log1p(-span) / q)


# ---------------------------------------------------------------------------
# network realization
# ---------------------------------------------------------------------------

def sample_hppp(lam: float, window: float,
                rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson process of density lam on a window x window
    square: an (n, 2) array of points in km."""
    if lam < 0:
        raise DomainError(f"lambda must be >= 0, got {lam!r}")
    if window <= 0:
        raise DomainError(f"window side must be > 0, got {window!r}")
    n = rng.poisson(lam * window * window)
    return rng.random((n, 2)) * window


@dataclass
class NetworkRealization:
    """One sampled geometry: base stations, per-cell users, associations.

    ``users[j]`` holds exactly K user coordinates for every valid cell;
    rows of invalid cells (could not furnish K users beyond r0 inside
    their Voronoi cell within the attempt budget) are NaN. Association is
    by construction: user (j, k) is served by base station j, its nearest.
    """

    bs: np.ndarray               # (n_bs, 2)
    users: np.ndarray            # (n_bs, K, 2)
    serving: np.ndarray          # (n_bs, K) distance to own BS
    valid: np.ndarray            # (n_bs,) bool
    window: float

    @property
    def n_bs(self) -> int:
        return self.bs.shape[0]


def build_network(params: SystemParams, window: float,
                  rng: np.random.Generator) -> NetworkRealization:
    """Sample base stations and populate each cell with K eligible users.

    Users are drawn uniformly over the window and kept for their nearest
    cell when farther than r0 from it, which is distribution-identical to
    per-cell uniform sampling over the Voronoi polygon minus the exclusion
    disk. Fill rule: each cell takes the first K eligible points in draw
    order (batch after batch, and by position within a batch); seeded
    replays depend on this order. Cells still short of users after
    ATTEMPTS_PER_CELL points per station are flagged invalid and excluded
    from measurement.
    """
    bs = sample_hppp(params.lam, window, rng)
    if len(bs) == 0:
        raise RealizationError("no base stations fell in the window")
    n_bs = bs.shape[0]
    k = params.n_p

    users = np.full((n_bs, k, 2), np.nan)
    serving = np.full((n_bs, k), np.nan)
    fill = np.zeros(n_bs, dtype=np.int64)
    # flat views: cell j's user slots start at j * k
    flat_users = users.reshape(-1, 2)
    flat_serving = serving.reshape(-1)
    first_slot = np.arange(n_bs) * k

    # One batch of points for the whole window: a single station-major
    # nearest-station search gives every point its cell.
    batch = max(1024, 8 * n_bs * k)
    budget = ATTEMPTS_PER_CELL * n_bs
    drawn = 0
    while drawn < budget and (fill < k).any():
        pts = rng.random((batch, 2))
        pts *= window
        drawn += batch
        idx, dist = _kernels.nearest_bs(pts, bs)
        keep = (dist > params.r0).nonzero()[0]
        # Eligible points grouped by cell, draw order kept within a cell (a
        # stable radix sort: idx comes in the narrowest integer type that
        # holds a cell index). Each cell takes the head of its group, as many
        # points as it has free slots, so the taken points form one
        # contiguous run per cell in both the sorted order and the slots.
        cand = idx[keep]
        order = keep[cand.argsort(kind="stable")]
        per_cell = np.bincount(cand, minlength=n_bs)
        take = np.minimum(per_cell, k - fill)
        run_end = take.cumsum()
        run_start = run_end - take
        run = np.arange(run_end[-1])
        src = order[run + (per_cell.cumsum() - per_cell - run_start).repeat(take)]
        dst = run + (first_slot + fill - run_start).repeat(take)
        flat_users[dst] = pts[src]
        flat_serving[dst] = dist[src]
        fill += take

    valid = fill >= k
    if not valid.all():
        log.info("excluded %d/%d cells that could not furnish %d users",
                 int((~valid).sum()), n_bs, k)
        users[~valid] = np.nan
        serving[~valid] = np.nan
    return NetworkRealization(bs=bs, users=users, serving=serving,
                              valid=valid, window=window)
