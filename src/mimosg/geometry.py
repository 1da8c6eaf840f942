"""Poisson network sampling, user association and conditional distance laws.

The three distance distributions used throughout are all truncated
Rayleigh-type laws of the form 2*pi*lam*r*exp(-pi*lam*r^2) restricted to an
interval (lo, hi):

* serving distance of a user with an exclusion disk of radius r0: support
  (r0, inf);
* serving distance conditioned on the distance r2 to another base station:
  support (r0, r2), because the serving station is the nearest one;
* serving distance of a foreign user conditioned on the distance r between
  the two users and the tagged user's own serving distance x: support
  (max(r0, x - r), x + r) by the triangle inequalities.

Samplers invert the closed-form CDFs; no rejection sampling in the hot
path. Everything is stable in the far tail (expm1/log1p forms).
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


# ---------------------------------------------------------------------------
# truncated Rayleigh core
# ---------------------------------------------------------------------------

def _trunc_mass(lam: float, lo, hi):
    """P(lo < R < hi) for the untruncated law, computed stably.

    An infinite upper edge needs no special casing: expm1(-inf) = -1.
    """
    q = math.pi * lam
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return np.exp(-q * lo ** 2) * (-np.expm1(-q * (hi ** 2 - lo ** 2)))


def trunc_rayleigh_pdf(r, lam: float, lo, hi):
    r = np.asarray(r, dtype=float)
    q = math.pi * lam
    dens = 2.0 * q * r * np.exp(-q * r ** 2) / _trunc_mass(lam, lo, hi)
    return np.where((r > lo) & (r < hi), dens, 0.0)


def trunc_rayleigh_cdf(r, lam: float, lo, hi):
    r = np.asarray(r, dtype=float)
    q = math.pi * lam
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    frac = (np.expm1(-q * (r ** 2 - lo ** 2))
            / np.expm1(-q * (hi ** 2 - lo ** 2)))
    return np.clip(np.where(r <= lo, 0.0, np.where(r >= hi, 1.0, frac)), 0.0, 1.0)


def trunc_rayleigh_sample(lam: float, lo, hi, rng: np.random.Generator,
                          size=None):
    q = math.pi * lam
    u = rng.random(size)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    span = u * (-np.expm1(-q * (hi ** 2 - lo ** 2)))
    return np.sqrt(lo ** 2 - np.log1p(-span) / q)


# ---------------------------------------------------------------------------
# the three laws
# ---------------------------------------------------------------------------

def serving_pdf(r, lam: float, r0: float):
    """Density of the nearest-base-station distance outside the r0 disk."""
    if r0 < 0:
        raise DomainError(f"r0 must be >= 0, got {r0!r}")
    return trunc_rayleigh_pdf(r, lam, r0, np.inf)


def serving_cdf(r, lam: float, r0: float):
    return trunc_rayleigh_cdf(r, lam, r0, np.inf)


def serving_sample(lam: float, r0: float, rng: np.random.Generator, size=None):
    return trunc_rayleigh_sample(lam, r0, np.inf, rng, size)


def serving_given_bs_pdf(r1, r2, lam: float, r0: float):
    """Serving-distance density given the distance r2 to another station."""
    if np.any(np.asarray(r2) <= r0):
        raise DomainError(f"conditioning distance must exceed r0={r0!r}")
    return trunc_rayleigh_pdf(r1, lam, r0, r2)


def serving_given_bs_cdf(r1, r2, lam: float, r0: float):
    if np.any(np.asarray(r2) <= r0):
        raise DomainError(f"conditioning distance must exceed r0={r0!r}")
    return trunc_rayleigh_cdf(r1, lam, r0, r2)


def serving_given_bs_sample(r2, lam: float, r0: float,
                            rng: np.random.Generator, size=None):
    if np.any(np.asarray(r2) <= r0):
        raise DomainError(f"conditioning distance must exceed r0={r0!r}")
    return trunc_rayleigh_sample(lam, r0, r2, rng, size)


def _pair_support(r, x, r0: float):
    r = np.asarray(r, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(x <= r0):
        raise DomainError(f"tagged serving distance must exceed r0={r0!r}")
    if np.any(r <= 0):
        raise DomainError("user-to-user distance must be positive")
    return np.maximum(r0, x - r), x + r


def serving_given_user_pair_pdf(s, r, x, lam: float, r0: float):
    """Foreign user's serving-distance density given the user-to-user
    distance r and the tagged user's serving distance x."""
    lo, hi = _pair_support(r, x, r0)
    return trunc_rayleigh_pdf(s, lam, lo, hi)


def serving_given_user_pair_cdf(s, r, x, lam: float, r0: float):
    lo, hi = _pair_support(r, x, r0)
    return trunc_rayleigh_cdf(s, lam, lo, hi)


def serving_given_user_pair_sample(r, x, lam: float, r0: float,
                                   rng: np.random.Generator, size=None):
    lo, hi = _pair_support(r, x, r0)
    return trunc_rayleigh_sample(lam, lo, hi, rng, size)


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

    @property
    def k(self) -> int:
        return self.users.shape[1]


def build_network(params: SystemParams, window: float,
                  rng: np.random.Generator,
                  attempts_per_cell: int = 10_000) -> NetworkRealization:
    """Sample base stations and populate each cell with K eligible users.

    Users are drawn uniformly over the window and kept for their nearest
    cell when farther than r0 from it, which is distribution-identical to
    per-cell uniform sampling over the Voronoi polygon minus the exclusion
    disk. Fill rule: each cell takes the first K eligible points in draw
    order (batch after batch, and by position within a batch); seeded
    replays depend on this order. Cells still short of users after the
    attempt budget are flagged invalid and excluded from measurement.
    """
    bs = sample_hppp(params.lam, window, rng)
    if len(bs) == 0:
        raise RealizationError("no base stations fell in the window")
    n_bs = bs.shape[0]
    k = params.k

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
    budget = attempts_per_cell * n_bs
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
