"""Monte Carlo estimation of coverage and rate, and the MC-vs-analytic
validation report.

Each trial samples a fresh network in a finite square window, computes the
conditional SINR of every tagged user exactly (realized distances, realized
observation variances, realized phase draws; interference truncated at the
window edge like the reference simulation setup), and reduces per-trial
means in a fixed deterministic order. The conditional SINR is already an
expectation over small-scale fading and precoding, so no fading is drawn;
the phase of each interfering cell is drawn once per realization
(``draw_phases``), given that the observer is in its downlink phase.
Per-trial generators are derived as SeedSequence((master_seed,
trial_index)), a documented stable scheme, so replays are bit-exact for
any worker count.

Measurement population: the users of the cell covering the window centre
(the zero-cell). A uniform point in the cell that covers a fixed location
is distributed exactly like the typical location, so these users' serving
distances follow the closed-form law the analytic engine integrates
against. Tagging every cell in the central region instead (one obvious
alternative) weights cells equally rather than by area and measurably
biases the serving-distance law (KS ~ 0.07 against the closed form), so it
is not used. The zero-cell must lie inside the margin-trimmed central
square or the trial is skipped; interference is summed from the full
window.

Uncertainty: Wilson 95% intervals for coverage, normal-approximation
intervals for the rate. The Wilson interval treats each trial's success
fraction as one binomial unit. The K tagged users of a trial share one
cell and are correlated, so a trial's fraction varies far less than a
Bernoulli variable: the reported half-width is 2.2-2.8 times the
estimator's actual 95% half-width (measured from the spread of per-trial
fractions; ROADMAP item 9). It is kept as is, because the benchmark gates
Monte Carlo values on it. The rate interval uses the per-trial standard
deviation and has no such excess. There is no external convention for
trial counts or uncertainty to match, so gates and intervals are defined
by this package's validation suite.
"""
from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .analytic import CoverageCurve, RateResult, _gamma_shape, coverage
from .errors import ConfigError, EstimationError, RealizationError
from .geometry import build_network
from .params import SystemParams, phase_probabilities

log = logging.getLogger(__name__)

_Z95 = 1.959963984540054

# Most elements the largest array of a trial may have at the expected
# station count n = lam window^2: the nearest-station block of
# ``build_network``, n x 8 n K distances (2**26 float64 values are 512 MiB).
# A window that asks for more is a typo, not a request.
MAX_TRIAL_BLOCK = 2 ** 26


@dataclass(frozen=True)
class McConfig:
    trials: int = 10_000
    seed: int = 1
    window: float = 4.0            # km, square side
    margin: float = 1.0            # km, border trim for tagged cells
    thresholds: tuple = ()         # linear SINR thresholds
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers!r}")
        if not math.isfinite(self.window):
            raise ConfigError(f"window must be finite, got {self.window!r}")
        if not 0 <= self.margin < self.window / 2:
            raise ConfigError(
                f"margin must lie in [0, window/2), got {self.margin!r}")
        thresholds = tuple(float(t) for t in self.thresholds)
        if not all(0.0 <= t < math.inf for t in thresholds):
            raise ConfigError(f"thresholds must be finite and >= 0, got "
                              f"{self.thresholds!r}")
        object.__setattr__(self, "thresholds", thresholds)


# phase codes of an interfering cell at the observed symbol
PHASE_PILOT, PHASE_UPLINK, PHASE_DOWNLINK = 0, 1, 2


def draw_phases(params: SystemParams, n_cells: int,
                rng: np.random.Generator) -> np.ndarray:
    """One categorical phase draw per interfering cell: an (n_cells,) int8
    array of PHASE_PILOT, PHASE_UPLINK and PHASE_DOWNLINK codes.

    The observer is in its downlink phase, so each independent interfering
    cell is in pilot/uplink/downlink with the probabilities of
    :func:`~mimosg.params.phase_probabilities`: (n_p, n_u, n_d) / n_tot
    asynchronous, and (0, 0, 1) synchronous, where every draw is downlink.
    """
    # the steps of rng.choice(3, size=n_cells, p=probs), without its
    # per-call checks of p: the same uniforms give the same draws
    cdf = np.array(phase_probabilities(params)).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(n_cells), side="right").astype(np.int8)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial stream: SeedSequence((seed, index))."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


def _flatten_users(net):
    """Flat arrays over users of valid cells."""
    valid_cells = net.valid.nonzero()[0]
    k = net.k
    user_cell = valid_cells.repeat(k)
    pilot_slot = np.arange(valid_cells.size * k) % k
    pos = net.users[valid_cells].reshape(-1, 2)
    d_serv = net.serving[valid_cells].reshape(-1)
    return user_cell, pilot_slot, pos, d_serv


def run_trial(params: SystemParams, cfg: McConfig, index: int):
    """One realization: returns (n_tagged, per-threshold success counts,
    sum of log2(1 + SINR) over tagged users)."""
    rng = trial_rng(cfg.seed, index)
    thr = np.asarray(cfg.thresholds, dtype=float)
    for _ in range(1000):
        try:
            net = build_network(params, cfg.window, rng)
            break
        except RealizationError:
            continue
    else:
        return 0, np.zeros(thr.size), 0.0

    centre = np.array([cfg.window / 2.0, cfg.window / 2.0])
    zero_cell = int(np.hypot(*(net.bs - centre).T).argmin())
    # the zero-cell must be valid, its station in the margin-trimmed core
    lo, hi = cfg.margin, cfg.window - cfg.margin
    bx, by = net.bs[zero_cell]
    if not (net.valid[zero_cell] and lo <= bx <= hi and lo <= by <= hi):
        return 0, np.zeros(thr.size), 0.0

    user_cell, pilot_slot, pos, d_serv = _flatten_users(net)
    d_bu = _kernels.pairwise_dist(net.bs, pos)
    d_bb = _kernels.pairwise_dist(net.bs, net.bs)

    p = params
    deltas, foreign = _kernels.all_deltas(d_serv, user_cell, d_bu, d_bb,
                                          net.valid, p)

    # a valid cell holds exactly K users, so the zero-cell tags K of them
    tag_user = (user_cell == zero_cell).nonzero()[0]

    # one phase draw per interfering cell, shared by the zero-cell's users
    phases = draw_phases(p, net.n_bs, rng)

    d_uu = _kernels.pairwise_dist(pos, pos[tag_user])  # (nu, nt)
    g1, g2, g3 = _kernels.sinr_batch(
        tag_user, pilot_slot, d_serv, user_cell, d_bu, d_uu, deltas,
        foreign, net.valid, phases, p)

    sinr = 1.0 / (g1 + g2 + g3)
    counts = (sinr[:, None] > thr[None, :]).sum(axis=0).astype(float)
    rate_sum = float(np.log2(1.0 + sinr).sum())
    return int(tag_user.size), counts, rate_sum


def _check_trial_size(params: SystemParams, cfg: McConfig) -> None:
    """ConfigError when a trial's nearest-station block would exceed
    MAX_TRIAL_BLOCK elements at the expected station count."""
    n_bs = params.lam * cfg.window * cfg.window   # inf, not OverflowError
    block = n_bs * 8.0 * n_bs * params.n_p
    if not block <= MAX_TRIAL_BLOCK:
        raise ConfigError(
            f"window of {cfg.window!r} km is too large: its {n_bs:.3g} "
            f"stations on average need a nearest-station block of "
            f"{block:.3g} elements per trial, more than {MAX_TRIAL_BLOCK}")


def _run_trials(params: SystemParams, cfg: McConfig):
    _check_trial_size(params, cfg)
    results = [None] * cfg.trials
    # a pool starts all its workers up front, so it gets no more than there
    # are trials or CPUs; the results do not depend on the count
    workers = min(cfg.workers, cfg.trials, os.cpu_count() or 1)
    if workers > 1:
        # imported here: a serial run does not pay for loading it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, cfg.trials // (workers * 8))
            for i, res in enumerate(pool.map(
                    _trial_star, ((params, cfg, i) for i in range(cfg.trials)),
                    chunksize=chunk)):
                results[i] = res
    else:
        step = max(1, cfg.trials // 10)
        for i in range(cfg.trials):
            results[i] = run_trial(params, cfg, i)
            if (i + 1) % step == 0:
                log.info("trials %d/%d", i + 1, cfg.trials)
    return results


def _trial_star(args):
    return run_trial(*args)


def wilson_interval(p_hat: np.ndarray, n: int):
    """95% Wilson score interval half-width (and shifted centre)."""
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    centre = (p_hat + z2 / (2.0 * n)) / denom
    half = _Z95 * np.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)) / denom
    return centre, half


def run_coverage_mc(params: SystemParams, cfg: McConfig) -> CoverageCurve:
    """Empirical coverage curve with 95% Wilson half-widths.

    The half-widths take each used trial as one binomial unit, but the K
    tagged users of a trial are correlated, so the half-widths are 2.2-2.8
    times the estimator's actual 95% half-width (see the module docstring;
    ROADMAP item 9).
    """
    if not cfg.thresholds:
        raise ConfigError("McConfig.thresholds must be non-empty")
    results = _run_trials(params, cfg)
    fracs = np.array([c / n for n, c, _ in results if n > 0])
    if fracs.size == 0:
        raise EstimationError("all trials degenerate: no eligible tagged users")
    p_hat = fracs.mean(axis=0)
    _, half = wilson_interval(p_hat, fracs.shape[0])
    return CoverageCurve(
        thresholds=np.asarray(cfg.thresholds, dtype=float), coverage=p_hat,
        mode=params.mode, method="monte-carlo", params=params,
        ci_half_width=half, trials_used=int(fracs.shape[0]))


def run_rate_mc(params: SystemParams, cfg: McConfig) -> RateResult:
    """Empirical cell-aggregate rate (n_p n_d / n_tot) E{log2(1 + SINR)}."""
    results = _run_trials(params, cfg)
    means = np.array([r / n for n, _, r in results if n > 0])
    if means.size == 0:
        raise EstimationError("all trials degenerate: no eligible tagged users")
    pref = params.n_p * params.n_d / params.n_tot
    rate = pref * float(means.mean())
    half = _Z95 * pref * float(means.std(ddof=1)) / math.sqrt(means.size) \
        if means.size > 1 else float("inf")
    return RateResult(rate=rate, method="monte-carlo", ci_half_width=half,
                      trials_used=int(means.size))


@dataclass
class ValidationReport:
    thresholds: np.ndarray
    analytic: np.ndarray
    mc: np.ndarray
    mc_half_width: np.ndarray
    abs_dev: np.ndarray
    worst_dev: float
    gate: float
    passed: bool
    mode: str
    n_shape: int
    trials: int
    trials_used: int      # trials whose zero-cell gave tagged users
    trials_skipped: int   # no tagged users, e.g. zero-cell outside the margin
    analytic_clamped: int  # analytic values clamped into [0, 1]

    def format_table(self) -> str:
        lines = ["threshold_db analytic mc mc_ci95 abs_dev"]
        for t, a, m, h, d in zip(self.thresholds, self.analytic, self.mc,
                                 self.mc_half_width, self.abs_dev):
            tdb = 10.0 * math.log10(t) if t > 0 else float("-inf")
            lines.append(f"{tdb:+8.2f} {a:.6f} {m:.6f} {h:.6f} {d:.6f}")
        lines.append(f"worst_abs_dev {self.worst_dev:.6f} "
                     f"gate {self.gate:.6f} "
                     f"{'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        doc = {_JSON_NAMES.get(k, k): v.tolist() if isinstance(v, np.ndarray)
               else v for k, v in vars(self).items()}
        doc["note"] = ("gate, trial count and intervals are conventions of "
                       "this validation suite")
        return doc


# JSON names of the ValidationReport fields that differ from them
_JSON_NAMES = {"mc": "monte_carlo", "mc_half_width": "mc_ci95_half_width",
               "abs_dev": "abs_deviation", "worst_dev": "worst_abs_deviation"}


def validate(params: SystemParams, cfg: McConfig, gate: float,
             n_shape: int | None = None) -> ValidationReport:
    """Run both engines on the same thresholds and compare."""
    # checked before any trial runs: no result passes a negative or NaN gate
    if not (math.isfinite(gate) and gate >= 0.0):
        raise ConfigError(f"gate must be a finite number >= 0, got {gate!r}")
    n_shape = _gamma_shape(n_shape, params)
    mc_curve = run_coverage_mc(params, cfg)
    an_curve = coverage(mc_curve.thresholds, params, n_shape)
    dev = np.abs(an_curve.coverage - mc_curve.coverage)
    worst = float(dev.max())
    return ValidationReport(
        thresholds=mc_curve.thresholds, analytic=an_curve.coverage,
        mc=mc_curve.coverage, mc_half_width=mc_curve.ci_half_width,
        abs_dev=dev, worst_dev=worst, gate=float(gate),
        passed=bool(worst <= gate), mode=params.mode, n_shape=n_shape,
        trials=cfg.trials, trials_used=mc_curve.trials_used,
        trials_skipped=cfg.trials - mc_curve.trials_used,
        analytic_clamped=an_curve.clamped)
