"""Monte Carlo estimation of coverage and rate, and the MC-vs-analytic
validation report.

Each trial samples a fresh network in a finite square window, computes the
conditional SINR of every tagged user exactly (realized distances, realized
observation variances, realized phase draws; interference truncated at the
window edge like the reference simulation setup), and is folded into the
estimators as it arrives, in trial order for any worker count: its success
fractions into one running sum per threshold (bit for bit numpy's mean
over a trials x thresholds table at two or more thresholds, a few ulps
from numpy's pairwise sum at one), its mean rate into a list. The
conditional SINR is already an expectation over small-scale fading and
precoding, so no fading is drawn; the phase of each interfering cell is
drawn once per realization (``draw_phases``), given that the observer is
in its downlink phase. Per-trial generators are derived as
SeedSequence((master_seed, trial_index)), a documented stable scheme, so
replays are bit-exact for any worker count.

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

import contextlib
import logging
import math
import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import _kernels
from .analytic import CoverageCurve, RateResult, _gamma_shape, coverage
from .errors import (ConfigError, EstimationError, NumericalError,
                     RealizationError)
from .geometry import build_network, user_batch
from .params import SystemParams, _is_integer, frame_weights

log = logging.getLogger(__name__)

_Z95 = 1.959963984540054

# Most elements the largest array of a trial may have at the expected
# station count n = lam window^2: the nearest-station block of
# ``build_network``, n x ``user_batch(n, K)`` distances (2**26 float64
# values are 512 MiB). A window that asks for more is a typo, not a request.
MAX_TRIAL_BLOCK = 2 ** 26

# Most trials a run may ask for: a larger count is a typo, not a request.
# Memory does not bind it, as a run keeps one row of thresholds and one
# float per used trial.
MAX_TRIALS = 10 ** 6

# Most success counts one pooled chunk of trials may carry: finished chunks
# wait in the parent until the fold reaches them, so chunk x thresholds is
# bounded, not only the chunk.
MAX_CHUNK_FLOATS = 2 ** 17


@dataclass(frozen=True)
class McConfig:
    trials: int = 10_000
    seed: int = 1
    window: float = 4.0            # km, square side
    margin: float = 1.0            # km, border trim for tagged cells
    thresholds: tuple = ()         # linear SINR thresholds
    workers: int = 1

    def __post_init__(self):
        # a whole float is stored as the int that range() and the seed take
        for name in ("trials", "seed", "workers"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials!r}")
        if self.trials > MAX_TRIALS:
            raise ConfigError(f"trials must be at most {MAX_TRIALS}, "
                              f"got {self.trials!r}")
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


def draw_phases(params: SystemParams, n_cells: int,
                rng: np.random.Generator) -> np.ndarray:
    """One categorical phase draw per interfering cell: an (n_cells,) int8
    array of PHASE_PILOT, PHASE_UPLINK and PHASE_DOWNLINK codes.

    The observer is in its downlink phase, so each independent interfering
    cell is in pilot/uplink/downlink with the probabilities ``phases`` of
    :func:`~mimosg.params.frame_weights`: (n_p, n_u, n_d) / n_tot
    asynchronous, and (0, 0, 1) synchronous, where every draw is downlink.
    """
    # the steps of rng.choice(3, size=n_cells, p=probs), without its
    # per-call checks of p: the same uniforms give the same draws. A draw
    # is the index of its PhaseTriple field, which is its phase code.
    cdf = np.array(frame_weights(params).phases).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(n_cells), side="right").astype(np.int8)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial stream: SeedSequence((seed, index))."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


def run_trial(params: SystemParams, cfg: McConfig, index: int):
    """One realization: returns (n_tagged, per-threshold success counts,
    sum of log2(1 + SINR) over tagged users). NumericalError when the
    tagged users' inverse SINR is not finite."""
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

    # one phase draw per interfering cell, shared by the zero-cell's users
    phases = draw_phases(params, net.n_bs, rng)
    # a far too large path-loss exponent overflows the kernels' powers:
    # caught below as a non-finite inverse SINR, not printed as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        g1, g2, g3 = _kernels.cell_sinr(net, zero_cell, phases, params)
        inv = g1 + g2 + g3
    if not np.isfinite(inv).all():
        raise NumericalError(
            f"trial {index}: the inverse SINR of the tagged users is not "
            f"finite at path-loss exponent {params.alpha!r}")

    sinr = 1.0 / inv
    counts = (sinr[:, None] > thr[None, :]).sum(axis=0).astype(float)
    rate_sum = float(np.log2(1.0 + sinr).sum())
    return int(sinr.size), counts, rate_sum


def _check_trial_size(params: SystemParams, cfg: McConfig) -> None:
    """ConfigError when a trial's nearest-station block would exceed
    MAX_TRIAL_BLOCK elements at the expected station count."""
    n_bs = params.lam * cfg.window * cfg.window   # inf, not OverflowError
    block = n_bs * user_batch(n_bs, params.n_p)
    if not block <= MAX_TRIAL_BLOCK:
        raise ConfigError(
            f"window of {cfg.window!r} km is too large: its {n_bs:.3g} "
            f"stations on average need a nearest-station block of "
            f"{block:.3g} elements per trial, more than {MAX_TRIAL_BLOCK}")


def _run_trials(params: SystemParams, cfg: McConfig):
    """Run the trials in trial order, serial or pooled, and fold each into
    the estimators as it arrives: (trials used, per-threshold sum of
    counts / n over them, each used trial's rate_sum / n). A trial is used
    when it tags users; EstimationError when none does."""
    _check_trial_size(params, cfg)
    args = (repeat(params), repeat(cfg), range(cfg.trials))
    # a pool starts all its workers up front, so it gets no more than there
    # are trials or CPUs; the results do not depend on the count
    workers = min(cfg.workers, cfg.trials, os.cpu_count() or 1)
    used, frac_sum, means = 0, np.zeros(len(cfg.thresholds)), []
    step = max(1, cfg.trials // 10)
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # imported here: a serial run does not pay for loading it
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers))
            chunk = min(cfg.trials // (workers * 8),
                        MAX_CHUNK_FLOATS // max(1, len(cfg.thresholds)))
            results = pool.map(run_trial, *args, chunksize=max(1, chunk))
        else:
            results = map(run_trial, *args)
        for i, (n, counts, rate_sum) in enumerate(results, 1):
            if n > 0:
                used += 1
                frac_sum += counts / n
                means.append(rate_sum / n)
            if i % step == 0:
                log.info("trials %d/%d", i, cfg.trials)
    if not used:
        raise EstimationError("all trials degenerate: no eligible tagged users")
    return used, frac_sum, means


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
    used, frac_sum, _ = _run_trials(params, cfg)
    p_hat = frac_sum / used
    _, half = wilson_interval(p_hat, used)
    return CoverageCurve(
        thresholds=np.asarray(cfg.thresholds, dtype=float), coverage=p_hat,
        method="monte-carlo", params=params, ci_half_width=half,
        trials_used=used)


def run_rate_mc(params: SystemParams, cfg: McConfig) -> RateResult:
    """Empirical cell-aggregate rate (n_p n_d / n_tot) E{log2(1 + SINR)}."""
    means = np.array(_run_trials(params, cfg)[2])
    pref = params.rate_prefactor
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
