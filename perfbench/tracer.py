"""Span tracer for the traced benchmark run.

For the length of one traced run, each hook replaces the attribute that
its caller actually looks up: ``montecarlo`` imports ``build_network`` by
name, so that hook sits on ``mimosg.montecarlo`` and not on
``mimosg.geometry``. Every wrapped call records a span (name, start, end,
parent, run id) and, through the hook's counter, the work it was handed.
Spans stay in memory and are written out when the run ends. A hook whose
target no longer exists is reported as absent instead of failing the run,
and every wrapped attribute is restored when the run ends, also on error.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import logging
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """Spans and counters of one traced run.

    A span is the list ``[name, start, end, parent_index, child_seconds]``;
    ``child_seconds`` accumulates the time covered by direct children, so
    self time is ``end - start - child_seconds``. The program runs in one
    thread here, so open spans nest and form a stack.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _enter(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0,
                self._open[-1] if self._open else -1, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._open.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call it makes."""
        span = self._enter(name)
        try:
            yield
        finally:
            self._exit(span)

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(counts, fn, args,
        result)`` runs after a successful call, outside the span."""
        tracer = self

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.counts[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._exit(span)
            if count is not None:
                try:
                    count(tracer.counts, fn, args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the target changed shape: report, do not crash
                    tracer.counts[f"{name}:uncounted"] += 1
            return result
        return hooked

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, _, child in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return out

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def children_per_parent(self, parent: str, child: str) -> list[int]:
        """For every span named ``parent``, how many direct children are
        named ``child``."""
        per = {i: 0 for i, s in enumerate(self.spans) if s[0] == parent}
        for s in self.spans:
            if s[0] == child and s[3] in per:
                per[s[3]] += 1
        return list(per.values())

    def write(self, path) -> None:
        """Write every span as one JSON line; times are seconds on the
        ``time.perf_counter`` clock."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": self.run_id}) + "\n")


# --- counters: what each wrapped call was handed ---------------------------

def _count_nearest(counts, fn, args, result):
    pts, bs = args[0], args[1]
    counts["nearest_bs.points"] += len(pts)
    counts["nearest_bs.point_bs_pairs"] += len(pts) * len(bs)


def _count_pairwise(counts, fn, args, result):
    counts["pairwise_dist.elements"] += len(args[0]) * len(args[1])


def _count_deltas(counts, fn, args, result):
    counts["all_deltas.users"] += len(args[0])


def _count_sinr(counts, fn, args, result):
    counts["sinr_batch.tagged_users"] += len(args[0])


def _count_network(counts, fn, args, result):
    counts["build_network.ok"] += 1
    counts["build_network.bs"] += result.bs.shape[0]
    counts["build_network.cells_invalid"] += int((~result.valid).sum())
    counts["build_network.users_placed"] += int(
        np.isfinite(result.serving).sum())


def _count_trial(counts, fn, args, result):
    n_tagged = result[0]
    counts["run_trial.tagged_users"] += n_tagged
    counts["run_trial.skipped"] += n_tagged == 0


def _count_context(counts, fn, args, result):
    # the context is lru-cached: a build is a cache miss. The benchmark
    # clears the cache before each traced call, so the last reading is
    # the number of builds in that call.
    info = getattr(fn, "cache_info", None)
    if info is not None:
        counts["context.builds"] = info().misses
    else:
        counts["context.builds"] += 1


def _count_e1(counts, fn, args, result):
    counts["e1_exponent.rows"] += np.atleast_1d(args[1]).size


def _count_coverage(counts, fn, args, result):
    counts["coverage_values.thresholds"] += np.atleast_1d(args[0]).size


def _count_grid(counts, fn, args, result):
    counts["log_panel_grid.nodes"] += len(result[0])


# (owner, attribute looked up by the caller, span name, counter)
HOOKS = [
    ("mimosg.cli", "validate", "montecarlo.validate", None),
    ("mimosg.cli", "ergodic_rate", "analytic.ergodic_rate", None),
    ("mimosg.montecarlo", "run_coverage_mc", "montecarlo.run_coverage_mc",
     None),
    ("mimosg.montecarlo", "_run_trials", "montecarlo.run_trials", None),
    ("mimosg.montecarlo", "run_trial", "montecarlo.run_trial", _count_trial),
    ("mimosg.montecarlo", "build_network", "geometry.build_network",
     _count_network),
    ("mimosg.montecarlo", "draw_phases", "linkstats.draw_phases", None),
    ("mimosg._kernels", "nearest_bs", "kernels.nearest_bs", _count_nearest),
    ("mimosg._kernels", "pairwise_dist", "kernels.pairwise_dist",
     _count_pairwise),
    ("mimosg._kernels", "all_deltas", "kernels.all_deltas", _count_deltas),
    ("mimosg._kernels", "sinr_batch", "kernels.sinr_batch", _count_sinr),
    ("mimosg.analytic", "_context", "analytic.context", _count_context),
    ("mimosg.analytic._Context", "_build_e2_table", "analytic.e2_table", None),
    ("mimosg.analytic._Context", "e1_exponent", "analytic.e1_exponent",
     _count_e1),
    ("mimosg.analytic._Context", "e2_exponent", "analytic.e2_exponent", None),
    ("mimosg.analytic", "_coverage_values", "analytic.coverage_values",
     _count_coverage),
    ("mimosg.analytic", "log_panel_grid", "quadrature.log_panel_grid",
     _count_grid),
    ("mimosg.analytic", "gauss_legendre_panels",
     "quadrature.gauss_legendre_panels", None),
    ("mimosg.quadrature", "gauss_legendre_panels",
     "quadrature.gauss_legendre_panels", None),
    ("numpy.polynomial.legendre", "leggauss", "quadrature.leggauss", None),
]


def _resolve(path: str):
    """Module or module-level class named by ``path``; None when gone."""
    try:
        return importlib.import_module(path)
    except ImportError:
        pass
    module_path, _, attr = path.rpartition(".")
    try:
        module = importlib.import_module(module_path)
    except ImportError:
        return None
    return getattr(module, attr, None)


@contextlib.contextmanager
def hooked(tracer: Tracer, hooks=HOOKS):
    """Install ``hooks`` for the block; yields the list of absent targets.

    Only attributes defined on the owner itself are wrapped, so restoring
    puts back exactly the object that was there.
    """
    installed, absent = [], []
    try:
        for owner_path, attr, name, count in hooks:
            owner = _resolve(owner_path)
            if owner is None or attr not in vars(owner):
                absent.append(f"{owner_path}.{attr}")
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(name, original, count))
            installed.append((owner, attr, original))
        yield absent
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


class _DebugCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.count = 0

    def emit(self, record):
        if record.levelno == logging.DEBUG:
            self.count += 1


@contextlib.contextmanager
def debug_records(logger_name: str):
    """Count the DEBUG records of one logger without printing them."""
    logger = logging.getLogger(logger_name)
    handler = _DebugCounter()
    level, propagate = logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    logger.propagate = False
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        logger.propagate = propagate


def _ratio(num: float, den: float) -> float:
    """Ratio with 0 for an empty base (the layer did not run)."""
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, clamped: int,
                      overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, by the names BENCHMARK.json
    lists. Times are seconds summed over all calls; ``.s`` is inclusive
    and ``.self_s`` excludes time in wrapped callees."""
    s = tracer.summary()
    c = tracer.counts
    trial_ms = np.asarray(tracer.durations("montecarlo.run_trial")) * 1e3
    trials = s["montecarlo.run_trial"][0]
    tail_calls = tracer.children_per_parent("analytic.ergodic_rate",
                                            "analytic.coverage_values")
    m = {
        "geometry.build_network.calls": s["geometry.build_network"][0],
        "geometry.build_network.self_s": s["geometry.build_network"][2],
        "geometry.realization_retries":
            c["geometry.build_network:RealizationError"],
        "geometry.cells_invalidated": c["build_network.cells_invalid"],
        "geometry.bs_per_trial": _ratio(c["build_network.bs"],
                                        c["build_network.ok"]),
        "geometry.user_accept_ratio": _ratio(c["build_network.users_placed"],
                                             c["nearest_bs.points"]),
        "kernels.nearest_bs.point_bs_pairs": c["nearest_bs.point_bs_pairs"],
        "kernels.pairwise_dist.elements": c["pairwise_dist.elements"],
        "kernels.all_deltas.users": c["all_deltas.users"],
        "kernels.sinr_batch.tagged_users": c["sinr_batch.tagged_users"],
        "linkstats.draw_phases.calls": s["linkstats.draw_phases"][0],
        "linkstats.draw_phases.s": s["linkstats.draw_phases"][1],
        "montecarlo.run_trial.calls": trials,
        "montecarlo.run_trial.self_s": s["montecarlo.run_trial"][2],
        "montecarlo.run_trial.ms_p50":
            float(np.percentile(trial_ms, 50)) if trials else 0.0,
        "montecarlo.run_trial.ms_p99":
            float(np.percentile(trial_ms, 99)) if trials else 0.0,
        # the reduction is what run_coverage_mc does besides running trials
        "montecarlo.reduce_s": s["montecarlo.run_coverage_mc"][2],
        "montecarlo.trials_skipped": c["run_trial.skipped"],
        "montecarlo.trial_yield": _ratio(trials - c["run_trial.skipped"],
                                         trials),
        "montecarlo.tagged_users": c["run_trial.tagged_users"],
        "analytic.context.builds": c["context.builds"],
        "analytic.context.s": s["analytic.context"][1],
        "analytic.e2_table.builds": s["analytic.e2_table"][0],
        "analytic.e2_table.s": s["analytic.e2_table"][1],
        "analytic.e1_exponent.calls": s["analytic.e1_exponent"][0],
        "analytic.e1_exponent.s": s["analytic.e1_exponent"][1],
        "analytic.e1_exponent.rows": c["e1_exponent.rows"],
        "analytic.e2_exponent.calls": s["analytic.e2_exponent"][0],
        # lookup time only: the table is built lazily inside the first call
        "analytic.e2_exponent.s": s["analytic.e2_exponent"][2],
        "analytic.coverage_values.calls": s["analytic.coverage_values"][0],
        "analytic.coverage_values.s": s["analytic.coverage_values"][1],
        "analytic.coverage_values.thresholds":
            c["coverage_values.thresholds"],
        # every coverage call of a rate call but the final quadrature one
        "analytic.rate_tail_search.coverage_calls":
            sum(max(n - 1, 0) for n in tail_calls),
        "analytic.clamped": clamped,
        "quadrature.log_panel_grid.calls": s["quadrature.log_panel_grid"][0],
        "quadrature.log_panel_grid.s": s["quadrature.log_panel_grid"][1],
        "quadrature.log_panel_grid.nodes": c["log_panel_grid.nodes"],
        "quadrature.gauss_legendre_panels.calls":
            s["quadrature.gauss_legendre_panels"][0],
        "quadrature.leggauss.calls": s["quadrature.leggauss"][0],
        "cli.self_s": s["cli.main"][2],
        "trace_overhead_pct": overhead_pct,
    }
    for kernel in ("nearest_bs", "pairwise_dist", "all_deltas", "sinr_batch"):
        m[f"kernels.{kernel}.calls"] = s[f"kernels.{kernel}"][0]
        m[f"kernels.{kernel}.s"] = s[f"kernels.{kernel}"][1]
    return {k: int(v) if isinstance(v, (int, np.integer)) else float(v)
            for k, v in m.items()}
