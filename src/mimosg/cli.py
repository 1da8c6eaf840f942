"""Command-line interface: configuration ingestion, subcommand
orchestration and result persistence for external plotting.

dB/dBm values are accepted only here and converted once to the internal
linear-watt/km convention. Threshold grids are specified in dB for
convenience and converted to linear SINR.

Exit codes: 0 ok, 2 configuration error, 3 numerical error,
4 validation-gate failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys

import numpy as np

from . import __version__
from .analytic import (CoverageCurve, RateResult, coverage,
                       coverage_fullpc_async, coverage_infinite_m,
                       coverage_no_pc, ergodic_rate)
from .errors import ConfigError, DomainError, MimosgError, NumericalError
from .geometry import trunc_rayleigh_cdf, trunc_rayleigh_sample
from .montecarlo import McConfig, run_coverage_mc, run_rate_mc, validate
from .params import SystemParams, attenuation_db_to_linear, dbm_to_watt

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GATE = 4

# pdf-check's KS gate: 0.02, or, if larger, the KS 0.1% point 1.95/sqrt(n)
KS_GATE = 0.02
KS_CRITICAL_001 = 1.95

# Most points a threshold grid may have: a coverage curve is evaluated at
# every one of them, so a larger grid is a typo, not a request.
MAX_THRESHOLDS = 1_000_000

# Most samples pdf-check may draw per law: it holds about six float64
# arrays of that length at once (the draw, its sorted copy, the CDF on it
# and the KS differences), some 0.5 GB at 10**7, so more is a typo.
MAX_SAMPLES = 10 ** 7

# Output formats of write_results.
FORMATS = ("csv", "json")

# Human-unit defaults of the validation suite's reference setting.
DEFAULT_CONFIG = {
    "p_d_dbm": 45.0,
    "p_u_dbm": 23.0,
    "sigma2_dbm": -200.0,
    "omega_db": 130.0,
    "alpha": 4.0,
    "m": 64,
    "n_tot": 40,
    "n_p": 10,
    "z": 2.0,
    "eps": 0.0,
    "r_e_km": 0.5,
    "r0_km": 0.05,
    "mode": "async",
    "n_gamma": None,          # Gamma shape; None = mode default
    "thresholds_db": "-10:20:1",
    "trials": 10000,
    "seed": 1,
    "window_km": 4.0,
    "margin_km": 1.0,
    "workers": 1,
    "output": None,
    "format": "csv",
}


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path!r} must hold a JSON "
                              f"object, got {json.dumps(loaded):.60}")
        unknown = set(loaded) - set(DEFAULT_CONFIG)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        # open() takes an int (or a bool) as a file descriptor, and would
        # write to it and close it
        if not isinstance(loaded.get("output"), (str, type(None))):
            raise ConfigError("config key 'output' must be a path or null, "
                              f"got {json.dumps(loaded['output']):.60}")
        # checked here, not when the result is written after the whole run
        if loaded.get("format", "csv") not in FORMATS:
            raise ConfigError(f"config key 'format' must be one of "
                              f"{list(FORMATS)}, got "
                              f"{json.dumps(loaded['format']):.60}")
        cfg.update(loaded)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    return cfg


def _number(cfg: dict, key: str, kind: type):
    """cfg[key] converted by ``kind`` (int or float). A value that does not
    convert, a boolean, NaN or, for int, a fractional value is a
    ConfigError naming the key, so that it is neither truncated nor left
    to fail later with a traceback. An int is exact however large, and is
    kept as it is."""
    value = cfg[key]
    try:
        out = kind(value)
        ok = not isinstance(value, bool) and (
            type(value) is int or out == float(value))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
    return out


def _n_gamma(cfg: dict):
    """The Gamma shape as configured: None (the mode default) or a number,
    which the analytic engine checks further."""
    return None if cfg["n_gamma"] is None else _number(cfg, "n_gamma", float)


def _linear(cfg: dict, key: str, convert) -> float:
    """cfg[key], a dB or dBm number, on the linear scale by ``convert``. A
    finite value whose linear form overflows a float is a ConfigError
    naming the key."""
    value = _number(cfg, key, float)
    try:
        return convert(value)
    except OverflowError:
        raise ConfigError(f"config key {key!r} is out of range: {value!r} "
                          "overflows on the linear scale") from None


def build_params(cfg: dict) -> SystemParams:
    return SystemParams(
        p_d=_linear(cfg, "p_d_dbm", dbm_to_watt),
        p_u=_linear(cfg, "p_u_dbm", dbm_to_watt),
        sigma2=_linear(cfg, "sigma2_dbm", dbm_to_watt),
        omega=_linear(cfg, "omega_db", attenuation_db_to_linear),
        alpha=_number(cfg, "alpha", float), m=_number(cfg, "m", int),
        n_tot=_number(cfg, "n_tot", int), n_p=_number(cfg, "n_p", int),
        z=_number(cfg, "z", float), eps=_number(cfg, "eps", float),
        r_e=_number(cfg, "r_e_km", float), r0=_number(cfg, "r0_km", float),
        mode=str(cfg["mode"]))


def build_mc_config(cfg: dict, thresholds) -> McConfig:
    return McConfig(trials=_number(cfg, "trials", int),
                    seed=_number(cfg, "seed", int),
                    window=_number(cfg, "window_km", float),
                    margin=_number(cfg, "margin_km", float),
                    thresholds=tuple(np.asarray(thresholds, dtype=float)),
                    workers=_number(cfg, "workers", int))


def parse_threshold_grid(grid: str) -> np.ndarray:
    """'a:b:step' in dB -> inclusive linear grid."""
    try:
        a, b, step = (float(tok) for tok in str(grid).split(":"))
    except ValueError:
        raise ConfigError(
            f"threshold grid must be 'a:b:step' in dB, got {grid!r}") from None
    if not all(map(math.isfinite, (a, b, step))):
        raise ConfigError(f"threshold grid bounds and step must be finite, "
                          f"got {grid!r}")
    if step <= 0 or b < a:
        raise ConfigError(f"bad threshold grid {grid!r}")
    # floor(count) + 1 points, checked before anything is allocated and
    # while the count is a float, which may be inf
    count = (b - a) / step + 0.5
    if not count < MAX_THRESHOLDS:
        raise ConfigError(f"threshold grid {grid!r} has more than "
                          f"{MAX_THRESHOLDS} points")
    n = int(math.floor(count)) + 1
    db = a + step * np.arange(n)
    with np.errstate(over="ignore"):      # far from 0 dB: 0 or inf
        lin = 10.0 ** (db / 10.0)
    if not (lin[0] > 0.0 and lin[-1] < math.inf):
        raise ConfigError(f"threshold grid {grid!r} leaves the range of "
                          f"finite, positive linear values")
    return lin


def _params_snapshot(params: SystemParams) -> dict:
    return {
        "p_d_w": params.p_d, "p_u_w": params.p_u, "sigma2_w": params.sigma2,
        "omega_linear": params.omega, "alpha": params.alpha, "m": params.m,
        "n_tot": params.n_tot, "n_p": params.n_p, "n_u": params.n_u,
        "n_d": params.n_d, "eps": params.eps, "lambda_km2": params.lam,
        "r0_km": params.r0, "r_e_km": params.r_e, "mode": params.mode,
    }


def format_csv(header: list[str], rows) -> str:
    """RFC-4180-style CSV with 12 significant digits."""
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(
            f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    return "\r\n".join(out) + "\r\n"


def _json_value(value):
    """``value`` with each non-finite float, which standard JSON cannot
    hold, as the string "Infinity", "-Infinity" or "NaN": ``float()``
    and the config loader read those back."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def write_results(record: dict, path: str | None, fmt: str) -> None:
    """Persist one result record as CSV or JSON (stdout when path is None)."""
    if fmt == "csv":
        text = format_csv(record["header"], record["rows"])
    elif fmt == "json":
        doc = {k: v for k, v in record.items() if k not in ("header", "rows")}
        doc["columns"] = record["header"]
        doc["values"] = record["rows"]
        text = json.dumps(_json_value(doc), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _record(params: SystemParams, cfg: dict, header, rows, **meta) -> dict:
    """One result record: its columns and rows, ``meta``, and what every
    record carries: the mode, program version, parameter snapshot and
    effective configuration."""
    return {"header": header, "rows": rows, "mode": params.mode, **meta,
            "version": f"mimosg-{__version__}",
            "params": _params_snapshot(params),
            "effective_config": {k: cfg[k] for k in sorted(cfg)}}


def _trial_counts(trials_used: int, mc: McConfig) -> dict:
    """Of a Monte Carlo run's trials, how many gave tagged users and how
    many were skipped (e.g. the zero-cell outside the margin)."""
    return {"trials_used": trials_used,
            "trials_skipped": mc.trials - trials_used}


def _curve_record(curve: CoverageCurve, cfg: dict, seed=None,
                  **meta) -> dict:
    rows = [(10.0 * math.log10(t), float(c))
            for t, c in zip(curve.thresholds, curve.coverage)]
    header = ["threshold_db", "coverage"]
    if curve.ci_half_width is not None:
        header.append("ci95_half_width")
        rows = [r + (float(h),) for r, h in zip(rows, curve.ci_half_width)]
    return _record(curve.params, cfg, header, rows, kind="coverage",
                   method=curve.method, n_shape=curve.n_shape, seed=seed,
                   clamped=curve.clamped, **meta)


def _rate_diagnostics(res: RateResult, label, value) -> dict:
    """The ends of the analytic rate's Laplace integral and the relative
    error bound of its closed-form head, kept beside the values."""
    return {label: float(value), "z_lo": res.z_lo, "z_hi": res.z_hi,
            "head_bound": res.head_bound}


def _rate_record(res: RateResult, label, value, params, cfg, seed=None,
                 **meta) -> dict:
    rows = [(float(value), res.rate)
            + ((res.ci_half_width,) if res.ci_half_width is not None else ())]
    header = [label, "rate_bps_hz"] + (
        ["ci95_half_width"] if res.ci_half_width is not None else [])
    record = _record(params, cfg, header, rows, kind="rate",
                     method=res.method, seed=seed, **meta)
    if res.z_lo is not None:
        record["diagnostics"] = [_rate_diagnostics(res, label, value)]
    return record


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

SPECIAL_CASES = {"full-pc": coverage_fullpc_async,
                 "infinite-m": coverage_infinite_m,
                 "no-pc": coverage_no_pc}


def cmd_coverage(cfg: dict, args: argparse.Namespace) -> int:
    """The analytic coverage curve; ``special`` runs its ``--case``'s."""
    params = build_params(cfg)
    thr = parse_threshold_grid(cfg["thresholds_db"])
    curve = SPECIAL_CASES.get(args.case, coverage)(thr, params, _n_gamma(cfg))
    write_results(_curve_record(curve, cfg), cfg["output"], cfg["format"])
    return EXIT_OK


def cmd_coverage_mc(cfg: dict, args: argparse.Namespace) -> int:
    params = build_params(cfg)
    thr = parse_threshold_grid(cfg["thresholds_db"])
    mc = build_mc_config(cfg, thr)
    curve = run_coverage_mc(params, mc)
    write_results(_curve_record(curve, cfg, seed=cfg["seed"],
                                **_trial_counts(curve.trials_used, mc)),
                  cfg["output"], cfg["format"])
    return EXIT_OK


def cmd_rate(cfg: dict, args: argparse.Namespace) -> int:
    params = build_params(cfg)
    res = ergodic_rate(params, _n_gamma(cfg))
    write_results(_rate_record(res, "eps", params.eps, params, cfg),
                  cfg["output"], cfg["format"])
    return EXIT_OK


def cmd_rate_mc(cfg: dict, args: argparse.Namespace) -> int:
    params = build_params(cfg)
    mc = build_mc_config(cfg, ())
    res = run_rate_mc(params, mc)
    write_results(_rate_record(res, "eps", params.eps, params, cfg,
                               seed=cfg["seed"],
                               **_trial_counts(res.trials_used, mc)),
                  cfg["output"], cfg["format"])
    return EXIT_OK


def _sweep_values(param: str, text: str) -> list[float]:
    """The comma-separated sweep values; pilot lengths must be integers."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("sweep values must be numbers, "
                          f"got {text!r}") from None
    if not values:
        raise ConfigError("sweep needs at least one value")
    if param == "np":
        bad = [v for v in values if not v.is_integer()]
        if bad:
            raise ConfigError(f"sweep values of np must be integers, "
                              f"got {bad[0]!r}")
    return values


def cmd_sweep(cfg: dict, args: argparse.Namespace) -> int:
    param = args.param
    values = _sweep_values(param, args.values)
    key, kind = {"np": ("n_p", int), "eps": ("eps", float)}[param]
    rows, diagnostics = [], []
    base = dict(cfg)
    for v in values:
        base[key] = kind(v)
        params = build_params(base)
        res = ergodic_rate(params, _n_gamma(cfg))
        rows.append((float(v), res.rate))
        diagnostics.append(_rate_diagnostics(res, param, v))
    record = _record(build_params(cfg), cfg, [param, "rate_bps_hz"], rows,
                     kind="sweep", method="analytic", seed=None,
                     diagnostics=diagnostics)
    write_results(record, cfg["output"], cfg["format"])
    return EXIT_OK


def cmd_validate(cfg: dict, args: argparse.Namespace) -> int:
    params = build_params(cfg)
    thr = parse_threshold_grid(cfg["thresholds_db"])
    report = validate(params, build_mc_config(cfg, thr), args.gate,
                      _n_gamma(cfg))
    sys.stderr.write(report.format_table() + "\n")
    rows = [(10.0 * math.log10(t), float(a), float(m), float(h), float(d))
            for t, a, m, h, d in zip(report.thresholds, report.analytic,
                                     report.mc, report.mc_half_width,
                                     report.abs_dev)]
    record = _record(params, cfg, ["threshold_db", "analytic", "monte_carlo",
                                   "mc_ci95_half_width", "abs_deviation"],
                     rows, **report.to_json_dict())
    write_results(record, cfg["output"], cfg["format"])
    return EXIT_OK if report.passed else EXIT_GATE


def cmd_pdf_check(cfg: dict, args: argparse.Namespace) -> int:
    """Kolmogorov-Smirnov suite for the three conditional distance laws,
    the truncated Rayleigh law on three supports: a user's serving
    distance, the same given a station 1.6 r_e away, and a foreign user's
    given a user pair 0.4 r_e apart, the tagged user 2 r_e away. The
    supports are nonempty in any geometry, as r0 < r_e."""
    samples = args.samples
    if samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {samples!r}")
    if samples > MAX_SAMPLES:
        raise ConfigError(f"--samples must be at most {MAX_SAMPLES}, "
                          f"got {samples!r}")
    params = build_params(cfg)
    seed = _number(cfg, "seed", int)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    lam, r0, r_e = params.lam, params.r0, params.r_e
    x, r = 2.0 * r_e, 0.4 * r_e
    supports = [("serving", r0, math.inf),
                ("serving_given_station", r0, 1.6 * r_e),
                ("serving_given_user_pair", max(r0, x - r), x + r)]
    rows = []
    for law, lo, hi in supports:
        sample = np.sort(trunc_rayleigh_sample(lam, lo, hi, rng, samples))
        grid = trunc_rayleigh_cdf(sample, lam, lo, hi)
        up = np.max(np.arange(1, samples + 1) / samples - grid)
        dn = np.max(grid - np.arange(0, samples) / samples)
        rows.append((law, float(max(up, dn))))
    gate = max(KS_GATE, KS_CRITICAL_001 / math.sqrt(samples))
    record = _record(params, cfg, ["law", "ks_distance"], rows,
                     kind="pdf-check", method="inverse-cdf-sampler",
                     seed=cfg["seed"], ks_gate=gate)
    write_results(record, cfg["output"], cfg["format"])
    worst = max(v for _, v in rows)
    sys.stderr.write(f"worst KS distance: {worst:.5f} (gate {gate:.4g})\n")
    return EXIT_OK if worst < gate else EXIT_GATE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_verbose(parser: argparse.ArgumentParser, default) -> None:
    parser.add_argument("--verbose", "-v", action="store_true",
                        default=default,
                        help="progress and diagnostics on standard error")


def _common_options() -> argparse.ArgumentParser:
    """The options every subcommand takes, as one parent parser, built
    once and shared by all subcommands."""
    common = argparse.ArgumentParser(add_help=False)
    # no default of its own, so that it does not overwrite a -v given
    # before the subcommand
    _add_verbose(common, argparse.SUPPRESS)
    common.add_argument("--config",
                        help="JSON config file; flags override it")
    common.add_argument("--mode", choices=["sync", "async", "synchronous",
                                           "asynchronous"])
    common.add_argument("--m", type=int, help="antennas per station")
    common.add_argument("--eps", type=float, help="power-control parameter")
    common.add_argument("--np", dest="n_p", type=int,
                        help="pilot length / users per cell")
    common.add_argument("--n-gamma", dest="n_gamma", type=int,
                        help="Gamma shape of the coverage expansion")
    common.add_argument("--thresholds-db", dest="thresholds_db",
                        help="a:b:step grid in dB")
    common.add_argument("--trials", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--window-km", dest="window_km", type=float)
    common.add_argument("--margin-km", dest="margin_km", type=float)
    common.add_argument("--workers", type=int)
    common.add_argument("--output", "-o", help="output path (default stdout)")
    common.add_argument("--format", choices=FORMATS)
    return common


@functools.lru_cache(maxsize=1)
def make_parser() -> argparse.ArgumentParser:
    """The program's argument parser, built once per process: parsing
    does not change it, and every ``main`` call parses into a fresh
    namespace, so a process that calls ``main`` more than once (a test
    suite, an in-process benchmark) builds it only for the first call."""
    parser = argparse.ArgumentParser(
        prog="mimosg",
        description="Coverage and ergodic rate of (a)synchronous massive "
                    "MIMO networks: analytic quadrature and Monte Carlo.")
    parser.add_argument("--version", action="version",
                        version=f"mimosg {__version__}")
    _add_verbose(parser, False)
    subs = parser.add_subparsers(dest="command", required=True)
    common = _common_options()

    for name, hlp, handler in [
            ("coverage", "analytic coverage curve", cmd_coverage),
            ("coverage-mc", "Monte Carlo coverage curve", cmd_coverage_mc),
            ("rate", "analytic ergodic rate", cmd_rate),
            ("rate-mc", "Monte Carlo ergodic rate", cmd_rate_mc),
            ("validate", "compare analytic vs Monte Carlo coverage",
             cmd_validate),
            ("special", "special-case analytic curves", cmd_coverage),
            ("sweep", "rate sweep over a parameter", cmd_sweep),
            ("pdf-check", "KS suite for the distance-law samplers",
             cmd_pdf_check)]:
        sub = subs.add_parser(name, help=hlp, parents=[common])
        sub.set_defaults(handler=handler, case=None)
        if name == "validate":
            sub.add_argument("--gate", type=float, required=True,
                             help="max |analytic - MC| allowed")
        if name == "special":
            sub.add_argument("--case", required=True,
                             choices=list(SPECIAL_CASES))
        if name == "sweep":
            sub.add_argument("--param", required=True, choices=["np", "eps"])
            sub.add_argument("--values", required=True,
                             help="comma-separated sweep values")
        if name == "pdf-check":
            sub.add_argument("--samples", type=int, default=100_000)
    return parser


def _merge_negative_values(argv):
    """Let '--thresholds-db -10:20:1' parse even though the value starts
    with a dash (argparse would read it as an option otherwise)."""
    out = []
    for tok in sys.argv[1:] if argv is None else argv:
        if out and out[-1] in ("--thresholds-db", "--values") \
                and tok.startswith("-"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(_merge_negative_values(argv))
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        overrides = {k: v for k, v in vars(args).items()
                     if k in DEFAULT_CONFIG}
        cfg = load_config(args.config, overrides)
        return args.handler(cfg, args)
    except (ConfigError, DomainError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except NumericalError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return EXIT_NUMERICAL
    except MimosgError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
