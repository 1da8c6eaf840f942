#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the values the benchmark checks
outputs against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout, on the commit whose outputs are
the reference. It stores, per workload:

* the analytic coverage curve (validate workloads) and the sweep rates;
* a high-trial Monte Carlo coverage curve with its Wilson half-widths,
  from a seed no benchmark run is expected to use, which the MC output of
  any seed is compared with;
* the exact MC coverage of a short run at the committed seed, for the
  informational bit-identity field.

The high-trial runs take a few minutes with two workers.
"""
from __future__ import annotations

import json
import sys

import run

MC_REF_TRIALS = {"mc-async-4km": 20_000, "mc-sync-8km": 3_000}
MC_REF_SEED = 1_000_003
EXACT_SEED = 1
EXACT_TRIALS = 20


def _call(cli, argv) -> dict:
    rc, seconds, blob, err = run.call_cli(cli, argv, run.program_caches())
    if blob is None:
        raise SystemExit(f"error: {argv[0]} exited {rc}\n{err}")
    print(f"{argv[0]}: exit {rc} in {seconds:.1f} s", file=sys.stderr)
    return json.loads(blob)


def main() -> int:
    cli = run.import_cli()
    run.OUT.mkdir(exist_ok=True)
    out = run.OUT / "reference-call.json"
    ref = {"analytic": {}, "mc_reference": {}, "mc_exact": {}}
    for name, trials in MC_REF_TRIALS.items():
        doc = _call(cli, run.workload_argv(name, MC_REF_SEED, out,
                                           trials=trials, workers=2))
        ref["analytic"][name] = doc["analytic"]
        ref["mc_reference"][name] = {
            "trials": trials, "seed": MC_REF_SEED,
            "coverage": doc["monte_carlo"],
            "half_width": doc["mc_ci95_half_width"]}
        doc = _call(cli, run.workload_argv(name, EXACT_SEED, out,
                                           command="coverage-mc",
                                           trials=EXACT_TRIALS))
        ref["mc_exact"][name] = {
            "trials": EXACT_TRIALS, "seed": EXACT_SEED,
            "coverage": run.result_values(doc, "coverage-mc")}
    doc = _call(cli, run.workload_argv("analytic-sweep-sync", 0, out))
    ref["sweep_rates"] = {str(int(v)): r for v, r in sorted(doc["values"])}
    ref["version"] = doc["version"]
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
