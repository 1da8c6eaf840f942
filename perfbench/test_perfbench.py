"""Tests of the benchmark itself: metric names, hook restoration and the
output checks. Run from the repository root:

    python3 -m pytest -q perfbench
"""
import json

import numpy as np
import pytest

import run
import tracer as tr

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REF = json.loads(run.REFERENCE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture
def tiny(monkeypatch):
    """The mc-async-4km workload shrunk to a few trials."""
    spec = dict(run.WORKLOADS["mc-async-4km"], trials=3)
    monkeypatch.setitem(run.WORKLOADS, "mc-async-4km", spec)
    monkeypatch.setattr(run, "SMALL_TRIALS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(cli, tiny, capsys, trace,
                                                   section):
    assert run.main(["--workload", "mc-async-4km", "--seed", "5",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = _last_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [e["name"] for e in SPEC[section]]
    for entry in SPEC[section]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_traced_run_counts_layers_and_restores_hooks(cli, tiny):
    originals = {}
    for owner_path, attr, _, _ in tr.HOOKS:
        owner = tr._resolve(owner_path)
        originals[owner_path, attr] = (owner, vars(owner)[attr])
    gone = [("mimosg.montecarlo", "no_such_function", "gone.f", None),
            ("mimosg.no_such_module", "f", "gone.g", None)]
    tracer = tr.Tracer("test")
    argv = run.workload_argv("mc-async-4km", 5, run.OUT / "test.json")
    run.OUT.mkdir(exist_ok=True)
    with pytest.raises(RuntimeError):
        with tr.hooked(tracer, tr.HOOKS + gone) as absent:
            assert absent == ["mimosg.montecarlo.no_such_function",
                              "mimosg.no_such_module.f"]
            rc, _, _, _ = run.call_cli(cli, argv, run.program_caches(),
                                       tracer)
            raise RuntimeError("the traced run fails")
    for (owner_path, attr), (owner, original) in originals.items():
        assert vars(owner)[attr] is original, f"{owner_path}.{attr}"

    assert rc in run.ALLOWED_EXIT["validate"]
    m = tr.per_layer_metrics(tracer, 0, 0.0)
    assert m["montecarlo.run_trial.calls"] == 3
    assert m["kernels.sinr_batch.tagged_users"] == m["montecarlo.tagged_users"]
    assert m["linkstats.draw_phases.calls"] > 0
    assert m["analytic.context.builds"] == 1
    assert m["quadrature.leggauss.calls"] > 0
    assert m["cli.self_s"] > 0


def _validate_doc(name):
    mc = REF["mc_reference"][name]
    return {"analytic": list(REF["analytic"][name]),
            "monte_carlo": list(mc["coverage"]),
            "mc_ci95_half_width": list(mc["half_width"])}


def _check(name, doc, rc=0):
    command = run.WORKLOADS[name]["command"]
    return run.check_output(name, command, rc, json.dumps(doc), REF)


@pytest.mark.parametrize("name", ["mc-async-4km", "mc-sync-8km"])
def test_validate_check_counts_bad_values(name):
    n = 2 * len(REF["analytic"][name])
    assert _check(name, _validate_doc(name)) == (n, 0)
    assert _check(name, _validate_doc(name), rc=run.EXIT_GATE) == (n, 0)
    assert _check(name, _validate_doc(name), rc=3) == (n, n)

    doc = _validate_doc(name)
    doc["analytic"][3] += 2e-8
    doc["monte_carlo"][0] += 0.5
    assert _check(name, doc) == (n, 2)

    doc = _validate_doc(name)
    doc["monte_carlo"][5] = float("nan")
    assert _check(name, doc) == (n, n)


def test_sweep_check_counts_bad_values():
    rows = [[float(v), r] for v, r in REF["sweep_rates"].items()]
    n = len(rows)
    assert _check("analytic-sweep-sync", {"values": rows}) == (n, 0)
    rows[2][1] *= 1 + 3e-6
    assert _check("analytic-sweep-sync", {"values": rows}) == (n, 1)
    assert _check("analytic-sweep-sync", {"values": rows[:-1]}) == (n, n)
    assert _check("analytic-sweep-sync", {"values": rows}, rc=2) == (n, n)


def test_sweep_iteration_is_one_call_per_value_and_merges_back():
    argvs = run.iteration_argvs("analytic-sweep-sync", 5, run.OUT / "t.json")
    values = [argv[argv.index("--values") + 1] for argv in argvs]
    assert values == [str(v) for v in run.sweep_values(5)]
    assert run.iteration_argvs("mc-async-4km", 5, run.OUT / "t.json") == [
        run.workload_argv("mc-async-4km", 5, run.OUT / "t.json")]

    rows = [[float(v), r] for v, r in REF["sweep_rates"].items()]
    parts = [json.dumps({"values": [row], "kind": "sweep"}).encode()
             for row in rows]
    merged = run.merge_sweep(parts)
    assert run.check_output("analytic-sweep-sync", "sweep", 0, merged,
                            REF) == (len(rows), 0)
    assert run.merge_sweep(parts[:-1] + [None]) is None
    assert run.merge_sweep(parts[:-1] + [b"{}"]) is None


def test_scaled_time_reads_at_reference_probe_speed():
    assert run.scaled(3.0, run.PROBE_REF_S,
                      run.PROBE_REF_S) == pytest.approx(3.0)
    assert run.scaled(3.0, 1.5 * run.PROBE_REF_S,
                      2.5 * run.PROBE_REF_S) == pytest.approx(1.5)


def test_replay_check_counts_differing_values():
    doc = {"values": [[2.0, 1.5], [5.0, 2.5]]}
    same = json.dumps(doc).encode()
    tally = run.Tally()
    run.replay_check(tally, "sweep", [same, same])
    assert (tally.attempted, tally.failed) == (2, 0)
    doc["values"][1][1] = np.nextafter(2.5, 3.0)
    run.replay_check(tally, "sweep", [same, json.dumps(doc).encode()])
    assert (tally.attempted, tally.failed) == (4, 1)
    run.replay_check(tally, "sweep", [same, b"not json"])
    assert (tally.attempted, tally.failed) == (6, 3)
