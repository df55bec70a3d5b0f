"""Tests of the benchmark itself: span arithmetic, tracing, inputs and checks.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from privauction import cli  # noqa: E402

from checks import Ledger, report_problems  # noqa: E402
from tracer import Totals, Tracer, layer_metrics, patch_table  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402


def synthetic(spans):
    """A Tracer holding the given (name, start, end, parent) spans."""
    tracer = Tracer()
    for name, start, end, parent in spans:
        tracer.names.append(name)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
    return tracer


def test_self_time_on_synthetic_span_tree():
    tracer = synthetic([
        ("cli", 0.0, 10.0, -1),
        ("mechanisms", 1.0, 4.0, 0),
        ("core.cost_eval", 2.0, 3.0, 1),
        ("mechanisms", 5.0, 9.0, 0),
        ("dp.estimator", 6.0, 8.5, 3),
        ("dp.lap_sample", 7.0, 7.5, 4),
    ])
    same = (np.zeros(3), "FairQueryInstance", "linear", 30.0, None)
    tracer.notes.update({1: same, 3: (np.zeros(3), *same[1:]), 5: 1})
    totals = Totals(tracer)
    assert totals.self == pytest.approx({"cli": 3.0, "mechanisms": 3.5, "core.cost_eval": 1.0,
                                         "dp.estimator": 2.0, "dp.lap_sample": 0.5})
    assert totals.incl["mechanisms"] == pytest.approx(7.0)
    m = layer_metrics(tracer)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["mechanisms.calls"] == 2
    assert m["mechanisms.us_per_call"] == pytest.approx(3.5e6)
    assert m["mechanisms.distinct_share"] == 0.5
    assert m["dp.estimator.s"] == pytest.approx(2.5)
    assert m["dp.lap_sample.draws"] == 1
    assert m["verify.truthfulness.s"] == 0.0


def test_misreports_count_only_mechanism_calls_inside_truthfulness():
    tracer = synthetic([
        ("verify.suite", 0.0, 10.0, -1),
        ("mechanisms", 0.5, 1.0, 0),
        ("verify.truthfulness", 1.0, 5.0, 0),
        ("mechanisms", 1.5, 2.0, 2),
        ("mechanisms", 2.5, 3.0, 2),
        ("verify.truthfulness", 5.0, 9.0, 0),
        ("mechanisms", 6.0, 7.0, 5),
    ])
    profile = lambda v: (np.full(2, v), "MinCostInstance", "linear", None, 0.5)
    tracer.notes.update({1: profile(1.0), 3: profile(2.0), 4: profile(3.0), 6: profile(1.0)})
    m = layer_metrics(tracer)
    assert m["verify.truthfulness.misreports"] == 1.5
    assert m["verify.suite.self_s"] == pytest.approx(10.0 - 0.5 - 4.0 - 4.0)


def small_commands():
    """Each workload's commands, shrunk to run in well under a second."""
    mc, = WORKLOADS["mc_run"](3)
    sweep, = WORKLOADS["sweep_n"](3)
    budget, _, control = WORKLOADS["verify_corpus"](3)
    shrink = lambda cmd, **kw: dataclasses.replace(cmd, config={**cmd.config, **kw})
    return [shrink(mc, trials=200),
            shrink(sweep, trials=20, sweep={"parameter": "n", "values": [10, 100]}),
            shrink(budget, trials=1), shrink(control, trials=1)]


def run_command(cmd: Command, tmp_path: Path, tracer=None):
    config, report = tmp_path / f"{cmd.label}.json", tmp_path / f"{cmd.label}.report"
    config.write_text(json.dumps(cmd.config))
    if tracer is None:
        code = cli.main(cmd.argv(str(config), str(report)))
    else:
        with tracer.installed():
            code = cli.main(cmd.argv(str(config), str(report)))
    return code, report.read_bytes()


def test_wrappers_leave_outputs_unchanged_and_restore_originals(tmp_path):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in patch_table()]
    for cmd in small_commands():
        plain = run_command(cmd, tmp_path)
        tracer = Tracer()
        traced = run_command(cmd, tmp_path, tracer)
        assert traced == plain
        assert plain[0] == cmd.expect_exit
        calls = layer_metrics(tracer)["mechanisms.calls"]
        if cmd.verb == "run":
            assert calls == cmd.config["trials"] + 2
        elif cmd.verb == "sweep":
            assert calls == (cmd.config["trials"] + 1) * len(cmd.config["sweep"]["values"])
        else:
            assert layer_metrics(tracer)["verify.truthfulness.misreports"] > 0
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def test_run_pass_traces_only_when_given_a_tracer(tmp_path):
    import child
    from workloads import write_configs
    cmds = small_commands()[:1]
    write_configs(cmds, tmp_path)
    tracer = Tracer()
    _, codes, traced = child.run_pass(cli, cmds, tmp_path, tracer)
    assert codes == [0] and layer_metrics(tracer)["mechanisms.calls"] == 202
    _, _, plain = child.run_pass(cli, cmds, tmp_path)
    assert plain == traced


def test_wrappers_restore_originals_when_the_call_raises():
    from privauction import cli as cli_mod
    original = cli_mod.cmd_run
    with pytest.raises(AttributeError):
        with Tracer().installed():
            assert cli_mod.cmd_run is not original
            cli_mod.cmd_run(None)
    assert cli_mod.cmd_run is original


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_generation_is_deterministic_in_the_seed(workload):
    make = WORKLOADS[workload]
    assert make(11) == make(11)
    assert [c.config for c in make(11)] != [c.config for c in make(12)]


def test_corrupted_reports_raise_fail_share(tmp_path):
    mc, _, budget, control = small_commands()
    code, report = run_command(mc, tmp_path)
    assert report_problems(mc, 3, report) == []

    ledger = Ledger(seed=3)
    ledger.record(mc, code, report)
    ledger.record(mc, code, report)
    assert (ledger.attempted, ledger.failed, ledger.fail_share) == (2, 0, 0.0)

    parsed = json.loads(report)
    parsed["records"][0]["k"] += 1
    wrong_k = json.dumps(parsed).encode()
    ledger = Ledger(seed=3)
    ledger.record(mc, code, wrong_k)
    assert ledger.fail_share == 1.0 and "oracle" in ledger.problems[0]

    ledger = Ledger(seed=3)
    ledger.record(mc, code, report)
    ledger.record(mc, code, wrong_k)
    assert ledger.fail_share == 0.5

    code, report = run_command(control, tmp_path)
    ledger = Ledger(seed=3)
    ledger.record(control, code, report)
    ledger.record(control, 1 - code, report)
    assert ledger.fail_share == 0.5

    # a clean corpus reported with the negative control's verdict
    code, report = run_command(budget, tmp_path)
    ledger = Ledger(seed=3)
    ledger.record(dataclasses.replace(budget, expect_exit=1), code, report)
    assert ledger.failed == 1


def test_reported_metrics_match_benchmark_json():
    import run
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_median_pass_adds_per_command_medians():
    import run
    walls = [[1.0, 10.0], [3.0, 20.0], [2.0, 90.0]]   # one row per pass, one column per command
    assert run.median_pass(walls) == 2.0 + 20.0


def test_calibration_times_every_unit():
    import calibrate
    times = calibrate.sample()
    assert len(times) == len(calibrate.UNITS) and all(t > 0 for t in times)
