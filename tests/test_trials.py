"""`run`'s aggregates and `estimate_accuracy`'s miss count (which allocates
once and draws only the estimate per trial) reproduce, bit for bit, a full
mechanism run per trial with `trial_stream(seed, t)`."""

import itertools
import json

import numpy as np
import pytest

from privauction import cli, dp
from privauction.cli import main
from privauction.core import CostFamily, PopulationSpec, generate_population
from privauction.dp import trial_stream
from privauction.mechanisms import (AccuracyInstance, BudgetInstance, fair_query,
                                    min_cost_auction)
from privauction.verify import estimate_accuracy, pay_your_bid_control

SEED, TRIALS = 11, 300
POPULATION = {"n": 12, "values": {"dist": "uniform", "lo": 0.0, "hi": 10.0},
              "bits": {"model": "independent", "q": 0.5}, "seed": 4}

# name -> (config fields, reference mechanism, expected winner count or None)
CASES = {
    "budget": ({"scenario": "budget", "budget": 6.0}, fair_query, None),
    "budget_zero": ({"scenario": "budget", "budget": 0.0}, fair_query, 0),
    "accuracy": ({"scenario": "accuracy", "alpha": 0.5}, min_cost_auction, None),
    "pay_your_bid": ({"scenario": "budget", "budget": 6.0, "negative_control": True},
                     pay_your_bid_control, None),
}


def _instance(fields):
    pop = generate_population(PopulationSpec.from_dict(POPULATION))
    if fields["scenario"] == "budget":
        return BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=fields["budget"])
    return AccuracyInstance(pop=pop, model=CostFamily.LINEAR, alpha=fields["alpha"])


def _reference_estimates(mech, inst):
    return np.array([mech(inst, trial_stream(SEED, t)).estimate
                     for t in range(TRIALS)])


def _run_record(tmp_path, fields) -> dict:
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({"population": POPULATION, "cost_family": "linear",
                               "trials": TRIALS, "seed": SEED, **fields}))
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    return json.loads(out.read_text())["records"][0]


def _assert_aggregates(record, ref, inst):
    s = inst.pop.total
    errors = ref - s
    assert record["error_rate_at_bound"] == float(
        np.mean(np.abs(ref - s) >= record["accuracy_bound"]))
    assert record["estimate_error_mean"] == float(errors.mean())
    assert record["estimate_error_std"] == float(errors.std())


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_full_mechanism_per_trial(tmp_path, name):
    fields, mech, want_k = CASES[name]
    inst = _instance(fields)
    record = _run_record(tmp_path, fields)
    if want_k is not None:
        assert record["k"] == want_k
    _assert_aggregates(record, _reference_estimates(mech, inst), inst)


@pytest.mark.parametrize("name", ["budget", "accuracy"])
def test_run_streams_ignore_what_the_last_trial_drew(tmp_path, monkeypatch, name):
    """A mechanism that leaves its stream anywhere in Philox's buffer, a
    different number of draws on each trial, changes no later trial."""
    fields, mech, _ = CASES[name]
    calls = itertools.count()

    def wasteful(inst, rng):
        out = mech(inst, rng)
        c = next(calls)
        rng.random(c % 7)
        rng.integers(0, 2 ** 32, size=c % 3, dtype=np.uint32)
        return out

    monkeypatch.setattr(cli, "_mechanism", lambda config: wasteful)
    inst = _instance(fields)
    _assert_aggregates(_run_record(tmp_path, fields), _reference_estimates(mech, inst), inst)


def _count_streams(monkeypatch) -> list:
    """The trial index of each stream built from here on, in order."""
    built = []

    def counted(seed, trial):
        built.append(trial)
        return trial_stream(seed, trial)

    monkeypatch.setattr(dp, "trial_stream", counted)
    monkeypatch.setattr(cli, "trial_stream", counted)
    return built


def test_run_builds_at_most_two_streams(tmp_path, monkeypatch):
    # one repositioned per trial, and one for the embedded checks
    built = _count_streams(monkeypatch)
    _run_record(tmp_path, CASES["budget"][0])
    assert len(built) <= 2


def test_sweep_builds_one_stream_per_point(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"population": POPULATION, "cost_family": "linear",
                               "scenario": "budget", "budget": 6.0, "trials": 5,
                               "sweep": {"parameter": "budget", "values": [1.0, 6.0, 9.0]}}))
    built = _count_streams(monkeypatch)
    assert main(["sweep", str(cfg), "--output", str(tmp_path / "report.json")]) == 0
    assert built == [0, 0, 0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_estimate_accuracy_matches_full_mechanism_per_trial(name):
    fields, mech, _ = CASES[name]
    inst = _instance(fields)
    ref = _reference_estimates(mech, inst)
    # a bound near the median error splits the trials into hits and misses
    bound = float(np.median(np.abs(ref - inst.pop.total)))
    misses = int(np.count_nonzero(np.abs(ref - inst.pop.total) >= bound))
    assert 0 < misses < TRIALS
    assert estimate_accuracy(mech, inst, bound, TRIALS, SEED) == misses / TRIALS


@pytest.mark.parametrize("seed, trial, first", [
    (0, 0, 0.011546754286331562),
    (2 ** 63, 5, 0.7957334294633526),
    (-1, 3, 0.11681445149574365),
])
def test_trial_stream_reference_values(seed, trial, first):
    assert trial_stream(seed, trial).random() == first
