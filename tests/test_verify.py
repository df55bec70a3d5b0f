import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import privauction
from corpus import random_instances, with_values
from privauction.core import (ALL_FAMILIES, Allocation, CostFamily,
                              DomainError, MechanismOutcome, Population, TOL,
                              cost_eval)
from privauction.dp import ACCURACY_CONST, trial_stream
from privauction import mechanisms
from privauction import verify as verify_mod
from privauction.mechanisms import (AccuracyInstance, BudgetInstance,
                                    fair_query, min_cost_auction)
from privauction.verify import (_misreport_blocks, check_envy_freeness,
                                check_estimator_privacy,
                                check_individual_rationality, check_necessity,
                                check_payment_optimality,
                                check_truthfulness, estimate_accuracy,
                                impossibility_bound, matched_alpha,
                                oracle_max_winners_envy_free,
                                oracle_min_payment_k_units,
                                pay_your_bid_control, payment_lower_bound,
                                run_suite)

RNG = lambda s=0: np.random.default_rng(s)


def hand_built(won, k, payments):
    """An outcome over a one-row allocation."""
    return MechanismOutcome(0.0, Allocation(np.array([won], dtype=bool), np.array([k]),
                                            np.array([payments], dtype=float)))


# --- individual rationality -------------------------------------------------

def test_ir_passes_on_fair_query_corpus():
    for inst in random_instances(100, seed=1, kind="budget"):
        out = fair_query(inst, RNG())
        assert check_individual_rationality(out, inst.pop, inst.model).passed


def test_ir_detects_constructed_failure():
    # n = 2, k = 1: agent 0 wins at eps = 1 and is paid nothing
    pop = Population(bits=[1, 0], values=[1.0, 5.0])
    out = hand_built([1, 0], 1, [0.0, 0.0])
    rep = check_individual_rationality(out, pop, CostFamily.LINEAR)
    assert not rep.passed
    assert rep.violations[0]["delta"] == pytest.approx(-1.0)


def test_ir_vacuous_when_nothing_bought():
    pop = Population(bits=[1, 0], values=[1.0, 2.0])
    out = hand_built([0, 0], 0, [0.0, 0.0])
    assert check_individual_rationality(out, pop, CostFamily.LINEAR).passed


def test_ir_tolerance_is_relative_to_the_payment():
    # agent 0 wins at eps = 1 (cost 1e8) and is paid one ulp less: rounding,
    # above an absolute 1e-9 but within 1e-9 of the payment; 1 less is not
    pop = Population(bits=[1, 0], values=[1e8, 2e8])
    ulp_short = hand_built([1, 0], 1, [np.nextafter(1e8, 0.0), 0.0])
    assert check_individual_rationality(ulp_short, pop, CostFamily.LINEAR).passed
    short = hand_built([1, 0], 1, [1e8 - 1.0, 0.0])
    assert not check_individual_rationality(short, pop, CostFamily.LINEAR).passed


# --- envy-freeness ----------------------------------------------------------

def test_envy_free_on_mechanism_outcomes():
    for inst in random_instances(50, seed=2, kind="budget"):
        out = fair_query(inst, RNG())
        assert check_envy_freeness(out, inst.pop, inst.model).passed
    for inst in random_instances(50, seed=3, kind="accuracy"):
        out = min_cost_auction(inst, RNG())
        assert check_envy_freeness(out, inst.pop, inst.model).passed


def test_envy_detects_unequal_winner_payments():
    pop = Population(bits=[1, 1, 0], values=[1.0, 1.0, 5.0])
    out = hand_built([1, 1, 0], 2, [2.0, 3.0, 0.0])   # eps = 1 for both winners
    assert not check_envy_freeness(out, pop, CostFamily.LINEAR).passed


def test_envy_vacuous_single_agent():
    pop = Population(bits=[1], values=[3.0])
    out = hand_built([0], 0, [0.0])
    assert check_envy_freeness(out, pop, CostFamily.LINEAR).passed


def test_envy_tolerance_is_relative_to_the_payments():
    # agent 1 loses with a cost one ulp below the winner's 1e8 payment at
    # eps = 1: rounding, within 1e-9 of that payment; 1 below is envy
    out = hand_built([1, 0], 1, [1e8, 0.0])
    ulp_below = Population(bits=[1, 0], values=[1.0, np.nextafter(1e8, 0.0)])
    assert check_envy_freeness(out, ulp_below, CostFamily.LINEAR).passed
    below = Population(bits=[1, 0], values=[1.0, 1e8 - 1.0])
    assert not check_envy_freeness(out, below, CostFamily.LINEAR).passed


@pytest.mark.parametrize("check", [check_individual_rationality, check_envy_freeness])
def test_nan_costs_are_violations(monkeypatch, check):
    inst = BudgetInstance(pop=Population(bits=[1, 0, 1, 1], values=[1.0, 2.0, 4.0, 8.0]),
                          model=CostFamily.LINEAR, budget=4.0)
    out = fair_query(inst, RNG())
    assert out.winner_count > 0 and check(out, inst.pop, inst.model).passed
    monkeypatch.setattr(verify_mod, "cost_eval",
                        lambda model, v, eps: np.full(np.broadcast(v, eps).shape, np.nan))
    assert not check(out, inst.pop, inst.model).passed


@pytest.mark.parametrize("check", [check_individual_rationality, check_envy_freeness,
                                   check_payment_optimality])
@pytest.mark.parametrize("n", [1, 8, 32])
def test_population_of_another_size_rejected(check, n):
    inst = BudgetInstance(pop=Population(bits=np.ones(16, int), values=np.arange(1.0, 17.0)),
                          model=CostFamily.LINEAR, budget=20.0)
    out = fair_query(inst, RNG())
    assert out.allocation.won.shape[1] == 16
    other = Population(bits=np.ones(n, int), values=np.zeros(n))
    with pytest.raises(DomainError, match="number of agents"):
        check(out, other, CostFamily.LINEAR)


def reference_envy_violations(outcome, pop, model):
    """Envy-freeness over all n x n (agent, envied agent) pairs, the form the
    per-bundle check must reproduce."""
    payments = outcome.payments
    costs = cost_eval(model, pop.values[:, None], outcome.epsilons[None, :])
    utility = payments[None, :] - costs
    with np.errstate(invalid="ignore"):
        envy = utility - np.diag(utility)[:, None]
    tol = TOL * np.maximum(1.0, np.abs(np.maximum.outer(payments, payments)))
    i, j = np.nonzero(~(envy <= tol))
    return [{"agent": a, "datum": {"envies": b}, "delta": d}
            for a, b, d in zip(i.tolist(), j.tolist(), envy[i, j].tolist())]


@st.composite
def envy_cases(draw):
    """A hand-built outcome with few distinct payments, so bundles repeat,
    over values up to magnitudes whose costs overflow (NaN envy)."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(0, n - 1))
    levels = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e8, 1e300]),
                           min_size=1, max_size=3))
    payments = [draw(st.sampled_from(levels)) for _ in range(n)]
    pop = Population(bits=np.ones(n, int), values=[draw(MAGNITUDE) for _ in range(n)])
    won = np.isin(np.arange(n), order[:k])
    return hand_built(won, k, payments), pop, draw(st.sampled_from(ALL_FAMILIES))


@settings(max_examples=300, deadline=None)
@given(case=envy_cases())
def test_envy_equals_the_pairwise_reference(case):
    out, pop, model = case
    got = check_envy_freeness(out, pop, model).violations
    assert repr(got) == repr(reference_envy_violations(out, pop, model))


def test_envy_equals_the_pairwise_reference_on_auction_outcomes():
    for inst in random_instances(200, seed=5, kind="budget"):
        for mech in (fair_query, pay_your_bid_control):
            out = mech(inst, RNG())
            got = check_envy_freeness(out, inst.pop, inst.model).violations
            assert repr(got) == repr(reference_envy_violations(out, inst.pop, inst.model))
    for inst in random_instances(100, seed=6, kind="accuracy"):
        out = min_cost_auction(inst, RNG())
        assert check_envy_freeness(out, inst.pop, inst.model).passed


def test_envy_memory_is_bounded_at_n_4000():
    # n x bundles, not n x n: four 4000 x 4000 float arrays took ~500 MB
    n = 4000
    rng = RNG(0)
    pop = Population(bits=rng.integers(0, 2, n), values=rng.uniform(0.0, 10.0, n))
    inst = BudgetInstance(pop=pop, model=CostFamily.EXP_SCALED, budget=2.0 * n)
    out = fair_query(inst, RNG())
    tracemalloc.start()
    try:
        assert check_envy_freeness(out, inst.pop, inst.model).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# --- truthfulness -----------------------------------------------------------

def test_fair_query_truthful_on_corpus():
    for inst in random_instances(60, seed=4, n_hi=12, kind="budget"):
        assert check_truthfulness(fair_query, inst).passed


def test_min_cost_truthful_on_corpus():
    for inst in random_instances(60, seed=5, n_hi=12, kind="accuracy"):
        assert check_truthfulness(min_cost_auction, inst).passed


def brute_force_deviation_search(mechanism, inst, samples=200):
    """Oracle: dense random deviation search (not grid-based)."""
    rng = np.random.default_rng(12345)
    pop = inst.pop
    base = mechanism(inst, RNG())
    hi = 2.0 * max(pop.values.max(), 1.0)
    for i in range(pop.n):
        true_util = base.payments[i] - cost_eval(inst.model, pop.values[i],
                                                 base.epsilons[i])
        for v_prime in rng.uniform(0.0, hi, size=samples):
            reported = pop.values.copy()
            reported[i] = v_prime
            out = mechanism(dataclasses.replace(inst, pop=with_values(pop, reported)),
                            RNG())
            util = out.payments[i] - cost_eval(inst.model, pop.values[i],
                                               out.epsilons[i])
            if util > true_util + 1e-9:
                return True
    return False


def grid_for(values, i):
    """Oracle: agent i's misreport grid by its definition, the candidates
    `_misreport_blocks` builds for a block of agents in one pass: zero,
    every value and its one-ulp neighbours, and her own multiples."""
    cands = np.concatenate([
        [0.0],
        values,
        np.nextafter(values, 0.0),
        np.nextafter(values, np.finfo(float).max),
        values[i] * np.array([0.5, 0.9, 1.1, 2.0]),
    ])
    return np.unique(cands)


def misreport_run(mechanism, inst, i, v_prime):
    """Oracle: a full run of `mechanism` on a copy of `inst` in which agent i
    alone reports v_prime."""
    reported = inst.pop.values.copy()
    reported[i] = v_prime
    return mechanism(dataclasses.replace(inst, pop=with_values(inst.pop, reported)), RNG())


def reference_check_truthfulness(mechanism, inst):
    """Oracle: the per-misreport loop, one full mechanism run per grid
    candidate, that `check_truthfulness` batches through the allocation rule."""
    pop = inst.pop
    truthful = mechanism(inst, RNG())
    true_util = truthful.payments - cost_eval(inst.model, pop.values, truthful.epsilons)
    violations = []
    for i in range(pop.n):
        for v_prime in grid_for(pop.values, i):
            out = misreport_run(mechanism, inst, i, v_prime)
            util = out.payments[i] - cost_eval(inst.model, pop.values[i], out.epsilons[i])
            if util > true_util[i] + TOL * max(1.0, out.payments[i], truthful.payments[i]):
                violations.append({"agent": int(i), "datum": float(v_prime),
                                   "delta": float(util - true_util[i])})
    return {"property": "truthfulness", "pass": not violations,
            "violations": violations, "tolerance": TOL}


@pytest.mark.parametrize("kind, mechanism", [
    ("budget", fair_query), ("accuracy", min_cost_auction),
    ("budget", pay_your_bid_control)])
def test_truthfulness_equals_per_misreport_reference(kind, mechanism):
    for inst in random_instances(12, seed=21, n_hi=16, kind=kind):
        assert (check_truthfulness(mechanism, inst).to_dict()
                == reference_check_truthfulness(mechanism, inst))


def test_truthfulness_reads_the_rule_through_a_wrapper():
    wrapped = functools.wraps(fair_query)(lambda inst, rng: fair_query(inst, rng))
    inst = random_instances(1, seed=22, kind="budget")[0]
    assert (check_truthfulness(wrapped, inst).to_dict()
            == check_truthfulness(fair_query, inst).to_dict())


def batched_check_truthfulness(mechanism, inst, block_cells=1 << 16):
    """Oracle: every grid candidate through `mechanism.rule`, consecutive
    agents' grids stacked into report matrices of at most `block_cells`
    cells (at least one agent each), which `check_truthfulness` replaces by
    a unilateral sweep."""
    pop, model = inst.pop, inst.model
    values, n = pop.values, pop.n
    truthful = mechanism(inst, RNG())
    true_util = truthful.payments - cost_eval(model, values, truthful.epsilons)
    blocks, agents, cands = [], [], []
    for i in range(n):
        c = grid_for(values, i)
        if cands and (sum(map(len, cands)) + c.size) * n > block_cells:
            blocks.append((np.concatenate(agents), np.concatenate(cands)))
            agents, cands = [], []
        agents.append(np.full(c.size, i))
        cands.append(c)
    blocks.append((np.concatenate(agents), np.concatenate(cands)))
    violations = []
    for agents, candidates in blocks:
        rows = np.arange(agents.size)
        reports = np.tile(values, (rows.size, 1))
        reports[rows, agents] = candidates
        alloc = mechanism.rule(inst, reports)
        pay = alloc.payments[rows, agents]
        util = pay - cost_eval(model, values[agents], alloc.epsilons[rows, agents])
        tol = TOL * np.maximum(1.0, np.maximum(pay, truthful.payments[agents]))
        for j in np.flatnonzero(util > true_util[agents] + tol):
            i = int(agents[j])
            violations.append({"agent": i, "datum": float(candidates[j]),
                               "delta": float(util[j] - true_util[i])})
    return {"property": "truthfulness", "pass": not violations,
            "violations": violations, "tolerance": TOL}


def block_corpus(n, seed, count=4):
    """(mechanism, instance) pairs at n agents over all four cost families:
    uniform values, the same values floored (ties), and for the budget
    auctions budget 0 (k = 0) and a budget that binds the price; the budget
    instances also run the pay-your-bid control."""
    cases = []
    for kind, mechs in (("budget", (fair_query, pay_your_bid_control)),
                        ("accuracy", (min_cost_auction,))):
        for inst in random_instances(count, seed, n_lo=n, n_hi=n, kind=kind):
            variants = [inst, dataclasses.replace(
                inst, pop=with_values(inst.pop, np.floor(inst.pop.values)))]
            if kind == "budget":
                variants.append(dataclasses.replace(inst, budget=0.0))
                variants.append(dataclasses.replace(inst, budget=binding_budget(inst)))
            cases += [(mech, case) for case in variants for mech in mechs]
    return cases


def binding_budget(inst):
    """A budget at which fair_query's price is budget/k: k times the
    midpoint between the k-th cheapest report's cost and the first excluded
    one's, at the k of the instance's own budget (1 if that buys none)."""
    n = inst.pop.n
    k = max(fair_query(inst, RNG()).winner_count, 1)
    v = np.sort(inst.pop.values)
    last_in, first_out = cost_eval(inst.model, v[k - 1:k + 1], 1.0 / (n - k))
    return float(k * (last_in + first_out) / 2.0)


@pytest.mark.parametrize("n, count", [(16, 4), (48, 4), (80, 4), (128, 1)])
def test_truthfulness_equals_batched_reference(n, count):
    cases = block_corpus(n, seed=30 + n, count=count)
    reports = [check_truthfulness(mech, inst).to_dict() for mech, inst in cases]
    assert any(not rep["pass"] for rep in reports)   # the negative control
    assert reports == [batched_check_truthfulness(mech, inst) for mech, inst in cases]


@pytest.mark.parametrize("cells", [7, 17, 150])
def test_truthfulness_is_the_same_across_block_boundaries(monkeypatch, cells):
    # at n = 16, 7 and n + 1 cells put one agent in each grid block and one
    # row in each rule call; 150 puts two agents in a block and 9 rows in a
    # rule call
    cases = block_corpus(16, seed=33, count=2)
    assert {mech for mech, _ in cases} == {fair_query, min_cost_auction,
                                           pay_your_bid_control}
    monkeypatch.setattr(verify_mod, "_BLOCK_CELLS", cells)
    assert len(list(_misreport_blocks(cases[0][1].pop.values, cells))) > 1
    reports = [check_truthfulness(mech, inst).to_dict() for mech, inst in cases]
    assert any(not rep["pass"] for rep in reports)   # the negative control
    assert reports == [batched_check_truthfulness(mech, inst) for mech, inst in cases]


def test_unilateral_set_up_is_built_once_per_instance(monkeypatch):
    # one agent per block: 16 unilateral calls per check, and the control
    # shares fair_query's set-up through fair_query.unilateral
    built = []
    ranking = mechanisms._ranking

    def counted(keys):
        built.append(keys)
        return ranking(keys)

    monkeypatch.setattr(mechanisms, "_ranking", counted)
    monkeypatch.setattr(verify_mod, "_BLOCK_CELLS", 17)
    cases = block_corpus(16, seed=33, count=1)
    assert len(list(_misreport_blocks(cases[0][1].pop.values, 17))) == 16
    for mech, inst in cases:
        check_truthfulness(mech, inst)
    assert len(built) == len({id(inst) for _, inst in cases}) == 6

    # a replaced instance gets fresh tables: at budget 0 nobody wins
    inst = cases[0][1]
    agents, values = np.arange(inst.pop.n), inst.pop.values
    assert (fair_query.unilateral(inst, agents, values)[0] > 0).all()
    assert len(built) == 6
    broke = dataclasses.replace(inst, budget=0.0)
    assert (fair_query.unilateral(broke, agents, values)[0] == 0).all()
    assert len(built) == 7


@pytest.mark.parametrize("mechanism", [fair_query, min_cost_auction, pay_your_bid_control],
                         ids=["fair_query", "min_cost_auction", "pay_your_bid_control"])
def test_truthfulness_at_n_16_makes_one_unilateral_call(mechanism):
    calls = []

    def unilateral(inst, agents, reports):
        calls.append(agents.size)
        return mechanism.unilateral(inst, agents, reports)

    mech = with_forms(mechanism, mechanism.rule, unilateral)
    kind = "accuracy" if mechanism is min_cost_auction else "budget"
    inst = random_instances(1, seed=27, n_lo=16, n_hi=16, kind=kind)[0]
    assert check_truthfulness(mech, inst).to_dict() == check_truthfulness(
        mechanism, inst).to_dict()
    assert len(calls) == 1 and calls[0] > 16   # every agent's grid, in one call


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_truthfulness_memory_is_bounded_at_n_2000():
    # one fair_query check in a fresh process: the grid is built per block
    # of agents, so its peak stays O(n); all at once it took ~400 MB.  The
    # child reads its own peak, VmHWM: its ru_maxrss would also count this
    # process's resident set, which a child started by vfork inherits.
    script = """
import re
import numpy as np
from privauction.core import CostFamily, Population
from privauction.mechanisms import BudgetInstance, fair_query
from privauction.verify import check_truthfulness
n = 2000
rng = np.random.default_rng(0)
pop = Population(bits=rng.integers(0, 2, n), values=rng.uniform(0.0, 10.0, n))
inst = BudgetInstance(pop=pop, model=CostFamily.EXP_SCALED, budget=2.0 * n)
assert check_truthfulness(fair_query, inst).passed
with open("/proc/self/status") as fh:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(privauction.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout.split()[-1]) / 1024
    assert peak_mb < 100.0


def recording(mechanism):
    """A functools.wraps wrapper of `mechanism` whose rule records the row
    count of every report matrix it is given."""
    rows = []

    @functools.wraps(mechanism.rule)
    def rule(inst, values):
        rows.append(values.shape[0])
        return mechanism.rule(inst, values)

    wrapped = functools.wraps(mechanism)(lambda inst, rng: mechanism(inst, rng))
    wrapped.rule = rule
    return wrapped, rows


@pytest.mark.parametrize("mechanism", [fair_query, min_cost_auction],
                         ids=["fair_query", "min_cost_auction"])
def test_truthful_corpora_send_no_rows_to_the_rule(mechanism):
    for n in (2, 16, 48):
        for mech, inst in block_corpus(n, seed=40 + n):
            if mech is mechanism:
                recorded, rows = recording(mechanism)
                assert check_truthfulness(recorded, inst).passed
                assert rows == []


def test_the_rule_decides_only_the_control_s_violations():
    mech, rows = recording(pay_your_bid_control)
    inst = random_instances(1, seed=24, n_lo=48, n_hi=48, kind="budget")[0]
    report = check_truthfulness(mech, inst)
    assert len(report.violations) == sum(rows) > 0


def with_forms(run, rule, unilateral):
    """A wrapper of the mechanism run `run` carrying the given forms."""
    mech = functools.wraps(run)(lambda inst, rng: run(inst, rng))
    mech.rule, mech.unilateral = rule, unilateral
    return mech


@pytest.mark.parametrize("mech", [
    # the rule pays threshold prices where the sweep bounds bids
    with_forms(pay_your_bid_control, fair_query.rule, pay_your_bid_control.unilateral),
    # the sweep pays bids below the truthful run's threshold prices
    with_forms(fair_query, fair_query.rule, pay_your_bid_control.unilateral),
], ids=["rule-pays-more", "unilateral-pays-less"])
def test_truthfulness_raises_when_rule_and_unilateral_disagree(mech):
    for inst in random_instances(12, seed=25, kind="budget"):
        if fair_query(inst, RNG()).winner_count > 0:
            with pytest.raises(DomainError):
                check_truthfulness(mech, inst)


def test_grid_candidates_equal_per_agent_definition():
    # -0.0, subnormals and all-zero sets: the grid is built from values >= 0
    # and their neighbours toward 0 and up, so it never holds a negative
    # candidate to drop
    for inst in random_instances(20, seed=26, n_lo=1, kind="budget"):
        n = inst.pop.n
        for values in (inst.pop.values, np.floor(inst.pop.values), np.zeros(n),
                       np.full(n, -0.0), np.where(np.arange(n) % 2, -0.0, 0.0),
                       np.full(n, 5e-324), inst.pop.values * 1e-310,
                       np.where(inst.pop.values < 5.0, -0.0, inst.pop.values)):
            grids = [grid_for(values, i) for i in range(values.size)]
            # one block, one agent per block, and blocks of a few agents
            for cells in (1 << 16, 1, 3 * values.size):
                agents, cands = all_candidates(values, cells)
                for i, grid in enumerate(grids):   # listed in any order
                    assert np.array_equal(np.sort(cands[agents == i]), grid)
                assert (cands >= 0).all()


def test_the_zero_candidate_is_positive_zero():
    # -0.0 == 0.0, so a grid built by sorting keeps whichever zero its sort
    # puts first; a violation's datum must not depend on that order
    for inst in random_instances(20, seed=26, n_lo=1, kind="budget"):
        n = inst.pop.n
        for values in (np.full(n, -0.0), np.where(np.arange(n) % 2, -0.0, 0.0),
                       np.where(inst.pop.values < 5.0, -0.0, inst.pop.values)):
            _, cands = all_candidates(values, 1 << 16)
            assert not np.signbit(cands).any()


def all_candidates(values, cells):
    """Every block of `_misreport_blocks(values, cells)` concatenated, after
    checking that the blocks cover the agents in order, each block's agents
    lie in its range, and no block of two or more agents exceeds `cells`."""
    blocks = list(_misreport_blocks(values, cells))
    assert [lo for lo, *_ in blocks] == [0] + [hi for _, hi, *_ in blocks[:-1]]
    assert blocks[-1][1] == values.size
    for lo, hi, agents, cands in blocks:
        assert ((lo <= agents) & (agents < hi)).all()
        assert hi - lo == 1 or cands.size <= cells
    return (np.concatenate([agents for *_, agents, _ in blocks]),
            np.concatenate([cands for *_, cands in blocks]))


def test_truthfulness_fails_closed_on_a_misreport_overflow():
    inst = AccuracyInstance(pop=Population(bits=[1, 0], values=[1.0, 400.0]),
                            model=CostFamily.EXP_ARG, alpha=0.5 * ACCURACY_CONST)
    # truthful reports are priced at expm1(400) ~ 5.2e173; reporting 800
    # (the grid's 2x multiplier) overflows the unit cost
    assert math.isfinite(min_cost_auction(inst, RNG()).total_payment)
    with pytest.raises(DomainError):
        check_truthfulness(min_cost_auction, inst)


def test_pay_your_bid_control_is_manipulable():
    pop = Population(bits=[1, 0, 1, 1], values=[1.0, 2.0, 4.0, 8.0])
    inst = BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=4.0)
    # oracle first: exhaustive-ish random deviation search finds a profit
    assert brute_force_deviation_search(pay_your_bid_control, inst)
    rep = check_truthfulness(pay_your_bid_control, inst)
    assert not rep.passed
    assert rep.violations  # the grid finds it too


def test_grid_candidates_cover_pivots():
    values = np.array([1.0, 2.0, 4.0])
    agents, cands = all_candidates(values, 1 << 16)
    cands = cands[agents == 0]
    assert 0.0 in cands and 2.0 in cands and 4.0 in cands
    assert np.all(cands >= 0)


@pytest.mark.parametrize("n, hi", [(16, 10.0), (2000, 10.0), (16, 1e-8), (200, 1e-3)])
def test_grid_reaches_every_rank(n, hi):
    # values closer than an absolute nudge, or all below it, leave ranks
    # that only a one-ulp neighbour reaches
    values = np.random.default_rng(n).uniform(0.0, hi, size=n)
    ranking = mechanisms._ranking(values)
    reached = np.zeros((n, n), dtype=bool)   # agent, rank among the others
    for *_, agents, cands in _misreport_blocks(values, verify_mod._BLOCK_CELLS):
        reached[agents, mechanisms._positions(*ranking, agents, cands)[1]] = True
    assert reached.all()


def strictly_between_rule(inst, reports):
    """A stub allocation rule: nobody wins, and each agent whose report lies
    strictly between the lowest and highest report of her row is paid 1."""
    reports = mechanisms._reports(inst, BudgetInstance, reports)
    ranked = np.sort(reports, axis=1)
    paid = (ranked[:, :1] < reports) & (reports < ranked[:, -1:])
    return Allocation(np.zeros(reports.shape, dtype=bool),
                      np.zeros(reports.shape[0], dtype=int), paid.astype(float))


def strictly_between_unilateral(inst, agents, reports):
    """The stub's unilateral form, through its rule."""
    rows = np.arange(agents.size)
    matrix = np.tile(inst.pop.values, (rows.size, 1))
    matrix[rows, agents] = reports
    alloc = strictly_between_rule(inst, matrix)
    pay = alloc.payments[rows, agents]
    return alloc.k, pay, alloc.epsilons[rows, agents], pay


def strictly_between(inst, rng):
    return MechanismOutcome(0.0, strictly_between_rule(inst, inst.pop.values[None, :]))


strictly_between.rule = strictly_between_rule
strictly_between.unilateral = strictly_between_unilateral


def test_truthfulness_finds_a_gain_between_values_one_nudge_apart():
    # agent 1 is paid truthfully; agents 0 and 2 gain only by reporting
    # strictly between the other two, 1e-7 apart, where none of their own
    # multiples lies and a value nudged by 1e-6 lands outside
    values = np.array([1.0, 1.0 + 1e-7, 1.0 + 2e-7])
    inst = BudgetInstance(pop=Population(bits=[1, 1, 1], values=values),
                          model=CostFamily.LINEAR, budget=0.0)
    rep = check_truthfulness(strictly_between, inst)
    assert {v["agent"] for v in rep.violations} == {0, 2}
    for v in rep.violations:
        others = np.delete(values, v["agent"])
        assert others.min() < v["datum"] < others.max() and v["delta"] == 1.0


# --- tolerance per cost family at extreme magnitudes -------------------------

# zero, the smallest subnormal and 1e300 beside ordinary values
MAGNITUDE = st.one_of(st.sampled_from([0.0, 5e-324, 1e300]), st.floats(0.0, 10.0))


@st.composite
def extreme_outcomes(draw, family, kind):
    """An auction's outcome on an instance with values at extreme magnitudes,
    skipping instances on which the rule fails closed (a paid cost
    overflows)."""
    n = draw(st.integers(2, 8))
    pop = Population(bits=np.ones(n, int), values=[draw(MAGNITUDE) for _ in range(n)])
    if kind == "budget":
        budget = draw(st.one_of(st.floats(0.0, 10.0 * n),
                                st.sampled_from([1e300, 1e301])))
        inst, mech = BudgetInstance(pop=pop, model=family, budget=budget), fair_query
    else:
        alpha = draw(st.floats(1.0 / n + 1e-9, 0.6)) * ACCURACY_CONST
        inst = AccuracyInstance(pop=pop, model=family, alpha=alpha)
        mech = min_cost_auction
    try:
        out = mech(inst, RNG())
    except DomainError:
        assume(False)
    return inst, out


def repaid(out, payments):
    """`out` with its payments replaced."""
    alloc = out.allocation
    return MechanismOutcome(out.estimate, Allocation(alloc.won, alloc.k, np.array([payments])))


def beyond_tolerance(reference):
    """Four times the checkers' tolerance at `reference`: a gap that no
    rounding explains."""
    return 4.0 * TOL * max(1.0, abs(reference))


def nan_costs(model, v, eps):
    return np.full(np.broadcast(v, eps).shape, np.nan)


KINDS = st.sampled_from(["budget", "accuracy"])


@pytest.mark.parametrize("family", ALL_FAMILIES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ir_tolerance_per_family(family, data):
    inst, out = data.draw(extreme_outcomes(family, data.draw(KINDS)))
    check = lambda o: check_individual_rationality(o, inst.pop, inst.model)
    assert check(out).passed
    costs = cost_eval(inst.model, inst.pop.values, out.epsilons)
    for i in np.flatnonzero(out.allocation.won[0]):
        payments = out.payments.copy()
        payments[i] = np.nextafter(costs[i], 0.0) if costs[i] > 0 else 0.0
        assert check(repaid(out, payments)).passed   # one ulp short: rounding
        gap = beyond_tolerance(costs[i])
        if costs[i] >= gap:
            payments[i] = costs[i] - gap
            assert [v["agent"] for v in check(repaid(out, payments)).violations] == [i]
    with mock.patch.object(verify_mod, "cost_eval", nan_costs):
        assert not check(out).passed


@pytest.mark.parametrize("family", ALL_FAMILIES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_envy_tolerance_per_family(family, data):
    inst, out = data.draw(extreme_outcomes(family, data.draw(KINDS)))
    check = lambda o: check_envy_freeness(o, inst.pop, inst.model)
    assert check(out).passed
    winners = np.flatnonzero(out.allocation.won[0]).tolist()
    if len(winners) >= 2:
        i, price = winners[0], out.payments[winners[1]]
        payments = out.payments.copy()
        payments[i] = np.nextafter(price, 0.0) if price > 0 else 0.0
        assert check(repaid(out, payments)).passed   # one ulp short: rounding
        gap = beyond_tolerance(price)
        if price >= gap:
            # winner i, paid less at the same privacy level, envies the other
            # winners (and the losers' bundle where she is paid below her cost)
            payments[i] = price - gap
            rep = check(repaid(out, payments))
            assert {v["agent"] for v in rep.violations} == {i}
            assert set(winners[1:]) <= {v["datum"]["envies"] for v in rep.violations}
    with mock.patch.object(verify_mod, "cost_eval", nan_costs):
        assert not check(out).passed


@pytest.mark.parametrize("family", ALL_FAMILIES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_payment_optimality_tolerance_per_family(family, data):
    inst, out = data.draw(extreme_outcomes(family, "accuracy"))
    check = lambda o: check_payment_optimality(o, inst.pop, inst.model)
    assert check(out).passed
    oracle = oracle_min_payment_k_units(inst.pop, inst.model, out.winner_count)
    i = np.flatnonzero(out.allocation.won[0])[0]
    payments = out.payments.copy()
    payments[i] = np.nextafter(payments[i], 0.0) if payments[i] > 0 else 0.0
    assert check(repaid(out, payments)).passed   # one ulp short: rounding
    gap = beyond_tolerance(oracle)
    if out.payments[i] >= gap:
        payments[i] = out.payments[i] - gap
        assert not check(repaid(out, payments)).passed
    with mock.patch.object(verify_mod, "oracle_min_payment_k_units",
                           lambda *args: math.nan):
        assert not check(out).passed


# --- necessity and payment bounds -------------------------------------------

def test_necessity_boundary():
    n, alpha = 10, 0.4
    need = math.ceil((1 - alpha) * n)
    eps = np.zeros(n)
    eps[:need] = 1.0 / (alpha * n)
    assert check_necessity(eps, alpha)
    eps[need - 1] = 0.0
    assert not check_necessity(eps, alpha)
    assert not check_necessity(np.full(n, np.nan), alpha)


def test_necessity_rejects_an_empty_population():
    with pytest.raises(DomainError, match="n >= 1"):
        check_necessity([], 0.5)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_necessity_tolerance_per_family(family, data):
    # at its matched alpha = (n - k)/n an outcome has k = ceil((1 - alpha) n)
    # winners at level 1/(alpha n), both up to rounding: it meets the
    # condition, also one ulp short, and fails it with one winner fewer
    inst, out = data.draw(extreme_outcomes(family, data.draw(KINDS)))
    n, k = inst.pop.n, out.winner_count
    assume(0 < k < n)
    alpha = matched_alpha(out)
    assert check_necessity(out.epsilons, alpha)
    i = np.flatnonzero(out.allocation.won[0])[0]
    for level, meets in ((np.nextafter(out.epsilons[i], 0.0), True), (0.0, False),
                         (np.nan, False)):
        eps = out.epsilons.copy()
        eps[i] = level
        assert check_necessity(eps, alpha) is meets


def test_outcome_gives_its_own_n():
    # 4 agents, linear costs, budget 2: k = 2 winners, so n - k = 2
    pop = Population(bits=[1, 0, 1, 0], values=[1.0, 2.0, 4.0, 8.0])
    out = fair_query(BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=2.0), RNG())
    assert out.winner_count == 2
    assert matched_alpha(out) == 0.5
    assert verify_mod.accuracy_level(out) == 2 * ACCURACY_CONST


def test_mechanism_outcomes_pass_necessity():
    for inst in random_instances(50, seed=6, kind="accuracy"):
        out = min_cost_auction(inst, RNG())
        assert check_necessity(out.epsilons, matched_alpha(out))


def test_payment_lower_bound_vacuous():
    pop = Population(bits=[1, 0], values=[1.0, 2.0])
    assert payment_lower_bound(pop, CostFamily.LINEAR, 0.3) == 0.0


def test_payment_lower_bound_example():
    pop = Population(bits=np.ones(8, int),
                     values=[1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0])
    bound = payment_lower_bound(pop, CostFamily.LINEAR, 1.0 / 8.0)
    assert bound == pytest.approx(1.5, abs=1e-12)  # (1+1+2+2) * 1/4


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_payment_lower_bound_checks_the_eps_it_derives(family):
    # eps = 1/(4 alpha n) overflows for a subnormal alpha; a tiny normal one
    # gives a finite eps whose cost may overflow, read as an inf bound
    pop = Population(bits=[1, 0, 1], values=[1.0, 2.0, 3.0])
    with pytest.raises(DomainError, match="eps must be finite and >= 0"):
        payment_lower_bound(pop, family, 5e-324)
    assert payment_lower_bound(pop, family, 1e-200) > 0


def test_control_prices_reports_as_floats():
    inst = BudgetInstance(pop=Population(bits=[1, 0, 1], values=[1.0, 2.0, 3.0]),
                          model=CostFamily.LINEAR, budget=20.0)
    _, pay, _, _ = pay_your_bid_control.unilateral(inst, np.array([0]), [10**20])
    assert pay.dtype == np.float64
    alloc = pay_your_bid_control.rule(inst, [[10**20, 2, 3]])
    assert alloc.payments.dtype == np.float64


def test_impossibility_bound_examples():
    assert impossibility_bound([5.0, 10.0]) == pytest.approx(1.4384103622589042,
                                                             abs=1e-9)
    assert impossibility_bound([0.0, 3.0]) == 0.0
    assert impossibility_bound([2.0, 6.0]) == pytest.approx(
        2.0 * impossibility_bound([1.0, 3.0]), rel=1e-12)
    with pytest.raises(DomainError):
        impossibility_bound([])


def test_impossibility_bound_diverges():
    bounds = [impossibility_bound([10.0 ** i, 10.0 ** (i + 1)]) for i in range(7)]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))


# --- oracles ----------------------------------------------------------------

def test_oracle_max_winners_example():
    pop = Population(bits=[1, 0, 1, 1], values=[1.0, 2.0, 4.0, 8.0])
    assert oracle_max_winners_envy_free(pop, CostFamily.LINEAR, 2.0) == 2
    assert oracle_max_winners_envy_free(pop, CostFamily.LINEAR, 0.0) == 0


def test_oracle_matches_fair_query():
    for inst in random_instances(150, seed=7, kind="budget"):
        out = fair_query(inst, RNG())
        assert out.winner_count == oracle_max_winners_envy_free(
            inst.pop, inst.model, inst.budget)


def test_oracle_min_payment_example():
    pop = Population(bits=np.ones(10, int), values=np.arange(1.0, 11.0))
    assert oracle_min_payment_k_units(pop, CostFamily.LINEAR, 8) == pytest.approx(36.0)


def test_oracle_min_payment_equal_values():
    pop = Population(bits=np.ones(6, int), values=np.full(6, 2.0))
    k = 4
    expected = k * cost_eval(CostFamily.QUADRATIC, 2.0, 1.0 / 2.0)
    assert oracle_min_payment_k_units(pop, CostFamily.QUADRATIC, k) == pytest.approx(expected)


@pytest.mark.parametrize("k", [1.5, True, 2.0], ids=["fraction", "bool", "integral-float"])
def test_oracle_min_payment_rejects_a_non_integer_k(k):
    pop = Population(bits=np.ones(4, int), values=np.arange(1.0, 5.0))
    with pytest.raises(DomainError, match="must be an integer"):
        oracle_min_payment_k_units(pop, CostFamily.LINEAR, k)


def test_oracle_matches_min_cost_auction():
    for inst in random_instances(150, seed=8, kind="accuracy"):
        out = min_cost_auction(inst, RNG())
        oracle = oracle_min_payment_k_units(inst.pop, inst.model, out.winner_count)
        assert out.total_payment == pytest.approx(oracle, abs=1e-9)


def test_min_cost_beats_lower_bound():
    from privauction.verify import accuracy_level
    for inst in random_instances(100, seed=9, kind="accuracy"):
        out = min_cost_auction(inst, RNG())
        alpha = accuracy_level(out) / inst.pop.n
        if 0 < alpha < 1:
            bound = payment_lower_bound(inst.pop, inst.model, alpha)
            assert out.total_payment >= bound - 1e-9


# --- accuracy estimation ----------------------------------------------------

def test_estimate_accuracy_zero_bound():
    pop = Population(bits=[1, 0, 1, 1], values=[1.0, 2.0, 4.0, 8.0])
    inst = BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=2.0)
    assert estimate_accuracy(fair_query, inst, 0.0, trials=50, seed=0) == 1.0


def test_estimate_accuracy_deterministic():
    pop = Population(bits=[1, 0, 1, 1], values=[1.0, 2.0, 4.0, 8.0])
    inst = BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=2.0)
    a = estimate_accuracy(fair_query, inst, 2.0, trials=200, seed=5)
    b = estimate_accuracy(fair_query, inst, 2.0, trials=200, seed=5)
    assert a == b


@pytest.mark.parametrize("trials", [2.5, True, 50.0], ids=["fraction", "bool", "integral-float"])
def test_estimate_accuracy_rejects_non_integer_trials(trials):
    pop = Population(bits=[1, 0, 1, 1], values=[1.0, 2.0, 4.0, 8.0])
    inst = BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=2.0)
    with pytest.raises(DomainError, match="must be an integer"):
        estimate_accuracy(fair_query, inst, 2.0, trials=trials, seed=0)


# --- suite ------------------------------------------------------------------

def test_suite_passes_on_clean_corpus():
    instances = (random_instances(6, seed=10, n_hi=8, kind="budget")
                 + random_instances(6, seed=11, n_hi=8, kind="accuracy"))
    reports = run_suite(instances)
    assert reports
    for rep in reports:
        assert rep.passed, (rep.property_name, rep.violations[:3])


def test_suite_refuses_an_empty_corpus():
    # an empty report list would read as a pass to all(r.passed ...)
    with pytest.raises(DomainError, match="no instances"):
        run_suite([])
    with pytest.raises(DomainError, match="no instances"):
        run_suite(iter(()), negative_control=True)


def test_suite_flags_negative_control():
    instances = random_instances(6, seed=12, n_hi=8, kind="budget")
    reports = run_suite(instances, negative_control=True)
    by_name = {r.property_name: r for r in reports}
    assert not by_name["truthfulness"].passed


@pytest.mark.parametrize("negative_control", [False, True], ids=["auctions", "control"])
def test_no_suite_report_reads_the_noise(monkeypatch, negative_control):
    # run_suite and check_truthfulness draw from trial_stream only for an
    # estimate that no report reads, so another seed gives the same reports
    instances = (random_instances(4, seed=13, n_hi=8, kind="budget")
                 + random_instances(4, seed=14, n_hi=8, kind="accuracy"))
    first = [r.to_dict() for r in run_suite(instances, negative_control)]
    seeds = []

    def reseeded(seed, trial):
        seeds.append(seed)
        return trial_stream(seed + 1000, trial)

    monkeypatch.setattr(verify_mod, "trial_stream", reseeded)
    assert [r.to_dict() for r in run_suite(instances, negative_control)] == first
    assert len(seeds) == 2 * len(instances)   # one run each, and its truthful re-run


@pytest.mark.parametrize("nan_side", ["mechanism", "reference"])
def test_nan_payment_totals_are_violations(monkeypatch, nan_side):
    # k = 8 of 10 and alpha = 0.32 < 1: both payment checks apply
    inst = AccuracyInstance(pop=Population(bits=np.ones(10, int),
                                           values=np.arange(1.0, 11.0)),
                            model=CostFamily.LINEAR, alpha=0.2 * ACCURACY_CONST)
    checked = ("payment_optimality", "payment_lower_bound")
    by_name = {r.property_name: r for r in run_suite([inst])}
    assert all(by_name[name].passed for name in checked)
    if nan_side == "mechanism":
        monkeypatch.setattr(MechanismOutcome, "total_payment",
                            property(lambda self: math.nan))
    else:
        monkeypatch.setattr(verify_mod, "oracle_min_payment_k_units",
                            lambda *args: math.nan)
        monkeypatch.setattr(verify_mod, "payment_lower_bound", lambda *args: math.nan)
    by_name = {r.property_name: r for r in run_suite([inst])}
    assert not any(by_name[name].passed for name in checked)


def test_estimator_privacy_grid_check():
    assert check_estimator_privacy(3.0).passed


def density_ratio_worst(scale: float) -> float:
    """The worst two-sided ratio f(x)/f(x - 1) of the Laplace density
    f(x) = exp(-|x|/scale) / (2*scale) on the check's grid, by the densities
    themselves: the reference for the log-ratio form."""
    xs = np.linspace(-20.0 * scale, 20.0 * scale, 10_000)
    f, f_shifted = (np.exp(-np.abs(x) / scale) / (2.0 * scale) for x in (xs, xs - 1.0))
    ratio = f / f_shifted
    return float(np.max(np.maximum(ratio, 1.0 / ratio)))


@pytest.mark.parametrize("scale", [1.0, 3.0, 16.0, 95.0, 1e4, 1e6])
def test_estimator_privacy_matches_the_density_ratio(monkeypatch, scale):
    # a tolerance of -inf makes every scale a violation, so the report carries worst
    monkeypatch.setattr(verify_mod, "TOL", -math.inf)
    (violation,) = check_estimator_privacy(scale).violations
    assert violation["datum"] == pytest.approx(density_ratio_worst(scale), rel=1e-12, abs=0)


@pytest.mark.parametrize("scale", [2.0 ** 53 / 20, 1e16, 1e17, 1e306, 5e306, 1e307, 1.7e308])
def test_estimator_privacy_rejects_a_grid_beyond_a_float(scale):
    # from 20 scales = 2**53 on, x - 1 rounds to x at the grid's lower end;
    # from 5e306 on, the grid's 40 scales overflow too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="privacy grid"):
            check_estimator_privacy(scale)


def test_estimator_privacy_passes_just_below_the_resolution_bound():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_estimator_privacy(4.5e14).passed
