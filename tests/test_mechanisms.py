import dataclasses
import math

import numpy as np
import pytest

from corpus import with_values
from privauction import mechanisms, verify
from privauction.core import (ALL_FAMILIES, CostFamily, DomainError, Population,
                              PopulationSpec, cost_eval, generate_population)
from privauction.dp import ACCURACY_CONST, trial_estimates, trial_stream
from privauction.mechanisms import (AccuracyInstance, BudgetInstance,
                                    fair_query, min_cost_auction)
from privauction.verify import pay_your_bid_control

RNG = lambda s=0: np.random.default_rng(s)


def brute_force_budget_k(values, model, budget):
    """Oracle: largest k in [1, n-1] with k * c(v_(k), 1/(n-k)) <= B, else 0."""
    v = np.sort(values, kind="stable")
    n = len(v)
    best = 0
    for k in range(1, n):
        if k * cost_eval(model, v[k - 1], 1.0 / (n - k)) <= budget:
            best = k
    return best


def random_budget_instance(rng, n=None):
    n = n or int(rng.integers(2, 13))
    pop = Population(bits=rng.integers(0, 2, n), values=rng.uniform(0, 10, n))
    model = list(ALL_FAMILIES)[int(rng.integers(0, 4))]
    return BudgetInstance(pop=pop, model=model, budget=float(rng.uniform(0, 4 * n)))


# --- fair_query ------------------------------------------------------------

def test_fair_query_worked_example():
    pop = Population(bits=[1, 0, 1, 1], values=[1.0, 2.0, 4.0, 8.0])
    inst = BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=2.0)
    assert brute_force_budget_k(pop.values, inst.model, 2.0) == 2
    out = fair_query(inst, RNG())
    assert out.winner_count == 2
    assert out.allocation.won[0].tolist() == [True, True, False, False]
    np.testing.assert_allclose(out.payments, [1.0, 1.0, 0.0, 0.0])
    np.testing.assert_allclose(out.epsilons, [0.5, 0.5, 0.0, 0.0])
    assert out.noise_scale == 2.0
    assert out.total_payment == pytest.approx(2.0)


def test_fair_query_zero_budget():
    pop = Population(bits=[1, 1, 1], values=[1.0, 2.0, 3.0])
    out = fair_query(BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=0.0),
                     RNG())
    assert out.winner_count == 0
    assert out.total_payment == 0.0
    assert out.noise_scale == 3.0
    noise = out.estimate - 3 / 2  # deterministic part is n/2
    assert math.isfinite(noise)


def test_fair_query_zero_value_sellers():
    pop = Population(bits=[0, 1, 0], values=[0.0, 0.0, 0.0])
    out = fair_query(BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=1.0),
                     RNG())
    assert out.winner_count == 2  # capped at n - 1
    np.testing.assert_allclose(out.payments, [0.0, 0.0, 0.0])
    np.testing.assert_allclose(out.epsilons, [1.0, 1.0, 0.0])


def test_fair_query_matches_brute_force_k():
    rng = np.random.default_rng(99)
    for _ in range(100):
        inst = random_budget_instance(rng)
        out = fair_query(inst, RNG())
        assert out.winner_count == brute_force_budget_k(
            inst.pop.values, inst.model, inst.budget)


def test_fair_query_budget_never_exceeded():
    rng = np.random.default_rng(17)
    for _ in range(200):
        inst = random_budget_instance(rng)
        out = fair_query(inst, RNG())
        assert out.total_payment <= inst.budget


def test_fair_query_individually_rational():
    rng = np.random.default_rng(23)
    for _ in range(200):
        inst = random_budget_instance(rng)
        out = fair_query(inst, RNG())
        costs = cost_eval(inst.model, inst.pop.values, out.epsilons)
        assert np.all(out.payments >= costs - 1e-9)


def test_fair_query_payments_independent_of_noise():
    rng = np.random.default_rng(31)
    inst = random_budget_instance(rng)
    a = fair_query(inst, RNG(1))
    b = fair_query(inst, RNG(2))
    np.testing.assert_array_equal(a.payments, b.payments)
    np.testing.assert_array_equal(a.epsilons, b.epsilons)
    assert a.estimate != b.estimate  # only the noise differs


def test_fair_query_winner_monotone():
    # lowering a winner's report keeps her a winner at the same payment
    rng = np.random.default_rng(47)
    for _ in range(50):
        inst = random_budget_instance(rng)
        out = fair_query(inst, RNG())
        for i in np.flatnonzero(out.allocation.won[0]):
            lowered = inst.pop.values.copy()
            lowered[i] = lowered[i] / 2.0
            out2 = fair_query(BudgetInstance(pop=with_values(inst.pop, lowered),
                                             model=inst.model, budget=inst.budget),
                              RNG())
            assert out2.allocation.won[0, i]
            assert out2.payments[i] == pytest.approx(out.payments[i], abs=1e-9)


# --- min_cost_auction ------------------------------------------------------

def test_min_cost_worked_example():
    pop = Population(bits=np.ones(10, int), values=np.arange(1.0, 11.0))
    alpha = 0.2 * ACCURACY_CONST
    inst = AccuracyInstance(pop=pop, model=CostFamily.LINEAR, alpha=alpha)
    assert inst.alpha_scaled == pytest.approx(0.2)
    out = min_cost_auction(inst, RNG())
    assert out.winner_count == 8
    assert out.noise_scale == 2.0
    np.testing.assert_allclose(out.payments[:8], np.full(8, 4.5))
    np.testing.assert_allclose(out.payments[8:], [0.0, 0.0])
    np.testing.assert_allclose(out.epsilons[:8], np.full(8, 0.5))
    assert out.total_payment == pytest.approx(36.0)


def test_min_cost_symmetric_values():
    pop = Population(bits=[1, 0, 1, 0, 1, 0], values=np.full(6, 3.0))
    inst = AccuracyInstance(pop=pop, model=CostFamily.QUADRATIC,
                            alpha=0.5 * ACCURACY_CONST)
    out = min_cost_auction(inst, RNG())
    k = out.winner_count
    expected = k * cost_eval(CostFamily.QUADRATIC, 3.0, 1.0 / (6 - k))
    assert out.total_payment == pytest.approx(expected)
    winner_pay = out.payments[out.allocation.won[0]]
    assert np.allclose(winner_pay, winner_pay[0])


def test_min_cost_payments_independent_of_noise():
    pop = Population(bits=np.ones(10, int), values=np.arange(1.0, 11.0))
    inst = AccuracyInstance(pop=pop, model=CostFamily.LINEAR,
                            alpha=0.2 * ACCURACY_CONST)
    a = min_cost_auction(inst, RNG(1))
    b = min_cost_auction(inst, RNG(2))
    np.testing.assert_array_equal(a.payments, b.payments)
    np.testing.assert_array_equal(a.epsilons, b.epsilons)
    assert a.estimate != b.estimate


def test_min_cost_unattainable_accuracy():
    pop = Population(bits=np.ones(5, int), values=np.arange(1.0, 6.0))
    with pytest.raises(DomainError):
        AccuracyInstance(pop=pop, model=CostFamily.LINEAR, alpha=0.1)


def test_min_cost_payment_equals_k_times_threshold():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(3, 13))
        pop = Population(bits=rng.integers(0, 2, n), values=rng.uniform(0, 10, n))
        alpha = float(rng.uniform(1.0 / n, 0.6)) * ACCURACY_CONST
        inst = AccuracyInstance(pop=pop, model=CostFamily.EXP_SCALED, alpha=alpha)
        out = min_cost_auction(inst, RNG())
        k = out.winner_count
        w = np.sort(cost_eval(inst.model, pop.values, 1.0 / (n - k)), kind="stable")
        assert out.total_payment == pytest.approx(k * w[k], abs=1e-9)



# --- the per-instance allocation --------------------------------------------

@pytest.fixture
def cost_evals(monkeypatch):
    """Counts the allocation rules' cost evaluations."""
    calls = []

    def counted(*args):
        calls.append(args)
        return cost_eval(*args)

    monkeypatch.setattr(mechanisms, "cost_eval", counted)
    return calls


def _both_instances():
    pop = Population(bits=[1, 0, 1, 1, 0], values=[1.0, 2.0, 4.0, 8.0, 3.0])
    return [(fair_query, BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=6.0)),
            (min_cost_auction, AccuracyInstance(pop=pop, model=CostFamily.QUADRATIC,
                                                alpha=0.5))]


@pytest.mark.parametrize("which", [0, 1], ids=["fair_query", "min_cost_auction"])
def test_repeated_calls_evaluate_the_rule_once(cost_evals, which):
    mechanism, inst = _both_instances()[which]
    outs = [mechanism(inst, RNG(seed)) for seed in range(5)]
    assert len(cost_evals) == 1
    assert all(out.allocation is outs[0].allocation for out in outs)
    assert not outs[0].payments.flags.writeable
    assert len({out.estimate for out in outs}) == 5   # only the noise is redrawn


@pytest.mark.parametrize("which", [0, 1], ids=["fair_query", "min_cost_auction"])
def test_a_kept_plan_is_read_without_rebuilding(monkeypatch, which):
    # after the first call, a call reads the kept plan without `_truthful`,
    # and still draws what trial t's stream gives over that plan
    mechanism, inst = _both_instances()[which]
    built = []

    def counted(*args):
        built.append(args)
        return truthful(*args)

    truthful = mechanisms._truthful
    monkeypatch.setattr(mechanisms, "_truthful", counted)
    outs = [mechanism(inst, trial_stream(7, t)) for t in range(100)]
    assert len(built) == 1
    plan = vars(inst)["_kept"][mechanism.rule]
    expected = trial_estimates(plan, 7, 100)
    got = np.array([out.estimate for out in outs])
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert all(type(out.estimate) is float for out in outs)


def test_replaced_instance_gets_a_fresh_allocation(cost_evals):
    _, inst = _both_instances()[0]
    out = fair_query(inst, RNG())
    richer = dataclasses.replace(inst, budget=20.0)
    fresh = fair_query(richer, RNG())
    assert len(cost_evals) == 2
    assert fresh.allocation is not out.allocation
    assert fresh.winner_count > out.winner_count
    rebuilt = BudgetInstance(pop=inst.pop, model=inst.model, budget=20.0)
    assert np.array_equal(fresh.payments, fair_query(rebuilt, RNG()).payments)


def test_kept_allocation_leaves_equality_and_hash_alone():
    for mechanism, inst in _both_instances():
        twin = dataclasses.replace(inst)
        before = hash(inst)
        mechanism(inst, RNG())
        assert hash(inst) == before == hash(twin)
        assert inst == twin and "_kept" in vars(inst) and "_kept" not in vars(twin)
        assert "_kept" not in repr(inst)


def test_overflowing_rule_raises_on_every_call(cost_evals):
    # lognormal(6, 3) values reach ~1e5, where exp_arg's price is inf
    spec = PopulationSpec(n=20, values={"dist": "lognormal", "mu": 6.0, "sigma": 3.0},
                          bits={"model": "independent", "q": 0.5})
    inst = AccuracyInstance(pop=generate_population(spec), model=CostFamily.EXP_ARG,
                            alpha=0.1)
    for _ in range(2):
        with pytest.raises(DomainError):
            min_cost_auction(inst, RNG())
    assert len(cost_evals) == 2 and "_kept" not in vars(inst)


def test_repeated_control_calls_evaluate_its_rule_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return cost_eval(*args)

    monkeypatch.setattr(verify, "cost_eval", counted)
    _, inst = _both_instances()[0]
    outs = [pay_your_bid_control(inst, RNG(seed)) for seed in range(5)]
    assert len(calls) == 1
    assert all(out.allocation is outs[0].allocation for out in outs)


def test_fair_query_and_the_control_keep_one_allocation_each():
    _, inst = _both_instances()[0]
    fair, control = fair_query(inst, RNG(3)), pay_your_bid_control(inst, RNG(3))
    assert len(vars(inst)["_kept"]) == 2
    assert fair.allocation is not control.allocation
    assert np.array_equal(fair.allocation.won, control.allocation.won)
    assert fair.estimate == control.estimate
    assert not np.array_equal(fair.payments, control.payments)
    # their unilateral forms share one set-up, kept beside the allocations
    agents = np.arange(inst.pop.n)
    fair_query.unilateral(inst, agents, inst.pop.values)
    pay_your_bid_control.unilateral(inst, agents, inst.pop.values)
    assert len(vars(inst)["_kept"]) == 3


def test_dir_lists_the_kept_allocations():
    for mechanism, inst in _both_instances():
        mechanism(inst, RNG())
        if isinstance(inst, BudgetInstance):
            pay_your_bid_control(inst, RNG())
        assert "_kept" in dir(inst)
