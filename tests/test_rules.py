"""Each mechanism's allocation rule, run on a stack of reported profiles,
gives in every row exactly the payments, privacy levels and winners of the
mechanism run on that row's profile alone."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import with_values
from privauction.core import (ALL_FAMILIES, CostFamily, DomainError, Population,
                              _winner_mask)
from privauction.dp import ACCURACY_CONST
from privauction.mechanisms import (AccuracyInstance, BudgetInstance, fair_query,
                                    min_cost_auction)
from privauction.verify import pay_your_bid_control

RNG = lambda s=0: np.random.default_rng(s)

# a small pool makes ties within and across rows common
TIED = st.sampled_from([0.0, 5e-324, 0.5, 1.0, 2.5, 7.0])
VALUE = st.one_of(TIED, st.floats(0.0, 10.0))


@st.composite
def stacks(draw, n_min=1):
    n = draw(st.one_of(st.sampled_from([n_min, 2]), st.integers(n_min, 16)))
    m = draw(st.integers(1, 6))
    values = np.array([[draw(VALUE) for _ in range(n)] for _ in range(m)])
    bits = np.array([draw(st.integers(0, 1)) for _ in range(n)])
    return bits, values, draw(st.sampled_from(ALL_FAMILIES))


def budget_instances(n):
    # budget 0 and tiny budgets give k = 0 rows; in about one row in fifty
    # with k > 0, budget/k summed k times exceeds the budget, so the price is
    # nudged down by ulps (the next test pins one such case)
    return st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 5.0 * n))


def assert_rows_match(mechanism, inst, values):
    alloc = mechanism.rule(inst, values)
    for r, row in enumerate(values):
        out = mechanism(dataclasses.replace(inst, pop=with_values(inst.pop, row)), RNG())
        k = int(alloc.k[r])
        assert frozenset(alloc.order[r, :k].tolist()) == out.winners
        assert alloc.payments[r].tobytes() == out.payments.tobytes()
        assert alloc.epsilons[r].tobytes() == out.epsilons.tobytes()
        assert float(alloc.charge[r]) == out.analyst_charge


@settings(max_examples=150, deadline=None)
@given(data=st.data(), stack=stacks())
def test_budget_rules_match_per_profile_runs(data, stack):
    bits, values, model = stack
    budget = data.draw(budget_instances(values.shape[1]))
    inst = BudgetInstance(pop=Population(bits=bits, values=values[0]), model=model,
                          budget=budget)
    for mechanism in (fair_query, pay_your_bid_control):
        assert_rows_match(mechanism, inst, values)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), stack=stacks(n_min=2))
def test_accuracy_rule_matches_per_profile_runs(data, stack):
    bits, values, model = stack
    n = values.shape[1]
    # above 1/n by a margin, so alpha/(1/2 + ln 3) does not round below it
    alpha_scaled = data.draw(st.floats(1.0 / n + 1e-9, 0.6))
    inst = AccuracyInstance(pop=Population(bits=bits, values=values[0]), model=model,
                            alpha=alpha_scaled * ACCURACY_CONST)
    assert_rows_match(min_cost_auction, inst, values)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), stack=stacks(n_min=2))
def test_every_order_row_is_a_permutation(data, stack):
    # `Allocation` trusts each row of `order` to be a permutation, so
    # `_winner_mask` marks exactly k[r] agents; -0.0 must tie with 0.0
    bits, values, model = stack
    m, n = values.shape
    signs = data.draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    values[(values == 0.0) & np.reshape(signs, (m, n))] = -0.0
    pop = Population(bits=bits, values=values[0])
    budget = BudgetInstance(pop=pop, model=model,
                            budget=data.draw(budget_instances(n)))
    alpha_scaled = data.draw(st.floats(1.0 / n + 1e-9, 0.6))
    accuracy = AccuracyInstance(pop=pop, model=model, alpha=alpha_scaled * ACCURACY_CONST)
    for mechanism, inst in ((fair_query, budget), (pay_your_bid_control, budget),
                            (min_cost_auction, accuracy)):
        alloc = mechanism.rule(inst, values)
        assert (np.sort(alloc.order, axis=1) == np.arange(n)).all()
        assert (_winner_mask(alloc.order, alloc.k).sum(axis=1) == alloc.k).all()


def test_budget_rule_nudges_only_the_rows_that_overshoot():
    # row 0: the ten zero-value sellers win, and budget/10 summed ten times
    # exceeds the budget; row 1: nine win, and budget/9 sums to at most it
    budget = 29.89937453059826
    nudged, exact = np.zeros(11), np.zeros(11)
    nudged[-1:] = exact[-2:] = 1e6
    inst = BudgetInstance(pop=Population(bits=np.zeros(11, dtype=int), values=nudged),
                          model=CostFamily.LINEAR, budget=budget)
    values = np.stack([nudged, exact])
    alloc = fair_query.rule(inst, values)
    assert list(alloc.k) == [10, 9]
    assert np.all(alloc.payments[0, :10] < budget / 10)
    assert np.all(alloc.payments[1, :9] == budget / 9)
    assert np.all(alloc.charge <= budget)
    assert_rows_match(fair_query, inst, values)


@pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
@pytest.mark.parametrize("mechanism, inst", [
    (fair_query, BudgetInstance(pop=Population(bits=[1, 0, 1], values=[1.0, 2.0, 3.0]),
                                model=CostFamily.LINEAR, budget=3.0)),
    (min_cost_auction, AccuracyInstance(
        pop=Population(bits=[1, 0, 1], values=[1.0, 2.0, 3.0]),
        model=CostFamily.LINEAR, alpha=0.5 * ACCURACY_CONST)),
])
def test_rules_reject_reports_outside_the_domain(mechanism, inst, bad):
    values = np.array([[1.0, 2.0, 3.0], [1.0, bad, 3.0]])
    with pytest.raises(DomainError):
        mechanism.rule(inst, values)


def test_rules_reject_a_matrix_of_another_width():
    inst = BudgetInstance(pop=Population(bits=[1, 0], values=[1.0, 2.0]),
                          model=CostFamily.LINEAR, budget=3.0)
    with pytest.raises(DomainError):
        fair_query.rule(inst, np.ones((2, 3)))
