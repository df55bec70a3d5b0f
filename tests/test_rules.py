"""Each mechanism's allocation rule, run on a stack of reported profiles,
gives in every row exactly the payments, privacy levels and winners of the
mechanism run on that row's profile alone, and exactly those of the same
rule computed by ranking all n reports with a stable argsort."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import with_values
from privauction.core import (ALL_FAMILIES, Allocation, CostFamily, DomainError,
                              Population, cost_eval)
from privauction.dp import ACCURACY_CONST
from privauction.mechanisms import (AccuracyInstance, BudgetInstance, fair_query,
                                    min_cost_auction)
from privauction.verify import check_truthfulness, pay_your_bid_control

RNG = lambda s=0: np.random.default_rng(s)

# a small pool makes ties within and across rows common
TIED = st.sampled_from([0.0, 5e-324, 0.5, 1.0, 2.5, 7.0])
VALUE = st.one_of(TIED, st.floats(0.0, 10.0))
# both zeros, and values whose exp_arg cost overflows to inf (800 at eps = 1)
SIGNED = st.one_of(TIED, st.sampled_from([-0.0, 800.0, 1e300]), st.floats(0.0, 10.0))


@st.composite
def stacks(draw, n_min=1, value=VALUE):
    n = draw(st.one_of(st.sampled_from([n_min, 2]), st.integers(n_min, 16)))
    m = draw(st.integers(1, 6))
    values = np.array([[draw(value) for _ in range(n)] for _ in range(m)])
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
        assert alloc.won[r].tobytes() == out.allocation.won[0].tobytes()
        assert alloc.payments[r].tobytes() == out.payments.tobytes()
        assert alloc.epsilons[r].tobytes() == out.epsilons.tobytes()


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


def instances(data, stack):
    """A budget instance and, for n >= 2, an accuracy instance over the
    stack's first row, each with the mechanisms that take it."""
    bits, values, model = stack
    n = values.shape[1]
    pop = Population(bits=bits, values=values[0])
    budget = BudgetInstance(pop=pop, model=model, budget=data.draw(budget_instances(n)))
    cases = [(fair_query, budget), (pay_your_bid_control, budget)]
    if n >= 2:
        alpha_scaled = data.draw(st.floats(1.0 / n + 1e-9, 0.6))
        cases.append((min_cost_auction, AccuracyInstance(
            pop=pop, model=model, alpha=alpha_scaled * ACCURACY_CONST)))
    return cases


@settings(max_examples=150, deadline=None)
@given(data=st.data(), stack=stacks(value=SIGNED))
def test_every_won_row_holds_exactly_k_winners(data, stack):
    values = stack[1]
    for mechanism, inst in instances(data, stack):
        try:
            alloc = mechanism.rule(inst, values)
        except DomainError:   # a price or payment overflowed
            continue
        assert alloc.won.dtype == bool and alloc.won.shape == values.shape
        assert (np.count_nonzero(alloc.won, axis=1) == alloc.k).all()


# --- the reference: each rule by ranking all n -------------------------------

def _ranked(keys):
    """Each row's stable ascending order (ties by index, -0.0 with 0.0) and
    its keys in that order."""
    order = np.argsort(keys, axis=-1, kind="stable")
    return order, np.take_along_axis(keys, order, axis=-1)


def _first(order, k):
    """(m, n) mask of the k[r] first agents of each order[r]."""
    return np.argsort(order, axis=-1) < np.reshape(k, (-1, 1))


def ranking_fair_query(inst, values):
    """`fair_query.rule` by ranking: (won, k, payments)."""
    model, budget = inst.model, inst.budget
    m, n = values.shape
    order, v_sorted = _ranked(values)
    k = np.zeros(m, dtype=np.intp)
    price = np.zeros(m)
    if n >= 2:
        ks = np.arange(1, n)
        cap = budget / ks
        last_in, first_out = cost_eval(
            model, np.stack([v_sorted[:, :-1], v_sorted[:, 1:]]), 1.0 / (n - ks))
        with np.errstate(over="ignore"):
            k = ((ks * last_in <= budget) * ks).max(axis=1)
        price = np.where(k > 0, np.minimum(cap, first_out)[np.arange(m), k - 1], 0.0) + 0.0
    won = _first(order, k)
    payments = np.where(won, price[:, None], 0.0)
    over = payments.sum(axis=1) > budget
    while over.any():
        price[over] = np.nextafter(price[over], 0.0)
        payments = np.where(won, price[:, None], 0.0)
        over = payments.sum(axis=1) > budget
    return won, k, payments


def ranking_min_cost(inst, values):
    """`min_cost_auction.rule` by ranking: (won, k, payments); `DomainError`
    if a row's total k * price is not finite."""
    m, n = values.shape
    k = inst.winner_count
    w = cost_eval(inst.model, values, np.full(n, 1.0 / (n - k)))
    order, w_sorted = _ranked(w)
    price = w_sorted[:, k] + 0.0
    with np.errstate(over="ignore"):
        if not np.isfinite(k * price).all():
            raise DomainError("the total overflowed")
    won = _first(order, k)
    return won, np.full(m, k), np.where(won, price[:, None], 0.0)


def ranking_pay_your_bid(inst, values):
    """`pay_your_bid_control.rule` by ranking: (won, k, payments)."""
    won, k, _ = ranking_fair_query(inst, values)
    eps = np.where(won, (1.0 / (values.shape[1] - k))[:, None], 0.0)
    return won, k, cost_eval(inst.model, values, eps)


RANKING = {fair_query: ranking_fair_query, min_cost_auction: ranking_min_cost,
           pay_your_bid_control: ranking_pay_your_bid}


def assert_equals_ranking(get_alloc, mechanism, inst, values):
    """`get_alloc()` equals `mechanism`'s rule by ranking on `values` byte
    for byte, the sign of each zero included, or both fail closed."""
    try:
        won, k, payments = RANKING[mechanism](inst, values)
        Allocation(won, k, payments)
    except DomainError:
        with pytest.raises(DomainError):
            get_alloc()
        return
    alloc = get_alloc()
    eps = np.where(won, (1.0 / (values.shape[1] - k))[:, None], 0.0)
    for got, want in ((alloc.won, won), (alloc.k, k), (alloc.epsilons, eps),
                      (alloc.payments, payments)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), stack=stacks(value=SIGNED))
def test_rules_equal_ranking_all_n(data, stack):
    # signs flip about half the zeros, so -0.0 and 0.0 tie in most rows
    values = stack[1]
    signs = data.draw(st.lists(st.booleans(), min_size=values.size, max_size=values.size))
    values[(values == 0.0) & np.reshape(signs, values.shape)] *= -1.0
    for mechanism, inst in instances(data, stack):
        assert_equals_ranking(lambda: mechanism.rule(inst, values), mechanism, inst, values)
        for row in values:
            # the kept run of each row: the control reprices `fair_query`'s
            one = dataclasses.replace(inst, pop=with_values(inst.pop, row))
            assert_equals_ranking(lambda: mechanism(one, RNG()).allocation,
                                  mechanism, one, row[None, :])


@pytest.mark.parametrize("kind, row", [
    # min_cost_auction buys k = 3 of 5 and a fourth zero sets the price
    ("accuracy", [0.0, -0.0, 0.0, -0.0, 3.0]),
    ("accuracy", [-0.0, 0.0, -0.0, 0.0, 3.0]),
    ("accuracy", [0.0, 0.0, 3.0, -0.0, 0.0]),
    ("accuracy", [-0.0, 3.0, -0.0, -0.0, -0.0]),
    # fair_query buys k = n - 1 zeros and the fifth zero sets the price
    ("budget", [0.0, -0.0, 0.0, -0.0, -0.0]),
    ("budget", [-0.0, -0.0, -0.0, -0.0, 0.0]),
])
def test_a_zero_price_is_plus_zero_whatever_its_zeros_signs(kind, row):
    pop = Population(bits=np.ones(5, int), values=row)
    if kind == "accuracy":
        mechanism = min_cost_auction
        inst = AccuracyInstance(pop=pop, model=CostFamily.LINEAR, alpha=0.5 * ACCURACY_CONST)
    else:
        mechanism = fair_query
        inst = BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=1.0)
    values = np.array([row])
    alloc = mechanism.rule(inst, values)
    paid = alloc.payments[alloc.won]
    assert paid.size == (3 if kind == "accuracy" else 4)
    assert paid.tobytes() == np.zeros(paid.size).tobytes()
    assert_equals_ranking(lambda: alloc, mechanism, inst, values)
    # the unilateral forms at the agents' own values pay the same bytes
    _, pay, _, price = mechanism.unilateral(inst, np.arange(5), values[0])
    assert pay.tobytes() == alloc.payments[0].tobytes()
    assert price.tobytes() == np.zeros(5).tobytes()


@pytest.mark.parametrize("n", [16, 64, 200, 3000])
@pytest.mark.parametrize("mechanism", [min_cost_auction, fair_query, pay_your_bid_control])
def test_zeros_of_both_signs_keep_their_stable_order(mechanism, n):
    # numpy's sort and partition put -0.0 and 0.0 in any order at these
    # lengths; the rules' output must not depend on that order.  The
    # accuracy rows are mostly zeros, so k = 0.7n winners leave a zero
    # first out; in a budget row only an all-zero row prices at a zero.
    rng = np.random.default_rng(n)
    signed = lambda size: rng.choice([0.0, -0.0], size)
    if mechanism is min_cost_auction:
        rows = [np.where(rng.random(n) < 0.9, signed(n), rng.random(n)) for _ in range(2)]
        inst = AccuracyInstance(pop=Population(bits=np.ones(n, int), values=rows[0]),
                                model=CostFamily.QUADRATIC, alpha=0.3 * ACCURACY_CONST)
    else:
        rows = [signed(n), signed(n)]
        inst = BudgetInstance(pop=Population(bits=np.ones(n, int), values=rows[0]),
                              model=CostFamily.LINEAR, budget=float(n))
    values = np.stack(rows + [rng.random(n)])   # and a row with no zero
    assert_equals_ranking(lambda: mechanism.rule(inst, values), mechanism, inst, values)
    assert_equals_ranking(lambda: mechanism(inst, RNG()).allocation, mechanism, inst,
                          values[:1])


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
    assert np.all(alloc.payments.sum(axis=1) <= budget)
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


def test_auctions_reject_the_other_scenario_s_instance():
    pop = Population(bits=[1, 0, 1], values=[1.0, 2.0, 3.0])
    budget = BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=3.0)
    accuracy = AccuracyInstance(pop=pop, model=CostFamily.LINEAR, alpha=0.5 * ACCURACY_CONST)
    for mechanism, inst in ((min_cost_auction, budget), (fair_query, accuracy),
                            (pay_your_bid_control, accuracy)):
        with pytest.raises(DomainError, match="the rule takes"):
            mechanism(inst, RNG())
        with pytest.raises(DomainError, match="the rule takes"):
            check_truthfulness(mechanism, inst)
        with pytest.raises(DomainError, match="the rule takes"):
            mechanism.unilateral(inst, np.array([0]), np.array([1.0]))


# (agents, reports) that no unilateral form takes over n = 3 agents
BAD_DEVIATIONS = {
    "agent -1": ([-1], [1.0]),
    "agent n": ([3], [1.0]),
    "three agents, one report": ([0, 1, 2], [1.0]),
    "one agent, two reports": ([0], [1.0, 2.0]),
    "float agent": ([0.0], [1.0]),
    "bool agent": ([True], [1.0]),
    "string agent": (["0"], [1.0]),
    "scalar agent": (0, [1.0]),
    "matrix": ([[0]], [[1.0]]),
}


@pytest.mark.parametrize("deviation", BAD_DEVIATIONS)
@pytest.mark.parametrize("mechanism", [fair_query, min_cost_auction, pay_your_bid_control],
                         ids=lambda m: m.__name__)
def test_unilateral_forms_reject_agents_that_are_not_indices_one_per_report(mechanism,
                                                                            deviation):
    pop = Population(bits=[1, 0, 1], values=[1.0, 2.0, 3.0])
    inst = (AccuracyInstance(pop=pop, model=CostFamily.LINEAR, alpha=0.5 * ACCURACY_CONST)
            if mechanism is min_cost_auction
            else BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=3.0))
    agents, reports = BAD_DEVIATIONS[deviation]
    with pytest.raises(DomainError, match="^agents must be"):
        mechanism.unilateral(inst, np.asarray(agents), np.asarray(reports))


def test_rules_reject_a_matrix_of_another_width():
    inst = BudgetInstance(pop=Population(bits=[1, 0], values=[1.0, 2.0]),
                          model=CostFamily.LINEAR, budget=3.0)
    with pytest.raises(DomainError):
        fair_query.rule(inst, np.ones((2, 3)))
