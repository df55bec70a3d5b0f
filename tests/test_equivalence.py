"""The array forms of the input rule and of the envy-free winner oracle
against the definitions they replace, and `fair_query` against that oracle
at the budgets where rounding decides.

Both compare numpy's array kernels (reductions, SIMD `expm1`) with scalar
calls, whose dispatch can differ by CPU level, so CI runs this file on more
than one.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from privauction.core import (ALL_FAMILIES, CostFamily, DomainError, Population,
                              _check_nonneg_finite, cost_eval)
from privauction.mechanisms import BudgetInstance, fair_query
from privauction.verify import (check_truthfulness, oracle_max_winners_envy_free,
                                pay_your_bid_control, run_suite)

# --- the input rule ----------------------------------------------------------

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.0, math.inf, -math.inf, math.nan]
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=True, allow_infinity=True))
SCALARS = st.one_of(FLOATS, st.integers(-2**62, 2**62), st.booleans())
INPUTS = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=12),
    st.lists(st.lists(FLOATS, min_size=3, max_size=3), max_size=4),   # nested
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
               elements=FLOATS),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5)),
)


def is_number(x) -> bool:
    """Numbers that are not bools, as numpy types them: an integer or a
    float, or an array of either.  A bool alone, or an array of bools, is
    not one; numpy casts a bool among integers or floats."""
    return np.asarray(x).dtype.kind in "iuf"


def accepts(x) -> bool:
    """The input rule by its definition."""
    a = np.asarray(x, dtype=float)
    return is_number(x) and bool(np.isfinite(a).all() and (a >= 0).all())


@settings(max_examples=500, deadline=None)
@given(INPUTS)
def test_input_rule_accepts_exactly_the_finite_nonnegative(x):
    expected = np.asarray(x, dtype=float)
    if accepts(x):
        got = _check_nonneg_finite("v", x)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()    # -0.0 and subnormals kept
    else:
        with pytest.raises(DomainError, match=r"^v must be finite and >= 0$" if is_number(x)
                           else r"^v must be a number that a float holds, got"):
            _check_nonneg_finite("v", x)


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 7, 15])
def test_input_rule_rejects_one_bad_entry_anywhere(bad, at):
    values = np.linspace(0.0, 3.0, 16)
    values[at] = bad
    with pytest.raises(DomainError):
        _check_nonneg_finite("values", values)
    with pytest.raises(DomainError):
        _check_nonneg_finite("values", values.reshape(4, 4))


# --- the envy-free winner oracle ---------------------------------------------

def reference_max_winners(pop, model, budget):
    """Oracle: one scalar cost per k, the brute force that
    `oracle_max_winners_envy_free` evaluates as one array."""
    n = pop.n
    v_sorted = np.sort(pop.values, kind="stable")
    best = 0
    for k in range(1, n):
        price = cost_eval(model, v_sorted[k - 1], 1.0 / (n - k))
        if k * price <= budget:
            best = k
    return best


def budgets_at_the_edges(pop, model, k):
    """k times the k-th cheapest seller's price, and one ulp either side."""
    n = pop.n
    price = cost_eval(model, np.sort(pop.values)[k - 1], 1.0 / (n - k))
    at = k * price
    if not math.isfinite(at):
        return [1e308]
    return [b for b in (np.nextafter(at, 0.0), at, np.nextafter(at, math.inf))
            if math.isfinite(b)]


def oracle_cases(seed, count):
    """(population, family, budget) triples: uniform values, the same values
    floored (ties), values up to 1e3 (exp_arg prices overflow), n from 1 to
    12, and per k the budgets at its edge."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 13))
        scale = rng.choice([1.0, 10.0, 1e3])
        values = rng.uniform(0.0, scale, n)
        for vals in (values, np.floor(values)):
            pop = Population(bits=np.ones(n, int), values=vals)
            for family in ALL_FAMILIES:
                budgets = [float(rng.uniform(0.0, 2.0 * n * scale)), 0.0]
                if n > 1:
                    budgets += budgets_at_the_edges(pop, family, int(rng.integers(1, n)))
                for budget in budgets:
                    yield pop, family, budget


def test_oracle_equals_the_per_k_scalar_loop():
    cases = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # an overflowed price or total is silent
        for pop, family, budget in oracle_cases(seed=12, count=150):
            assert (oracle_max_winners_envy_free(pop, family, budget)
                    == reference_max_winners(pop, family, budget))
            cases += 1
    assert cases > 4000


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12),
       st.sampled_from(ALL_FAMILIES), st.floats(0.0, 1e6), st.integers(0, 11))
def test_oracle_equals_the_per_k_scalar_loop_at_the_edges(values, family, budget, k):
    pop = Population(bits=np.ones(len(values), int), values=values)
    budgets = [budget]
    if 1 <= k < pop.n:
        budgets += budgets_at_the_edges(pop, family, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in budgets:
            assert (oracle_max_winners_envy_free(pop, family, b)
                    == reference_max_winners(pop, family, b))


def test_oracle_with_one_agent_buys_nothing():
    pop = Population(bits=[1], values=[2.0])
    for family in ALL_FAMILIES:
        assert oracle_max_winners_envy_free(pop, family, 1e300) == 0


def test_oracle_with_overflowing_prices_warns_nothing():
    # exp_arg's price expm1(2e3 / 2) overflows from k = 2 on; linear's
    # total 3 * 1e308 overflows at k = 3
    pop = Population(bits=[1, 1, 1, 1], values=[1e3, 2e3, 1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for family, k in ((CostFamily.EXP_ARG, 1), (CostFamily.LINEAR, 2)):
            assert oracle_max_winners_envy_free(pop, family, 1e308) == k
            assert reference_max_winners(pop, family, 1e308) == k


# --- fair_query at the oracle's edges ----------------------------------------

def test_fair_query_buys_what_the_oracle_affords():
    # at a budget of exactly k * c_k, budget / k can round one ulp below c_k:
    # a rule that tested c_k <= budget / k bought one winner fewer here (47
    # triples), and its threshold payments' one-ulp gains read as 105
    # truthfulness violations under an absolute tolerance
    instances = [BudgetInstance(pop=pop, model=family, budget=budget)
                 for pop, family, budget in oracle_cases(seed=12, count=150)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for inst in instances:
            assert (fair_query(inst, np.random.default_rng(0)).winner_count
                    == oracle_max_winners_envy_free(inst.pop, inst.model, inst.budget))
        reports = run_suite(instances)
    assert {r.property_name: r.violations for r in reports if not r.passed} == {}


def test_pay_your_bid_control_with_huge_payments_is_still_caught():
    # payments near 1e222: the tolerance relative to them is ~1e213, far
    # below an overreport's gain, which is a tenth of her payment
    pop = Population(bits=[1, 0, 1, 1], values=np.array([1.0, 2.0, 4.0, 8.0]) * 1e222)
    inst = BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=2e222)
    assert fair_query(inst, np.random.default_rng(0)).payments.tolist() == [1e222, 1e222, 0, 0]
    assert check_truthfulness(fair_query, inst).passed
    report = check_truthfulness(pay_your_bid_control, inst)
    assert not report.passed
    assert min(v["delta"] for v in report.violations) > 1e220
