import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import privauction
from privauction import core, mechanisms, verify
from privauction.core import (ALL_FAMILIES, Allocation, CostFamily, DomainError,
                              MechanismOutcome, Population, PopulationSpec,
                              _check_nonneg_finite, _cost, _k_cheapest, cost_eval,
                              generate_population)
from privauction.mechanisms import (AccuracyInstance, BudgetInstance, fair_query,
                                    min_cost_auction)
from privauction.verify import (check_budget_feasibility, check_necessity,
                               estimate_accuracy, impossibility_bound,
                               oracle_max_winners_envy_free, payment_lower_bound)


# --- cost_eval -------------------------------------------------------------

def test_linear_example():
    assert cost_eval(CostFamily.LINEAR, 2.0, 0.5) == 1.0


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_zero_eps_normalization(family):
    assert cost_eval(family, 7.3, 0.0) == 0.0


def test_exp_scaled_example():
    # closed form (e - 1) * 3, checked against an arbitrary-precision evaluation
    assert cost_eval(CostFamily.EXP_SCALED, 3.0, 1.0) == pytest.approx(
        5.154845485377136, abs=1e-9)


def test_exp_arg_form():
    assert cost_eval(CostFamily.EXP_ARG, 2.0, 0.5) == pytest.approx(
        math.e - 1.0, abs=1e-12)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("bad", [(-1.0, 0.5), (1.0, -0.5), (math.inf, 1.0),
                                 (1.0, math.nan)])
def test_cost_eval_domain_errors(family, bad):
    with pytest.raises(DomainError):
        cost_eval(family, *bad)


def test_cost_eval_vectorized():
    out = cost_eval(CostFamily.LINEAR, np.array([1.0, 2.0]), 0.5)
    np.testing.assert_allclose(out, [0.5, 1.0])


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_monotone_in_eps(family):
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = rng.uniform(0.01, 20.0)
        e1, e2 = sorted(rng.uniform(0.0, 2.0, size=2))
        c1, c2 = cost_eval(family, v, e1), cost_eval(family, v, e2)
        assert c1 <= c2
        if e2 > e1:
            assert c2 > c1  # strict for v > 0 in all four families


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_ordering_independent_of_eps(family):
    rng = np.random.default_rng(11)
    pairs = rng.uniform(0.0, 50.0, size=(1000, 2))
    epss = rng.uniform(1e-6, 3.0, size=100)
    for v, vp in pairs[:50]:  # full grid on a subsample keeps runtime sane
        cs = cost_eval(family, v, epss) - cost_eval(family, vp, epss)
        assert np.all(np.sign(cs) == np.sign(v - vp))


# --- the one input rule -----------------------------------------------------

# the operands as callers hand them to cost_eval: scalars, 0-d, 1-d, and
# 2-d by broadcasting, and an exp_arg product past 710 that overflows to inf
KERNEL_OPERANDS = {
    "scalars": (2.0, 0.5),
    "0-d": (np.array(3.0), np.array(0.25)),
    "1-d-by-scalar": (np.array([0.0, 1.0, 7.5]), 1.0 / 3.0),
    "1-d": (np.array([0.0, 1.0, 7.5]), np.array([0.5, 0.0, 1.0 / 3.0])),
    "2-d": (np.array([[0.0], [1.0], [7.5]]), np.array([[0.5, 0.0, 1.0 / 3.0, 2.0]])),
    "overflow": (np.array([1.0, 800.0]), np.array(1.0)),
}


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("case", KERNEL_OPERANDS)
def test_kernel_is_cost_eval_on_checked_operands(family, case):
    v, eps = KERNEL_OPERANDS[case]
    want = cost_eval(family, v, eps)
    v, eps = _check_nonneg_finite("v", v), _check_nonneg_finite("eps", eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _cost(family, v, eps)
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype == np.float64
    assert np.asarray(got).shape == np.asarray(want).shape
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if case == "overflow" and family is CostFamily.EXP_ARG:
        assert np.isinf(got[1])


def test_internal_callers_bind_the_kernel():
    assert mechanisms.cost_eval is verify.cost_eval is core._cost
    assert privauction.cost_eval is core.cost_eval


POP3 = Population(bits=[1, 0, 1], values=[1.0, 2.0, 3.0])
HALF = {"model": "independent", "q": 0.5}
POINTS3 = {"dist": "point", "points": [1.0, 2.0, 3.0]}
ADMISSIBILITY_ENTRY_POINTS = {
    "population-values": lambda bad: Population(bits=[1, 0], values=[1.0, bad]),
    "fair-query-rule-report": lambda bad: fair_query.rule(
        BudgetInstance(POP3, CostFamily.LINEAR, 2.0), [[1.0, bad, 3.0]]),
    "min-cost-unilateral-report": lambda bad: min_cost_auction.unilateral(
        AccuracyInstance(POP3, CostFamily.LINEAR, 0.9), np.array([0]), np.array([bad])),
    "cost-eval-v": lambda bad: cost_eval(CostFamily.LINEAR, bad, 0.5),
    "cost-eval-eps": lambda bad: cost_eval(CostFamily.LINEAR, 1.0, bad),
    "budget": lambda bad: BudgetInstance(POP3, CostFamily.LINEAR, bad),
    "impossibility-bound": lambda bad: impossibility_bound([1.0, bad]),
    "point-values": lambda bad: PopulationSpec(
        n=2, values={"dist": "point", "points": [1.0, bad]}, bits=HALF),
    "estimate-accuracy-error-bound": lambda bad: estimate_accuracy(
        fair_query, BudgetInstance(POP3, CostFamily.LINEAR, 2.0), bad, 10, 0),
    "oracle-max-winners-budget": lambda bad: oracle_max_winners_envy_free(
        POP3, CostFamily.LINEAR, bad),
    "budget-feasibility-budget": lambda bad: check_budget_feasibility(
        fair_query(BudgetInstance(POP3, CostFamily.LINEAR, 2.0), np.random.default_rng(0)),
        bad),
}


@pytest.mark.parametrize("entry", ADMISSIBILITY_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0],
                         ids=["nan", "inf", "-inf", "-1"])
def test_every_entry_point_gives_the_one_admissibility_error(entry, bad):
    with pytest.raises(DomainError, match="must be finite and >= 0"):
        ADMISSIBILITY_ENTRY_POINTS[entry](bad)


SCALAR_ENTRY_POINTS = ["cost-eval-v", "cost-eval-eps", "budget", "estimate-accuracy-error-bound",
                       "oracle-max-winners-budget", "budget-feasibility-budget"]


@pytest.mark.parametrize("entry", SCALAR_ENTRY_POINTS)
@pytest.mark.parametrize("bad", ["3", True, 10**400], ids=["str", "bool", "10**400"])
def test_every_scalar_entry_point_refuses_what_is_not_a_number(entry, bad):
    with pytest.raises(DomainError, match="must be a number that a float holds"):
        ADMISSIBILITY_ENTRY_POINTS[entry](bad)


def test_a_budget_instance_keeps_the_checked_float():
    for budget in (5, np.float32(5.0), np.int64(5)):
        inst = BudgetInstance(POP3, CostFamily.LINEAR, budget)
        assert type(inst.budget) is float and inst.budget == 5.0


FRACTION_ENTRY_POINTS = {
    "accuracy-instance": lambda bad: AccuracyInstance(POP3, CostFamily.LINEAR, bad),
    "necessity": lambda bad: check_necessity([0.5, 0.5, 0.5], bad),
    "payment-lower-bound": lambda bad: payment_lower_bound(POP3, CostFamily.LINEAR, bad),
}


@pytest.mark.parametrize("entry", FRACTION_ENTRY_POINTS)
@pytest.mark.parametrize("bad", ["0.5", True, math.nan, 0, 1, -0.1],
                         ids=["str", "bool", "nan", "0", "1", "-0.1"])
def test_every_alpha_is_one_checked_fraction(entry, bad):
    with pytest.raises(DomainError, match="^alpha must"):
        FRACTION_ENTRY_POINTS[entry](bad)


# --- Population ------------------------------------------------------------

def test_population_basic():
    pop = Population(bits=[1, 0, 1], values=[1.0, 2.0, 3.0])
    assert pop.n == 3
    assert pop.total == 2


@pytest.mark.parametrize("bits,values", [
    ([1, 0], [1.0]),            # length mismatch
    ([], []),                   # empty
    ([2, 0], [1.0, 1.0]),       # non-binary bit
    ([0.5, 1], [1.0, 1.0]),     # fractional bit, which a cast truncates to 0
    ([1.9, 0], [1.0, 1.0]),     # fractional bit, which a cast truncates to 1
    ([np.nan, 1], [1.0, 1.0]),  # NaN bit, which a cast rejects with numpy's error
    ([1, 0], [-1.0, 1.0]),      # negative value
    ([1, 0], [np.inf, 1.0]),    # non-finite value
    ([1, 0], ["1", "2"]),       # strings, which a cast reads as numbers
    ([1, 0], [True, False]),    # bools, which a cast reads as 1.0 and 0.0
])
def test_population_invariants(bits, values):
    with pytest.raises(DomainError):
        Population(bits=bits, values=values)


def test_population_immutable():
    pop = Population(bits=[1, 0], values=[1.0, 2.0])
    with pytest.raises(ValueError):
        pop.values[0] = 5.0


def test_population_leaves_the_callers_arrays_writable():
    bits, values = np.array([1, 0], dtype=np.int64), np.array([1.0, 2.0])
    pop = Population(bits=bits, values=values)
    assert bits.flags.writeable and values.flags.writeable
    bits[0], values[0] = 0, 5.0   # the caller reuses its arrays
    assert pop.bits.tolist() == [1, 0] and pop.values.tolist() == [1.0, 2.0]
    assert not (pop.bits.flags.writeable or pop.values.flags.writeable)


# --- generation ------------------------------------------------------------

def test_point_mass_independent_q1():
    spec = PopulationSpec(n=3, values=POINTS3, bits={"model": "independent", "q": 1},
                          seed=0)
    pop = generate_population(spec)
    np.testing.assert_array_equal(pop.bits, [1, 1, 1])
    np.testing.assert_array_equal(pop.values, [1.0, 2.0, 3.0])


def test_value_correlated_threshold():
    spec = PopulationSpec(n=3, values=POINTS3,
                          bits={"model": "value_correlated", "threshold": 2.0}, seed=0)
    pop = generate_population(spec)
    np.testing.assert_array_equal(pop.bits, [0, 1, 1])


def test_generation_deterministic():
    spec = PopulationSpec(n=1000, values={"dist": "uniform", "lo": 0.0, "hi": 1.0},
                          bits=HALF, seed=123)
    a, b = generate_population(spec), generate_population(spec)
    np.testing.assert_array_equal(a.bits, b.bits)
    np.testing.assert_array_equal(a.values, b.values)


def test_spec_dict_round_trip():
    spec = PopulationSpec(n=4, values={"dist": "uniform", "lo": 0.0, "hi": 2.0},
                          bits={"model": "value_correlated", "threshold": 1.0}, seed=9)
    assert PopulationSpec.from_dict(spec.to_dict()) == spec


UNIFORM = {"dist": "uniform", "lo": 0.0, "hi": 1.0}
SPEC_REJECTIONS = {
    "uniform-lo-above-hi": ({"dist": "uniform", "lo": 2.0, "hi": 1.0}, HALF,
                            "uniform values require finite lo <= hi"),
    "uniform-lo-nan": ({"dist": "uniform", "lo": math.nan, "hi": 1.0}, HALF,
                       "uniform values require finite lo <= hi"),
    "uniform-lo-inf": ({"dist": "uniform", "lo": -math.inf, "hi": 1.0}, HALF,
                       "uniform values require finite lo <= hi"),
    "lognormal-negative-sigma": ({"dist": "lognormal", "mu": 0.0, "sigma": -1.0}, HALF,
                                 "lognormal values require finite mu and sigma >= 0"),
    "point-negative": ({"dist": "point", "points": [1.0, -1.0]}, HALF,
                       "points must be finite and >= 0"),
    "point-nan": ({"dist": "point", "points": [math.nan, 1.0]}, HALF,
                  "points must be finite and >= 0"),
    "point-count-not-n": ({"dist": "point", "points": [1.0]}, HALF,
                          "point-mass value list length must equal n"),
    "q-above-one": (UNIFORM, {"model": "independent", "q": 1.5},
                    "bit probability q must lie in [0, 1]"),
    "q-below-zero": (UNIFORM, {"model": "independent", "q": -0.1},
                     "bit probability q must lie in [0, 1]"),
    "threshold-inf": (UNIFORM, {"model": "value_correlated", "threshold": math.inf},
                      "threshold must be finite"),
    "unknown-dist": ({"dist": "beta", "a": 1.0}, HALF, "unknown value distribution 'beta'"),
    "unknown-model": (UNIFORM, {"model": "copula"}, "unknown bit model 'copula'"),
    "missing-field": ({"dist": "uniform", "lo": 0.0}, HALF,
                      "population spec missing field 'hi'"),
    "list-for-object": (UNIFORM, [0.5], "bits must be an object, got [0.5]"),
    "null-bits": (UNIFORM, None, "bits must be an object, got None"),
    "string-values": ("uniform", HALF, "values must be an object, got 'uniform'"),
    "number-for-points": ({"dist": "point", "points": 5}, HALF,
                          "points must be a list of numbers, got 5"),
    "null-points": ({"dist": "point", "points": None}, HALF,
                    "points must be a list of numbers, got None"),
    "string-points": ({"dist": "point", "points": "123456"}, HALF,
                      "points must be a list of numbers, got '123456'"),
}


@pytest.mark.parametrize("case", SPEC_REJECTIONS)
def test_spec_rejects_with_its_message(case):
    values, bits, message = SPEC_REJECTIONS[case]
    with pytest.raises(DomainError, match=re.escape(message)):
        PopulationSpec(n=2, values=values, bits=bits)


def test_spec_validation():
    # the edges of every range are accepted
    for values in ({"dist": "uniform", "lo": 1, "hi": 1},
                   {"dist": "lognormal", "mu": -3, "sigma": 0},
                   {"dist": "point", "points": [0, 0]}):
        for bits in ({"model": "independent", "q": 0}, {"model": "independent", "q": 1},
                     {"model": "value_correlated", "threshold": -1e308}):
            spec = PopulationSpec(n=2, values=values, bits=bits)
            assert generate_population(spec).n == 2


def test_spec_is_read_only_and_keeps_its_own_copy():
    values = {"dist": "point", "points": [1.0, 2.0]}
    bits = {"model": "independent", "q": 0.5}
    spec = PopulationSpec(n=2, values=values, bits=bits)
    with pytest.raises(TypeError):
        spec.values["dist"] = "uniform"
    with pytest.raises(TypeError):
        spec.bits["q"] = 1.0
    values["points"].append(3.0)
    values["dist"], bits["q"] = "lognormal", 1.0
    assert spec.values == {"dist": "point", "points": (1.0, 2.0)}
    assert spec.bits == {"model": "independent", "q": 0.5}


def test_spec_to_dict_is_plain_floats_and_known_keys():
    # a key the spec does not know is an error, at each level: see
    # tests/test_cli.py::test_unknown_key_is_a_config_error_at_every_level
    spec = PopulationSpec.from_dict({
        "n": 2, "seed": 4, "values": {"dist": "point", "points": [1, 2]},
        "bits": {"model": "value_correlated", "threshold": 1}})
    d = spec.to_dict()
    assert d == {"n": 2, "seed": 4, "values": {"dist": "point", "points": [1.0, 2.0]},
                 "bits": {"model": "value_correlated", "threshold": 1.0}}
    assert type(d["values"]) is dict and type(d["bits"]) is dict
    assert type(d["values"]["points"]) is list
    assert all(type(p) is float for p in d["values"]["points"])
    assert type(d["bits"]["threshold"]) is float


# --- Allocation and MechanismOutcome ----------------------------------------

def one_row(won, k, payments) -> Allocation:
    return Allocation(np.array([won], dtype=bool), np.array([k]),
                      np.array([payments], dtype=float))


def test_outcome_losers_have_zero_eps():
    out = MechanismOutcome(0.0, one_row([1, 0, 1, 0], 2, [1.0, 0.0, 1.0, 0.0]))
    assert np.flatnonzero(out.allocation.won[0]).tolist() == [0, 2]
    assert (out.winner_count, out.noise_scale) == (2, 2.0)
    assert out.epsilons.tolist() == [0.5, 0.0, 0.5, 0.0]   # losers exactly 0
    assert out.total_payment == 2.0


def test_allocation_epsilons_are_kept_and_read_only():
    alloc = one_row([1, 0, 1, 0], 2, [1.0, 0.0, 1.0, 0.0])
    eps = alloc.epsilons
    assert alloc.epsilons is eps   # built once, on the first read
    assert MechanismOutcome(0.0, alloc).epsilons.base is eps
    with pytest.raises(ValueError, match="read-only"):
        eps[0, 1] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        alloc.epsilons = np.zeros((1, 4))
    assert eps.tolist() == [[0.5, 0.0, 0.5, 0.0]]


@pytest.mark.parametrize("k", [3, -1])
def test_allocation_rejects_k_outside_0_to_n_minus_1(k):
    with pytest.raises(DomainError):
        one_row([k > 0] * 3, k, [0.0, 0.0, 0.0])


@pytest.mark.parametrize("won, k", [([1, 1, 0], 1), ([1, 0, 0], 2), ([0, 0, 0], 1)])
def test_allocation_rejects_a_mask_that_does_not_mark_k_winners(won, k):
    with pytest.raises(DomainError, match="exactly k"):
        one_row(won, k, [0.0, 0.0, 0.0])
    # a row that marks k among rows that do not fails too
    with pytest.raises(DomainError, match="exactly k"):
        Allocation(np.array([[1, 0, 0], won], dtype=bool), np.array([1, k]),
                   np.zeros((2, 3)))


def test_allocation_rejects_a_mask_that_is_not_boolean():
    # an integer 2 sums to k = 2 but marks one winner
    with pytest.raises(DomainError, match="exactly k"):
        Allocation(np.array([[2, 0, 0]]), np.array([2]), np.zeros((1, 3)))


@pytest.mark.parametrize("won, k, payments", [
    ([[1, 0, 0]], [1, 1], np.zeros((2, 3))),   # one mask row, two k
    ([1, 0, 0], [1], np.zeros((1, 3))),         # a 1-d mask
    ([[1, 0, 0]], [1], np.zeros((1, 2))),       # payments too narrow
    ([[1, 0, 0]], [[1]], np.zeros((1, 3))),     # a 2-d k
], ids=["k-rows", "1-d-mask", "payments-columns", "2-d-k"])
def test_allocation_rejects_arrays_whose_shapes_disagree(won, k, payments):
    with pytest.raises(DomainError, match=r"\(m, n\)"):
        Allocation(np.array(won, dtype=bool), np.array(k), payments)


def test_outcome_needs_a_one_row_allocation():
    alloc = Allocation(np.zeros((2, 2), dtype=bool), np.array([0, 0]), np.zeros((2, 2)))
    with pytest.raises(DomainError):
        MechanismOutcome(0.0, alloc)


@pytest.mark.parametrize("m, n", [(1, 1), (1, 100), (7, 16), (3, 1000)])
def test_winner_mask_equals_argsort_inverse(m, n):
    # `_k_cheapest` marks exactly k agents, those the stable order puts
    # first; the tied keys include both zeros and inf, so that equal keys
    # straddle the k-th
    rng = np.random.default_rng(m * n)
    k = rng.integers(0, n, size=m)
    for keys in (rng.random((m, n)), rng.choice([0.0, -0.0, 0.5, 1.0, np.inf], (m, n))):
        ranked = np.sort(keys, axis=1)
        won = _k_cheapest(keys, k, np.where(k > 0, ranked[np.arange(m), k - 1], -np.inf))
        ref = np.argsort(np.argsort(keys, axis=1, kind="stable"), axis=1) < k[:, None]
        np.testing.assert_array_equal(won, ref)
        assert (np.count_nonzero(won, axis=1) == k).all()
