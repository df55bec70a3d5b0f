"""`core._stable_argsort`, the ranking kernel of both unilateral forms, is
numpy's stable argsort bit for bit, on either side of the row length at
which it switches to numpy's SIMD sort; and the allocation rules, which
select instead of ranking, equal ranking all n on rows that long."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privauction import core
from privauction.core import (CostFamily, PopulationSpec, _stable_argsort,
                              generate_population)
from privauction.mechanisms import (AccuracyInstance, BudgetInstance, fair_query,
                                    min_cost_auction)
from test_rules import assert_equals_ranking

SIMD_MIN = core._SIMD_SORT_MIN

# keys the two sorts may order differently: equal keys, the two zeros,
# infinities, NaNs (which numpy ranks last) and the smallest subnormal
SPECIAL = [0.0, -0.0, 1.0, 2.5, np.inf, -np.inf, np.nan, 5e-324]


@st.composite
def key_arrays(draw):
    n = draw(st.one_of(st.integers(1, 40),
                       st.sampled_from([SIMD_MIN - 1, SIMD_MIN, 3 * SIMD_MIN])))
    shape = (n,) if draw(st.booleans()) else (draw(st.integers(0, 4)), n)
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()),
                         min_size=1, max_size=8))
    # drawn element by element, long rows would be slow to generate; a seeded
    # generator fills them from the drawn pool, mixed with distinct keys
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    distinct = rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    return np.where(distinct, rng.random(shape), rng.choice(pool, shape))


@settings(max_examples=300, deadline=None)
@given(keys=key_arrays(), simd_min=st.sampled_from([0, SIMD_MIN]))
def test_stable_argsort_equals_numpys_stable_argsort(keys, simd_min):
    # simd_min 0 sends every input, n = 1 and m = 0 included, through the SIMD path
    with mock.patch.object(core, "_SIMD_SORT_MIN", simd_min):
        got = _stable_argsort(keys)
    want = np.argsort(keys, axis=-1, kind="stable")
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


N = 2 * SIMD_MIN
TIED = [0.0, 0.5, 1.0, 2.5, 7.0]


def _tied_instances():
    rng = np.random.default_rng(0)
    spec = PopulationSpec(n=N, values={"dist": "point", "points": rng.choice(TIED, N)},
                          bits={"model": "independent", "q": 0.5})
    pop = generate_population(spec)
    return [(fair_query, BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=100.0)),
            (min_cost_auction, AccuracyInstance(pop=pop, model=CostFamily.EXP_ARG,
                                                alpha=0.3))]


@pytest.mark.parametrize("mechanism, inst", _tied_instances(),
                         ids=["fair_query", "min_cost_auction"])
def test_rules_on_heavy_ties_match_the_stable_sort(mechanism, inst):
    rng = np.random.default_rng(1)
    values = inst.pop.values
    misreport = values.copy()
    misreport[rng.integers(N)] = TIED[2]
    reports = np.stack([values, misreport, rng.permutation(values)])
    agents = rng.integers(0, N, size=64)
    own = rng.choice(TIED, size=64)

    alloc = mechanism.rule(inst, reports)
    unilateral = mechanism.unilateral(inst, agents, own)
    with mock.patch.object(core, "_SIMD_SORT_MIN", N + 1):   # numpy's stable sort
        stable_unilateral = mechanism.unilateral(inst, agents, own)

    assert 0 < alloc.k.min() and alloc.k.max() < N - 1
    assert_equals_ranking(lambda: alloc, mechanism, inst, reports)
    for got, want in zip(unilateral, stable_unilateral):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
