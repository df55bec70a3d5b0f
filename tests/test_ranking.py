"""The allocation rules, which select instead of ranking, equal ranking all
n on rows long enough for numpy's SIMD sort and partition, with heavy ties;
and on the same tied instances the unilateral forms, which rank the
truthful keys once per instance with numpy's stable argsort, equal one full
mechanism run per misreport."""

import numpy as np
import pytest

from privauction.core import CostFamily, PopulationSpec, generate_population
from privauction.mechanisms import (AccuracyInstance, BudgetInstance, fair_query,
                                    min_cost_auction)
from test_rules import assert_equals_ranking
from test_verify import misreport_run

N = 2800
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
    assert 0 < alloc.k.min() and alloc.k.max() < N - 1
    assert_equals_ranking(lambda: alloc, mechanism, inst, reports)

    k, pay, eps, _ = mechanism.unilateral(inst, agents, own)
    runs = [misreport_run(mechanism, inst, i, v) for i, v in zip(agents, own)]
    assert 0 < np.count_nonzero(eps) < agents.size   # winners and losers
    np.testing.assert_array_equal(k, [out.winner_count for out in runs])
    np.testing.assert_array_equal(eps, [out.epsilons[i] for out, i in zip(runs, agents)])
    paid = np.array([out.payments[i] for out, i in zip(runs, agents)])
    # fair_query's form leaves out the rule's budget nudge, which lowers a
    # price by ulps
    assert (pay >= paid).all()
    np.testing.assert_allclose(pay, paid, rtol=1e-12, atol=0.0)
