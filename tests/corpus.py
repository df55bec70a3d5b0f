"""Seeded random instance corpora for the property tests."""

import numpy as np

from privauction.core import CostFamily, Population
from privauction.dp import ACCURACY_CONST
from privauction.mechanisms import AccuracyInstance, BudgetInstance


def with_values(pop: Population, values) -> Population:
    """Same bits, different reported valuations (one misreported profile)."""
    return Population(bits=pop.bits, values=values)


def random_instances(count: int, seed: int, n_lo: int = 2, n_hi: int = 16,
                     kind: str = "budget") -> list:
    """Seeded corpus of random instances cycling through all cost families."""
    rng = np.random.default_rng(seed)
    families = list(CostFamily)
    instances = []
    while len(instances) < count:
        n = int(rng.integers(n_lo, n_hi + 1))
        values = rng.uniform(0.0, 10.0, size=n)
        bits = rng.integers(0, 2, size=n)
        pop = Population(bits=bits, values=values)
        model = families[len(instances) % len(families)]
        if kind == "budget":
            budget = float(rng.uniform(0.0, 5.0 * n))
            instances.append(BudgetInstance(pop=pop, model=model, budget=budget))
        else:
            # alpha' uniform in [1/n, 0.6] keeps the target attainable
            lo = 1.0 / n
            alpha = float(rng.uniform(lo, 0.6)) * ACCURACY_CONST
            instances.append(AccuracyInstance(pop=pop, model=model, alpha=alpha))
    return instances
