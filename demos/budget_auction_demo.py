"""Walkthrough: buying the most accuracy a fixed budget can afford.

A data analyst has a budget B and wants the most accurate noisy count of a
private bit over a population.  The budget auction sorts agents by their
reported privacy valuations, finds the largest affordable winner set, pays a
single threshold price, and adds Laplace noise calibrated so that winners'
privacy loss is exactly what they were paid for.
"""

import numpy as np

from privauction import (BudgetInstance, CostFamily, Population, fair_query,
                         oracle_max_winners_envy_free)

pop = Population(bits=[1, 0, 1, 1], values=[1.0, 2.0, 4.0, 8.0])
inst = BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=2.0)

out = fair_query(inst, np.random.default_rng(0))
print(f"true count s = {pop.total}")
print(f"winners      = {np.flatnonzero(out.allocation.won[0]).tolist()}")
print(f"payments     = {out.payments}")
print(f"eps per agent= {out.epsilons}")
print(f"estimate     = {out.estimate:.3f}  (noise scale {out.noise_scale})")
print(f"total paid   = {out.total_payment}  (budget {inst.budget})")

# brute-force check: no envy-free fixed-price mechanism affords more winners
oracle_k = oracle_max_winners_envy_free(pop, inst.model, inst.budget)
print(f"oracle max winners within budget = {oracle_k} (mechanism bought {out.winner_count})")

# accuracy improves with budget: more winners, less noise
print("\nbudget sweep:")
for budget in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
    sweep_out = fair_query(
        BudgetInstance(pop=pop, model=inst.model, budget=budget),
        np.random.default_rng(1))
    print(f"  B={budget:>4}: k={sweep_out.winner_count}, "
          f"noise scale={sweep_out.noise_scale}, paid={sweep_out.total_payment}")
