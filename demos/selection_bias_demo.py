"""Walkthrough: why "buy from the cheapest sellers" fails under correlation.

If agents' privacy valuations are correlated with their private bits, a small
budget buys data only from the cheap end of the population, and the resulting
estimate is systematically skewed.  Here bits are set by a valuation
threshold (b_i = 1 iff v_i >= t); sweeping t shows the estimate's mean error
drifting as the unobserved bit rate departs from the estimator's neutral
offset.
"""

from privauction import (BudgetInstance, CostFamily, EstimatorPlan,
                         PopulationSpec, fair_query, generate_population,
                         trial_estimates, trial_stream)

N, BUDGET, TRIALS = 40, 1.0, 2000

print(f"n={N}, budget={BUDGET} (buys only a few cheap sellers)")
print(f"{'threshold':>10} {'true s':>7} {'k':>3} {'mean error':>11}")
for t in (0.0, 2.5, 5.0, 7.5, 10.0):
    spec = PopulationSpec(n=N, values={"dist": "uniform", "lo": 0.0, "hi": 10.0},
                          bits={"model": "value_correlated", "threshold": t}, seed=3)
    pop = generate_population(spec)
    inst = BudgetInstance(pop=pop, model=CostFamily.LINEAR, budget=BUDGET)
    # the allocation is deterministic: run the auction once, then redraw
    # only the Laplace noise per trial
    out = fair_query(inst, trial_stream(0, 0))
    errors = trial_estimates(EstimatorPlan(pop, out.winners), 0, TRIALS) - pop.total
    print(f"{t:>10} {pop.total:>7} {out.winner_count:>3} {errors.mean():>11.2f}")

print("\nThe bias flips sign across the threshold sweep: cheap sellers'")
print("bits stand in for everyone else's, and money cannot fix what the")
print("budget cannot buy.")
