"""Walkthrough: hitting an accuracy target at minimum total payment.

With a fixed accuracy target alpha*n, the auction must buy privacy level
1/(n-k) from k = ceil((1 - alpha')n) agents.  Treating each agent as a seller
of one unit at cost w_i = c(v_i, 1/(n-k)), the k cheapest win and all receive
the (k+1)-th lowest unit cost -- the classic threshold payment that makes
truthful reporting a dominant strategy.
"""

import numpy as np

from privauction import (ACCURACY_CONST, AccuracyInstance, CostFamily,
                         Population, estimate_accuracy, min_cost_auction,
                         oracle_min_payment_k_units)

pop = Population(bits=np.ones(10, dtype=int), values=np.arange(1.0, 11.0))
alpha = 0.2 * ACCURACY_CONST   # i.e. alpha' = 0.2, so k = 8 winners
inst = AccuracyInstance(pop=pop, model=CostFamily.LINEAR, alpha=alpha)

out = min_cost_auction(inst, np.random.default_rng(0))
print(f"target: estimate within {inst.alpha * pop.n:.2f} of s with prob >= 2/3")
print(f"winners       = {np.flatnonzero(out.allocation.won[0]).tolist()}")
print(f"unit price    = {out.payments.max()}  (the 9th-lowest unit cost)")
print(f"total payment = {out.total_payment}")

# no envy-free fixed-price auction guaranteeing 8 units can pay less
oracle = oracle_min_payment_k_units(pop, inst.model, out.winner_count)
print(f"oracle minimum payment for {out.winner_count} units = {oracle}")

# the accuracy contract, checked by Monte Carlo
miss_rate = estimate_accuracy(min_cost_auction, inst, inst.alpha * pop.n,
                              trials=20_000, seed=1)
print(f"empirical miss rate at the contract bound: {miss_rate:.4f} (<= 1/3)")
