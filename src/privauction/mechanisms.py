"""The two privacy-procurement auctions and the fixed-price benchmark family.

Both auctions buy the same privacy level eps = 1/(n-k) from the k
cheapest sellers, run the noisy-sum estimator over the winners' bits, and
pay a threshold price.  Payments and privacy levels are deterministic
functions of the reported values; only the estimate is randomized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CostFamily, DomainError, MechanismOutcome, Population, cost_eval
from .dp import ACCURACY_CONST, EstimatorPlan, laplace_estimator
from .dp import lap_sample  # noqa: F401 -- the benchmark tracer (bench/tracer.py) patches it here


@dataclass(frozen=True)
class BudgetInstance:
    """Budget-constrained procurement: maximize accuracy with total payment <= budget."""

    pop: Population
    model: CostFamily
    budget: float

    def __post_init__(self):
        if not math.isfinite(self.budget) or self.budget < 0:
            raise DomainError("budget must be finite and >= 0")


@dataclass(frozen=True)
class AccuracyInstance:
    """Accuracy-constrained procurement: hit an alpha*n accuracy target at minimum payment."""

    pop: Population
    model: CostFamily
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise DomainError("alpha must lie in (0, 1)")
        if self.alpha_scaled < 1.0 / self.pop.n:
            raise DomainError(
                "accuracy target unattainable: alpha/(1/2 + ln 3) must be >= 1/n")

    @property
    def alpha_scaled(self) -> float:
        """alpha' = alpha / (1/2 + ln 3), the estimator's left-out fraction."""
        return self.alpha / ACCURACY_CONST

    @property
    def winner_count(self) -> int:
        """k = ceil((1 - alpha') * n)."""
        return math.ceil((1.0 - self.alpha_scaled) * self.pop.n)


def _sorted_order(values: np.ndarray) -> np.ndarray:
    # ties broken by original index, for reproducibility
    return np.argsort(values, kind="stable")


def _outcome(pop: Population, order: np.ndarray, k: int, payments: np.ndarray,
             analyst_charge: float, rng: np.random.Generator,
             ir_feasible: bool = True) -> MechanismOutcome:
    """The k first agents of `order` win; one noisy sum over their bits."""
    plan = EstimatorPlan(pop.n, order[:k])
    return MechanismOutcome(
        estimate=laplace_estimator(pop, plan, rng),
        payments=payments,
        epsilons=plan.epsilons,
        analyst_charge=analyst_charge,
        winners=plan.winners,
        noise_scale=plan.noise_scale,
        ir_feasible=ir_feasible,
    )


def fair_query(inst: BudgetInstance, rng: np.random.Generator) -> MechanismOutcome:
    """Budget-constrained auction.

    Picks the largest k in [1, n-1] such that the k-th cheapest seller's cost
    at eps = 1/(n-k) is at most budget/k, buys from the k cheapest, and pays
    each winner min(budget/k, cost of the first excluded seller).
    """
    pop, model, budget = inst.pop, inst.model, inst.budget
    n = pop.n
    order = _sorted_order(pop.values)
    v_sorted = pop.values[order]

    k = 0
    if n >= 2:
        ks = np.arange(1, n)
        eps_k = 1.0 / (n - ks)
        feasible = cost_eval(model, v_sorted[ks - 1], eps_k) <= budget / ks
        if np.any(feasible):
            k = int(ks[feasible][-1])

    payments = np.zeros(n)
    if k > 0:
        eps = 1.0 / (n - k)
        price = min(budget / k, cost_eval(model, v_sorted[k], eps))
        payments[order[:k]] = price
        # the budget constraint is exact; nudge the price down by ulps if
        # rounding in budget/k or the summation pushed the total over
        while payments.sum() > budget:
            price = np.nextafter(price, 0.0)
            payments[order[:k]] = price
    return _outcome(pop, order, k, payments, float(payments.sum()), rng)


def min_cost_auction(inst: AccuracyInstance, rng: np.random.Generator) -> MechanismOutcome:
    """Accuracy-constrained auction (a multi-unit VCG).

    With k = ceil((1 - alpha') * n) units to buy, each agent's unit cost is
    w_i = c(v_i, 1/(n-k)); the k cheapest win and are all paid the (k+1)-th
    lowest unit cost.
    """
    pop, model = inst.pop, inst.model
    n = pop.n
    k = inst.winner_count
    if k >= n:
        raise DomainError("accuracy target unattainable: winner count would reach n")
    eps = 1.0 / (n - k)
    w = cost_eval(model, pop.values, np.full(n, eps))
    order = _sorted_order(np.asarray(w))
    w_sorted = np.asarray(w)[order]

    payments = np.zeros(n)
    payments[order[:k]] = w_sorted[k]
    return _outcome(pop, order, k, payments, float(k * w_sorted[k]), rng)


def fixed_price_mechanism(pop: Population, model: CostFamily, k: int, price: float,
                          rng: np.random.Generator) -> MechanismOutcome:
    """Benchmark family: buy eps = 1/(n-k) from the k cheapest sellers at one
    fixed price each.

    The outcome is flagged infeasible when the price does not cover the k-th
    cheapest seller's cost (an IR violation); the optimality oracles use the
    flag.
    """
    n = pop.n
    if not (0 <= k <= n - 1):
        raise DomainError("fixed-price mechanism needs 0 <= k <= n-1")
    if not math.isfinite(price) or price < 0:
        raise DomainError("price must be finite and >= 0")
    order = _sorted_order(pop.values)

    payments = np.zeros(n)
    feasible = True
    if k > 0:
        eps = 1.0 / (n - k)
        payments[order[:k]] = price
        feasible = price >= cost_eval(model, pop.values[order[k - 1]], eps)
    return _outcome(pop, order, k, payments, float(payments.sum()), rng,
                    ir_feasible=bool(feasible))
