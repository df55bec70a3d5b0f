"""The two privacy-procurement auctions.

Both auctions buy the same privacy level eps = 1/(n-k) from the k
cheapest sellers, run the noisy-sum estimator over the winners' bits, and
pay a threshold price.  Payments and privacy levels are deterministic
functions of the reported values; only the estimate is randomized.  Each
instance therefore computes its allocation once, on first use, and every
mechanism call on it draws only the noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (Allocation, CostFamily, DomainError, MechanismOutcome,
                   Population, _winner_mask, cost_eval)
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

    @functools.cached_property
    def truthful(self) -> tuple[Allocation, EstimatorPlan]:
        """(`fair_query`'s allocation on the truthful reports, its estimator
        plan), computed on first use and kept."""
        return _truthful(self, _fair_query_rule)


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

    @functools.cached_property
    def truthful(self) -> tuple[Allocation, EstimatorPlan]:
        """(`min_cost_auction`'s allocation on the truthful reports, its
        estimator plan), computed on first use and kept."""
        return _truthful(self, _min_cost_rule)


def _reports(inst, values) -> np.ndarray:
    """The (m, n) matrix of reported values, checked as `Population` checks them."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != inst.pop.n:
        raise DomainError("reports must form an (m, n) matrix, n the population size")
    if not np.isfinite(values).all() or (values < 0).any():
        raise DomainError("values must be finite and >= 0")
    return values


def _truthful(inst, rule) -> tuple[Allocation, EstimatorPlan]:
    """An instance's allocation by `rule` on its own reports as a one-row
    matrix, and the estimator plan of that row's winners.

    Instances are frozen, their population arrays read-only, and
    `dataclasses.replace` builds a new instance, so the kept result cannot go
    stale.  A rule that raises keeps nothing and raises again on every call.
    """
    alloc = rule(inst, inst.pop.values[None, :])
    return alloc, EstimatorPlan(inst.pop.n, alloc.order[0, :alloc.k[0]])


def _outcome(inst, rng: np.random.Generator) -> MechanismOutcome:
    """A mechanism run: the instance's kept allocation and one noisy sum over
    its winners' bits."""
    alloc, plan = inst.truthful
    return MechanismOutcome(laplace_estimator(inst.pop, plan, rng), alloc)


def _fair_query_rule(inst: BudgetInstance, values) -> Allocation:
    """`fair_query`'s allocation on each row of an (m, n) matrix of reports."""
    model, budget = inst.model, inst.budget
    values = _reports(inst, values)
    m, n = values.shape
    order = np.argsort(values, axis=1, kind="stable")   # ties by index
    v_sorted = values[np.arange(m)[:, None], order]

    k = np.zeros(m, dtype=np.intp)
    price = np.zeros(m)
    if n >= 2:
        ks = np.arange(1, n)
        cap = budget / ks
        # for every k in [1, n-1], the costs at eps = 1/(n-k) of the k-th
        # cheapest report and of the first one excluded
        last_in, first_out = cost_eval(
            model, np.stack([v_sorted[:, :-1], v_sorted[:, 1:]]), 1.0 / (n - ks))
        k = ((last_in <= cap) * ks).max(axis=1)   # the largest feasible k, 0 if none
        price = np.where(k > 0, np.minimum(cap, first_out)[np.arange(m), k - 1], 0.0)

    won = _winner_mask(order, k)
    payments = np.where(won, price[:, None], 0.0)
    total = payments.sum(axis=1)
    # the budget constraint is exact; nudge a row's price down by ulps while
    # rounding in budget/k or the summation pushes its total over
    over = total > budget
    while over.any():
        price[over] = np.nextafter(price[over], 0.0)
        payments = np.where(won, price[:, None], 0.0)
        total = payments.sum(axis=1)
        over = total > budget
    return Allocation(order, k, payments, total)


def fair_query(inst: BudgetInstance, rng: np.random.Generator) -> MechanismOutcome:
    """Budget-constrained auction.

    Picks the largest k in [1, n-1] such that the k-th cheapest seller's cost
    at eps = 1/(n-k) is at most budget/k, buys from the k cheapest, and pays
    each winner min(budget/k, cost of the first excluded seller).  The
    allocation is `fair_query.rule`, run on the reports as a one-row matrix
    once per instance (`BudgetInstance.truthful`).
    """
    return _outcome(inst, rng)


def _min_cost_rule(inst: AccuracyInstance, values) -> Allocation:
    """`min_cost_auction`'s allocation on each row of an (m, n) matrix of reports."""
    values = _reports(inst, values)
    m, n = values.shape
    k = inst.winner_count
    if k >= n:
        raise DomainError("accuracy target unattainable: winner count would reach n")
    w = cost_eval(inst.model, values, np.full(n, 1.0 / (n - k)))
    order = np.argsort(w, axis=1, kind="stable")
    price = w[np.arange(m), order[:, k]]   # the (k+1)-th lowest unit cost
    payments = np.where(_winner_mask(order, k), price[:, None], 0.0)
    return Allocation(order, np.full(m, k), payments, k * price)


def min_cost_auction(inst: AccuracyInstance, rng: np.random.Generator) -> MechanismOutcome:
    """Accuracy-constrained auction (a multi-unit VCG).

    With k = ceil((1 - alpha') * n) units to buy, each agent's unit cost is
    w_i = c(v_i, 1/(n-k)); the k cheapest win and are all paid the (k+1)-th
    lowest unit cost.  The allocation is `min_cost_auction.rule`, run on the
    reports as a one-row matrix once per instance (`AccuracyInstance.truthful`).
    """
    return _outcome(inst, rng)


# Each auction carries its allocation rule, so a misreport check handed the
# mechanism (or a functools.wraps wrapper of it) evaluates whole matrices of
# reports through the same code.
fair_query.rule = _fair_query_rule
min_cost_auction.rule = _min_cost_rule

