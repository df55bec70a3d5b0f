"""The two privacy-procurement auctions.

Both auctions buy the same privacy level eps = 1/(n-k) from the k
cheapest sellers, run the noisy-sum estimator over the winners' bits, and
pay a threshold price.  Payments and privacy levels are deterministic
functions of the reported values; only the estimate is randomized.  Each
instance therefore computes its allocation once, on first use, and every
mechanism call on it draws only the noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_OVERFLOW, Allocation, CostFamily, DomainError,
                   MechanismOutcome, Population, _check_nonneg_finite,
                   _k_cheapest, cost_eval)
from .dp import ACCURACY_CONST, EstimatorPlan, laplace_estimator
from .dp import lap_sample  # noqa: F401 -- the benchmark tracer (bench/tracer.py) patches it here


@dataclass(frozen=True)
class BudgetInstance:
    """Budget-constrained procurement: maximize accuracy with total payment <= budget."""

    pop: Population
    model: CostFamily
    budget: float

    def __post_init__(self):
        _check_nonneg_finite("budget", self.budget)


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


def _reports(inst, values) -> np.ndarray:
    """The (m, n) matrix of reported values, each finite and >= 0."""
    values = _check_nonneg_finite("values", values)
    if values.ndim != 2 or values.shape[1] != inst.pop.n:
        raise DomainError("reports must form an (m, n) matrix, n the population size")
    return values


def _kept(inst, key, build):
    """`build()`, kept per `key` in the instance's `__dict__` under `_kept`,
    as a `cached_property` would be, out of reach of equality, hash and
    repr: the truthful estimator plans and each unilateral form's set-up.

    Instances are frozen, their population arrays read-only, and
    `dataclasses.replace` builds a new instance, so the kept result cannot go
    stale.  A `build` that raises keeps nothing and raises again on every
    call.
    """
    try:
        return inst.__dict__["_kept"][key]
    except KeyError:
        pass
    kept = build()
    inst.__dict__.setdefault("_kept", {})[key] = kept
    return kept


def _truthful(inst, rule) -> EstimatorPlan:
    """The estimator plan of an instance's allocation by `rule` on its own
    reports as a one-row matrix, kept per rule (`_kept`)."""
    return _kept(inst, rule, lambda: EstimatorPlan(
        inst.pop, rule(inst, inst.pop.values[None, :])))


def _outcome(inst, rule, rng: np.random.Generator) -> MechanismOutcome:
    """A mechanism run: the instance's kept allocation by `rule`, one lookup
    once `_truthful` has built it, and one noisy sum over its winners' bits."""
    try:
        plan = inst.__dict__["_kept"][rule]
    except KeyError:
        plan = _truthful(inst, rule)
    return MechanismOutcome(laplace_estimator(plan, rng), plan.allocation)


def _fair_query_rule(inst: BudgetInstance, values) -> Allocation:
    """`fair_query`'s allocation on each row of an (m, n) matrix of reports."""
    model, budget = inst.model, inst.budget
    values = _reports(inst, values)
    m, n = values.shape
    v_sorted = np.sort(values, axis=-1)

    if n < 2:   # no k >= 1 leaves a seller out
        k, price, kth = np.zeros(m, dtype=np.intp), np.zeros(m), np.full(m, -np.inf)
    else:
        ks = np.arange(1, n)
        # for every k in [1, n-1], the costs at eps = 1/(n-k) of the k-th
        # cheapest report and of the first one excluded
        last_in, first_out = cost_eval(
            model, np.stack([v_sorted[:, :-1], v_sorted[:, 1:]]), 1.0 / (n - ks))
        with np.errstate(over="ignore"):   # an overflowed charge is not affordable
            k = ((ks * last_in <= budget) * ks).max(axis=1)   # the largest affordable k, 0 if none
        at = np.arange(m), k - 1   # a row with k = 0 pays its price to no one
        # + 0.0: a zero price is +0.0, whatever order the sort gave -0.0 and 0.0
        price = np.minimum(budget / ks, first_out)[at] + 0.0
        kth = np.where(k > 0, v_sorted[at], -np.inf)   # the k-th cheapest report

    won = _k_cheapest(values, k, kth)
    payments = np.where(won, price[:, None], 0.0)
    # the budget constraint is exact; nudge a row's price down by ulps while
    # rounding in budget/k or the summation pushes its total over
    over = payments.sum(axis=1) > budget
    while over.any():
        price[over] = np.nextafter(price[over], 0.0)
        payments = np.where(won, price[:, None], 0.0)
        over = payments.sum(axis=1) > budget
    return Allocation(won, k, payments)


def _ranking(keys: np.ndarray):
    """The truthful keys in stable ascending order (ties by index), each
    agent's position in that order, and the composite keys (the count of
    smaller keys * n + agent index), which ascend along the order."""
    n = keys.size
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    s = np.empty(n, dtype=np.intp)
    s[order] = np.arange(n)
    return ordered, s, np.searchsorted(ordered, ordered) * n + order


def _positions(ordered, s, composite, agents, reports):
    """From `_ranking`'s tables, agent `agents[j]`'s position s in the
    truthful order and the position p that her report `reports[j]` takes
    among the others' keys, ties by index.

    One `searchsorted` on the composite keys counts the agents ranked before
    the report; the agent's own key is then taken out of that count.
    """
    s = s[agents]
    below = np.searchsorted(ordered, reports)   # keys below each report
    tied = ordered.take(below, mode="clip") == reports
    p = np.searchsorted(composite, below * ordered.size + np.where(tied, agents, 0))
    return s, p - (ordered[s] < reports)


def _fair_query_unilateral(inst: BudgetInstance, agents, reports):
    """`fair_query` on rows in which only agent `agents[j]` misreports, as
    `reports[j]`: per row (k, her payment, her eps, the price).

    The price is before the rule's budget nudge, which only lowers it, so
    her payment is an upper bound on the rule's.  With her at position p
    among the others and at s in the truthful order, the k-th cheapest
    report of her row is the truthful sorted value at k-2, k-1 or k, or her
    own; so three feasibility diagonals over k, their running last feasible
    k, and one cost of her own give the largest feasible k in O(1) a row.
    All but her own cost, the ranking of the values included, is built once
    per instance (`_kept`).
    """
    model, budget = inst.model, inst.budget
    reports = _check_nonneg_finite("values", reports)
    n, last_k = inst.pop.n, inst.pop.n - 1

    def setup():
        v_sorted, s, composite = _ranking(inst.pop.values)
        ks = np.arange(n)                  # k = 0 is never feasible
        eps = 1.0 / (n - ks)
        cap = budget / np.maximum(ks, 1)
        # last[d + 1, k]: the largest k' <= k that is feasible when the k'-th
        # cheapest report is the truthful sorted value at k' - 1 + d
        at = ks - 1 + np.arange(-1, 2)[:, None]
        fits = (ks >= 1) & (at >= 0)
        with np.errstate(over="ignore"):   # max(k, 1): no 0 * inf at k = 0
            charge = np.maximum(ks, 1) * cost_eval(model, v_sorted.take(at, mode="clip"), eps)
        fits &= charge <= budget
        last = np.maximum.accumulate(np.where(fits, ks, 0), axis=1)
        return v_sorted, s, composite, eps, cap, last

    v_sorted, s, composite, eps, cap, last = _kept(inst, _fair_query_unilateral, setup)
    s, p = _positions(v_sorted, s, composite, agents, reports)

    def best(d, lo, hi):
        found = last[d + 1, hi]
        return np.where(found >= lo, found, 0)

    own_k = p + 1
    own_fits = own_k <= last_k
    with np.errstate(over="ignore"):
        own_fits &= own_k * cost_eval(model, reports, eps.take(own_k, mode="clip")) <= budget
    k = np.maximum.reduce([
        last[1, np.minimum(p, s)],                   # k <= p, k <= s
        best(1, s + 1, p),                           # s < k <= p
        np.where(own_fits, own_k, 0),                # her report is the k-th
        best(-1, p + 2, np.minimum(s + 1, last_k)),  # p + 1 < k <= s + 1
        best(0, np.maximum(p, s) + 2, last_k),       # k > p + 1, k > s + 1
    ])
    # the first excluded report: hers, or the truthful sorted value at
    excluded = np.where(k < p, k + (k >= s), k - (k <= s))
    first_out = np.where(k == p, reports, v_sorted.take(excluded, mode="clip"))
    price = np.where(k > 0, np.minimum(cap[k], cost_eval(model, first_out, eps[k])), 0.0) + 0.0
    won = p < k
    return k, np.where(won, price, 0.0), np.where(won, eps[k], 0.0), price


def fair_query(inst: BudgetInstance, rng: np.random.Generator) -> MechanismOutcome:
    """Budget-constrained auction.

    Picks the largest k in [1, n-1] such that k times the k-th cheapest
    seller's cost at eps = 1/(n-k) is at most the budget (the envy-free
    oracle's test), buys from the k cheapest, and pays
    each winner min(budget/k, cost of the first excluded seller).  The
    allocation is `fair_query.rule`, run on the reports as a one-row matrix
    once per instance (`_truthful`).
    """
    return _outcome(inst, _fair_query_rule, rng)


def _min_cost_rule(inst: AccuracyInstance, values) -> Allocation:
    """`min_cost_auction`'s allocation on each row of an (m, n) matrix of reports."""
    values = _reports(inst, values)
    m, n = values.shape
    k = inst.winner_count
    if k >= n:
        raise DomainError("accuracy target unattainable: winner count would reach n")
    w = cost_eval(inst.model, values, np.full(n, 1.0 / (n - k)))
    # one kth: numpy partitions around a sequence of them several times slower
    ranked = np.partition(w, k, axis=-1)
    price = ranked[:, k] + 0.0   # the (k+1)-th lowest unit cost, a zero as +0.0
    kth = ranked[:, :k].max(axis=1)
    del ranked   # free the partitioned copy before the payments are built
    with np.errstate(over="ignore"):
        if not np.isfinite(k * price).all():
            raise DomainError(_OVERFLOW)
    ks = np.full(m, k)
    won = _k_cheapest(w, ks, kth)
    return Allocation(won, ks, np.where(won, price[:, None], 0.0))


def _min_cost_unilateral(inst: AccuracyInstance, agents, reports):
    """`min_cost_auction` on rows in which only agent `agents[j]` misreports,
    as `reports[j]`: per row (k, her payment, her eps, the price), all exact.

    She wins iff her unit cost's position p among the others' is below k.
    The price, the (k+1)-th lowest unit cost of her row, is the others' k-th
    if she wins, her own if p = k, and the others' (k+1)-th otherwise.
    Fails closed as the rule does: a row whose total k * price is not
    finite raises `DomainError`.  The truthful unit costs are
    ranked once per instance (`_kept`).
    """
    reports = _check_nonneg_finite("values", reports)
    n, k = inst.pop.n, inst.winner_count
    eps = 1.0 / (n - k)
    w_sorted, s, composite = _kept(inst, _min_cost_unilateral, lambda: _ranking(
        cost_eval(inst.model, inst.pop.values, np.full(n, eps))))
    own = cost_eval(inst.model, reports, np.full(reports.size, eps))
    s, p = _positions(w_sorted, s, composite, agents, own)
    at = np.where(p < k, k - (k <= s), k + (k >= s))
    price = np.where(p == k, own, w_sorted.take(at, mode="clip")) + 0.0
    with np.errstate(over="ignore"):
        if not np.isfinite(k * price).all():
            raise DomainError(_OVERFLOW)
    won = p < k
    return np.full(p.size, k), np.where(won, price, 0.0), np.where(won, eps, 0.0), price


def min_cost_auction(inst: AccuracyInstance, rng: np.random.Generator) -> MechanismOutcome:
    """Accuracy-constrained auction (a multi-unit VCG).

    With k = ceil((1 - alpha') * n) units to buy, each agent's unit cost is
    w_i = c(v_i, 1/(n-k)); the k cheapest win and are all paid the (k+1)-th
    lowest unit cost.  The allocation is `min_cost_auction.rule`, run on the
    reports as a one-row matrix once per instance (`_truthful`).
    """
    return _outcome(inst, _min_cost_rule, rng)


# Each auction carries its allocation rule and its unilateral form, so a
# misreport check handed the mechanism (or a functools.wraps wrapper of it)
# sweeps one agent's deviations and evaluates whole matrices of reports
# through the same code.
fair_query.rule = _fair_query_rule
fair_query.unilateral = _fair_query_unilateral
min_cost_auction.rule = _min_cost_rule
min_cost_auction.unilateral = _min_cost_unilateral

