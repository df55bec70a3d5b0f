"""Executable checks for every property the mechanisms are supposed to have:
truthfulness, individual rationality, envy-freeness, budget feasibility,
accuracy, the necessity/sufficiency conditions on privacy purchases, the
instance-optimality oracles, and the sensitive-value payment bound.

Checkers are pure value-in/report-out functions; reports serialize to JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Union

import numpy as np

from .core import (_OVERFLOW, TOL, Allocation, CostFamily, DomainError,
                   MechanismOutcome, Population, _check_integer,
                   _check_nonneg_finite, _tolerance, cost_eval)
from .dp import (ACCURACY_CONST, EstimatorPlan, lap_density, privacy_ratio_bound,
                 trial_estimates, trial_stream)
from .mechanisms import (AccuracyInstance, BudgetInstance, _kept, _truthful,
                         fair_query, min_cost_auction)

Instance = Union[BudgetInstance, AccuracyInstance]
#: A mechanism run; `check_truthfulness` also reads its allocation rule, the
#: attribute `rule`: (instance, (m, n) reports) -> Allocation, and its
#: unilateral form, the attribute `unilateral`: (instance, agents, reports)
#: -> per row (k, the agent's payment and eps, the price), where only agent
#: agents[j] misreports, as reports[j], and her payment may be an upper bound.
Mechanism = Callable[[Instance, np.random.Generator], MechanismOutcome]


@dataclass
class VerificationReport:
    """Verdict for one property: it passes exactly when it has no
    counterexamples."""

    property_name: str
    violations: List[dict] = field(default_factory=list)
    tolerance: float = TOL

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "property": self.property_name,
            "pass": self.passed,
            "violations": self.violations,
            "tolerance": self.tolerance,
        }


# ---------------------------------------------------------------------------
# The misreport grid
# ---------------------------------------------------------------------------

#: Each agent's grid holds her own value times each of these.
_MULTIPLIERS = (0.5, 0.9, 1.1, 2.0)


def _misreport_blocks(values: np.ndarray, cells: int):
    """Every agent's candidate misreports, ascending and without repeats,
    block by block: yields (lo, hi, agents, candidates) for agents lo to
    hi - 1, their grids concatenated agent-major.  A block holds at most
    `cells` candidates unless one agent's grid alone is larger, so memory is
    O(cells + n), not O(n^2).

    Between two adjacent pivots (the other agents' values) an agent's report
    keeps its rank among the others.  `min_cost_auction`'s outcome depends on
    the report only through that rank.  `fair_query`'s also depends on
    whether the agent's own cost fits under the budget at her rank, which
    moves with the report but monotonically within an interval, so each
    interval's ends decide it.  Agent i's grid is every other agent's value,
    those values nudged by +-delta = 1e-6 * max(max value, 1) (clipped at 0),
    zero, and her own value times each of `_MULTIPLIERS`; it therefore
    witnesses any profitable deviation.  Every candidate is >= 0.

    The union of all grids is built once: a pivot is in agent i's grid
    unless every copy of it is one of her own three, and her multiples are
    added back.
    """
    delta = 1e-6 * max(float(values.max()), 1.0)
    n = values.size
    pivots = np.concatenate([[0.0], values, values + delta,
                             np.maximum(values - delta, 0.0)])
    multiples = values[:, None] * np.asarray(_MULTIPLIERS)
    columns = np.unique(np.concatenate([pivots, multiples.ravel()]))
    at = np.searchsorted(columns, pivots)
    count = np.bincount(at, minlength=columns.size)
    own = at[1:].reshape(3, n)       # the zero pivot is nobody's own
    shared = count > 0
    # whether another agent's copy keeps each of her own three
    own_kept = count[own] > (own[:, None, :] == own).sum(axis=1)
    multiples_at = np.searchsorted(columns, multiples)
    # an agent's grid is at most the shared pivots and her multiples
    per_block = max(1, cells // (np.count_nonzero(shared) + len(_MULTIPLIERS)))
    for lo in range(0, n, per_block):
        hi = min(lo + per_block, n)
        rows = np.arange(hi - lo)
        keep = np.repeat(shared[None, :], rows.size, axis=0)
        keep[rows, own[:, lo:hi]] = own_kept[:, lo:hi]
        keep[rows[:, None], multiples_at[lo:hi]] = True
        agents, at = np.nonzero(keep)
        agents += lo
        yield lo, hi, agents, columns[at]


# ---------------------------------------------------------------------------
# Per-outcome checks
# ---------------------------------------------------------------------------

def check_individual_rationality(outcome: MechanismOutcome, pop: Population,
                                 model: CostFamily) -> VerificationReport:
    """Each agent's payment must cover her cost at her realized privacy level,
    up to `_tolerance` of the payment; a NaN slack is a violation."""
    costs = cost_eval(model, pop.values, outcome.epsilons)
    slack = outcome.payments - costs
    agents = np.flatnonzero(~(slack >= -_tolerance(outcome.payments)))
    violations = [
        {"agent": i, "datum": v, "delta": d}
        for i, v, d in zip(agents.tolist(), pop.values[agents].tolist(),
                           slack[agents].tolist())
    ]
    return VerificationReport("individual_rationality", violations)


def check_envy_freeness(outcome: MechanismOutcome, pop: Population,
                        model: CostFamily) -> VerificationReport:
    """No agent prefers another agent's (payment, privacy level) bundle, up to
    `_tolerance` of the larger of the two payments; a NaN envy is a
    violation.

    Agents holding equal bundles are envied alike, so envy is computed
    against each distinct bundle, in O(n * bundles) time and memory, and
    only the rows of agents with a violation are expanded to every envied
    agent.  Violations are listed by agent, then by envied agent.
    """
    payments = outcome.payments
    # a bundle as one complex number, which numpy orders by payment, then eps
    bundle = payments + 1j * outcome.epsilons
    ranked = np.sort(bundle)
    distinct = ranked[np.concatenate([[True], ranked[1:] != ranked[:-1]])]
    held = np.searchsorted(distinct, bundle)   # each agent's bundle
    # cost to agent i of holding bundle b's privacy level
    utility = distinct.real - cost_eval(model, pop.values[:, None], distinct.imag[None, :])
    with np.errstate(invalid="ignore"):   # -inf - -inf: a NaN envy, reported
        envy = utility - utility[np.arange(held.size), held][:, None]
    bad = ~(envy <= _tolerance(np.maximum.outer(payments, distinct.real)))
    rows = np.flatnonzero(bad.any(axis=1))
    r, j = np.nonzero(bad[rows][:, held])
    i = rows[r]
    violations = [{"agent": a, "datum": {"envies": b}, "delta": d}
                  for a, b, d in zip(i.tolist(), j.tolist(), envy[i, held[j]].tolist())]
    return VerificationReport("envy_freeness", violations)


def check_budget_feasibility(outcome: MechanismOutcome,
                             budget: float) -> VerificationReport:
    """Total payment never exceeds the analyst's budget (exactly, no tolerance)."""
    over = outcome.total_payment - budget
    return _instance_check("budget_feasibility", over > 0, outcome.total_payment,
                           float(over), tolerance=0.0)


#: Most grid candidates one unilateral sweep call takes, besides one
#: own-value row per agent, and most report cells (rows x n) one
#: allocation-rule call takes, unless one agent's grid or one row is larger.
_BLOCK_CELLS = 1 << 16


def check_truthfulness(mechanism: Mechanism, instance: Instance) -> VerificationReport:
    """No agent can raise her utility by any grid misreport.

    Payments and privacy levels are deterministic, so the comparison is exact
    and needs no expectation over noise.  The mechanism runs once on the
    truthful reports.  The grid is built block by block of agents
    (`_misreport_blocks`), each block led by its agents' own values,
    and each block goes through the mechanism's unilateral form,
    `mechanism.unilateral`, a pivot sweep over the deviating agent's rank
    that costs O(log n) a candidate after a set-up it builds once per
    instance (Archer & Tardos, FOCS'01), so memory stays O(`_BLOCK_CELLS` +
    n).  Its payments are upper bounds: `fair_query`'s budget nudge, which
    only lowers a price, is left out.  Only the
    candidates whose bound beats the truthful utility by more than `TOL` go
    through the allocation rule, `mechanism.rule`, as rows of report
    matrices of at most `_BLOCK_CELLS` cells, and their exact utilities
    decide.  Violations are listed by agent, then by ascending candidate.

    Fails closed with `DomainError`: on a non-finite report or price in any
    row, as the rule's `Allocation` does; when the sweep at each agent's own
    value does not reproduce the truthful k, winners and privacy levels, or
    pays less than the truthful run; and when the rule pays a candidate more
    than the sweep's bound, since the bound then decides nothing.
    """
    pop, model = instance.pop, instance.model
    values = pop.values
    rng = np.random.default_rng(0)  # noise does not affect payments or eps
    truthful = mechanism(instance, rng)
    true_k, true_pay, true_eps = (truthful.winner_count, truthful.payments,
                                  truthful.epsilons)
    true_util = true_pay - cost_eval(model, values, true_eps)
    violations = []
    for lo, hi, agents, candidates in _misreport_blocks(values, _BLOCK_CELLS):
        # the block's own values lead: there the sweep must reproduce the run
        a = np.concatenate([np.arange(lo, hi), agents])
        c = np.concatenate([values[lo:hi], candidates])
        k, pay, eps, price = mechanism.unilateral(instance, a, c)
        if not np.isfinite(price).all():
            raise DomainError(_OVERFLOW)
        m = hi - lo
        if not ((k[:m] == true_k).all() and (eps[:m] == true_eps[lo:hi]).all()
                and (pay[:m] >= true_pay[lo:hi]).all()):
            raise DomainError("the unilateral form does not reproduce the truthful run")
        bound = pay - cost_eval(model, values[a], eps)
        rows = m + np.flatnonzero(~(bound[m:] <= true_util[agents] + TOL))
        violations += _rule_violations(mechanism, instance, true_util,
                                       a[rows], c[rows], bound[rows])
    return VerificationReport("truthfulness", violations)


def _rule_violations(mechanism: Mechanism, instance: Instance, true_util,
                     agents, candidates, bounds) -> List[dict]:
    """The truthfulness violations among the candidate rows in which agent
    agents[j] alone reports candidates[j], by the exact utilities of
    `mechanism.rule`, run on report matrices of at most `_BLOCK_CELLS` cells;
    `DomainError` if it pays a row more than its bound, bounds[j]."""
    values, model = instance.pop.values, instance.model
    step = max(1, _BLOCK_CELLS // values.size)
    violations = []
    for lo in range(0, agents.size, step):
        a, c = agents[lo:lo + step], candidates[lo:lo + step]
        rows = np.arange(a.size)
        reports = np.tile(values, (rows.size, 1))
        reports[rows, a] = c
        alloc = mechanism.rule(instance, reports)
        util = alloc.payments[rows, a] - cost_eval(model, values[a],
                                                   alloc.epsilons[rows, a])
        if not (util <= bounds[lo:lo + step]).all():
            raise DomainError("the allocation rule pays a misreport more than "
                              "the unilateral form's bound")
        won = np.flatnonzero(util > true_util[a] + TOL)
        gain = util[won] - true_util[a[won]]
        violations += [{"agent": i, "datum": v, "delta": d} for i, v, d in
                       zip(a[won].tolist(), c[won].tolist(), gain.tolist())]
    return violations


# ---------------------------------------------------------------------------
# Necessity / payment bounds
# ---------------------------------------------------------------------------

def check_necessity(epsilons, alpha: float) -> bool:
    """Necessary condition for alpha*n/4-accuracy: at least (1-alpha)n agents
    carry a privacy level of at least 1/(alpha*n), each up to `_tolerance`;
    a NaN level does not count."""
    epsilons = np.asarray(epsilons, dtype=float)
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    n = epsilons.size
    if n < 1:
        raise DomainError("necessity check needs n >= 1 privacy levels")
    level = 1.0 / (alpha * n)
    enough = np.count_nonzero(epsilons >= level - _tolerance(level))
    need = (1.0 - alpha) * n
    return bool(enough >= need - _tolerance(need))


def matched_alpha(outcome: MechanismOutcome, n: int) -> float:
    """The left-out fraction alpha = (n - k)/n of a k-winner outcome, which is
    the parameter under which the necessity condition applies to it."""
    return (n - outcome.winner_count) / n


def accuracy_level(outcome: MechanismOutcome, n: int) -> float:
    """The accuracy guarantee (1/2 + ln 3)(n - k) of a k-winner outcome,
    expressed as alpha*n with alpha = (1/2 + ln 3)(n - k)/n."""
    return ACCURACY_CONST * (n - outcome.winner_count)


def payment_lower_bound(pop: Population, model: CostFamily, alpha: float) -> float:
    """Minimum total payment of any alpha*n-accurate IR mechanism:
    the (1-4*alpha)n cheapest sellers' costs at eps = 1/(4*alpha*n)."""
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    n = pop.n
    m = math.floor((1.0 - 4.0 * alpha) * n)
    if m <= 0:
        return 0.0
    v_sorted = np.sort(pop.values, kind="stable")
    return float(cost_eval(model, v_sorted[:m], 1.0 / (4.0 * alpha * n)).sum())


def impossibility_bound(values) -> float:
    """Payment that any IR, better-than-n/2-accurate sensitive-value mechanism
    must exceed on every input: ln(4/3) * min value.  Diverges as the lowest
    valuation grows, which is the impossibility."""
    values = _check_nonneg_finite("values", values)
    if values.size == 0:
        raise DomainError("impossibility bound needs at least one value")
    return math.log(4.0 / 3.0) * float(values.min())


# ---------------------------------------------------------------------------
# Instance-optimality oracles (brute force, independent of the mechanisms)
# ---------------------------------------------------------------------------

def oracle_max_winners_envy_free(pop: Population, model: CostFamily,
                                 budget: float) -> int:
    """Largest winner count any truthful IR envy-free fixed-price mechanism
    can afford: brute force over k, where the cheapest IR-compatible fixed
    price for the k cheapest sellers is the k-th cheapest seller's cost."""
    budget = _check_nonneg_finite("budget", budget)
    n = pop.n
    v_sorted = np.sort(pop.values, kind="stable")
    ks = np.arange(1, n)
    prices = cost_eval(model, v_sorted[:-1], 1.0 / (n - ks))
    with np.errstate(over="ignore"):   # an overflowed total fails the budget
        affordable = ks * prices <= budget
    return int(ks[affordable].max(initial=0))


def oracle_min_payment_k_units(pop: Population, model: CostFamily, k: int) -> float:
    """Minimum total payment of any truthful IR envy-free fixed-price auction
    guaranteed to buy k units: k times the (k+1)-th lowest unit cost.

    A lower price lets a winner misreport upward into the gap below the
    (k+1)-th unit cost and force the mechanism to buy from a seller who must
    be paid at least that much.
    """
    n = pop.n
    if not (1 <= _check_integer("k", k) <= n - 1):
        raise DomainError("k must satisfy 1 <= k <= n-1")
    w = np.sort(cost_eval(model, pop.values, 1.0 / (n - k)), kind="stable")
    return float(k * w[k])


# ---------------------------------------------------------------------------
# Monte Carlo accuracy and the analytic DP check
# ---------------------------------------------------------------------------

def estimate_accuracy(mechanism: Mechanism, instance: Instance, error_bound: float,
                      trials: int, seed: int) -> float:
    """Empirical Pr[|estimate - s| >= error_bound] over seeded trials.

    The mechanism runs once; trial t's estimate is the shared noisy sum over
    its winners drawn from `trial_stream(seed, t)`'s stream (`trial_estimates`
    repositions one Generator per trial), which is what running the mechanism
    with that stream returns.
    """
    error_bound = _check_nonneg_finite("error_bound", error_bound)
    if _check_integer("trials", trials) < 1:
        raise DomainError("trials must be >= 1")
    pop = instance.pop
    out = mechanism(instance, trial_stream(seed, 0))
    estimates = trial_estimates(EstimatorPlan(pop, out.allocation), seed, trials)
    return int(np.count_nonzero(np.abs(estimates - pop.total) >= error_bound)) / trials


def check_estimator_privacy(noise_scale: float) -> VerificationReport:
    """Analytic DP check: the pointwise ratio of the two output densities of
    the noisy-sum estimator under a one-bit winner flip, a shift of 1, never
    exceeds exp(1/noise_scale), checked on 10,000 points spanning +-20
    scales."""
    bound = privacy_ratio_bound(noise_scale, 1.0)
    xs = np.linspace(-20.0 * noise_scale, 20.0 * noise_scale, 10_000)
    ratio = lap_density(noise_scale, xs) / lap_density(noise_scale, xs - 1.0)
    worst = float(np.max(np.maximum(ratio, 1.0 / ratio)))
    violations = []
    if worst > bound + TOL:
        violations.append({"agent": None, "datum": worst, "delta": worst - bound})
    return VerificationReport("estimator_privacy_ratio", violations)


# ---------------------------------------------------------------------------
# Negative control
# ---------------------------------------------------------------------------

def _repriced(inst: BudgetInstance, values, alloc: Allocation) -> Allocation:
    """`alloc`, `fair_query`'s allocation on an (m, n) matrix of reports
    `values`, with each winner paid her reported cost at her privacy level
    (0 for losers, whose level is 0); the charge is their sum."""
    payments = cost_eval(inst.model, values, alloc.epsilons)
    return Allocation(alloc.won, alloc.k, payments, payments.sum(axis=-1))


def _pay_your_bid_rule(inst: BudgetInstance, values) -> Allocation:
    """`pay_your_bid_control`'s allocation on each row of an (m, n) matrix of
    reports: `fair_query`'s allocation on them, `_repriced`."""
    return _repriced(inst, values, fair_query.rule(inst, values))


def pay_your_bid_control(inst: BudgetInstance,
                         rng: np.random.Generator) -> MechanismOutcome:
    """Deliberately broken variant of the budget auction that pays each winner
    her reported cost instead of the threshold price.  Not truthful: a winner
    can overreport within the winning range and be paid more.  Used only as a
    negative control for the truthfulness checker.

    Draws `fair_query`'s estimate; the allocation is `fair_query`'s kept one
    (`_truthful`), `_repriced` once per instance and kept beside it, under
    this function rather than a rule, as `_truthful` keeps plans under
    rules."""
    estimate = fair_query(inst, rng).estimate
    alloc = _kept(inst, pay_your_bid_control, lambda: _repriced(
        inst, inst.pop.values[None, :], _truthful(inst, fair_query.rule).allocation))
    return MechanismOutcome(estimate, alloc)


def _pay_your_bid_unilateral(inst: BudgetInstance, agents, reports):
    """`pay_your_bid_control`'s unilateral form: `fair_query`'s, with the
    deviating agent paid her reported cost at her privacy level."""
    k, _, eps, price = fair_query.unilateral(inst, agents, reports)
    return k, cost_eval(inst.model, reports, eps), eps, price


pay_your_bid_control.rule = _pay_your_bid_rule
pay_your_bid_control.unilateral = _pay_your_bid_unilateral


# ---------------------------------------------------------------------------
# Suites over instance corpora
# ---------------------------------------------------------------------------

def _instance_check(name: str, failed: bool, datum, delta,
                    tolerance: float = TOL) -> VerificationReport:
    """A per-instance property: one violation if the check failed, else none."""
    return VerificationReport(
        name, [{"agent": None, "datum": datum, "delta": delta}] if failed else [],
        tolerance)


def check_payment_optimality(outcome: MechanismOutcome, pop: Population,
                             model: CostFamily) -> VerificationReport:
    """A k-winner outcome's total payment equals the brute-force minimum for
    k units, up to `_tolerance` of that minimum; a NaN gap is a violation."""
    oracle_total = oracle_min_payment_k_units(pop, model, outcome.winner_count)
    gap = outcome.total_payment - oracle_total
    return _instance_check("payment_optimality",
                           not abs(gap) <= _tolerance(oracle_total),
                           {"mechanism_total": outcome.total_payment,
                            "oracle_total": oracle_total}, float(gap))


def _outcome_checks(mech: Mechanism, inst: Instance, out: MechanismOutcome):
    """The report of every property that applies to one mechanism outcome,
    in report order."""
    pop, model, n, k = inst.pop, inst.model, inst.pop.n, out.winner_count
    yield check_truthfulness(mech, inst)
    yield check_individual_rationality(out, pop, model)
    yield check_envy_freeness(out, pop, model)

    if isinstance(inst, BudgetInstance):
        yield check_budget_feasibility(out, inst.budget)
        oracle_k = oracle_max_winners_envy_free(pop, model, inst.budget)
        yield _instance_check("winner_count_optimality", oracle_k != k,
                              {"mechanism_k": k, "oracle_k": oracle_k},
                              float(oracle_k - k))
    else:
        yield check_payment_optimality(out, pop, model)

    if 0 < k < n:
        alpha = matched_alpha(out, n)
        yield _instance_check("necessity", not check_necessity(out.epsilons, alpha),
                              {"alpha": alpha}, None)
        acc_alpha = accuracy_level(out, n) / n
        if acc_alpha < 1.0:
            bound = payment_lower_bound(pop, model, acc_alpha)
            slack = out.total_payment - bound
            yield _instance_check("payment_lower_bound",
                                  not slack >= -_tolerance(bound),
                                  {"bound": bound}, float(slack))


def run_suite(instances: Iterable[Instance],
              negative_control: bool = False) -> List[VerificationReport]:
    """Run every applicable property check over a corpus and aggregate
    violations per property.  Covers truthfulness, IR, envy-freeness, budget
    feasibility, the optimality oracles, the necessity condition, and the
    payment lower bound; plus the analytic DP grid check per noise scale."""
    agg: dict = {}
    noise_scales = set()

    def extend(report: VerificationReport, idx):
        name = report.property_name
        rep = agg.setdefault(name, VerificationReport(name, [], report.tolerance))
        rep.violations.extend({"instance": idx, **v} for v in report.violations)

    for idx, inst in enumerate(instances):
        if isinstance(inst, BudgetInstance):
            mech: Mechanism = pay_your_bid_control if negative_control else fair_query
        else:
            mech = min_cost_auction
        out = mech(inst, np.random.default_rng(idx))
        noise_scales.add(out.noise_scale)
        for report in _outcome_checks(mech, inst, out):
            extend(report, idx)
    for scale in sorted(noise_scales):
        extend(check_estimator_privacy(scale), None)
    return list(agg.values())
