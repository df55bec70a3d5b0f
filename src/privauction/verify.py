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
                   MechanismOutcome, Population, _check_fraction,
                   _check_integer, _check_nonneg_finite, _check_nonneg_real, _check_reals,
                   _tolerance)
from .core import _cost as cost_eval  # each operand is checked where it enters
from .dp import (ACCURACY_CONST, EstimatorPlan, _check_scale, trial_estimates,
                 trial_stream)
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
    """Every agent's candidate misreports, without repeats, block by block:
    yields (lo, hi, agents, candidates) for agents lo to hi - 1, the pivots
    once for each agent in turn, then each one's own multiples that are not
    pivots.  A block holds at most `cells` candidates unless one agent's
    grid alone is larger, so memory is O(cells + n), not O(n^2).

    Every agent's grid is the same ascending pivots (zero as +0.0, every
    value and each value's two one-ulp neighbours, toward zero and toward
    the largest float) and those of her own value times each of
    `_MULTIPLIERS` that are neither pivots nor the multiple before.  So it
    reaches every rank among the others (ties by index) that a report can
    take, at both ends of that rank's interval of reports, since an interval
    ends at zero, at a value (tied) or one ulp beside it; only the top
    interval's upper end, the largest float, is left out, and there she
    ranks last.  `min_cost_auction`'s outcome depends on the report only
    through that rank.  `fair_query`'s also depends on whether the agent's
    own cost fits under the budget at her rank, which moves with the report
    but monotonically within an interval, so the interval's ends decide it.
    Every candidate is >= 0.
    """
    pivots = np.sort(np.concatenate([[0.0], values, np.nextafter(values, 0.0),
                                     np.nextafter(values, np.finfo(float).max)])) + 0.0
    pivots = pivots[np.concatenate([[True], pivots[1:] != pivots[:-1]])]
    multiples = values[:, None] * np.asarray(_MULTIPLIERS)
    new = pivots.take(np.searchsorted(pivots, multiples), mode="clip") != multiples
    new[:, 1:] &= multiples[:, 1:] != multiples[:, :-1]
    per_block = max(1, cells // (pivots.size + len(_MULTIPLIERS)))
    for lo in range(0, values.size, per_block):
        hi = min(lo + per_block, values.size)
        owner, _ = np.nonzero(new[lo:hi])
        agents = np.concatenate([np.repeat(np.arange(lo, hi), pivots.size), lo + owner])
        candidates = np.concatenate([np.repeat(pivots[None, :], hi - lo, axis=0).ravel(),
                                     multiples[lo:hi][new[lo:hi]]])
        yield lo, hi, agents, candidates


# ---------------------------------------------------------------------------
# Per-outcome checks
# ---------------------------------------------------------------------------

def _check_agents(outcome: MechanismOutcome, pop: Population) -> None:
    """`DomainError` unless the outcome is over the population's n agents."""
    if outcome.allocation.won.shape[1] != pop.n:
        raise DomainError("the outcome and the population differ in their number of agents")


def check_individual_rationality(outcome: MechanismOutcome, pop: Population,
                                 model: CostFamily) -> VerificationReport:
    """Each agent's payment must cover her cost at her realized privacy level,
    up to `_tolerance` of the payment; a NaN slack is a violation.
    `DomainError` unless the outcome is over the population's n agents."""
    _check_agents(outcome, pop)
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
    `DomainError` unless the outcome is over the population's n agents.
    """
    _check_agents(outcome, pop)
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
    """Total payment never exceeds the analyst's budget (exactly, no tolerance);
    `DomainError` unless the budget is finite and >= 0."""
    over = outcome.total_payment - _check_nonneg_real("budget", budget)
    return _instance_check("budget_feasibility", over > 0, outcome.total_payment,
                           float(over), tolerance=0.0)


#: Most grid candidates one unilateral sweep call takes, and most report
#: cells (rows x n) one allocation-rule call takes, unless one agent's grid
#: or one row is larger.
_BLOCK_CELLS = 1 << 16


def check_truthfulness(mechanism: Mechanism, instance: Instance) -> VerificationReport:
    """No agent can raise her utility by any grid misreport.

    Payments and privacy levels are deterministic, so the comparison is exact
    and needs no expectation over noise.  The mechanism runs once on the
    truthful reports, on `trial_stream(0, 0)`, whose estimate nothing reads;
    it stays because the checker is handed a mechanism, not its outcome, and
    the unilateral form must reproduce that run.  The grid is built block by
    block of agents (`_misreport_blocks`), and each block goes as it is
    through the mechanism's unilateral form, `mechanism.unilateral`, a pivot
    sweep over the deviating agent's rank that costs O(log n) a candidate
    after a set-up it builds once per instance (Archer & Tardos, FOCS'01), so
    memory stays O(`_BLOCK_CELLS` + n).  Its payments are upper bounds:
    `fair_query`'s budget nudge, which only lowers a price, is left out.
    Only the candidates whose bound beats the truthful utility by more than
    `_tolerance` of the larger of her two payments go through the allocation
    rule, `mechanism.rule`, as rows of report matrices of at most
    `_BLOCK_CELLS` cells, and their exact utilities decide.  Violations are
    listed by agent, then by ascending candidate.

    Fails closed with `DomainError`: on a non-finite report or price in any
    row, as the rule's `Allocation` does; when the sweep at each agent's own
    value does not reproduce the truthful k, winners and privacy levels, or
    pays less than the truthful run; and when the rule pays a candidate more
    than the sweep's bound, since the bound then decides nothing.
    """
    values, model = instance.pop.values, instance.model
    truthful = mechanism(instance, trial_stream(0, 0))
    true_k, true_pay, true_eps = (truthful.winner_count, truthful.payments,
                                  truthful.epsilons)
    true_util = true_pay - cost_eval(model, values, true_eps)
    violations = []
    for lo, hi, agents, candidates in _misreport_blocks(values, _BLOCK_CELLS):
        k, pay, eps, price = mechanism.unilateral(instance, agents, candidates)
        if not np.isfinite(price).all():
            raise DomainError(_OVERFLOW)
        # each agent's own value, a pivot: there the sweep must reproduce the run
        own = np.flatnonzero(candidates == values[agents])
        if not ((k[own] == true_k).all() and (eps[own] == true_eps[lo:hi]).all()
                and (pay[own] >= true_pay[lo:hi]).all()):
            raise DomainError("the unilateral form does not reproduce the truthful run")
        bound = pay - cost_eval(model, values[agents], eps)
        tol = _tolerance(np.maximum(pay, true_pay[agents]))
        rows = np.flatnonzero(~(bound <= true_util[agents] + tol))
        rows = rows[np.lexsort((candidates[rows], agents[rows]))]
        violations += _rule_violations(mechanism, instance, true_pay, true_util,
                                       agents[rows], candidates[rows], bound[rows])
    return VerificationReport("truthfulness", violations)


def _rule_violations(mechanism: Mechanism, instance: Instance, true_pay, true_util,
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
        pay = alloc.payments[rows, a]
        util = pay - cost_eval(model, values[a], alloc.epsilons[rows, a])
        if not (util <= bounds[lo:lo + step]).all():
            raise DomainError("the allocation rule pays a misreport more than "
                              "the unilateral form's bound")
        won = np.flatnonzero(util > true_util[a] + _tolerance(np.maximum(pay, true_pay[a])))
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
    a NaN level does not count, and a non-number raises `DomainError`."""
    epsilons = _check_reals("epsilons", epsilons)
    alpha = _check_fraction("alpha", alpha)
    n = epsilons.size
    if n < 1:
        raise DomainError("necessity check needs n >= 1 privacy levels")
    level = 1.0 / (alpha * n)
    enough = np.count_nonzero(epsilons >= level - _tolerance(level))
    need = (1.0 - alpha) * n
    return bool(enough >= need - _tolerance(need))


def matched_alpha(outcome: MechanismOutcome) -> float:
    """The left-out fraction alpha = (n - k)/n of a k-winner outcome, which is
    the parameter under which the necessity condition applies to it."""
    return outcome.noise_scale / outcome.allocation.won.shape[1]


def accuracy_level(outcome: MechanismOutcome) -> float:
    """The accuracy guarantee (1/2 + ln 3)(n - k) of a k-winner outcome,
    expressed as alpha*n with alpha = (1/2 + ln 3)(n - k)/n."""
    return ACCURACY_CONST * outcome.noise_scale


def payment_lower_bound(pop: Population, model: CostFamily, alpha: float) -> float:
    """Minimum total payment of any alpha*n-accurate IR mechanism:
    the (1-4*alpha)n cheapest sellers' costs at eps = 1/(4*alpha*n)."""
    alpha = _check_fraction("alpha", alpha)
    n = pop.n
    m = math.floor((1.0 - 4.0 * alpha) * n)
    if m <= 0:
        return 0.0
    v_sorted = np.sort(pop.values, kind="stable")
    eps = _check_nonneg_finite("eps", 1.0 / (4.0 * alpha * n))   # inf for a subnormal alpha
    return float(cost_eval(model, v_sorted[:m], eps).sum())


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
    budget = _check_nonneg_real("budget", budget)
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
    error_bound = _check_nonneg_real("error_bound", error_bound)
    if _check_integer("trials", trials) < 1:
        raise DomainError("trials must be >= 1")
    pop = instance.pop
    out = mechanism(instance, trial_stream(seed, 0))
    estimates = trial_estimates(EstimatorPlan(pop, out.allocation), seed, trials)
    return int(np.count_nonzero(np.abs(estimates - pop.total) >= error_bound)) / trials


def check_estimator_privacy(noise_scale: float) -> VerificationReport:
    """Analytic DP check on the closed-form Laplace density, not the sampler
    that ships: under a one-bit winner flip, a shift of 1, the log density
    ratio (|x - 1| - |x|)/scale stays within 1/noise_scale either way, up to
    TOL on the ratio, on 10,000 points spanning +-20 scales; a NaN ratio is a
    violation.  `DomainError` unless every grid point resolves the shift:
    from 20 scales = 2**53 on, x - 1 rounds to x at the grid's lower end."""
    scale = _check_scale(noise_scale)
    if not 20.0 * scale < 2.0 ** 53:   # which also keeps 40 scales finite
        raise DomainError(f"the privacy grid cannot resolve a shift of 1 at scale {scale!r}")
    bound = math.exp(1.0 / scale)
    xs = np.linspace(-20.0 * scale, 20.0 * scale, 10_000)
    worst = math.exp(float(np.max(np.abs(np.abs(xs - 1.0) - np.abs(xs)))) / scale)
    violations = []
    if not worst <= bound + TOL:
        violations.append({"agent": None, "datum": worst, "delta": worst - bound})
    return VerificationReport("estimator_privacy_ratio", violations)


# ---------------------------------------------------------------------------
# Negative control
# ---------------------------------------------------------------------------

def _repriced(inst: BudgetInstance, values, alloc: Allocation) -> Allocation:
    """`alloc`, `fair_query`'s allocation on an (m, n) matrix of reports
    `values`, with each winner paid her reported cost at her privacy level
    (0 for losers, whose level is 0)."""
    return Allocation(alloc.won, alloc.k,
                      cost_eval(inst.model, np.asarray(values, dtype=float), alloc.epsilons))


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
    return k, cost_eval(inst.model, np.asarray(reports, dtype=float), eps), eps, price


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
    k units, up to `_tolerance` of that minimum; a NaN gap is a violation.
    `DomainError` unless the outcome is over the population's n agents."""
    _check_agents(outcome, pop)
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
        alpha = matched_alpha(out)
        yield _instance_check("necessity", not check_necessity(out.epsilons, alpha),
                              {"alpha": alpha}, None)
        acc_alpha = accuracy_level(out) / n
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
    payment lower bound; plus the analytic DP grid check per noise scale.
    `DomainError` on an empty corpus, whose empty report list would read as
    a pass."""
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
        out = mech(inst, trial_stream(idx, 0))   # no report reads its estimate
        noise_scales.add(out.noise_scale)
        for report in _outcome_checks(mech, inst, out):
            extend(report, idx)
    if not noise_scales:
        raise DomainError("the corpus holds no instances")
    for scale in sorted(noise_scales):
        extend(check_estimator_privacy(scale), None)
    return list(agg.values())
