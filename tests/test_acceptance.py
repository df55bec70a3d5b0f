"""Acceptance suite: one test per acceptance criterion, at its stated
tolerance, printing one pass/fail line each (visible with pytest -s or in
captured output on failure)."""

import json
import math
import time

import numpy as np
import pytest

from privauction.cli import main
from privauction.core import (ALL_FAMILIES, Population, cost_eval)
from privauction.dp import ACCURACY_CONST, LN3, _laplace
from privauction.mechanisms import (AccuracyInstance, BudgetInstance,
                                    fair_query, min_cost_auction)
from privauction.verify import (accuracy_level,
                                check_envy_freeness, check_estimator_privacy,
                                check_individual_rationality, check_necessity,
                                check_truthfulness, estimate_accuracy,
                                impossibility_bound, matched_alpha,
                                oracle_max_winners_envy_free,
                                oracle_min_payment_k_units,
                                pay_your_bid_control, payment_lower_bound)

RNG = lambda s=0: np.random.default_rng(s)
CORPUS_SIZE = 500


def _criterion(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {desc}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {detail}"


@pytest.fixture(scope="module")
def corpus():
    """500 seeded populations, n in 2..16, cycling all four cost families;
    each paired with a budget instance and an accuracy instance."""
    rng = np.random.default_rng(2026)
    budget_instances, accuracy_instances = [], []
    for i in range(CORPUS_SIZE):
        n = int(rng.integers(2, 17))
        pop = Population(bits=rng.integers(0, 2, n),
                         values=rng.uniform(0.0, 10.0, n))
        model = list(ALL_FAMILIES)[i % 4]
        budget_instances.append(
            BudgetInstance(pop=pop, model=model, budget=float(rng.uniform(0, 4 * n))))
        alpha = float(rng.uniform(1.0 / n, 0.6)) * ACCURACY_CONST
        accuracy_instances.append(
            AccuracyInstance(pop=pop, model=model, alpha=alpha))
    return budget_instances, accuracy_instances


@pytest.fixture(scope="module")
def outcomes(corpus):
    budget_instances, accuracy_instances = corpus
    budget_outcomes = [fair_query(inst, RNG(i))
                       for i, inst in enumerate(budget_instances)]
    accuracy_outcomes = [min_cost_auction(inst, RNG(i))
                         for i, inst in enumerate(accuracy_instances)]
    return budget_outcomes, accuracy_outcomes


def test_criterion_1_laplace_tail_constant():
    t0 = time.time()
    # the map every estimate draws through, one seeded uniform per draw
    draws = np.array([_laplace(u, 1.0) for u in RNG(20260824).random(1_000_000).tolist()])
    frac = float(np.mean(np.abs(draws) >= LN3))
    elapsed = time.time() - t0
    ok = abs(frac - 1.0 / 3.0) <= 0.005 and elapsed < 5.0
    _criterion(1, "empirical Pr[|Lap| >= (ln 3) sigma] = 1/3 +- 0.005", ok,
               f"(frac={frac:.5f}, {elapsed:.1f}s)")


def test_criterion_2_accuracy_contract():
    t0 = time.time()
    rng = np.random.default_rng(7)
    ok = True
    details = []
    for n in (10, 50, 100):
        pop = Population(bits=rng.integers(0, 2, n),
                         values=rng.uniform(0.0, 10.0, n))
        inst = AccuracyInstance(pop=pop, model=list(ALL_FAMILIES)[n % 4],
                                alpha=0.3)
        bound = inst.alpha * n  # = (1/2 + ln 3) * alpha' * n
        prob = estimate_accuracy(min_cost_auction, inst, bound,
                                 trials=100_000, seed=n)
        details.append(f"n={n}: {prob:.4f}")
        ok = ok and prob <= 1.0 / 3.0 + 0.01
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _criterion(2, "min_cost_auction empirical miss rate <= 1/3 + 0.01", ok,
               f"({'; '.join(details)}; {elapsed:.1f}s)")


def test_criterion_3_truthfulness(corpus):
    t0 = time.time()
    budget_instances, accuracy_instances = corpus
    violations = 0
    for inst in budget_instances:
        violations += len(check_truthfulness(fair_query, inst).violations)
    for inst in accuracy_instances:
        violations += len(check_truthfulness(min_cost_auction, inst).violations)
    control = check_truthfulness(
        pay_your_bid_control,
        BudgetInstance(pop=Population(bits=[1, 0, 1, 1],
                                      values=[1.0, 2.0, 4.0, 8.0]),
                       model=list(ALL_FAMILIES)[0], budget=4.0))
    elapsed = time.time() - t0
    ok = violations == 0 and len(control.violations) >= 1 and elapsed < 120.0
    _criterion(3, "zero grid-misreport violations; negative control caught", ok,
               f"(violations={violations}, control={len(control.violations)}, "
               f"{elapsed:.1f}s)")


def test_criterion_4_ir_envy_budget(corpus, outcomes):
    budget_instances, accuracy_instances = corpus
    budget_outcomes, accuracy_outcomes = outcomes
    ir = envy = over_budget = 0
    for inst, out in zip(budget_instances, budget_outcomes):
        ir += len(check_individual_rationality(out, inst.pop, inst.model).violations)
        envy += len(check_envy_freeness(out, inst.pop, inst.model).violations)
        if out.total_payment > inst.budget:  # exact, no tolerance
            over_budget += 1
    for inst, out in zip(accuracy_instances, accuracy_outcomes):
        ir += len(check_individual_rationality(out, inst.pop, inst.model).violations)
        envy += len(check_envy_freeness(out, inst.pop, inst.model).violations)
    ok = ir == 0 and envy == 0 and over_budget == 0
    _criterion(4, "IR, envy-freeness, exact budget feasibility on the corpus", ok,
               f"(ir={ir}, envy={envy}, over_budget={over_budget})")


def test_criterion_5_instance_optimality(corpus, outcomes):
    budget_instances, accuracy_instances = corpus
    budget_outcomes, accuracy_outcomes = outcomes
    k_mismatch = payment_mismatch = 0
    for inst, out in zip(budget_instances, budget_outcomes):
        if out.winner_count != oracle_max_winners_envy_free(
                inst.pop, inst.model, inst.budget):
            k_mismatch += 1
    for inst, out in zip(accuracy_instances, accuracy_outcomes):
        k = out.winner_count
        n = inst.pop.n
        w = np.sort(cost_eval(inst.model, inst.pop.values, 1.0 / (n - k)),
                    kind="stable")
        oracle = oracle_min_payment_k_units(inst.pop, inst.model, k)
        if (abs(out.total_payment - k * w[k]) > 1e-9
                or abs(out.total_payment - oracle) > 1e-9):
            payment_mismatch += 1
    ok = k_mismatch == 0 and payment_mismatch == 0
    _criterion(5, "fair_query k matches oracle; min_cost total = k*w_(k+1)", ok,
               f"(k_mismatch={k_mismatch}, payment_mismatch={payment_mismatch})")


def test_criterion_6_analytic_dp(outcomes):
    budget_outcomes, accuracy_outcomes = outcomes
    scales = sorted({out.noise_scale
                     for out in budget_outcomes + accuracy_outcomes})
    # check_estimator_privacy allows the same 1e-9 margin (TOL)
    failed = [scale for scale in scales if not check_estimator_privacy(scale).passed]
    _criterion(6, "estimator density ratio <= exp(1/noise_scale) + 1e-9 on grid",
               not failed, f"({len(failed)} of {len(scales)} scales fail: {failed})")


def test_criterion_7_necessity_and_lower_bound(corpus, outcomes):
    budget_instances, accuracy_instances = corpus
    budget_outcomes, accuracy_outcomes = outcomes
    necessity_fail = bound_fail = 0
    for inst, out in zip(budget_instances + accuracy_instances,
                         budget_outcomes + accuracy_outcomes):
        n = inst.pop.n
        if 0 < out.winner_count < n:
            if not check_necessity(out.epsilons, matched_alpha(out)):
                necessity_fail += 1
            acc_alpha = accuracy_level(out) / n
            bound = (payment_lower_bound(inst.pop, inst.model, acc_alpha)
                     if acc_alpha < 1.0 else 0.0)
            if out.total_payment < bound - 1e-9:
                bound_fail += 1
    ok = necessity_fail == 0 and bound_fail == 0
    _criterion(7, "necessity condition and payment lower bound hold", ok,
               f"(necessity_fail={necessity_fail}, bound_fail={bound_fail})")


def test_criterion_8_impossibility_bound():
    ln43 = math.log(4.0 / 3.0)
    bounds = []
    ok = True
    for exp in range(7):  # min value 1, 10, ..., 10^6
        m = 10.0 ** exp
        b = impossibility_bound([m, 2 * m, 3 * m])
        bounds.append(b)
        ok = ok and abs(b - ln43 * m) <= 1e-9 * max(1.0, m)
    ok = ok and all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    # absolute 1e-9 at the stated scale
    ok = ok and abs(impossibility_bound([1.0]) - ln43) <= 1e-9
    _criterion(8, "impossibility bound = ln(4/3)*min v and grows unboundedly",
               ok, f"(largest={bounds[-1]:.3f})")


def test_criterion_9_cli_worked_examples(tmp_path):
    budget_cfg = tmp_path / "budget.json"
    budget_cfg.write_text(json.dumps({
        "scenario": "budget",
        "population": {"n": 4,
                       "values": {"dist": "point", "points": [1.0, 2.0, 4.0, 8.0]},
                       "bits": {"model": "independent", "q": 0.5}, "seed": 7},
        "cost_family": "linear", "budget": 2.0, "trials": 100, "seed": 42,
    }))
    accuracy_cfg = tmp_path / "accuracy.json"
    accuracy_cfg.write_text(json.dumps({
        "scenario": "accuracy",
        "population": {"n": 10,
                       "values": {"dist": "point",
                                  "points": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]},
                       "bits": {"model": "independent", "q": 1.0}, "seed": 7},
        "cost_family": "linear", "alpha": 0.2 * ACCURACY_CONST,
        "trials": 100, "seed": 42,
    }))
    outs = [tmp_path / name for name in ("b1.json", "b2.json", "a1.json", "a2.json")]
    assert main(["run", str(budget_cfg), "--output", str(outs[0])]) == 0
    assert main(["run", str(budget_cfg), "--output", str(outs[1])]) == 0
    assert main(["run", str(accuracy_cfg), "--output", str(outs[2])]) == 0
    assert main(["run", str(accuracy_cfg), "--output", str(outs[3])]) == 0
    b = json.loads(outs[0].read_text())["records"][0]
    a = json.loads(outs[2].read_text())["records"][0]
    ok = (b["k"] == 2 and abs(b["total_payment"] - 2.0) < 1e-12
          and a["k"] == 8 and abs(a["total_payment"] - 36.0) < 1e-12
          and outs[0].read_bytes() == outs[1].read_bytes()
          and outs[2].read_bytes() == outs[3].read_bytes())
    _criterion(9, "CLI reproduces both worked examples byte-identically", ok,
               f"(budget k={b['k']} P={b['total_payment']}, "
               f"accuracy k={a['k']} P={a['total_payment']})")
