"""Byte-level pins of verification reports.

`privauction verify` reports and `run_suite`'s report list must stay
byte-identical for the same config and seed; these sha256 values were
recorded from the code as it stood before `run_suite` was restructured.
"""

import hashlib
import json

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from corpus import random_instances
from privauction.cli import main
from privauction.core import CostFamily, PopulationSpec, generate_population
from privauction.mechanisms import BudgetInstance, fair_query
from privauction.verify import (accuracy_level, payment_lower_bound,
                                run_suite)

UNIFORM_20 = {"n": 20, "values": {"dist": "uniform", "lo": 0, "hi": 10},
              "bits": {"model": "independent", "q": 0.5}, "seed": 3}

VERIFY_CONFIGS = {
    # budget 0 buys nothing (k = 0), so necessity and the lower bound are skipped
    "budget_zero": ({"scenario": "budget", "budget": 0, "cost_family": "linear"},
                    "886d39f3acab4c85926f55fd46ebc95c107ab2ab3286810e4ed6de701456db6d"),
    # k = n - 1 on every instance: the payment lower bound is non-vacuous
    "budget_large": ({"scenario": "budget", "budget": 300, "cost_family": "quadratic"},
                     "8217821f202dce1413f6d6dcf99ea78de3cbb42cf23afb4a169f379224ea6edc"),
    "accuracy_exp_arg": ({"scenario": "accuracy", "alpha": 0.2, "cost_family": "exp_arg"},
                         "04995276259893c6757dc47068b9fdf3473ec54db7433520eee65a5ee9efb151"),
    "negative_control": ({"scenario": "budget", "budget": 30, "cost_family": "linear",
                          "negative_control": True},
                         "babacac4a5a1ea6a716a240d6e3495402d92d5742a9a9c6d6b020225d89eb50f"),
}


def _verify_report(tmp_path, fields):
    out = tmp_path / "verify.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"population": UNIFORM_20, "trials": 6, "seed": 11,
                               "output": {"path": str(out)}, **fields}))
    code = main(["verify", str(cfg)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", sorted(VERIFY_CONFIGS))
def test_verify_report_bytes_pinned(tmp_path, name):
    fields, digest = VERIFY_CONFIGS[name]
    code, body = _verify_report(tmp_path, fields)
    assert code == (1 if fields.get("negative_control") else 0)
    assert hashlib.sha256(body).hexdigest() == digest


def test_control_run_report_bytes_pinned(tmp_path):
    # every trial of a control run reuses one repriced allocation; its
    # report must match the one each trial once repriced afresh
    out = tmp_path / "run.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"population": UNIFORM_20, "trials": 200, "seed": 11,
                               "scenario": "budget", "budget": 30, "cost_family": "linear",
                               "negative_control": True, "output": {"path": str(out)}}))
    assert main(["run", str(cfg)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "209e0565fb3dccdbb82e54361d79bf70e91b90e8a5822775e2e2a913b553209e")


def test_budget_large_config_has_a_nonvacuous_lower_bound():
    # verify's instance i is the population drawn at seed config seed + i
    bounds = []
    for seed in range(11, 17):
        pop = generate_population(PopulationSpec.from_dict({**UNIFORM_20, "seed": seed}))
        inst = BudgetInstance(pop=pop, model=CostFamily.QUADRATIC, budget=300.0)
        out = fair_query(inst, np.random.default_rng(0))
        assert out.winner_count == pop.n - 1
        bounds.append(payment_lower_bound(pop, inst.model,
                                          accuracy_level(out) / pop.n))
    assert min(bounds) > 0


def _mixed_corpus():
    """Accuracy first, then alternating with budget instances (one at budget 0),
    so property order follows first appearance across both kinds."""
    accuracy = random_instances(5, seed=21, n_lo=4, n_hi=10, kind="accuracy")
    budget = random_instances(5, seed=22, n_lo=4, n_hi=10, kind="budget")
    budget[1] = BudgetInstance(pop=budget[1].pop, model=budget[1].model, budget=0.0)
    return [inst for pair in zip(accuracy, budget) for inst in pair]


# numpy's SIMD `expm1` differs in the last digit between its AVX-512
# (X86_V4) and AVX2 (X86_V3) paths, and so do two of the negative control's
# truthfulness deltas on instance 7 (an `exp_arg` budget instance).  A host
# without X86_V4 checks the digest its AVX2 paths give instead.
X86_V3_DIGESTS = {
    "b8e095c41972e981f507496d6eafc6e71d6aa7a23678463ee7132d756cc3ae97":
        "69aa117484ee3b803caa3792272fbd2b6f32023ff49cbf00a14dbb726785e206",
}


def _host_digest(digest):
    if __cpu_features__.get("X86_V4"):
        return digest
    return X86_V3_DIGESTS.get(digest, digest)


@pytest.mark.parametrize("negative_control, digest", [
    (False, "1c1ee0d99351fabe7683ba53a2b0095f553279e68761c1e191589f43cb091e5a"),
    (True, "b8e095c41972e981f507496d6eafc6e71d6aa7a23678463ee7132d756cc3ae97"),
])
def test_run_suite_reports_pinned(negative_control, digest):
    reports = run_suite(_mixed_corpus(), negative_control=negative_control)
    body = json.dumps([r.to_dict() for r in reports])   # no sort_keys: order is pinned
    assert hashlib.sha256(body.encode()).hexdigest() == _host_digest(digest)
