"""Benchmark workloads: the CLI commands each one runs, generated from a seed.

Standard library only, so the parent process builds inputs without
importing the program under test.  The program receives only the config
files written from these commands.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# Sizes.  Each command takes 20-300 ms, so a run times it hundreds of times
# and its median is a steady figure (NOTES.md, "Noise on this machine").
# mc_run's trial count still makes per-trial fixed overhead dominate;
# sweep_n's few trials per point make per-instance work at n = 10^4
# dominate instead.
MC_TRIALS = 200
SWEEP_TRIALS = 5
SWEEP_N = (10, 100, 1000, 10_000)
VERIFY_INSTANCES = 1   # per corpus, the negative control's included


@dataclass(frozen=True)
class Command:
    """One `privauction <verb> <config>` invocation and what it must produce."""

    label: str        # unique across workloads; names the config, report and pin
    verb: str         # run | sweep | verify
    config: dict
    expect_exit: int
    items: int        # Monte Carlo trials (run, sweep) or instances (verify)

    def argv(self, config_path: str, report_path: str) -> list:
        return [self.verb, config_path, "--output", report_path]


def _population(n: int, seed: int) -> dict:
    return {"n": n, "values": {"dist": "uniform", "lo": 0.0, "hi": 10.0},
            "bits": {"model": "independent", "q": 0.5}, "seed": seed}


def _seeds(workload: str, seed: int, count: int) -> list:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2 ** 31) for _ in range(count)]


def mc_run(seed: int) -> list:
    pop_seed, trial_seed = _seeds("mc_run", seed, 2)
    config = {"scenario": "budget", "population": _population(100, pop_seed),
              "cost_family": "exp_scaled", "budget": 200.0,
              "trials": MC_TRIALS, "seed": trial_seed}
    return [Command("run", "run", config, 0, MC_TRIALS)]


def sweep_n(seed: int) -> list:
    pop_seed, trial_seed = _seeds("sweep_n", seed, 2)
    config = {"scenario": "accuracy", "population": _population(SWEEP_N[0], pop_seed),
              "cost_family": "quadratic", "alpha": 0.3,
              "trials": SWEEP_TRIALS, "seed": trial_seed,
              "sweep": {"parameter": "n", "values": list(SWEEP_N)}}
    return [Command("sweep", "sweep", config, 0, SWEEP_TRIALS * len(SWEEP_N))]


def verify_corpus(seed: int) -> list:
    # `verify` draws instance i's population from seed + i, so the
    # population spec's own seed is only recorded, never used
    s_budget, s_accuracy, s_control = _seeds("verify_corpus", seed, 3)
    return [
        Command("budget", "verify",
                {"scenario": "budget", "population": _population(16, s_budget),
                 "cost_family": "linear", "budget": 30.0,
                 "trials": VERIFY_INSTANCES, "seed": s_budget}, 0, VERIFY_INSTANCES),
        Command("accuracy", "verify",
                {"scenario": "accuracy", "population": _population(16, s_accuracy),
                 "cost_family": "exp_arg", "alpha": 0.5,
                 "trials": VERIFY_INSTANCES, "seed": s_accuracy}, 0, VERIFY_INSTANCES),
        # pay-your-bid is not truthful: a checker that misses it has stopped checking
        Command("negative_control", "verify",
                {"scenario": "budget", "population": _population(8, s_control),
                 "cost_family": "linear", "budget": 10.0,
                 "trials": VERIFY_INSTANCES, "seed": s_control, "negative_control": True},
                1, VERIFY_INSTANCES),
    ]


WORKLOADS = {"mc_run": mc_run, "sweep_n": sweep_n, "verify_corpus": verify_corpus}

# Recorded at DEFAULT_SEED on the first benchmarked commit (numpy 2.4.6):
# sha256 of the run and sweep reports, and each verify property's
# violation_count.  A change that promises bit-exact output keeps these.
_CLEAN = ("truthfulness", "individual_rationality", "envy_freeness", "necessity",
          "payment_lower_bound", "estimator_privacy_ratio")
PINS = {
    "run": "a17d36fcd93251ea5841dc704285171e539e5ad9fbff41554649bf041a1c99ee",
    "sweep": "e1c0d8727f215dde2639278701bd1a0b73a1244ea99e0b9c0d4a59a7e14e61d7",
    "budget": dict.fromkeys(_CLEAN + ("budget_feasibility", "winner_count_optimality"), 0),
    "accuracy": dict.fromkeys(_CLEAN + ("payment_optimality",), 0),
    "negative_control": {**dict.fromkeys(_CLEAN + ("budget_feasibility",
                                                   "winner_count_optimality"), 0),
                         "truthfulness": 41, "envy_freeness": 10},
}


def write_configs(commands: list, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for cmd in commands:
        with open(workdir / f"{cmd.label}.json", "w") as fh:
            json.dump(cmd.config, fh, indent=2, sort_keys=True)
