"""Output checks: each command's exit code and report against the expectation.

Run and sweep reports are checked against the library's public oracles on
the same generated population; verify reports against the pinned verdicts.
At DEFAULT_SEED the report hashes and violation counts must also match PINS.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

from privauction import (ACCURACY_CONST, CostFamily, PopulationSpec,
                         generate_population, oracle_max_winners_envy_free,
                         oracle_min_payment_k_units)
from privauction.core import TOL

from workloads import DEFAULT_SEED, PINS, Command

# Pr[|Lap(b)| >= ln 3 * b] = 1/3; the slack covers Monte Carlo error at 20k trials
ERROR_RATE_LIMIT = 1.0 / 3.0 + 0.01


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _check_run(config: dict, report: dict) -> list:
    rec = report["records"][0]
    pop = generate_population(PopulationSpec.from_dict(config["population"]))
    family = CostFamily(config["cost_family"])
    k = oracle_max_winners_envy_free(pop, family, config["budget"])
    problems = []
    if rec["n"] != pop.n:
        problems.append(f"n {rec['n']} != {pop.n}")
    if rec["k"] != k or rec["winner_count"] != k:
        problems.append(f"k {rec['k']} != oracle {k}")
    if not rec["total_payment"] <= config["budget"]:
        problems.append(f"total_payment {rec['total_payment']} over budget")
    if not rec["error_rate_at_bound"] <= ERROR_RATE_LIMIT:
        problems.append(f"error_rate_at_bound {rec['error_rate_at_bound']}")
    if not all(v["pass"] for v in report["verification"]):
        problems.append("embedded verification failed")
    return problems


def _check_sweep(config: dict, report: dict) -> list:
    spec = PopulationSpec.from_dict(config["population"])
    family = CostFamily(config["cost_family"])
    alpha_scaled = config["alpha"] / ACCURACY_CONST
    values = config["sweep"]["values"]
    if len(report["records"]) != len(values):
        return [f"{len(report['records'])} sweep records for {len(values)} values"]
    problems = []
    for rec, n in zip(report["records"], values):
        if rec.get("error") != "" or rec.get("swept_value") != n:
            problems.append(f"n={n}: record {rec.get('swept_value')} error {rec.get('error')!r}")
            continue
        pop = generate_population(dataclasses.replace(spec, n=n))
        k = math.ceil((1.0 - alpha_scaled) * n)
        if rec["k"] != k:
            problems.append(f"n={n}: k {rec['k']} != {k}")
            continue
        oracle = oracle_min_payment_k_units(pop, family, k)
        if not _close(rec["total_payment"], oracle):
            problems.append(f"n={n}: total_payment {rec['total_payment']} != oracle {oracle}")
    return problems


def _check_verify(cmd: Command, report: dict) -> list:
    counts = {r["property"]: r["violation_count"] for r in report["records"]}
    if "truthfulness" not in counts:
        return ["no truthfulness verdict"]
    if cmd.expect_exit == 0:
        return [f"{p}: {c} violations" for p, c in counts.items() if c != 0]
    if counts["truthfulness"] < 1:
        return ["negative control: truthfulness violation not caught"]
    return []


def violation_counts(report: bytes) -> dict:
    return {r["property"]: r["violation_count"] for r in json.loads(report)["records"]}


def report_problems(cmd: Command, seed: int, report: bytes) -> list:
    """Everything wrong with one report of `cmd` at workload seed `seed`."""
    try:
        parsed = json.loads(report)
        if cmd.verb == "run":
            problems = _check_run(cmd.config, parsed)
        elif cmd.verb == "sweep":
            problems = _check_sweep(cmd.config, parsed)
        else:
            problems = _check_verify(cmd, parsed)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    if seed == DEFAULT_SEED:
        pin = PINS[cmd.label]
        if cmd.verb == "verify":
            if violation_counts(report) != pin:
                problems.append(f"violation counts differ from pin {pin}")
        elif hashlib.sha256(report).hexdigest() != pin:
            problems.append("report sha256 differs from pin")
    return problems


class Ledger:
    """Counts attempted and failed commands.

    A command fails when its exit code is unexpected, its report differs
    from the first report of the same command (reports are byte-identical
    for one config), or the report does not pass `report_problems`.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._first = {}
        self._checked = {}

    def record(self, cmd: Command, exit_code: int, report: bytes) -> None:
        self.attempted += 1
        problems = []
        if exit_code != cmd.expect_exit:
            problems.append(f"exit {exit_code}, expected {cmd.expect_exit}")
        first = self._first.setdefault(cmd.label, report)
        if report != first:
            problems.append("report differs from the first run of the same config")
        elif cmd.label not in self._checked:
            self._checked[cmd.label] = report_problems(cmd, self.seed, report)
        problems += self._checked.get(cmd.label, [])
        if problems:
            self.failed += 1
            self.problems.extend(f"{cmd.label}: {p}" for p in problems)

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
