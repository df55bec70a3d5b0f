"""Experiment runner: seeded scenario execution, parameter sweeps, and the
verification suite, driven by a single JSON config file.

Commands:
    privauction run <config>      execute the configured scenario
    privauction verify <config>   run the property-check suite
    privauction sweep <config>    one record per swept parameter value

Exit codes: 0 success, 1 property failure, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import List, Optional

import numpy as np

from . import verify as verify_mod
from .core import (CostFamily, DomainError, PopulationSpec, _check_bool,
                   _check_integer, _check_real, _known, generate_population)
from .dp import _trial_streams, trial_stream
from .mechanisms import (AccuracyInstance, BudgetInstance, fair_query,
                         min_cost_auction)

REPORT_VERSION = 1
SWEEPABLE = ("budget", "alpha", "threshold", "q", "n", "seed")


class ConfigError(ValueError):
    """The config file failed to parse or validate."""


#: The optional config fields, each passed on only when the config gives it,
#: so that its default is the one on `ExperimentConfig`, and the one check its
#: value passes, whether it comes from the file, an option or a sweep point;
#: and the fields that `output`'s keys set.
OPTIONAL_FIELDS = {"budget": _check_real, "alpha": _check_real, "trials": _check_integer,
                   "seed": _check_integer,
                   "sweep": lambda name, x: _known(name, x, ("parameter", "values")),
                   "clamp_estimates": _check_bool, "negative_control": _check_bool}
OUTPUT_FIELDS = {"path": "output_path", "format": "output_format"}


@dataclass
class ExperimentConfig:
    scenario: str                   # "budget" | "accuracy"
    population: PopulationSpec
    cost_family: CostFamily
    budget: Optional[float] = None
    alpha: Optional[float] = None
    trials: int = 1
    seed: int = 0
    sweep: Optional[dict] = None    # {"parameter": name, "values": [...]}
    output_path: Optional[str] = None
    output_format: str = "json"
    clamp_estimates: bool = False
    negative_control: bool = False

    def __post_init__(self):
        # None is "absent" only for a field whose default is None; `budget`
        # and `alpha` are checked, but kept as given: 400 stays 400
        for name, check in OPTIONAL_FIELDS.items():
            value = getattr(self, name)
            if value is not None or self.__dataclass_fields__[name].default is not None:
                check(name, value)
        if self.scenario not in ("budget", "accuracy"):
            raise ConfigError(f"scenario must be 'budget' or 'accuracy', got {self.scenario!r}")
        if self.scenario == "budget" and (self.budget is None or self.alpha is not None):
            raise ConfigError("budget scenario requires 'budget' and forbids 'alpha'")
        if self.scenario == "accuracy" and (self.alpha is None or self.budget is not None):
            raise ConfigError("accuracy scenario requires 'alpha' and forbids 'budget'")
        if self.negative_control and self.scenario != "budget":
            raise ConfigError("negative_control applies to the budget scenario only")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"format must be 'json' or 'csv', got {self.output_format!r}")
        if self.sweep is not None:
            param, values = self.sweep.get("parameter"), self.sweep.get("values")
            if param not in SWEEPABLE:
                raise ConfigError(f"sweep parameter must be one of {SWEEPABLE}, got {param!r}")
            bits = self.population.bits
            if param in ("threshold", "q") and param not in bits:
                raise ConfigError(f"sweep parameter {param!r} is not a field of the "
                                  f"{bits['model']!r} bit model")
            # the report echoes every swept value, and JSON holds no inf or NaN
            if not (isinstance(values, list) and values and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    and (isinstance(v, int) or math.isfinite(v)) for v in values)):
                raise ConfigError("sweep values must be a non-empty list of finite numbers")
        if not isinstance(self.output_path, (str, type(None))):
            raise ConfigError(f"output path must be a string, got {self.output_path!r}")

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
        # bytes that are not UTF-8, an integer of more than 4300 digits, or
        # arrays nested deeper than the interpreter's recursion limit
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            _known("config", raw, ("scenario", "population", "cost_family", "output",
                                   *OPTIONAL_FIELDS))
            output = raw.get("output", {})
            _known("output", output, OUTPUT_FIELDS)
            population = PopulationSpec.from_dict(raw["population"])
            family = CostFamily(raw["cost_family"])
            return cls(
                scenario=raw["scenario"], population=population, cost_family=family,
                **{key: raw[key] for key in OPTIONAL_FIELDS if key in raw},
                **{field: output[key] for key, field in OUTPUT_FIELDS.items() if key in output})
        except KeyError as exc:
            raise ConfigError(f"config missing required field {exc}") from exc
        except (ValueError, DomainError) as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        d = {
            "scenario": self.scenario,
            "population": self.population.to_dict(),
            "cost_family": self.cost_family.value,
            "trials": self.trials,
            "seed": self.seed,
            "clamp_estimates": self.clamp_estimates,
        }
        if self.budget is not None:
            d["budget"] = self.budget
        if self.alpha is not None:
            d["alpha"] = self.alpha
        if self.sweep is not None:
            d["sweep"] = self.sweep
        if self.negative_control:
            d["negative_control"] = True
        return d


def _instance(config: ExperimentConfig):
    pop = generate_population(config.population)
    if config.scenario == "budget":
        return BudgetInstance(pop=pop, model=config.cost_family,
                              budget=float(config.budget))
    return AccuracyInstance(pop=pop, model=config.cost_family,
                            alpha=float(config.alpha))


def _mechanism(config: ExperimentConfig):
    if config.negative_control:   # a budget-scenario field
        return verify_mod.pay_your_bid_control
    return fair_query if config.scenario == "budget" else min_cost_auction


def _run_record(config: ExperimentConfig, inst) -> dict:
    """Run the mechanism once per trial, trial t on `trial_stream(seed, t)`'s
    stream, handed over as one Generator that `_trial_streams` repositions
    per trial; aggregate into one record."""
    mech = _mechanism(config)
    n = inst.pop.n
    s = inst.pop.total
    try:
        estimates = np.empty(config.trials)
    except (ValueError, MemoryError) as exc:   # too many for an array, or for memory
        raise DomainError(f"cannot hold {config.trials} trial estimates: {exc}") from exc
    for t, rng in enumerate(_trial_streams(config.seed, config.trials)):
        estimates[t] = mech(inst, rng).estimate
    # payments and winner sets are deterministic; take them from one more
    # run on the loop's Generator, whose draw is not read
    out0 = mech(inst, rng)
    k = out0.winner_count
    if config.scenario == "budget":
        bound = verify_mod.accuracy_level(out0)
    else:
        bound = float(config.alpha) * n
    shown = np.clip(estimates, 0.0, n) if config.clamp_estimates else estimates
    errors = shown - s
    return {
        "seed": config.seed,
        "n": n,
        "k": k,
        "total_payment": out0.total_payment,
        "winner_count": k,
        "accuracy_bound": bound,
        "error_rate_at_bound": float(np.mean(np.abs(estimates - s) >= bound)),
        "estimate_error_mean": float(errors.mean()),
        "estimate_error_std": float(errors.std()),
    }


def _quick_verification(config: ExperimentConfig, inst) -> List[dict]:
    """Deterministic per-outcome checks embedded in run reports."""
    out = _mechanism(config)(inst, trial_stream(config.seed, 0))
    reports = [
        verify_mod.check_individual_rationality(out, inst.pop, inst.model),
        verify_mod.check_envy_freeness(out, inst.pop, inst.model),
    ]
    if config.scenario == "budget":
        reports.append(verify_mod.check_budget_feasibility(out, inst.budget))
    return [r.to_dict() for r in reports]


def _sweep_config(config: ExperimentConfig, value) -> ExperimentConfig:
    param = config.sweep["parameter"]
    if param in ("budget", "alpha", "seed"):
        return dataclasses.replace(config, **{param: value}, sweep=None)
    # a swept q or threshold replaces that field of the config's own bits
    change = {"n": value} if param == "n" else {"bits": {**config.population.bits, param: value}}
    pop = dataclasses.replace(config.population, **change)
    return dataclasses.replace(config, population=pop, sweep=None)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _json(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True, allow_nan=False)`, for
    the values a report holds, without json's pure-Python indenting encoder.

    `indent` is the newline and indentation of `value`'s own line. Dict keys
    must be strings; NaN and +-inf raise json's `ValueError`, and any other
    type (an `np.int64`, a set, bytes) json's `TypeError`.
    """
    # leaves first, the most frequent first; bool before int, as it is one
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, int):
        if value is True:
            return "true"
        if value is False:
            return "false"
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _json(v, inner)
             for k, v in sorted(value.items())]) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _csv(records: list) -> str:
    """The records as CSV: a header of every key any record has, sorted, and
    one row per record, with an empty cell for a key the record lacks."""
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=sorted({k for rec in records for k in rec}),
                            lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(records)
    return buf.getvalue()


def _discard_stdout() -> None:
    """Point stdout's descriptor at `os.devnull`, as the `signal` module's
    documentation advises after a write to a closed pipe fails.

    Bytes that stdout still buffers after a failed write would otherwise
    fail the interpreter's flush at exit, which prints a second error and
    makes the exit status 120. A stdout with no descriptor (a test's
    `StringIO`) is left alone: nothing flushes it at exit.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):   # io.UnsupportedOperation
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def _report(config: ExperimentConfig, command: str, records: list,
            verification: list) -> None:
    """Frame one command's report, encode it, then write it to stdout or to
    `config.output_path`.

    The whole body, JSON or CSV, is encoded before the file is opened, so a
    report that cannot be encoded (a NaN that reached a JSON report) raises
    `DomainError` and leaves an existing output file as it was. An `OSError`
    from the open, the write or the cut raises `DomainError` too, and so
    does one from writing or flushing stdout, after `_discard_stdout`.

    An existing file is rewritten in place: opened without `O_TRUNC`,
    written from its start and then cut to the written length. Truncating a
    non-empty file to zero on open, as `open(path, "w")` does, makes ext4
    (with its default `auto_da_alloc`) start writeback of the new data on
    close. Writing a 1.2 kB or a 9.9 kB report over an existing one that
    way took 86-134 us, against 12-22 us in place; a temporary file renamed
    over the report pays the same flush (79-94 us). On a fresh path the
    in-place write costs 1-7 us more, for its fstat and position check
    (timeit, open to close, 2-core VM, ext4). Only a regular file is cut, so
    `/dev/null`, a FIFO or a terminal is written as a stream, and a file no
    longer than the new report (a fresh path, or the same report again)
    needs no cut.

    The write is not atomic, and nothing calls fsync. A write cut short (a
    full disk, a crash) can leave new bytes followed by the old report's
    tail, where truncating first left an empty or partial file.
    """
    report = {"version": REPORT_VERSION, "command": command, "config": config.to_dict(),
              "records": records, "verification": verification}
    try:
        body = _csv(records) if config.output_format == "csv" else _json(report) + "\n"
    except ValueError as exc:
        raise DomainError(f"cannot encode report: {exc}") from exc
    if not config.output_path:
        try:
            sys.stdout.write(body)
            sys.stdout.flush()
        except OSError as exc:
            _discard_stdout()
            raise DomainError(
                f"cannot write report to stdout: {exc.strerror or exc}") from exc
        return
    try:
        # `open` owns the descriptor, closing it if wrapping fails, and adds
        # O_BINARY where it exists, so newline="" writes the bytes given
        with open(config.output_path, "w", newline="",
                  opener=lambda path, flags: os.open(path, flags & ~os.O_TRUNC, 0o666)) as fh:
            fh.write(body)
            fh.flush()
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode) and st.st_size > fh.tell():
                fh.truncate()   # cut the old report's tail
    except OSError as exc:
        raise DomainError(
            f"cannot write report {config.output_path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_run(config: ExperimentConfig) -> int:
    inst = _instance(config)
    _report(config, "run", [_run_record(config, inst)], _quick_verification(config, inst))
    return 0


def _corpus(config: ExperimentConfig):
    """verify's instances, drawn one at a time: instance i's population is
    drawn at seed config seed + i."""
    for i in range(config.trials):
        spec = dataclasses.replace(config.population, seed=config.seed + i)
        yield _instance(dataclasses.replace(config, population=spec, sweep=None))


def cmd_verify(config: ExperimentConfig) -> int:
    reports = verify_mod.run_suite(_corpus(config),
                                   negative_control=config.negative_control)
    _report(config, "verify",
            [{"property": r.property_name, "pass": r.passed,
              "violation_count": len(r.violations)} for r in reports],
            [r.to_dict() for r in reports])
    return 0 if all(r.passed for r in reports) else 1


def cmd_sweep(config: ExperimentConfig) -> int:
    if config.sweep is None:
        raise ConfigError("sweep command requires a 'sweep' section in the config")
    records = []
    for value in config.sweep["values"]:
        try:
            sub = _sweep_config(config, value)
            rec = _run_record(sub, _instance(sub))
            rec["swept_value"] = value
            rec["error"] = ""
        except DomainError as exc:
            rec = {"swept_value": value, "error": str(exc)}
        records.append(rec)
    _report(config, "sweep", records, [])
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on the first call and shared by every later
    `main` call in the process: `parse_args` returns a fresh Namespace each
    time and no action changes the parser. The command is a positional
    choice and every command takes the same options, so no subparser is
    built per command."""
    parser = argparse.ArgumentParser(
        prog="privauction",
        description="Auctions for buying differential privacy: experiment runner.")
    parser.add_argument("command", choices=("run", "verify", "sweep"))
    parser.add_argument("config", help="path to JSON config file")
    # each option's dest is the config field it overrides, and its default,
    # None, means "as the config says"
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--trials", type=int, help="override trial count")
    parser.add_argument("--output", dest="output_path", metavar="OUTPUT",
                        help="override output path")
    parser.add_argument("--format", dest="output_format", choices=("json", "csv"),
                        help="override output format")
    parser.add_argument("--clamp", dest="clamp_estimates", action="store_const", const=True,
                        help="clamp reported estimates to [0, n]")
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    handler = {"run": cmd_run, "verify": cmd_verify, "sweep": cmd_sweep}[args.pop("command")]
    path = args.pop("config")
    try:
        config = dataclasses.replace(ExperimentConfig.from_file(path),
                                     **{k: v for k, v in args.items() if v is not None})
        return handler(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
