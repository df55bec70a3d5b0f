"""In-memory span tracer installed from the benchmark's own files.

The program under test stays unchanged.  Its public functions are wrapped
where their consumers look them up: `from ... import` binds a name in the
consumer module, so that module's reference is patched.  Constructors are
wrapped on the class, which every consumer shares.  `Tracer.installed()`
restores every original on exit.

The benchmark runs single-threaded, so one stack gives each span its parent.
No layer has a queue or a lock to wait on, so spans carry no wait time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import statistics
import time
from array import array


def _profile(args, kwargs, result):
    """The reports the mechanism saw: its instance's fields.

    Only references are kept here (`Population.values` is read-only), so no
    time is charged to the caller's span; `_digest` hashes them after the pass.
    """
    inst = args[0]
    return (inst.pop.values, type(inst).__name__, inst.model,
            getattr(inst, "budget", None), getattr(inst, "alpha", None))


def _digest(profile) -> bytes:
    values, *fields = profile
    h = hashlib.blake2b(values.tobytes(), digest_size=16)
    h.update(repr(fields).encode())
    return h.digest()


def _draws(args, kwargs, result):
    return int(getattr(result, "size", 1))   # a float when drawn without `size`


def _nonvacuous(args, kwargs, result):
    return result > 0


def patch_table() -> list:
    """(owner, attribute, span name, note) for every traced call site."""
    from privauction import cli, core, dp, mechanisms, verify
    mech, outcome = "mechanisms", "core.outcome"
    return [
        (cli, "cmd_run", "cli", None),
        (cli, "cmd_sweep", "cli", None),
        (cli, "cmd_verify", "cli", None),
        (cli, "fair_query", mech, _profile),
        (cli, "min_cost_auction", mech, _profile),
        (verify, "fair_query", mech, _profile),
        (verify, "min_cost_auction", mech, _profile),
        (mechanisms, "cost_eval", "core.cost_eval", None),
        (verify, "cost_eval", "core.cost_eval", None),
        (core.MechanismOutcome, "__init__", outcome, None),
        (core.Population, "__init__", "core.population", None),
        (cli, "generate_population", "core.generate_population", None),
        (cli, "trial_stream", "dp.trial_stream", None),
        (verify, "trial_stream", "dp.trial_stream", None),
        (mechanisms, "lap_sample", "dp.lap_sample", _draws),
        (dp, "lap_sample", "dp.lap_sample", _draws),
        (mechanisms, "laplace_estimator", "dp.estimator", None),
        (dp.EstimatorPlan, "__init__", "dp.estimator", None),
        (verify, "run_suite", "verify.suite", None),
        (verify, "check_truthfulness", "verify.truthfulness", None),
        (verify, "check_individual_rationality", "verify.ir", None),
        (verify, "check_envy_freeness", "verify.envy", None),
        (verify, "oracle_max_winners_envy_free", "verify.oracles", None),
        (verify, "oracle_min_payment_k_units", "verify.oracles", None),
        (verify, "check_estimator_privacy", "verify.privacy_grid", None),
        (verify, "payment_lower_bound", "verify.lower_bound", _nonvacuous),
    ]


class Tracer:
    """Spans (name, start, end, parent) in arrays; notes keyed by span index."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.notes = {}
        self._stack = []

    def wrap(self, name: str, fn, note=None):
        names, start, end, parent = self.names, self.start, self.end, self.parent
        stack, notes, clock = self._stack, self.notes, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            start.append(0.0)
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every site of `patch_table()`, then restore the originals."""
        saved = []
        try:
            for owner, attr, name, note in patch_table():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_tsv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\n")


class Totals:
    """Per span name: call count, inclusive time and self time.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread never overlap, so that is the time no
    child covers.
    """

    def __init__(self, tracer: Tracer):
        n = len(tracer.names)
        dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self.calls, self.incl, self.self = {}, {}, {}
        for i, name in enumerate(tracer.names):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.incl[name] = self.incl.get(name, 0.0) + dur[i]
            self.self[name] = self.self.get(name, 0.0) + dur[i] - child[i]


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> unit, in the order they are reported
LAYER_UNITS = {
    "cli.self_s": "s",
    "mechanisms.calls": "count",
    "mechanisms.self_s": "s",
    "mechanisms.us_per_call": "us",
    "mechanisms.distinct_share": "ratio",
    "core.cost_eval.calls": "count",
    "core.cost_eval.s": "s",
    "core.outcome.calls": "count",
    "core.outcome.s": "s",
    "core.population.calls": "count",
    "core.population.s": "s",
    "core.generate_population.s": "s",
    "dp.trial_stream.calls": "count",
    "dp.trial_stream.s": "s",
    "dp.lap_sample.calls": "count",
    "dp.lap_sample.draws": "count",
    "dp.lap_sample.s": "s",
    "dp.estimator.s": "s",
    "verify.truthfulness.s": "s",
    "verify.truthfulness.misreports": "count",
    "verify.ir.s": "s",
    "verify.envy.s": "s",
    "verify.oracles.s": "s",
    "verify.privacy_grid.s": "s",
    "verify.suite.self_s": "s",
    "verify.lower_bound.nonvacuous_share": "ratio",
    "trace_overhead_share": "ratio",
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass; 0 where a layer was not called.

    `*.s` is inclusive time (what the caller waits), `*.self_s` excludes
    child spans, `*.calls` counts spans.
    """
    t = Totals(tracer)
    calls = lambda name: t.calls.get(name, 0)
    incl = lambda name: t.incl.get(name, 0.0)
    names, parent, notes = tracer.names, tracer.parent, tracer.notes

    # parents precede children, so one forward pass marks every span that
    # runs inside a truthfulness check
    in_truth = [False] * len(names)
    misreports = 0
    for i, name in enumerate(names):
        p = parent[i]
        in_truth[i] = name == "verify.truthfulness" or (p >= 0 and in_truth[p])
        if name == "mechanisms" and in_truth[i]:
            misreports += 1
    digests = {}  # by array identity: the notes keep every array alive
    for i, name in enumerate(names):
        if name == "mechanisms":
            profile = notes[i]
            key = (id(profile[0]), *profile[1:])
            if key not in digests:
                digests[key] = _digest(profile)
    profiles = set(digests.values())
    draws = sum(notes[i] for i, name in enumerate(names) if name == "dp.lap_sample")
    nonvacuous = sum(notes[i] for i, name in enumerate(names) if name == "verify.lower_bound")

    return {
        "cli.self_s": t.self.get("cli", 0.0),
        "mechanisms.calls": calls("mechanisms"),
        "mechanisms.self_s": t.self.get("mechanisms", 0.0),
        "mechanisms.us_per_call": 1e6 * _share(incl("mechanisms"), calls("mechanisms")),
        "mechanisms.distinct_share": _share(len(profiles), calls("mechanisms")),
        "core.cost_eval.calls": calls("core.cost_eval"),
        "core.cost_eval.s": incl("core.cost_eval"),
        "core.outcome.calls": calls("core.outcome"),
        "core.outcome.s": incl("core.outcome"),
        "core.population.calls": calls("core.population"),
        "core.population.s": incl("core.population"),
        "core.generate_population.s": incl("core.generate_population"),
        "dp.trial_stream.calls": calls("dp.trial_stream"),
        "dp.trial_stream.s": incl("dp.trial_stream"),
        "dp.lap_sample.calls": calls("dp.lap_sample"),
        "dp.lap_sample.draws": draws,
        "dp.lap_sample.s": incl("dp.lap_sample"),
        "dp.estimator.s": incl("dp.estimator"),
        "verify.truthfulness.s": incl("verify.truthfulness"),
        "verify.truthfulness.misreports": _share(misreports, calls("verify.truthfulness")),
        "verify.ir.s": incl("verify.ir"),
        "verify.envy.s": incl("verify.envy"),
        "verify.oracles.s": incl("verify.oracles"),
        "verify.privacy_grid.s": incl("verify.privacy_grid"),
        "verify.suite.self_s": t.self.get("verify.suite", 0.0),
        "verify.lower_bound.nonvacuous_share": _share(nonvacuous, calls("verify.lower_bound")),
    }


def median_metrics(passes: list) -> dict:
    """Median of each metric over traced passes (counts repeat exactly)."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
