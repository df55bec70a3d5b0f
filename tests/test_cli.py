import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import privauction
from privauction import cli
from privauction.cli import ConfigError, ExperimentConfig, main
from privauction.core import DomainError
from privauction.dp import ACCURACY_CONST


BASE_CONFIG = {
    "scenario": "budget",
    "population": {
        "n": 4,
        "values": {"dist": "point", "points": [1.0, 2.0, 4.0, 8.0]},
        "bits": {"model": "independent", "q": 0.5},
        "seed": 7,
    },
    "cost_family": "linear",
    "budget": 2.0,
    "trials": 50,
    "seed": 42,
}


def write_config(tmp_path, name, **overrides):
    base = {**BASE_CONFIG, **overrides}
    base = {k: v for k, v in base.items() if v is not None}
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


# --- run --------------------------------------------------------------------

def test_run_budget_worked_example(tmp_path, capsys):
    out = tmp_path / "report.json"
    cfg = write_config(tmp_path, "cfg.json", output={"path": str(out), "format": "json"})
    assert main(["run", str(cfg)]) == 0
    report = read_report(out)
    rec = report["records"][0]
    assert rec["k"] == 2
    assert rec["total_payment"] == pytest.approx(2.0)
    assert all(v["pass"] for v in report["verification"])


def test_run_accuracy_worked_example(tmp_path):
    out = tmp_path / "report.json"
    cfg = write_config(
        tmp_path, "cfg.json",
        scenario="accuracy", budget=None, alpha=0.2 * ACCURACY_CONST,
        population={"n": 10,
                    "values": {"dist": "point",
                               "points": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]},
                    "bits": {"model": "independent", "q": 1.0}, "seed": 1},
        output={"path": str(out), "format": "json"})
    assert main(["run", str(cfg)]) == 0
    rec = read_report(out)["records"][0]
    assert rec["k"] == 8
    assert rec["total_payment"] == pytest.approx(36.0)


def test_run_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    cfg = write_config(tmp_path, "cfg.json")
    assert main(["run", str(cfg), "--output", str(out1)]) == 0
    assert main(["run", str(cfg), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_seed_override_changes_report(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    cfg = write_config(tmp_path, "cfg.json")
    main(["run", str(cfg), "--output", str(out1)])
    main(["run", str(cfg), "--output", str(out2), "--seed", "43"])
    assert out1.read_bytes() != out2.read_bytes()


def test_run_report_round_trips(tmp_path):
    out = tmp_path / "report.json"
    cfg = write_config(tmp_path, "cfg.json", output={"path": str(out)})
    main(["run", str(cfg)])
    report = read_report(out)
    assert report["version"] == 1
    assert json.loads(json.dumps(report)) == report


def test_run_csv(tmp_path):
    out = tmp_path / "report.csv"
    cfg = write_config(tmp_path, "cfg.json",
                       output={"path": str(out), "format": "csv"})
    assert main(["run", str(cfg)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header + one record
    assert "total_payment" in lines[0]


def test_clamp_affects_summary_only(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    cfg = write_config(tmp_path, "cfg.json", trials=500)
    main(["run", str(cfg), "--output", str(out1)])
    main(["run", str(cfg), "--output", str(out2), "--clamp"])
    r1, r2 = read_report(out1)["records"][0], read_report(out2)["records"][0]
    assert r1["error_rate_at_bound"] == r2["error_rate_at_bound"]
    assert r1["estimate_error_std"] != r2["estimate_error_std"]


# --- config errors ----------------------------------------------------------

def test_invalid_json_line_anchored(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "scenario": "budget",\n  oops\n}')
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert ":3:" in err  # line number of the defect


@pytest.mark.parametrize("content, reason", [
    (b'{"budget": 1' + b"0" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    (b'{"scenario": "bud\xffget"}', "'utf-8' codec can't decode byte 0xff"),
], ids=["integer-of-5001-digits", "deeply-nested-array", "not-utf-8"])
def test_unparsable_config_is_a_config_error(tmp_path, capsys, content, reason):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot parse config {cfg}: {reason}")
    assert err.count("\n") == 1


def test_config_is_read_as_utf_8(tmp_path):
    # a non-ASCII key reads the same in an ASCII locale, UTF-8 mode off: an
    # unknown key, it is named as decoded in the error line
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(json.dumps({**BASE_CONFIG, "tr\u00efals": 5},
                               ensure_ascii=False).encode("utf-8"))
    out = tmp_path / "report.json"
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": str(Path(privauction.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "privauction.cli", "run", str(cfg),
                           "--output", str(out)], capture_output=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.decode("utf-8") == (
        "config error: unknown config field 'tr\u00efals'; did you mean 'trials'?\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("target, reason", [
    ("missing/report.json", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing-directory", "a-directory"])
def test_unwritable_output_exits_two(tmp_path, capsys, command, target, reason):
    cfg = write_config(tmp_path, "cfg.json", trials=2)
    path = tmp_path / target
    assert main([command, str(cfg), "--output", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write report {path}: {reason}\n"


def test_report_that_cannot_be_encoded_leaves_output_untouched(tmp_path, monkeypatch, capsys):
    # the report is encoded before --output is opened; a NaN in it is an
    # input outside what the math supports, so the command exits 2
    monkeypatch.setattr(privauction.verify, "accuracy_level", lambda out: float("nan"))
    cfg = write_config(tmp_path, "cfg.json", trials=2)
    out = tmp_path / "report.json"
    out.write_bytes(b'{"an": "earlier report"}\n')
    assert main(["run", str(cfg), "--output", str(out)]) == 2
    assert capsys.readouterr().err == ("error: cannot encode report: Out of range float "
                                       "values are not JSON compliant: nan\n")
    assert out.read_bytes() == b'{"an": "earlier report"}\n'


@pytest.mark.parametrize("argv", [["audit", "config.json"], ["verify"], []],
                         ids=["unknown-command", "missing-config", "no-arguments"])
def test_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: privauction" in capsys.readouterr().err


def test_options_parse_before_and_after_the_config(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", str(cfg), "--seed", "43", "--output", str(out1)]) == 0
    assert main(["run", "--seed", "43", "--output", str(out2), str(cfg)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_missing_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", budget=None)
    assert main(["run", str(cfg)]) == 2
    assert "budget" in capsys.readouterr().err


README_CONFIG = json.loads(
    (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    .split("```json\n")[1].split("```")[0])

# per config level: the keys that lead to its object, a misspelled key added
# to it, and the known key nearest to that
MISSPELLED = {
    "config": ((), "trails", "trials"),
    "output": (("output",), "fromat", "format"),
    "sweep": (("sweep",), "parameters", "parameter"),
    "population": (("population",), "sed", "seed"),
    "values": (("population", "values"), "pionts", "points"),
    "bits": (("population", "bits"), "modle", "model"),
}


@pytest.mark.parametrize("base", [BASE_CONFIG, README_CONFIG], ids=["base", "readme"])
@pytest.mark.parametrize("level", sorted(MISSPELLED))
def test_unknown_key_is_a_config_error_at_every_level(tmp_path, monkeypatch, capsys,
                                                      base, level):
    monkeypatch.chdir(tmp_path)   # the README's output path is relative
    config = json.loads(json.dumps(base))
    config.setdefault("output", {})
    config.setdefault("sweep", {"parameter": "budget", "values": [1.0]})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--output", "known.json"]) == 0
    path, key, near = MISSPELLED[level]
    functools.reduce(dict.__getitem__, path, config)[key] = 1
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"config error: unknown {level} field {key!r}; did you mean {near!r}?\n")
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "known.json"]


def test_both_budget_and_alpha_rejected(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", alpha=0.3)
    assert main(["run", str(cfg)]) == 2


def test_unattainable_alpha_names_constraint(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json", scenario="accuracy", budget=None, alpha=0.1,
        population={"n": 5, "values": {"dist": "uniform", "lo": 0, "hi": 1},
                    "bits": {"model": "independent", "q": 0.5}, "seed": 0})
    assert main(["run", str(cfg)]) == 2
    assert "unattainable" in capsys.readouterr().err


def test_empty_sweep_rejected(tmp_path):
    cfg = write_config(tmp_path, "cfg.json",
                       sweep={"parameter": "budget", "values": []})
    assert main(["sweep", str(cfg)]) == 2


def _mistyped(**fields):
    return {**BASE_CONFIG, **fields}


@pytest.mark.parametrize("command, raw", [
    ("run", _mistyped(sweep=[1, 2])),
    ("run", _mistyped(trials=None)),
    ("run", _mistyped(budget="x")),
    ("run", _mistyped(population=[])),
    ("run", _mistyped(population={**BASE_CONFIG["population"], "values": "uniform"})),
    ("run", _mistyped(population={**BASE_CONFIG["population"], "n": None})),
    ("run", _mistyped(output="r.json")),
    ("sweep", _mistyped(sweep={"parameter": "budget", "values": 3})),
    ("sweep", _mistyped(sweep={"parameter": "budget", "values": ["x"]})),
    ("run", [BASE_CONFIG]),
    # a string is not a boolean: "false" must not switch the option on
    ("verify", _mistyped(negative_control="false")),
    ("run", _mistyped(clamp_estimates="false")),
], ids=["sweep-list", "trials-null", "budget-string", "population-list",
        "values-string", "n-null", "output-string", "sweep-values-number",
        "sweep-values-strings", "top-level-list", "negative-control-string",
        "clamp-string"])
def test_mistyped_field_is_a_config_error(tmp_path, capsys, command, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main([command, str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("family, shown", [("x", "'x'"), (["linear"], "['linear']")],
                         ids=["unknown", "list"])
def test_bad_cost_family_names_the_field_and_the_families(tmp_path, capsys, family, shown):
    cfg = write_config(tmp_path, "cfg.json", cost_family=family)
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: cost_family must be one of 'linear', 'quadratic', 'exp_scaled', "
        f"'exp_arg', got {shown}\n")


@pytest.mark.parametrize("command", ["run", "verify"])
def test_negative_control_outside_the_budget_scenario_is_a_config_error(
        tmp_path, capsys, command):
    # the control reprices fair_query, the budget scenario's rule; an accuracy
    # config once ran the truthful auction and echoed "negative_control": true
    out = tmp_path / "report.json"
    cfg = write_config(tmp_path, "cfg.json", scenario="accuracy", budget=None, alpha=0.5,
                       negative_control=True, trials=2, output={"path": str(out)},
                       population={"n": 8, "values": {"dist": "uniform", "lo": 0, "hi": 10},
                                   "bits": {"model": "independent", "q": 0.5}, "seed": 0})
    assert main([command, str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: negative_control applies to the budget scenario only\n")
    assert not out.exists()


def test_each_config_field_has_one_default_and_one_source():
    # a field is required, optional (passed on only when the config gives
    # it, so its default is the dataclass's) or set by a key of `output`; an
    # option's dest is the field it overrides, and its default None means
    # "as the config says"
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert (set(cli.OPTIONAL_FIELDS) | set(cli.OUTPUT_FIELDS.values())
            == fields - {"scenario", "population", "cost_family"})
    options = [a for a in cli.build_parser()._actions
               if a.dest not in ("help", "command", "config")]
    assert options and all(a.dest in fields and a.default is None for a in options)


def _overflow_config(tmp_path, alpha=0.1, **overrides):
    # lognormal(6, 3) values reach ~1e5, where exp_arg's expm1(eps * v) is inf
    return write_config(
        tmp_path, "cfg.json", scenario="accuracy", budget=None, alpha=alpha,
        cost_family="exp_arg", trials=2,
        population={"n": 20, "values": {"dist": "lognormal", "mu": 6, "sigma": 3},
                    "bits": {"model": "independent", "q": 0.5}, "seed": 0},
        **overrides)


@pytest.mark.parametrize("command", ["run", "verify"])
def test_overflowing_cost_exits_two(tmp_path, capsys, command):
    out = tmp_path / "report.json"
    cfg = _overflow_config(tmp_path, output={"path": str(out)})
    assert main([command, str(cfg)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_records_overflowing_cost(tmp_path):
    out = tmp_path / "sweep.json"
    cfg = _overflow_config(tmp_path, output={"path": str(out)},
                           sweep={"parameter": "alpha", "values": [0.1]})
    assert main(["sweep", str(cfg)]) == 0
    text = out.read_text()
    assert "Infinity" not in text and "NaN" not in text
    assert "finite" in json.loads(text)["records"][0]["error"]


def _points_config(tmp_path, points, **overrides):
    # linear costs, n = 3 and alpha' = 1/3, so k = 2: the price is the
    # largest unit cost and the charge is twice that
    return write_config(
        tmp_path, "cfg.json", scenario="accuracy", budget=None,
        alpha=(0.5 + math.log(3)) / 3, trials=2,
        population={"n": 3, "values": {"dist": "point", "points": points},
                    "bits": {"model": "independent", "q": 0.5}, "seed": 0},
        **overrides)


@pytest.mark.parametrize("command, make_config, args, code", [
    ("verify", functools.partial(_overflow_config, alpha=0.9),
     ["--seed", "1", "--trials", "5"], 0),
    ("run", _overflow_config, [], 2),
    ("verify", _overflow_config, [], 2),
    ("run", functools.partial(_points_config, points=[1, 1e308, 1.5e308]), [], 2),
    ("verify", functools.partial(_points_config, points=[1, 1, 6e307]), [], 2),
], ids=["losers-overflow", "price-overflows-run", "price-overflows-verify",
        "charge-overflows-run", "misreport-charge-overflows-verify"])
def test_overflowing_cost_raises_no_warning(tmp_path, capsys, command, make_config,
                                            args, code):
    # at alpha 0.9 only unit costs of agents who lose overflow, which ranks
    # them last; otherwise a price, a charge k * price or a payment sum
    # overflows and the command exits 2 with one line on stderr
    cfg = make_config(tmp_path, output={"path": str(tmp_path / "report.json")})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, str(cfg), *args]) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflowed" in err


@pytest.mark.parametrize("command, pop_seed, args, prefix", [
    ("run", -3, [], "config error: "),
    # verify draws instance i from population seed `seed + i`
    ("verify", 7, ["--seed", "-1"], "error: "),
], ids=["run-population-seed", "verify-instance-seed"])
def test_negative_population_seed_exits_two(tmp_path, capsys, command, pop_seed,
                                            args, prefix):
    cfg = write_config(tmp_path, "cfg.json",
                       population={**BASE_CONFIG["population"], "seed": pop_seed})
    assert main([command, str(cfg), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "seed must be >= 0" in err


def write_literal(tmp_path, raw, literal):
    """`raw` as a config file, its string "@" replaced by `literal` verbatim
    (e.g. 1e400, Infinity or NaN, which json.dumps does not write)."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw).replace('"@"', literal))
    return path


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("field, literal", [
    ("n", "2.5"), ("n", "true"), ("n", '"10"'), ("n", "4.0"), ("n", "1e400"),
    ("n", "Infinity"), ("seed", "2.7"), ("seed", "1e400"), ("seed", "NaN"),
    ("seed", "false"),
])
def test_integer_population_field_is_a_config_error(tmp_path, capsys, command, field,
                                                     literal):
    # these once ran as n = int(value) (2.5 as 2, true as 1, "10" as 10) or
    # exited 1 with an OverflowError or ValueError traceback
    cfg = write_literal(tmp_path, _mistyped(population={**BASE_CONFIG["population"],
                                                        field: "@"}), literal)
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "must be an integer" in err


REAL_FIELD_POPULATIONS = {
    "lo": {"values": {"dist": "uniform", "lo": "@", "hi": 10}},
    "hi": {"values": {"dist": "uniform", "lo": 0, "hi": "@"}},
    "mu": {"values": {"dist": "lognormal", "mu": "@", "sigma": 1}},
    "sigma": {"values": {"dist": "lognormal", "mu": 0, "sigma": "@"}},
    "points": {"values": {"dist": "point", "points": [1.0, "@", 4.0, 8.0]}},
    "q": {"bits": {"model": "independent", "q": "@"}},
    "threshold": {"bits": {"model": "value_correlated", "threshold": "@"}},
}


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("field", sorted(REAL_FIELD_POPULATIONS))
@pytest.mark.parametrize("literal", ['"0.5"', "true", "null", "[1]", "1" + "0" * 400],
                         ids=["string", "bool", "null", "list", "int-beyond-float"])
def test_real_population_field_is_a_config_error(tmp_path, capsys, command, field,
                                                 literal):
    # a string or bool once ran as float(value) ("0.5" as 0.5, true as 1.0)
    population = {**BASE_CONFIG["population"], **REAL_FIELD_POPULATIONS[field]}
    cfg = write_literal(tmp_path, _mistyped(population=population), literal)
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"{field} must be a number" in err


# sizes and ranges numpy refuses before it allocates anything
UNDRAWABLE = {
    "n-beyond-intp": {"n": 10 ** 20, "values": {"dist": "uniform", "lo": 0, "hi": 10}},
    "n-too-big": {"n": 2 ** 62, "values": {"dist": "lognormal", "mu": 0, "sigma": 1}},
    "range-overflows": {"n": 4, "values": {"dist": "uniform", "lo": -1e308, "hi": 1e308}},
}


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("case", sorted(UNDRAWABLE))
def test_population_numpy_cannot_draw_exits_two(tmp_path, capsys, command, case):
    # these once exited 1 with a ValueError or OverflowError traceback
    cfg = write_config(tmp_path, "cfg.json",
                       population={**BASE_CONFIG["population"], **UNDRAWABLE[case]})
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot draw the population: ") and err.count("\n") == 1


REAL_DEFAULT_RNG = np.random.default_rng


class OutOfMemory:
    """numpy's Generator, except that its `failing` draw of more than 1000
    numbers raises MemoryError, as numpy's does for an n too large for
    memory. A real draw that large could be granted and then filled."""

    def __init__(self, failing, seed):
        self._failing, self._rng = failing, REAL_DEFAULT_RNG(seed)

    def __getattr__(self, name):
        draw = getattr(self._rng, name)
        if name != self._failing:
            return draw

        def failing(*args, **kwargs):
            n = kwargs.get("size", args[-1])   # uniform(lo, hi, size=n), random(n)
            if n > 1000:
                raise MemoryError(f"Unable to allocate {8 * n} bytes")
            return draw(*args, **kwargs)
        return failing


@pytest.mark.parametrize("failing", ["uniform", "random"], ids=["values", "bits"])
def test_population_too_large_for_memory_exits_two(tmp_path, monkeypatch, capsys, failing):
    # this once ended in a MemoryError traceback and exit 1
    monkeypatch.setattr(np.random, "default_rng", functools.partial(OutOfMemory, failing))
    out = tmp_path / "report.json"
    cfg = write_config(tmp_path, "cfg.json", output={"path": str(out)},
                       population={**BASE_CONFIG["population"], "n": 2000,
                                   "values": {"dist": "uniform", "lo": 0, "hi": 10}})
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: cannot draw the population: Unable to allocate 16000 bytes\n")
    assert not out.exists()


def test_sweep_records_an_n_too_large_for_memory(tmp_path, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", functools.partial(OutOfMemory, "uniform"))
    out = tmp_path / "sweep.json"
    cfg = write_config(tmp_path, "cfg.json", output={"path": str(out)},
                       population={**BASE_CONFIG["population"],
                                   "values": {"dist": "uniform", "lo": 0, "hi": 10}},
                       sweep={"parameter": "n", "values": [4, 2000]})
    assert main(["sweep", str(cfg)]) == 0
    good, bad = read_report(out)["records"]
    assert good["error"] == ""
    assert bad == {"swept_value": 2000, "error": "cannot draw the population: "
                                                "Unable to allocate 16000 bytes"}


def test_sweep_records_an_undrawable_n(tmp_path):
    out = tmp_path / "sweep.json"
    cfg = write_config(tmp_path, "cfg.json", output={"path": str(out)},
                       population={**BASE_CONFIG["population"],
                                   "values": {"dist": "uniform", "lo": 0, "hi": 10}},
                       sweep={"parameter": "n", "values": [4, 10 ** 20]})
    assert main(["sweep", str(cfg)]) == 0
    good, bad = read_report(out)["records"]
    assert good["error"] == ""
    assert bad["swept_value"] == 10 ** 20
    assert bad["error"].startswith("cannot draw the population: ")


@pytest.mark.parametrize("param, value", [("n", 2.5), ("n", 4.0), ("seed", 2.7)])
def test_sweep_records_a_non_integer_value(tmp_path, param, value):
    # as a rejected q or n = 0 is, a swept n or seed that is not an integer
    # is that row's error, echoed as given
    out = tmp_path / "sweep.json"
    cfg = write_config(tmp_path, "cfg.json", output={"path": str(out)},
                       sweep={"parameter": param, "values": [4, value]})
    assert main(["sweep", str(cfg)]) == 0
    good, bad = read_report(out)["records"]
    assert good["error"] == "" and good["swept_value"] == 4
    assert bad == {"swept_value": value, "error": f"{param} must be an integer, got {value}"}


@pytest.mark.parametrize("param", ["n", "seed", "budget"])
@pytest.mark.parametrize("literal", ["1e400", "-Infinity", "NaN"])
def test_non_finite_swept_value_is_a_config_error(tmp_path, capsys, param, literal):
    # the report echoes every swept value, which JSON cannot hold; these
    # once exited 1 with a traceback
    cfg = write_literal(tmp_path, _mistyped(sweep={"parameter": param,
                                                   "values": [4, "@"]}), literal)
    assert main(["sweep", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: sweep values must be a non-empty list of finite numbers\n"


BEYOND_FLOAT = 10 ** 400
BEYOND_FLOAT_SHOWN = "100000000000000000...0000000000000000000"   # reprlib.repr's
SCENARIO_FIELDS = {"budget": {}, "alpha": {"scenario": "accuracy", "budget": None}}


@pytest.mark.parametrize("command", ["run", "verify", "sweep"])
@pytest.mark.parametrize("field", sorted(SCENARIO_FIELDS))
def test_scenario_field_beyond_float_is_a_config_error(tmp_path, capsys, command, field):
    # these once exited 1 (a property failure) with an OverflowError traceback
    cfg = write_config(tmp_path, "cfg.json", **SCENARIO_FIELDS[field],
                       **{field: BEYOND_FLOAT},
                       sweep={"parameter": "seed", "values": [1]})
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: {field} must be a number that a float holds, "
                   f"got {BEYOND_FLOAT_SHOWN}\n")


SWEPT_REAL_FIELDS = {
    "budget": ({}, 2.0),
    "alpha": ({"scenario": "accuracy", "budget": None, "alpha": 0.9}, 0.9),
    "q": ({}, 0.5),
    "threshold": ({"population": {**BASE_CONFIG["population"],
                                  "bits": {"model": "value_correlated", "threshold": 2}}},
                  3),
}


@pytest.mark.parametrize("param", sorted(SWEPT_REAL_FIELDS))
def test_swept_value_beyond_float_is_that_rows_error(tmp_path, param):
    # these once exited 1 with an OverflowError traceback
    fields, good = SWEPT_REAL_FIELDS[param]
    out = tmp_path / "sweep.json"
    cfg = write_config(tmp_path, "cfg.json", **fields, output={"path": str(out)},
                       sweep={"parameter": param, "values": [good, BEYOND_FLOAT]})
    assert main(["sweep", str(cfg)]) == 0
    ok, bad = read_report(out)["records"]
    assert ok["error"] == "" and ok["swept_value"] == good
    # the row echoes the value as given, and its error shortens it
    assert bad == {"swept_value": BEYOND_FLOAT,
                   "error": f"{param} must be a number that a float holds, got {BEYOND_FLOAT_SHOWN}"}


# what the file gives and what an option overrides (`main` applies it with
# `dataclasses.replace`, as `_sweep_config` applies a sweep point) pass the
# one check that `OPTIONAL_FIELDS` names for the field
MISTYPED_OPTIONAL = {
    "budget": ({}, "2"),
    "alpha": ({"scenario": "accuracy", "budget": None, "alpha": 0.9}, True),
    "trials": ({}, 2.5),
    "seed": ({}, "1"),
    "sweep": ({}, [1]),
    "clamp_estimates": ({}, 1),
    "negative_control": ({}, "false"),
}


@pytest.mark.parametrize("field", sorted(MISTYPED_OPTIONAL))
def test_optional_field_from_file_or_override_has_one_check(tmp_path, capsys, field):
    fields, bad = MISTYPED_OPTIONAL[field]
    config = ExperimentConfig.from_file(write_config(tmp_path, "ok.json", **fields))
    with pytest.raises(DomainError) as exc:
        dataclasses.replace(config, **{field: bad})
    cfg = write_config(tmp_path, "cfg.json", **{**fields, field: bad})
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {exc.value}\n"
    assert set(MISTYPED_OPTIONAL) == set(cli.OPTIONAL_FIELDS)


def test_trial_count_beyond_an_array_exits_two(tmp_path, capsys):
    # numpy refuses this size before it allocates anything; it once exited 1
    # with a ValueError traceback, in a run and in each sweep row
    cfg = write_config(tmp_path, "cfg.json", trials=10 ** 20)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot hold 100000000000000000000 trial estimates: ")
    assert err.count("\n") == 1
    out = tmp_path / "sweep.json"
    cfg = write_config(tmp_path, "cfg.json", output={"path": str(out)},
                       sweep={"parameter": "budget", "values": [1, 2]})
    assert main(["sweep", str(cfg), "--trials", str(10 ** 20)]) == 0
    errors = [rec["error"] for rec in read_report(out)["records"]]
    assert errors == [err[len("error: "):-1]] * 2


class NoRoomForTrials:
    """numpy, except that `empty` of more than 1000 numbers raises
    MemoryError, as numpy's does for a trial count too large for memory."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(n):
        if n > 1000:
            raise MemoryError(f"Unable to allocate {8 * n} bytes")
        return np.empty(n)


def test_trial_count_too_large_for_memory_exits_two(tmp_path, monkeypatch, capsys):
    # this once ended in a MemoryError traceback and exit 1
    monkeypatch.setattr(cli, "np", NoRoomForTrials())
    out = tmp_path / "report.json"
    cfg = write_config(tmp_path, "cfg.json", trials=2000, output={"path": str(out)})
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: cannot hold 2000 trial estimates: Unable to allocate 16000 bytes\n")
    assert not out.exists()


# --- sweep ------------------------------------------------------------------

def test_sweep_budget_monotone_k(tmp_path):
    out = tmp_path / "sweep.json"
    cfg = write_config(tmp_path, "cfg.json",
                       sweep={"parameter": "budget", "values": [0, 1, 2, 4, 8]},
                       output={"path": str(out)})
    assert main(["sweep", str(cfg)]) == 0
    ks = [rec["k"] for rec in read_report(out)["records"]]
    assert ks == sorted(ks)


def test_sweep_alpha_marks_unattainable_rows(tmp_path):
    out = tmp_path / "sweep.json"
    cfg = write_config(
        tmp_path, "cfg.json", scenario="accuracy", budget=None,
        alpha=0.5,
        population={"n": 5, "values": {"dist": "uniform", "lo": 0, "hi": 1},
                    "bits": {"model": "independent", "q": 0.5}, "seed": 0},
        sweep={"parameter": "alpha", "values": [0.9, 0.5, 0.1]},
        output={"path": str(out)})
    assert main(["sweep", str(cfg)]) == 0
    records = read_report(out)["records"]
    assert records[0]["error"] == "" and records[1]["error"] == ""
    assert "unattainable" in records[2]["error"]


def test_sweep_correlation_threshold_skews_estimates(tmp_path):
    # with value-correlated bits and a small budget, the winners' bits stop
    # being representative: the mean estimate error drifts monotonically as
    # the correlation threshold moves the true bit rate away from 1/2
    out = tmp_path / "sweep.json"
    cfg = write_config(
        tmp_path, "cfg.json", budget=1.0, trials=400,
        population={"n": 40, "values": {"dist": "uniform", "lo": 0, "hi": 10},
                    "bits": {"model": "value_correlated", "threshold": 5.0},
                    "seed": 3},
        sweep={"parameter": "threshold", "values": [0.0, 2.5, 5.0, 7.5, 10.0]},
        output={"path": str(out)})
    assert main(["sweep", str(cfg)]) == 0
    means = [rec["estimate_error_mean"] for rec in read_report(out)["records"]]
    assert means == sorted(means)
    assert means[0] < 0 < means[-1]


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = write_config(tmp_path, "cfg.json",
                       sweep={"parameter": "budget", "values": [1, 2]},
                       output={"path": str(out), "format": "csv"})
    assert main(["sweep", str(cfg)]) == 0
    raw = out.read_bytes()
    assert len(raw.splitlines()) == 3
    assert raw.count(b"\r\n") == 3  # RFC 4180 line endings


@pytest.mark.parametrize("param, values", [("q", [0.5, 2]), ("n", [6, 0])])
def test_sweep_records_a_rejected_population_value(tmp_path, param, values):
    # like a rejected budget, a swept value the population spec rejects
    # fails only its own row
    out = tmp_path / "sweep.json"
    cfg = write_config(tmp_path, "cfg.json",
                       population={"n": 6,
                                   "values": {"dist": "uniform", "lo": 0, "hi": 10},
                                   "bits": {"model": "independent", "q": 0.5},
                                   "seed": 0},
                       sweep={"parameter": param, "values": values},
                       output={"path": str(out)})
    assert main(["sweep", str(cfg)]) == 0
    good, bad = read_report(out)["records"]
    assert good["error"] == "" and good["swept_value"] == values[0]
    assert bad["swept_value"] == values[1] and bad["error"]


# --- verify -----------------------------------------------------------------

def test_verify_clean_suite_exits_zero(tmp_path):
    out = tmp_path / "verify.json"
    cfg = write_config(tmp_path, "cfg.json", trials=4,
                       population={"n": 6,
                                   "values": {"dist": "uniform", "lo": 0, "hi": 10},
                                   "bits": {"model": "independent", "q": 0.5},
                                   "seed": 0},
                       output={"path": str(out)})
    assert main(["verify", str(cfg)]) == 0
    report = read_report(out)
    assert all(rec["pass"] for rec in report["records"])


def test_verify_negative_control_exits_one(tmp_path):
    out = tmp_path / "verify.json"
    cfg = write_config(tmp_path, "cfg.json", trials=4, negative_control=True,
                       population={"n": 6,
                                   "values": {"dist": "uniform", "lo": 0, "hi": 10},
                                   "bits": {"model": "independent", "q": 0.5},
                                   "seed": 0},
                       output={"path": str(out)})
    assert main(["verify", str(cfg)]) == 1
    props = {rec["property"]: rec["pass"] for rec in read_report(out)["records"]}
    assert props["truthfulness"] is False


def test_verify_keeps_one_corpus_instance_alive(tmp_path, monkeypatch):
    # the corpus is drawn as the suite checks it, so memory does not grow
    # with trials x n
    from privauction import verify
    made, alive = [], []
    draw, check = cli._instance, verify.check_truthfulness

    def recorded(config):
        inst = draw(config)
        made.append(weakref.ref(inst))
        return inst

    def counted(mechanism, inst):
        alive.append(sum(ref() is not None for ref in made))
        return check(mechanism, inst)

    monkeypatch.setattr(cli, "_instance", recorded)
    monkeypatch.setattr(verify, "check_truthfulness", counted)
    cfg = write_config(tmp_path, "cfg.json", trials=4,
                       output={"path": str(tmp_path / "verify.json")})
    assert main(["verify", str(cfg)]) == 0
    assert alive == [1, 1, 1, 1]


def test_undrawable_verify_corpus_writes_no_report(tmp_path, capsys):
    out = tmp_path / "verify.json"
    cfg = write_config(tmp_path, "cfg.json", trials=3, output={"path": str(out)},
                       population={**BASE_CONFIG["population"],
                                   **UNDRAWABLE["range-overflows"]})
    assert main(["verify", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: cannot draw the population: ")
    assert captured.err.count("\n") == 1


def test_verify_payment_optimality_allows_one_ulp(tmp_path):
    # on instance 2 the mechanism's total 63676307.812320046 and the oracle's
    # 63676307.81232004 are one ulp (7.45e-9) apart, above an absolute 1e-9
    cfg = write_config(tmp_path, "cfg.json", scenario="accuracy", budget=None,
                       alpha=0.9, cost_family="exp_arg",
                       population={"n": 20,
                                   "values": {"dist": "lognormal", "mu": 6, "sigma": 3},
                                   "bits": {"model": "independent", "q": 0.5}},
                       output={"path": str(tmp_path / "verify.json")})
    assert main(["verify", str(cfg), "--seed", "1", "--trials", "5"]) == 0


# --- installed entry point --------------------------------------------------

def test_console_script(tmp_path):
    out = tmp_path / "report.json"
    cfg = write_config(tmp_path, "cfg.json", output={"path": str(out)})
    # the child imports the same package as this test, however pytest found it
    env = {**os.environ, "PYTHONPATH": str(Path(privauction.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "privauction.cli", "run", str(cfg)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert read_report(out)["records"][0]["k"] == 2


@pytest.mark.parametrize("bits, param", [
    ({"model": "value_correlated", "threshold": 2.0}, "q"),
    ({"model": "independent", "q": 0.5}, "threshold"),
], ids=["q-over-value-correlated", "threshold-over-independent"])
def test_sweep_of_a_field_the_bit_model_lacks_is_a_config_error(tmp_path, capsys, bits, param):
    # a swept q or threshold replaces that field of the config's own bits; a
    # sweep across bit models once ran one model and echoed the other
    out = tmp_path / "sweep.json"
    cfg = write_config(tmp_path, "cfg.json", output={"path": str(out)},
                       population={**BASE_CONFIG["population"], "bits": bits},
                       sweep={"parameter": param, "values": [0.5, 3.0]})
    assert main(["sweep", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"config error: sweep parameter {param!r} is not a field of the "
        f"{bits['model']!r} bit model\n")
    assert not out.exists()
