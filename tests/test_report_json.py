"""The report writer and the shared argument parser.

`cli._json` must give exactly what `json.dumps(v, indent=2, sort_keys=True,
allow_nan=False)` gives, and fail where it fails; a report's bytes must be
that layout of its own content. A report is rewritten in place, and a file
that is not regular is written as a stream. A report that cannot be written,
to a file or to stdout, exits 2 with one line. `cli.build_parser` is built
once per process and shared by every `main` call.
"""

import argparse
import errno
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import privauction
from privauction import cli
from privauction.cli import main


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


STRINGS = st.text() | st.sampled_from(['', '"', '\\', '"quoted"', '\x00\x1f\x7f',
                                       '\n\t\r', 'café', ' ', '\U0001f600'])
INTS = (st.integers() | st.booleans()   # and 300-digit ints of either sign
        | st.integers(min_value=10 ** 299, max_value=10 ** 300 - 1)
        | st.integers(min_value=1 - 10 ** 300, max_value=-10 ** 299))
FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
          | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
          | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e308,
                             1.7976931348623157e308, 0.1, 1e16, 1e-7]))
LEAVES = STRINGS | INTS | FLOATS | st.none()
VALUES = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(STRINGS, inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(VALUES)
@example([])
@example({"a": [], "b": {}, "c": ()})
@example([[], {}, (), [[]], {"x": {}}])
def test_writer_is_json_dumps(value):
    assert cli._json(value) == dumps(value)


@pytest.mark.parametrize("value, kind", [
    (float("nan"), ValueError), (float("inf"), ValueError), (-float("inf"), ValueError),
    (np.float64("nan"), ValueError), ([1.0, {"a": float("inf")}], ValueError),
    (np.int64(3), TypeError), ({"a": [np.int64(3)]}, TypeError), ({1, 2}, TypeError),
    (b"bytes", TypeError), ({"a": frozenset()}, TypeError),
], ids=repr)
def test_writer_fails_where_json_fails(value, kind):
    with pytest.raises(kind) as want:
        dumps(value)
    with pytest.raises(kind) as got:
        cli._json(value)
    assert str(got.value) == str(want.value)


# --- reports ----------------------------------------------------------------

POPULATION = {"n": 12, "values": {"dist": "uniform", "lo": 0, "hi": 10},
              "bits": {"model": "independent", "q": 0.5}, "seed": 3}
REPORTS = {
    "run": ("run", {"scenario": "budget", "budget": 20, "trials": 30}),
    "sweep": ("sweep", {"scenario": "accuracy", "alpha": 0.9, "trials": 5,
                        "sweep": {"parameter": "alpha", "values": [0.3, 0.9, 2]}}),
    "verify": ("verify", {"scenario": "budget", "budget": 20, "trials": 2}),
    "control-verify": ("verify", {"scenario": "budget", "budget": 20, "trials": 2,
                                  "negative_control": True}),
}


def write_config(tmp_path, **fields):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"population": POPULATION, "cost_family": "linear",
                               "seed": 5, **fields}))
    return cfg


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes_are_json_dumps_layout(tmp_path, name):
    command, fields = REPORTS[name]
    out = tmp_path / "report.json"
    main([command, str(write_config(tmp_path, **fields)), "--output", str(out)])
    body = out.read_bytes()
    assert body == (json.dumps(json.loads(body), indent=2, sort_keys=True) + "\n").encode()


# --- writing the report ----------------------------------------------------

@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("first, second", [("control-verify", "run"), ("run", "control-verify")],
                         ids=["shorter-over-longer", "longer-over-shorter"])
def test_rewrite_leaves_exactly_the_new_bytes(tmp_path, fmt, first, second):
    def write(name, out):
        command, fields = REPORTS[name]
        assert main([command, str(write_config(tmp_path, **fields)), "--format", fmt,
                     "--output", str(out)]) in (0, 1)   # the control fails its checks

    fresh, out = tmp_path / "fresh.out", tmp_path / "report.out"
    write(second, fresh)
    write(first, out)
    os.chmod(out, 0o640)
    before = os.stat(out)
    assert before.st_size != fresh.stat().st_size
    write(second, out)
    after = os.stat(out)
    assert out.read_bytes() == fresh.read_bytes()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)


def test_device_is_written_and_never_cut(tmp_path):
    cfg = write_config(tmp_path, **REPORTS["run"][1])
    assert main(["run", str(cfg), "--output", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_fifo_is_written_as_a_stream(tmp_path):
    cfg = write_config(tmp_path, **REPORTS["run"][1])
    fifo, expected = tmp_path / "report.fifo", tmp_path / "report.json"
    assert main(["run", str(cfg), "--output", str(expected)]) == 0
    os.mkfifo(fifo)
    got = []

    def read():
        with open(fifo, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert main(["run", str(cfg), "--output", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [expected.read_bytes()]


def test_failed_write_exits_two_and_closes_the_file(tmp_path, capsys):
    # /dev/full opens as any file and fails every write with ENOSPC, so the
    # output path alone puts the writer on a full disk
    fds, out = "/proc/self/fd", "/dev/full"
    if not (os.path.isdir(fds) and os.path.exists(out)):
        pytest.skip("no /proc/self/fd to count open descriptors, or no /dev/full")
    cfg = write_config(tmp_path, **REPORTS["run"][1])
    open_before = len(os.listdir(fds))
    assert main(["run", str(cfg), "--output", str(out)]) == 2
    assert len(os.listdir(fds)) == open_before
    assert capsys.readouterr().err == (f"error: cannot write report {out}: "
                                       f"{os.strerror(errno.ENOSPC)}\n")


class FullStream:
    """A stdout on a full disk: `write` or `flush` raises ENOSPC."""

    def __init__(self, failing):
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return len(text)

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_failed_stdout_write_exits_two_in_process(tmp_path, monkeypatch, capsys, failing):
    cfg = write_config(tmp_path, **REPORTS["run"][1])
    monkeypatch.setattr(sys, "stdout", FullStream(failing))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"error: cannot write report to stdout: "
                                       f"{os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_report_to_a_full_stdout_exits_two_with_one_line(tmp_path, fmt, unbuffered):
    # the small CSV report stays in stdout's buffer until the flush; without
    # a discarded descriptor the interpreter's own flush at exit fails again
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(privauction.__file__).parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    cfg = write_config(tmp_path, **REPORTS["run"][1])
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "privauction.cli", "run", str(cfg),
                               "--format", fmt], stdout=full, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (
        2, f"error: cannot write report to stdout: {os.strerror(errno.ENOSPC)}\n")


# --- the shared parser ------------------------------------------------------

def test_options_of_one_call_do_not_reach_the_next(tmp_path):
    cfg = write_config(tmp_path, **REPORTS["run"][1])
    first, second, fresh = (tmp_path / f"{name}.out" for name in ("first", "second", "fresh"))
    assert main(["run", str(cfg), "--clamp", "--format", "csv", "--output", str(first)]) == 0
    assert main(["run", str(cfg), "--output", str(second)]) == 0
    # a fresh process builds its own parser
    env = {**os.environ, "PYTHONPATH": str(Path(privauction.__file__).parent.parent)}
    subprocess.run([sys.executable, "-m", "privauction.cli", "run", str(cfg),
                    "--output", str(fresh)], check=True, env=env)
    assert first.read_bytes().startswith(b"accuracy_bound,")
    assert second.read_bytes() == fresh.read_bytes()
    assert json.loads(second.read_bytes())["config"]["clamp_estimates"] is False


def test_bad_flag_after_a_good_call_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, **REPORTS["run"][1])
    assert main(["run", str(cfg), "--output", str(tmp_path / "r.json")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg), "--no-such-flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err


def test_parser_is_built_once(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        cfg = write_config(tmp_path, **REPORTS["run"][1])
        for seed in ("1", "2", "3"):
            assert main(["run", str(cfg), "--seed", seed,
                         "--output", str(tmp_path / "r.json")]) == 0
        assert len(built) == 1 and cli.build_parser() is built[0]
    finally:
        cli.build_parser.cache_clear()
