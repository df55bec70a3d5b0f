"""privauction benchmark: end-to-end and per-layer metrics of the CLI.

    python3 bench/run.py --workload mc_run --seed 0 --seconds 40 --trace 0

Writes the workload's configs from the seed, runs its commands through
`privauction.cli.main` in fresh single-threaded child processes, one at a
time, and checks every report.  The last line of standard output is one
JSON object: `correct`, `attempted` and `failed` (commands), and `metrics`,
which are the end-to-end metrics with --trace 0 and the per-layer metrics
of a traced run with --trace 1.  The line before it is an info object with
the environment block, sample counts and `fail_share`.  Exits 2 without a
result when the benchmark cannot run, e.g. when `src/privauction` is absent.
See NOTES.md for the metrics, workloads and baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import REFERENCE_S
from tracer import LAYER_UNITS, median_metrics
from workloads import DEFAULT_SEED, WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEADLINE_S = 170.0    # the measuring child, its set-up interpreters included
# name -> unit; items are Monte Carlo trials, or instances through the full suite
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MB"}
ITEM_NAMES = {"mc_run": "trials_per_s", "sweep_n": "trials_per_s",
              "verify_corpus": "instances_per_s"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child(argv: list) -> dict:
    """Run child.py with `argv`; its set-up interpreters share its process group."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PRIVAUCTION_THREADS", "PYTHONPATH")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {argv[0]} timed out after {DEADLINE_S:.0f} s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"child {argv[0]} exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit():
    """HEAD of the checkout's own .git, if it has one; git searches no further."""
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def summary(values: list) -> dict:
    out = {"median": statistics.median(values), "min": min(values),
           "max": max(values), "samples": len(values), "values": values}
    if len(values) >= 100:   # at least 10 samples beyond the 90th percentile
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def median_pass(walls: list) -> float:
    """A pass with every command at its median time: the sum of per-command medians.

    `walls` holds one list of per-command times for each pass.
    """
    return sum(map(statistics.median, zip(*walls)))


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path, info: dict) -> tuple:
    """Times at the reference speed: measured x REFERENCE_S / calibration (calibrate.py)."""
    res = child(["measure", workload, str(seed), str(workdir), str(seconds)])
    setups = res["setups"]
    items = sum(cmd.items for cmd in WORKLOADS[workload](seed))
    calibration = median_pass(res["calibration"])
    scale = REFERENCE_S / calibration
    wall = median_pass(res["walls"]) * scale
    info["env"]["numpy"] = res["numpy"]
    info.update(setup_s=summary(setups), pass_s=summary(list(map(sum, res["walls"]))),
                median_pass_s=wall / scale, speed_scale=scale, problems=res["problems"],
                calibration_s={"value": calibration, "samples": len(res["calibration"])})
    info[ITEM_NAMES[workload]] = {"value": items / wall, "unit": "1/s"}
    values = {"setup_s": statistics.median(setups) * scale, "wall_s": wall,
              "items_per_s": items / wall, "peak_rss_mb": res["peak_rss_mb"]}
    return res, {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def per_layer(workload: str, seed: int, seconds: float, workdir: Path, info: dict) -> tuple:
    res = child(["trace", workload, str(seed), str(workdir), str(seconds)])
    untraced = median_pass(res["walls"])
    traced = median_pass(res["traced_walls"])
    layers = median_metrics(res["layers"])
    layers["trace_overhead_share"] = (traced - untraced) / untraced
    info["env"]["numpy"] = res["numpy"]
    info.update(pass_s=summary(list(map(sum, res["walls"]))),
                traced_pass_s=summary(list(map(sum, res["traced_walls"]))),
                counts_repeat=res["counts_repeat"], problems=res["problems"],
                spans=str((workdir / "spans.tsv").relative_to(ROOT)))
    if not res["counts_repeat"]:
        res["failed"] = max(res["failed"], 1)
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    return res, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    info = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "env": environment(args.seed)}
    workdir = OUT / args.workload
    write_configs(WORKLOADS[args.workload](args.seed), workdir)
    measure = per_layer if args.trace else end_to_end
    try:
        res, metrics = measure(args.workload, args.seed, args.seconds, workdir, info)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    info["env"]["loadavg_end"] = os.getloadavg()
    info["fail_share"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
