"""One benchmark child process: timed set-up, or timed passes of a workload.

run.py starts each child in a fresh interpreter, one at a time.  A child
prints one JSON object as its last line of standard output.

    child.py setup   WORKLOAD SEED WORKDIR
    child.py measure WORKLOAD SEED WORKDIR SECONDS   untraced passes, with set-ups in
                                                     fresh interpreters and calibration
                                                     samples between them
    child.py trace   WORKLOAD SEED WORKDIR SECONDS   untraced and traced passes, alternating
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any other import

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(1, str(SRC))

from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 10      # untraced passes in measure mode, so each command's median is one of many
SETUP_SHARE = 0.25   # measure mode: share of the time given to set-ups, spread over the window
CAL_SHARE = 0.10     # measure mode: share of the time given to calibration samples, likewise


def import_program():
    """Import privauction from this checkout's sources, and from nowhere else."""
    import privauction
    found = Path(privauction.__file__).resolve().parent.parent
    if found != SRC:
        raise SystemExit(f"privauction imported from {found}, expected {SRC}")


def setup(commands, workdir: Path) -> dict:
    """Import the program, load and validate the configs, generate populations."""
    import_program()
    from privauction import generate_population
    from privauction.cli import ExperimentConfig
    for cmd in commands:
        config = ExperimentConfig.from_file(str(workdir / f"{cmd.label}.json"))
        spec = config.population
        if cmd.verb == "verify":
            specs = [dataclasses.replace(spec, seed=config.seed + i)
                     for i in range(config.trials)]
        elif cmd.verb == "sweep":
            specs = [dataclasses.replace(spec, n=int(v)) for v in config.sweep["values"]]
        else:
            specs = [spec]
        for s in specs:
            generate_population(s)
    return {"setup_s": time.perf_counter() - T0}


def timed_setup(workload: str, seed: int, workdir: Path) -> float:
    """`setup` in a fresh interpreter, while this process waits."""
    proc = subprocess.run([sys.executable, __file__, "setup", workload, str(seed), str(workdir)],
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_pass(cli, commands, workdir: Path, tracer=None):
    """Run every command of the workload once.

    Returns (wall time of each command, exit codes, reports).
    """
    argvs = [cmd.argv(str(workdir / f"{cmd.label}.json"), str(workdir / f"{cmd.label}.report"))
             for cmd in commands]
    walls, codes = [], []
    with contextlib.nullcontext() if tracer is None else tracer.installed():
        for argv in argvs:
            t = time.perf_counter()
            codes.append(cli.main(argv))
            walls.append(time.perf_counter() - t)
    reports = [(workdir / f"{cmd.label}.report").read_bytes() for cmd in commands]
    return walls, codes, reports


def passes(workload: str, seed: int, workdir: Path, seconds: float, traced: bool) -> dict:
    """Run passes until the next one would end after `seconds`.

    Untraced mode runs at least MIN_PASSES; after a pass it runs a timed
    set-up whenever set-ups have had less than SETUP_SHARE of the time so
    far, then calibration samples until they have had CAL_SHARE of it.
    Traced mode alternates untraced and traced passes, at least one of each.
    """
    import numpy as np
    import_program()
    from privauction import cli

    import calibrate
    from checks import Ledger
    from tracer import Tracer, layer_metrics

    commands = WORKLOADS[workload](seed)
    ledger = Ledger(seed)
    walls = {False: [], True: []}
    setups, setup_time, setup_last = [], 0.0, 0.0
    calibration, cal_time = [], 0.0
    layers = []
    last_traced = None
    start = time.perf_counter()
    while True:
        kind = traced and len(walls[True]) < len(walls[False])
        tracer = None
        if kind:
            last_traced = None  # keep one pass's spans in memory, not two
            tracer = Tracer()
        wall, codes, reports = run_pass(cli, commands, workdir, tracer)
        walls[kind].append(wall)  # one time per command
        for cmd, code, report in zip(commands, codes, reports):
            ledger.record(cmd, code, report)
        if kind:
            layers.append(layer_metrics(tracer))
            last_traced = tracer
        if not traced and setup_time < SETUP_SHARE * (time.perf_counter() - start):
            t = time.perf_counter()
            setups.append(timed_setup(workload, seed, workdir))
            setup_last = time.perf_counter() - t
            setup_time += setup_last
        while not traced and cal_time < CAL_SHARE * (time.perf_counter() - start):
            calibration.append(calibrate.sample())
            cal_time += sum(calibration[-1])
        enough = (min(len(walls[False]), len(walls[True])) >= 1 if traced
                  else len(walls[False]) >= MIN_PASSES)
        next_kind = traced and len(walls[True]) < len(walls[False])
        estimate = statistics.median(map(sum, walls[next_kind] or walls[not next_kind]))
        estimate += setup_last
        if enough and time.perf_counter() - start + estimate > seconds:
            break
    if last_traced is not None:
        last_traced.write_tsv(workdir / "spans.tsv")
    counts = [{k: v for k, v in m.items() if k.endswith((".calls", ".draws"))} for m in layers]
    return {
        "walls": walls[False],
        "setups": setups,
        "calibration": calibration,
        "traced_walls": walls[True],
        "layers": layers,
        "counts_repeat": all(c == counts[0] for c in counts),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    }


def main(argv) -> None:
    mode, workload, seed, workdir = argv[:4]
    seed, workdir = int(seed), Path(workdir)
    if mode == "setup":
        result = setup(WORKLOADS[workload](seed), workdir)
    else:
        result = passes(workload, seed, workdir, float(argv[4]), traced=mode == "trace")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
