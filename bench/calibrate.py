"""Machine-speed calibration: fixed work that never calls the program.

The benchmark machine shares its cores with other machines, and for minutes
at a time it runs the same code up to twice as slowly (NOTES.md, "Noise on
this machine").  The measuring child times these units between passes, and
run.py reports times at the reference speed: a median time measured in a
run is multiplied by REFERENCE_S / the run's calibration time (the sum of
the units' median times), so the share of slow stretches in the run divides
out.  The units mix numpy work on arrays of 10^4 elements with dict, json
and frozenset work in the interpreter, because that mix slowed down most
like the program did.
"""

import json
import time

import numpy as np

# Calibration time at full speed on the baseline machine, a 2-core Intel Xeon
# virtual machine at 2.0 GHz, python 3.11.7, numpy 2.4.6: the sum of the
# units' fastest times in a quiet minute.  It fixes the scale only, so that
# a reported time reads as the wall time the machine gives at full speed.
REFERENCE_S = 0.0073

_DOC = {"rows": [list(range(50)) for _ in range(20)],
        "weights": {str(i): i * 0.5 for i in range(200)}}


def numpy_unit() -> None:
    for seed in range(2):
        values = np.random.Generator(np.random.Philox(seed)).random(10_000)
        order = np.argsort(values)
        frozenset(order[:9_000].tolist())
        {int(i): float(values[i]) for i in order[::3]}
        int((np.cumsum(values[order]) > 10.0).sum())


def python_unit() -> None:
    for _ in range(10):
        doc = json.loads(json.dumps(_DOC))
        sorted(doc["weights"].items(), key=lambda kv: -kv[1])
        [frozenset(row) for row in doc["rows"]]


UNITS = (numpy_unit, python_unit)


def sample() -> list:
    """Wall time of each unit, run once."""
    times = []
    for unit in UNITS:
        t = time.perf_counter()
        unit()
        times.append(time.perf_counter() - t)
    return times
