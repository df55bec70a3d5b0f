"""Differential-privacy primitives: Laplace noise and the noisy-sum
estimator.

Random streams are explicit `numpy.random.Generator` values passed in, never
global.  Monte Carlo runs derive one stream per trial from (seed, trial) via
a counter-based bit generator, so results do not depend on the order in
which trials run; a run repositions one generator to each trial's counter
rather than building a generator per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .core import Allocation, DomainError, Population, _check_integer, _check_real

#: ln 3, the tail threshold multiplier at which the two-sided Laplace tail
#: mass is exactly 1/3.
LN3 = math.log(3.0)

#: Accuracy constant of the noisy-sum estimator: with |H| = (1-a)n winners it
#: is (1/2 + ln 3) * a * n accurate.
ACCURACY_CONST = 0.5 + LN3


def _check_scale(scale: float) -> float:
    scale = _check_real("Laplace scale", scale)
    if not math.isfinite(scale) or scale <= 0:
        raise DomainError(f"Laplace scale must be positive and finite, got {scale!r}")
    return scale


#: What a zero uniform draw is read as: 2**-53, the smallest nonzero value
#: `Generator.random` returns, where the transform below is still finite.
_SMALLEST_U = 2.0 ** -53


def _laplace(u: float, scale: float) -> float:
    """Laplace(scale) from one uniform u by inverse CDF,
    x = -scale * sign(u - 1/2) * ln(1 - 2|u - 1/2|), with u == 0 read as
    `_SMALLEST_U`.  The scale is not checked here."""
    half = (u or _SMALLEST_U) - 0.5
    sign = (half > 0) - (half < 0)
    # np.log1p, not math.log1p, which differs in the last ulp on some inputs
    # that seeded draws reach; Python floats then multiply as float64 does
    return -scale * sign * float(np.log1p(-2.0 * abs(half)))


def lap_sample(scale: float, rng: np.random.Generator) -> float:
    """One draw from the zero-mean Laplace distribution with the given
    scale: `_laplace` of one uniform draw, taken after the scale is checked."""
    scale = _check_scale(scale)
    return _laplace(rng.random(), scale)


# ---------------------------------------------------------------------------
# The noisy-sum estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EstimatorPlan:
    """The noisy sum over a one-row allocation's winners, all but its noise.

    The estimate is `noiseless` + Laplace(noise_scale), where noiseless =
    the winners' bit sum + offset, noise_scale = n - k and offset =
    noise_scale / 2, each computed here once.  With no winners it is n/2 +
    Laplace(n).  The `Allocation` has checked its winners; the plan rejects
    one that is not a single row over the population's n agents.
    """

    pop: Population = field(repr=False)
    allocation: Allocation = field(repr=False)
    noise_scale: float = field(init=False)
    offset: float = field(init=False)
    noiseless: float = field(init=False)

    def __post_init__(self):
        won = self.allocation.won
        if won.shape != (1, self.pop.n):
            raise DomainError("estimator plan needs a one-row allocation over the n agents")
        noise_scale = _check_scale(self.pop.n - self.allocation.k[0])
        offset = noise_scale / 2.0
        for name, value in (("noise_scale", noise_scale), ("offset", offset),
                            ("noiseless", float(self.pop.bits[won[0]].sum()) + offset)):
            object.__setattr__(self, name, value)


def laplace_estimator(plan: EstimatorPlan, rng: np.random.Generator) -> float:
    """Noisy sum over the plan's winner set: winners' bit sum + offset +
    Laplace(noise_scale)."""
    return plan.noiseless + _laplace(rng.random(), plan.noise_scale)


# ---------------------------------------------------------------------------
# Reproducible per-trial streams
# ---------------------------------------------------------------------------

class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Hands Philox the key [key, 0] as its seed sequence.

    `Philox(key=...)` first builds a `SeedSequence` from OS entropy and then
    discards it; a seed sequence that returns the key itself gives the same
    generator without that cost.
    """

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array([self.key, 0], dtype=np.uint64)


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """Independent random stream for one Monte Carlo trial.

    Counter-based: Philox keyed by the master seed (mod 2**64) with the trial
    index in the counter's high word, so streams never overlap and
    derivation does not depend on execution order.  Both arguments must be
    integers, not bools.
    """
    key = int(_check_integer("seed", seed)) & ((1 << 64) - 1)
    if _check_integer("trial index", trial) < 0:
        raise DomainError("trial index must be >= 0")
    bitgen = np.random.Philox(_PhiloxKey(key), counter=[0, 0, 0, int(trial)])
    return np.random.Generator(bitgen)


def _trial_streams(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """`trial_stream(seed, t)` for t in 0..trials-1, as one Generator
    repositioned before each trial.

    Each yielded stream is in exactly `trial_stream(seed, t)`'s state, however
    many values the previous trial drew, and is valid only until the next one
    is taken.  Assigning a Philox state copies the counter, the key, the
    4-word buffer, `buffer_pos` and the kept half word into the bit generator,
    so only the counter's trial word changes between trials.
    """
    rng = trial_stream(seed, 0)
    bitgen = rng.bit_generator
    state = bitgen.state
    # plain ints: the setter reads each word by index, cheaper on a list
    words = state["state"]
    counter = words["counter"] = words["counter"].tolist()
    words["key"] = words["key"].tolist()
    state["buffer"] = state["buffer"].tolist()
    for t in range(trials):
        counter[3] = t
        bitgen.state = state
        yield rng


def trial_estimates(plan: EstimatorPlan, seed: int, trials: int) -> np.ndarray:
    """The plan's estimate in each of trials 0..trials-1, trial t drawn from
    `trial_stream(seed, t)`'s stream, handed over by `_trial_streams`.

    Payments and privacy levels are deterministic, so a mechanism run with
    that stream returns the same estimate; callers allocate once and draw
    only the noise per trial.  `DomainError` unless `trials` is an integer
    >= 0.
    """
    if _check_integer("trials", trials) < 0:
        raise DomainError("trials must be >= 0")
    noiseless, scale = plan.noiseless, plan.noise_scale
    return np.array([noiseless + _laplace(rng.random(), scale)
                     for rng in _trial_streams(seed, trials)])
