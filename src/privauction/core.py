"""Domain types: populations, cost-function families, mechanism outcomes.

All types are immutable after construction and all operations are pure
given explicit seeds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

#: Absolute tolerance for equality comparisons on real quantities.
TOL = 1e-9


class DomainError(ValueError):
    """An input lies outside the domain of an operation."""


# ---------------------------------------------------------------------------
# Cost-function families
# ---------------------------------------------------------------------------

class CostFamily(enum.Enum):
    """Single-parameter cost families c(v, eps), normalized so c(v, 0) = 0.

    All four families admit a total ordering independent of eps: for any
    eps > 0, c(v, eps) <= c(v', eps) iff v <= v'.
    """

    LINEAR = "linear"          # v * eps
    QUADRATIC = "quadratic"    # v * eps**2
    EXP_SCALED = "exp_scaled"  # (e**eps - 1) * v
    EXP_ARG = "exp_arg"        # e**(eps * v) - 1


ALL_FAMILIES = tuple(CostFamily)


def _check_nonneg_finite(name: str, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite, got {x!r}")
    if (arr < 0).any():
        raise DomainError(f"{name} must be >= 0, got {x!r}")
    return arr


def cost_eval(family: CostFamily, v, eps):
    """Privacy cost c(v, eps) of an agent with parameter v at privacy level eps.

    Accepts scalars or numpy arrays (broadcasting); returns the same shape.
    """
    v = _check_nonneg_finite("v", v)
    eps = _check_nonneg_finite("eps", eps)
    if family is CostFamily.LINEAR:
        out = v * eps
    elif family is CostFamily.QUADRATIC:
        out = v * eps ** 2
    elif family is CostFamily.EXP_SCALED:
        out = np.expm1(eps) * v
    elif family is CostFamily.EXP_ARG:
        out = np.expm1(eps * v)
    else:  # pragma: no cover
        raise DomainError(f"unknown cost family {family!r}")
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Populations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Population:
    """A population of n agents: private bits b_i and privacy valuations v_i."""

    bits: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.int64)
        values = np.asarray(self.values, dtype=float)
        if bits.ndim != 1 or values.ndim != 1 or bits.shape != values.shape:
            raise DomainError("bits and values must be 1-d vectors of equal length")
        if bits.size < 1:
            raise DomainError("population must have n >= 1")
        if not np.all((bits == 0) | (bits == 1)):
            raise DomainError("bits must be 0/1")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise DomainError("values must be finite and >= 0")
        bits.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.bits.size

    @property
    def total(self) -> int:
        """The population statistic s = sum of private bits."""
        return int(self.bits.sum())

    def with_values(self, values) -> "Population":
        """Same bits, different reported valuations (one misreported profile)."""
        return Population(bits=self.bits, values=np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# Population specs (for reproducible experiment generation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformValues:
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.lo > self.hi:
            raise DomainError("uniform values require finite lo <= hi")


@dataclass(frozen=True)
class LogNormalValues:
    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)) or self.sigma < 0:
            raise DomainError("lognormal values require finite mu and sigma >= 0")


@dataclass(frozen=True)
class PointValues:
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(float(p) for p in self.points))
        _check_nonneg_finite("points", np.asarray(self.points))


@dataclass(frozen=True)
class IndependentBits:
    q: float

    def __post_init__(self):
        if not (0.0 <= self.q <= 1.0):
            raise DomainError("bit probability q must lie in [0, 1]")


@dataclass(frozen=True)
class CorrelatedBits:
    """b_i = 1 iff v_i >= threshold; models value/data correlation."""

    threshold: float

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise DomainError("threshold must be finite")


ValueDistribution = Union[UniformValues, LogNormalValues, PointValues]
BitModel = Union[IndependentBits, CorrelatedBits]


@dataclass(frozen=True)
class PopulationSpec:
    n: int
    values: ValueDistribution
    bits: BitModel
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if isinstance(self.values, PointValues) and len(self.values.points) != self.n:
            raise DomainError("point-mass value list length must equal n")

    def to_dict(self) -> dict:
        if isinstance(self.values, UniformValues):
            values = {"dist": "uniform", "lo": self.values.lo, "hi": self.values.hi}
        elif isinstance(self.values, LogNormalValues):
            values = {"dist": "lognormal", "mu": self.values.mu, "sigma": self.values.sigma}
        else:
            values = {"dist": "point", "points": list(self.values.points)}
        if isinstance(self.bits, IndependentBits):
            bits = {"model": "independent", "q": self.bits.q}
        else:
            bits = {"model": "value_correlated", "threshold": self.bits.threshold}
        return {"n": self.n, "values": values, "bits": bits, "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "PopulationSpec":
        try:
            vd = d["values"]
            dist = vd["dist"]
            if dist == "uniform":
                values = UniformValues(lo=float(vd["lo"]), hi=float(vd["hi"]))
            elif dist == "lognormal":
                values = LogNormalValues(mu=float(vd["mu"]), sigma=float(vd["sigma"]))
            elif dist == "point":
                values = PointValues(points=tuple(vd["points"]))
            else:
                raise DomainError(f"unknown value distribution {dist!r}")
            bd = d["bits"]
            model = bd["model"]
            if model == "independent":
                bits = IndependentBits(q=float(bd["q"]))
            elif model == "value_correlated":
                bits = CorrelatedBits(threshold=float(bd["threshold"]))
            else:
                raise DomainError(f"unknown bit model {model!r}")
            return cls(n=int(d["n"]), values=values, bits=bits, seed=int(d.get("seed", 0)))
        except KeyError as exc:
            raise DomainError(f"population spec missing field {exc}") from exc
        except TypeError as exc:   # e.g. a list where an object belongs
            raise DomainError(f"population spec has a field of the wrong type: {exc}") from exc


def generate_population(spec: PopulationSpec) -> Population:
    """Draw a Population from the spec. Deterministic given the seed."""
    rng = np.random.default_rng(spec.seed)
    if isinstance(spec.values, UniformValues):
        values = rng.uniform(spec.values.lo, spec.values.hi, size=spec.n)
    elif isinstance(spec.values, LogNormalValues):
        values = rng.lognormal(spec.values.mu, spec.values.sigma, size=spec.n)
    else:
        values = np.asarray(spec.values.points, dtype=float)
    if isinstance(spec.bits, IndependentBits):
        bits = (rng.random(spec.n) < spec.bits.q).astype(np.int64)
    else:
        bits = (values >= spec.bits.threshold).astype(np.int64)
    return Population(bits=bits, values=values)


# ---------------------------------------------------------------------------
# Mechanism outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MechanismOutcome:
    """What a mechanism run produced: estimate, payments, privacy levels.

    Payments and privacy levels are per original agent index.  The analyst
    charge covers the payments (here always exactly their sum).
    """

    estimate: float
    payments: np.ndarray
    epsilons: np.ndarray
    analyst_charge: float
    winners: frozenset
    noise_scale: Optional[float] = None

    def __post_init__(self):
        payments = np.asarray(self.payments, dtype=float)
        epsilons = np.asarray(self.epsilons, dtype=float)
        if payments.shape != epsilons.shape or payments.ndim != 1:
            raise DomainError("payments and epsilons must be 1-d and equal length")
        if not (np.isfinite(payments).all() and math.isfinite(self.analyst_charge)):
            raise DomainError("payments and analyst charge must be finite "
                              "(a cost overflowed)")
        if (payments < 0).any() or (epsilons < 0).any():
            raise DomainError("payments and epsilons must be >= 0")
        total = payments.sum()
        # relative tolerance: exponential cost families can reach magnitudes
        # where a 1e-9 absolute slack is below one ulp of the sum
        if self.analyst_charge < total - TOL * max(1.0, abs(total)):
            raise DomainError("analyst charge must cover the payments")
        loser_mask = np.ones(payments.size, dtype=bool)
        winner_idx = np.fromiter(self.winners, dtype=np.intp, count=len(self.winners))
        if winner_idx.size and (winner_idx.min() < 0 or winner_idx.max() >= payments.size):
            raise DomainError("winner indices out of range")
        loser_mask[winner_idx] = False
        if (epsilons[loser_mask] != 0.0).any():
            raise DomainError("non-winners must have eps = 0")
        if self.noise_scale is not None and self.noise_scale <= 0:
            raise DomainError("noise scale must be positive when present")
        payments.setflags(write=False)
        epsilons.setflags(write=False)
        object.__setattr__(self, "payments", payments)
        object.__setattr__(self, "epsilons", epsilons)
        object.__setattr__(self, "winners", frozenset(winner_idx.tolist()))

    @property
    def total_payment(self) -> float:
        return float(self.payments.sum())

    @property
    def winner_count(self) -> int:
        return len(self.winners)
