"""Domain types: populations, cost-function families, allocations and
mechanism outcomes.

All types but the per-trial `MechanismOutcome` (slotted, not frozen: ~0.3 us
less a trial) are immutable; all operations are pure given explicit seeds.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

#: Absolute tolerance for equality comparisons on real quantities.
TOL = 1e-9

#: The error for payments that are not >= 0 or whose total is not finite.
_OVERFLOW = "payments and their total must be finite, payments >= 0 (a cost overflowed)"


def _tolerance(reference):
    """TOL relative to a reference magnitude (elementwise on arrays): above
    ~1e7 an absolute 1e-9 is below one ulp.  Comparisons against it are
    written so that NaN reads as a violation."""
    return TOL * np.maximum(1.0, np.abs(reference))


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
    """`x` as a float array; `DomainError` unless every entry is a number
    (`_check_real`) and finite and >= 0.

    Integers, floats and arrays of them are cast whole.  Anything else (a
    bool, a string, an integer beyond int64, or an array of such) is cast
    entry by entry, so that a bool, a string or an integer beyond a float
    is refused, not read as a number.  NaN propagates through both
    reductions, so `min >= 0 and max < inf` rejects exactly NaN, +-inf and
    negatives; an empty array passes.
    """
    if type(x) is float:
        if not 0.0 <= x < math.inf:
            raise DomainError(f"{name} must be finite and >= 0")
        return np.asarray(x)
    arr = np.asarray(x)
    if arr.dtype.kind not in "iuf":
        arr = np.array([_check_real(name, e) for e in arr.ravel().tolist()],
                       dtype=float).reshape(arr.shape)
    arr = arr.astype(float, copy=False)
    if arr.size and not (np.minimum.reduce(arr, axis=None) >= 0.0
                         and np.maximum.reduce(arr, axis=None) < math.inf):
        raise DomainError(f"{name} must be finite and >= 0")
    return arr


def _check_integer(name: str, x):
    """`x` unchanged; `DomainError` unless it is an integer (not a bool, and
    not an integral float, string or NaN). The message shortens `x` with
    `reprlib.repr`, so a 400-digit value does not fill it."""
    if not isinstance(x, numbers.Integral) or isinstance(x, bool):
        raise DomainError(f"{name} must be an integer, got {reprlib.repr(x)}")
    return x


def _check_real(name: str, x) -> float:
    """`x` as a float; `DomainError` unless it is a number (not a bool or a
    string) that a float holds. The message shortens `x` as `_check_integer`
    does."""
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:   # an integer beyond 1.8e308
            pass
    raise DomainError(f"{name} must be a number that a float holds, got {reprlib.repr(x)}")


def _check_fraction(name: str, x) -> float:
    """`x` as a float; `DomainError` unless it is a number (`_check_real`)
    strictly between 0 and 1."""
    x = _check_real(name, x)
    if not 0.0 < x < 1.0:
        raise DomainError(f"{name} must lie in (0, 1)")
    return x


def _check_bool(name: str, x) -> bool:
    """`x` unchanged; `DomainError` unless it is true or false (not 0, 1 or
    the string "false"). The message shortens `x` as `_check_integer` does."""
    if not isinstance(x, bool):
        raise DomainError(f"{name} must be true or false, got {reprlib.repr(x)}")
    return x


def _check_object(name: str, x) -> Mapping:
    """`x` unchanged; `DomainError` unless it is an object (a mapping)."""
    if not isinstance(x, Mapping):
        raise DomainError(f"{name} must be an object, got {reprlib.repr(x)}")
    return x


def cost_eval(family: CostFamily, v, eps):
    """Privacy cost c(v, eps) of an agent with parameter v at privacy level eps.

    Accepts scalars or numpy arrays (broadcasting); returns the same shape.
    A cost too large for a float is inf, without a warning.
    """
    return _cost(family, _check_nonneg_finite("v", v), _check_nonneg_finite("eps", eps))


def _cost(family: CostFamily, v: np.ndarray, eps: np.ndarray):
    """`cost_eval` on float arrays already checked where they entered."""
    # An inf cost is the right operand for every caller: it ranks its agent
    # last, fails every budget test and gives her -inf utility, and
    # `Allocation` rejects it as a price or payment, so numpy's overflow
    # warning would only be noise.
    with np.errstate(over="ignore"):
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
        # checked before the cast, which would truncate 0.5 to 0 and reject a
        # NaN with numpy's own error
        bits = np.asarray(self.bits)
        if not ((bits == 0) | (bits == 1)).all():
            raise DomainError("bits must be 0/1")
        # copies, so that freezing them leaves the caller's arrays writable;
        # the values checked before their cast, which would read "1" as 1.0
        bits = np.array(bits, dtype=np.int64)
        values = np.array(_check_nonneg_finite("values", self.values))
        if bits.ndim != 1 or values.ndim != 1 or bits.shape != values.shape:
            raise DomainError("bits and values must be 1-d vectors of equal length")
        if bits.size < 1:
            raise DomainError("population must have n >= 1")
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


# ---------------------------------------------------------------------------
# Population specs (for reproducible experiment generation)
# ---------------------------------------------------------------------------

def _values_spec(d) -> Mapping:
    """A config's `values` object, checked: a read-only copy of its known
    fields, each number read as a float and `points` as a tuple."""
    dist = _check_object("values", d)["dist"]
    if dist == "uniform":
        lo, hi = _check_real("lo", d["lo"]), _check_real("hi", d["hi"])
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise DomainError("uniform values require finite lo <= hi")
        return MappingProxyType({"dist": "uniform", "lo": lo, "hi": hi})
    if dist == "lognormal":
        mu, sigma = _check_real("mu", d["mu"]), _check_real("sigma", d["sigma"])
        if not (math.isfinite(mu) and math.isfinite(sigma)) or sigma < 0:
            raise DomainError("lognormal values require finite mu and sigma >= 0")
        return MappingProxyType({"dist": "lognormal", "mu": mu, "sigma": sigma})
    if dist == "point":
        points = d["points"]
        # a JSON list, the tuple a checked spec keeps, or a 1-d array
        if not isinstance(points, (list, tuple, np.ndarray)) or getattr(points, "ndim", 1) != 1:
            raise DomainError(f"points must be a list of numbers, got {reprlib.repr(points)}")
        points = tuple(_check_real("points", p) for p in points)
        _check_nonneg_finite("points", points)
        return MappingProxyType({"dist": "point", "points": points})
    raise DomainError(f"unknown value distribution {dist!r}")


def _bits_spec(d) -> Mapping:
    """A config's `bits` object, checked and copied as `_values_spec` does."""
    model = _check_object("bits", d)["model"]
    if model == "independent":
        q = _check_real("q", d["q"])
        if not 0.0 <= q <= 1.0:
            raise DomainError("bit probability q must lie in [0, 1]")
        return MappingProxyType({"model": "independent", "q": q})
    if model == "value_correlated":
        threshold = _check_real("threshold", d["threshold"])
        if not math.isfinite(threshold):
            raise DomainError("threshold must be finite")
        return MappingProxyType({"model": "value_correlated", "threshold": threshold})
    raise DomainError(f"unknown bit model {model!r}")


def _known(where: str, given, known) -> None:
    """`DomainError` unless `given` is an object (`_check_object`) whose keys
    are all in `known`; the error names the first other key and the nearest known one."""
    for key in _check_object(where, given):
        if key not in known:
            import difflib   # only on this error path: its import costs ~1.8 ms
            near = difflib.get_close_matches(str(key), list(known), n=1, cutoff=0.0)
            raise DomainError(f"unknown {where} field {key!r}; did you mean {near[0]!r}?")


def _field_error(exc: KeyError) -> DomainError:
    """The error for a spec's missing field."""
    return DomainError(f"population spec missing field {exc}")


@dataclass(frozen=True)
class PopulationSpec:
    """n agents whose valuations follow the config's `values` object (`dist`
    uniform: lo, hi; lognormal: mu, sigma; point: n points) and whose bits
    follow its `bits` object (`model` independent: each 1 with probability
    q; value_correlated: b_i = 1 iff v_i >= threshold, the selection-bias
    case).  Both are kept as checked read-only copies, so a spec is not
    hashable."""

    n: int
    values: Mapping
    bits: Mapping
    seed: int = 0

    def __post_init__(self):
        try:
            values, bits = _values_spec(self.values), _bits_spec(self.bits)
        except KeyError as exc:
            raise _field_error(exc) from exc
        _known("values", self.values, values)
        _known("bits", self.bits, bits)
        if _check_integer("n", self.n) < 1:
            raise DomainError("n must be >= 1")
        if _check_integer("population seed", self.seed) < 0:
            raise DomainError("population seed must be >= 0")
        if values["dist"] == "point" and len(values["points"]) != self.n:
            raise DomainError("point-mass value list length must equal n")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bits", bits)

    def to_dict(self) -> dict:
        values = dict(self.values)
        if "points" in values:
            values["points"] = list(values["points"])
        return {"n": self.n, "values": values, "bits": dict(self.bits), "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "PopulationSpec":
        _known("population", d, cls.__dataclass_fields__)
        try:
            values, bits, n = d["values"], d["bits"], d["n"]
        except KeyError as exc:
            raise _field_error(exc) from exc
        return cls(n=n, values=values, bits=bits, seed=d.get("seed", 0))


def generate_population(spec: PopulationSpec) -> Population:
    """Draw a Population from the spec: the valuations first, then, for
    independent bits, one uniform per agent.  Deterministic given the seed.

    `DomainError` if numpy cannot draw it: an n too large for an array or for
    memory, or a uniform range wider than a float holds."""
    rng = np.random.default_rng(spec.seed)
    v = spec.values
    try:
        if v["dist"] == "uniform":
            values = rng.uniform(v["lo"], v["hi"], size=spec.n)
        elif v["dist"] == "lognormal":
            values = rng.lognormal(v["mu"], v["sigma"], size=spec.n)
        else:
            values = np.asarray(v["points"], dtype=float)
        if spec.bits["model"] == "independent":
            bits = (rng.random(spec.n) < spec.bits["q"]).astype(np.int64)
        else:
            bits = (values >= spec.bits["threshold"]).astype(np.int64)
    except (ValueError, OverflowError, MemoryError) as exc:
        raise DomainError(f"cannot draw the population: {exc}") from exc
    return Population(bits=bits, values=values)


# ---------------------------------------------------------------------------
# Allocations and mechanism outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Allocation:
    """A mechanism's deterministic part on m reported profiles, the rows of
    an (m, n) matrix of reports.

    In row r the k[r] agents marked in won[r] win, each at privacy level
    1/(n - k[r]), and agent j is paid payments[r, j].  Fails closed:
    `won` and payments must be (m, n) and k (m,), every k must lie in
    [0, n-1], `won` must be boolean and each of its rows mark exactly k[r]
    agents, and payments must be >= 0 with finite row sums.  The arrays are
    made read-only.
    """

    won: np.ndarray       # (m, n) bool: each row's winners, by agent index
    k: np.ndarray         # (m,): winner counts, 0 <= k <= n-1
    payments: np.ndarray  # (m, n): per original agent index

    def __post_init__(self):
        won, k, payments = self.won, self.k, self.payments
        if won.ndim != 2 or payments.shape != won.shape or k.shape != won.shape[:1]:
            raise DomainError("won and payments must be (m, n) arrays, k (m,)")
        # a count is >= 0, so this bounds k to [0, n-1] as well
        if won.dtype != bool or ((won.sum(axis=1) != k) | (k >= won.shape[1])).any():
            raise DomainError("each row must mark exactly k winners, k in [0, n-1]")
        with np.errstate(over="ignore"):   # an overflowed sum is rejected next
            total = payments.sum(axis=1)
        # payments >= 0 whose row sums are finite are finite themselves
        if not ((payments >= 0).all() and np.isfinite(total).all()):
            raise DomainError(_OVERFLOW)
        for arr in (won, k, payments):
            arr.setflags(write=False)

    @functools.cached_property
    def epsilons(self) -> np.ndarray:
        """(m, n) privacy levels: 1/(n - k) for each row's winners, 0
        otherwise; built on first read, kept and read-only."""
        n = self.won.shape[1]
        eps = np.where(self.won, (1.0 / (n - self.k))[:, None], 0.0)
        eps.setflags(write=False)
        return eps


def _k_cheapest(keys: np.ndarray, k: np.ndarray, kth: np.ndarray) -> np.ndarray:
    """(m, n) mask of each row's k[r] cheapest keys, ties by index, given
    kth[r], the row's k[r]-th smallest key (-inf where k[r] is 0).

    Keys at most the k-th are the winners unless keys equal to it straddle
    it; only then do the keys below it win, and the equal ones in index
    order.  -0.0 equals 0.0 here, as it does in a stable sort.  Each row
    marks at least k[r] keys, so the marks total sum(k) only if no row
    marks more.
    """
    kth = kth[:, None]
    won = keys <= kth
    if np.count_nonzero(won) != k.sum():
        rows = np.flatnonzero(won.sum(axis=1) != k)
        sub, t = keys[rows], kth[rows]
        below, tied = sub < t, sub == t
        left = k[rows] - below.sum(axis=1)
        won[rows] = below | (tied & (np.cumsum(tied, axis=1) <= left[:, None]))
    return won


@dataclass(eq=False, slots=True)
class MechanismOutcome:
    """What a mechanism run produced: the random estimate and the
    deterministic one-row `Allocation` it was drawn for.

    Payments, privacy levels and the winner count are read from the
    allocation's only row, per original agent index; the allocation has
    validated them.  Slotted, not frozen: see the module docstring.
    """

    estimate: float
    allocation: Allocation

    def __post_init__(self):
        if self.allocation.won.shape[0] != 1:
            raise DomainError("a mechanism outcome needs a one-row allocation")

    @property
    def payments(self) -> np.ndarray:
        return self.allocation.payments[0]

    @property
    def winner_count(self) -> int:
        return int(self.allocation.k[0])

    @property
    def noise_scale(self) -> float:
        """n - k, the Laplace scale of the estimate."""
        return float(self.allocation.won.shape[1] - self.winner_count)

    @property
    def epsilons(self) -> np.ndarray:
        """Privacy levels: 1/(n - k) for the winners, 0 otherwise."""
        return self.allocation.epsilons[0]

    @property
    def total_payment(self) -> float:
        return float(self.payments.sum())
