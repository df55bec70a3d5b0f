import math
import warnings

import numpy as np
import pytest
from scipy import stats

from privauction.core import Allocation, DomainError, Population
from privauction.dp import (LN3, EstimatorPlan, _laplace, _trial_streams,
                            lap_sample, laplace_estimator, trial_estimates,
                            trial_stream)
from privauction.verify import check_estimator_privacy


def lap_cdf(scale: float, x):
    """Exact CDF of the zero-mean Laplace distribution, the KS reference."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, 0.5 * np.exp(x / scale), 1.0 - 0.5 * np.exp(-x / scale))


@pytest.fixture(scope="module")
def big_sample():
    # the map every estimate draws through, one seeded uniform per draw
    rng = np.random.default_rng(2024)
    return np.array([_laplace(u, 1.0) for u in rng.random(1_000_000).tolist()])


# --- sampling --------------------------------------------------------------

def test_sample_median_near_zero(big_sample):
    assert abs(np.median(big_sample)) <= 0.01


def test_sample_mean_near_zero(big_sample):
    assert abs(big_sample.mean()) <= 0.01


def test_tail_constant_one_third(big_sample):
    frac = np.mean(np.abs(big_sample) >= LN3)
    assert frac == pytest.approx(1.0 / 3.0, abs=0.005)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_empirical_tails(big_sample, t):
    frac = np.mean(np.abs(big_sample) >= t)
    assert frac == pytest.approx(math.exp(-t), abs=0.005)


def test_ks_statistic(big_sample):
    stat, _ = stats.kstest(big_sample, lambda x: lap_cdf(1.0, x))
    assert stat <= 0.002


def test_sample_deterministic():
    def draws(seed):
        rng = np.random.default_rng(seed)
        return np.array([lap_sample(2.0, rng) for _ in range(10)])
    np.testing.assert_array_equal(draws(5), draws(5))


class ZeroUniforms:
    """A generator stub whose every uniform draw is exactly 0."""

    def random(self):
        return 0.0


def test_zero_uniform_gives_a_finite_sample():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample = lap_sample(2.0, ZeroUniforms())
    # u = 2**-53: x = -2 ln(1 - 2|u - 1/2|) = -2 ln(2**-52)
    assert sample == pytest.approx(-104.0 * math.log(2.0), rel=1e-12)


class ReplayUniforms:
    """A generator stub that hands out one fixed array of uniforms in order."""

    def __init__(self, uniforms):
        self.uniforms, self.pos = uniforms, 0

    def random(self):
        self.pos += 1
        return float(self.uniforms[self.pos - 1])


ULP = 2.0 ** -53
PINNED_UNIFORMS = np.concatenate([
    [0.0, ULP, 0.5 - ULP, 0.5, 0.5 + ULP, 1.0 - ULP],
    np.arange(0, 1000) * ULP,                     # j * 2**-53 near 0
    (2.0 ** 52 + np.arange(-1000, 1000)) * ULP,   # near 1/2, where the sign flips
    (2.0 ** 53 - np.arange(1000, 0, -1)) * ULP,   # near 1
    np.random.default_rng(53).random(100_000),
])


@pytest.mark.parametrize("scale", [1.0, 2.0, 5.0, 95.0, 1e4, 1e6])
def test_sample_is_the_map_bit_for_bit_and_the_map_is_monotone(scale):
    # every uniform a Generator returns is j * 2**-53; `lap_sample` and the
    # map `_laplace` itself give the same bits, the sign of a zero included
    rng = ReplayUniforms(PINNED_UNIFORMS)
    sampled = np.array([lap_sample(scale, rng) for _ in range(PINNED_UNIFORMS.size)])
    mapped = np.array([_laplace(u, scale) for u in PINNED_UNIFORMS.tolist()])
    np.testing.assert_array_equal(sampled.view(np.uint64), mapped.view(np.uint64))
    # the map never decreases as u grows: near j = 0, where the sign flips
    # near j = 2**52, and near j = 2**53
    assert (np.diff(mapped[np.argsort(PINNED_UNIFORMS, kind="stable")]) >= 0).all()


@pytest.mark.parametrize("scale", [1.0, 95.0])
def test_a_scalar_draw_is_a_python_float(scale):
    # the report encoder and `_check_nonneg_finite` take a Python float,
    # not a numpy scalar; u = 0 and u = 1/2 (a zero draw) included
    assert {0.0, 0.5} <= set(PINNED_UNIFORMS.tolist())
    assert all(type(_laplace(u, scale)) is float for u in PINNED_UNIFORMS.tolist())
    assert type(lap_sample(scale, ReplayUniforms(PINNED_UNIFORMS))) is float


@pytest.mark.parametrize("check", [
    lambda scale: lap_sample(scale, np.random.default_rng(0)),
    check_estimator_privacy,
], ids=["lap_sample", "check_estimator_privacy"])
@pytest.mark.parametrize("scale", ["3", True, math.nan, math.inf, -math.inf, 0.0, -1.0],
                         ids=repr)
def test_sample_scale_validation(check, scale):
    with pytest.raises(DomainError, match="Laplace scale"):
        check(scale)


# --- estimator -------------------------------------------------------------

def one_row(n: int, winners) -> Allocation:
    """A one-row allocation over n agents in which `winners` win, unpaid."""
    won = np.zeros((1, n), dtype=bool)
    won[0, list(winners)] = True
    return Allocation(won, won.sum(axis=1), np.zeros((1, n)))


def test_estimator_deterministic_part():
    pop = Population(bits=np.ones(10, int), values=np.arange(10.0))
    plan = EstimatorPlan(pop, one_row(10, range(8)))
    assert (plan.noise_scale, plan.offset, plan.noiseless) == (2.0, 1.0, 9.0)
    estimate = laplace_estimator(plan, np.random.default_rng(0))
    noise = lap_sample(2.0, np.random.default_rng(0))
    assert estimate - noise == pytest.approx(9.0)          # t = 8 + 1
    assert abs(9.0 - pop.total) == 1.0                      # |t - s| = offset
    np.testing.assert_array_equal(np.flatnonzero(plan.allocation.won[0]), np.arange(8))


def test_estimator_ignores_non_winner_bits():
    values = np.arange(10.0)
    bits = np.ones(10, int)
    flipped = bits.copy()
    flipped[9] = 0
    plans = [EstimatorPlan(Population(bits=b, values=values), one_row(10, range(8)))
             for b in (bits, flipped)]
    assert plans[0].noiseless == plans[1].noiseless
    e1, e2 = (laplace_estimator(plan, np.random.default_rng(3)) for plan in plans)
    assert e1 == e2


def test_plan_rejects_an_allocation_that_is_not_one_row_over_n():
    pop = Population(bits=np.ones(5, int), values=np.arange(5.0))
    two_rows = Allocation(np.zeros((2, 5), dtype=bool), np.zeros(2, dtype=int),
                          np.zeros((2, 5)))
    for alloc in (two_rows, one_row(6, range(3)), one_row(4, range(3))):
        with pytest.raises(DomainError, match="one-row allocation"):
            EstimatorPlan(pop, alloc)


def test_empty_plan_is_half_n_plus_laplace_n():
    pop = Population(bits=np.ones(6, int), values=np.arange(6.0))
    plan = EstimatorPlan(pop, one_row(6, ()))
    assert (plan.noise_scale, plan.offset, plan.noiseless) == (6.0, 3.0, 3.0)
    assert not plan.allocation.won.any()
    assert laplace_estimator(plan, np.random.default_rng(5)) == (
        3.0 + lap_sample(6.0, np.random.default_rng(5)))


def _random_plan(n: int, seed: int):
    """A random population of n, a random winner set as an index array, and
    the plan of its one-row allocation."""
    rng = np.random.default_rng(seed)
    pop = Population(bits=rng.integers(0, 2, n), values=rng.uniform(0.0, 10.0, n))
    winners = rng.permutation(n)[:rng.integers(0, n)]
    return pop, winners, EstimatorPlan(pop, one_row(n, winners))


@pytest.mark.parametrize("n", [12, 100, 10_000])
def test_plan_keeps_the_winners_bit_sum_plus_offset(n):
    pop, winners, plan = _random_plan(n, n)
    assert plan.noise_scale == float(n - winners.size)
    assert plan.offset == plan.noise_scale / 2.0
    assert plan.noiseless == float(pop.bits[winners].sum()) + plan.offset


@pytest.mark.parametrize("n", [12, 100, 10_000])
def test_estimator_equals_the_per_call_sum_bit_for_bit(n):
    """Over 1,000 trials, the kept sum plus the noise is what summing the
    winners' bits by index on every call, in the same order of additions,
    gives."""
    pop, winners, plan = _random_plan(n, n + 1)
    seed = 20 + n
    got = np.array([laplace_estimator(plan, trial_stream(seed, t)) for t in range(1000)])
    scale = float(n - winners.size)
    want = np.array([float(pop.bits[winners].sum()) + scale / 2.0
                     + lap_sample(scale, trial_stream(seed, t)) for t in range(1000)])
    assert got.tobytes() == want.tobytes()
    assert trial_estimates(plan, seed, 1000).tobytes() == want.tobytes()


@pytest.mark.parametrize("trials", [-1, True, 2.5, 3.0, "3"])
def test_trial_estimates_rejects_trials_that_are_not_an_integer_at_least_0(trials):
    _, _, plan = _random_plan(12, 0)
    with pytest.raises(DomainError, match="trials"):
        trial_estimates(plan, 0, trials)


# --- trial streams ---------------------------------------------------------

def test_trial_streams_reproducible_and_distinct():
    a = trial_stream(42, 0).random(4)
    b = trial_stream(42, 0).random(4)
    c = trial_stream(42, 1).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 2 ** 63, -1, 11, 123456789, 2 ** 64 + 5])
@pytest.mark.parametrize("trial", [0, 1, 7, 19999, 2 ** 40])
def test_trial_stream_equals_philox_keyed_by_the_seed(seed, trial):
    ref = np.random.Generator(np.random.Philox(key=seed & (2 ** 64 - 1),
                                               counter=[0, 0, 0, trial]))
    got = trial_stream(seed, trial)
    for word in ("key", "counter"):
        np.testing.assert_array_equal(got.bit_generator.state["state"][word],
                                      ref.bit_generator.state["state"][word])
    assert got.random(8).tobytes() == ref.random(8).tobytes()


@pytest.mark.parametrize("seed", [0, 2 ** 63, -1, 2 ** 64 - 1, 123456789])
@pytest.mark.parametrize("trials", [0, 1, 300])
@pytest.mark.parametrize("k", [1, 5, 9])
def test_repositioned_streams_equal_per_trial_streams(seed, trials, k):
    """Each trial reads random(k), an odd count of 32-bit words (which leaves
    a half word kept) and three normals; the next trial's stream must not see
    where the last one stopped in Philox's 4-word buffer."""
    def draws(rng, t):
        return (rng.random(k).tobytes()
                + rng.integers(0, 2 ** 32, size=2 * (t % 4) + 1, dtype=np.uint32).tobytes()
                + rng.standard_normal(3).tobytes())

    got = [draws(rng, t) for t, rng in enumerate(_trial_streams(seed, trials))]
    assert got == [draws(trial_stream(seed, t), t) for t in range(trials)]


def test_trial_stream_rejects_negative():
    with pytest.raises(DomainError):
        trial_stream(0, -1)


@pytest.mark.parametrize("seed,trial", [(0.5, 0), (True, 0), (0, 2.7), (0, True), (0, 1.0)],
                         ids=["float-seed", "bool-seed", "float-trial", "bool-trial",
                              "integral-float-trial"])
def test_trial_stream_rejects_non_integers(seed, trial):
    with pytest.raises(DomainError, match="must be an integer"):
        trial_stream(seed, trial)
