import math
import warnings

import numpy as np
import pytest
from scipy import stats

from privauction.core import Allocation, DomainError, Population
from privauction.dp import (LN3, EstimatorPlan, _trial_streams, lap_density,
                            lap_sample, laplace_estimator, privacy_ratio_bound,
                            trial_estimates, trial_stream)


def lap_cdf(scale: float, x):
    """Exact CDF of the zero-mean Laplace distribution, the KS reference."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, 0.5 * np.exp(x / scale), 1.0 - 0.5 * np.exp(-x / scale))


@pytest.fixture(scope="module")
def big_sample():
    rng = np.random.default_rng(2024)
    return lap_sample(1.0, rng, size=1_000_000)


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
    a = lap_sample(2.0, np.random.default_rng(5), size=10)
    b = lap_sample(2.0, np.random.default_rng(5), size=10)
    np.testing.assert_array_equal(a, b)


class ZeroUniforms:
    """A generator stub whose every uniform draw is exactly 0."""

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)


def test_zero_uniform_gives_a_finite_sample():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = lap_sample(2.0, ZeroUniforms())
        vector = lap_sample(2.0, ZeroUniforms(), size=3)
    # u = 2**-53: x = -2 ln(1 - 2|u - 1/2|) = -2 ln(2**-52)
    assert scalar == pytest.approx(-104.0 * math.log(2.0), rel=1e-12)
    np.testing.assert_array_equal(vector, np.full(3, scalar))


def test_sample_scale_validation():
    with pytest.raises(DomainError):
        lap_sample(0.0, np.random.default_rng(0))


# --- analytic privacy quantities -------------------------------------------

def test_ratio_bound_examples():
    assert privacy_ratio_bound(3.0, 0.0) == 1.0
    assert privacy_ratio_bound(4.0, 1.0) == pytest.approx(math.exp(0.25), abs=1e-12)
    assert privacy_ratio_bound(5.0, 2.0) == pytest.approx(1.4918246976412703, abs=1e-9)


# --- estimator -------------------------------------------------------------

def one_row(n: int, winners) -> Allocation:
    """A one-row allocation over n agents in which `winners` win, unpaid."""
    won = np.zeros((1, n), dtype=bool)
    won[0, list(winners)] = True
    return Allocation(won, won.sum(axis=1), np.zeros((1, n)), np.zeros(1))


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
                          np.zeros((2, 5)), np.zeros(2))
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


def test_density_ratio_on_grid():
    # one-bit winner flip shifts the deterministic part by at most 1
    scale = 2.0
    xs = np.linspace(-20 * scale, 20 * scale, 10_000)
    ratio = lap_density(scale, xs) / lap_density(scale, xs - 1.0)
    worst = np.max(np.maximum(ratio, 1.0 / ratio))
    assert worst <= privacy_ratio_bound(scale, 1.0) + 1e-9


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
