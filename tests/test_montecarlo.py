"""False-positive rate estimation against the analytic value."""

import pytest

from guardsim.montecarlo import monte_carlo_fp, wilson_interval
from guardsim.topology import ConfigError


def test_wilson_interval_basic():
    low, high = wilson_interval(50, 1000)
    assert 0.03 < low < 0.05 < high < 0.07
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_small_width_interval_contains_analytic():
    est = monte_carlo_fp(nonce_bits=8, dataset_size=4, trials=20_000, seed=7)
    assert est.analytic == 4 / 256
    assert est.contains_analytic()


def test_empty_dataset_never_collides():
    est = monte_carlo_fp(nonce_bits=8, dataset_size=0, trials=2_000, seed=7)
    assert est.hits == 0 and est.empirical == 0.0


def test_wide_nonces_rate_zero():
    est = monte_carlo_fp(nonce_bits=64, dataset_size=4, trials=20_000, seed=7)
    assert est.hits == 0


def test_zero_trials_rejected():
    with pytest.raises(ValueError):
        monte_carlo_fp(nonce_bits=8, dataset_size=4, trials=0)


def test_impossible_dataset_rejected():
    # four 2-bit nonces exist; a fifth distinct one would be drawn forever
    for bits, size in ((2, 5), (-1, 0), (8, -3)):
        with pytest.raises(ConfigError):
            monte_carlo_fp(nonce_bits=bits, dataset_size=size, trials=1)
    est = monte_carlo_fp(nonce_bits=2, dataset_size=4, trials=100)
    assert est.hits == 100


@pytest.mark.parametrize("bits, size, trials, seed, hits", [
    (8, 4, 20_000, 7, 342),
    (12, 256, 1_500, 1, 96),
    (8, 128, 200, 1, 95),
])
def test_pinned_hit_counts(bits, size, trials, seed, hits):
    est = monte_carlo_fp(nonce_bits=bits, dataset_size=size, trials=trials,
                         seed=seed)
    assert est.hits == hits


def test_deterministic_given_seed():
    a = monte_carlo_fp(nonce_bits=8, dataset_size=4, trials=5_000, seed=3)
    b = monte_carlo_fp(nonce_bits=8, dataset_size=4, trials=5_000, seed=3)
    assert a.hits == b.hits
