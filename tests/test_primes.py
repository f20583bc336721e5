import math

import numpy as np
import pytest

import ap3lab.primes as primes_module
from ap3lab.errors import InvalidArgumentError, InvariantError, ResourceLimitError
from ap3lab.primes import (
    chebyshev_theta,
    is_prime,
    next_prime_above,
    prime_count,
    sieve_primes,
)
from conftest import trial_is_prime


def test_sieve_small_members():
    table = sieve_primes(10)
    assert table.primes().tolist() == [2, 3, 5, 7]


def test_sieve_smallest():
    table = sieve_primes(2)
    assert table.primes().tolist() == [2]
    assert table.count == 1


def test_sieve_count_100():
    assert sieve_primes(100).count == 25


def test_sieve_matches_trial_division_elementwise():
    table = sieve_primes(10**5)
    # independent dense sieve as the bulk oracle
    flags = np.ones(10**5 + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(10**5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    got = np.zeros(10**5 + 1, dtype=bool)
    got[table.primes()] = True
    assert np.array_equal(got, flags)
    # spot-check the oracle itself against trial division
    for n in range(2, 500):
        assert flags[n] == trial_is_prime(n)


def test_sieve_rejects_bad_limits():
    with pytest.raises(InvalidArgumentError):
        sieve_primes(1)
    with pytest.raises(ResourceLimitError):
        sieve_primes(1 << 35)


def test_prime_count_examples():
    table = sieve_primes(10**6)
    assert prime_count(table, 1) == 0
    assert prime_count(table, 10) == 4
    # frozen from an independent sieve run
    assert prime_count(table, 10**6) == 78498


def test_prime_count_is_cumulative_membership():
    table = sieve_primes(2000)
    previous = 0
    for x in range(1, 1001):
        now = prime_count(table, x)
        assert now - previous == (1 if trial_is_prime(x) else 0)
        assert now >= previous
        previous = now


def test_prime_count_out_of_range():
    table = sieve_primes(100)
    with pytest.raises(InvalidArgumentError):
        prime_count(table, 101)


def test_is_prime_examples():
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(500009)
    assert trial_is_prime(500009)


def test_is_prime_matches_trial_division():
    for n in range(2000):
        assert is_prime(n) == trial_is_prime(n), n


def test_is_prime_large_words():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**62 - 1)
    with pytest.raises(InvalidArgumentError):
        is_prime(1 << 64)


def test_next_prime_above_examples(monkeypatch):
    assert next_prime_above(1) == 2
    assert next_prime_above(2) == 3
    assert next_prime_above(10) == 11
    assert next_prime_above(500000) == 500009
    # Bertrand's postulate is a theorem; a primality test that misses every
    # prime below 100 is the only way to reach the check that guards it.
    monkeypatch.setattr(primes_module, "is_prime", lambda n: n > 100)
    with pytest.raises(InvariantError):
        next_prime_above(10)


def test_next_prime_above_leaves_no_gap():
    table = sieve_primes(10**6)
    rng = np.random.default_rng(7)
    for x in rng.integers(2, 900_000, size=50).tolist():
        p = next_prime_above(x)
        assert p > x and table.is_prime(p)
        for q in range(x + 1, p):
            assert not table.is_prime(q)
    with pytest.raises(InvalidArgumentError):
        next_prime_above(0)


def test_chebyshev_theta_examples():
    table = sieve_primes(100)
    assert chebyshev_theta(table, 1) == 0.0
    expected = math.log(2) + math.log(3) + math.log(5) + math.log(7)
    assert math.isclose(chebyshev_theta(table, 10), expected, rel_tol=1e-12)
    assert math.isclose(
        chebyshev_theta(table, 3.45), math.log(6), rel_tol=1e-12
    )


def test_chebyshev_theta_tracks_z():
    table = sieve_primes(10**6)
    for z in (100, 10**4, 10**6):
        ratio = chebyshev_theta(table, z) / z
        assert 0.8 <= ratio <= 1.2, (z, ratio)


def test_prime_table_is_immutable():
    table = sieve_primes(100)
    with pytest.raises(ValueError):
        table.bits[0] = 255


def test_theta_out_of_range():
    table = sieve_primes(100)
    with pytest.raises(InvalidArgumentError):
        chebyshev_theta(table, 101)
    with pytest.raises(InvalidArgumentError):
        chebyshev_theta(table, -1)


def test_next_prime_search_budget():
    with pytest.raises(ResourceLimitError):
        next_prime_above(1 << 62)


def test_membership_outside_table_is_false():
    table = sieve_primes(100)
    assert not table.is_prime(101)  # prime, but past the limit
    assert not table.is_prime(-7)
