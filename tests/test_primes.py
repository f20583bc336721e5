import math

import numpy as np
import pytest

import ap3lab.primes as primes_module
from ap3lab.errors import InvalidArgumentError, InvariantError, ResourceLimitError
from ap3lab.primes import (
    is_prime,
    next_prime_above,
    prime_count,
    sieve_primes,
    sieve_progression,
)
from conftest import dense_prime_flags, trial_is_prime


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
    # past two segment boundaries: odd value 1 + 2n starts segment n / SEGMENT
    limit = 4 * primes_module.SEGMENT + 12345
    table = sieve_primes(limit)
    flags = dense_prime_flags(limit)  # independent dense sieve as the bulk oracle
    got = np.zeros(limit + 1, dtype=bool)
    got[table.primes()] = True
    assert np.array_equal(got, flags)
    assert table.count == int(np.count_nonzero(flags))
    # spot-check the oracle itself against trial division
    for n in range(2, 500):
        assert flags[n] == trial_is_prime(n)


def test_progression_sieve_segments_match_a_dense_sieve():
    # a start that is not a multiple of the segment, two boundaries crossed,
    # and values <= 1 of the first offset up to n = 2 * segment, past the
    # first boundary
    segment = primes_module.SEGMENT
    w, offsets, start, stop = 6, (-12 * segment - 1, 1, 7), segment - 5, 3 * segment + 17
    top = max(offsets) + (stop - 1) * w
    flags = dense_prime_flags(top)
    base = sieve_primes(math.isqrt(top)).primes()
    got = []
    for lo, alive in sieve_progression(w, offsets, start, stop, base):
        assert lo == start + len(got) and alive.size <= segment
        got.extend(alive.tolist())
    n = np.arange(start, stop, dtype=np.int64)
    want = np.ones(n.size, dtype=bool)
    for b in offsets:
        values = b + n * w
        want &= (values > 1) & flags[np.maximum(values, 0)]
    assert got == want.tolist()


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


def test_prime_table_is_immutable():
    table = sieve_primes(100)
    with pytest.raises(ValueError):
        table.bits[0] = 255


def test_next_prime_search_budget():
    with pytest.raises(ResourceLimitError):
        next_prime_above(1 << 62)


def test_membership_outside_table_is_false():
    table = sieve_primes(100)
    assert not table.is_prime(101)  # prime, but past the limit
    assert not table.is_prime(-7)


def test_is_prime_many_matches_is_prime():
    table = sieve_primes(1000)
    values = np.arange(-20, 1030)
    got = table.is_prime_many(values)
    assert got.dtype == bool and got.shape == values.shape
    assert got.tolist() == [table.is_prime(int(n)) for n in values]
    assert table.is_prime_many([]).size == 0
