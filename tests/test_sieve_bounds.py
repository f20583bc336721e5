import math
import tracemalloc
import warnings

import numpy as np
import pytest

import ap3lab.primes as primes_module
import ap3lab.sieve_bounds as sieve_bounds_module
from ap3lab.cyclic import CyclicFunction
from ap3lab.errors import InvalidArgumentError, PreconditionError
from ap3lab.primes import is_prime, sieve_primes
from ap3lab.sieve_bounds import (
    TupleSpec,
    count_prime_tuples,
    hypothesis_flags,
    klimov_upper_bound,
    convolution_norm_bound,
    moment_index_in_range,
    root_count_rho,
    singular_series,
)
from conftest import (
    dense_tuple_count,
    moment_distinct_split,
    root_count_rho_scan,
    singular_series_by_root_counts,
    trial_is_prime,
)

TWIN_CONSTANT = 0.6601618158468696


def test_tuple_spec_validation():
    spec = TupleSpec(w=6, offsets=(1, 5))
    assert spec.k == 2
    with pytest.raises(InvalidArgumentError):
        TupleSpec(w=6, offsets=(2, 5))  # gcd(2, 6) > 1
    with pytest.raises(InvalidArgumentError):
        TupleSpec(w=6, offsets=(1, 1))
    with pytest.raises(InvalidArgumentError):
        TupleSpec(w=6, offsets=())


def test_rho_examples():
    assert root_count_rho(2, TupleSpec(w=6, offsets=(1,))) == 0
    assert root_count_rho(5, TupleSpec(w=6, offsets=(1,))) == 1
    assert root_count_rho(5, TupleSpec(w=6, offsets=(1, 5))) == 2
    with pytest.raises(InvalidArgumentError):
        root_count_rho(4, TupleSpec(w=6, offsets=(1,)))


def test_rho_fast_path_matches_scan():
    rng = np.random.default_rng(51)
    primes = [2, 3, 5, 7, 11, 13, 17, 101]
    for _ in range(10):
        w = int(rng.choice([1, 2, 6, 30]))
        offsets = []
        while len(offsets) < 3:
            candidate = int(rng.integers(0, 300))
            if math.gcd(candidate, w) == 1 and candidate not in offsets:
                offsets.append(candidate)
        spec = TupleSpec(w=w, offsets=tuple(offsets))
        for p in primes:
            assert root_count_rho(p, spec) == root_count_rho_scan(p, spec)


def test_rho_saturates_at_k_for_large_primes():
    spec = TupleSpec(w=6, offsets=(1, 7, 11))
    max_diff = max(abs(a - b) for a in spec.offsets for b in spec.offsets)
    for block in sieve_primes(1000).iter_blocks():
        for p in block.tolist():
            if p > max_diff and spec.w % p != 0:
                assert root_count_rho(p, spec) == spec.k


def test_twin_singular_series():
    series = singular_series(TupleSpec(w=1, offsets=(0, 2)), 10**6)
    assert abs(series.value - 2 * TWIN_CONSTANT) < 1e-3


def test_single_offset_series_is_exactly_one():
    series = singular_series(TupleSpec(w=1, offsets=(0,)), 1000)
    assert math.isclose(series.value, 1.0, rel_tol=1e-12)


def test_series_truncation_stability():
    for spec in (
        TupleSpec(w=6, offsets=(1,)),
        TupleSpec(w=6, offsets=(1, 5)),
        TupleSpec(w=1, offsets=(0, 2, 6)),
    ):
        small = singular_series(spec, 10**4)
        large = singular_series(spec, 10**5)
        assert abs(small.value - large.value) <= 10 * small.tail_estimate
    with pytest.raises(InvalidArgumentError):
        singular_series(TupleSpec(w=1, offsets=(0,)), 99)


def test_series_matches_root_count_accumulation_bit_for_bit():
    for spec in (
        TupleSpec(w=30, offsets=(1, 7, 11, 13)),  # 2, 3, 5 divide W
        TupleSpec(w=1, offsets=(0, 6, 12, 18)),  # collide mod 2 and mod 3
        TupleSpec(w=6, offsets=(1, 11, 31)),  # all equal mod 5
        TupleSpec(w=2, offsets=(-7, -1, 5)),  # negative, collide mod 3
        TupleSpec(w=1, offsets=(0, 2)),
        TupleSpec(w=1, offsets=(0,)),
        TupleSpec(w=10**12, offsets=(-997, 1, 1003)),  # collide mod 3
    ):
        for cutoff in (100, 10**4):
            got = singular_series(spec, cutoff).value
            assert got == singular_series_by_root_counts(spec, cutoff), (spec, cutoff)


def test_locally_impossible_tuple_is_rejected():
    with pytest.raises(PreconditionError):
        singular_series(TupleSpec(w=1, offsets=(0, 1)), 1000)  # rho(2) = 2
    with pytest.raises(PreconditionError):
        singular_series(TupleSpec(w=1, offsets=(1, 3, 5)), 1000)  # rho(3) = 3
    with pytest.raises(PreconditionError):
        singular_series(TupleSpec(w=2, offsets=(-3, 5, 13)), 1000)  # rho(3) = 3


def test_count_prime_tuples_examples():
    assert count_prime_tuples(TupleSpec(w=6, offsets=(1, 5)), 10) == 5
    assert count_prime_tuples(TupleSpec(w=1, offsets=(0,)), 100) == 25
    assert count_prime_tuples(TupleSpec(w=2, offsets=(1,)), 10) == 7
    # values <= 1 are not prime: only (2, 11), and only 3, 5, 7, 11, 13
    assert count_prime_tuples(TupleSpec(w=1, offsets=(-18, -9)), 1545) == 1
    assert count_prime_tuples(TupleSpec(w=2, offsets=(-7,)), 10) == 5
    assert count_prime_tuples(TupleSpec(w=1, offsets=(-100,)), 10) == 0


def _recount_tuples(spec, limit, prime) -> int:
    return sum(
        1
        for n in range(1, limit + 1)
        if all(b + n * spec.w > 1 and prime(b + n * spec.w) for b in spec.offsets)
    )


def test_count_prime_tuples_against_per_element_recount(monkeypatch):
    sieved_to = []

    def recording_sieve(limit, *args, **kwargs):
        sieved_to.append(limit)
        return sieve_primes(limit, *args, **kwargs)

    monkeypatch.setattr(sieve_bounds_module, "sieve_primes", recording_sieve)

    def counted(spec, limit):
        sieved_to.clear()
        count = count_prime_tuples(spec, limit)
        assert all(z <= limit for z in sieved_to), (spec, limit, sieved_to)
        return count

    # tops past 1e8, the confirmation regime z = limit < isqrt(top), values
    # equal to a base prime, and negative offsets
    for spec, limit in (
        (TupleSpec(w=2310, offsets=(1, 13)), 50_000),
        (TupleSpec(w=30030, offsets=(1, 17)), 20_000),
        (TupleSpec(w=10**12, offsets=(1, 7)), 200),
        (TupleSpec(w=10**12, offsets=(-1,)), 1),
        (TupleSpec(w=1, offsets=(0,)), 3000),
        (TupleSpec(w=2, offsets=(1,)), 3000),
        (TupleSpec(w=6, offsets=(-5, -1, 1)), 3000),
        (TupleSpec(w=1, offsets=(-18, -9)), 1545),
    ):
        assert counted(spec, limit) == _recount_tuples(spec, limit, is_prime), spec

    # several segments, and values <= 1 up to n = segment + 2, past the
    # first boundary at n = segment + 1
    segment = primes_module.SEGMENT
    for spec, limit in (
        (TupleSpec(w=2, offsets=(-2 * segment - 3, 1)), 3 * segment),
        (TupleSpec(w=1, offsets=(-segment - 1, 0)), 2 * segment + 7),
        (TupleSpec(w=6, offsets=(1, 5)), 2 * segment + 3),
    ):
        assert counted(spec, limit) == dense_tuple_count(spec, limit), spec

    rng = np.random.default_rng(53)
    for _ in range(8):
        w = int(rng.choice([1, 2, 6, 30]))
        k = int(rng.integers(1, 5))
        offsets = []
        while len(offsets) < k:
            candidate = int(rng.integers(0, 50))
            if math.gcd(candidate, w) == 1 and candidate not in offsets:
                offsets.append(candidate)
        spec = TupleSpec(w=w, offsets=tuple(offsets))
        limit = int(rng.integers(50, 2000))
        assert counted(spec, limit) == _recount_tuples(spec, limit, trial_is_prime)


def test_count_prime_tuples_memory_is_one_segment():
    # eight segments of n: a dense sieve over n would allocate 8 * SEGMENT
    # bytes; the segmented one holds at most two segments at once, plus the
    # few base primes up to isqrt(top) = 7094
    segment = primes_module.SEGMENT
    tracemalloc.start()
    try:
        count_prime_tuples(TupleSpec(w=6, offsets=(1, 5)), 8 * segment)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * segment, peak


def test_klimov_bound_formula():
    spec = TupleSpec(w=6, offsets=(1, 5))
    series = singular_series(spec, 10**4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = klimov_upper_bound(spec, 10**6, series)
    # desk-scale P sits outside the sieve range: the flag says so, silently
    assert hypothesis_flags(spec, 10**6)["k_within_sieve_range"] is False
    want = 10**6 * 9 * 2 / math.log(10**6) ** 2 * series.value
    assert math.isclose(got, want, rel_tol=1e-12)
    with pytest.raises(InvalidArgumentError):
        klimov_upper_bound(TupleSpec(w=1, offsets=(0,)), 100, series)  # k = 1


def test_klimov_is_silent_out_of_sieve_range():
    spec = TupleSpec(w=6, offsets=(1, 5))
    series = singular_series(spec, 10**4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert klimov_upper_bound(spec, 100, series) > 0
    assert hypothesis_flags(spec, 100)["k_within_sieve_range"] is False


def test_klimov_count_ratio_frozen():
    spec = TupleSpec(w=6, offsets=(1, 5))
    series = singular_series(spec, 10**5)
    limit = 10**4
    count = count_prime_tuples(spec, limit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = klimov_upper_bound(spec, limit, series)
    assert hypothesis_flags(spec, limit)["k_within_sieve_range"] is False
    ratio = count / bound
    assert 0 < ratio < 1
    # frozen from the first verified run
    assert count == 807
    assert math.isclose(ratio, 0.04800874954849523, rel_tol=1e-9)


def test_hypothesis_flags_reported():
    flags = hypothesis_flags(TupleSpec(w=6, offsets=(1, 5)), 10**4)
    assert flags["log_b_within_2_log_p"] and flags["log_w_within_2_log_p"]
    assert not flags["k_within_sieve_range"]
    with pytest.raises(InvalidArgumentError, match="limit must be >= 3"):
        hypothesis_flags(TupleSpec(w=2, offsets=(1,)), 2)  # ln ln 2 < 0


def test_pnt_shape_for_single_offset():
    table = sieve_primes(10**6)
    for limit in (10**4, 10**6):
        count = count_prime_tuples(TupleSpec(w=1, offsets=(0,)), limit)
        ratio = count * math.log(limit) / limit
        assert 0.9 <= ratio <= 1.3


def test_convolution_norm_bound_designed_points():
    # ln N / ln z = 10 with |Sigma| = 100 at k = 1
    value = convolution_norm_bound(1, math.exp(10), math.e, 100)
    assert math.isclose(value, 1 + math.sqrt(10) / 10, rel_tol=1e-12)
    # |Sigma| -> infinity leaves only k
    assert convolution_norm_bound(2, math.exp(10), math.e, 10**300) == 2.0
    # |Sigma| = 1 is the degenerate point: k + (ln N / ln z)^(1 - 1/(2k))
    value = convolution_norm_bound(1, math.exp(10), math.e, 1)
    assert math.isclose(value, 1 + 10**0.5, rel_tol=1e-12)


def test_convolution_norm_bound_range_guard():
    z = math.exp(8.1)  # (ln z)^(1/3)/2 just above 1, so k = 1 is in range
    assert moment_index_in_range(1, z)
    assert not moment_index_in_range(2, z)
    assert math.isclose(
        convolution_norm_bound(1, math.exp(16.2), z, 50),
        1 + 2**0.5 * 50**-0.5,
        rel_tol=1e-12,
    )
    # outside the theory range the bound is still evaluated
    assert math.isclose(
        convolution_norm_bound(2, math.exp(16.2), z, 50),
        2 + 2**0.75 * 50**-0.25,
        rel_tol=1e-12,
    )
    with pytest.raises(InvalidArgumentError):
        convolution_norm_bound(0, math.exp(10), math.e, 10)


def test_convolution_norm_bound_monotonicity():
    z = math.e
    n = math.exp(10)
    sizes = [1, 10, 100, 1000, 10**6]
    values = [convolution_norm_bound(1, n, z, s) for s in sizes]
    assert all(a > b for a, b in zip(values, values[1:]))
    big_sigma = 10**9
    ks = [1, 2, 3, 4, 5, 6]
    values_k = [convolution_norm_bound(k, n, z, big_sigma) for k in ks]
    assert all(a < b for a, b in zip(values_k, values_k[1:]))


def test_moment_split_identity():
    rng = np.random.default_rng(59)
    p = 101
    a = CyclicFunction(p, rng.random(p) * (rng.random(p) < 0.3))
    members = sorted(rng.choice(p, size=6, replace=False).tolist())
    for k in (1, 2):
        split = moment_distinct_split(a, members, k)
        assert math.isclose(split.total, split.norm_check, rel_tol=1e-10)
        assert math.isclose(
            split.repeated_share + split.distinct_share,
            split.total,
            rel_tol=1e-12,
        )
        assert set(split.by_distinct) <= set(range(1, 2 * k + 1))


def test_moment_split_guards():
    a = CyclicFunction(101, np.full(101, 1.0))
    with pytest.raises(InvalidArgumentError):
        moment_distinct_split(a, [], 1)
    from ap3lab.errors import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        moment_distinct_split(a, range(40), 3)
