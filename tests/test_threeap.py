import math
import time
import tracemalloc

import numpy as np
import pytest

from ap3lab import cyclic
from ap3lab.cyclic import (
    AUTOCONVOLUTION_ROUNDING_BOUND,
    SUM_BLOCK,
    CyclicFunction,
    _five_smooth_at_least,
    _real_convolution,
    fixed_sum,
)
from ap3lab.errors import InvalidArgumentError, InvariantError
from ap3lab.primes import next_prime_above
from ap3lab.threeap import additive_counts, lambda_fourier, lambda_of_spectra
from conftest import (
    additive_energy_brute,
    behrend_set,
    count_3aps_brute,
    dense_indicator,
    lambda_direct,
    lambda_enumerate,
    lambda_of_full_spectra,
    stanley_digits,
)


def random_triple(p, rng):
    return tuple(CyclicFunction(p, rng.random(p)) for _ in range(3))


def test_lambda_of_ones_is_one():
    one = CyclicFunction(101, np.full(101, 1.0))
    assert math.isclose(lambda_direct(one, one, one), 1.0, rel_tol=1e-12)
    assert math.isclose(lambda_fourier(one, one, one), 1.0, rel_tol=1e-12)


def test_lambda_of_point_mass():
    f = dense_indicator(5, [0])
    assert math.isclose(lambda_direct(f, f, f), 1 / 25, rel_tol=1e-12)
    assert additive_counts([0], 5).pairs == 1  # the trivial progression alone


def test_lambda_enumerated_block_example():
    f = dense_indicator(101, [0, 1, 2])
    lam = lambda_direct(f, f, f)
    assert additive_counts([0, 1, 2], 101).pairs == 5  # 3 trivial + both orientations
    assert math.isclose(lam, 5 / 101**2, rel_tol=1e-12)
    assert math.isclose(lam, lambda_enumerate(f.values, f.values, f.values), rel_tol=1e-12)


@pytest.mark.parametrize("p", (5, 101))
def test_direct_against_pure_python_enumeration(p):
    rng = np.random.default_rng(p)
    f, g, h = random_triple(p, rng)
    assert math.isclose(
        lambda_direct(f, g, h),
        lambda_enumerate(f.values, g.values, h.values),
        rel_tol=1e-11,
    )


@pytest.mark.parametrize("p", (5, 101, 1009, 2003))
def test_fourier_matches_direct_on_random_functions(p):
    rng = np.random.default_rng(p + 17)
    for _ in range(3):
        f, g, h = random_triple(p, rng)
        direct = lambda_direct(f, g, h)
        assert abs(lambda_fourier(f, g, h) - direct) < 1e-8


def test_fourier_reduces_the_real_products_in_a_fixed_order():
    p = 1009
    f, g, h = random_triple(p, np.random.default_rng(5))
    t = np.arange(p)
    products = (
        f.spectrum().full()
        * g.spectrum().full()[(-2 * t) % p]
        * h.spectrum().full()
    )
    assert lambda_fourier(f, g, h) == fixed_sum(products.real)


def test_direct_decomposition_sums():
    # the exact count splits by common difference: the |S| pairs (y, y) at
    # d = 0, and one pair per (x, d != 0) with x, x + d, x + 2d in S mod P
    p = 101
    members = np.sort(np.random.default_rng(23).choice(p, size=40, replace=False))
    inside = set(members.tolist())
    nontrivial = sum(
        (x + d) % p in inside and (x + 2 * d) % p in inside
        for x in inside for d in range(1, p)
    )
    assert additive_counts(members, p).pairs == len(inside) + nontrivial > len(inside)


def test_multilinearity():
    rng = np.random.default_rng(29)
    p = 101
    f1, g, h = random_triple(p, rng)
    f2 = CyclicFunction(p, rng.random(p))
    combined = CyclicFunction(p, f1.values + f2.values)
    lhs = lambda_fourier(combined, g, h)
    rhs = lambda_fourier(f1, g, h) + lambda_fourier(f2, g, h)
    assert abs(lhs - rhs) < 1e-10


def test_translation_invariance():
    rng = np.random.default_rng(31)
    p = 101
    f, g, h = random_triple(p, rng)
    shift = 17
    fs, gs, hs = (
        CyclicFunction(p, np.roll(fn.values, shift)) for fn in (f, g, h)
    )
    assert abs(
        lambda_direct(f, g, h)
        - lambda_direct(fs, gs, hs)
    ) < 1e-12


def test_direct_speed_at_2003():
    rng = np.random.default_rng(37)
    f, g, h = random_triple(2003, rng)
    start = time.perf_counter()
    lambda_direct(f, g, h)
    assert time.perf_counter() - start < 5.0


def test_greedy_matches_stanley_digit_characterization():
    # the digit set is the lexicographically greedy 3AP-free set: each n
    # is kept exactly when it completes no progression with kept members
    for limit in (0, 4, 10, 100, 729):
        kept = set(stanley_digits(limit))
        for n in range(limit + 1):
            completes = any(n - d in kept and n - 2 * d in kept for d in range(1, n // 2 + 1))
            assert (n in kept) != completes, n


def test_behrend_sets_are_progression_free():
    for limit in (1, 2, 3, 10, 50, 500):
        members = behrend_set(limit)
        assert members, limit
        assert min(members) >= 1 and max(members) <= limit
        assert count_3aps_brute(members) == 0
    with pytest.raises(InvalidArgumentError):
        behrend_set(0)


def test_behrend_size_golden():
    # frozen from the first verified run of this construction
    assert len(behrend_set(1000)) == 34


def test_trivial_only_identity_for_embedded_ap_free_sets():
    members = behrend_set(300)
    p = next_prime_above(3 * max(members))
    f = dense_indicator(p, members)
    assert additive_counts(members, p).pairs == len(members)
    assert abs(lambda_direct(f, f, f) - len(members) / p**2) < 1e-12


# sets in [0, 330] lie inside [0, P/3] for this P, so no sum wraps
COUNT_P = next_prime_above(3 * 330)


def _count_sets():
    """Sets in [0, 330]: inside [0, P/3] for P = COUNT_P, so no sum wraps."""
    rng = np.random.default_rng(331)
    sets = [stanley_digits(330), behrend_set(330)]
    sets += [
        sorted(rng.choice(331, size=size, replace=False).tolist())
        for size in (20, 60, 110)
    ]
    return sets


@pytest.mark.parametrize("index", range(5))
def test_additive_counts_against_brute_force(index):
    members = _count_sets()[index]
    counts = additive_counts(members, COUNT_P)
    assert counts.pairs == len(members) + 2 * count_3aps_brute(members)
    assert counts.energy == additive_energy_brute(members)
    assert counts.rounding_error <= AUTOCONVOLUTION_ROUNDING_BOUND


@pytest.mark.parametrize("index", [0, 1, 4])
def test_additive_pairs_are_the_operator_on_an_embedding(index):
    members = _count_sets()[index]
    p = COUNT_P
    ind = np.zeros(p)
    ind[members] = 1.0
    scaled = lambda_enumerate(ind, ind, ind) * p * p
    assert abs(scaled - additive_counts(members, p).pairs) < 1e-6


@pytest.mark.parametrize("p", (5, 101, 1009))
def test_additive_counts_mod_p_of_wrapped_sets(p):
    # random sets over all of Z/PZ, so sums wrap and r folds: the pairs
    # are the double sum's P^2 * lambda, the energy P^3 * sum |1_S^|^4
    rng = np.random.default_rng(p + 3)
    for size in (2, p // 3, p - 1):
        members = np.sort(rng.choice(p, size=size, replace=False))
        counts = additive_counts(members, p)
        f = dense_indicator(p, members)
        assert abs(counts.pairs - lambda_direct(f, f, f) * p * p) < 1e-6
        fourth = cyclic.ScaledIndicator(p, members, 1.0).spectrum().fourth_moment()
        assert math.isclose(counts.energy, p**3 * fourth, rel_tol=1e-12)


def test_additive_counts_of_an_interval_wrapped_past_p():
    # the interval [0, L) with 2L - 2 < P and its translate across P - 1:
    # the same cyclic counts, x + z = 2y when x = z mod 2, and the energy
    # sum_s r(s)^2 with r the tent 1, 2, ..., L, ..., 2, 1
    p = 8388593
    length = p // 2
    pairs = (length // 2) ** 2 + ((length + 1) // 2) ** 2
    energy = (2 * length**3 + length) // 3
    interval = np.arange(length, dtype=np.int64)
    for members in (interval, (interval + (p - p // 4)) % p):
        counts = additive_counts(members, p)
        assert (counts.pairs, counts.energy) == (pairs, energy)
        assert counts.rounding_error < AUTOCONVOLUTION_ROUNDING_BOUND


def test_additive_counts_of_small_sets():
    empty = additive_counts([], 101)
    assert (empty.pairs, empty.energy) == (0, 0)
    single = additive_counts([5], 101)
    assert (single.pairs, single.energy) == (1, 1)
    # (0, 2) and (2, 0) around 1, plus the three pairs (y, y);
    # r = 1, 2, 3, 2, 1 on the sums 0..4
    ap = additive_counts([0, 1, 2], 101)
    assert (ap.pairs, ap.energy) == (5, 19)
    # mod 7 the sum 4 + 4 = 8 folds onto 1 = 0 + 1 = 2 * 4, so (1, 4, 0) is a
    # progression: r = 1, 3, 1, 0, 2, 2, 0, where the integers give pairs 3
    # and energy 15
    wrapped = additive_counts([0, 1, 4], 7)
    assert (wrapped.pairs, wrapped.energy) == (5, 19)
    for outside in ([-1, 2], [0, 101]):
        with pytest.raises(InvalidArgumentError, match=r"residues in \[0, 101\)"):
            additive_counts(outside, 101)


def test_additive_counts_hold_no_integer_copy_of_the_autoconvolution():
    # the autoconvolution is written over the indicator, 8S bytes; a half
    # spectrum beside it, or rounded, int64 and squared copies of r, would
    # add 8S each
    rng = np.random.default_rng(7)
    members = np.flatnonzero(rng.random(200_001) < 0.1)
    size = 2 * _five_smooth_at_least(int(members[-1]) + 1)
    p = next_prime_above(2 * int(members[-1]))  # r is shorter than P: no fold
    tracemalloc.start()
    try:
        counts = additive_counts(members, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * size
    # numpy's real FFT gives the same counts, and the whole-array rounding
    # of the same convolution the same rounding error
    indicator = np.zeros(size)
    indicator[members] = 1.0
    reference = np.fft.irfft(np.fft.rfft(indicator) ** 2, n=size)[: 2 * int(members[-1]) + 1]
    r = np.rint(reference).astype(np.int64)
    assert counts.pairs == int(r[2 * members].sum())
    assert counts.energy == int((r * r).sum())
    r_float = _real_convolution(indicator)[: 2 * int(members[-1]) + 1]
    assert np.array_equal(np.rint(r_float), r)
    assert counts.rounding_error == float(np.max(np.abs(r_float - np.rint(r_float))))


def test_additive_counts_check_their_rounding(monkeypatch):
    def shifted(*args):
        out = _real_convolution(*args)
        out += 0.01
        return out

    monkeypatch.setattr(cyclic, "_real_convolution", shifted)
    with pytest.raises(InvariantError):
        additive_counts([0, 1, 3, 7], 101)

    def off_by_one(*args):
        out = _real_convolution(*args)
        out[0] += 1.0
        return out

    monkeypatch.setattr(cyclic, "_real_convolution", off_by_one)
    with pytest.raises(InvariantError):
        additive_counts([0, 1, 3, 7], 101)


@pytest.mark.parametrize("p", [2, 3])
def test_fourier_at_the_smallest_moduli(p):
    rng = np.random.default_rng(p)
    for _ in range(5):
        f, g, h = random_triple(p, rng)
        assert math.isclose(
            lambda_fourier(f, g, h), lambda_direct(f, g, h), rel_tol=1e-12
        )


def _gathered_lambda(fs, gs, hs):
    """fixed_sum of Re(fs(t) * gs(-2t) * hs(t)) over all t, with gs(-2t)
    gathered through an index array and each product in the written
    operand order."""
    p = fs.size
    gathered = gs[(-2 * np.arange(p, dtype=np.int64)) % p]
    products = np.multiply(fs, gathered)
    products *= hs
    return fixed_sum(products.real)


def test_fourier_past_one_sum_block():
    p = 10007
    assert p > SUM_BLOCK
    f, g, h = random_triple(p, np.random.default_rng(10007))
    lam = lambda_fourier(f, g, h)
    assert math.isclose(lam, lambda_direct(f, g, h), rel_tol=1e-12)
    gathered = _gathered_lambda(
        f.spectrum().full(), g.spectrum().full(), h.spectrum().full()
    )
    assert abs(lam - gathered) <= 1e-13 * abs(gathered)


def test_half_spectrum_products_sum_in_the_full_order():
    # complex products are not bitwise commutative, and past 256 KiB numpy
    # may reuse the temporary gs(-2t) in place and so swap the operands of
    # fs * gs(-2t); the half-spectrum form multiplies in the written order.
    # Point masses at 0, 1 and 5 hold no progression, so lambda is 0 and
    # the computed value is rounding alone: every product counts, to the
    # last bit.
    p = 20011
    f, g, h = (dense_indicator(p, [x], scale=p) for x in (0, 1, 5))
    lam = lambda_of_spectra(p, *(fn.spectrum().half for fn in (f, g, h)))
    assert abs(lam) < 1e-9
    assert lam == _gathered_lambda(*(fn.spectrum().full() for fn in (f, g, h)))


# both strided views of gs(-2t) and the m // 2 boundary between them at
# every P past 3; m + 1 = (P + 1) / 2 is 4090, 4096 and 4105 terms about
# one SUM_BLOCK at 8179, 8191 and 8209
STREAMED_LAMBDA_MODULI = (2, 3, 5, 7, 11, 101, 8179, 8191, 8209, 40009)


@pytest.mark.parametrize("p", STREAMED_LAMBDA_MODULI)
def test_streamed_lambda_is_bit_equal_to_the_full_length_form(p):
    rng = np.random.default_rng(p)
    triples = [
        random_triple(p, rng),
        # point masses: lambda is rounding alone, so every product counts
        tuple(dense_indicator(p, [x], scale=p) for x in (0, 1, 5)),
    ]
    for f, g, h in triples:
        got = lambda_of_spectra(p, *(fn.spectrum().half for fn in (f, g, h)))
        want = lambda_of_full_spectra(*(fn.spectrum().full() for fn in (f, g, h)))
        assert got == want
    # delta_sweep's form: a complex half times a real, symmetric kernel
    a_spectrum = random_triple(p, rng)[0].spectrum()
    kernel = rng.random(p // 2 + 1)
    product = a_spectrum.half * kernel
    full_kernel = np.concatenate((kernel, kernel[p - kernel.size : 0 : -1]))
    full_product = a_spectrum.full() * full_kernel
    got = lambda_of_spectra(p, product, product, product)
    assert got == lambda_of_full_spectra(full_product, full_product, full_product)


def test_streamed_lambda_makes_no_half_length_complex_temporary():
    # only its m + 1 float64 terms (8 * (P//2 + 1) bytes) and block scratch
    p = 100003
    halves = [fn.spectrum().half for fn in random_triple(p, np.random.default_rng(3))]
    tracemalloc.start()
    try:
        lambda_of_spectra(p, *halves)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (p // 2 + 1) + (1 << 20)


def test_additive_counts_of_shuffled_input_with_duplicates(monkeypatch):
    lengths = []

    def recording_convolution(values, *args):
        lengths.append(values.size)
        return _real_convolution(values, *args)

    monkeypatch.setattr(cyclic, "_real_convolution", recording_convolution)
    rng = np.random.default_rng(77)
    for limit, size in [(40, 15), (331, 60), (1000, 120)]:
        members = rng.choice(limit + 1, size=size, replace=False).tolist()
        shuffled = members + members[: size // 3]
        rng.shuffle(shuffled)
        counts = additive_counts(np.array(shuffled), next_prime_above(3 * limit))
        assert counts.pairs == len(members) + 2 * count_3aps_brute(members)
        assert counts.energy == additive_energy_brute(members)
        # the least even 2^a 3^b 5^c that holds every sum 0 .. 2 * max(A)
        least = 2 * max(members) + 1
        while least % 2 or not _is_five_smooth(least):
            least += 1
        assert lengths[-1] == least


def _is_five_smooth(n):
    for factor in (2, 3, 5):
        while n % factor == 0:
            n //= factor
    return n == 1
