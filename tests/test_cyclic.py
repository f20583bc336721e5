import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ap3lab import cyclic
from ap3lab.cyclic import (
    SUM_BLOCK,
    CyclicFunction,
    ScaledIndicator,
    Spectrum,
    fixed_sum,
    forward_transform,
    inverse_transform,
    load_function,
    lp_norm,
    mirrored_sum,
    save_spectrum,
    spectral_lp_norm,
    threshold_spectrum,
)
from ap3lab.bohr import build_bohr_set
from ap3lab.errors import InvalidArgumentError, ResourceLimitError
from ap3lab.primes import is_prime
from conftest import (
    direct_convolve,
    direct_forward,
    fft_convolve,
    gathered_full,
    lp_norm_unblocked,
    read_spectrum,
    save_function,
    threshold_of_full_spectrum,
)

MODULI = (2, 3, 5, 61, 101, 1009, 2003)


def random_function(p, rng, shift=0.0):
    return CyclicFunction(p, rng.random(p) + shift)


def test_constant_transforms_to_point_mass():
    f = CyclicFunction(101, np.full(101, 3.5))
    coeffs = f.spectrum().full()
    assert abs(coeffs[0] - 3.5) < 1e-12
    assert np.max(np.abs(coeffs[1:])) < 1e-12


def test_point_mass_transforms_to_constant():
    p = 101
    f = CyclicFunction.indicator(p, [0], scale=float(p))
    coeffs = f.spectrum().full()
    assert np.max(np.abs(coeffs - 1.0)) < 1e-12


def test_sign_convention_is_plus_in_the_forward_exponent():
    # f(x) = cos(2 pi x / P) + sin(2 pi x / P): under the e^{+2 pi i x t / P}
    # average, coefficient 1 must be (1 + i)/2 and coefficient P-1 its conjugate.
    p = 101
    x = np.arange(p)
    f = CyclicFunction(p, np.cos(2 * np.pi * x / p) + np.sin(2 * np.pi * x / p))
    coeffs = f.spectrum().full()
    assert abs(coeffs[1] - (0.5 + 0.5j)) < 1e-12
    assert abs(coeffs[p - 1] - (0.5 - 0.5j)) < 1e-12


@pytest.mark.parametrize("p", MODULI)
def test_forward_matches_direct_sum(p):
    rng = np.random.default_rng(p)
    f = random_function(p, rng)
    got = f.spectrum().full()
    want = direct_forward(f.values)
    assert np.max(np.abs(got - want)) < 1e-9 * lp_norm(f, 2) * math.sqrt(p)


def _random_on(p, rng, support):
    values = np.zeros(p)
    support = np.asarray(support, dtype=np.int64) % p
    values[support] = rng.random(support.size) + 0.5
    return values


# shape -> (P, rng) -> values; each puts the nonzero values in another window
SUPPORT_SHAPES = {
    "all-zero": lambda p, rng: np.zeros(p),
    "point-at-0": lambda p, rng: _random_on(p, rng, [0]),
    "point-at-last": lambda p, rng: _random_on(p, rng, [p - 1]),
    "wrapped": lambda p, rng: _random_on(p, rng, range(-(p // 10), p // 10 + 1)),
    "first-third": lambda p, rng: _random_on(p, rng, range(1, p // 3 + 1)),
    "dense": lambda p, rng: rng.random(p) + 0.5,
}


@pytest.mark.parametrize("shape", sorted(SUPPORT_SHAPES))
@pytest.mark.parametrize("p", MODULI)
def test_forward_matches_direct_sum_on_every_support_shape(p, shape):
    # P = 2, 3 and 5 transform at S <= 4, a grid of a single row
    values = SUPPORT_SHAPES[shape](p, np.random.default_rng(p))
    got = forward_transform(CyclicFunction(p, values)).full()
    assert np.max(np.abs(got - direct_forward(values))) < 1e-12
    assert np.max(np.abs(got - np.fft.ifft(values))) < 1e-13


@pytest.mark.parametrize("shape", sorted(SUPPORT_SHAPES))
def test_upper_half_is_the_bitwise_conjugate_of_the_lower(shape):
    p = 2003
    values = SUPPORT_SHAPES[shape](p, np.random.default_rng(5))
    coeffs = forward_transform(CyclicFunction(p, values)).full()
    t = np.arange(1, p)
    assert np.array_equal(coeffs[p - t], np.conj(coeffs[t]))


@pytest.mark.parametrize("shape", ["wrapped", "first-third", "dense"])
@pytest.mark.parametrize("p", [100003, 500009])
def test_forward_matches_numpy_past_one_twiddle_block(p, shape):
    # grids of 135 to 1875 rows: several blocks of _TWIDDLE_ROWS rows,
    # each grid with a partial last one
    values = SUPPORT_SHAPES[shape](p, np.random.default_rng(p))
    got = forward_transform(CyclicFunction(p, values)).full()
    assert np.max(np.abs(got - np.fft.ifft(values))) < 1e-13


def test_transform_lengths_follow_the_support(monkeypatch):
    # a on [1, P/3], as the lift builds it: the convolution needs
    # P//2 + P/3 points, against P//2 + P untrimmed (759375 at this P)
    p = 500009
    values = SUPPORT_SHAPES["first-third"](p, np.random.default_rng(7))
    calls = []  # (array size, length of the transformed axis)

    def recording(transform):
        def wrapped(a, *args, axis=-1, **kwargs):
            calls.append((np.size(a), np.shape(a)[axis]))
            return transform(a, *args, axis=axis, **kwargs)
        return wrapped

    monkeypatch.setattr(np.fft, "fft", recording(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", recording(np.fft.ifft))
    forward_transform(CyclicFunction(p, values))
    assert calls
    size = max(n for n, _ in calls)
    assert size <= 419904 and size != p
    assert all(axis_length < size for _, axis_length in calls)
    n = size
    for factor in (2, 3, 5):
        while n % factor == 0:
            n //= factor
    assert n == 1


def _indicator_cases():
    """(case, P, support, scale): a random support and a single member at
    each modulus, a support whose shortest window wraps past P - 1, B+ of
    a Bohr set that is not a progression, and two zero functions."""
    rng = np.random.default_rng(34)
    cases = []
    for p in (2, 3, 5, 101, 2003, 100003):
        cases.append((f"random-{p}", p, np.flatnonzero(rng.random(p) < 0.3), 1.7))
        cases.append((f"single-{p}", p, np.array([p // 2]), 2.5))
    for p in (101, 2003, 100003):
        cases.append((f"wrapping-{p}", p, np.array([1, 2, 5, p - 7, p - 3]), 0.3))
    bohr = build_bohr_set(2003, [1, 7], "0.2")
    members = bohr.members()
    cases.append(("bohr-half", 2003, members[1 : 1 + bohr.size // 2], 2 * 2003 / bohr.size))
    cases.append(("empty", 101, np.array([], dtype=np.int64), 1.0))
    cases.append(("zero-scale", 101, np.array([3, 4]), 0.0))
    return cases


INDICATOR_CASES = _indicator_cases()


@pytest.mark.parametrize("case, p, support, scale", INDICATOR_CASES,
                         ids=[case[0] for case in INDICATOR_CASES])
def test_support_transform_is_the_dense_transform_in_every_bit(case, p, support, scale):
    held = ScaledIndicator(p, support, scale).spectrum().half
    dense = forward_transform(CyclicFunction.indicator(p, support.tolist(), scale)).half
    assert held.shape == dense.shape
    assert np.array_equal(held.view(np.uint64), dense.view(np.uint64))
    if case.startswith("wrapping"):
        x0, length = cyclic._support_window(support, p)
        assert x0 == p - 7 and x0 + length > p


def test_scaled_indicator_holds_only_its_support(monkeypatch):
    support = np.array([1, 4, 9], dtype=np.int64)
    f = ScaledIndicator(101, support, 2.0)
    assert f.modulus == 101 and f.scale == 2.0 and f.support is support
    with pytest.raises(ValueError):
        f.support[0] = 2
    calls = []
    exact = cyclic.forward_transform

    def recording(g):
        calls.append(g)
        return exact(g)

    monkeypatch.setattr(cyclic, "forward_transform", recording)
    assert f.spectrum() is f.spectrum()
    assert calls == [f]


@pytest.mark.parametrize("support, scale, fragment", [
    ([3, 1], 1.0, "ascending distinct residues"),
    ([1, 1], 1.0, "ascending distinct residues"),
    ([-1, 3], 1.0, "ascending distinct residues"),
    ([3, 101], 1.0, "ascending distinct residues"),
    ([[1, 2]], 1.0, "ascending distinct residues"),
    ([1, 2], math.inf, "scale must be finite"),
    ([1, 2], math.nan, "scale must be finite"),
])
def test_scaled_indicator_validation(support, scale, fragment):
    with pytest.raises(InvalidArgumentError, match=fragment):
        ScaledIndicator(101, support, scale)
    with pytest.raises(InvalidArgumentError, match="not prime"):
        ScaledIndicator(100, [1, 2], 1.0)


def test_fourth_moment_is_the_spectral_sum_formed_once(monkeypatch):
    s = random_function(2003, np.random.default_rng(9)).spectrum()
    power = np.abs(s.full())
    power = power * power * power * power
    formed = []
    powers = cyclic._powers
    monkeypatch.setattr(cyclic, "_powers", lambda k: formed.append(k) or powers(k))
    assert s.fourth_moment() == fixed_sum(power)
    threshold_spectrum(s, 0.05)
    threshold_spectrum(s, 0.1)
    assert s.fourth_moment() == fixed_sum(power)
    assert formed == [4]


# 2^k, 3^k, 5^k and mixed, from a single row or column to grids of
# several twiddle blocks with a partial last one
ROW_COLUMN_SIZES = (2, 3, 5, 1024, 65536, 2187, 59049, 3125, 78125, 30, 150000, 419904)


@pytest.mark.parametrize("size", ROW_COLUMN_SIZES)
def test_fft_columns_is_the_nearest_divisor(size):
    divisors = [d for d in range(1, size + 1) if size % d == 0]
    want = min(divisors, key=lambda d: (abs(d - cyclic._FFT_ROW_LENGTH), d))
    assert cyclic._fft_columns(size) == want


def _row_column_grids(size):
    return sorted({1, size, cyclic._fft_columns(size), size // cyclic._fft_columns(size)})


@pytest.mark.parametrize("size", ROW_COLUMN_SIZES)
def test_row_column_fft_is_numpys_in_transposed_order(size):
    rng = np.random.default_rng(size)
    x = rng.random(size) + 1j * rng.random(size) - (0.5 + 0.5j)
    want = np.fft.fft(x)
    for columns in _row_column_grids(size):
        rows = size // columns
        got = x.copy()
        cyclic._row_column_fft(got, columns)
        transposed = want.reshape(columns, rows).T.ravel()
        assert np.max(np.abs(got - transposed)) < 1e-13 * np.max(np.abs(want))
        cyclic._row_column_fft(got, columns, inverse=True)
        assert np.max(np.abs(got - x)) < 1e-13


@pytest.mark.parametrize("size", ROW_COLUMN_SIZES)
def test_row_column_fft_convolves_like_numpy(size):
    rng = np.random.default_rng(size + 1)
    x = rng.random(size) + 1j * rng.random(size)
    y = rng.random(size) - 1j * rng.random(size)
    want = np.fft.ifft(np.fft.fft(x) * np.fft.fft(y))
    for columns in _row_column_grids(size):
        got, kernel = x.copy(), y.copy()
        cyclic._row_column_fft(got, columns)
        cyclic._row_column_fft(kernel, columns)
        got *= kernel
        cyclic._row_column_fft(got, columns, inverse=True)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


# half-lengths S/2 of _real_convolution: with their nearest-divisor grids
# R x C these have R = 1, 2, 3, 4 and 200 (pair blocks with a partial last
# one); _row_column_grids adds one column, one row and the transpose
HALF_LENGTHS = (1, 2, 3, 30, 600, 1000, 1536, 2048, 2187, 102400)


@pytest.mark.parametrize("half", HALF_LENGTHS)
@pytest.mark.parametrize("cross", [False, True])
def test_real_convolution_matches_numpys_real_fft(monkeypatch, half, cross):
    rng = np.random.default_rng(half + cross)
    x = rng.standard_normal(2 * half)
    y = rng.standard_normal(2 * half) if cross else x
    want = np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(y), n=2 * half)
    for columns in _row_column_grids(half):
        monkeypatch.setattr(cyclic, "_fft_columns", lambda size: columns)
        buffer = x.copy()
        got = cyclic._real_convolution(buffer, y.copy() if cross else None)
        assert got is buffer
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("half", [1, 3, 1536, 2048])
def test_real_convolution_of_the_empty_set_and_of_single_members(half):
    empty = cyclic._real_convolution(np.zeros(2 * half))
    assert not np.any(empty)
    size = 2 * half
    for m, n in [(0, 0), (size - 1, 0), (1, size - 1), (half, half // 2 + 1)]:
        single, other = np.zeros(size), np.zeros(size)
        single[m], other[n] = 1.0, 1.0
        want = np.zeros(size)
        want[2 * m % size] = 1.0
        assert np.max(np.abs(cyclic._real_convolution(single.copy()) - want)) < 1e-14
        want = np.roll(want, n - m)  # the sum m + n
        assert np.max(np.abs(cyclic._real_convolution(single, other) - want)) < 1e-14


def _sum_count_cases():
    """(X, Y or None): random auto and cross cases, the empty set,
    singletons, sets that contain 0, and one whose sums span several
    blocks of _COUNT_BLOCK values."""
    rng = np.random.default_rng(17)
    cases = [([], None), ([], [0, 3]), ([4, 9], []), ([0], None), ([7], None),
             ([0], [0]), ([5], [0]), ([0, 1, 2], None), ([0, 2], [0, 5, 6])]
    for size, limit in [(5, 20), (40, 300), (200, 1000)]:
        x = rng.choice(limit, size=size, replace=False)
        y = rng.choice(limit // 2, size=size // 2 + 1, replace=False)
        cases += [(x, None), (x, y), (y, x)]
    cases.append(([0, 70_000, 131_000], rng.choice(1000, size=30, replace=False)))
    return cases


@pytest.mark.parametrize("index", range(len(_sum_count_cases())))
def test_sum_counts_match_a_brute_force_count(index):
    x, y = _sum_count_cases()[index]
    x = np.asarray(x, dtype=np.int64)
    others = x if y is None else np.asarray(y, dtype=np.int64)
    want = np.zeros(int(x.max(initial=0)) + int(others.max(initial=0)) + 1)
    for u in x.tolist():
        for v in others.tolist():
            want[u + v] += 1
    r, rounding_error = cyclic._sum_counts(x, None if y is None else others)
    assert r.dtype == np.float64 and np.array_equal(r, want)
    assert 0 <= rounding_error <= cyclic.AUTOCONVOLUTION_ROUNDING_BOUND


def test_five_smooth_lengths():
    assert [cyclic._five_smooth_at_least(n) for n in (1, 2, 7, 11, 17, 31, 97)] == [
        1, 2, 8, 12, 18, 32, 100,
    ]
    assert cyclic._five_smooth_at_least(416674) == 419904
    assert cyclic._five_smooth_at_least(750013) == 759375


def test_exact_phase_guard_bounds_the_int64_square():
    top = cyclic._EXACT_PHASE_MAX_MODULUS
    int64_max = np.iinfo(np.int64).max
    assert (2 * top - 1) ** 2 <= int64_max < (2 * top + 1) ** 2


def test_exact_phase_guard_holds_under_optimized_mode():
    # the guard lowered to a tiny range: P = 61 still transforms, 101 is refused
    script = """
import numpy as np
from ap3lab import cyclic
from ap3lab.errors import ResourceLimitError

assert False, "this assert must be stripped"
cyclic._EXACT_PHASE_MAX_MODULUS = 100
cyclic.forward_transform(cyclic.CyclicFunction(61, np.ones(61)))
try:
    cyclic.forward_transform(cyclic.CyclicFunction(101, np.ones(101)))
except ResourceLimitError as exc:
    print("refused:", exc)
"""
    src = Path(cyclic.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.startswith("refused: P = 101 is past 100")


def test_exact_phase_guard_refuses_before_allocating(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("an array was allocated past the guard")

    monkeypatch.setattr(cyclic, "_EXACT_PHASE_MAX_MODULUS", 100)
    f = CyclicFunction(101, np.ones(101))
    monkeypatch.setattr(np, "zeros", unreachable)
    monkeypatch.setattr(np, "flatnonzero", unreachable)
    with pytest.raises(ResourceLimitError):
        forward_transform(f)


@pytest.mark.parametrize(
    "p, start, stop",
    [(2, -2, 3), (5, -8, 9), (101, -200, 201), (100003, -200004, 50002),
     (100003, 7, 7 + 3 * cyclic._CHIRP_BLOCK + 5)],
)
def test_chirp_tables_match_cos_and_sin(p, start, stop):
    # fine * coarse table entries against exp(i*pi*phi/P) at the exact phase
    # phi = n^2 mod 2P, over several blocks and a partial one
    out = np.empty(stop - start, dtype=complex)
    cyclic._chirp(start, stop, p, out)
    n = np.arange(start, stop, dtype=np.int64)
    angle = (n * n % (2 * p)) * (np.pi / p)
    assert np.max(np.abs(out - (np.cos(angle) + 1j * np.sin(angle)))) < 2e-15


@pytest.mark.parametrize("p", MODULI + (100003,))
def test_spectrum_holds_only_the_lower_half(p):
    f = random_function(p, np.random.default_rng(p))
    s = forward_transform(f)
    assert s.half.nbytes == 16 * (p // 2 + 1)
    full = s.full()
    assert np.array_equal(full, gathered_full(s.half, p))
    assert np.array_equal(Spectrum(p, full[: p // 2 + 1]).half, s.half)
    if p > 2:  # at P = 2 the half is both coefficients
        with pytest.raises(InvalidArgumentError):
            Spectrum(p, full)  # a length-P array is not a half spectrum


@pytest.mark.parametrize(
    "size",
    [2, 3, 5, SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1, 2 * SUM_BLOCK - 1,
     2 * SUM_BLOCK + 1, 8191, 3 * SUM_BLOCK + 17],
)
def test_mirrored_sum_is_the_fixed_sum_of_the_mirrored_sequence(size):
    half = np.random.default_rng(size).standard_normal(size // 2 + 1) * 1e3
    sequence = gathered_full(half + 0j, size).real
    assert mirrored_sum(half, size) == fixed_sum(sequence)
    cubes = mirrored_sum(half, size, lambda view, out: np.multiply(view, view * view, out=out))
    assert cubes == fixed_sum(sequence * (sequence * sequence))


@pytest.mark.parametrize("p", [2, 3, 101, 1009, 8191, 40009])
def test_threshold_spectrum_matches_the_full_length_oracle(p):
    rng = np.random.default_rng(p)
    for f in (random_function(p, rng), CyclicFunction.indicator(p, range(0, p, 3))):
        s = f.spectrum()
        raw, fourth_moment = threshold_of_full_spectrum(s.full(), 0.0)
        fourth = mirrored_sum(np.abs(s.half), p, cyclic._powers(4))
        assert fourth == pytest.approx(fourth_moment, rel=1e-12)
        for delta in (1e-3, 0.01, 0.05, 0.3):
            raw, _ = threshold_of_full_spectrum(s.full(), delta)
            freqs, raw_size = threshold_spectrum(s, delta)
            assert raw_size == raw.size
            assert np.array_equal(freqs, np.union1d(raw, [1]))


def test_spectral_norm_is_a_fixed_order_sum_with_no_length_p_temporary():
    p = 100003
    s = random_function(p, np.random.default_rng(4)).spectrum()
    magnitudes = np.abs(s.full())
    for k in (1, 2, 4, 2.5):
        if float(k).is_integer():
            power = magnitudes.copy()
            for _ in range(int(k) - 1):
                power *= magnitudes
        else:
            power = magnitudes**k
        assert spectral_lp_norm(s, k) == fixed_sum(power) ** (1.0 / k)
    tracemalloc.start()
    try:
        spectral_lp_norm(s, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("p", MODULI)
def test_round_trip_identity(p):
    rng = np.random.default_rng(p + 1)
    f = random_function(p, rng)
    back = inverse_transform(f.spectrum())
    assert np.max(np.abs(back.values - f.values)) < 1e-9 * np.max(np.abs(f.values))


def test_inverse_of_single_coefficient_spectrum():
    p = 101
    s = Spectrum(p, np.eye(p // 2 + 1, dtype=complex)[0] * 2.5)
    f = inverse_transform(s)
    assert np.max(np.abs(f.values - 2.5)) < 1e-12
    # all-ones spectrum is the dual point mass
    g = inverse_transform(Spectrum(p, np.ones(p // 2 + 1, dtype=complex)))
    expected = np.zeros(p)
    expected[0] = p
    assert np.max(np.abs(g.values - expected)) < 1e-9


@pytest.mark.parametrize("p", MODULI)
def test_convolution_matches_direct_sum(p):
    # the FFT oracle, which the tests use where P is too large for the sum
    rng = np.random.default_rng(p + 2)
    f, g = rng.random(p), rng.random(p)
    assert np.max(np.abs(fft_convolve(f, g) - direct_convolve(f, g))) < 1e-10


@pytest.mark.parametrize("p", (101, 1009, 2003))
def test_plancherel_inner_product(p):
    rng = np.random.default_rng(p + 3)
    f, g = random_function(p, rng), random_function(p, rng)
    space = float(np.mean(f.values * g.values))
    freq = complex(
        np.sum(f.spectrum().full() * np.conj(g.spectrum().full()))
    )
    assert abs(space - freq) < 1e-10 * lp_norm(f, 2) * lp_norm(g, 2)


@pytest.mark.parametrize("p", (101, 1009, 2003))
def test_convolution_theorem(p):
    rng = np.random.default_rng(p + 4)
    f, g = random_function(p, rng), random_function(p, rng)
    lhs = forward_transform(CyclicFunction(p, direct_convolve(f.values, g.values))).full()
    rhs = f.spectrum().full() * g.spectrum().full()
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_l1_multiplicativity_for_nonnegative_functions():
    rng = np.random.default_rng(9)
    p = 1009
    f, g = random_function(p, rng), random_function(p, rng)
    got = lp_norm(CyclicFunction(p, direct_convolve(f.values, g.values)), 1)
    want = lp_norm(f, 1) * lp_norm(g, 1)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_indicator_norms():
    f = CyclicFunction.indicator(101, range(17))
    assert math.isclose(lp_norm(f, 1), 17 / 101, rel_tol=1e-12)
    assert math.isclose(lp_norm(f, 2), math.sqrt(17 / 101), rel_tol=1e-12)


def test_lp_monotonicity():
    rng = np.random.default_rng(10)
    f = random_function(1009, rng)
    exponents = [1.0, 1.5, 2.0, 3.0, 4.0, 8.0]
    norms = [lp_norm(f, k) for k in exponents]
    for small, large in zip(norms, norms[1:]):
        assert small <= large * (1 + 1e-12)


@pytest.mark.parametrize("size", [0, 1, SUM_BLOCK - 1, SUM_BLOCK, 3 * SUM_BLOCK + 17])
def test_fixed_sum_follows_its_documented_order(size):
    values = np.random.default_rng(size).standard_normal(size) * 1e3
    partial = [0.0] * SUM_BLOCK
    rows = size // SUM_BLOCK
    for i in range(rows * SUM_BLOCK):
        partial[i % SUM_BLOCK] += float(values[i])
    want = math.fsum(partial + values[rows * SUM_BLOCK :].tolist())
    assert fixed_sum(values) == want
    assert math.isclose(want, math.fsum(values.tolist()), rel_tol=1e-12, abs_tol=1e-9)


def test_integer_exponent_norm_is_repeated_multiplication():
    values = np.random.default_rng(13).random(1009) * 3.0
    f = CyclicFunction(1009, values)
    for k in (1, 2, 6):
        powers = [1.0] * values.size
        for _ in range(k):
            powers = [acc * float(v) for acc, v in zip(powers, values)]
        assert lp_norm(f, k) == (fixed_sum(np.array(powers)) / 1009) ** (1.0 / k)
    assert f.mean() == fixed_sum(values) / 1009


@pytest.mark.parametrize(
    "size",
    [1, SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1, 3 * SUM_BLOCK - 1, 3 * SUM_BLOCK,
     3 * SUM_BLOCK + 1],
)
def test_streamed_norm_is_bit_equal_to_the_whole_array_formula(size):
    # a sum of many powers hides a last-bit change in one of them, but a
    # single nonzero value shows a power formed otherwise than by repeated
    # multiplication for about 1 in 10 values: 64 such functions follow
    rng = np.random.default_rng(size)
    functions = [rng.standard_normal(size) * 3.0]
    for _ in range(64):
        spike = np.zeros(size)
        spike[rng.integers(size)] = rng.standard_normal() * 3.0
        functions.append(spike)
    # lp_norm's sum, taken on the values since most of these lengths are
    # not prime; at the prime 3 * SUM_BLOCK + 1 lp_norm itself is checked
    for values in functions:
        for k in (1, 2, 3, 4, 6, 2.5):
            want = lp_norm_unblocked(values, k)
            streamed = mirrored_sum(values, size, cyclic._powers(k))
            assert (streamed / size) ** (1.0 / k) == want
            if is_prime(size):
                assert lp_norm(CyclicFunction(size, values), k) == want


def test_l2_norm_equals_spectral_l2():
    rng = np.random.default_rng(11)
    f = random_function(1009, rng)
    assert math.isclose(
        lp_norm(f, 2), spectral_lp_norm(f.spectrum(), 2), rel_tol=1e-10
    )


def test_spectral_norm_examples():
    p = 101
    const = CyclicFunction(p, np.full(p, 2.0)).spectrum()
    for k in (1.0, 2.0, 4.0):
        assert math.isclose(spectral_lp_norm(const, k), 2.0, rel_tol=1e-9)
    mass = CyclicFunction.indicator(p, [0], scale=float(p)).spectrum()
    assert math.isclose(spectral_lp_norm(mass, 4), p ** 0.25, rel_tol=1e-9)


def test_norm_exponent_validation():
    f = CyclicFunction(5, np.full(5, 1.0))
    with pytest.raises(InvalidArgumentError):
        lp_norm(f, 0.5)
    with pytest.raises(InvalidArgumentError):
        spectral_lp_norm(f.spectrum(), 0.99)


def test_coefficients_bounded_by_l1_norm():
    rng = np.random.default_rng(12)
    f = CyclicFunction(1009, rng.standard_normal(1009))
    bound = lp_norm(f, 1) + 1e-12
    assert np.max(np.abs(f.spectrum().full())) <= bound


def test_threshold_spectrum_adjoins_one():
    const = CyclicFunction(101, np.full(101, 1.0))
    assert threshold_spectrum(const.spectrum(), 0.5)[0].tolist() == [0, 1]
    mass = CyclicFunction.indicator(101, [0], scale=101.0)
    assert threshold_spectrum(mass.spectrum(), 0.9)[0].tolist() == list(range(101))
    # a flat spectrum meets the Markov count with equality; only rounding
    # of the fourth moment separates the two sides
    for p, delta in ((101, 0.1), (1009, 0.3), (2003, 0.3)):
        flat = Spectrum(p, np.full(p // 2 + 1, delta))
        assert threshold_spectrum(flat, delta)[0].tolist() == list(range(p))
    with pytest.raises(InvalidArgumentError):
        threshold_spectrum(const.spectrum(), 0.0)


def test_threshold_spectrum_counts_the_raw_set_without_one():
    rng = np.random.default_rng(17)
    p = 1009
    spectra = [CyclicFunction(p, rng.random(p)).spectrum().full()]
    for first in (0.05, 0.1, 0.2):  # |coeff[1]| below, at and above delta = 0.1
        coeffs = rng.random(p) * 0.2 + 0j
        coeffs[1] = first
        # a spectrum of a real function: coeff[P - t] = conj(coeff[t])
        coeffs[p // 2 + 1 :] = np.conj(coeffs[p // 2 : 0 : -1])
        spectra.append(coeffs)
    below = 0
    for coeffs in spectra:
        for delta in (0.01, 0.1, 0.15):
            freqs, raw_size = threshold_spectrum(Spectrum(p, coeffs[: p // 2 + 1]), delta)
            assert raw_size == int(np.count_nonzero(np.abs(coeffs) >= delta))
            assert raw_size == freqs.size - (abs(coeffs[1]) < delta)
            below += abs(coeffs[1]) < delta
    assert below >= 3


def test_threshold_spectrum_markov_bound():
    rng = np.random.default_rng(13)
    f = CyclicFunction(1009, rng.random(1009))
    s = f.spectrum()
    for delta in (0.02, 0.05, 0.1):
        raw = int(np.count_nonzero(np.abs(s.full()) >= delta))
        assert raw <= spectral_lp_norm(s, 4) ** 4 / delta**4


def test_modulus_validation():
    with pytest.raises(InvalidArgumentError):
        CyclicFunction(100, np.zeros(100))  # composite modulus
    with pytest.raises(InvalidArgumentError):
        CyclicFunction(7, np.zeros(6))
    with pytest.raises(InvalidArgumentError):
        CyclicFunction(5, np.array([1.0, 2.0, np.nan, 0.0, 0.0]))


def test_values_are_immutable():
    f = CyclicFunction(7, np.full(7, 1.0))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    f = CyclicFunction(101, rng.random(101))
    fpath = tmp_path / "f.zpfn"
    save_function(f, fpath)
    raw = fpath.read_bytes()
    assert raw[:4] == b"ZPFN"
    assert len(raw) == 16 + 8 * 101
    back = load_function(fpath)
    assert back.modulus == 101
    assert np.array_equal(back.values, f.values)

    s = f.spectrum()
    spath = tmp_path / "f.zpsp"
    save_spectrum(s, spath)
    raw = spath.read_bytes()
    assert raw[:4] == b"ZPSP"
    assert len(raw) == 16 + 16 * 101
    back_s = read_spectrum(spath)
    assert np.array_equal(back_s.full(), s.full())


def test_saved_spectrum_holds_all_p_coefficients(tmp_path):
    # the file format holds coefficient P - t as conj(coefficient t), byte
    # for byte as a length-P spectrum was written before spectra were halved
    for p in (2, 3, 101, 8191):
        s = random_function(p, np.random.default_rng(p)).spectrum()
        path = tmp_path / f"s{p}.zpsp"
        save_spectrum(s, path)
        full = gathered_full(s.half, p)
        interleaved = np.empty(2 * p, dtype="<f8")
        interleaved[0::2], interleaved[1::2] = full.real, full.imag
        header = b"ZPSP" + (1).to_bytes(4, "little") + p.to_bytes(8, "little")
        assert path.read_bytes() == header + interleaved.tobytes()
        assert np.array_equal(read_spectrum(path).half, s.half)


MALFORMED_FILES = {
    "truncated-header": lambda blob: blob[:10],
    "version": lambda blob: blob[:4] + (2).to_bytes(4, "little") + blob[8:],
    "short-payload": lambda blob: blob[:-8],
}


@pytest.mark.parametrize("kind", ["function", "spectrum"])
@pytest.mark.parametrize("damage", sorted(MALFORMED_FILES))
def test_load_rejects_malformed_files(tmp_path, kind, damage):
    f = CyclicFunction(101, np.linspace(0.0, 1.0, 101))
    path = tmp_path / "f.bin"
    if kind == "function":
        save_function(f, path)
        load = load_function
    else:
        save_spectrum(f.spectrum(), path)
        load = read_spectrum
    path.write_bytes(MALFORMED_FILES[damage](path.read_bytes()))
    with pytest.raises(InvalidArgumentError):
        load(path)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 28)
    with pytest.raises(InvalidArgumentError):
        load_function(path)
    with pytest.raises(InvalidArgumentError):
        read_spectrum(path)
