import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ap3lab
from ap3lab import bohr as bohr_module
from ap3lab import cyclic
from ap3lab.bohr import (
    _MAX_RUNS,
    _SHIFT_COUNT_MAX_SIZE,
    _SINE_BLOCK,
    _SMALL_SINE,
    BohrSet,
    _step_runs,
    as_radius,
    build_bohr_set,
    kernel_spectrum,
    smooth,
)
from ap3lab.cyclic import CyclicFunction, Spectrum, lp_norm
from ap3lab.errors import InvalidArgumentError, InvariantError
from ap3lab.pipeline import _smoothed_statistics
from ap3lab.threeap import lambda_fourier
from conftest import (
    bohr_members_brute,
    dense_indicator,
    direct_convolve,
    direct_dft_stack,
    direct_forward,
    fft_convolve,
    lambda_direct,
    smoothed,
)


def _sigma(bohr):
    """sigma = (P/|B|) * 1_B, the probability kernel of the Bohr set."""
    return dense_indicator(bohr.modulus, bohr.members(), scale=bohr.modulus / bohr.size)


def test_single_frequency_interval():
    bohr = build_bohr_set(101, [1], "0.1")
    assert bohr.size == 21
    members = set(bohr.members().tolist())
    assert members == {n % 101 for n in range(-10, 11)}


def test_radius_half_is_everything():
    assert build_bohr_set(101, [1, 17, 30], "0.5").size == 101


def test_zero_frequency_imposes_nothing():
    assert build_bohr_set(101, [0], "0.1").size == 101


def test_contains_zero_and_symmetric():
    bohr = build_bohr_set(1009, [3, 25, 119], "0.07")
    members = bohr.members()
    assert members[0] == 0
    assert set(members.tolist()) == {(1009 - n) % 1009 for n in members.tolist()}


def test_exact_boundary_membership():
    # P = 10, eps = 1/5 would need composite P; use P = 11, eps = 2/11:
    # ||n/11|| <= 2/11 iff min(n, 11-n) <= 2, an exact integer statement.
    bohr = build_bohr_set(11, [1], Fraction(2, 11))
    assert set(bohr.members().tolist()) == {0, 1, 2, 9, 10}


def test_membership_against_fraction_oracle():
    # element-by-element oracle in exact rational arithmetic; the draws
    # include repeated, negative and >= P frequencies, and reach both a
    # scan that ends at {0} and one that keeps several members
    rng = np.random.default_rng(137)
    shapes = set()
    for _ in range(40):
        p = int(rng.choice([101, 211, 1009]))
        freqs = rng.integers(-2 * p, 2 * p, size=int(rng.integers(1, 13))).tolist()
        freqs += freqs[: int(rng.integers(0, 3))]
        eps = str(rng.choice(["0.02", "0.05", "0.1", "0.25", "0.4"]))
        bohr = build_bohr_set(p, freqs, eps)
        radius = Fraction(eps)
        want = {
            n
            for n in range(p)
            if all(
                min(Fraction(n * x % p, p), Fraction(p - n * x % p, p)) <= radius
                for x in freqs
            )
        }
        assert set(bohr.members().tolist()) == want
        assert bohr.size == len(want)
        distinct = {x % p for x in freqs} - {0}
        if len(distinct) >= 2:
            shapes.add("only zero" if want == {0} else "several members")
    assert shapes == {"only zero", "several members"}


def test_pigeonhole_lower_bound_random_cases():
    rng = np.random.default_rng(42)
    for p in (101, 1009, 10007):
        for _ in range(20):
            d = int(rng.integers(1, 7))
            freqs = rng.integers(0, p, size=d).tolist()
            eps = str(rng.choice(["0.05", "0.1", "0.2", "0.25"]))
            bohr = build_bohr_set(p, freqs, eps)
            radius = Fraction(eps)
            n_distinct = len(bohr.frequencies)
            lhs = bohr.size * radius.denominator**n_distinct
            rhs = p * radius.numerator**n_distinct
            assert lhs >= rhs


def test_nesting_in_radius_and_frequencies():
    p = 1009
    small = build_bohr_set(p, [5, 17], "0.05")
    large = build_bohr_set(p, [5, 17], "0.15")
    assert set(small.members().tolist()) <= set(large.members().tolist())
    more_freqs = build_bohr_set(p, [5, 17, 101], "0.05")
    assert set(more_freqs.members().tolist()) <= set(small.members().tolist())


def test_frequency_one_confines_support():
    p = 1009
    bohr = build_bohr_set(p, [1, 44], "0.2")
    members = bohr.members()
    assert np.all(np.minimum(members, p - members) <= 0.2 * p)


def test_radius_validation():
    with pytest.raises(InvalidArgumentError):
        build_bohr_set(101, [1], "0.6")
    with pytest.raises(InvalidArgumentError):
        build_bohr_set(101, [1], "0")
    with pytest.raises(InvalidArgumentError):
        build_bohr_set(101, [1], 0.1)  # bare float is ambiguous -> rejected
    with pytest.raises(InvalidArgumentError):
        build_bohr_set(100, [1], "0.1")  # composite modulus
    with pytest.raises(InvalidArgumentError):
        build_bohr_set(101, [], "0.1")
    assert as_radius(Fraction(1, 3)) == Fraction(1, 3)


def test_normalized_indicator_has_unit_mass():
    bohr = build_bohr_set(101, [1], "0.1")
    sigma = _sigma(bohr)
    assert math.isclose(float(np.mean(sigma.values)), 1.0, rel_tol=1e-12)
    assert math.isclose(sigma.values[0], 101 / 21, rel_tol=1e-12)
    full = _sigma(build_bohr_set(101, [0], "0.1"))
    assert np.max(np.abs(full.values - 1.0)) < 1e-12


def test_indicator_of_singleton_is_convolution_identity():
    bohr = build_bohr_set(101, [1], Fraction(1, 1000))
    assert bohr.size == 1
    sigma = _sigma(bohr)
    expected = np.zeros(101)
    expected[0] = 101.0
    assert np.array_equal(sigma.values, expected)


def test_indicator_support_inside_quarter_when_one_in_r():
    p = 1009
    sigma = _sigma(build_bohr_set(p, [1, 7], "0.2"))
    support = np.flatnonzero(sigma.values)
    assert np.all(np.minimum(support, p - support) * 4 < p)


def _lifted(p, seed, density=0.3, scale=2.5):
    """a = scale * 1_S for a random S of about density * P residues, the
    form the lift makes."""
    rng = np.random.default_rng(seed)
    return CyclicFunction(p, scale * (rng.random(p) < density))


def _count_oracle(a, bohr):
    """g(x) = #{b in B : x - b in S} for a = c * 1_S, by np.roll."""
    indicator = (a.values != 0).astype(np.int64)
    return sum(np.roll(indicator, b) for b in bohr.members().tolist())


def test_smooth_identity_and_total_cases():
    p = 1009
    a = _lifted(p, 5)
    point = build_bohr_set(p, [1], Fraction(1, 10**6))
    g = smooth(np.flatnonzero(a.values), point)
    assert g.dtype == np.uint8 and np.array_equal(g, a.values != 0)  # g = 1_S
    everything = build_bohr_set(p, [0], "0.5")
    h = smoothed(a, everything)
    assert np.max(np.abs(h.values - float(np.mean(a.values)))) < 1e-10


def test_smooth_preserves_mass_and_bounds_sup():
    p = 2003
    a = _lifted(p, 6, density=0.5, scale=math.pi)
    bohr = build_bohr_set(p, [1, 13], "0.15")
    h = smoothed(a, bohr)
    assert math.isclose(lp_norm(h, 1), lp_norm(a, 1), rel_tol=1e-10)
    assert float(h.values.min()) >= 0.0
    assert float(h.values.max()) <= math.pi * (1 + 1e-12)


def test_smoothed_spectra_match_the_direct_transform():
    # a sparse 0/1 input leaves h exactly zero on many residues, where the
    # convolution through the transform dips below zero by rounding; the
    # count has nothing to clamp
    p = 2003
    a = _lifted(p, 2003, density=0.01, scale=1.0)
    bohr = build_bohr_set(p, [1], "0.05")
    sigma = _sigma(bohr)
    raw = CyclicFunction(p, fft_convolve(a.values, sigma.values))
    h = smoothed(a, bohr)
    assert float(raw.values.min()) < 0.0
    assert float(h.values.min()) == 0.0
    tol = 1e-12 * a.mean()
    for f in (raw, h):
        assert np.max(np.abs(f.spectrum().full() - direct_forward(f.values))) < tol
    assert math.isclose(
        lambda_fourier(h, h, h), lambda_direct(h, h, h), rel_tol=1e-12
    )


# (P, frequencies, radius): Bohr sets of 11, 41, 7, 121, 133 and 201
# members, within the shifted-count cutoff, and of 345 and 281 members,
# above it. All but the 7 and the 345 are progressions {j*d : |j| <= m}.
SMOOTHING_CASES = [
    (1009, [1, 2], "0.01"),
    (1009, [1], "0.02"),
    (2003, [3, 25, 119], "0.07"),
    (1009, [1], "0.06"),
    (2003, [1, 3], "0.1"),
    (1009, [1], "0.1"),
    (2003, [1, 7], "0.2"),
    (2003, [1], "0.07"),
]


def _is_progression(members, p):
    """Whether the set is {j*d mod P : |j| <= m} for d = its least nonzero
    member and 2*m*d < P, by comparing Python sets."""
    if len(members) < 3:
        return False
    d, m = int(sorted(members)[1]), len(members) // 2
    want = {j * d % p for j in range(-m, m + 1)}
    return 2 * m * d < p and set(members.tolist()) == want


@pytest.mark.parametrize("p, freqs, eps", SMOOTHING_CASES)
def test_smooth_agrees_with_the_convolution_on_both_paths(p, freqs, eps):
    a = _lifted(p, p)
    bohr = build_bohr_set(p, freqs, eps)
    h = smoothed(a, bohr)
    assert math.isclose(lp_norm(h, 1), lp_norm(a, 1), rel_tol=1e-12)
    assert float(h.values.max()) <= 2.5 * (1 + 1e-12)
    # exactly zero off S + B, and positive on it
    assert np.array_equal(h.values > 0, _count_oracle(a, bohr) > 0)
    reference = direct_convolve(a.values, _sigma(bohr).values)
    assert np.max(np.abs(h.values - reference)) < 1e-12
    assert np.max(np.abs(h.spectrum().full() - direct_forward(h.values))) < 1e-12 * a.mean()
    assert math.isclose(
        lambda_fourier(h, h, h), lambda_direct(h, h, h), rel_tol=1e-12
    )


@pytest.mark.parametrize("p, freqs, eps", SMOOTHING_CASES)
def test_both_counts_give_the_same_bits(monkeypatch, p, freqs, eps):
    # the cutoff at 1 sends every set to the convolution, at P to the
    # shifted adds; both must give g in the least unsigned type for |B|
    a = _lifted(p, p + 1, density=0.6, scale=math.e)
    bohr = build_bohr_set(p, freqs, eps)
    want = _count_oracle(a, bohr)
    for cutoff in (1, p):
        monkeypatch.setattr(bohr_module, "_SHIFT_COUNT_MAX_SIZE", cutoff)
        g = smooth(np.flatnonzero(a.values), bohr)
        assert g.dtype == np.min_scalar_type(bohr.size)
        assert np.array_equal(g, want)


@pytest.mark.parametrize("p, freqs, eps", SMOOTHING_CASES)
def test_histogram_statistics_match_the_dense_smoothed_function(p, freqs, eps):
    # h_sup, the level set and the 2k-norms read off g's histogram against
    # a float64 evaluation of h = g * (c/|B|) over all P values
    scale = math.pi
    a = _lifted(p, p + 2, density=0.4, scale=scale)
    support = np.flatnonzero(a.values)
    bohr = build_bohr_set(p, freqs, eps)
    g = smooth(support, bohr)
    h = g * (scale / bohr.size)
    h_l1 = scale * support.size / p
    assert math.isclose(float(np.mean(h)), h_l1, rel_tol=1e-14)
    h_sup, level_size, norms = _smoothed_statistics(g, bohr.size, support.size, scale, (1, 2, 3))
    assert h_sup == float(h.max())
    assert level_size == int(np.count_nonzero(h >= h_l1 / 2))
    for k, norm in norms.items():
        want = float(np.mean(h ** (2 * k))) ** (1.0 / (2 * k))
        assert math.isclose(norm, want, rel_tol=1e-14), k


def test_smoothing_cases_reach_both_paths():
    sets = [build_bohr_set(p, f, e) for p, f, e in SMOOTHING_CASES]
    # each side of the cutoff has a progression and a set that is not one
    for small in (True, False):
        kinds = {
            _is_progression(bohr.members(), bohr.modulus)
            for bohr in sets
            if (1 < bohr.size <= _SHIFT_COUNT_MAX_SIZE) == small
        }
        assert kinds == {True, False}


@pytest.mark.parametrize("eps", ["0.005", "0.2"])
@pytest.mark.parametrize("support", [[3, 3, 7], [3, 2003], [-1, 3]],
                         ids=["repeated", "past-p", "negative"])
def test_smooth_refuses_a_support_that_is_not_a_residue_set(support, eps):
    # both counts read the support only after one check, so a bad member
    # is refused alike on either side of the shifted-count cutoff
    p = 2003
    bohr = build_bohr_set(p, [1], eps)
    assert (bohr.size <= _SHIFT_COUNT_MAX_SIZE) == (eps == "0.005")
    with pytest.raises(InvalidArgumentError, match="support must be ascending distinct"):
        smooth(np.array(support, dtype=np.int64), bohr)


@pytest.mark.parametrize("p, freqs, eps", SMOOTHING_CASES)
def test_kernel_spectrum_matches_the_direct_transform(p, freqs, eps):
    bohr = build_bohr_set(p, freqs, eps)
    sigma_hat = kernel_spectrum(bohr)
    want = direct_dft_stack(_sigma(bohr).values, p)[0] / p
    assert np.max(np.abs(sigma_hat - want[: p // 2 + 1])) < 1e-12
    assert sigma_hat.dtype == np.float64


def _crafted_kernel_spectrum(first, rest):
    def transform(f):
        half = np.full(f.modulus // 2 + 1, rest, dtype=complex)
        half[0] = first
        return Spectrum(f.modulus, half)
    return transform


# case -> (sigmahat at 0, sigmahat elsewhere, fragment of the message)
BROKEN_KERNEL_SPECTRA = {
    "mass": (0.5, 0.25, "at 0"),
    "above-one": (1.0, 1.5, "above 1"),
}


def _scattered_set(p, count, seed):
    """A symmetric set of 2*count + 1 members scattered over Z/PZ, so that
    no step splits it into few runs."""
    half = np.random.default_rng(seed).choice(np.arange(1, p // 2 + 1), count, replace=False)
    members = sorted({0} | set(half.tolist()) | set((p - half).tolist()))
    return BohrSet(p, (1,), Fraction(1, 4), members)


def test_scattered_sets_are_past_the_run_cap():
    for seed in (41, 42):
        bohr = _scattered_set(2003, 150, seed)
        assert _step_runs(bohr) is None
        for step in bohr.members()[1 : 1 + bohr_module._STEP_CANDIDATES].tolist():
            u = np.sort(bohr.members() * pow(step, -1, 2003) % 2003)
            assert np.count_nonzero(np.diff(u) != 1) > _MAX_RUNS


@pytest.mark.parametrize("case", sorted(BROKEN_KERNEL_SPECTRA))
def test_kernel_spectrum_rejects_a_broken_transform(monkeypatch, case):
    first, rest, fragment = BROKEN_KERNEL_SPECTRA[case]
    bohr = _scattered_set(2003, 150, 41)
    assert bohr_module.spectrum_needs_transform(bohr)  # the transform path
    # sigmahat is the real part of the transform plus 1/|B|
    offset = 1.0 / bohr.size
    monkeypatch.setattr(
        "ap3lab.cyclic.forward_transform",
        _crafted_kernel_spectrum(first - offset, rest - offset),
    )
    with pytest.raises(InvariantError, match=fragment):
        kernel_spectrum(bohr)


def test_kernel_spectrum_transforms_only_the_positive_half_of_the_set(monkeypatch):
    bohr = _scattered_set(2003, 150, 41)
    assert bohr_module.spectrum_needs_transform(bohr)
    members = bohr.members()
    supports = []
    transform = cyclic.forward_transform

    def recording(f):
        supports.append((f.support, f.scale))
        return transform(f)

    monkeypatch.setattr(cyclic, "forward_transform", recording)
    kernel_spectrum(bohr)
    assert len(supports) == 1
    support, scale = supports[0]
    assert np.array_equal(support, members[(members > 0) & (2 * members < 2003)])
    assert scale == 2 * 2003 / bohr.size


@pytest.mark.parametrize(
    "bohr, transformed",
    [
        (_scattered_set(2003, 150, 41), True),  # past the run cap
        (build_bohr_set(2003, [1], "0.1"), False),  # a progression
        (_scattered_set(2003, 150, 42), True),
        (BohrSet(2003, (1,), Fraction(1, 4), [0]), False),  # one run of length 1
        (build_bohr_set(2003, [1, 7], "0.2"), False),  # a few runs along 1
    ],
)
def test_spectrum_needs_transform_names_the_path_kernel_spectrum_takes(
    monkeypatch, bohr, transformed
):
    calls = []
    transform = cyclic.forward_transform

    def counted(f):
        calls.append(f)
        return transform(f)

    monkeypatch.setattr(cyclic, "forward_transform", counted)
    sigma_hat = kernel_spectrum(bohr)
    assert bohr_module.spectrum_needs_transform(bohr) is transformed
    assert len(calls) == transformed
    assert np.max(np.abs(sigma_hat - _dirichlet_oracle(bohr.members(), 2003))) < 1e-13


# members of Z/101Z that are not a progression: 0 missing, a member below
# P/2 without its mirror, and a member above P/2 without its mirror
ASYMMETRIC_SETS = {
    "no-zero": [1, 3, 98, 100],
    "unmirrored": [0, 1, 3, 4, 98, 100],
    "extra-mirror": [0, 1, 3, 97, 98, 100],
}


@pytest.mark.parametrize("case", sorted(ASYMMETRIC_SETS))
def test_kernel_spectrum_rejects_a_set_not_symmetric_about_zero(case):
    members = sorted(ASYMMETRIC_SETS[case])
    bohr = BohrSet(101, (1,), Fraction(1, 4), members)
    with pytest.raises(InvariantError, match="symmetric"):
        kernel_spectrum(bohr)


def test_kernel_spectrum_checks_the_quarter_support():
    # symmetric with 0 and not a progression, but 40 > 101/4 lies outside
    # the support that 1 in R and eps < 1/4 allow
    members = sorted({0, 1, 3, 40, 61, 98, 100})
    with pytest.raises(InvariantError, match="support"):
        kernel_spectrum(BohrSet(101, (1,), Fraction(1, 10), members))
    kernel_spectrum(BohrSet(101, (1,), Fraction(1, 4), members))  # no hypothesis


def test_shifted_sum_is_an_exact_average_of_values():
    # h = g * (c/|B|): exactly zero away from S + B, with no clamp, and
    # the plain average of the shifts of the 0/1 indicator when c = 1
    p = 1009
    a = _lifted(p, 1009, density=0.01, scale=1.0)
    bohr = build_bohr_set(p, [1, 2], "0.01")
    assert 1 < bohr.size <= _SHIFT_COUNT_MAX_SIZE
    h = smoothed(a, bohr)
    assert float(h.values.min()) == 0.0
    assert np.array_equal(h.values, _count_oracle(a, bohr) * (1.0 / bohr.size))
    zero = smoothed(CyclicFunction(p, np.zeros(p)), bohr)
    assert not np.any(zero.values) and not np.any(zero.spectrum().half)


def _odd_shifts(p, count):
    """The symmetric set {+-1, +-3, ..., +-(2*count - 1)}, without 0."""
    shifts = np.arange(1, 2 * count, 2, dtype=np.int64)
    return np.concatenate((shifts, p - shifts[::-1]))


def test_shifted_sum_needs_a_symmetric_set_with_zero():
    # 6 members take the shifted count and 300 the convolution; smooth
    # checks the members before either count
    assert _odd_shifts(2003, 150).size > _SHIFT_COUNT_MAX_SIZE
    for p, members in (
        (101, [0, 1, 2]),
        (101, [1, 100]),
        (2003, _odd_shifts(2003, 3)),
        (2003, _odd_shifts(2003, 150)),
    ):
        lopsided = BohrSet(p, (1,), Fraction(1, 10), members)
        with pytest.raises(InvariantError, match="symmetric"):
            smooth(np.arange(p), lopsided)


def test_invariants_survive_optimized_mode():
    script = """
import numpy as np
import ap3lab.bohr as bohr_module
from fractions import Fraction
from ap3lab.bohr import BohrSet, build_bohr_set, smooth
from ap3lab.errors import InvariantError

assert False, "this assert must be stripped"

import ap3lab.cyclic as cyclic_module

raised = []
wide_bohr = build_bohr_set(1009, [1], "0.2")
if wide_bohr.size <= bohr_module._SHIFT_COUNT_MAX_SIZE:
    raise SystemExit("the Bohr set must take the convolution")
exact_convolution = cyclic_module._real_convolution

def shifted_convolution(*args):
    out = exact_convolution(*args)
    out += 0.4
    return out

cyclic_module._real_convolution = shifted_convolution
try:
    smooth(np.arange(1009), wide_bohr)
except InvariantError as exc:
    if "rounding error" in str(exc):
        raised.append("smooth")
cyclic_module._real_convolution = exact_convolution
import ap3lab.pipeline as pipeline_module
exact_smooth = pipeline_module.smooth

def miscounted(support, bohr):
    g = exact_smooth(support, bohr)
    g[0] += 1
    return g

pipeline_module.smooth = miscounted
try:
    pipeline_module.run_pipeline(pipeline_module.PipelineConfig(n=1000))
except InvariantError as exc:
    if "|A0| * |B|" in str(exc):
        raised.append("histogram")
pipeline_module.smooth = exact_smooth
wide = BohrSet(101, (1,), Fraction(1, 10), [0, 30, 71])  # centred, 30 past P/4
try:
    smooth(np.arange(101), wide)
except InvariantError as exc:
    if "[-P/4, P/4]" in str(exc):
        raised.append("support")
shifts = np.arange(1, 160, 2)
zeroless = BohrSet(2003, (1,), Fraction(1, 10), np.concatenate((shifts, 2003 - shifts[::-1])))
try:
    bohr_module.kernel_spectrum(zeroless)
except InvariantError:
    raised.append("symmetric")

import ap3lab.primes as primes_module
from dataclasses import replace
from ap3lab.wtrick import build_context, compute_parameters

try:  # P = 101 is below 3N/W, so the lift of 97 lands past P/3
    build_context(np.array([3, 97]), primes_module.sieve_primes(100),
                  replace(compute_parameters(100), p=101))
except InvariantError:
    raised.append("lift")
from ap3lab.cyclic import Spectrum, threshold_spectrum

cyclic_module.mirrored_sum = lambda *args: 0.0
try:
    threshold_spectrum(Spectrum(101, np.full(51, 0.5)), 0.1)
except InvariantError:
    raised.append("markov")
primes_module.is_prime = lambda n: n > 100
try:
    primes_module.next_prime_above(10)
except InvariantError:
    raised.append("bertrand")
print(",".join(raised))
"""
    src = Path(ap3lab.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == (
        "smooth,histogram,support,symmetric,lift,markov,bertrand"
    )


def _seed_cases():
    """(P, frequencies, radius): frequency 0 alone, 0 with one nonzero
    frequency, and sets whose least nonzero frequency is not 1, so the
    scan seeds from a true inverse; radii 1/2, 1/P and one with a large
    denominator."""
    cases = []
    for p in (2, 3, 5, 101, 1009):
        freq_sets = [[0], [0, p - 1], [0, 2 % p, 3 % p, p // 3]]
        if p > 5:
            freq_sets.append([7, 2 * p + 40, p - 3])
        radii = [Fraction(1, 2), Fraction(1, p), Fraction(123456789, 1000000007)]
        cases += [(p, freqs, eps) for freqs in freq_sets for eps in radii]
    return cases


@pytest.mark.parametrize("p, freqs, eps", _seed_cases())
def test_seeded_scan_bits_match_the_brute_force_oracle(p, freqs, eps):
    bohr = build_bohr_set(p, freqs, eps)
    want = bohr_members_brute(p, freqs, eps)
    assert np.array_equal(bohr.members(), want)
    assert bohr.size == want.size


def test_members_are_held_ascending_and_read_only():
    # the seeded scan leaves its survivors out of order; the set holds them
    # sorted, and members() hands out that one array with nothing allocated
    p = 100003
    bohr = build_bohr_set(p, [7, 2058, 1006], "0.1")
    members = bohr.members()
    assert members.dtype == np.int64
    assert not members.flags.writeable
    assert np.all(np.diff(members) > 0) and 0 <= members[0] and members[-1] < p
    assert bohr.size == members.size and bohr.measure == members.size / p
    tracemalloc.start()
    try:
        again = bohr.members()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again is members
    assert peak < 1024


def test_seed_cases_reach_the_inverse_and_the_full_group():
    # the least nonzero frequency is not 1 and its interval is a proper
    # part of Z/PZ, and elsewhere the interval covers all of it
    seeded = full = 0
    for p, freqs, eps in _seed_cases():
        nonzero = sorted({x % p for x in freqs} - {0})
        if not nonzero or nonzero[0] == 1:
            continue
        reach = min(Fraction(eps) * p // 1, p // 2)
        if 2 * reach + 1 < p:
            seeded += 1
        else:
            full += 1
    assert seeded and full


def _symmetric_bohr_set(p, shifts):
    members = sorted({0} | {b % p for b in shifts} | {-b % p for b in shifts})
    return BohrSet(p, (1,), Fraction(1, 4), members)


@pytest.mark.parametrize("p", [20011, 100003])
@pytest.mark.parametrize(
    "shifts",
    [[1], [2, 3, 5, 7], [4096, 4097, 9999], [1000, 2000, 3000, 4000, 5000], list(range(1, 64))],
)
def test_kernel_spectrum_of_a_symmetric_set_matches_the_exact_phase_sum(p, shifts):
    # [1], the multiples of 1000 and 1..63 give progressions, the other
    # two a few runs along their least positive member: all closed form
    bohr = _symmetric_bohr_set(p, shifts)
    assert _step_runs(bohr) is not None
    sigma_hat = kernel_spectrum(bohr)
    assert sigma_hat.dtype == np.float64
    assert np.max(np.abs(sigma_hat - _dirichlet_oracle(bohr.members(), p))) < 1e-13


def _union_of_runs(p, step, runs):
    """The Bohr set {u*step mod P} for u in the runs [a, a + L) of u, each
    given with its mirror [-a - L + 1, -a + 1), and the run [-1, 1]."""
    u = {-1, 0, 1}
    for a, length in runs:
        u |= {a + j for j in range(length)} | {-a - j for j in range(length)}
    return BohrSet(p, (1,), Fraction(1, 4), sorted({x * step % p for x in u}))


def _random_unions():
    """(P, step, runs): random unions of mirrored runs at P = 20011 and
    100003 along a step below P / (8 |B|), so that it is B's least
    positive member or close to it; runs of one member and long ones."""
    rng = np.random.default_rng(4111)
    cases = []
    for p in (20011, 100003):
        for longest in (1, 3, 40, 400):
            pairs = int(rng.integers(1, 12))
            runs = [(int(a), int(rng.integers(1, longest + 1)))
                    for a in rng.integers(3, p // 2 - longest - 1, size=pairs)]
            size = 3 + 2 * sum(length for _, length in runs)
            cases.append((p, int(rng.integers(1, max(2, p // (8 * size)))), runs))
    return cases


@pytest.mark.parametrize("p, step, runs", _random_unions())
def test_closed_form_of_a_union_of_runs_matches_the_exact_phase_sum(p, step, runs):
    bohr = _union_of_runs(p, step, runs)
    found = _step_runs(bohr)
    assert found is not None and found[0] == step
    # the run through 0 wraps in u, past P - 1 to 0
    assert any(a + length > p for a, length in zip(*(x.tolist() for x in found[1:])))
    assert np.max(np.abs(kernel_spectrum(bohr) - _dirichlet_oracle(bohr.members(), p))) < 1e-13


def test_closed_form_along_a_step_that_is_not_the_least_member():
    # {j*5 : |j| <= 40} and {+-(3 + 5j) : 0 <= j < 3}, the pair of runs
    # from u = +-(3 * 5^-1): 3 is B's least positive member, along which
    # B is more than _MAX_RUNS runs, so the second candidate, 5, is the step
    p = 20011
    bohr = _union_of_runs(p, 5, [(2, 39), (3 * pow(5, -1, p), 3)])
    assert bohr.members()[1:3].tolist() == [3, 5]
    d, starts, lengths = _step_runs(bohr)
    assert d == 5 and lengths.size == 3
    assert np.max(np.abs(kernel_spectrum(bohr) - _dirichlet_oracle(bohr.members(), p))) < 1e-13


@pytest.mark.parametrize("p", [20011, 100003])
def test_closed_form_of_a_set_at_the_run_cap(p):
    # the run through 0, 15 mirrored pairs and the self-mirrored run
    # across P/2 make _MAX_RUNS runs in all; one more pair is past the cap
    middle = [(p // 2 - 2, 6)]  # u from P//2 - 2 to P//2 + 3, its own mirror
    pairs = [(100 + 97 * i, 1 + i % 5) for i in range((_MAX_RUNS - 2) // 2)]
    bohr = BohrSet(p, (1,), Fraction(1, 4), _union_of_runs(p, 1, pairs + middle).members())
    d, starts, lengths = _step_runs(bohr)
    assert d == 1 and lengths.size == _MAX_RUNS
    assert np.max(np.abs(kernel_spectrum(bohr) - _dirichlet_oracle(bohr.members(), p))) < 1e-13
    past = _union_of_runs(p, 1, pairs + middle + [(5000, 2)])
    assert bohr_module.spectrum_needs_transform(past)


def _progression(p, step, m):
    """The Bohr set {j*step mod P : |j| <= m}, held as its sorted members."""
    members = sorted({j * step % p for j in range(-m, m + 1)})
    return BohrSet(p, (1,), Fraction(1, 4), members)


def _dirichlet_oracle(members, p):
    """sigmahat at t <= P//2 as the sum over the members of
    exp(2*pi*i*(b*t mod P)/P), each phase an exact integer."""
    t = np.arange(p // 2 + 1, dtype=np.int64)
    total = np.zeros(t.size, dtype=complex)
    for b in members.tolist():
        total += np.exp(2j * np.pi * (b * t % p) / p)
    return total / members.size


def _run_members(p, step, starts, lengths):
    """The sorted residues {(a + j)*step mod P : 0 <= j < L} over the runs."""
    return sorted({(a + j) * step % p for a, length in zip(starts, lengths) for j in range(length)})


@pytest.mark.parametrize(
    "p, step, m",
    [(5, 1, 1), (101, 1, 7), (1009, 7, 5), (1009, 3, 168), (1009, 1, 504), (20011, 1000, 10)],
)
def test_progression_check_accepts_symmetric_progressions(p, step, m):
    # d = 1, d > 1, m*d just below P/2 (2*168*3 = 1008 < 1009) and the
    # whole group (d = 1, m = (P - 1)/2): one run along d, [-m, m] in u
    assert 2 * m * step < p
    bohr = _progression(p, step, m)
    d, starts, lengths = _step_runs(bohr)
    assert d == step and lengths.tolist() == [2 * m + 1]
    assert _run_members(p, d, starts.tolist(), lengths.tolist()) == bohr.members().tolist()


def test_progression_check_accepts_scanned_bohr_sets():
    for p, freqs, eps in [(1009, [1], "0.1"), (20011, [1, 5, 77], "0.05"), (101, [1], "0.5")]:
        bohr = build_bohr_set(p, freqs, eps)
        d, _, lengths = _step_runs(bohr)
        assert d == int(bohr.members()[1]) and lengths.tolist() == [bohr.size]


@pytest.mark.parametrize(
    "members",
    [
        [0, 1, 3, 98, 100],  # +-2 missing from {0, +-1, +-2, +-3}
        [0, 1, 2, 4, 97, 99, 100],  # the pair +-3 missing: symmetric, odd size
        [0, 1, 2, 3, 10, 91, 98, 99, 100],  # a progression and one pair beside it
        [0, 5, 7, 94, 96],  # {0, +-5, +-7}: three runs along 5 and along 7
    ],
)
def test_progression_check_rejects_other_sets(members):
    # a symmetric set that is not a progression is more than one run
    # along every step tried, and the runs found still make up the set
    d, starts, lengths = _step_runs(BohrSet(101, (1,), Fraction(1, 4), members))
    assert lengths.size > 1
    assert _run_members(101, d, starts.tolist(), lengths.tolist()) == members


def test_run_decomposition_takes_a_progression_past_half_the_modulus():
    # {j*2 : |j| <= 26} mod 101 has 2*m*d = 104 >= 101: its sorted members
    # interleave, yet it is still the one run [-26, 26] along 2, and the
    # closed form needs no 2*m*d < P
    bohr = _progression(101, 2, 26)
    assert bohr.size == 53 and int(bohr.members()[1]) == 2
    d, starts, lengths = _step_runs(bohr)
    assert (d, starts.tolist(), lengths.tolist()) == (2, [101 - 26], [53])
    assert np.max(np.abs(kernel_spectrum(bohr) - _dirichlet_oracle(bohr.members(), 101))) < 1e-13


def _closed_form_cases():
    """(P, d, m): d = 1 and d > 1, small m, m*d just below P/2 and, up to
    P = 2003 (where direct_dft_stack is cheap), the whole group."""
    cases = set()
    for p in (5, 7, 101, 1009, 2003, 20011, 100003):
        shapes = [(1, 1), (1, 2), (2, 1), (3, 5), (p // 7, 3), (p // 41, 20)]
        if p <= 2003:
            shapes += [(1, (p - 1) // 2), (3, (p - 1) // 6)]
        cases |= {(p, d, m) for d, m in shapes if d >= 1 and m >= 1 and 2 * m * d < p}
    return sorted(cases)


@pytest.mark.parametrize("p, step, m", _closed_form_cases())
def test_closed_form_matches_the_direct_transform(p, step, m):
    bohr = _progression(p, step, m)
    sigma_hat = kernel_spectrum(bohr)
    assert sigma_hat.dtype == np.float64  # the closed form, not the transform
    if p <= 2003:
        want = direct_dft_stack(_sigma(bohr).values, p)[0] / p
        want = want[: p // 2 + 1]
    else:
        want = _dirichlet_oracle(bohr.members(), p)
    assert np.max(np.abs(sigma_hat - want)) < 1e-13


def test_closed_form_cases_end_in_a_partial_block():
    # P = 100003 spans three whole blocks of t and a partial fourth
    assert (100003 // 2) % _SINE_BLOCK != 0 and 100003 // 2 > 3 * _SINE_BLOCK
    assert any(p == 100003 for p, _, _ in _closed_form_cases())


def test_closed_form_of_the_whole_group_is_exactly_zero_off_zero():
    # B = Z/PZ: sin(pi*P*t/P) folds to the phase 0, so sigmahat(t) = 0
    sigma_hat = kernel_spectrum(build_bohr_set(1009, [1], "0.5"))
    assert sigma_hat[0] == 1.0
    assert not np.any(sigma_hat[1:])


def _runs_along_5005(shape):
    """The Bohr set {u*5005 mod P} at P = 5000011 for u in shape, built
    from its members."""
    p = 5000011
    return BohrSet(p, (1,), Fraction(1, 4), sorted({u * 5005 % p for u in shape}))


def _seven_runs():
    # [-30, 30], +-[160, 175), +-[1025639, 1025650) and +-[1666665, 1666676)
    # in u: the shape of B at N = 1e7, delta 0.05, eps 0.4 (|B| = 135)
    u = set(range(-30, 31))
    for a, length in [(160, 15), (1025639, 11), (1666665, 11)]:
        u |= {a + j for j in range(length)} | {-a - j for j in range(length)}
    return u


@pytest.mark.parametrize("shape, runs", [(range(-7, 8), 1), (_seven_runs(), 7)],
                         ids=["progression", "seven-runs"])
def test_closed_form_at_its_worst_frequencies(shape, runs):
    # B = {j*5005 : |j| <= 7} (the pipeline's B at N = 1e7) and seven runs
    # along 5005, against an fsum of cosines at exact integer phases: where
    # |sin(pi*d*t/P)| is least (d*t = +-1, +-2 mod P), on either side of
    # the bound below which sigmahat is formed again (d*t = +-J, +-(J + 1)),
    # and at 200 seeded random t
    p, d = 5000011, 5005
    bohr = _runs_along_5005(shape)
    assert _step_runs(bohr)[0] == d and _step_runs(bohr)[1].size == runs
    reach = int(p * math.asin(_SMALL_SINE) / math.pi)
    while math.sin(math.pi * (reach + 1) / p) < _SMALL_SINE:
        reach += 1
    while math.sin(math.pi * reach / p) >= _SMALL_SINE:
        reach -= 1
    assert bohr_module._small_sine_reach(p) == reach
    t = [j * pow(d, -1, p) % p for j in (1, 2, -1, -2, reach, -reach, reach + 1, -reach - 1)]
    t += np.random.default_rng(4242).integers(1, p // 2 + 1, size=200).tolist()
    t = [min(x, p - x) for x in t]
    sigma_hat = kernel_spectrum(bohr)
    members = bohr.members().tolist()
    for x in t:
        want = math.fsum(math.cos(2 * math.pi * (b * x % p) / p) for b in members) / len(members)
        assert abs(sigma_hat[x] - want) < 1e-13, x


@pytest.mark.parametrize("case", sorted(BROKEN_KERNEL_SPECTRA))
def test_kernel_spectrum_rejects_a_broken_closed_form(monkeypatch, case):
    first, rest, fragment = BROKEN_KERNEL_SPECTRA[case]
    bohr = build_bohr_set(2003, [1, 7], "0.2")
    assert _step_runs(bohr)[1].size > 1  # the closed form of several runs

    def broken(p, size, step, starts, lengths):
        half = np.full(p // 2 + 1, rest)
        half[0] = first
        return half

    monkeypatch.setattr(bohr_module, "_run_spectrum", broken)
    with pytest.raises(InvariantError, match=fragment):
        kernel_spectrum(bohr)


def test_kernel_spectrum_rejects_runs_that_do_not_cover_the_set(monkeypatch):
    # sigmahat(0) = sum L_i / |B|, checked in integers before the closed form
    bohr = build_bohr_set(2003, [1, 7], "0.2")
    d, starts, lengths = _step_runs(bohr)
    monkeypatch.setattr(bohr_module, "_step_runs", lambda b: (d, starts, lengths[1:]))
    with pytest.raises(InvariantError, match="at 0 is"):
        kernel_spectrum(bohr)


@pytest.mark.parametrize("p, step, m", [(2003, 7, 10), (2003, 3, 100), (2003, 3, 150)])
def test_smooth_with_a_progression_matches_the_convolution(p, step, m):
    # 21 and 201 members take the shifted count, 301 the convolution
    bohr = _progression(p, step, m)
    assert (bohr.size <= _SHIFT_COUNT_MAX_SIZE) == (m < 150)
    a = _lifted(p, step)
    h = smoothed(a, bohr)
    reference = direct_convolve(a.values, _sigma(bohr).values)
    assert np.max(np.abs(h.values - reference)) < 1e-12
    assert np.max(np.abs(h.spectrum().full() - direct_forward(h.values))) < 1e-12 * a.mean()


def _within_cases():
    """(P, R', R, eps', eps) with R' within R and eps <= eps': random
    nested frequency sets over radii of 1/2, of (P//2)/P (whose interval
    covers Z/PZ, 2*reach + 1 >= P) and smaller ones, plus R = {0} and an
    outer set B(R', eps') = {0}."""
    rng = np.random.default_rng(2311)
    cases = []
    for p in (101, 1009, 10007):
        radii = [Fraction(1, 2), Fraction(p // 2, p), Fraction(1, 5), Fraction(1, 10),
                 Fraction(3, 100)]
        for _ in range(8):
            outer = rng.integers(0, p, size=int(rng.integers(1, 4))).tolist()
            inner = outer + rng.integers(0, p, size=int(rng.integers(0, 4))).tolist()
            wide, narrow = sorted(rng.choice(len(radii), size=2))
            cases.append((p, outer, inner, radii[wide], radii[narrow]))
        cases += [
            (p, [0], [0], Fraction(1, 2), Fraction(p // 2, p)),
            (p, [0], [0, 7], Fraction(p // 2, p), Fraction(1, 10)),
            (p, [3, 1000, 77, 5], [3, 1000, 77, 5, 11], Fraction(1, 50), Fraction(1, 50)),
        ]
    return cases


@pytest.mark.parametrize("p, outer, inner, wide, narrow", _within_cases())
def test_scan_within_a_larger_bohr_set_is_the_fresh_scan(p, outer, inner, wide, narrow):
    within = build_bohr_set(p, outer, wide).members()
    kept = within.copy()
    bohr = build_bohr_set(p, inner, narrow, within=within)
    fresh = build_bohr_set(p, inner, narrow)
    assert np.array_equal(bohr.members(), fresh.members())
    assert (bohr.frequencies, bohr.radius) == (fresh.frequencies, fresh.radius)
    assert np.array_equal(within, kept)


def test_within_cases_reach_every_shape():
    shapes = set()
    for p, outer, inner, wide, narrow in _within_cases():
        size = build_bohr_set(p, outer, wide).size
        if size in (1, p):
            shapes.add(f"within of size {'1' if size == 1 else 'P'}")
        if 2 * min(math.floor(narrow * p), p // 2) + 1 >= p:
            shapes.add("inner interval covers Z/PZ")
        if {x % p for x in inner} == {0}:
            shapes.add("R = {0}")
        if len({x % p for x in inner}) > len({x % p for x in outer}):
            shapes.add("R' a proper part of R")
    assert shapes == {"within of size 1", "within of size P", "inner interval covers Z/PZ",
                      "R = {0}", "R' a proper part of R"}


@pytest.mark.parametrize("p", [101, 1009, 10007])
def test_scan_within_any_residues_is_the_intersection(p):
    rng = np.random.default_rng(p)
    checked = refused = 0
    for _ in range(6):
        freqs = rng.integers(0, p, size=int(rng.integers(1, 4))).tolist()
        eps = Fraction(int(rng.integers(1, 26)), 100)
        brute = set(bohr_members_brute(p, freqs, eps).tolist())
        d = len({x % p for x in freqs})
        for density in (0.5, 0.9, 1.0):
            within = np.flatnonzero(rng.random(p) < density)
            if rng.random() < 0.5:
                within = np.union1d(within, [0])
            want = sorted(brute & set(within.tolist()))
            if len(want) * eps.denominator**d >= p * eps.numerator**d:
                bohr = build_bohr_set(p, freqs, eps, within=within)
                assert bohr.members().tolist() == want
                checked += 1
            else:
                with pytest.raises(InvariantError, match="pigeonhole"):
                    build_bohr_set(p, freqs, eps, within=within)
                refused += 1
    # within = {0} meets the bound once P * eps^|R| <= 1
    assert build_bohr_set(p, [1, 2, 3], Fraction(1, p), within=[0]).members().tolist() == [0]
    assert checked and refused


@pytest.mark.parametrize(
    "within",
    [[-1, 0, 1], [0, 1, 101], [0, 5, 5], [5, 0], [[0, 1]]],
    ids=["negative", "past-P", "repeated", "descending", "two-dimensional"],
)
def test_scan_within_rejects_what_is_not_ascending_residues(within):
    with pytest.raises(InvalidArgumentError, match="within"):
        build_bohr_set(101, [1], "0.1", within=within)


def test_scan_within_below_the_pigeonhole_bound_is_refused():
    p = 101
    with pytest.raises(InvariantError, match="pigeonhole"):
        build_bohr_set(p, [0], "0.5", within=[0])  # R = {0}: B is all of Z/PZ
    with pytest.raises(InvariantError, match="pigeonhole"):
        build_bohr_set(p, [1], "0.1", within=[0, 50, 51])  # only 0 of B(R, eps)
    with pytest.raises(InvariantError, match="pigeonhole"):
        build_bohr_set(p, [1], "0.1", within=[30])  # no member at all
    # 1 passes frequency 1 and fails 50: a lone survivor other than 0 must
    # meet every test, and the empty result is below P * eps^2 < 1
    with pytest.raises(InvariantError, match="pigeonhole"):
        build_bohr_set(p, [1, 50], Fraction(1, 100), within=[1])
