import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ap3lab
from ap3lab.bohr import as_radius, build_bohr_set, normalized_indicator, smooth
from ap3lab.cyclic import CyclicFunction, convolve, lp_norm
from ap3lab.errors import InvalidArgumentError, InvariantError
from ap3lab.threeap import lambda_direct, lambda_fourier
from conftest import direct_forward


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
    assert bohr.contains(0)
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
    sigma = normalized_indicator(bohr)
    assert math.isclose(float(np.mean(sigma.values)), 1.0, rel_tol=1e-12)
    assert math.isclose(sigma.values[0], 101 / 21, rel_tol=1e-12)
    full = normalized_indicator(build_bohr_set(101, [0], "0.1"))
    assert np.max(np.abs(full.values - 1.0)) < 1e-12


def test_indicator_of_singleton_is_convolution_identity():
    bohr = build_bohr_set(101, [1], Fraction(1, 1000))
    assert bohr.size == 1
    sigma = normalized_indicator(bohr)
    expected = np.zeros(101)
    expected[0] = 101.0
    assert np.array_equal(sigma.values, expected)


def test_indicator_support_inside_quarter_when_one_in_r():
    p = 1009
    sigma = normalized_indicator(build_bohr_set(p, [1, 7], "0.2"))
    support = np.flatnonzero(sigma.values)
    assert np.all(np.minimum(support, p - support) * 4 < p)


def test_smooth_identity_and_total_cases():
    rng = np.random.default_rng(5)
    p = 1009
    a = CyclicFunction(p, rng.random(p))
    point = build_bohr_set(p, [1], Fraction(1, 10**6))
    assert np.max(np.abs(smooth(a, point).values - a.values)) < 1e-10
    everything = build_bohr_set(p, [0], "0.5")
    h = smooth(a, everything)
    assert np.max(np.abs(h.values - float(np.mean(a.values)))) < 1e-10


def test_smooth_preserves_mass_and_bounds_sup():
    rng = np.random.default_rng(6)
    p = 2003
    a = CyclicFunction(p, rng.random(p) * rng.integers(0, 2, size=p))
    bohr = build_bohr_set(p, [1, 13], "0.15")
    h = smooth(a, bohr)
    assert math.isclose(lp_norm(h, 1), lp_norm(a, 1), rel_tol=1e-10)
    assert float(h.values.min()) >= 0.0
    assert h.sup_norm() <= a.sup_norm() * (1 + 1e-12)
    with pytest.raises(InvalidArgumentError):
        smooth(CyclicFunction.constant(101, 1.0), bohr)


def test_carried_spectra_match_the_direct_transform():
    # a sparse 0/1 input leaves h exactly zero on many residues, where the
    # computed convolution dips below zero by rounding and the clamp fires
    rng = np.random.default_rng(2003)
    p = 2003
    a = CyclicFunction(p, (rng.random(p) < 0.01).astype(float))
    bohr = build_bohr_set(p, [1, 2], "0.01")
    assert bohr.size > 1
    sigma = normalized_indicator(bohr)
    raw = convolve(a, sigma)
    h = smooth(a, bohr)
    assert float(raw.values.min()) < 0.0
    assert float(h.values.min()) == 0.0
    tol = 1e-12 * a.mean()
    for f in (raw, h):
        assert np.max(np.abs(f.spectrum().coefficients - direct_forward(f.values))) < tol
    assert math.isclose(
        lambda_fourier(h, h, h), lambda_direct(h, h, h).lambda_value, rel_tol=1e-12
    )


def _dipping_convolution(f, g):
    values = np.ones(f.modulus)
    values[1] = -1e-3
    return CyclicFunction(f.modulus, values)


def test_smooth_raises_on_a_dip_beyond_roundoff(monkeypatch):
    p = 101
    a = CyclicFunction.constant(p, 1.0)
    bohr = build_bohr_set(p, [1], "0.1")
    monkeypatch.setattr("ap3lab.bohr.convolve", _dipping_convolution)
    with pytest.raises(InvariantError):
        smooth(a, bohr)


def test_smooth_drops_the_carried_spectrum_after_a_dip_above_rounding(monkeypatch):
    # a dip the clamp accepts but that is far above FFT rounding: the clamped
    # h must not keep the (deliberately wrong) spectrum of the convolution
    p = 101
    a = CyclicFunction.constant(p, 1.0)
    bohr = build_bohr_set(p, [1], "0.1")

    def shallow_dip(f, g):
        values = np.ones(p)
        values[1] = -1e-11
        out = CyclicFunction(p, values)
        out._spectrum = CyclicFunction(p, np.zeros(p)).spectrum()
        return out

    monkeypatch.setattr("ap3lab.bohr.convolve", shallow_dip)
    h = smooth(a, bohr)
    assert float(h.values.min()) == 0.0
    assert np.max(np.abs(h.spectrum().coefficients - direct_forward(h.values))) < 1e-12


def test_invariants_survive_optimized_mode():
    script = """
import numpy as np
import ap3lab.bohr as bohr_module
from fractions import Fraction
from ap3lab.bohr import BohrSet, build_bohr_set, normalized_indicator, smooth
from ap3lab.cyclic import CyclicFunction
from ap3lab.errors import InvariantError

assert False, "this assert must be stripped"

def dipping(f, g):
    values = np.ones(f.modulus)
    values[1] = -1e-3
    return CyclicFunction(f.modulus, values)

bohr_module.convolve = dipping
raised = []
try:
    smooth(CyclicFunction.constant(101, 1.0), build_bohr_set(101, [1], "0.1"))
except InvariantError:
    raised.append("smooth")
bits = np.packbits(np.isin(np.arange(101), [0, 50, 51]))
wide = BohrSet(101, (1,), Fraction(1, 10), bits, 3)
try:
    normalized_indicator(wide)
except InvariantError:
    raised.append("support")

import ap3lab.primes as primes_module
from ap3lab.wtrick import WTrickContext, build_sieved_function

try:
    build_sieved_function([3, 97], WTrickContext(100, 2.0, 2, 1, 1, 101, 1.0))
except InvariantError:
    raised.append("lift")
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
    assert out.stdout.strip() == "smooth,support,lift,bertrand"
