import math

import numpy as np
import pytest

from ap3lab.cyclic import (
    SUM_BLOCK,
    CyclicFunction,
    Spectrum,
    convolve,
    fixed_sum,
    forward_transform,
    inverse_transform,
    load_function,
    load_spectrum,
    lp_norm,
    save_function,
    save_spectrum,
    spectral_lp_norm,
    threshold_spectrum,
)
from ap3lab.errors import InvalidArgumentError
from conftest import direct_convolve, direct_forward

MODULI = (2, 3, 5, 61, 101, 1009, 2003)


def random_function(p, rng, shift=0.0):
    return CyclicFunction(p, rng.random(p) + shift)


def test_constant_transforms_to_point_mass():
    f = CyclicFunction.constant(101, 3.5)
    coeffs = f.spectrum().coefficients
    assert abs(coeffs[0] - 3.5) < 1e-12
    assert np.max(np.abs(coeffs[1:])) < 1e-12


def test_point_mass_transforms_to_constant():
    p = 101
    f = CyclicFunction.indicator(p, [0], scale=float(p))
    coeffs = f.spectrum().coefficients
    assert np.max(np.abs(coeffs - 1.0)) < 1e-12


def test_sign_convention_is_plus_in_the_forward_exponent():
    # f(x) = cos(2 pi x / P) + sin(2 pi x / P): under the e^{+2 pi i x t / P}
    # average, coefficient 1 must be (1 + i)/2 and coefficient P-1 its conjugate.
    p = 101
    x = np.arange(p)
    f = CyclicFunction(p, np.cos(2 * np.pi * x / p) + np.sin(2 * np.pi * x / p))
    coeffs = f.spectrum().coefficients
    assert abs(coeffs[1] - (0.5 + 0.5j)) < 1e-12
    assert abs(coeffs[p - 1] - (0.5 - 0.5j)) < 1e-12


@pytest.mark.parametrize("p", MODULI)
def test_forward_matches_direct_sum(p):
    rng = np.random.default_rng(p)
    f = random_function(p, rng)
    got = f.spectrum().coefficients
    want = direct_forward(f.values)
    assert np.max(np.abs(got - want)) < 1e-9 * lp_norm(f, 2) * math.sqrt(p)


@pytest.mark.parametrize("p", MODULI)
def test_round_trip_identity(p):
    rng = np.random.default_rng(p + 1)
    f = random_function(p, rng)
    back = inverse_transform(f.spectrum())
    assert np.max(np.abs(back.values - f.values)) < 1e-9 * f.sup_norm()


def test_inverse_of_single_coefficient_spectrum():
    p = 101
    s = Spectrum(p, np.eye(p, dtype=complex)[0] * 2.5)
    f = inverse_transform(s)
    assert np.max(np.abs(f.values - 2.5)) < 1e-12
    # all-ones spectrum is the dual point mass
    g = inverse_transform(Spectrum(p, np.ones(p, dtype=complex)))
    expected = np.zeros(p)
    expected[0] = p
    assert np.max(np.abs(g.values - expected)) < 1e-9


def test_inverse_rejects_asymmetric_spectrum():
    p = 101
    coeffs = np.zeros(p, dtype=complex)
    coeffs[1] = 1.0  # no conjugate partner at -1
    with pytest.raises(InvalidArgumentError):
        inverse_transform(Spectrum(p, coeffs))


def test_convolution_identity_element():
    rng = np.random.default_rng(3)
    p = 101
    f = random_function(p, rng)
    delta = CyclicFunction.indicator(p, [0], scale=float(p))
    assert np.max(np.abs(convolve(f, delta).values - f.values)) < 1e-10


def test_convolution_of_constants():
    one = CyclicFunction.constant(101, 1.0)
    assert np.max(np.abs(convolve(one, one).values - 1.0)) < 1e-12


def test_convolution_enumerated_example():
    f = CyclicFunction.indicator(5, [0, 1])
    got = convolve(f, f)
    assert math.isclose(got.values[1], 2 / 5, rel_tol=1e-12)
    assert np.max(np.abs(got.values - direct_convolve(f.values, f.values))) < 1e-12


@pytest.mark.parametrize("p", MODULI)
def test_convolution_matches_direct_sum(p):
    rng = np.random.default_rng(p + 2)
    f, g = random_function(p, rng), random_function(p, rng)
    assert np.max(
        np.abs(convolve(f, g).values - direct_convolve(f.values, g.values))
    ) < 1e-10


@pytest.mark.parametrize("p", (101, 1009, 2003))
def test_plancherel_inner_product(p):
    rng = np.random.default_rng(p + 3)
    f, g = random_function(p, rng), random_function(p, rng)
    space = float(np.mean(f.values * g.values))
    freq = complex(
        np.sum(f.spectrum().coefficients * np.conj(g.spectrum().coefficients))
    )
    assert abs(space - freq) < 1e-10 * lp_norm(f, 2) * lp_norm(g, 2)


@pytest.mark.parametrize("p", (101, 1009, 2003))
def test_convolution_theorem(p):
    rng = np.random.default_rng(p + 4)
    f, g = random_function(p, rng), random_function(p, rng)
    # convolve carries fhat * ghat as its memo, so transform the values afresh
    lhs = forward_transform(convolve(f, g)).coefficients
    rhs = f.spectrum().coefficients * g.spectrum().coefficients
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_l1_multiplicativity_for_nonnegative_functions():
    rng = np.random.default_rng(9)
    p = 1009
    f, g = random_function(p, rng), random_function(p, rng)
    got = lp_norm(convolve(f, g), 1)
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


def test_l2_norm_equals_spectral_l2():
    rng = np.random.default_rng(11)
    f = random_function(1009, rng)
    assert math.isclose(
        lp_norm(f, 2), spectral_lp_norm(f.spectrum(), 2), rel_tol=1e-10
    )


def test_spectral_norm_examples():
    p = 101
    const = CyclicFunction.constant(p, 2.0).spectrum()
    for k in (1.0, 2.0, 4.0):
        assert math.isclose(spectral_lp_norm(const, k), 2.0, rel_tol=1e-9)
    mass = CyclicFunction.indicator(p, [0], scale=float(p)).spectrum()
    assert math.isclose(spectral_lp_norm(mass, 4), p ** 0.25, rel_tol=1e-9)


def test_norm_exponent_validation():
    f = CyclicFunction.constant(5, 1.0)
    with pytest.raises(InvalidArgumentError):
        lp_norm(f, 0.5)
    with pytest.raises(InvalidArgumentError):
        spectral_lp_norm(f.spectrum(), 0.99)


def test_coefficients_bounded_by_l1_norm():
    rng = np.random.default_rng(12)
    f = CyclicFunction(1009, rng.standard_normal(1009))
    bound = lp_norm(f, 1) + 1e-12
    assert np.max(np.abs(f.spectrum().coefficients)) <= bound


def test_threshold_spectrum_adjoins_one():
    const = CyclicFunction.constant(101, 1.0)
    assert threshold_spectrum(const.spectrum(), 0.5).tolist() == [0, 1]
    mass = CyclicFunction.indicator(101, [0], scale=101.0)
    assert threshold_spectrum(mass.spectrum(), 0.9).tolist() == list(range(101))
    with pytest.raises(InvalidArgumentError):
        threshold_spectrum(const.spectrum(), 0.0)


def test_threshold_spectrum_markov_bound():
    rng = np.random.default_rng(13)
    f = CyclicFunction(1009, rng.random(1009))
    s = f.spectrum()
    for delta in (0.02, 0.05, 0.1):
        raw = int(np.count_nonzero(np.abs(s.coefficients) >= delta))
        assert raw <= spectral_lp_norm(s, 4) ** 4 / delta**4


def test_modulus_validation():
    with pytest.raises(InvalidArgumentError):
        CyclicFunction(100, np.zeros(100))  # composite modulus
    with pytest.raises(InvalidArgumentError):
        CyclicFunction(7, np.zeros(6))
    with pytest.raises(InvalidArgumentError):
        CyclicFunction(5, np.array([1.0, 2.0, np.nan, 0.0, 0.0]))
    f = CyclicFunction.constant(7, 1.0)
    with pytest.raises(InvalidArgumentError):
        convolve(f, CyclicFunction.constant(11, 1.0))


def test_values_are_immutable():
    f = CyclicFunction.constant(7, 1.0)
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
    back_s = load_spectrum(spath)
    assert np.array_equal(back_s.coefficients, s.coefficients)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 28)
    with pytest.raises(InvalidArgumentError):
        load_function(path)
    with pytest.raises(InvalidArgumentError):
        load_spectrum(path)
