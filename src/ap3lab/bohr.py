"""Bohr sets in Z/PZ, their normalized indicators, and convolution smoothing.

Membership n in B(R, eps) means every frequency x in R satisfies
||n*x/P|| <= eps, where ||.|| is distance to the nearest integer. With
t = n*x mod P that reads min(t, P-t)/P <= eps, and with eps held as an
exact rational p/q it becomes the integer comparison q*min(t, P-t) <= p*P.
No float ever touches the membership decision.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .cyclic import CyclicFunction, Spectrum, clamp_at_zero, from_spectrum
from .errors import InvalidArgumentError, InvariantError, ResourceLimitError
from .primes import is_prime

# q*min(t, P-t) must stay inside int64: with P <= 2**23 this allows
# denominators up to about 2**39; decimal strings give at most 10**9.
_MAX_DENOMINATOR = 1 << 30

# smooth keeps the carried spectrum of h through its clamp at zero only when
# the deepest clamped value is at most this many ulps of (1 + sup h) times
# log2 P. FFT rounding grows like log P; in the N = 1e6 delta sweep every
# dip was at most 0.011 of this bound. Only `smooth` on a Bohr set past
# _SHIFTED_SUM_MAX_SIZE reaches the clamp: the N = 1e7 pipeline (|B| = 15)
# sums shifts instead, and delta_sweep never builds h, only its spectrum.
_ROUNDOFF_DIP_ULPS = 16

# kernel_spectrum checks sigmahat(0) = 1, Im sigmahat = 0 and
# |sigmahat| <= 1 to this absolute tolerance.
_KERNEL_SPECTRUM_TOL = 1e-9

# smooth sums shifted copies of a, instead of convolving through the
# transform, for Bohr sets with 1 < |B| <= this. On a 2-core x86_64 machine
# the shifted sum and its cosine-table spectrum cost about 0.025 s per
# member of B at P = 5000011, against 4.3-4.6 s for the transform of sigma
# and the inverse, and 0.0014 s against 0.21-0.30 s at P = 500009. The
# crossover is near |B| = 170 at both sizes; this stays below it.
_SHIFTED_SUM_MAX_SIZE = 128


def as_radius(eps) -> Fraction:
    """Normalize a radius given as decimal string, Fraction, or float-free int
    ratio into an exact Fraction in (0, 1/2]."""
    if isinstance(eps, float):
        raise InvalidArgumentError(
            "pass the radius as a decimal string or Fraction, not a float"
        )
    radius = Fraction(eps)
    if not 0 < radius <= Fraction(1, 2):
        raise InvalidArgumentError(f"radius must lie in (0, 1/2], got {radius}")
    if radius.denominator > _MAX_DENOMINATOR:
        raise InvalidArgumentError(
            f"radius denominator {radius.denominator} too large for exact arithmetic"
        )
    return radius


class BohrSet:
    """B(R, eps) with bit-packed membership. Immutable."""

    __slots__ = ("modulus", "frequencies", "radius", "bits", "size")

    def __init__(self, modulus, frequencies, radius, bits, size):
        self.modulus = modulus
        self.frequencies = frequencies
        self.radius = radius
        self.bits = bits
        self.size = size
        bits.setflags(write=False)

    @property
    def measure(self) -> float:
        return self.size / self.modulus

    def contains(self, n: int) -> bool:
        i = n % self.modulus
        return bool((self.bits[i >> 3] >> (7 - (i & 7))) & 1)

    def members(self) -> np.ndarray:
        flags = np.unpackbits(self.bits)[: self.modulus]
        return np.flatnonzero(flags).astype(np.int64)


def build_bohr_set(p: int, frequencies, eps) -> BohrSet:
    """Exact member scan by survivor compaction.

    Candidates start as all of Z/PZ; each frequency, in ascending order,
    keeps only the candidates that pass the exact integer test
    q*min(t, P-t) <= p*P. The scan stops once only 0 is left, since 0 lies
    in every Bohr set. Each step touches only the survivors of the one
    before, so the cost is about P / (1 - 2*eps) rather than P * |R|.

    Checks the pigeonhole lower bound |B| >= P * eps^|R| (an exact theorem
    at modulus P) by integer cross-multiplication, and raises
    InvariantError if it fails.
    """
    if not is_prime(p):
        raise InvalidArgumentError(f"modulus {p} is not prime")
    radius = as_radius(eps)
    if p > (1 << 31) or (p // 2) * radius.denominator >= (1 << 62):
        raise ResourceLimitError(
            f"modulus {p} too large for the exact int64 membership scan"
        )
    freqs = sorted({int(x) % p for x in frequencies})
    if not freqs:
        raise InvalidArgumentError("frequency set must be nonempty")

    num, den = radius.numerator, radius.denominator
    survivors = np.arange(p, dtype=np.int64)
    bound = num * p  # compare q*min(t, P-t) <= p*P exactly
    for x in freqs:
        t = (survivors * x) % p
        survivors = survivors[np.minimum(t, p - t) * den <= bound]
        if survivors.size == 1:  # only 0 is left
            break
    size = int(survivors.size)

    # |B| * q^d >= P * p^d in exact big-int arithmetic
    d = len(freqs)
    if size * den**d < p * num**d:
        raise InvariantError(
            f"pigeonhole lower bound |B| >= P*eps^|R| failed (|B| = {size}, "
            f"P = {p}, eps = {radius}, |R| = {d}); membership scan is broken"
        )

    member = np.zeros(p, dtype=bool)
    member[survivors] = True
    return BohrSet(
        modulus=p,
        frequencies=tuple(freqs),
        radius=radius,
        bits=np.packbits(member),
        size=size,
    )


def normalized_indicator(bohr: BohrSet) -> CyclicFunction:
    """sigma = (P/|B|) * 1_B, the probability kernel of the Bohr set.

    When 1 is a frequency and eps < 1/4 the support provably sits inside
    [-P/4, P/4]; under those hypotheses a support outside it raises
    InvariantError.
    """
    if bohr.size < 1:
        raise InvalidArgumentError("empty Bohr set has no normalized indicator")
    p = bohr.modulus
    members = bohr.members()
    if 1 in bohr.frequencies and bohr.radius < Fraction(1, 4):
        folded = np.minimum(members, p - members)
        if int(folded.max()) * 4 >= p:
            raise InvariantError(
                "support must lie in [-P/4, P/4] when 1 in R and eps < 1/4"
            )
    values = np.zeros(p)
    values[members] = p / bohr.size
    return CyclicFunction(p, values, validate_modulus=False)


def smooth(a: CyclicFunction, bohr: BohrSet) -> CyclicFunction:
    """h = a * sigma for a >= 0. Mass is preserved (||h||_1 = ||a||_1).

    h carries the product spectrum ahat * sigmahat, so evaluating an
    operator on h transforms nothing again. How h is built depends on the
    size of B:

    * |B| = 1: B = {0}, sigma is the convolution identity and h is a.
    * 1 < |B| <= _SHIFTED_SUM_MAX_SIZE: h(x) = (1/|B|) sum_{b in B} a(x - b)
      by |B| shifted adds in ascending b, a fixed-order sum of a's values
      that is exactly >= 0 when a is. Nothing is clamped: any value below
      zero raises InvariantError. The carried sigmahat is real and read
      off a cosine table (see kernel_spectrum). No transform is made
      beyond the one of a.
    * larger B: h is the inverse transform of ahat * kernel_spectrum(B),
      clamped at zero, since any dip below zero is transform roundoff. A
      dip deeper than 1e-9 * (1 + sup h) raises InvariantError. The clamp
      moves every coefficient of the carried spectrum by at most the
      deepest clamped value, so it is kept only while that value is within
      _ROUNDOFF_DIP_ULPS ulps of (1 + sup h) times log2 P, the scale of
      FFT rounding. A deeper (but still accepted) dip drops the carried
      spectrum, and the next use of h's spectrum transforms the clamped
      values afresh. sigma is freed before the inverse transform.
    """
    if a.modulus != bohr.modulus:
        raise InvalidArgumentError(
            f"modulus mismatch: function {a.modulus} vs Bohr set {bohr.modulus}"
        )
    if bohr.size == 1:
        return a  # B = {0}: sigma is the exact convolution identity
    if bohr.size <= _SHIFTED_SUM_MAX_SIZE:
        return _shifted_average(a, bohr)
    sigma_hat = kernel_spectrum(bohr)
    product = Spectrum(
        a.modulus, a.spectrum().coefficients * sigma_hat, validate_modulus=False
    )
    del sigma_hat  # free it before the inverse transform
    h = from_spectrum(product)
    low = float(h.values.min())
    if low < 0:
        scale = 1.0 + h.sup_norm()
        if -low > 1e-9 * scale:
            raise InvariantError(
                f"convolution of nonnegative inputs went to {low!r}, "
                "beyond transform roundoff"
            )
        roundoff = _ROUNDOFF_DIP_ULPS * np.finfo(np.float64).eps * math.log2(h.modulus)
        if -low <= roundoff * scale:
            return clamp_at_zero(h)
        return CyclicFunction(h.modulus, np.maximum(h.values, 0.0), validate_modulus=False)
    return h


def kernel_spectrum(bohr: BohrSet) -> np.ndarray:
    """sigmahat, the spectrum of sigma = (P/|B|) * 1_B, as an array.

    For |B| <= _SHIFTED_SUM_MAX_SIZE it is read off a cosine table: B = -B,
    so sigmahat(t) = (1/|B|) sum_{b in B} e(b*t/P) is real and equals
    (1 + 2 * sum_{b in B, 0 < b < P/2} cos(2*pi*b*t/P)) / |B|. Each cosine
    is gathered from one P-entry table at the integer phase b*t mod P, for
    t up to P/2 only, since sigmahat(P - t) = sigmahat(t). The set must
    contain 0 and be symmetric, or InvariantError is raised. Larger sets
    transform normalized_indicator(bohr) and return the complex result as
    it is; sigma itself lives only inside this call.

    sigma is a probability kernel symmetric about 0, so sigmahat(0) = 1,
    sigmahat is real and |sigmahat| <= 1; each is checked to
    _KERNEL_SPECTRUM_TOL and a failure raises InvariantError. Callers skip
    B = {0}, where sigma is the convolution identity and sigmahat is 1.
    """
    if bohr.size > _SHIFTED_SUM_MAX_SIZE:
        sigma_hat = normalized_indicator(bohr).spectrum().coefficients
    else:
        sigma_hat = _cosine_table_spectrum(bohr)
    tol = _KERNEL_SPECTRUM_TOL
    if abs(sigma_hat[0] - 1.0) > tol:
        raise InvariantError(f"kernel spectrum at 0 is {sigma_hat[0]!r}, not 1")
    if np.iscomplexobj(sigma_hat) and float(np.max(np.abs(sigma_hat.imag))) > tol:
        raise InvariantError("kernel spectrum is not real: the Bohr set is not symmetric")
    peak = float(np.max(np.abs(sigma_hat)))
    if peak > 1.0 + tol:
        raise InvariantError(f"kernel spectrum reaches {peak!r}, above 1")
    return sigma_hat


def _cosine_table_spectrum(bohr: BohrSet) -> np.ndarray:
    """The real sigmahat of a small symmetric Bohr set (see kernel_spectrum)."""
    p = bohr.modulus
    members = bohr.members()  # ascending in [0, P)
    if members[0] != 0 or not np.array_equal(members, np.sort((p - members) % p)):
        raise InvariantError("Bohr set must contain 0 and be symmetric about it")
    k = np.arange(p, dtype=np.int64)
    cosines = np.cos((2 * np.pi / p) * np.minimum(k, p - k))
    t = k[: p // 2 + 1]
    phase = np.empty(t.size, dtype=np.int64)
    gathered = np.empty(t.size)
    cosine_sum = np.zeros(t.size)
    for b in members[(members > 0) & (2 * members < p)].tolist():
        np.multiply(t, b, out=phase)
        np.remainder(phase, p, out=phase)
        np.take(cosines, phase, out=gathered, mode="clip")
        cosine_sum += gathered
    half = (1.0 + 2.0 * cosine_sum) / bohr.size
    return np.concatenate((half, half[:0:-1]))


def _shifted_average(a: CyclicFunction, bohr: BohrSet) -> CyclicFunction:
    """h(x) = (1/|B|) sum_{b in B} a(x - b), carrying ahat * sigmahat."""
    p = a.modulus
    sigma_hat = kernel_spectrum(bohr)  # checks that B contains 0 and is symmetric
    values = np.zeros(p)
    for b in bohr.members().tolist():
        values[b:] += a.values[: p - b]
        values[:b] += a.values[p - b :]
    values /= bohr.size
    low = float(values.min())
    if low < 0:
        raise InvariantError(
            f"shifted average of nonnegative inputs went to {low!r}"
        )

    h = CyclicFunction(p, values, validate_modulus=False)
    h._spectrum = Spectrum(
        p, a.spectrum().coefficients * sigma_hat, validate_modulus=False
    )
    return h
