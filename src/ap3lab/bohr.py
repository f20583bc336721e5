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

from .cyclic import CyclicFunction, clamp_at_zero, convolve
from .errors import InvalidArgumentError, InvariantError, ResourceLimitError
from .primes import is_prime

# q*min(t, P-t) must stay inside int64: with P <= 2**23 this allows
# denominators up to about 2**39; decimal strings give at most 10**9.
_MAX_DENOMINATOR = 1 << 30

# smooth keeps the carried spectrum of h through its clamp at zero only when
# the deepest clamped value is at most this many ulps of (1 + sup h) times
# log2 P. FFT rounding grows like log P; in the N = 1e7 pipeline and the
# N = 1e6 delta sweep every dip is at most 0.011 of this bound.
_ROUNDOFF_DIP_ULPS = 16


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
    """h = a * sigma. Mass is preserved (||h||_1 = ||a||_1 for a >= 0).

    The output is clamped at zero: the exact convolution of nonnegative
    functions is nonnegative, so any dip below zero is transform roundoff.
    A dip deeper than 1e-9 * (1 + sup h) raises InvariantError.

    h carries the product spectrum ahat * sigmahat from the convolution, so
    evaluating an operator on h transforms nothing again. The clamp moves
    every coefficient of that spectrum by at most the deepest clamped
    value, so it is kept only while that value is within _ROUNDOFF_DIP_ULPS
    ulps of (1 + sup h) times log2 P, the scale of FFT rounding. A deeper
    (but still accepted) dip drops the carried spectrum, and the next use
    of h's spectrum transforms the clamped values afresh.
    """
    if a.modulus != bohr.modulus:
        raise InvalidArgumentError(
            f"modulus mismatch: function {a.modulus} vs Bohr set {bohr.modulus}"
        )
    if bohr.size == 1:
        return a  # B = {0}: sigma is the exact convolution identity
    h = convolve(a, normalized_indicator(bohr))
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
