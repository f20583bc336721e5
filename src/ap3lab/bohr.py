"""Bohr sets in Z/PZ, their kernel spectra, and convolution smoothing.

Membership n in B(R, eps) means every frequency x in R satisfies
||n*x/P|| <= eps, where ||.|| is distance to the nearest integer. With
t = n*x mod P that reads min(t, P-t)/P <= eps, and with eps held as an
exact rational p/q it becomes the integer comparison q*min(t, P-t) <= p*P.
No float ever touches the membership decision.

Smoothing is counting too: for a = c * 1_S, the smoothed h = a * sigma is
(c/|B|) * g with the integer g(x) = #{b in B : x - b in S}, so smooth
returns g itself, formed exactly with no inverse transform and no clamp,
and h is never built.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .cyclic import ScaledIndicator, _in_two, _sum_counts, check_residues
from .errors import InvalidArgumentError, InvariantError, ResourceLimitError
from .primes import is_prime

# q*min(t, P-t) must stay inside int64: with P <= 2**23 this allows
# denominators up to about 2**39; decimal strings give at most 10**9.
_MAX_DENOMINATOR = 1 << 30

# kernel_spectrum checks sigmahat(0) = 1 and |sigmahat| <= 1 to this
# absolute tolerance.
_KERNEL_SPECTRUM_TOL = 1e-9

# smooth counts by shifted adds for 1 < |B| <= this, the largest count a
# uint8 holds, and by one FFT convolution past it. On the N = 1e7 lift
# (P = 5000011, |S| = 332382, 2-core x86_64, medians of 3 in-process calls)
# the adds took 0.06 s at |B| = 101, 0.13-0.14 s at 255 and, in uint16,
# 0.55-0.59 s at 511. The convolution's cost is set by B's window, not
# |B|: 0.10-0.12 s for a window of at most 511 residues and 0.35-0.44 s for
# one spread over Z/PZ, at each of the three sizes. At 255 the adds lose
# 0.03 s to a narrow window and win 0.3 s against a spread one, so the
# cutoff stays at the uint8 bound.
_SHIFT_COUNT_MAX_SIZE = 255

# Frequencies per block of the closed-form sigmahat of a progression: its
# eight int64 and float64 rows (1 MiB) stay in L2 cache. At P = 5000011 on a
# 2-core x86_64 machine, blocks of 16384 took 0.11 s against 0.13 s for
# blocks of 4096; the two sines per frequency are most of it.
_SINE_BLOCK = 16384


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
    """B(R, eps), held as its members: one read-only, ascending int64
    array of residues in [0, P). size and measure derive from it, and
    members() returns it as it is. Immutable."""

    __slots__ = ("modulus", "frequencies", "radius", "_members")

    def __init__(self, modulus, frequencies, radius, members):
        self.modulus = modulus
        self.frequencies = frequencies
        self.radius = radius
        self._members = np.asarray(members, dtype=np.int64)
        self._members.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self._members.size)

    @property
    def measure(self) -> float:
        return self.size / self.modulus

    def members(self) -> np.ndarray:
        return self._members


def build_bohr_set(p: int, frequencies, eps, within=None) -> BohrSet:
    """Exact member scan, seeded by the first frequency, then survivor
    compaction; the sorted survivors are the set's members.

    Frequency 0 passes every n. For the least nonzero frequency x the test
    q*min(t, P-t) <= p*P with t = n*x mod P passes exactly when t lies in
    [0, m] or [P - m, P), m = min(floor(p*P/q), P//2), so the candidates
    are n = j * x^-1 mod P for those j (all of Z/PZ when 2m + 1 >= P),
    formed without scanning Z/PZ. Each further frequency, in ascending
    order, keeps only the candidates that pass the same exact integer test.
    The scan stops once only 0 is left, since 0 lies in every Bohr set.
    Each step touches only the survivors of the one before, so the cost is
    about 2*eps*P / (1 - 2*eps) rather than P * |R|.

    within, when given, is an ascending array of distinct residues in
    [0, P), or InvalidArgumentError is raised (cyclic.check_residues).
    The seed is then skipped and every nonzero frequency's test runs over
    within alone, so the members are B(R, eps) & within: B(R, eps) itself
    whenever within contains it, as B(R', eps') does for every R' within R
    and eps' >= eps.

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
    bound = num * p  # compare q*min(t, P-t) <= p*P exactly
    nonzero = [x for x in freqs if x != 0]
    reach = min(bound // den, p // 2)
    tested = nonzero[1:]  # the seed passes nonzero[0]'s test by construction
    if within is not None:
        survivors = check_residues(np.array(within, dtype=np.int64), p, "within")  # a copy
        tested = nonzero
    elif not nonzero or 2 * reach + 1 >= p:
        survivors = np.arange(p, dtype=np.int64)
    else:
        # j * x^-1 < P^2 <= 2**62 stays inside int64
        survivors = np.concatenate(
            (np.arange(reach + 1, dtype=np.int64), np.arange(p - reach, p, dtype=np.int64))
        )
        survivors *= pow(nonzero[0], -1, p)
        survivors %= p
    for x in tested:
        t = (survivors * x) % p
        survivors = survivors[np.minimum(t, p - t) * den <= bound]
        if survivors.size == 1 and survivors[0] == 0:  # only 0 is left
            break
    size = int(survivors.size)

    # |B| * q^d >= P * p^d in exact big-int arithmetic
    d = len(freqs)
    if size * den**d < p * num**d:
        raise InvariantError(
            f"pigeonhole lower bound |B| >= P*eps^|R| failed (|B| = {size}, "
            f"P = {p}, eps = {radius}, |R| = {d}); membership scan is broken"
        )
    survivors.sort()  # in place: survivors is this scan's own array
    return BohrSet(p, tuple(freqs), radius, survivors)


def smooth(support: np.ndarray, bohr: BohrSet) -> np.ndarray:
    """The integer count g(x) = #{b in B : x - b in S} for S = support,
    in the least unsigned integer type that holds |B|: for a = c * 1_S,
    a * sigma = (c/|B|) * g. S must be ascending distinct residues in
    [0, P) (the lift's A0; cyclic.check_residues), or InvalidArgumentError
    is raised; B must contain 0 and be symmetric about it (_check_centred),
    or InvariantError is raised. Up to _SHIFT_COUNT_MAX_SIZE members, g is
    |B| shifted adds (_shifted_count; g = 1_S for B = {0}), which start
    no thread; past it, one FFT convolution, rounded and checked
    (_convolved_count), which may use two once its arrays reach 2^20
    values. Both give the same integers, and neither makes an inverse
    transform or forms sigmahat (kernel_spectrum).
    """
    support = check_residues(support, bohr.modulus, "support")
    _check_centred(bohr)
    if bohr.size <= _SHIFT_COUNT_MAX_SIZE:
        return _shifted_count(support, bohr)
    return _convolved_count(support, bohr)


def _shifted_count(support: np.ndarray, bohr: BohrSet) -> np.ndarray:
    """g(x) = #{b in B : x - b in S} by |B| shifted adds of the indicator
    of S, two contiguous slices each, into the least unsigned integer type
    that holds |B| (uint8 up to 255)."""
    p = bohr.modulus
    indicator = np.zeros(p, dtype=np.uint8)
    indicator[support] = 1
    counts = np.zeros(p, dtype=np.min_scalar_type(bohr.size))
    for b in bohr.members().tolist():
        counts[b:] += indicator[: p - b]
        counts[:b] += indicator[p - b :]
    return counts


def _convolved_count(support: np.ndarray, bohr: BohrSet) -> np.ndarray:
    """g(x) = #{b in B : x - b in S} in the least unsigned integer type
    that holds |B|: the exact sum counts of S and of B's members folded
    into (-P/2, P/2] and shifted to start at 0 (cyclic._sum_counts, which
    forms, rounds and checks them), added into g mod P."""
    p, members = bohr.modulus, bohr.members()
    folded = members - p * (members > p // 2)
    low = int(folded.min())
    r, _ = _sum_counts(support, folded - low)  # r[s] is the count at x = s + low
    counts = np.zeros(p, dtype=np.min_scalar_type(bohr.size))
    x = low % p
    while r.size:
        n = min(r.size, p - x)
        # r holds integers <= |B|, so the unsafe cast is exact
        np.add(counts[x : x + n], r[:n], out=counts[x : x + n], casting="unsafe")
        r, x = r[n:], 0
    return counts


def kernel_spectrum(bohr: BohrSet) -> np.ndarray:
    """sigmahat, the spectrum of sigma = (P/|B|) * 1_B, as a float64 array
    of its coefficients t <= P//2 (the half a Spectrum holds). sigma is
    symmetric about 0, so sigmahat is real. One of two paths forms it:

    * B is a symmetric arithmetic progression {j*d : |j| <= m} with
      2*m*d < P (_progression_step, an O(|B|) check of the sorted
      members): sigmahat is the Dirichlet kernel
      sin(pi*n*d*t/P) / (n*sin(pi*d*t/P)), n = |B|, in closed form (see
      _progression_spectrum). Most Bohr sets the pipeline builds are of
      this form, and with 1 in R (threshold_spectrum always adjoins it)
      and eps < 1/2 any such progression meets 2*m*d < P.
    * any other set: B = -B, so sigmahat(t) = (1/|B|) sum_{b in B}
      e(b*t/P) = (1 + 2 * Re sum_{b in B+} e(b*t/P)) / |B| with
      B+ = B & (0, P/2), and one forward transform of the indicator of
      B+ alone gives that sum (see _half_set_spectrum).

    sigma is a probability kernel, so sigmahat(0) = 1 and |sigmahat| <= 1;
    both are checked on every path to _KERNEL_SPECTRUM_TOL and a failure
    raises InvariantError. spectrum_needs_transform states which path is
    taken, by the same one check. Callers skip B = {0}, where sigma is the
    convolution identity and sigmahat is 1.
    """
    step = _progression_step(bohr)
    if step is None:
        sigma_hat = _half_set_spectrum(bohr)
    else:
        sigma_hat = _progression_spectrum(bohr.modulus, bohr.size, step)
    tol = _KERNEL_SPECTRUM_TOL
    if abs(sigma_hat[0] - 1.0) > tol:
        raise InvariantError(f"kernel spectrum at 0 is {sigma_hat[0]!r}, not 1")
    peak = float(np.max(np.abs(sigma_hat)))
    if peak > 1.0 + tol:
        raise InvariantError(f"kernel spectrum reaches {peak!r}, above 1")
    return sigma_hat


def spectrum_needs_transform(bohr: BohrSet) -> bool:
    """Whether kernel_spectrum forms B's sigmahat by a forward transform
    (_half_set_spectrum): B is not a symmetric progression
    (_progression_step), B = {0} among such sets. Otherwise sigmahat is
    in closed form."""
    return _progression_step(bohr) is None


def _half_set_spectrum(bohr: BohrSet) -> np.ndarray:
    """The real sigmahat at t <= P//2 of a Bohr set that contains 0 and is
    symmetric about it (_check_centred), from the forward transform of
    (2P/|B|) * 1_{B+}, B+ = B & (0, P/2), held as its support
    (cyclic.ScaledIndicator): its real part plus 1/|B|. B+ is the first
    half of members[1:], and its window is at most P/2 long where all of
    B's may be P.
    """
    _check_centred(bohr)
    p, members, size = bohr.modulus, bohr.members(), bohr.size
    half = ScaledIndicator(p, members[1 : 1 + size // 2], 2 * p / size).spectrum().half
    return half.real + 1.0 / size


def _check_centred(bohr: BohrSet) -> None:
    """Raise InvariantError unless the sorted members hold 0 and B = -B
    (members[0] = 0 and members[1:] = P - members[:0:-1], exact O(|B|)
    integer work), and, when 1 in R and eps < 1/4, unless every member
    lies in [-P/4, P/4], as it then provably does."""
    p, members = bohr.modulus, bohr.members()
    mirrored = np.array_equal(members[1:], p - members[:0:-1])
    if bohr.size == 0 or members[0] != 0 or not mirrored:
        raise InvariantError("Bohr set must contain 0 and be symmetric about it")
    if 1 in bohr.frequencies and bohr.radius < Fraction(1, 4):
        if int(np.minimum(members, p - members).max()) * 4 >= p:
            raise InvariantError("support must lie in [-P/4, P/4] when 1 in R and eps < 1/4")


def _progression_step(bohr: BohrSet) -> int | None:
    """d when the sorted members are exactly [0, d, ..., m*d] followed by
    [P - m*d, ..., P - d] with m >= 1 and 2*m*d < P, so that B is the
    symmetric progression {j*d : |j| <= m}; otherwise None. O(|B|)."""
    p, members = bohr.modulus, bohr.members()
    size = members.size
    if size < 3 or size % 2 == 0 or members[0] != 0:
        return None
    step, m = int(members[1]), size // 2
    if 2 * m * step >= p:
        return None
    multiples = np.arange(0, (m + 1) * step, step, dtype=np.int64)
    if not np.array_equal(members[: m + 1], multiples):
        return None
    # members[m + 1 + i] = P - (m - i)*d for i < m
    if not np.array_equal(members[m + 1 :], p - multiples[m:0:-1]):
        return None
    return step


def _progression_spectrum(p: int, size: int, step: int) -> np.ndarray:
    """sigmahat at t <= P//2 for B = {j*d : |j| <= m}, n = 2m + 1 = size,
    d = step: the Dirichlet kernel

        sigmahat(t) = (1/n) sum_{|j| <= m} e(j*d*t/P)
                    = sin(pi*phi_n/P) / (n * sin(pi*phi_d/P)),

    where phi_d = d*t and phi_n = n*d*t are exact int64 phases taken
    mod 2P (the period of sin(pi*x/P)), and sigmahat(0) = 1. For t > 0
    the denominator never vanishes, since P is prime and d, t < P.

    The t are taken in blocks of _SINE_BLOCK. For t = s + j in the
    block at s, each phase is c*t = r + o (mod 2P) with r = c*j mod 2P,
    tabulated once, and o = c*s mod 2P, so v = r + o - 2P in [-2P, 2P)
    and no length-P/2 integer temporary is made. Each sine is folded
    (_folded_sine) to an argument in [0, pi/2] before sin is taken, so a
    small sine keeps its relative accuracy, and its sign is carried
    separately. The blocks are shared out in chunks between two threads
    (cyclic._in_two).
    """
    half_size = p // 2 + 1
    out = np.empty(half_size)
    out[0] = 1.0
    period = 2 * p
    block = min(_SINE_BLOCK, half_size - 1)
    steps = (step, size * step % period)  # phi_d, phi_n per unit of t
    residues = [np.arange(block, dtype=np.int64) * c % period for c in steps]

    def fill(lo: int, hi: int) -> None:  # t in [1 + lo, 1 + hi)
        phase = np.empty(block, dtype=np.int64)
        scratch = np.empty(block, dtype=np.int64)
        signs = [np.empty(block, dtype=np.int64) for _ in steps]
        sines = [np.empty(block) for _ in steps]
        for start in range(1 + lo, 1 + hi, block):
            n = min(block, 1 + hi - start)
            for c, row, sign, sine in zip(steps, residues, signs, sines):
                np.add(row[:n], c * start % period - period, out=phase[:n])
                _folded_sine(phase[:n], p, sine[:n], sign[:n], scratch[:n])
            denominator, numerator = sines
            ratio = out[start : start + n]
            denominator[:n] *= size
            np.divide(numerator[:n], denominator[:n], out=ratio)
            # the signs agree exactly when their sign words do
            np.bitwise_xor(signs[0][:n], signs[1][:n], out=scratch[:n])
            np.copysign(ratio, scratch[:n], out=ratio)

    _in_two(fill, half_size - 1, block, half_size)
    return out


def _folded_sine(phase, p, sine, sign, scratch) -> None:
    """|sin(pi*v/P)| into sine and a sign word into sign for int64 v in
    [-2P, 2P] held in phase (which is overwritten): sin(pi*v/P) > 0
    exactly when sign < 0, wherever it is not 0.

    With y = |v| - P in [-P, P], sin(pi*v/P) = -sign(v) * sign(y) *
    sin(pi*|y|/P), so the sign word is v XOR y, and sin(pi*|y|/P) =
    sin(pi*f/P) with f = min(|y|, P - |y|) in [0, P//2].
    """
    np.abs(phase, out=scratch)
    scratch -= p
    np.bitwise_xor(phase, scratch, out=sign)
    np.abs(scratch, out=scratch)
    np.subtract(p, scratch, out=phase)
    np.minimum(scratch, phase, out=scratch)
    np.multiply(scratch, np.pi / p, out=sine)
    np.sin(sine, out=sine)
