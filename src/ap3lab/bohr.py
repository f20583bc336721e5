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

# Frequencies per block of the closed-form sigmahat (_run_spectrum): each
# thread's four scratch rows take 768 KiB, and each phase step's table of
# roots 256 KiB. Every value in a block is a product of a table and one
# root, so the block sets how far the per-block overheads are spread. On
# a 2-core x86_64 machine (medians of 7 calls), blocks of 4096, 8192,
# 16384 and 32768 took 7.6-8.1, 4.4-4.7, 3.3 and 3.0 ms at P = 5000011
# (|B| = 15, one run), 23-29, 16, 11 and 11-14 ms there at |B| = 135
# (seven runs), and 2.6-2.7, 2.3, 2.3 and 2.4 ms at P = 500009
# (|B| = 133335, nine runs).
_SINE_BLOCK = 16384
# Entries of the fine root table of _root_table; the coarse one has
# _SINE_BLOCK / _ROOT_FINE.
_ROOT_FINE = 128
# _step_runs tries this many of B's least positive members as the step d.
# Every Bohr set but {0} of the 3 x 4 grids of all primes at N = 1e6, 3e6,
# 4e6 and 1e7 and of two seeded halves of them at N = 1e6 took the first,
# but |B| = 133335 of the halves, which holds 3 and is nine runs along 5,
# the second.
_STEP_CANDIDATES = 4
# kernel_spectrum takes the closed form for a set of at most this many
# runs, and the transform of B+ past it. The closed form's cost grows with
# the runs, the transform's with P alone (2-core x86_64, medians of 5 to 9
# calls, runs spread over Z/PZ): at P = 500009, 7.7 ms against 21.6 ms for
# the transform at 33 runs and 13.9 ms against 17.4 ms at 57; at
# P = 5000011, 45 ms against 106 ms at 33 runs and 73 ms against 137 ms at
# 57. The cap stays below both crossings, with room for the noise of a
# shared machine.
_MAX_RUNS = 32
# Below this |sin(pi*d*t/P)|, _run_spectrum forms sigmahat again from
# exact phases after its blocks: its turned roots err by about 6e-16
# each, and the quotient magnifies that by 1/|sin|. At P = 5000011 that
# is 24869 of the 2500005 t in [1, P//2], whatever d is.
_SMALL_SINE = 2.0**-6


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


# BohrSet._runs before runs() is first called (None means past the cap)
_UNDECOMPOSED = object()


class BohrSet:
    """B(R, eps), held as its members: one read-only, ascending int64
    array of residues in [0, P). size and measure derive from it, and
    members() returns it as it is. runs() is B's decomposition into runs
    along one step, memoized, so kernel_spectrum and
    spectrum_needs_transform share one. Immutable."""

    __slots__ = ("modulus", "frequencies", "radius", "_members", "_runs")

    def __init__(self, modulus, frequencies, radius, members):
        self.modulus = modulus
        self.frequencies = frequencies
        self.radius = radius
        self._members = np.asarray(members, dtype=np.int64)
        self._members.setflags(write=False)
        self._runs = _UNDECOMPOSED

    @property
    def size(self) -> int:
        return int(self._members.size)

    @property
    def measure(self) -> float:
        return self.size / self.modulus

    def members(self) -> np.ndarray:
        return self._members

    def runs(self) -> tuple[int, np.ndarray, np.ndarray] | None:
        """_step_runs(self), taken through the module global on first use
        and kept."""
        if self._runs is _UNDECOMPOSED:
            self._runs = _step_runs(self)
        return self._runs


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
    of its coefficients t <= P//2 (the half a Spectrum holds). B must
    contain 0 and be symmetric about it (_check_centred), so sigmahat is
    real. One of two paths forms it:

    * B is a union of at most _MAX_RUNS runs {(a + j)*d : 0 <= j < L}
      along one step d (_step_runs; a symmetric progression {j*d : |j| <= m}
      is the one-run case, and every Bohr set the grid builds has been one
      of these): sigmahat is a sum of Dirichlet kernels in closed form (see
      _run_spectrum).
    * any other set: B = -B, so sigmahat(t) = (1/|B|) sum_{b in B}
      e(b*t/P) = (1 + 2 * Re sum_{b in B+} e(b*t/P)) / |B| with
      B+ = B & (0, P/2), and one forward transform of the indicator of
      B+ alone gives that sum (see _half_set_spectrum).

    sigma is a probability kernel, so sigmahat(0) = 1 and |sigmahat| <= 1.
    The runs must cover |B| members in all, an exact integer check, and on
    both paths sigmahat(0) and the peak of |sigmahat| are checked to
    _KERNEL_SPECTRUM_TOL; a failure raises InvariantError.
    spectrum_needs_transform states which path is taken, by the same
    decomposition, which B takes once (BohrSet.runs). Callers skip
    B = {0}, where sigma is the convolution identity and sigmahat is 1.
    """
    _check_centred(bohr)
    runs = bohr.runs()
    if runs is None:
        sigma_hat = _half_set_spectrum(bohr)
    else:
        step, starts, lengths = runs
        covered = int(lengths.sum())
        if covered != bohr.size:
            raise InvariantError(
                f"kernel spectrum at 0 is {covered}/{bohr.size}, not 1: the runs "
                f"along {step} do not cover B"
            )
        sigma_hat = _run_spectrum(bohr.modulus, bohr.size, step, starts, lengths)
    tol = _KERNEL_SPECTRUM_TOL
    if abs(sigma_hat[0] - 1.0) > tol:
        raise InvariantError(f"kernel spectrum at 0 is {sigma_hat[0]!r}, not 1")
    peak = float(np.max(np.abs(sigma_hat)))
    if peak > 1.0 + tol:
        raise InvariantError(f"kernel spectrum reaches {peak!r}, above 1")
    return sigma_hat


def spectrum_needs_transform(bohr: BohrSet) -> bool:
    """Whether kernel_spectrum forms B's sigmahat by a forward transform
    (_half_set_spectrum): no step tried splits B into at most _MAX_RUNS
    runs (BohrSet.runs, which keeps the decomposition for kernel_spectrum).
    Otherwise sigmahat is in closed form, B = {0} and every progression
    among such sets."""
    return bohr.runs() is None


def _half_set_spectrum(bohr: BohrSet) -> np.ndarray:
    """The real sigmahat at t <= P//2 of a Bohr set that contains 0 and is
    symmetric about it, from the forward transform of (2P/|B|) * 1_{B+},
    B+ = B & (0, P/2), held as its support (cyclic.ScaledIndicator): its
    real part plus 1/|B|. B+ is the first half of members[1:], and its
    window is at most P/2 long where all of B's may be P.
    """
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


def _step_runs(bohr: BohrSet) -> tuple[int, np.ndarray, np.ndarray] | None:
    """(d, starts, lengths) with B the union of the runs
    {(a + j)*d mod P : 0 <= j < L} over the pairs (a, L) of starts and
    lengths, for the first step d among B's _STEP_CANDIDATES least positive
    members (d = 1 for B = {0}) that gives at most _MAX_RUNS of them;
    otherwise None. The runs are the maximal cyclic runs of consecutive
    residues among the sorted u = b*d^-1 mod P, a run may wrap past P - 1,
    and B = Z/PZ is the one run [0, P). A symmetric progression
    {j*d : |j| <= m} is the run [-m, m] along its least positive member d.
    O(|B| log |B|) per step tried."""
    p, members = bohr.modulus, bohr.members()
    positive = members[int(np.searchsorted(members, 1)) :]
    for step in positive[:_STEP_CANDIDATES].tolist() or [1]:
        u = members * pow(step, -1, p) % p  # b * d^-1 < P^2 <= 2**62
        u.sort()
        ends = np.flatnonzero(np.diff(u, append=u[0] + p) != 1)  # each run's last index
        if ends.size > _MAX_RUNS:
            continue
        if not ends.size:  # no gap: u is all of Z/PZ
            return step, np.zeros(1, dtype=np.int64), np.array([p])
        lengths = np.diff(ends, prepend=ends[-1] - u.size)
        return step, u[(ends - lengths + 1) % u.size], lengths
    return None


def _run_spectrum(p: int, size: int, step: int, starts, lengths) -> np.ndarray:
    """sigmahat at t <= P//2 for the B of _step_runs: the runs of starts
    a_i and lengths L_i along d = step, with sum L_i = |B| and B = -B.
    Summing e(u*d*t/P) over each run gives

        sigmahat(t) = (1/|B|) sum_i cos(pi*c_i*t/P) * sin(pi*s_i*t/P)
                                    / sin(pi*d*t/P),

    with c_i = (2*a_i + L_i - 1)*d and s_i = L_i*d exact integer phase
    steps mod 2P (the period of sin(pi*x/P)), and sigmahat(0) = 1: the sum
    is real since B = -B. For t > 0 the denominator never vanishes, since
    P is prime and d, t < P, and for B = Z/PZ (s = P*d) every numerator
    does, so sigmahat is exactly 0 there. A run and its mirror have the
    same s and opposite c, and cos is even, so each distinct (|c|, s) is
    one term, weighted by how many runs share it; a symmetric progression
    is the one term c = 0.

    The t are taken in blocks of _SINE_BLOCK. Each distinct phase step g,
    d among them, gets one table of e(g*j/(2P)) for j in a block, each
    entry the product of two roots of exact integer phase (_exact_roots),
    and in the block at s each cosine or sine, the denominator's with its
    sign, is that table turned by the root of phase g*s mod 2P. The
    blocks are shared out in chunks between two threads (cyclic._in_two).
    The turned roots err by about 6e-16 each, which the quotient magnifies
    by 1/|sin(pi*d*t/P)|, so after the blocks sigmahat is formed again at
    the t where that sine is below _SMALL_SINE: those with
    d*t = +-j mod P, 1 <= j <= J (_small_sine_reach), listed as
    t = j*d^-1 mod P folded to t <= P//2, each numerator (_exact_numerator)
    and denominator taken from exact folded phases, so each sine keeps its
    relative accuracy.
    """
    half_size = p // 2 + 1
    out = np.empty(half_size)
    out[0] = 1.0
    if size == p:  # B = Z/PZ
        out[1:] = 0.0
        return out
    period = 2 * p
    terms = {}  # (|c|, s) -> the runs that share it
    for a, length in zip(starts.tolist(), lengths.tolist()):
        c = (2 * a + length - 1) * step % period
        key = (min(c, period - c), length * step % period)
        terms[key] = terms.get(key, 0) + 1
    block = min(_SINE_BLOCK, half_size - 1)
    steps = {g for term in terms for g in term if g} | {step}
    roots = {g: _root_table(g, block, p) for g in steps}
    # each block's turns: the roots of phase g*s mod 2P at its first t = s
    turns = {g: _exact_roots(np.arange(1, half_size, block) * g % period, p) for g in steps}

    # the sine's turns of each term carry its weight, the denominator's |B|
    weighted = {term: turns[term[1]] * weight for term, weight in terms.items()}
    scaled = turns[step] * size

    def fill(lo: int, hi: int) -> None:  # t in [1 + lo, 1 + hi)
        numerator, product = np.empty(block), np.empty(block)
        sines, cosines = (np.empty(block, dtype=np.complex128) for _ in range(2))
        for start in range(1 + lo, 1 + hi, block):
            n, k = min(block, 1 + hi - start), (start - 1) // block
            numerator[:n] = 0.0
            for (c, s), turn in weighted.items():
                np.multiply(roots[s][:n], turn[k], out=sines[:n])  # weight * sin(pi*s*t/P)
                if c:
                    np.multiply(roots[c][:n], turns[c][k], out=cosines[:n])  # cos(pi*c*t/P)
                    np.multiply(sines.imag[:n], cosines.real[:n], out=product[:n])
                    numerator[:n] += product[:n]
                else:
                    numerator[:n] += sines.imag[:n]
            np.multiply(roots[step][:n], scaled[k], out=sines[:n])  # |B| * sin(pi*d*t/P)
            np.divide(numerator[:n], sines.imag[:n], out=out[start : start + n])

    _in_two(fill, half_size - 1, block, half_size)
    t = np.arange(1, _small_sine_reach(p) + 1, dtype=np.int64) * pow(step, -1, p) % p
    np.minimum(t, p - t, out=t)
    sine = _exact_roots(t * step % period, p).imag
    out[t] = _exact_numerator(terms, t, p) / (sine * size)
    return out


def _small_sine_reach(p: int) -> int:
    """J, the largest j with sin(pi*j/P) < _SMALL_SINE (0 when there is
    none), so that |sin(pi*d*t/P)| < _SMALL_SINE where d*t = +-j mod P
    for some 1 <= j <= J."""
    return int(p * np.arcsin(_SMALL_SINE) / np.pi)


def _exact_numerator(terms, t: np.ndarray, p: int) -> np.ndarray:
    """sum of weight * cos(pi*c*t/P) * sin(pi*s*t/P) over the terms
    {(c, s): weight} of _run_spectrum at the int64 t, each root taken at
    its exact folded phase (_exact_roots), so each sine keeps its
    relative accuracy."""
    period = 2 * p
    total = np.zeros(t.size)
    for (c, s), weight in terms.items():
        term = weight * _exact_roots(t * s % period, p).imag
        if c:
            term *= _exact_roots(t * c % period, p).real
        total += term
    return total


def _root_table(g: int, block: int, p: int) -> np.ndarray:
    """exp(i*pi*(g*j mod 2P)/P) for j < block: each entry the product of
    a fine root (j mod K) and a coarse one (the rest of j), K = _ROOT_FINE,
    both of exact integer phase (_exact_roots), so only about
    2*sqrt(block) cosines and sines are taken."""
    period = 2 * p
    fine = _exact_roots(np.arange(_ROOT_FINE) * g % period, p)
    coarse = _exact_roots(np.arange(0, block, _ROOT_FINE) * g % period, p)
    return np.multiply.outer(coarse, fine).ravel()[:block]


def _exact_roots(phases: np.ndarray, p: int) -> np.ndarray:
    """exp(i*pi*v/P) for int64 phases v in [0, 2P). Its cosine and sine
    are taken at the angle f*pi/P in [0, pi/2], f = min(|w|, P - |w|) with
    w = v - 2P past P, and their signs set after: the angle's relative
    rounding is about 1e-16, so a small sine keeps its relative accuracy
    and no value errs by much more than 2e-16."""
    w = np.where(phases > p, phases - 2 * p, phases)  # in (-P, P]
    magnitude = np.abs(w)
    folded = np.minimum(magnitude, p - magnitude)
    angle = folded * (np.pi / p)
    roots = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=roots.real)
    np.negative(roots.real, out=roots.real, where=magnitude > folded)  # cos(pi - x) = -cos(x)
    np.sin(angle, out=roots.imag)
    np.copysign(roots.imag, w, out=roots.imag)
    return roots
