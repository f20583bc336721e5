"""Three-term progression operator on Z/PZ, integer 3AP counting, and
progression-free test-set generators.

Two counting conventions live side by side; keep them straight:

  * the operator averages over ORDERED pairs (x, d) including d = 0, so a
    single integer progression embedded without wraparound contributes two
    orientations (d and P-d);
  * count_3aps_integers counts each nontrivial progression ONCE (d > 0),
    and the |A| trivial progressions are reported separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .cyclic import CyclicFunction, fixed_sum
from .errors import InvalidArgumentError, InvariantError, ResourceLimitError

# Above this modulus the O(P^2) double loop is refused and callers should
# take the spectral route.
DIRECT_LAMBDA_CEILING = 20011

# The float64 autoconvolution of a 0/1 vector errs by about
# 1e-16 * log2(length) * |A|, below 1e-8 for any set the pipeline builds;
# a value farther than this from an integer means the transform failed.
AUTOCONVOLUTION_ROUNDING_BOUND = 1e-3


@dataclass
class APReport:
    """Lambda value split by common difference: d = 0 versus the rest."""

    lambda_value: float
    trivial_mass: float
    nontrivial_mass: float
    pair_count: int | None  # round(lambda * P^2) when inputs are indicators


@dataclass
class AdditiveCounts:
    """Exact counts of a set A of nonnegative integers, from its
    autoconvolution r(s) = #{(x, z) in A^2 : x + z = s}."""

    pairs: int  # sum_{y in A} r(2y) = |A| + 2 * (number of 3APs in A)
    energy: int  # sum_s r(s)^2, the additive energy of A
    rounding_error: float  # max distance of the float r(s) to its integer


def additive_counts(members) -> AdditiveCounts:
    """Count the pairs (x, z) in A^2 with x + z = 2y for some y in A, and
    the additive energy of A, exactly.

    For A inside [0, P/3] no sum wraps mod P, so these give the operator
    and the spectral 4-norm of the indicator on Z/PZ as integers:
    P^2 * lambda(1_A, 1_A, 1_A) = pairs and P^3 * sum_t |1_A^(t)|^4 = energy.
    r is a real FFT rounded to integers; the rounding is checked against
    AUTOCONVOLUTION_ROUNDING_BOUND and against sum_s r(s) = |A|^2.
    """
    arr = np.unique(np.asarray(members, dtype=np.int64))
    if arr.size and arr[0] < 0:
        raise InvalidArgumentError(f"members must be nonnegative, got {int(arr[0])}")
    top = int(arr[-1]) if arr.size else 0
    length = 1 << (2 * top).bit_length()  # > 2 * top, so no sum wraps
    indicator = np.zeros(length)
    indicator[arr] = 1.0
    spectrum = np.fft.rfft(indicator)
    spectrum *= spectrum
    r_float = np.fft.irfft(spectrum, n=length)[: 2 * top + 1]
    r_rounded = np.rint(r_float)
    rounding_error = float(np.max(np.abs(r_float - r_rounded)))
    r = r_rounded.astype(np.int64)
    size = int(arr.size)
    if rounding_error > AUTOCONVOLUTION_ROUNDING_BOUND or int(r.sum()) != size * size:
        raise InvariantError(
            f"autoconvolution of a {size}-element set: rounding error "
            f"{rounding_error:.3g} (bound {AUTOCONVOLUTION_ROUNDING_BOUND}), "
            f"total {int(r.sum())} (want {size * size})"
        )
    # r(s) <= |A|, so r^2 fits int64 and each block sum stays below 2**63
    squares = r * r
    block = max(1, (2**63 - 1) // max(1, size * size))
    energy = sum(int(squares[i : i + block].sum()) for i in range(0, squares.size, block))
    return AdditiveCounts(
        pairs=int(r[2 * arr].sum()),
        energy=energy,
        rounding_error=rounding_error,
    )


def trivial_mass(f: CyclicFunction, g: CyclicFunction, h: CyclicFunction) -> float:
    """The d = 0 contribution (1/P^2) sum_x f(x) g(x) h(x), in O(P)."""
    p = f.modulus
    return fixed_sum(f.values * g.values * h.values) / (p * p)


def lambda_direct(
    f: CyclicFunction,
    g: CyclicFunction,
    h: CyclicFunction,
    ceiling: int = DIRECT_LAMBDA_CEILING,
) -> APReport:
    """Exact double sum (1/P^2) sum_{x,d} f(x) g(x+d) h(x+2d).

    O(P^2); refuses past the ceiling (raise it only for one-off oracle
    runs). The terms f(x) g(x+d) h(x+2d) are added elementwise into one
    P-wide accumulator in ascending d, and the accumulator is reduced by
    one fixed_sum, so the result does not depend on the numpy build.
    """
    p = _common_modulus(f, g, h)
    if p > ceiling:
        raise ResourceLimitError(
            f"P = {p} exceeds the direct-evaluation ceiling {ceiling};"
            " use lambda_fourier"
        )
    fv = f.values
    g2 = np.concatenate([g.values, g.values])
    h2 = np.concatenate([h.values, h.values])
    acc = np.zeros(p)
    term = np.empty(p)
    for d in range(p):
        shift = 2 * d % p
        np.multiply(fv, g2[d : d + p], out=term)
        term *= h2[shift : shift + p]
        acc += term
    lam = fixed_sum(acc) / (p * p)
    triv = trivial_mass(f, g, h)
    return APReport(
        lambda_value=lam,
        trivial_mass=triv,
        nontrivial_mass=lam - triv,
        pair_count=_pair_count(lam, p) if _all_indicator(f, g, h) else None,
    )


def lambda_fourier(
    f: CyclicFunction, g: CyclicFunction, h: CyclicFunction
) -> float:
    """Spectral evaluation via sum_t fhat(t) * ghat(-2t) * hhat(t).

    The closed form follows from expanding f, g, h against this package's
    transform pair: the x-average forces r + s + u = 0 and the d-average
    forces s + 2u = 0, leaving r = u and s = -2u. Verified against
    lambda_direct in the test suite before any production use.
    """
    p = _common_modulus(f, g, h)
    fs = f.spectrum().coefficients
    gs = g.spectrum().coefficients
    hs = h.spectrum().coefficients
    t = np.arange(p, dtype=np.int64)
    minus_2t = (-2 * t) % p
    value = np.sum(fs * gs[minus_2t] * hs)
    return float(value.real)


def count_3aps_integers(members) -> int:
    """Nontrivial integer 3APs (x, x+d, x+2d), d > 0, counted once each."""
    arr = sorted(set(int(m) for m in members))
    member_set = set(arr)
    count = 0
    for i, x in enumerate(arr):
        for y in arr[i + 1 :]:
            if 2 * y - x in member_set:
                count += 1
    return count


def behrend_set(limit: int) -> list[int]:
    """Dense 3AP-free subset of [1, limit] from spheres in digit space.

    Digits bounded by half the base make addition carry-free, so a + b = 2c
    forces the digit vectors into an arithmetic relation that a sphere
    (constant sum of squares) only satisfies degenerately. The best
    (base, dimension, radius) triple under the limit is picked by scan.
    Output is verified 3AP-free before returning.
    """
    if limit < 1:
        raise InvalidArgumentError(f"limit must be >= 1, got {limit}")
    if limit <= 3:
        return [1] if limit == 1 else [1, 2]  # too small for the digit scan

    best: list[int] = [1]
    for base in range(3, 40):
        max_digit = (base - 1) // 2
        dims = 1
        while base ** (dims + 1) <= 4 * limit:
            dims += 1
        for n_dims in range(1, dims + 1):
            spheres: dict[int, list[int]] = {}
            for digits in product(range(max_digit + 1), repeat=n_dims):
                value = 0
                for a in digits:
                    value = value * base + a
                if value + 1 > limit:
                    continue
                spheres.setdefault(sum(a * a for a in digits), []).append(value + 1)
            for bucket in spheres.values():
                if len(bucket) > len(best):
                    best = bucket
    result = sorted(best)
    assert count_3aps_integers(result) == 0, "construction produced a 3AP"
    return result


def greedy_3ap_free(limit: int) -> list[int]:
    """Lexicographically greedy 3AP-free subset of [0, limit].

    Equals the integers with only digits 0 and 1 in base 3 (the greedy rule
    is implemented directly; the digit characterization is a test oracle).
    """
    if limit < 0:
        raise InvalidArgumentError(f"limit must be >= 0, got {limit}")
    member = np.zeros(limit + 1, dtype=bool)
    out: list[int] = []
    for n in range(limit + 1):
        d = np.arange(1, n // 2 + 1)
        if d.size and bool(np.any(member[n - d] & member[n - 2 * d])):
            continue
        member[n] = True
        out.append(n)
    return out


def _common_modulus(f, g, h) -> int:
    if not (f.modulus == g.modulus == h.modulus):
        raise InvalidArgumentError(
            f"moduli differ: {f.modulus}, {g.modulus}, {h.modulus}"
        )
    return f.modulus


def _all_indicator(*functions) -> bool:
    return all(
        np.all((fn.values == 0.0) | (fn.values == 1.0)) for fn in functions
    )


def _pair_count(lam: float, p: int) -> int:
    scaled = lam * p * p
    rounded = round(scaled)
    assert math.isclose(scaled, rounded, abs_tol=1e-6), (
        "indicator lambda should be an integer multiple of 1/P^2"
    )
    return int(rounded)
