"""Three-term progression operator on Z/PZ and exact additive counts.

The operator averages over ORDERED pairs (x, d) including d = 0, so a
single integer progression embedded without wraparound contributes two
orientations (d and P-d), and each member one trivial progression.

additive_counts takes its exact sum counts from cyclic._sum_counts, which
forms, rounds and checks them; this module only reads the integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cyclic import (
    _COUNT_BLOCK,
    SUM_BLOCK,
    CyclicFunction,
    ScaledIndicator,
    _in_two,
    _sum_counts,
    fixed_sum,
    mirrored_sum,
)
from .errors import InvalidArgumentError, InvariantError, ResourceLimitError

# Above this modulus the O(P^2) double loop is refused and callers should
# take the spectral route.
DIRECT_LAMBDA_CEILING = 20011


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
    Duplicates are dropped by sort and mask. r is the autoconvolution
    of A (cyclic._sum_counts), formed over one length-S float64 array,
    rounded in place and checked there. The energy is taken from r in
    blocks of _COUNT_BLOCK values converted to int64, shared out in chunks
    between two threads (cyclic._in_two) once r reaches 2^20 values, and
    the pairs from r at 2A, so only a block a thread is held as int64.
    Both are exact integer sums, so no bit depends on the split.
    """
    arr = np.sort(np.asarray(members, dtype=np.int64))
    first = np.ones(arr.size, dtype=bool)
    np.not_equal(arr[1:], arr[:-1], out=first[1:])
    arr = arr[first]
    if arr.size and arr[0] < 0:
        raise InvalidArgumentError(f"members must be nonnegative, got {int(arr[0])}")
    r, rounding_error = _sum_counts(arr)
    size = int(arr.size)
    # r(s) <= |A|, so r^2 fits int64 and each block's sum stays below 2**63
    block = min(_COUNT_BLOCK, max(1, (2**63 - 1) // max(1, size * size)))
    energies = []  # list.append is atomic under the GIL

    def square_blocks(lo: int, hi: int) -> None:
        for start in range(lo, hi, block):
            counts = r[start : min(start + block, hi)].astype(np.int64)
            energies.append(int(np.square(counts, out=counts).sum()))

    _in_two(square_blocks, r.size, block, r.size)
    energy = sum(energies)
    pairs = sum(
        int(r[2 * arr[i : i + block]].astype(np.int64).sum())
        for i in range(0, arr.size, block)
    )
    return AdditiveCounts(pairs=pairs, energy=energy, rounding_error=rounding_error)


def trivial_mass(f: CyclicFunction, g: CyclicFunction, h: CyclicFunction) -> float:
    """The d = 0 contribution (1/P^2) sum_x f(x) g(x) h(x), in O(P)."""
    p = f.modulus
    return fixed_sum(f.values * g.values * h.values) / (p * p)


def lambda_direct(f: CyclicFunction, g: CyclicFunction, h: CyclicFunction) -> APReport:
    """Exact double sum (1/P^2) sum_{x,d} f(x) g(x+d) h(x+2d).

    O(P^2); refuses P past DIRECT_LAMBDA_CEILING. The terms
    f(x) g(x+d) h(x+2d) are added elementwise into one P-wide accumulator
    in ascending d, and the accumulator is reduced by one fixed_sum, so the
    result does not depend on the numpy build.
    """
    p = _common_modulus(f, g, h)
    if p > DIRECT_LAMBDA_CEILING:
        raise ResourceLimitError(
            f"P = {p} exceeds the direct-evaluation ceiling {DIRECT_LAMBDA_CEILING};"
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


Function = CyclicFunction | ScaledIndicator  # anything with .modulus and .spectrum()


def lambda_fourier(f: Function, g: Function, h: Function) -> float:
    """Spectral evaluation via sum_t fhat(t) * ghat(-2t) * hhat(t), for
    any functions that answer .modulus and .spectrum(): dense
    CyclicFunctions or ScaledIndicators held as their supports.

    The closed form follows from expanding f, g, h against this package's
    transform pair: the x-average forces r + s + u = 0 and the d-average
    forces s + 2u = 0, leaving r = u and s = -2u. Verified against
    lambda_direct in the test suite before any production use. The real
    parts of the products are reduced by fixed_sum, so the order of the
    sum does not depend on the numpy build; only t <= P/2 is multiplied
    out (see lambda_of_spectra).
    """
    p = _common_modulus(f, g, h)
    return lambda_of_spectra(p, f.spectrum().half, g.spectrum().half, h.spectrum().half)


def lambda_of_spectra(p: int, fs: np.ndarray, gs: np.ndarray, hs: np.ndarray) -> float:
    """The spectral core of lambda_fourier on half spectra at the prime P:
    fixed_sum over all t in Z/PZ of x_t = Re(fs(t) * gs(-2t) * hs(t)).

    Each array holds coefficients t <= P//2 of a real function's spectrum,
    as Spectrum.half does (so P is passed: P//2 + 1 is the same for P = 2
    and P = 3); coefficient P - t is conj of coefficient t, and so
    x_(P-t) = x_t in every bit. For odd P, x_t is formed only for
    t <= m = (P - 1)/2, in blocks of SUM_BLOCK, as
    (fs(t) * gs(-2t)) * hs(t) in that operand order (a complex product is
    not bitwise commutative). gs(-2t) is read through one of two strided
    views: gs(0) itself at t = 0, conj(gs[2t]) for 0 < 2t <= m, and
    gs[P - 2t] otherwise. mirrored_sum then adds x_0 ... x_m, x_m ... x_1
    in fixed_sum's order without building that sequence, so besides the
    m + 1 terms only block-sized scratch is made.

    Takes any array that holds a half spectrum, so a caller that needs only
    the operator (the pipeline's hhat = ahat * sigmahat) never builds h.
    """
    if p == 2:
        return fixed_sum((fs * gs[[0, 0]] * hs).real)
    m = (p - 1) // 2
    terms = np.empty(m + 1)
    products = np.empty(min(SUM_BLOCK, m + 1), dtype=np.complex128)
    for start in range(0, m + 1, SUM_BLOCK):
        stop = min(start + SUM_BLOCK, m + 1)
        block = products[: stop - start]
        split = min(max(start, m // 2 + 1), stop)  # 2t <= m below it
        low = max(start, 1)
        if low < split:
            mirrored = block[low - start : split - start]
            np.conjugate(gs[2 * low : 2 * split : 2], out=mirrored)
            np.multiply(fs[low:split], mirrored, out=mirrored)
        if split < stop:
            np.multiply(fs[split:stop], gs[p - 2 * split :: -2][: stop - split],
                        out=block[split - start :])
        if start == 0:
            block[0] = fs[0] * gs[0]
        block *= hs[start:stop]
        terms[start:stop] = block.real
    return mirrored_sum(terms, p)


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
    if not math.isclose(scaled, rounded, abs_tol=1e-6):
        raise InvariantError(f"indicator lambda {lam!r} is not a multiple of 1/P^2")
    return int(rounded)
