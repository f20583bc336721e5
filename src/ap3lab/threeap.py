"""Three-term progression operator on Z/PZ and exact additive counts mod P.

The operator averages over ORDERED pairs (x, d) including d = 0, so a
single integer progression embedded without wraparound contributes two
orientations (d and P-d), and each member one trivial progression.

additive_counts is the one exact evaluator: for any set S of residues it
gives P^2 * lambda(1_S, 1_S, 1_S) and P^3 * sum_t |1_S^(t)|^4 as integers.
It takes its sum counts from cyclic._sum_counts, which forms, rounds and
checks them; this module only folds them mod P and reads the integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclic import (
    _COUNT_BLOCK,
    SUM_BLOCK,
    CyclicFunction,
    ScaledIndicator,
    _in_two,
    _sum_counts,
    check_residues,
    fixed_sum,
    mirrored_sum,
)
from .errors import InvalidArgumentError


@dataclass
class AdditiveCounts:
    """Exact counts of a set S of residues mod P, from its cyclic
    autoconvolution r(s) = #{(x, z) in S^2 : x + z = s mod P}."""

    pairs: int  # sum_{y in S} r(2y mod P) = P^2 * lambda(1_S, 1_S, 1_S)
    energy: int  # sum_s r(s)^2 = P^3 * sum_t |1_S^(t)|^4, the cyclic energy
    rounding_error: float  # max distance of the float r(s) to its integer


def additive_counts(members, modulus: int) -> AdditiveCounts:
    """Count the pairs (x, z) in S^2 with x + z = 2y mod P for some y in S,
    and the additive energy of S mod P, exactly.

    members must be ascending distinct residues in [0, P)
    (cyclic.check_residues refuses any other array). r is the
    integer autoconvolution of S (cyclic._sum_counts), formed over one
    float64 array of the least even 5-smooth length > 2 * max S, rounded
    in place and checked there. When r is longer than P it is folded in
    place, r(s) += r(s + P), and cut to its first P values; a folded value
    is at most |S|, so it stays an exact float64 integer. A set inside
    [0, P/3], such as the lift's A0, never folds. The energy is taken from
    r in blocks of _COUNT_BLOCK values converted to int64, shared out in
    chunks between two threads (cyclic._in_two) once r reaches 2^20
    values, and the pairs from r at 2S mod P, so only a block a thread is
    held as int64. Both are exact integer sums, so no bit depends on the
    split.
    """
    arr = check_residues(members, modulus, "members")
    r, rounding_error = _sum_counts(arr)
    if r.size > modulus:
        r[: r.size - modulus] += r[modulus:]
        r = r[:modulus]
    size = int(arr.size)
    # r(s) <= |S|, so r^2 fits int64 and each block's sum stays below 2**63
    block = min(_COUNT_BLOCK, max(1, (2**63 - 1) // max(1, size * size)))
    energies = []  # list.append is atomic under the GIL

    def square_blocks(lo: int, hi: int) -> None:
        for start in range(lo, hi, block):
            counts = r[start : min(start + block, hi)].astype(np.int64)
            energies.append(int(np.square(counts, out=counts).sum()))

    _in_two(square_blocks, r.size, block, r.size)
    energy = sum(energies)
    pairs = sum(
        int(r[(2 * arr[i : i + block]) % modulus].astype(np.int64).sum())
        for i in range(0, arr.size, block)
    )
    return AdditiveCounts(pairs=pairs, energy=energy, rounding_error=rounding_error)


Function = CyclicFunction | ScaledIndicator  # anything with .modulus and .spectrum()


def lambda_fourier(f: Function, g: Function, h: Function) -> float:
    """Spectral evaluation via sum_t fhat(t) * ghat(-2t) * hhat(t), for
    any functions that answer .modulus and .spectrum(): dense
    CyclicFunctions or ScaledIndicators held as their supports.

    The closed form follows from expanding f, g, h against this package's
    transform pair: the x-average forces r + s + u = 0 and the d-average
    forces s + 2u = 0, leaving r = u and s = -2u. The test suite checks it
    against a direct O(P^2) double sum and against additive_counts. The real
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

