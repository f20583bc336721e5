"""Shared fixtures and independent oracles.

Every oracle here deliberately avoids the code path it checks: transforms
by explicit summation, convolution by the definition (or numpy's FFT where
P is too large for it), primality by trial division, the progression
operator by a pure-Python or an elementwise double loop. The inputs made
here, function files, dense indicators and progression-free sets, are
made without package code; only the dense smoothed function (smoothed) is
built from the package's count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from ap3lab.cyclic import (
    _SPECTRUM_MAGIC,
    CyclicFunction,
    ScaledIndicator,
    Spectrum,
    _read_payload,
    fixed_sum,
    lp_norm,
)
from ap3lab.bohr import smooth
from ap3lab.errors import InvalidArgumentError, ResourceLimitError
from ap3lab.pipeline import PipelineConfig, run_pipeline
from ap3lab.primes import is_prime, sieve_primes
from ap3lab.sieve_bounds import root_count_rho


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def dense_prime_flags(limit: int) -> np.ndarray:
    """flags[n] is True iff n is prime, for 0 <= n <= limit, by one dense
    sieve of Eratosthenes over every integer."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def dense_tuple_count(spec, limit: int) -> int:
    """|{1 <= n <= limit : every b + nW prime}|, read off one dense sieve up
    to the largest value at every n at once."""
    n = np.arange(1, limit + 1, dtype=np.int64)
    flags = dense_prime_flags(max(max(spec.offsets) + limit * spec.w, 1))
    survive = np.ones(limit, dtype=bool)
    for b in spec.offsets:
        values = b + n * spec.w
        survive &= (values > 1) & flags[np.maximum(values, 0)]
    return int(np.count_nonzero(survive))


def singular_series_by_root_counts(spec, cutoff: int) -> float:
    """The truncated singular series with rho(p) from `root_count_rho`
    (modular inversion of W) at every prime, accumulated in ascending p."""
    log_total = 0.0
    for p in sieve_primes(cutoff).primes().tolist():
        rho = root_count_rho(p, spec)
        log_total += math.log1p(-rho / p) - spec.k * math.log1p(-1.0 / p)
    return math.exp(log_total)


def root_count_rho_scan(p: int, spec) -> int:
    """rho(p) by brute scan over n = 1..p; the oracle for `root_count_rho`."""
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    count = 0
    for n in range(1, p + 1):
        prod = 1
        for b in spec.offsets:
            prod = prod * (spec.w * n + b) % p
        if prod == 0:
            count += 1
    return count


@dataclass
class MomentSplit:
    """2k-th moment of a*sigma split by the number of distinct shifts."""

    k: int
    sigma_size: int
    by_distinct: dict[int, float]
    repeated_share: float  # tuples with fewer than 2k distinct coordinates
    distinct_share: float  # tuples with exactly 2k distinct coordinates
    total: float
    norm_check: float  # ||a*sigma||_{2k}^{2k} computed independently


def moment_distinct_split(
    a: CyclicFunction, sigma_members, k: int, max_tuples: int = 200_000
) -> MomentSplit:
    """Expand ||a*sigma||_{2k}^{2k} over explicit 2k-tuples of shifts and
    bucket by the number of distinct coordinates.

    For nonnegative a the expansion is an identity, so the buckets sum to
    the directly computed norm; desk-scale only (|Sigma|^(2k) tuples).
    """
    members = sorted(set(int(m) % a.modulus for m in sigma_members))
    if not members:
        raise InvalidArgumentError("Sigma must be nonempty")
    if len(members) ** (2 * k) > max_tuples:
        raise ResourceLimitError(
            f"|Sigma|^(2k) = {len(members) ** (2 * k)} tuples exceeds {max_tuples}"
        )
    p = a.modulus
    av = a.values
    idx = np.arange(p, dtype=np.int64)
    shifted = {y: av[(idx - y) % p] for y in members}

    buckets: dict[int, float] = {}
    for tup in product(members, repeat=2 * k):
        prod = shifted[tup[0]].copy()
        for y in tup[1:]:
            prod *= shifted[y]
        buckets.setdefault(len(set(tup)), 0.0)
        buckets[len(set(tup))] += float(np.mean(prod))
    scale = 1.0 / len(members) ** (2 * k)
    by_distinct = {r: v * scale for r, v in sorted(buckets.items())}

    sigma = dense_indicator(p, members, scale=p / len(members))
    smoothed = CyclicFunction(p, direct_convolve(a.values, sigma.values))
    norm_check = lp_norm(smoothed, 2 * k) ** (2 * k)
    total = sum(by_distinct.values())
    return MomentSplit(
        k=k,
        sigma_size=len(members),
        by_distinct=by_distinct,
        repeated_share=sum(v for r, v in by_distinct.items() if r < 2 * k),
        distinct_share=by_distinct.get(2 * k, 0.0),
        total=total,
        norm_check=norm_check,
    )


def direct_dft_stack(stack: np.ndarray, p: int, sign: int = +1) -> np.ndarray:
    """Unnormalized DFT of each row of `stack` by explicit summation,
    chunked over output frequencies. Row t of the phase table is built from
    (t*n) mod p in exact integers."""
    stack = np.atleast_2d(stack)
    n = np.arange(p, dtype=np.int64)
    roots = np.exp(sign * 2j * np.pi * n / p)
    out = np.empty((stack.shape[0], p), dtype=np.complex128)
    chunk = 512
    for t0 in range(0, p, chunk):
        ts = np.arange(t0, min(t0 + chunk, p), dtype=np.int64)
        block = roots[(ts[:, None] * n[None, :]) % p]
        out[:, t0 : t0 + ts.size] = stack @ block.T
    return out


def direct_forward(values: np.ndarray) -> np.ndarray:
    """Normalized forward transform oracle for one function."""
    p = values.shape[0]
    return direct_dft_stack(values, p, +1)[0] / p


def lp_norm_unblocked(values: np.ndarray, k: float) -> float:
    """(mean |f|^k)^(1/k) from whole-length |f| and power arrays, the
    power by repeated multiplication for integer k, summed by fixed_sum."""
    magnitudes = np.abs(values)
    if float(k).is_integer():
        power = magnitudes.copy()
        for _ in range(int(k) - 1):
            power *= magnitudes
    else:
        power = magnitudes**k
    return (fixed_sum(power) / values.size) ** (1.0 / k)


def gathered_full(half: np.ndarray, p: int) -> np.ndarray:
    """All P coefficients of a half spectrum, coefficient P - t gathered
    through an index array as conj(half[t])."""
    t = np.arange(p, dtype=np.int64)
    mirror = t >= half.size
    full = half[np.where(mirror, p - t, t)]
    full[mirror] = np.conj(full[mirror])
    return full


def lambda_of_full_spectra(fs: np.ndarray, gs: np.ndarray, hs: np.ndarray) -> float:
    """The progression operator on length-P, conjugate-symmetric spectra:
    x_t = Re((fs(t) * gs(-2t)) * hs(t)) multiplied out for t <= (P - 1)/2
    (fs(0) * gs(0) as a scalar product), the real parts mirrored into a
    length-P array and reduced by one fixed_sum."""
    p = fs.size
    if p == 2:
        return fixed_sum((fs * gs[[0, 0]] * hs).real)
    m = (p - 1) // 2
    products = np.empty(m + 1, dtype=np.complex128)
    products[0] = fs[0] * gs[0]
    np.multiply(fs[1 : m + 1], gs[p - 2 : 0 : -2], out=products[1:])
    products *= hs[: m + 1]
    terms = np.empty(p)
    terms[: m + 1] = products.real
    terms[m + 1 :] = terms[m:0:-1]
    return fixed_sum(terms)


def threshold_of_full_spectrum(coefficients: np.ndarray, delta: float):
    """(raw threshold set, fourth moment) of a length-P spectrum: the t
    with |coeff[t]| >= delta, and fixed_sum of |coeff|**4 over all P."""
    magnitudes = np.abs(coefficients)
    return np.flatnonzero(magnitudes >= delta), fixed_sum(magnitudes**4)


def direct_convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(f*g)(x) = (1/P) sum_y f(y) g(x-y) by the definition."""
    p = f.shape[0]
    y = np.arange(p)
    out = np.empty(p)
    for x in range(p):
        out[x] = float(np.dot(f, g[(x - y) % p])) / p
    return out


def fft_convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(f*g)(x) = (1/P) sum_y f(y) g(x-y) by numpy's real FFT, for P too
    large for direct_convolve."""
    p = f.shape[0]
    return np.fft.irfft(np.fft.rfft(f) * np.fft.rfft(g), n=p) / p


def lambda_enumerate(f: np.ndarray, g: np.ndarray, h: np.ndarray) -> float:
    """Pure-Python (x, d) double loop; small P only."""
    p = f.shape[0]
    total = 0.0
    for x in range(p):
        for d in range(p):
            total += f[x] * g[(x + d) % p] * h[(x + 2 * d) % p]
    return total / (p * p)


def lambda_direct(f: CyclicFunction, g: CyclicFunction, h: CyclicFunction) -> float:
    """The double sum (1/P^2) sum_{x,d} f(x) g(x+d) h(x+2d) in O(P^2): the
    terms f(x) g(x+d) h(x+2d) are added elementwise into one P-wide
    accumulator in ascending d, reduced by one fixed_sum."""
    p = f.modulus
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
    return fixed_sum(acc) / (p * p)


def count_3aps_brute(members) -> int:
    """Triple loop over increasing progressions; checks the pair-based counter."""
    arr = sorted(set(members))
    s = set(arr)
    count = 0
    for x in arr:
        d = 1
        while x + 2 * d <= arr[-1]:
            if x + d in s and x + 2 * d in s:
                count += 1
            d += 1
    return count


def additive_energy_brute(members) -> int:
    """Ordered quadruples (a, b, c, d) in A^4 with a + b = c + d, by
    enumerating (a, b, c) and looking d up."""
    arr = sorted(set(members))
    s = set(arr)
    return sum(1 for a in arr for b in arr for c in arr if a + b - c in s)


def bohr_members_brute(p: int, frequencies, eps) -> np.ndarray:
    """The ascending members of B(R, eps) by testing every n in Z/PZ
    against every frequency, with ||n*x/P|| <= eps as a Fraction."""
    radius = Fraction(eps)
    members = [
        n
        for n in range(p)
        if all(Fraction(min(n * x % p, p - n * x % p), p) <= radius for x in frequencies)
    ]
    return np.array(members, dtype=np.int64)


def behrend_set(limit: int) -> list[int]:
    """Dense 3AP-free subset of [1, limit] from spheres in digit space.

    Digits bounded by half the base make addition carry-free, so a + b = 2c
    forces the digit vectors into an arithmetic relation that a sphere
    (constant sum of squares) only satisfies degenerately. The best
    (base, dimension, radius) triple under the limit is picked by scan.
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
    return sorted(best)


def stanley_digits(limit: int) -> list[int]:
    """Integers in [0, limit] whose base-3 digits are all 0 or 1."""
    out = []
    for n in range(limit + 1):
        m = n
        while m:
            if m % 3 == 2:
                break
            m //= 3
        else:
            out.append(n)
    return out


def dense_indicator(modulus: int, support, scale: float = 1.0) -> CyclicFunction:
    """scale * 1_S as a dense CyclicFunction, the support read mod P. The
    package holds an indicator as its support (cyclic.ScaledIndicator)."""
    values = np.zeros(modulus)
    values[np.asarray(list(support), dtype=np.int64) % modulus] = scale
    return CyclicFunction(modulus, values)


def save_function(f: CyclicFunction, path) -> None:
    """Write f as `transform` reads it: magic ZPFN, u32 version 1, u64 P,
    then P little-endian float64."""
    header = b"ZPFN" + (1).to_bytes(4, "little") + f.modulus.to_bytes(8, "little")
    Path(path).write_bytes(header + f.values.astype("<f8").tobytes())


def read_spectrum(path) -> Spectrum:
    """The spectrum in a ZPSP file, as `transform` and save_spectrum write
    it, after the header and length checks that load_function makes."""
    p, data = _read_payload(path, _SPECTRUM_MAGIC, 2)
    return Spectrum(p, data.astype(np.float64).view(np.complex128)[: p // 2 + 1])


def smoothed(a, bohr) -> CyclicFunction:
    """h = a * sigma for a = c * 1_S, as the dense array (c/|B|) * g built
    from smooth's count g of S; h = 0 when a = 0. a is a ScaledIndicator
    (the lift's a), read as its support and scale, or a dense
    CyclicFunction, whose support is its nonzero values. The package never
    builds h, so the checks on h's convolution, spectrum and lambda build
    it here."""
    if isinstance(a, ScaledIndicator):
        support, scale = a.support, a.scale
    else:
        support = np.flatnonzero(a.values)
        scale = float(a.values[support[0]]) if support.size else 0.0
    return CyclicFunction(a.modulus, smooth(support, bohr) * (scale / bohr.size))


# ----------------------------------------------------------------------
# session fixtures (shared expensive artifacts)
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def table_1e5():
    return sieve_primes(10**5)


@pytest.fixture(scope="session")
def table_1e6():
    return sieve_primes(10**6)


@pytest.fixture(scope="session")
def pipeline_1e5():
    """The frozen-oracle configuration at N = 1e5."""
    return run_pipeline(
        PipelineConfig(n=10**5, delta="0.05", epsilon="0.1", k_values=(1, 2, 3))
    )


@pytest.fixture(scope="session")
def pipeline_1e6():
    """The frozen-oracle configuration at N = 1e6."""
    return run_pipeline(
        PipelineConfig(n=10**6, delta="0.05", epsilon="0.1", k_values=(1, 2, 3))
    )


@pytest.fixture(scope="session")
def pipeline_smoothing():
    """A configuration whose Bohr set is genuinely nontrivial (|B| = 30001),
    so smoothing actually moves mass around."""
    return run_pipeline(
        PipelineConfig(n=10**5, delta="0.4", epsilon="0.1", k_values=(1, 2))
    )


@pytest.fixture(scope="session")
def sieved_1e5(table_1e5):
    from ap3lab.wtrick import build_context, build_sieved_function, compute_parameters

    params = compute_parameters(10**5)
    ctx = build_context(table_1e5.primes(), 10**5, params)
    sieved = build_sieved_function(table_1e5.primes(), ctx, prime_table=table_1e5)
    return ctx, params, sieved
