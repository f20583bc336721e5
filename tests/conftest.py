"""Shared fixtures and independent oracles.

Every oracle here deliberately avoids the code path it checks: transforms
by explicit summation, convolution by the definition, primality by trial
division, the progression operator by a pure-Python double loop.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ap3lab.pipeline import PipelineConfig, run_pipeline
from ap3lab.primes import sieve_primes
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


def singular_series_by_root_counts(spec, cutoff: int) -> float:
    """The truncated singular series with rho(p) from `root_count_rho`
    (modular inversion of W) at every prime, accumulated in ascending p."""
    log_total = 0.0
    for p in sieve_primes(cutoff).primes().tolist():
        rho = root_count_rho(p, spec)
        log_total += math.log1p(-rho / p) - spec.k * math.log1p(-1.0 / p)
    return math.exp(log_total)


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


def direct_convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(f*g)(x) = (1/P) sum_y f(y) g(x-y) by the definition."""
    p = f.shape[0]
    y = np.arange(p)
    out = np.empty(p)
    for x in range(p):
        out[x] = float(np.dot(f, g[(x - y) % p])) / p
    return out


def lambda_enumerate(f: np.ndarray, g: np.ndarray, h: np.ndarray) -> float:
    """Pure-Python (x, d) double loop; small P only."""
    p = f.shape[0]
    total = 0.0
    for x in range(p):
        for d in range(p):
            total += f[x] * g[(x + d) % p] * h[(x + 2 * d) % p]
    return total / (p * p)


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
    from ap3lab.wtrick import build_context, build_sieved_function

    ctx, params = build_context(table_1e5.primes(), 10**5)
    sieved = build_sieved_function(table_1e5.primes(), ctx, prime_table=table_1e5)
    return ctx, params, sieved
