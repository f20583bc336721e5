"""Prime generation and queries: segmented sieve, counting, primality, theta.

All logarithms in this package are natural logarithms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, InvariantError, ResourceLimitError

# Odd numbers sieved per segment; 2**18 odds keeps the working bool array
# inside L2 cache while packbits output stays byte-aligned.
SEGMENT_ODDS = 1 << 18

# Hard ceiling on sieve_primes limit (bit array would reach 1 GiB here).
DEFAULT_LIMIT_CEILING = 1 << 34

# Deterministic Miller-Rabin witness set, valid for all n < 3.3e24 > 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class PrimeTable:
    """Bit-packed primality table for [2, limit].

    Bit i of `bits` is set iff the odd number 2i+1 is composite (or 1).
    Immutable after construction; safe to share across threads.
    """

    def __init__(self, limit: int, bits: np.ndarray, count: int):
        self.limit = limit
        self.bits = bits
        self.count = count
        bits.setflags(write=False)

    def __contains__(self, n: int) -> bool:
        return self.is_prime(n)

    def is_prime(self, n: int) -> bool:
        if n < 2 or n > self.limit:
            return False
        if n % 2 == 0:
            return n == 2
        i = (n - 1) // 2
        return not (self.bits[i >> 3] >> (7 - (i & 7))) & 1

    def iter_blocks(self):
        """Yield ascending numpy arrays of primes, segment by segment."""
        if self.limit >= 2:
            yield np.array([2], dtype=np.int64)
        n_odds = (self.limit + 1) // 2
        step = SEGMENT_ODDS
        for lo in range(0, n_odds, step):
            hi = min(lo + step, n_odds)
            flags = np.unpackbits(self.bits[lo >> 3 : (hi + 7) >> 3])
            flags = flags[: hi - lo]
            idx = np.flatnonzero(flags == 0)
            if idx.size:
                yield (2 * (lo + idx.astype(np.int64)) + 1)

    def primes(self) -> np.ndarray:
        """All primes <= limit as one ascending array."""
        blocks = list(self.iter_blocks())
        if not blocks:
            return np.array([], dtype=np.int64)
        return np.concatenate(blocks)


def sieve_primes(limit: int, ceiling: int = DEFAULT_LIMIT_CEILING) -> PrimeTable:
    """Sieve all primes up to `limit` (inclusive) with an odd-only segmented sieve.

    Memory is O(sqrt(limit) + segment): each segment of 2**18 odd numbers is
    sieved as a bool array then packed to bits.
    """
    if limit < 2:
        raise InvalidArgumentError(f"sieve limit must be >= 2, got {limit}")
    if limit > ceiling:
        raise ResourceLimitError(f"sieve limit {limit} exceeds ceiling {ceiling}")

    base_limit = math.isqrt(limit)
    base = _simple_odd_primes(base_limit)  # odd primes <= sqrt(limit)

    n_odds = (limit + 1) // 2  # odds 1, 3, ..., up to limit
    packed = np.zeros((n_odds + 7) // 8, dtype=np.uint8)
    count = 1 if limit >= 2 else 0  # the prime 2

    for lo in range(0, n_odds, SEGMENT_ODDS):
        hi = min(lo + SEGMENT_ODDS, n_odds)
        # odd values covered: 2*lo+1 .. 2*hi-1
        seg = np.zeros(hi - lo, dtype=bool)
        if lo == 0:
            seg[0] = True  # 1 is not prime
        low_val = 2 * lo + 1
        for p in base:
            start = max(p * p, ((low_val + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start >= 2 * hi + 1:
                continue
            seg[(start - low_val) // 2 :: p] = True
        count += int(np.count_nonzero(~seg))
        pb = np.packbits(seg)
        packed[lo >> 3 : (lo >> 3) + pb.size] |= pb

    return PrimeTable(limit, packed, count)


def _simple_odd_primes(limit: int) -> np.ndarray:
    """Odd primes <= limit by a plain dense sieve (base primes only)."""
    if limit < 3:
        return np.array([], dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64)
    return primes[primes % 2 == 1]


def prime_count(table: PrimeTable, x: int) -> int:
    """pi(x): number of primes <= x."""
    if x < 0 or x > table.limit:
        raise InvalidArgumentError(f"x={x} outside [0, {table.limit}]")
    if x < 2:
        return 0
    n_odds = (x + 1) // 2  # odd numbers 1..x
    flags = np.unpackbits(table.bits[: (n_odds + 7) >> 3])[:n_odds]
    return int(np.count_nonzero(flags == 0)) + 1


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2**64 (Miller-Rabin, fixed witnesses)."""
    if n < 0 or n >= 1 << 64:
        raise InvalidArgumentError(f"is_prime domain is [0, 2**64), got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_above(x: int) -> int:
    """Least prime p with p > x. Checks Bertrand's postulate p <= 2x."""
    if x < 1:
        raise InvalidArgumentError(f"next_prime_above needs x >= 1, got {x}")
    if x >= (1 << 62):
        raise ResourceLimitError(f"prime search above {x} exceeds the 64-bit budget")
    n = x + 1
    if n <= 2:
        return 2
    if n % 2 == 0:
        n += 1
    while not is_prime(n):
        n += 2
    if n > 2 * x:
        raise InvariantError(
            f"next prime {n} above {x} breaks Bertrand's postulate p <= 2x"
        )
    return n


def chebyshev_theta(table: PrimeTable, z: float) -> float:
    """Sum of ln p over primes p <= z, accumulated in ascending order."""
    if z < 0 or z > table.limit:
        raise InvalidArgumentError(f"z={z} outside [0, {table.limit}]")
    total = 0.0
    bound = math.floor(z)
    for block in table.iter_blocks():
        if block[0] > bound:
            break
        block = block[block <= bound]
        if block.size:
            total += float(np.sum(np.log(block.astype(np.float64))))
    return total
