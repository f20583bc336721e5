"""Prime generation and queries: progression sieve, counting, primality.

All logarithms in this package are natural logarithms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, InvariantError, ResourceLimitError

# Values of n sieved per segment by `sieve_progression`, and odd numbers
# unpacked per block by `PrimeTable.iter_blocks`. A multiple of 8, so each
# packed segment stays byte-aligned.
SEGMENT = 1 << 20

# Hard ceiling on the sieve_primes limit (its bit table would reach 1 GiB here).
LIMIT_CEILING = 1 << 34

# Deterministic Miller-Rabin witness set, valid for all n < 3.3e24 > 2**64;
# also the trial divisors that settle every n they divide.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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

    def is_prime(self, n: int) -> bool:
        if n < 2 or n > self.limit:
            return False
        if n % 2 == 0:
            return n == 2
        i = (n - 1) // 2
        return not (self.bits[i >> 3] >> (7 - (i & 7))) & 1

    def is_prime_many(self, values) -> np.ndarray:
        """is_prime of each value, as one bool array, by one vectorized
        lookup into `bits`. Values outside [2, limit] are not prime here."""
        n = np.asarray(values, dtype=np.int64)
        inside = (n >= 2) & (n <= self.limit)
        odd = inside & (n % 2 == 1)
        i = np.where(odd, (n - 1) // 2, 0)
        composite = (self.bits[i >> 3] >> (7 - (i & 7))) & 1
        return np.where(odd, composite == 0, inside & (n == 2))

    def iter_blocks(self):
        """Yield ascending numpy arrays of primes, segment by segment."""
        if self.limit >= 2:
            yield np.array([2], dtype=np.int64)
        n_odds = (self.limit + 1) // 2
        for lo in range(0, n_odds, SEGMENT):
            hi = min(lo + SEGMENT, n_odds)
            flags = np.unpackbits(self.bits[lo >> 3 : (hi + 7) >> 3])
            flags = flags[: hi - lo]
            idx = np.flatnonzero(flags == 0)
            if idx.size:
                yield (2 * (lo + idx.astype(np.int64)) + 1)

    def primes(self) -> np.ndarray:
        """All primes <= limit as one ascending array."""
        return np.concatenate([np.zeros(0, dtype=np.int64), *self.iter_blocks()])


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve all primes up to `limit` (inclusive).

    The odd numbers 1 + 2n, n < (limit + 1) // 2, are the progression W = 2,
    b = 1 of `sieve_progression`, whose base primes up to isqrt(limit) are
    sieved recursively. Each segment is packed to bits as it is sieved, so
    memory is the bit table plus one segment.
    """
    if limit < 2:
        raise InvalidArgumentError(f"sieve limit must be >= 2, got {limit}")
    if limit > LIMIT_CEILING:
        raise ResourceLimitError(f"sieve limit {limit} exceeds ceiling {LIMIT_CEILING}")
    root = math.isqrt(limit)
    base = sieve_primes(root).primes() if root >= 2 else ()
    n_odds = (limit + 1) // 2
    packed = np.empty((n_odds + 7) // 8, dtype=np.uint8)
    count = 1  # the prime 2
    for lo, alive in sieve_progression(2, (1,), 0, n_odds, base):
        count += int(np.count_nonzero(alive))
        packed[lo >> 3 : (lo + alive.size + 7) >> 3] = np.packbits(~alive)
    return PrimeTable(limit, packed, count)


def sieve_progression(w: int, offsets, start: int, stop: int, base):
    """Sieve the progressions b + nW, for b in `offsets` (each coprime to W),
    over n in [start, stop), and yield (lo, alive) one segment at a time.

    alive[i] is False when some b + nW at n = lo + i is <= 1, or is a
    multiple of a prime p in `base`, p not dividing W, other than p itself.
    When `base` holds every prime up to the root of the largest value, the
    survivors are the n at which every b + nW is prime. Each class
    n = -b * W^{-1} (mod p) is struck from its first n with b + nW >= p^2:
    a smaller multiple kp has a prime factor below p, which does not divide
    W since gcd(b, W) = 1. The next n of each class is carried from segment
    to segment in one int64 array.
    """
    dead_end = max((1 - b) // w for b in offsets) + 1  # some b + nW <= 1 below
    nexts = []
    steps = []
    for p in map(int, base):
        if w % p == 0:
            continue
        w_inv = pow(w, -1, p)
        for b in offsets:
            first = max(start, -((b - p * p) // w))  # least n with b + nW >= p^2
            first += (-b * w_inv - first) % p
            nexts.append(min(first, stop))
            steps.append(p)
    nexts = np.array(nexts, dtype=np.int64)
    steps = np.array(steps, dtype=np.int64)
    for lo in range(start, stop, SEGMENT):
        hi = min(lo + SEGMENT, stop)
        alive = np.ones(hi - lo, dtype=bool)
        alive[: max(0, dead_end - lo)] = False
        for first, p in zip(nexts.tolist(), steps.tolist()):
            alive[first - lo :: p] = False
        nexts += np.maximum(hi - nexts + steps - 1, 0) // steps * steps
        yield lo, alive


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
    for p in _MR_WITNESSES:
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

