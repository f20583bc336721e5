"""Prime-tuple counting oracles and the sieve-side bound evaluators.

Every "<<" style bound is evaluated with constant 1; the interesting output
is always the measured ratio count/bound, never a pass/fail on an absolute
constant the source material does not supply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    PreconditionError,
    ResourceLimitError,
)
from .primes import is_prime, sieve_primes, sieve_progression

DEFAULT_SERIES_CUTOFF = 10**6


@dataclass(frozen=True)
class TupleSpec:
    """k shifted progressions b_i + n*W with pairwise distinct offsets
    coprime to the common modulus W."""

    w: int
    offsets: tuple[int, ...]

    def __post_init__(self):
        if self.w < 1:
            raise InvalidArgumentError(f"modulus W must be >= 1, got {self.w}")
        if len(self.offsets) == 0:
            raise InvalidArgumentError("need at least one offset")
        if len(set(self.offsets)) != len(self.offsets):
            raise InvalidArgumentError(f"offsets {self.offsets} are not distinct")
        for b in self.offsets:
            if math.gcd(b, self.w) != 1:
                raise InvalidArgumentError(
                    f"offset {b} shares a factor with W = {self.w}"
                )

    @property
    def k(self) -> int:
        return len(self.offsets)


@dataclass
class SingularSeries:
    """Truncated local-density product with a crude tail estimate."""

    spec: TupleSpec
    cutoff: int
    value: float
    tail_estimate: float


def root_count_rho(p: int, spec: TupleSpec) -> int:
    """Number of n in {1..p} with prod_i (W*n + b_i) = 0 mod p.

    Zero when p divides W (offsets are coprime to W); otherwise the count of
    distinct roots -b_i * W^{-1} mod p, computed by k modular inversions.
    """
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    if spec.w % p == 0:
        return 0
    w_inv = pow(spec.w, -1, p)
    return len({(-b * w_inv) % p for b in spec.offsets})


def singular_series(
    spec: TupleSpec, cutoff: int = DEFAULT_SERIES_CUTOFF
) -> SingularSeries:
    """prod_{p <= cutoff} (1 - rho(p)/p) * (1 - 1/p)^{-k}, accumulated in log
    space over ascending p.

    rho(p) is read off the offsets, with no modular arithmetic: it is 0 when
    p | W; otherwise the roots -b * W^{-1} mod p are distinct exactly when
    the offsets b are, so rho(p) = |{b mod p}|, which is k once p exceeds
    max b - min b. The result equals accumulating `root_count_rho` bit for
    bit. The factors settle to 1 + O(k^2/p^2) once rho(p) = k, so the
    truncation tail is estimated as k^2/cutoff.
    """
    if cutoff < 100:
        raise InvalidArgumentError(f"cutoff must be >= 100, got {cutoff}")
    k = spec.k
    w = spec.w
    offsets = spec.offsets
    spread = max(offsets) - min(offsets)
    log_total = 0.0
    for block in sieve_primes(cutoff).iter_blocks():
        for p in block.tolist():
            if w % p == 0:
                rho = 0
            elif p <= spread:
                rho = len({b % p for b in offsets})
            else:
                rho = k
            if rho == p:
                raise PreconditionError(
                    f"rho({p}) = {p}: the tuple is locally impossible mod {p}"
                )
            log_total += math.log1p(-rho / p) - k * math.log1p(-1.0 / p)
    return SingularSeries(
        spec=spec,
        cutoff=cutoff,
        value=math.exp(log_total),
        tail_estimate=k * k / cutoff,
    )


def count_prime_tuples(spec: TupleSpec, limit: int) -> int:
    """|{n <= limit : b_1 + nW, ..., b_k + nW all prime}|, exactly.

    A value <= 1 (zero and negative values included) is not prime. The
    tuple's progressions are sieved by `sieve_progression` over n in
    [1, limit] with the base primes up to z = min(isqrt(top), limit), top
    the largest value. When z is the root the survivors are counted, else
    confirmed with `is_prime`. Memory is one segment plus the pi(z) base
    primes, whatever the limit.
    """
    if limit < 1:
        raise InvalidArgumentError(f"limit must be >= 1, got {limit}")
    w = spec.w
    top = max(spec.offsets) + limit * w
    if top >= 1 << 63:
        raise ResourceLimitError(f"tuple values reach {top}, past the 64-bit budget")
    root = math.isqrt(max(top, 0))
    z = min(root, limit)
    base = sieve_primes(z).primes() if z >= 2 else ()
    count = 0
    for lo, alive in sieve_progression(w, spec.offsets, 1, limit + 1, base):
        if z == root:
            count += int(np.count_nonzero(alive))
            continue
        for n in (lo + np.flatnonzero(alive)).tolist():
            count += all(is_prime(b + n * w) for b in spec.offsets)
    return count


def klimov_upper_bound(spec: TupleSpec, limit: int, series: SingularSeries) -> float:
    """P * 3^k * k! / (ln P)^k times `series`, the singular series of
    spec, with constant 1.

    Needs k >= 2. Past k > ln P / (12 ln ln P) the bound is weaker than the
    trivial count P; hypothesis_flags reports that as k_within_sieve_range.
    """
    k = spec.k
    if k < 2:
        raise InvalidArgumentError(f"the tuple bound needs k >= 2, got k = {k}")
    if limit < 3:
        raise InvalidArgumentError(f"limit must be >= 3, got {limit}")
    log_p = math.log(limit)
    return limit * 3**k * math.factorial(k) / log_p**k * series.value


def hypothesis_flags(spec: TupleSpec, limit: int) -> dict[str, bool]:
    """Side conditions of the tuple bound, checked and reported, never
    silently relied upon."""
    if limit < 3:
        raise InvalidArgumentError(f"limit must be >= 3, got {limit}")
    log_p = math.log(limit)
    b = max(spec.offsets)
    return {
        "log_b_within_2_log_p": math.log(max(b, 1)) <= 2 * log_p,
        "log_w_within_2_log_p": math.log(spec.w) <= 2 * log_p,
        "k_within_sieve_range": spec.k <= log_p / (12 * math.log(log_p)),
    }


def convolution_norm_bound(k: int, n: float, z: float, sigma_size: int) -> float:
    """k + (ln N / ln z)^(1 - 1/(2k)) * |Sigma|^(-1/(2k)), with constant 1.

    The theory wants 1 <= k <= (ln z)^(1/3) / 2 (moment_index_in_range),
    which is vanishingly small at desk scale; the bound is evaluated for
    any k >= 1, and callers tag runs outside that range exploratory.
    """
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    if sigma_size < 1:
        raise InvalidArgumentError(f"|Sigma| must be >= 1, got {sigma_size}")
    if z <= 1:
        raise InvalidArgumentError(f"z must exceed 1, got {z}")
    ratio = math.log(n) / math.log(z)
    exponent = 1.0 - 1.0 / (2 * k)
    return k + ratio**exponent * sigma_size ** (-1.0 / (2 * k))


def moment_index_in_range(k: int, z: float) -> bool:
    return 1 <= k <= 0.5 * math.log(z) ** (1.0 / 3.0)
