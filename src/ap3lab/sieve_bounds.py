"""Prime-tuple counting oracles and the sieve-side bound evaluators.

Every "<<" style bound is evaluated with constant 1; the interesting output
is always the measured ratio count/bound, never a pass/fail on an absolute
constant the source material does not supply.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .cyclic import CyclicFunction, convolve, lp_norm
from .errors import (
    InvalidArgumentError,
    InvariantError,
    PreconditionError,
    ResourceLimitError,
)
from .primes import is_prime, sieve_primes
from .wtrick import WTrickContext

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


def root_count_rho_scan(p: int, spec: TupleSpec) -> int:
    """Same count by brute scan over n = 1..p; the oracle for the fast path."""
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

    A value <= 1 (zero and negative values included) is not prime. One bool
    per n in [1, limit] is sieved over the tuple's own progression: for each
    base prime p <= z with p not dividing W and each offset b, the class
    n = -b * W^{-1} (mod p) is struck, except the one n with b + nW = p.
    Here z = min(isqrt(top), limit) for the largest value top; when
    z < isqrt(top), the survivors are confirmed with `is_prime`. The work
    and memory grow with the limit, not with the size of the values.
    """
    if limit < 1:
        raise InvalidArgumentError(f"limit must be >= 1, got {limit}")
    w = spec.w
    top = max(spec.offsets) + limit * w
    if top >= 1 << 63:
        raise ResourceLimitError(f"tuple values reach {top}, past the 64-bit budget")

    alive = np.ones(limit + 1, dtype=bool)
    alive[0] = False
    for b in spec.offsets:
        last_dead = (1 - b) // w  # the largest n with b + nW <= 1
        if last_dead >= 1:
            alive[1 : last_dead + 1] = False

    root = math.isqrt(max(top, 0))
    z = min(root, limit)
    if z >= 2:
        for block in sieve_primes(z).iter_blocks():
            for p in block.tolist():
                if w % p == 0:
                    continue
                w_inv = pow(w, -1, p)
                for b in spec.offsets:
                    # From the first n with b + nW > p on, the class holds
                    # only multiples of p above p; below it, b + nW = p is
                    # prime and smaller values are <= 1, struck already.
                    first = max(1, (p - b) // w + 1)
                    alive[first + (-b * w_inv - first) % p :: p] = False

    if z == root:
        return int(np.count_nonzero(alive))
    return sum(
        1
        for n in np.flatnonzero(alive).tolist()
        if all(is_prime(b + n * w) for b in spec.offsets)
    )


def klimov_upper_bound(
    spec: TupleSpec,
    limit: int,
    series: SingularSeries | None = None,
) -> float:
    """P * 3^k * k! / (ln P)^k times the singular series, with constant 1.

    Needs k >= 2. Past k > ln P / (12 ln ln P) the bound is weaker than the
    trivial count P, which is reported as a warning rather than an error.
    """
    k = spec.k
    if k < 2:
        raise InvalidArgumentError(f"the tuple bound needs k >= 2, got k = {k}")
    if limit < 3:
        raise InvalidArgumentError(f"limit must be >= 3, got {limit}")
    log_p = math.log(limit)
    if k > log_p / (12 * math.log(log_p)):
        warnings.warn(
            f"k = {k} exceeds ln P/(12 ln ln P) = {log_p / (12 * math.log(log_p)):.3f};"
            " the bound is weaker than the trivial count",
            stacklevel=2,
        )
    if series is None:
        series = singular_series(spec)
    return limit * 3**k * math.factorial(k) / log_p**k * series.value


def hypothesis_flags(spec: TupleSpec, limit: int) -> dict[str, bool]:
    """Side conditions of the tuple bound, checked and reported, never
    silently relied upon."""
    log_p = math.log(limit)
    b = max(spec.offsets)
    return {
        "log_b_within_2_log_p": math.log(max(b, 1)) <= 2 * log_p,
        "log_w_within_2_log_p": math.log(spec.w) <= 2 * log_p,
        "k_within_sieve_range": spec.k <= log_p / (12 * math.log(log_p)),
    }


@dataclass
class BrunTitchmarshBound:
    raw_form: float  # 2PW / (phi(W) ln(P/W))
    simplified_form: float  # 12 P ln z / ln N
    side_conditions_hold: bool
    comparison_checked: bool


def brun_titchmarsh_bound(ctx: WTrickContext) -> BrunTitchmarshBound:
    """Both forms of the progression-count bound.

    The simplification raw <= 12 P ln z / ln N needs P/W >= N^(1/3) and
    W/phi(W) <= 2 ln z; the comparison is checked only when both hold.
    """
    if ctx.p <= ctx.w:
        raise InvalidArgumentError(f"need P > W, got P = {ctx.p}, W = {ctx.w}")
    raw = 2.0 * ctx.p * ctx.w / (ctx.phi_w * math.log(ctx.p / ctx.w))
    simplified = 12.0 * ctx.p * math.log(ctx.z) / math.log(ctx.n)
    conditions = (
        ctx.p / ctx.w >= ctx.n ** (1.0 / 3.0)
        and ctx.w / ctx.phi_w <= 2 * math.log(ctx.z)
    )
    if conditions and raw > simplified:
        raise InvariantError(
            f"raw form {raw} exceeds the simplified form {simplified}"
            " although its side conditions hold"
        )
    return BrunTitchmarshBound(
        raw_form=raw,
        simplified_form=simplified,
        side_conditions_hold=conditions,
        comparison_checked=conditions,
    )


def convolution_norm_bound(
    k: int,
    n: float,
    z: float,
    sigma_size: int,
    force: bool = False,
) -> float:
    """k + (ln N / ln z)^(1 - 1/(2k)) * |Sigma|^(-1/(2k)), with constant 1.

    The theory wants 1 <= k <= (ln z)^(1/3) / 2, which is vanishingly small
    at desk scale; force=True lifts the guard (callers must tag such runs
    exploratory).
    """
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    if sigma_size < 1:
        raise InvalidArgumentError(f"|Sigma| must be >= 1, got {sigma_size}")
    if z <= 1:
        raise InvalidArgumentError(f"z must exceed 1, got {z}")
    if not force and not k <= 0.5 * math.log(z) ** (1.0 / 3.0):
        raise PreconditionError(
            f"k = {k} outside the theory range [1, {0.5 * math.log(z) ** (1/3):.4f}];"
            " pass force=True to evaluate anyway"
        )
    ratio = math.log(n) / math.log(z)
    exponent = 1.0 - 1.0 / (2 * k)
    return k + ratio**exponent * sigma_size ** (-1.0 / (2 * k))


def moment_index_in_range(k: int, z: float) -> bool:
    return 1 <= k <= 0.5 * math.log(z) ** (1.0 / 3.0)


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
    for tup in iter_product(members, repeat=2 * k):
        prod = shifted[tup[0]].copy()
        for y in tup[1:]:
            prod *= shifted[y]
        buckets.setdefault(len(set(tup)), 0.0)
        buckets[len(set(tup))] += float(np.mean(prod))
    scale = 1.0 / len(members) ** (2 * k)
    by_distinct = {r: v * scale for r, v in sorted(buckets.items())}

    sigma = CyclicFunction.indicator(p, members, scale=p / len(members))
    norm_check = lp_norm(convolve(a, sigma), 2 * k) ** (2 * k)
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
