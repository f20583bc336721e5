"""Small-prime sieving of a prime set: product modulus W, densest coprime
residue class, lift to [1, P], and the rescaled indicator function, held
as its support A0 and the scale (cyclic.ScaledIndicator): no length-P
array of a is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cyclic import ScaledIndicator
from .errors import (
    DegenerateParametersError,
    EmptySelectionError,
    InvalidArgumentError,
    InvariantError,
    PreconditionError,
    ResourceLimitError,
)
from .primes import PrimeTable, next_prime_above, prime_count, sieve_primes

# is_prime stays importable here because perfbench/spans.py counts wtrick.is_prime.
from .primes import is_prime  # noqa: F401


@dataclass
class WTrickParams:
    """Outcome of parameter selection for a given N."""

    z: float
    w: int
    phi_w: int
    p: int
    # diagnostic flags, reported not asserted: they hold only for large N
    log_w_in_band: bool  # (4/5) z <= ln W <= (4/3) z
    ratio_in_band: bool  # ln z <= W/phi(W) <= 2 ln z


@dataclass
class WTrickContext:
    """Everything the downstream pipeline needs about one sieving run.

    a0 is filled by build_sieved_function; the context is treated as
    immutable afterwards.
    """

    n: int
    z: float
    w: int
    phi_w: int
    b: int
    p: int
    scale: float  # ln N / ln z
    a0: np.ndarray | None = field(default=None, repr=False)


@dataclass
class SievedFunction:
    """The rescaled indicator of the lifted set, held as its support, plus
    its headline stats."""

    function: ScaledIndicator
    alpha: float  # |A| / pi(N)
    l1_norm: float  # scale * |A0| / P
    mass_ok: bool  # l1_norm >= alpha / 10 (reported; asserted only for dense A)
    alpha_threshold_ok: bool  # alpha >= (ln N)^(-1/4), the paper's density range


def compute_parameters(n: int, z_override: float | None = None) -> WTrickParams:
    """Pick z, the product modulus W = prod_{p<=z} p, phi(W), and the least
    prime P > 3N/W.

    Default z is ln(N)/4. The two asymptotic bands on ln W and W/phi(W) are
    evaluated and reported as flags.
    """
    if n < 100:
        raise InvalidArgumentError(f"need N >= 100, got {n}")
    if n > 1 << 50:
        raise ResourceLimitError(
            f"N = {n} exceeds the 2**50 domain cap (3N/W and P must fit in 64 bits)"
        )
    if z_override is not None:
        if not 2 <= z_override <= math.log(n):
            raise InvalidArgumentError(
                f"z override {z_override} outside [2, ln N = {math.log(n):.4f}]"
            )
        z = float(z_override)
    else:
        z = 0.25 * math.log(n)

    # W always contains the prime 2: the empty product would leave no
    # nontrivial residue class at all (N >= 100 keeps z > 1 regardless).
    w = 2
    phi_w = 1
    p_val = 3
    while p_val <= z:
        w *= p_val
        phi_w *= p_val - 1
        p_val = next_prime_above(p_val)
    if w >= n:
        raise DegenerateParametersError(
            f"W = {w} >= N = {n}; z = {z} is too large for this N"
        )

    p = next_prime_above(3 * n // w)
    if not 3 * n / w < p <= 6 * n / w:
        raise InvariantError(f"P = {p} outside (3N/W, 6N/W] for N = {n}, W = {w}")

    log_w = math.log(w)
    ratio = w / phi_w
    return WTrickParams(
        z=z,
        w=w,
        phi_w=phi_w,
        p=p,
        log_w_in_band=0.8 * z <= log_w <= (4.0 / 3.0) * z,
        ratio_in_band=math.log(z) <= ratio <= 2 * math.log(z),
    )


def choose_residue(members, w: int) -> int:
    """Densest residue class: the b coprime to W maximizing
    |{m in A : m = b mod W, m > W}|, smallest b on ties.

    Realizes the averaging bound count >= (|A| - pi(W)) / phi(W)
    constructively (elements <= W are dropped, as the small primes would
    pollute the lift). An ndarray is read as it is; a list or any other
    iterable is collected first.
    """
    if not isinstance(members, np.ndarray):
        members = list(members)
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        raise EmptySelectionError("input set is empty")
    big = members[members > w]
    counts = np.bincount((big % w).astype(np.int64), minlength=w)
    best_b = -1
    best_count = 0
    for b in range(1, w):
        if math.gcd(b, w) != 1:
            continue
        if int(counts[b]) > best_count:
            best_b, best_count = b, int(counts[b])
    if best_b < 0:
        raise EmptySelectionError(
            f"every residue class coprime to W={w} is empty above W"
        )
    return best_b


def build_sieved_function(
    members,
    ctx: WTrickContext,
    prime_table: PrimeTable | None = None,
) -> SievedFunction:
    """Lift the chosen class to A0 = {(m-b)/W} and build a = scale * 1_{A0}
    on Z/PZ, as the ScaledIndicator over ctx.a0.

    Every lifted element must be prime (the input is supposed to be a prime
    subset); each is looked up in `prime_table`, which is sieved to N here
    when the caller's table does not reach N. Support lands in [1, P/3]
    because P > 3N/W.
    """
    members = np.sort(np.asarray(members, dtype=np.int64))
    if members.size == 0:
        raise InvalidArgumentError("input set is empty")
    # Sort and mask rather than np.unique, which in numpy 2.4 hashes and took
    # 0.6 s on the 664579 primes below 1e7, against 0.01 s for this.
    members = members[np.append(True, members[1:] != members[:-1])]
    if members.max() > ctx.n:
        raise InvalidArgumentError(
            f"set contains {members.max()} > N = {ctx.n}"
        )

    in_class = members[(members % ctx.w == ctx.b % ctx.w) & (members > ctx.w)]
    if in_class.size == 0:
        raise PreconditionError(
            f"no elements of the set lie in class {ctx.b} mod {ctx.w} above W"
        )
    if prime_table is None or prime_table.limit < ctx.n:
        prime_table = sieve_primes(ctx.n)
    for m in in_class.tolist():
        if not prime_table.is_prime(m):
            raise InvalidArgumentError(f"element {m} of the chosen class is not prime")

    a0 = (in_class - ctx.b) // ctx.w
    if int(a0.max()) * 3 > ctx.p:
        raise InvariantError(
            f"lifted support reaches {int(a0.max())}, past P/3 for P = {ctx.p}"
        )
    ctx.a0 = a0

    function = ScaledIndicator(ctx.p, a0, ctx.scale)

    alpha = members.size / prime_count(prime_table, ctx.n)
    l1_norm = ctx.scale * a0.size / ctx.p
    return SievedFunction(
        function=function,
        alpha=alpha,
        l1_norm=l1_norm,
        mass_ok=l1_norm >= alpha / 10,
        alpha_threshold_ok=alpha >= math.log(ctx.n) ** -0.25,
    )


def build_context(members, n: int, params: WTrickParams) -> WTrickContext:
    """The residue choice for the parameters compute_parameters picked for
    N, bundled with them into a context."""
    return WTrickContext(
        n=n,
        z=params.z,
        w=params.w,
        phi_w=params.phi_w,
        b=choose_residue(members, params.w),
        p=params.p,
        scale=math.log(n) / math.log(params.z),
    )
