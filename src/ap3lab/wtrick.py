"""Small-prime sieving of a prime set: product modulus W, densest coprime
residue class, and its lift A0 = {(m - b)/W} to [1, P/3].

The lift is one immutable record, WTrickContext: the parameters
compute_parameters picks for N (z, W, phi(W), P and scale = ln N / ln z),
the class b, A0, |A| and alpha = |A| / pi(N), built in one pass by
build_context. The rescaled indicator a = scale * 1_{A0} is the
cyclic.ScaledIndicator over ctx.a0 (build_sieved_function): no length-P
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
    ResourceLimitError,
)
from .primes import PrimeTable, next_prime_above

# imported for perfbench/spans.py alone (see pipeline.lift)
from .primes import is_prime, sieve_primes  # noqa: F401


@dataclass(frozen=True, eq=False)
class WTrickParams:
    """Outcome of parameter selection for a given N."""

    n: int
    z: float
    w: int
    phi_w: int
    p: int
    scale: float  # ln N / ln z
    # diagnostic flags, reported not asserted: they hold only for large N
    log_w_in_band: bool  # (4/5) z <= ln W <= (4/3) z
    ratio_in_band: bool  # ln z <= W/phi(W) <= 2 ln z


@dataclass(frozen=True, eq=False)
class WTrickContext(WTrickParams):
    """Every fact of one lift: the parameters, the class b, the read-only
    support A0 of a, the input size |A| and alpha = |A| / pi(N)."""

    b: int
    a0: np.ndarray = field(repr=False)
    set_size: int
    alpha: float

    @property
    def l1_norm(self) -> float:
        return self.scale * self.a0.size / self.p

    @property
    def mass_ok(self) -> bool:
        """l1_norm >= alpha / 10 (reported; asserted only for dense A)."""
        return self.l1_norm >= self.alpha / 10

    @property
    def alpha_threshold_ok(self) -> bool:
        """alpha >= (ln N)^(-1/4), the paper's density range."""
        return self.alpha >= math.log(self.n) ** -0.25


def compute_parameters(n: int, z_override: float | None = None) -> WTrickParams:
    """Pick z, the product modulus W = prod_{p<=z} p, phi(W), the least
    prime P > 3N/W, and the scale ln N / ln z.

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
        n=n,
        z=z,
        w=w,
        phi_w=phi_w,
        p=p,
        scale=math.log(n) / math.log(z),
        log_w_in_band=0.8 * z <= log_w <= (4.0 / 3.0) * z,
        ratio_in_band=math.log(z) <= ratio <= 2 * math.log(z),
    )


def choose_residue(members: np.ndarray, w: int) -> int:
    """Densest residue class: the b coprime to W maximizing
    |{m in A : m = b mod W, m > W}|, smallest b on ties, for A an int64
    array.

    Realizes the averaging bound count >= (|A| - pi(W)) / phi(W)
    constructively (elements <= W are dropped, as the small primes would
    pollute the lift).
    """
    big = members[members > w]
    counts = np.bincount(big % w, minlength=w)
    counts[0] = 0  # W = 1 has no prime to zero it below
    rest, q = w, 2
    while q * q <= rest:  # each prime q of W zeroes its classes in one strided write
        if rest % q == 0:
            counts[::q] = 0
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        counts[::rest] = 0
    best_b = int(np.argmax(counts))  # the first maximum: the smallest b on ties
    if counts[best_b] == 0:
        raise EmptySelectionError(
            f"every residue class coprime to W={w} is empty above W"
        )
    return best_b


def build_context(members: np.ndarray, table: PrimeTable, params: WTrickParams) -> WTrickContext:
    """The lift of A, the ascending distinct primes up to N in `members`:
    the densest class b, A0 = {(m - b)/W : m in A, m = b mod W, m > W},
    and alpha = |A| / pi(N), with pi(N) the count of `table`, sieved to N.

    A0 is ascending and lands in [1, P/3] because P > 3N/W.
    """
    b = choose_residue(members, params.w)
    a0 = (members[(members % params.w == b) & (members > params.w)] - b) // params.w
    if int(a0[-1]) * 3 > params.p:
        raise InvariantError(
            f"lifted support reaches {int(a0[-1])}, past P/3 for P = {params.p}"
        )
    a0.setflags(write=False)
    return WTrickContext(**vars(params), b=b, a0=a0, set_size=int(members.size),
                         alpha=members.size / table.count)


def build_sieved_function(members: np.ndarray, ctx: WTrickContext,
                          table: PrimeTable) -> ScaledIndicator:
    """a = scale * 1_{A0} on Z/PZ, as the ScaledIndicator over ctx.a0,
    once each lifted element b + W * x, x in A0, is found prime in
    `table`. `members` is not read (see pipeline.lift)."""
    for m in (ctx.b + ctx.w * ctx.a0).tolist():
        if not table.is_prime(m):
            raise InvalidArgumentError(f"element {m} of the chosen class is not prime")
    return ScaledIndicator(ctx.p, ctx.a0, ctx.scale)
