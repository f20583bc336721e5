"""Closed-form bound evaluators: level sets, the radius/threshold budget,
the slowly-growing moment index, and the density comparison table.

All unnamed absolute constants are explicit arguments defaulting to 1, so
every output here is a constant-free instantiation, not a verified claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cyclic import CyclicFunction, lp_norm
from .errors import InvalidArgumentError, PreconditionError

EULER_MASCHERONI = 0.5772156649015329


@dataclass
class LevelSetReport:
    alpha: float
    p_exponent: float
    q_exponent: float
    c_norm: float  # ||f||_p
    threshold: float  # alpha / 2
    size: int
    mu: float
    holder_bound: float  # (alpha / 2C)^q
    margin: float  # mu - holder_bound, guaranteed >= 0


def level_set_extract(
    f: CyclicFunction, alpha: float, p: float
) -> tuple[np.ndarray, LevelSetReport]:
    """L = {n : f(n) >= alpha/2} with the duality bound mu(L) >= (alpha/2C)^q,
    where C = ||f||_p and 1/p + 1/q = 1.

    The bound is an exact consequence of splitting the mass of f at the
    threshold and applying the norm inequality to the upper part, so the
    returned margin is nonnegative for every valid input. f must be
    nonnegative with mean at least alpha > 0.
    """
    _check_exponent(p)
    if alpha <= 0:
        raise InvalidArgumentError(f"mass level alpha must be positive, got {alpha}")
    if float(f.values.min()) < 0:
        raise PreconditionError("level-set extraction needs a nonnegative function")
    l1 = f.mean()
    if l1 < alpha:
        raise PreconditionError(
            f"mean {l1:.6g} is below the requested mass alpha = {alpha:.6g}"
        )
    level_set = np.flatnonzero(f.values >= alpha / 2.0).astype(np.int64, copy=False)
    return level_set, holder_report(f.modulus, alpha, p, lp_norm(f, p), level_set.size)


def holder_report(
    modulus: int, alpha: float, p: float, c_norm: float, size: int
) -> LevelSetReport:
    """level_set_extract's report for a level set of the given size in
    Z/(modulus)Z, with c_norm = ||f||_p. The set does not depend on p, so
    one count serves every exponent."""
    _check_exponent(p)
    q = p / (p - 1.0)
    mu = size / modulus
    holder_bound = (alpha / (2.0 * c_norm)) ** q if c_norm > 0 else 0.0
    return LevelSetReport(
        alpha=alpha,
        p_exponent=p,
        q_exponent=q,
        c_norm=c_norm,
        threshold=alpha / 2.0,
        size=int(size),
        mu=mu,
        holder_bound=holder_bound,
        margin=mu - holder_bound,
    )


def _check_exponent(p: float) -> None:
    if p <= 1:
        raise InvalidArgumentError(f"need p > 1, got {p}")


@dataclass
class ConstraintReport:
    lhs: float  # C4 * delta^-4 * |ln eps|
    rhs: float  # (ln N) / 2
    slack: float
    satisfied: bool


def epsilon_delta_constraint(
    delta: float, epsilon: float, n: float, c4: float = 1.0
) -> ConstraintReport:
    """Budget check C4 * delta^-4 * |ln eps| <= (ln N)/2."""
    if delta <= 0 or epsilon <= 0 or epsilon >= 1 or n <= 1 or c4 <= 0:
        raise InvalidArgumentError(
            f"need delta > 0, 0 < eps < 1, N > 1, C4 > 0; "
            f"got {delta}, {epsilon}, {n}, {c4}"
        )
    lhs = c4 * delta**-4 * abs(math.log(epsilon))
    rhs = 0.5 * math.log(n)
    return ConstraintReport(lhs=lhs, rhs=rhs, slack=rhs - lhs, satisfied=lhs <= rhs)


def choose_k_from_log(log_n: float) -> int:
    """Moment index from ln N: half the integer part of ln ln ln N, clamped
    to at least 1 (the integer part is below 2 for any feasible N)."""
    if log_n <= 1:
        raise InvalidArgumentError(f"ln N must exceed 1 for the triple log, got {log_n}")
    inner = math.log(math.log(log_n))
    return max(1, math.floor(inner) // 2)


def choose_k(n: float) -> int:
    """choose_k_from_log(ln N); needs N >= 16 so the triple log is positive."""
    if n < 16:
        raise InvalidArgumentError(f"need N >= 16, got {n}")
    return choose_k_from_log(math.log(n))


def sanders_lower_bound(xi: float, c: float = 1.0) -> float:
    """exp(-c * xi^-1 * ln(1/xi)^5), the integer-set progression floor at
    density xi."""
    if not 0 < xi < 1:
        raise InvalidArgumentError(f"density must lie in (0, 1), got {xi}")
    return math.exp(-c / xi * math.log(1.0 / xi) ** 5)


def q_exponent(k: int) -> float:
    """Dual exponent (1 - 1/(2k))^-1 of the 2k-norm."""
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    return 1.0 / (1.0 - 1.0 / (2 * k))


def smoothed_progression_floor(alpha: float, k: int, c1: float = 1.0) -> float:
    """exp(-c1 * (alpha/k)^(-q) * ln(1/alpha)^5) with q = (1 - 1/(2k))^-1:
    the smoothed-function progression floor."""
    if not 0 < alpha < 1:
        raise InvalidArgumentError(f"alpha must lie in (0, 1), got {alpha}")
    q = q_exponent(k)
    return math.exp(-c1 * (alpha / k) ** (-q) * math.log(1.0 / alpha) ** 5)


def _iterated_log(n: float, depth: int) -> float | None:
    value = float(n)
    for _ in range(depth):
        if value <= 0:
            return None
        value = math.log(value)
    return value


def density_bound_table(n: float) -> dict[str, float | None]:
    """The four density-bound shapes evaluated with constant 1.

    Rows whose iterated logarithms are undefined at this N are None. Values
    can exceed 1 at desk scale; this is a comparison table, not a claim.
    """
    if not 1 < n < math.inf:
        raise InvalidArgumentError(f"N must be a finite number above 1, got {n}")
    log2 = _iterated_log(n, 2)
    log3 = _iterated_log(n, 3)
    log4 = _iterated_log(n, 4)
    log5 = _iterated_log(n, 5)

    table: dict[str, float | None] = {
        "five_log_ratio_sqrt": None,
        "triple_over_double_cuberoot": None,
        "triple_52_over_double_sqrt": None,
        "triple_sixth_over_double": None,
    }
    if log5 is not None and log4 is not None and log4 > 0 and log5 / log4 >= 0:
        table["five_log_ratio_sqrt"] = math.sqrt(log5 / log4)
    if log3 is not None and log2 is not None and log2 > 0:
        table["triple_over_double_cuberoot"] = log3 / log2 ** (1.0 / 3.0)
        if log3 >= 0:  # below N = e^e, log3 < 0 has no real 2.5th power
            table["triple_52_over_double_sqrt"] = log3**2.5 / math.sqrt(log2)
        table["triple_sixth_over_double"] = log3**6 / log2
    return table


def wphi_gamma_diagnostic(w: int, phi_w: int, z: float) -> float:
    """Diagnostic ratio (W/phi(W)) / (e^gamma * ln z); tends to 1 in theory,
    reported never asserted."""
    if z <= 1:
        raise InvalidArgumentError(f"z must exceed 1, got {z}")
    return (w / phi_w) / (math.exp(EULER_MASCHERONI) * math.log(z))
