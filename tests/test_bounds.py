import math

import numpy as np
import pytest

from ap3lab.bounds import (
    EULER_MASCHERONI,
    choose_k,
    choose_k_from_log,
    density_bound_table,
    epsilon_delta_constraint,
    holder_report,
    level_set_extract,
    smoothed_progression_floor,
    q_exponent,
    sanders_lower_bound,
    wphi_gamma_diagnostic,
)
from ap3lab.cyclic import CyclicFunction
from ap3lab.errors import InvalidArgumentError, PreconditionError


def test_level_set_constant_function():
    f = CyclicFunction(101, np.full(101, 0.3))
    level, report = level_set_extract(f, 0.3, 2.0)
    assert report.size == 101 and report.mu == 1.0
    assert math.isclose(report.holder_bound, 0.25, rel_tol=1e-12)
    assert report.margin >= 0


def test_level_set_two_level_function():
    # f = 2*alpha on half the group: L is exactly that half
    p = 1009
    alpha = 0.4
    values = np.zeros(p)
    half = (p - 1) // 2
    values[:half] = 2 * alpha
    f = CyclicFunction(p, values)
    mass = float(np.mean(values))
    level, report = level_set_extract(f, mass, 2.0)
    assert report.size == half
    c_hand = 2 * alpha * math.sqrt(half / p)
    assert math.isclose(report.c_norm, c_hand, rel_tol=1e-12)
    assert report.margin >= 0
    assert np.all(f.values[level] >= mass / 2)


def test_level_set_random_functions_margin_never_negative():
    rng = np.random.default_rng(61)
    for _ in range(50):
        p = int(rng.choice([101, 211, 1009]))
        f = CyclicFunction(p, rng.random(p) ** rng.integers(1, 4))
        mass = float(np.mean(f.values))
        alpha = mass * float(rng.uniform(0.1, 1.0))
        exponent = float(rng.uniform(1.01, 8.0))
        _, report = level_set_extract(f, alpha, exponent)
        assert report.margin >= 0.0


def test_one_level_count_serves_every_exponent():
    # the split used by run_pipeline: one count, then one report per p
    rng = np.random.default_rng(62)
    f = CyclicFunction(1009, rng.random(1009) ** 3)
    alpha = f.mean()
    size = int(np.count_nonzero(f.values >= alpha / 2))
    for exponent in (2.0, 4.0, 6.0, 3.5):
        level, report = level_set_extract(f, alpha, exponent)
        assert size == level.size
        assert holder_report(f.modulus, alpha, exponent, report.c_norm, size) == report
    with pytest.raises(InvalidArgumentError):
        holder_report(f.modulus, alpha, 1.0, 1.0, size)


def test_level_set_preconditions():
    f = CyclicFunction(101, np.full(101, 0.1))
    with pytest.raises(PreconditionError):
        level_set_extract(f, 0.2, 2.0)  # mass below alpha
    with pytest.raises(InvalidArgumentError):
        level_set_extract(f, 0.05, 1.0)  # p must exceed 1
    with pytest.raises(InvalidArgumentError):
        level_set_extract(f, -0.1, 2.0)  # negative mass level
    g = CyclicFunction(101, np.full(101, -1.0))
    with pytest.raises(PreconditionError):
        level_set_extract(g, 0.05, 2.0)


def test_epsilon_delta_designed_point():
    report = epsilon_delta_constraint(1.0, math.exp(-1), math.exp(10), 1.0)
    assert math.isclose(report.lhs, 1.0, rel_tol=1e-12)
    assert math.isclose(report.rhs, 5.0, rel_tol=1e-12)
    assert report.satisfied and math.isclose(report.slack, 4.0, rel_tol=1e-12)


def test_epsilon_delta_fails_for_small_delta():
    report = epsilon_delta_constraint(0.01, 0.5, 10**6, 1.0)
    assert not report.satisfied and report.slack < 0
    with pytest.raises(InvalidArgumentError):
        epsilon_delta_constraint(0.0, 0.5, 10**6)


def test_choose_k_designed_points():
    assert choose_k(10**10) == 1
    assert choose_k(16) == 1
    assert choose_k_from_log(math.exp(math.exp(4))) == 2
    with pytest.raises(InvalidArgumentError):
        choose_k(15)


def test_sanders_designed_points():
    assert math.isclose(
        sanders_lower_bound(1 / math.e, 1.0), math.exp(-math.e), rel_tol=1e-12
    )
    assert math.isclose(
        sanders_lower_bound(0.01, 1.0),
        math.exp(-100 * math.log(100) ** 5),
        rel_tol=1e-9,
    )
    assert sanders_lower_bound(1 - 1e-12, 1.0) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InvalidArgumentError):
        sanders_lower_bound(1.0)
    with pytest.raises(InvalidArgumentError):
        sanders_lower_bound(0.0)


def test_progression_floor_designed_points():
    assert math.isclose(
        smoothed_progression_floor(0.5, 1, 1.0),
        math.exp(-4 * math.log(2) ** 5),
        rel_tol=1e-12,
    )
    assert math.isclose(q_exponent(1), 2.0, rel_tol=1e-15)
    assert q_exponent(10**6) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(InvalidArgumentError):
        smoothed_progression_floor(1.0, 1)


def test_progression_floor_monotone_in_alpha_below_1_over_e():
    # grid chosen so no value underflows to exactly 0.0 (exp floor ~ e^-745)
    grid = np.linspace(0.2, 1 / math.e - 0.005, 30)
    for k in (1, 2, 5):
        values = [smoothed_progression_floor(float(a), k, 1.0) for a in grid]
        assert all(v > 0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))


def test_density_table_designed_points():
    table = density_bound_table(10**10)
    lll = math.log(math.log(math.log(10**10)))
    ll = math.log(math.log(10**10))
    assert math.isclose(table["triple_sixth_over_double"], lll**6 / ll, rel_tol=1e-12)
    assert math.isclose(
        table["triple_over_double_cuberoot"], lll / ll ** (1 / 3), rel_tol=1e-12
    )
    assert math.isclose(
        table["triple_52_over_double_sqrt"], lll**2.5 / math.sqrt(ll), rel_tol=1e-12
    )

    designed = density_bound_table(math.exp(math.exp(math.e)))
    assert math.isclose(
        designed["triple_sixth_over_double"], 1 / math.e, rel_tol=1e-9
    )

    small = density_bound_table(100)
    assert small["five_log_ratio_sqrt"] is None
    assert small["triple_sixth_over_double"] is not None


@pytest.mark.parametrize("n", [3, 10, 15, 16])
def test_density_table_near_e_to_the_e_is_real_or_none(n):
    # ln ln ln N < 0 below e^e ~ 15.15, where its 2.5th power is not real
    table = density_bound_table(n)
    assert all(value is None or type(value) is float for value in table.values())
    assert (table["triple_52_over_double_sqrt"] is None) == (n < math.exp(math.e))


def test_density_table_rejects_non_finite_n():
    for n in (1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError, match="N must be a finite number"):
            density_bound_table(n)


def test_density_table_five_log_row_needs_astronomical_n():
    # a nonnegative five-log row needs N > e^(e^(e^e)), far past float range,
    # so every representable N must come back undefined rather than erroring
    for n in (1e7, 1e100, 1e300):
        assert density_bound_table(n)["five_log_ratio_sqrt"] is None


def test_gamma_diagnostic():
    value = wphi_gamma_diagnostic(6, 2, 3.45)
    hand = 3.0 / (math.exp(EULER_MASCHERONI) * math.log(3.45))
    assert math.isclose(value, hand, rel_tol=1e-12)
