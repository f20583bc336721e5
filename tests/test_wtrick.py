import math

import numpy as np
import pytest

import ap3lab.wtrick as wtrick_module
from ap3lab.errors import (
    EmptySelectionError,
    InvalidArgumentError,
    InvariantError,
    ResourceLimitError,
)
from ap3lab.primes import next_prime_above, prime_count, sieve_primes
from ap3lab.wtrick import (
    WTrickContext,
    build_context,
    build_sieved_function,
    choose_residue,
    compute_parameters,
)
from conftest import count_3aps_brute, dense_indicator, stanley_digits


def test_parameters_at_1e6():
    params = compute_parameters(10**6)
    assert math.isclose(params.z, 0.25 * math.log(10**6), rel_tol=1e-12)
    assert (params.w, params.phi_w, params.p) == (6, 2, 500009)


def test_parameters_at_100():
    params = compute_parameters(100)
    assert math.isclose(params.z, 1.1513, abs_tol=1e-4)
    assert (params.w, params.phi_w) == (2, 1)


def test_parameters_with_override():
    params = compute_parameters(10**6, z_override=5)
    assert (params.w, params.phi_w) == (30, 8)


def test_parameters_validation():
    with pytest.raises(InvalidArgumentError):
        compute_parameters(99)
    with pytest.raises(InvalidArgumentError):
        compute_parameters(10**6, z_override=1.5)
    with pytest.raises(InvalidArgumentError):
        compute_parameters(10**6, z_override=100.0)
    with pytest.raises(ResourceLimitError):
        compute_parameters(1 << 51)


def test_parameters_p_window(monkeypatch):
    for n in (10**4, 10**5, 10**6, 10**7):
        params = compute_parameters(n)
        assert 3 * n / params.w < params.p <= 6 * n / params.w
    # Bertrand's postulate keeps P in the window; a next-prime search that
    # overshoots it is the only way to reach the check that guards it.
    monkeypatch.setattr(
        wtrick_module,
        "next_prime_above",
        lambda x: next_prime_above(x) if x < 100 else next_prime_above(2 * x),
    )
    with pytest.raises(InvariantError):
        compute_parameters(10**6)


def test_choose_residue_examples():
    assert choose_residue([5, 11, 17, 23], 6) == 5
    assert choose_residue([7], 6) == 1
    with pytest.raises(EmptySelectionError):
        choose_residue([], 6)
    with pytest.raises(EmptySelectionError):
        choose_residue([2, 3], 6)  # nothing above W


def _densest_coprime_class(members, w):
    """choose_residue as a loop over b = 1 .. W - 1 with math.gcd: the
    reference for its strided zeroing; None when every class is empty."""
    counts = [0] * w
    for m in members:
        if m > w:
            counts[m % w] += 1
    best = max(((counts[b], -b) for b in range(1, w) if math.gcd(b, w) == 1),
               default=(0, 0))
    return -best[1] if best[0] else None


@pytest.mark.parametrize("w", [1, 2, 6, 12, 30, 97, 2 * 97 * 97, 210, 30030])
def test_choose_residue_is_the_gcd_loop(w):
    # composite and prime-power W, a prime factor past sqrt(W), ties
    rng = np.random.default_rng(w)
    for size in (1, 5, 40, 400):
        members = rng.integers(0, 3 * w + 50, size).tolist()
        want = _densest_coprime_class(members, w)
        if want is None:
            with pytest.raises(EmptySelectionError):
                choose_residue(members, w)
        else:
            assert choose_residue(members, w) == want


def test_choose_residue_pigeonhole_guarantee(table_1e6):
    primes = table_1e6.primes()
    b = choose_residue(primes, 6)
    assert b in (1, 5)
    count = int(np.count_nonzero((primes % 6 == b) & (primes > 6)))
    floor = (prime_count(table_1e6, 10**6) - prime_count(table_1e6, 6)) / 2
    assert count >= floor


def test_choose_residue_reads_arrays_lists_and_iterables_alike(table_1e5):
    primes = table_1e5.primes()
    b = choose_residue(primes, 30)
    assert choose_residue(primes.tolist(), 30) == b
    assert choose_residue(iter(primes.tolist()), 30) == b
    assert choose_residue(set(primes.tolist()), 30) == b
    with pytest.raises(EmptySelectionError):
        choose_residue(np.array([], dtype=np.int64), 30)


def test_build_sieved_function_stats(sieved_1e5, table_1e5):
    ctx, params, sieved = sieved_1e5
    assert ctx.w == 2 and ctx.b == 1 and ctx.p == 150001
    assert ctx.a0.size == prime_count(table_1e5, 10**5) - 1  # odd primes
    assert sieved.alpha == 1.0
    expected_l1 = ctx.scale * ctx.a0.size / ctx.p
    assert math.isclose(sieved.l1_norm, expected_l1, rel_tol=1e-12)
    a = sieved.function
    assert a.support is ctx.a0 and a.scale == ctx.scale
    dense = dense_indicator(ctx.p, a.support, a.scale)
    assert math.isclose(float(np.mean(dense.values)), sieved.l1_norm, rel_tol=1e-12)


def test_support_stays_inside_first_third(sieved_1e5):
    ctx, _, sieved = sieved_1e5
    support = sieved.function.support
    assert int(support.max()) * 3 <= ctx.p
    assert int(support.min()) >= 1
    # P below 3N/W, which compute_parameters never picks: the lift of 97
    # is 48 > 101/3
    small_p = WTrickContext(n=100, z=2.0, w=2, phi_w=1, b=1, p=101, scale=1.0)
    with pytest.raises(InvariantError):
        build_sieved_function([3, 5, 97], small_p)


def test_mass_lower_bound_for_all_primes(table_1e5):
    ctx = build_context(table_1e5.primes(), 10**5, compute_parameters(10**5))
    sieved = build_sieved_function(table_1e5.primes(), ctx, prime_table=table_1e5)
    assert sieved.l1_norm >= sieved.alpha / 10
    assert sieved.mass_ok


def test_single_element_class():
    # A = {b + W} for W = 2, b = 1: lift is {1}
    ctx = build_context([3], 100, compute_parameters(100))
    for members in ([3], [3, 3, 3]):  # repeats count once
        sieved = build_sieved_function(members, ctx)
        assert ctx.a0.tolist() == [1]
        assert math.isclose(sieved.l1_norm, ctx.scale / ctx.p, rel_tol=1e-12)
        assert sieved.alpha == 1 / 25


def test_rejects_empty_and_composite_inputs():
    with pytest.raises(EmptySelectionError):
        build_context([], 1000, compute_parameters(1000))
    # 9 = 1 mod 2, 9 > 2, but not prime
    ctx = build_context([9], 1000, compute_parameters(1000))
    with pytest.raises(InvalidArgumentError):
        build_sieved_function([9], ctx)
    # with a covering table, and with one too short that is replaced
    for table in (sieve_primes(1000), sieve_primes(100)):
        with pytest.raises(InvalidArgumentError, match="element 91 "):
            build_sieved_function([3, 5, 7, 91, 95, 97], ctx, prime_table=table)
    with pytest.raises(InvalidArgumentError):
        build_sieved_function([], ctx)


def test_rejects_elements_above_n():
    ctx = build_context([3, 5, 7], 100, compute_parameters(100))
    with pytest.raises(InvalidArgumentError):
        build_sieved_function([3, 5, 7, 101], ctx)


def test_lifting_preserves_progressions(table_1e5):
    # every 3AP in the lifted set comes from a 3AP in A, constructively
    primes = table_1e5.primes()
    ctx = build_context(primes, 10**5, compute_parameters(10**5))
    build_sieved_function(primes, ctx, prime_table=table_1e5)
    a0 = ctx.a0.tolist()
    a0_set = set(a0)
    prime_set = set(primes.tolist())
    found = 0
    for n in a0[:200]:
        for d in range(1, 50):
            if n + d in a0_set and n + 2 * d in a0_set:
                lifted = [ctx.b + (n + j * d) * ctx.w for j in range(3)]
                assert all(m in prime_set for m in lifted)
                assert lifted[2] - lifted[1] == lifted[1] - lifted[0]
                found += 1
    assert found > 0


def test_planted_ap_free_set_lifts_to_ap_free_a0():
    # lift a 3AP-free integer set through the progression; the sieved A0
    # is a subset of it, hence 3AP-free
    n = 10**4
    params = compute_parameters(n)
    seed = stanley_digits(3000)
    members = [1 + params.w * m for m in seed if m >= 1]
    members = [m for m in members if _is_prime_trial(m)]
    assert len(members) > 10
    ctx = build_context(members, n, params)
    build_sieved_function(members, ctx)
    assert count_3aps_brute(ctx.a0.tolist()) == 0


def _is_prime_trial(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
