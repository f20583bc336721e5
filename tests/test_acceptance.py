"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
stream; without -s pytest shows them for failing tests only.
"""

import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from ap3lab.bohr import build_bohr_set
from ap3lab.bounds import (
    choose_k,
    choose_k_from_log,
    density_bound_table,
    epsilon_delta_constraint,
    level_set_extract,
    smoothed_progression_floor,
    sanders_lower_bound,
)
from ap3lab.cyclic import (
    CyclicFunction,
    forward_transform,
    inverse_transform,
    lp_norm,
)
from ap3lab.pipeline import PipelineConfig, run_pipeline
from ap3lab.primes import next_prime_above, sieve_primes
from ap3lab.sieve_bounds import (
    TupleSpec,
    count_prime_tuples,
    hypothesis_flags,
    klimov_upper_bound,
    convolution_norm_bound,
    singular_series,
)
from ap3lab.threeap import lambda_fourier
from ap3lab.wtrick import build_context, build_sieved_function, compute_parameters
from conftest import (
    behrend_set,
    dense_indicator,
    direct_dft_stack,
    fft_convolve,
    lambda_direct,
    smoothed,
    stanley_digits,
    trial_is_prime,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"

# frozen from the one-off direct evaluation at the N = 1e5 pipeline modulus
FROZEN_LAMBDA_DIRECT_1E5 = 0.328468664333644


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_fourier_correctness():
    worst_fwd = 0.0
    worst_rt = 0.0
    for p in (5, 101, 1009, 2003, 5003):
        rng = np.random.default_rng(p)
        stack = rng.random((20, p))
        oracle = direct_dft_stack(stack, p, +1) / p
        for i in range(20):
            f = CyclicFunction(p, stack[i])
            fwd_err = float(np.max(np.abs(f.spectrum().full() - oracle[i])))
            back = inverse_transform(f.spectrum())
            rt_err = float(np.max(np.abs(back.values - f.values) / np.max(np.abs(f.values))))
            worst_fwd = max(worst_fwd, fwd_err)
            worst_rt = max(worst_rt, rt_err)
    verdict(
        1,
        worst_fwd < 1e-9 and worst_rt < 1e-9,
        f"forward vs direct sum {worst_fwd:.2e}, round trip {worst_rt:.2e} (tol 1e-9)",
    )


def test_criterion_02_plancherel_and_convolution_theorem():
    worst_pl = 0.0
    worst_ct = 0.0
    for p in (5, 101, 1009, 2003, 5003):
        rng = np.random.default_rng(p + 1000)
        for _ in range(20):
            f = CyclicFunction(p, rng.random(p))
            g = CyclicFunction(p, rng.random(p))
            space = float(np.mean(f.values * g.values))
            freq = complex(np.sum(
                f.spectrum().full() * np.conj(g.spectrum().full())
            ))
            worst_pl = max(
                worst_pl, abs(space - freq) / (lp_norm(f, 2) * lp_norm(g, 2))
            )
            product = f.spectrum().full() * g.spectrum().full()
            lhs = forward_transform(CyclicFunction(p, fft_convolve(f.values, g.values))).full()
            worst_ct = max(worst_ct, float(np.max(np.abs(lhs - product))))
    verdict(
        2,
        worst_pl < 1e-10 and worst_ct < 1e-10,
        f"Plancherel {worst_pl:.2e}, convolution theorem {worst_ct:.2e} (tol 1e-10)",
    )


def test_criterion_03_lambda_equivalence_and_speed():
    worst = 0.0
    cases = [(101, 17), (1009, 17), (2003, 16)]  # 50 random triples total
    for p, reps in cases:
        rng = np.random.default_rng(p + 2000)
        for _ in range(reps):
            f, g, h = (CyclicFunction(p, rng.random(p)) for _ in range(3))
            direct = lambda_direct(f, g, h)
            worst = max(worst, abs(lambda_fourier(f, g, h) - direct))
    rng = np.random.default_rng(77)
    f, g, h = (CyclicFunction(2003, rng.random(2003)) for _ in range(3))
    start = time.perf_counter()
    lambda_direct(f, g, h)
    elapsed = time.perf_counter() - start
    verdict(
        3,
        worst < 1e-8 and elapsed < 5.0,
        f"|fourier - direct| {worst:.2e} on 50 triples (tol 1e-8), "
        f"direct at P=2003 took {elapsed:.2f}s (< 5s)",
    )


def test_criterion_04_trivial_progression_identity():
    failures = []
    sets = [behrend_set(50 * i) for i in range(1, 21)]
    sets += [stanley_digits(30 * i) for i in range(1, 21)]
    for members in sets:
        members = [m for m in members if m >= 0]
        p = next_prime_above(3 * max(max(members), 2) + 1)
        f = dense_indicator(p, members)
        lam = lambda_fourier(f, f, f)
        scaled = lam * p * p
        if abs(scaled - len(members)) > 1e-6:
            failures.append((p, scaled, len(members)))
    verdict(
        4,
        not failures,
        f"40 AP-free embeddings: lambda*P^2 equals |A| after rounding {failures!r}"
        if failures else "40 AP-free embeddings: lambda*P^2 = |A| exactly",
    )


def test_criterion_05_wtrick_mass_and_support():
    details = []
    ok = True
    for n in (10**5, 10**6, 10**7):
        table = sieve_primes(n)
        primes = table.primes()
        ctx = build_context(primes, table, compute_parameters(n))
        support = build_sieved_function(primes, ctx, table).support
        mass_ok = ctx.l1_norm >= ctx.alpha / 10
        support_ok = int(support.max()) * 3 <= ctx.p and int(support.min()) >= 0
        ok = ok and mass_ok and support_ok
        details.append(f"N=1e{int(math.log10(n))}: l1={ctx.l1_norm:.4f}")
    verdict(5, ok, "mass >= alpha/10 and support in [0, P/3]: " + ", ".join(details))


def test_criterion_06_spectrum_and_bohr_combinatorics(sieved_1e5):
    _, a = sieved_1e5
    spectrum = a.spectrum()
    magnitudes = np.abs(spectrum.full())
    fourth = float(np.sum(magnitudes**4))
    markov_ok = all(
        int(np.count_nonzero(magnitudes >= delta)) <= fourth / delta**4
        for delta in (0.02, 0.05, 0.1)
    )

    rng = np.random.default_rng(97)
    pigeonhole_ok = True
    count = 0
    for p in (101, 1009, 10007):
        for _ in range(34 if p == 101 else 33):
            d = int(rng.integers(1, 7))
            freqs = rng.integers(0, p, size=d).tolist()
            eps = str(rng.choice(["0.05", "0.1", "0.2"]))
            bohr = build_bohr_set(p, freqs, eps)
            num, den = bohr.radius.numerator, bohr.radius.denominator
            n_freqs = len(bohr.frequencies)
            pigeonhole_ok &= bohr.size * den**n_freqs >= p * num**n_freqs
            count += 1

    containment_ok = True
    for p in (101, 1009, 10007):
        bohr = build_bohr_set(p, [1, 7, 19], "0.2")
        members = bohr.members()
        containment_ok &= bool(np.all(np.minimum(members, p - members) <= 0.2 * p))

    verdict(
        6,
        markov_ok and pigeonhole_ok and containment_ok,
        f"Markov count ok, pigeonhole held on {count} random Bohr sets, "
        "radius containment with 1 in R ok",
    )


def test_criterion_07_smoothing_identities():
    ok = True
    details = []
    for n, delta, eps in (
        (10**4, "0.4", "0.1"),
        (10**4, "0.3", "0.2"),
        (10**5, "0.4", "0.1"),
        (10**5, "0.05", "0.1"),
    ):
        table = sieve_primes(n)
        primes = table.primes()
        ctx = build_context(primes, table, compute_parameters(n))
        a = build_sieved_function(primes, ctx, table)
        r_set = a.spectrum()
        from ap3lab.cyclic import threshold_spectrum

        freqs, _ = threshold_spectrum(r_set, float(delta))
        bohr = build_bohr_set(ctx.p, freqs.tolist(), eps)
        h = smoothed(a, bohr)
        dense_a = dense_indicator(ctx.p, ctx.a0, ctx.scale)
        l1_ok = math.isclose(lp_norm(h, 1), lp_norm(dense_a, 1), rel_tol=1e-10)
        nonneg_ok = float(h.values.min()) >= 0.0
        sup_ok = float(h.values.max()) <= ctx.scale * (1 + 1e-12)
        ok = ok and l1_ok and nonneg_ok and sup_ok
        details.append(f"(N={n}, d={delta}, e={eps}, |B|={bohr.size})")
    verdict(7, ok, "mass/nonnegativity/sup-norm identities on " + ", ".join(details))


def test_criterion_08_level_set_lemma(pipeline_smoothing):
    rng = np.random.default_rng(101)
    worst = math.inf
    for _ in range(200):
        p = int(rng.choice([101, 211, 1009, 2003]))
        shape = float(rng.uniform(0.5, 3.0))
        f = CyclicFunction(p, rng.random(p) ** shape)
        mass = float(np.mean(f.values))
        alpha = mass * float(rng.uniform(0.05, 1.0))
        exponent = float(rng.uniform(1.01, 9.0))
        _, report = level_set_extract(f, alpha, exponent)
        worst = min(worst, report.margin)
        assert report.margin >= 0.0
    pipeline_margins = [
        row["level_margin"] for row in pipeline_smoothing.data["norm_table"]
    ]
    ok = worst >= 0 and all(m >= 0 for m in pipeline_margins)
    verdict(
        8,
        ok,
        f"200 random functions, min margin {worst:.3e}; pipeline margins "
        f"{[f'{m:.3e}' for m in pipeline_margins]} (all >= 0, zero tolerance)",
    )


def test_criterion_09_tuple_counting_and_twin_series():
    rng = np.random.default_rng(103)
    checked = 0
    for _ in range(30):
        w = int(rng.choice([1, 2, 6, 30]))
        k = int(rng.integers(1, 5))
        offsets = []
        while len(offsets) < k:
            candidate = int(rng.integers(0, 60))
            if math.gcd(candidate, w) == 1 and candidate not in offsets:
                offsets.append(candidate)
        spec = TupleSpec(w=w, offsets=tuple(offsets))
        limit = int(rng.integers(100, 10**5))
        recount = sum(
            1
            for n in range(1, limit + 1)
            if all(trial_is_prime(b + n * w) for b in spec.offsets)
        )
        assert count_prime_tuples(spec, limit) == recount
        checked += 1

    series = singular_series(TupleSpec(w=1, offsets=(0, 2)), 10**6)
    twin_ok = abs(series.value - 2 * 0.6601618) < 1e-3
    verdict(
        9,
        checked == 30 and twin_ok,
        f"30 specs recounted exactly; twin series {series.value:.7f} "
        "within 1e-3 of 1.3203236",
    )


def test_criterion_10_bound_evaluators_at_designed_points():
    checks = []

    value = convolution_norm_bound(1, 10.0, 100)
    checks.append(math.isclose(value, 1 + math.sqrt(10) / 10, rel_tol=1e-9))
    checks.append(
        convolution_norm_bound(2, 10.0, 10**300) == 2.0
    )
    value = convolution_norm_bound(1, 10.0, 1)
    checks.append(math.isclose(value, 1 + math.sqrt(10), rel_tol=1e-9))

    spec = TupleSpec(w=6, offsets=(1, 5))
    series = singular_series(spec, 10**4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = klimov_upper_bound(spec, 10**6, series)
    # desk-scale P sits outside the sieve range: the flag says so, silently
    checks.append(hypothesis_flags(spec, 10**6)["k_within_sieve_range"] is False)
    want = 10**6 * 9 * 2 / math.log(10**6) ** 2 * series.value
    checks.append(math.isclose(got, want, rel_tol=1e-9))

    checks.append(math.isclose(
        sanders_lower_bound(1 / math.e, 1.0), math.exp(-math.e), rel_tol=1e-9
    ))
    checks.append(math.isclose(
        sanders_lower_bound(0.01, 1.0),
        math.exp(-100 * math.log(100) ** 5),
        rel_tol=1e-9,
    ))

    checks.append(math.isclose(
        smoothed_progression_floor(0.5, 1, 1.0),
        math.exp(-4 * math.log(2) ** 5),
        rel_tol=1e-9,
    ))

    lll = math.log(math.log(math.log(1e10)))
    ll = math.log(math.log(1e10))
    table = density_bound_table(1e10)
    checks.append(math.isclose(
        table["triple_sixth_over_double"], lll**6 / ll, rel_tol=1e-9
    ))
    designed = density_bound_table(math.exp(math.exp(math.e)))
    checks.append(math.isclose(
        designed["triple_sixth_over_double"], 1 / math.e, rel_tol=1e-9
    ))
    checks.append(density_bound_table(100)["five_log_ratio_sqrt"] is None)

    report = epsilon_delta_constraint(1.0, math.exp(-1), math.exp(10), 1.0)
    checks.append(
        math.isclose(report.lhs, 1.0, rel_tol=1e-9)
        and math.isclose(report.rhs, 5.0, rel_tol=1e-9)
        and report.satisfied
    )

    checks.append(choose_k(10**10) == 1)
    checks.append(choose_k_from_log(math.exp(math.exp(4))) == 2)
    checks.append(choose_k(16) == 1)

    verdict(
        10,
        all(checks),
        f"{sum(checks)}/{len(checks)} designed-point evaluations within 1e-9 relative",
    )


def test_criterion_11_frozen_oracle_regression(pipeline_1e5, pipeline_1e6):
    blobs = {
        "pipeline_n100000.json": pipeline_1e5.to_json(),
        "pipeline_n1000000.json": pipeline_1e6.to_json(),
    }
    golden_ok = all(
        (GOLDEN_DIR / name).read_text(encoding="utf-8") == blob
        for name, blob in blobs.items()
    )
    rerun = run_pipeline(
        PipelineConfig(n=10**5, delta="0.05", epsilon="0.1", k_values=(1, 2, 3))
    )
    stable_ok = rerun.to_json() == blobs["pipeline_n100000.json"]

    # the fourier lambda must still match the one-off direct O(P^2) oracle
    lam = pipeline_1e5.data["lambda"]["lambda_aaa"]
    oracle_ok = abs(lam - FROZEN_LAMBDA_DIRECT_1E5) < 1e-8

    verdict(
        11,
        golden_ok and stable_ok and oracle_ok,
        f"goldens byte-identical: {golden_ok}; rerun stable: "
        f"{stable_ok}; lambda matches frozen direct oracle: {oracle_ok}",
    )


def test_criterion_12_norm_ratio_band(pipeline_1e6):
    rows = pipeline_1e6.data["norm_table"]
    ratios = {row["k"]: row["norm_ratio"] for row in rows}
    base = ratios[1]
    ok = all(base / 10 <= ratios[k] <= base * 10 for k in (1, 2, 3))
    # the k = 1 ratio is pinned by the frozen golden; re-assert it here
    golden = json.loads((GOLDEN_DIR / "pipeline_n1000000.json").read_text())
    golden_base = golden["norm_table"][0]["norm_ratio"]
    ok = ok and math.isclose(base, golden_base, rel_tol=1e-12)
    verdict(
        12,
        ok,
        f"norm/bound ratios at N=1e6: {[f'{ratios[k]:.4f}' for k in (1, 2, 3)]} "
        f"all within 10x of k=1 value {base:.4f}",
    )
