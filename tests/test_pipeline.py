import json
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ap3lab import cyclic
from ap3lab.bohr import BohrSet, build_bohr_set, smooth
from ap3lab.cyclic import ScaledIndicator
from ap3lab.errors import InvalidArgumentError, ResourceLimitError
from ap3lab.pipeline import (
    DELTA_SWEEP_CSV_COLUMNS,
    PIPELINE_CSV_COLUMNS,
    PipelineConfig,
    _smoothed_statistics,
    canonical_json,
    delta_sweep,
    lift,
    run_pipeline,
    write_csv,
    write_report,
)
from ap3lab.primes import sieve_primes
from ap3lab.wtrick import WTrickContext
from conftest import dense_indicator, smoothed


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        PipelineConfig(n=10**4, delta="0.7")
    with pytest.raises(InvalidArgumentError):
        PipelineConfig(n=10**4, epsilon="0")
    with pytest.raises(InvalidArgumentError):
        PipelineConfig(n=10**4, c1=-1.0)
    with pytest.raises(InvalidArgumentError):
        PipelineConfig(n=10**4, k_values=(0,))
    with pytest.raises(InvalidArgumentError):
        PipelineConfig.from_dict({"n": 10**4, "bogus": 1})


@pytest.mark.parametrize("field, value", [
    ("c4", "1"), ("c_sanders", True), ("c1", None), ("eta", float("nan")),
    ("z_override", "3"), ("z_override", False), ("set_source", 5),
    ("k_values", (1, True)),
])
def test_config_rejects_a_field_of_the_wrong_type(field, value):
    with pytest.raises(InvalidArgumentError, match=field):
        PipelineConfig(n=10**4, **{field: value})
    with pytest.raises(InvalidArgumentError, match=field):
        PipelineConfig.from_dict({"n": 10**4, field: value})


def test_config_from_dict_coercions():
    config = PipelineConfig.from_dict(
        {"n": 10**4, "delta": 0.4, "k_values": [1, 2], "delta_grid": [0.3, 0.4]}
    )
    assert config.delta == "0.4"
    assert config.k_values == (1, 2)
    assert config.delta_grid == ("0.3", "0.4")


def test_report_structure_and_self_consistency(pipeline_smoothing):
    data = pipeline_smoothing.data
    assert data["schema"] == "ap3lab-report/1"
    lam = data["lambda"]
    assert abs(
        lam["delta_gap"] - abs(lam["lambda_aaa"] - lam["lambda_hhh"])
    ) <= 1e-12
    assert math.isclose(
        lam["lambda_aaa"],
        lam["lambda_aaa_trivial"] + lam["lambda_aaa_nontrivial"],
        rel_tol=1e-12,
    )
    flags = data["flags"]
    assert flags["eps_delta_ok"] == (flags["eps_delta_slack"] >= 0)
    assert flags["mass_ok"] == (
        data["wtrick"]["a_l1"] >= data["wtrick"]["alpha"] / 10
    )
    for row in data["norm_table"]:
        assert math.isclose(
            row["norm_ratio"], row["h_norm_2k"] / row["norm_bound"],
            rel_tol=1e-12,
        )
        assert row["level_margin"] >= 0


def test_smoothing_identities_hold(pipeline_smoothing):
    data = pipeline_smoothing.data
    assert data["bohr"]["bohr_size"] == 30001
    assert data["lambda"]["h_l1"] == data["wtrick"]["a_l1"]  # sum g = |A0| * |B|
    assert data["lambda"]["h_sup"] <= data["wtrick"]["scale"] * (1 + 1e-12)
    assert data["lambda"]["delta_gap"] <= data["lambda"]["smoothing_bound"]


def test_degenerate_bohr_set_gives_zero_gap(pipeline_1e5):
    # at delta = 0.05 the large spectrum is rich, the Bohr set collapses to
    # {0}, smoothing is the identity, and the gap vanishes exactly
    data = pipeline_1e5.data
    assert data["bohr"]["bohr_size"] == 1
    assert data["lambda"]["delta_gap"] == 0.0


def test_markov_and_pigeonhole_margins(pipeline_1e5):
    data = pipeline_1e5.data
    assert data["spectrum"]["raw_spectrum_size"] <= data["spectrum"]["markov_bound"]
    assert data["bohr"]["pigeonhole_margin"] >= 0


def test_report_json_round_trip(pipeline_smoothing, tmp_path):
    json_path, csv_path = write_report(pipeline_smoothing, tmp_path / "report.json")
    parsed = json.loads(json_path.read_text())
    assert parsed == pipeline_smoothing.data
    header_line = csv_path.read_text().splitlines()[0]
    assert header_line.split(",") == PIPELINE_CSV_COLUMNS
    rows = csv_path.read_text().splitlines()[1:]
    assert len(rows) == len(pipeline_smoothing.data["norm_table"])


def test_golden_bytes_do_not_depend_on_transform_rounding(monkeypatch):
    # Another numpy build rounds each transform output differently in the
    # last place; at the golden configuration (B = {0}) no report byte may
    # notice.
    exact = cyclic.forward_transform
    calls = []

    def one_ulp_off(f):
        calls.append(f.modulus)
        s = exact(f)
        return cyclic.Spectrum(s.modulus, s.half * (1 + 2.0**-52))

    monkeypatch.setattr(cyclic, "forward_transform", one_ulp_off)
    report = run_pipeline(
        PipelineConfig(n=10**5, delta="0.05", epsilon="0.1", k_values=(1, 2, 3))
    )
    assert calls
    golden = Path(__file__).parent / "goldens" / "pipeline_n100000.json"
    assert report.to_json() == golden.read_text(encoding="utf-8")


def test_rerun_is_bit_identical(pipeline_smoothing):
    config = PipelineConfig(n=10**5, delta="0.4", epsilon="0.1", k_values=(1, 2))
    again = run_pipeline(config)
    assert again.to_json() == pipeline_smoothing.to_json()


@pytest.mark.parametrize("entry", [run_pipeline, delta_sweep, lift])
def test_fft_budget_guard(entry, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("sieved to N before the budget check")

    monkeypatch.setattr("ap3lab.pipeline.sieve_primes", unreachable)
    config = PipelineConfig(n=16777216)  # P = 8388617, past 2^23
    with pytest.raises(ResourceLimitError, match="P = 8388617 exceeds the FFT budget 8388608"):
        entry(config)


def test_pipeline_from_set_file(tmp_path):
    path = tmp_path / "set.txt"
    primes = [p for p in range(3, 3000) if all(p % d for d in range(2, p))]
    path.write_text("\n".join(str(p) for p in primes) + "\n")
    config = PipelineConfig(n=10**4, set_source=str(path), delta="0.4")
    report = run_pipeline(config)
    assert report.data["wtrick"]["set_size"] == len(primes)
    assert 0 < report.data["wtrick"]["alpha"] < 1
    # sparse input: the mass flag is reported, never asserted
    assert isinstance(report.data["flags"]["mass_ok"], bool)


def test_planted_ap_free_pipeline(tmp_path):
    # lift a 3AP-free seed through the progression; the nontrivial part of
    # the progression operator on the sieved function must vanish
    from conftest import stanley_digits, trial_is_prime

    seed = stanley_digits(2500)
    members = [1 + 2 * m for m in seed if m >= 1]
    members = [m for m in members if trial_is_prime(m)]
    path = tmp_path / "planted.txt"
    path.write_text("\n".join(map(str, members)) + "\n")
    config = PipelineConfig(n=10**4, set_source=str(path), delta="0.4")
    report = run_pipeline(config)
    lam = report.data["lambda"]
    assert abs(lam["lambda_aaa_nontrivial"]) < 1e-10
    assert lam["lambda_aaa_trivial"] > 0


def test_exploratory_flag_at_desk_scale(pipeline_1e5):
    # z is tiny at N = 1e5, so every k >= 1 sits outside the theory range
    data = pipeline_1e5.data
    assert data["flags"]["exploratory"]
    assert all(not row["in_theory_range"] for row in data["norm_table"])


def test_delta_sweep_rows():
    config = PipelineConfig(
        n=10**4,
        delta_grid=("0.45", "0.3"),
        epsilon_grid=("0.2", "0.1"),
    )
    header, rows = delta_sweep(config)
    assert header == DELTA_SWEEP_CSV_COLUMNS
    assert len(rows) == 4
    coords = [(row[1], row[2]) for row in rows]
    assert coords == [
        ("0.3", "0.1"), ("0.3", "0.2"), ("0.45", "0.1"), ("0.45", "0.2"),
    ]
    gap_idx = header.index("delta_gap")
    zero_idx = header.index("zero_lambda")
    for row in rows:
        assert float(row[gap_idx]) >= 0
        assert row[zero_idx] == "false"


def test_delta_sweep_shares_lambda_aaa():
    config = PipelineConfig(n=10**4, delta_grid=("0.3", "0.4"))
    header, rows = delta_sweep(config)
    lam_idx = header.index("lambda_aaa")
    assert len({row[lam_idx] for row in rows}) == 1


# (delta, epsilon) -> |B| at N = 1e4 (P = 15013). At epsilon = 0.1 the
# sets of 51 and 501 members are progressions (d = 15 and d = 3) and take
# the closed form; at epsilon = 0.4 the sets of 37 and 481 members are not
# and take the transform of 1_{B+}. delta = 0.05 gives B = {0}. smooth
# counts the sets of 51 and 37 by shifted adds, and of 501 and 481 by
# one convolution.
SWEEP_REGIMES = {
    ("0.05", "0.1"): 1,
    ("0.2", "0.1"): 51,
    ("0.3", "0.1"): 501,
    ("0.1", "0.4"): 37,
    ("0.2", "0.4"): 481,
}


def test_delta_sweep_makes_no_inverse_transform(monkeypatch):
    def refuse(s):
        raise AssertionError("a spectrum was inverse-transformed")

    monkeypatch.setattr("ap3lab.cyclic.inverse_transform", refuse)
    config = PipelineConfig(
        n=10**4,
        delta_grid=("0.05", "0.1", "0.2", "0.3"),
        epsilon_grid=("0.1", "0.4"),
    )
    header, rows = delta_sweep(config)
    delta, eps, size = (header.index(col) for col in ("delta", "epsilon", "bohr_size"))
    sizes = {(row[delta], row[eps]): row[size] for row in rows}
    assert SWEEP_REGIMES.items() <= sizes.items()
    # nor does run_pipeline's smooth, with either count and either sigmahat
    for (delta, epsilon), size in SWEEP_REGIMES.items():
        if size > 1:
            report = run_pipeline(replace(config, delta=delta, epsilon=epsilon, k_values=(1,)))
            assert report.data["bohr"]["bohr_size"] == size


def test_delta_sweep_thresholds_once_per_distinct_delta(monkeypatch):
    import ap3lab.pipeline as pipeline

    deltas = []

    def counting(spectrum, delta):
        deltas.append(delta)
        return cyclic.threshold_spectrum(spectrum, delta)

    monkeypatch.setattr(pipeline, "threshold_spectrum", counting)
    config = PipelineConfig(
        n=10**4, delta_grid=("0.45", "0.3"), epsilon_grid=("0.2", "0.1", "0.3")
    )
    header, rows = delta_sweep(config)
    assert deltas == [0.3, 0.45]
    assert [row[header.index("delta")] for row in rows] == ["0.3"] * 3 + ["0.45"] * 3


def test_delta_sweep_seeds_one_scan_and_filters_the_rest(monkeypatch):
    import ap3lab.pipeline as pipeline
    from ap3lab.bohr import build_bohr_set

    calls = []

    def recording(p, frequencies, eps, within=None):
        bohr = build_bohr_set(p, frequencies, eps, within=within)
        calls.append((p, frequencies, eps, within, bohr))
        return bohr

    monkeypatch.setattr(pipeline, "build_bohr_set", recording)
    config = PipelineConfig(
        n=10**4,
        delta_grid=("0.05", "0.1", "0.2", "0.3"),
        epsilon_grid=("0.1", "0.4"),
    )
    header, rows = delta_sweep(config)
    delta, eps, size = (header.index(col) for col in ("delta", "epsilon", "bohr_size"))
    assert SWEEP_REGIMES.items() <= {(r[delta], r[eps]): r[size] for r in rows}.items()
    assert len(calls) == len(rows) == 8
    seeded = [call for call in calls if call[3] is None]
    assert len(seeded) == 1
    p, frequencies, epsilon, _, _ = seeded[0]
    _, a = lift(config)
    largest, _ = cyclic.threshold_spectrum(a.spectrum(), 0.3)
    assert (frequencies, epsilon) == (largest.tolist(), "0.4")
    for p, frequencies, epsilon, within, bohr in calls:
        fresh = build_bohr_set(p, frequencies, epsilon)
        assert np.array_equal(bohr.members(), fresh.members())


@pytest.mark.parametrize(
    "delta, epsilon",
    [
        pytest.param("0.05", "0.1", id="0.05"),
        pytest.param("0.2", "0.1", id="0.2"),
        pytest.param("0.3", "0.1", id="0.3"),
        pytest.param("0.1", "0.4", id="0.1-eps0.4"),
        pytest.param("0.2", "0.4", id="0.2-eps0.4"),
    ],
)
def test_delta_sweep_lambda_hhh_is_the_pipelines_bit_for_bit(delta, epsilon):
    config = PipelineConfig(n=10**4, delta=delta, epsilon=epsilon, k_values=(1,))
    header, rows = delta_sweep(config)
    report = run_pipeline(config)
    size = SWEEP_REGIMES[delta, epsilon]
    assert report.data["bohr"]["bohr_size"] == size
    assert rows[0][header.index("bohr_size")] == size
    assert rows[0][header.index("lambda_hhh")] == repr(report.data["lambda"]["lambda_hhh"])
    # every column the sweep shares with the pipeline's CSV, cell for cell
    pipeline_header, (pipeline_row,) = report.csv_rows()
    shared = [col for col in header if col in pipeline_header]
    assert {"raw_spectrum_size", "r_size", "bohr_size", "bohr_measure", "lambda_aaa",
            "lambda_hhh", "delta_gap", "smoothing_bound", "eps_delta_ok"} <= set(shared)
    for col in shared:
        assert rows[0][header.index(col)] == pipeline_row[pipeline_header.index(col)], col


def test_sigmahat_is_formed_once_per_point_past_b_zero(monkeypatch):
    import ap3lab.bohr as bohr_module
    import ap3lab.pipeline as pipeline
    from ap3lab.bohr import kernel_spectrum
    from ap3lab.threeap import lambda_fourier

    sizes, lambdas = [], []

    def counting_kernel(bohr):
        sizes.append(bohr.size)
        return kernel_spectrum(bohr)

    def counting_lambda(f, g, h):
        lambdas.append(f)
        return lambda_fourier(f, g, h)

    # smooth would reach bohr's own name, so both are counted
    monkeypatch.setattr(pipeline, "kernel_spectrum", counting_kernel)
    monkeypatch.setattr(bohr_module, "kernel_spectrum", counting_kernel)
    monkeypatch.setattr(pipeline, "lambda_fourier", counting_lambda)
    config = PipelineConfig(
        n=10**4, k_values=(1,),
        delta_grid=("0.05", "0.1", "0.2", "0.3"), epsilon_grid=("0.1", "0.4"),
    )
    for (delta, epsilon), size in SWEEP_REGIMES.items():
        sizes.clear()
        lambdas.clear()
        run_pipeline(replace(config, delta=delta, epsilon=epsilon))
        assert sizes == ([size] if size > 1 else [])
        # the cross-check on a, and with B = {0} one more on h, which is a
        assert len(lambdas) == (1 if size > 1 else 2)
        assert all(f is lambdas[0] for f in lambdas)
    sizes.clear()
    header, rows = delta_sweep(config)
    column = header.index("bohr_size")
    assert sorted(sizes) == sorted(row[column] for row in rows if row[column] > 1)
    assert len(sizes) < len(rows)  # the grid reaches B = {0} too


def test_pipeline_scans_the_level_set_once_for_every_k(monkeypatch):
    # one histogram of g serves every k
    import ap3lab.pipeline as pipeline

    calls = []
    real = pipeline._smoothed_statistics

    def counting(g, size, a0_size, scale, k_values):
        calls.append(tuple(k_values))
        return real(g, size, a0_size, scale, k_values)

    monkeypatch.setattr(pipeline, "_smoothed_statistics", counting)
    report = run_pipeline(PipelineConfig(n=10**4, delta="0.2", epsilon="0.1", k_values=(1, 2, 3)))
    assert calls == [(1, 2, 3)]
    assert len({row["level_size"] for row in report.data["norm_table"]}) == 1


def test_lift_builds_no_dense_a():
    # a is held as its support: a length-P float64 array would take 8P
    # traced bytes on its own
    tracemalloc.start()
    try:
        ctx, a = lift(PipelineConfig(n=10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.support is ctx.a0
    assert peak < 8 * ctx.p


def test_lift_returns_the_context_and_a():
    ctx, a = lift(PipelineConfig(n=10**4))
    assert isinstance(ctx, WTrickContext) and isinstance(a, ScaledIndicator)
    assert a.support is ctx.a0 and (a.modulus, a.scale) == (ctx.p, ctx.scale)
    assert ctx.set_size == 1229 and ctx.alpha == 1.0


def test_a_set_file_lifts_as_its_sorted_distinct_form(tmp_path):
    primes = sieve_primes(10**4).primes()
    rng = np.random.default_rng(11)
    chosen = np.sort(rng.choice(primes, size=400, replace=False))
    lines = np.concatenate((chosen, chosen[::7]))
    rng.shuffle(lines)
    messy, tidy = tmp_path / "messy.txt", tmp_path / "tidy.txt"
    messy.write_text("\n".join(map(str, lines.tolist())) + "\n\n")
    tidy.write_text("\n".join(map(str, chosen.tolist())) + "\n")
    lifts = [lift(PipelineConfig(n=10**4, set_source=str(path)))[0] for path in (messy, tidy)]
    for ctx in lifts:
        assert ctx.set_size == 400 and ctx.alpha == 400 / 1229
    assert lifts[0].b == lifts[1].b
    assert np.array_equal(lifts[0].a0, lifts[1].a0)


def test_sweep_sums_the_fourth_moment_of_ahat_once(monkeypatch):
    # the Markov check of each threshold and the exact cross-check of
    # sum |ahat|^4 share one fixed-order sum
    formed = []
    powers = cyclic._powers
    monkeypatch.setattr(cyclic, "_powers", lambda k: formed.append(k) or powers(k))
    delta_sweep(PipelineConfig(n=10**4, delta_grid=("0.05", "0.1", "0.2"),
                               epsilon_grid=("0.1",)))
    assert formed == [4]


@pytest.mark.parametrize("p, freqs, eps", [
    (200003, [1], "0.0001"),  # g spans four histogram blocks
    (2003, [1], "0.5"),  # B is all of Z/PZ: one block
])
def test_blocked_histogram_reads_the_whole_count(p, freqs, eps):
    rng = np.random.default_rng(5)
    support = np.flatnonzero(rng.random(p) < 0.2)
    bohr = build_bohr_set(p, freqs, eps)
    g = smooth(support, bohr)
    scale = 1.25
    h_sup, level_size, norms = _smoothed_statistics(g, bohr.size, support.size, scale, (1, 2))
    assert h_sup == float(g.max()) * (scale / bohr.size)
    level = 2 * p * g.astype(np.int64) >= support.size * bohr.size
    assert level_size == int(np.count_nonzero(level))
    h = g * (scale / bohr.size)
    for k in (1, 2):
        assert math.isclose(norms[k], float(np.mean(h ** (2 * k))) ** (1 / (2 * k)), rel_tol=1e-12)


def _level_cases():
    """(P, S, B): random S at small primes with Bohr sets on both sides of
    the shifted-count cutoff, and at P = 12 a set S of 8 residues with
    B = {0, 1, 11}, where g(x) = 1 lies exactly on the threshold
    2P * g = |S| * |B| = 24."""
    rng = np.random.default_rng(3)
    cases = []
    for p, freqs, eps in ((101, [1], "0.1"), (1009, [1, 5], "0.2"), (2003, [1], "0.1")):
        support = np.flatnonzero(rng.random(p) < 0.3)
        cases.append((p, support, build_bohr_set(p, freqs, eps)))
    cases.append((12, np.array([0, 1, 2, 3, 6, 7, 8, 9]),
                  BohrSet(12, (1,), Fraction(1, 2), [0, 1, 11])))
    return cases


@pytest.mark.parametrize("p, support, bohr", _level_cases())
def test_integer_level_set_is_the_brute_force_level_set(p, support, bohr):
    # {x : h(x) >= h_l1/2} over exact rationals, with h = (c/|B|) * g
    scale = 2.75
    g = smooth(support, bohr)
    h = [Fraction(scale) * int(v) / bohr.size for v in g]
    h_l1 = sum(h) / p
    want = sum(1 for value in h if value >= h_l1 / 2)
    _, level_size, _ = _smoothed_statistics(g, bohr.size, support.size, scale, (1,))
    assert level_size == want
    if p == 12:
        assert 2 * p * 1 == support.size * bohr.size and 1 in g.tolist()


def test_largest_k_norm_stays_finite_past_the_float_range_of_b_to_the_2k(tmp_path):
    # k = 146 is the largest the lift takes at N = 1e5; |B|^(2k) = 30001^292
    # is far past the float range, yet the exact histogram sum keeps the
    # 2k-norm finite and equal to a float evaluation of the dense h
    config = PipelineConfig(n=10**5, delta="0.4", epsilon="0.1", k_values=(146,))
    with pytest.raises(InvalidArgumentError):
        lift(replace(config, k_values=(147,)))
    report = run_pipeline(config)
    (row,) = report.data["norm_table"]
    size = report.data["bohr"]["bohr_size"]
    assert size**292 > sys.float_info.max
    ctx, a = lift(config)
    r_set, _ = cyclic.threshold_spectrum(a.spectrum(), 0.4)
    h = smoothed(a, build_bohr_set(ctx.p, r_set.tolist(), "0.1"))
    want = float(np.mean(h.values**292)) ** (1 / 292)
    assert math.isclose(row["h_norm_2k"], want, rel_tol=1e-13)
    assert report.data["lambda"]["h_l1"] <= row["h_norm_2k"] <= report.data["lambda"]["h_sup"]


@pytest.mark.parametrize("name", ["pipeline_n100000.json", "pipeline_n1000000.json"])
def test_golden_h_l1_is_a_l1_in_every_bit(name):
    report = json.loads((Path(__file__).parent / "goldens" / name).read_text(encoding="utf-8"))
    assert report["lambda"]["h_l1"] == report["wtrick"]["a_l1"]


def test_self_convolution_square_norm_identity(sieved_1e5):
    # ||a*a||_2^2 equals the fourth power of the spectral 4-norm of a
    from ap3lab.cyclic import CyclicFunction, lp_norm, spectral_lp_norm
    from conftest import fft_convolve

    ctx, a = sieved_1e5
    dense = dense_indicator(ctx.p, ctx.a0, ctx.scale)
    lhs = lp_norm(CyclicFunction(dense.modulus, fft_convolve(dense.values, dense.values)), 2) ** 2
    rhs = spectral_lp_norm(a.spectrum(), 4) ** 4
    assert math.isclose(lhs, rhs, rel_tol=1e-8)


def test_canonical_json_is_stable():
    blob = canonical_json({"b": np.float64(1.5), "a": [np.int64(2), (3, 4)]})
    assert blob == '{\n  "a": [\n    2,\n    [\n      3,\n      4\n    ]\n  ],\n  "b": 1.5\n}\n'


@pytest.mark.parametrize("data, path", [
    ({"flags": {"ok": True, "eps_delta_lhs": math.inf}}, "flags.eps_delta_lhs"),
    ({"norm_table": [{"k": 1}, {"k": 2, "h_norm_2k": np.float64("nan")}]},
     "norm_table[1].h_norm_2k"),
    ({"b": -math.inf, "a": {"c": math.inf}}, "a.c"),  # first in written order
])
def test_canonical_json_names_the_key_path_of_a_non_finite_value(data, path):
    with pytest.raises(InvalidArgumentError, match=f"report value {re.escape(path)} is not finite"):
        canonical_json(data)


def test_write_csv_quoting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [["x,y", 1.5], ["plain", None]])
    content = path.read_text()
    assert '"x,y"' in content
    lines = content.splitlines()
    assert lines[0] == "a,b"


def test_member_file_rejects_empty(tmp_path):
    from ap3lab.pipeline import load_member_file

    path = tmp_path / "empty.txt"
    path.write_text("\n\n")
    with pytest.raises(InvalidArgumentError):
        load_member_file(path)
