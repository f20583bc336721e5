import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ap3lab
from ap3lab.cli import _COMMANDS, _build_parser, main
from ap3lab.cyclic import CyclicFunction
from ap3lab.primes import next_prime_above
from ap3lab.threeap import additive_counts
from conftest import direct_forward, read_spectrum, save_function


def run_cli(*argv):
    return main(list(argv))


def test_primes_subcommand(tmp_path):
    out = tmp_path / "primes.txt"
    assert run_cli("primes", "--limit", "30", "--out", str(out)) == 0
    text = out.read_text()
    assert text.endswith("\n")
    assert [int(v) for v in text.split()] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_transform_subcommand(tmp_path):
    rng = np.random.default_rng(71)
    f = CyclicFunction(101, rng.random(101))
    infile = tmp_path / "f.zpfn"
    outfile = tmp_path / "f.zpsp"
    save_function(f, infile)
    assert run_cli("transform", "--in", str(infile), "--out", str(outfile)) == 0
    spectrum = read_spectrum(outfile)
    assert np.max(np.abs(spectrum.full() - direct_forward(f.values))) < 1e-10


def test_wtrick_subcommand(tmp_path):
    out = tmp_path / "w.json"
    assert run_cli("wtrick", "--n", "10000", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["w"] == 2 and report["p"] == 15013
    assert set(report["bounds_hold"]) == {
        "log_w_in_band", "ratio_in_band", "mass_ok", "alpha_threshold_ok",
    }


def test_wtrick_with_set_file(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("5\n11\n17\n23\n")
    out = tmp_path / "w.json"
    assert run_cli("wtrick", "--n", "100", "--set", str(path), "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["b"] == 1  # W = 2 at N = 100
    assert report["set_size"] == 4


def test_bohr_subcommand(tmp_path, capsys):
    assert run_cli("bohr", "--p", "101", "--freqs", "1", "--eps", "0.1") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["size"] == 21
    assert report["epsilon"] == "1/10"
    out = tmp_path / "b.json"
    assert run_cli(
        "bohr", "--p", "101", "--freqs", "1,17", "--eps", "0.2",
        "--members", "--out", str(out),
    ) == 0
    report = json.loads(out.read_text())
    assert len(report["members"]) == report["size"]


def test_lambda_subcommand(tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text("0\n1\n3\n4\n9\n10\n")
    assert run_cli("lambda", "--p", "101", "--set", str(path)) == 0
    spectral = json.loads(capsys.readouterr().out)
    assert set(spectral) == {"p", "set_size", "fourier"}
    assert run_cli("lambda", "--p", "101", "--set", str(path), "--direct") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fourier"] == spectral["fourier"]  # --direct only adds its block
    # the set holds no progression, so the count is the six trivial pairs
    assert report["direct"] == {"lambda": 6 / 101**2, "trivial": 6 / 101**2,
                                "nontrivial": 0.0, "pair_count": 6}
    for key in ("lambda", "trivial", "nontrivial"):
        assert abs(report["fourier"][key] - report["direct"][key]) < 1e-10


def test_lambda_builds_no_dense_function(tmp_path, capsys, monkeypatch):
    # the spectral operator is taken on the set's support and --direct
    # reads the exact pair count, so no P values are built either way
    path = tmp_path / "set.txt"
    path.write_text("0\n1\n3\n4\n9\n10\n")
    argv = ["lambda", "--p", "101", "--set", str(path)]
    assert run_cli(*argv, "--direct") == 0
    want = json.loads(capsys.readouterr().out)

    def unreachable(*args, **kwargs):
        raise AssertionError("lambda built a dense function")

    monkeypatch.setattr(CyclicFunction, "__init__", unreachable)
    assert run_cli(*argv, "--direct") == 0
    assert json.loads(capsys.readouterr().out) == want
    assert run_cli(*argv) == 0
    assert json.loads(capsys.readouterr().out)["fourier"] == want["fourier"]


def test_lambda_direct_runs_past_20011(tmp_path, capsys):
    # the count has no ceiling of its own: spread members, whose sums wrap
    # past P, give the pair count mod P
    p = next_prime_above(20011)
    members = np.sort(np.random.default_rng(20011).choice(p, size=500, replace=False))
    path = tmp_path / "set.txt"
    path.write_text("".join(f"{m}\n" for m in members.tolist()))
    assert run_cli("lambda", "--p", str(p), "--set", str(path), "--direct") == 0
    report = json.loads(capsys.readouterr().out)
    pairs = additive_counts(members, p).pairs
    assert report["direct"]["pair_count"] == pairs > members.size
    assert report["direct"]["lambda"] == pairs / p**2
    assert abs(report["fourier"]["lambda"] - report["direct"]["lambda"]) < 1e-10


def test_tuples_subcommand(capsys):
    assert run_cli(
        "tuples", "--w", "6", "--offsets", "1,5", "--limit", "10",
        "--series-cutoff", "1000",
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 5
    assert report["klimov_bound"] > 0
    assert report["ratio"] == report["count"] / report["klimov_bound"]


def test_tuples_out_of_sieve_range_leaves_stderr_empty():
    # k = 2 exceeds ln P/(12 ln ln P) at this limit; the report's flag says so
    src = Path(ap3lab.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-m", "ap3lab.cli", "tuples", "--w", "6", "--offsets", "1,5",
         "--limit", "100000"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stderr == ""
    assert json.loads(out.stdout)["hypotheses"]["k_within_sieve_range"] is False


def test_tuples_single_offset_has_no_klimov(capsys):
    assert run_cli(
        "tuples", "--w", "2", "--offsets", "1", "--limit", "10",
        "--series-cutoff", "500",
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 7
    assert report["klimov_bound"] is None


def test_pipeline_subcommand(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(
        "pipeline", "--n", "10000", "--delta", "0.4", "--eps", "0.1",
        "--k", "1,2", "--out", str(out),
    ) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "ap3lab-report/1"
    assert (tmp_path / "report.csv").exists()


def test_pipeline_with_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 10000, "delta": "0.4", "k_values": [1]}))
    out = tmp_path / "report.json"
    assert run_cli("pipeline", "--config", str(config), "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["config"]["delta"] == "0.4"


def test_force_is_only_echoed_in_the_config(tmp_path, capsys):
    # force was a config field that changed no value: the key is now
    # refused, and the report's config.force stays the constant false
    args = ["pipeline", "--n", "10000", "--k", "1"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"force": True}))
    forced = tmp_path / "forced.json"
    assert run_cli(*args, "--config", str(config), "--out", str(forced)) == 1
    assert "unknown config keys: ['force']" in capsys.readouterr().err
    assert not forced.exists()
    plain = tmp_path / "plain.json"
    assert run_cli(*args, "--out", str(plain)) == 0
    assert json.loads(plain.read_text())["config"]["force"] is False


def test_sweep_subcommands(tmp_path):
    out = tmp_path / "delta.csv"
    assert run_cli(
        "delta-sweep", "--n", "10000", "--delta-grid", "0.3,0.4",
        "--eps-grid", "0.1", "--out", str(out),
    ) == 0
    assert len(out.read_text().splitlines()) == 3


def test_report_does_not_depend_on_the_order_of_k(tmp_path):
    # the level_set section reads the first norm row, so k must be sorted
    for name, ks in (("given", "3,1"), ("sorted", "1,3")):
        assert run_cli("pipeline", "--n", "1000", "--k", ks,
                       "--out", str(tmp_path / f"{name}.json")) == 0
    for suffix in (".json", ".csv"):
        assert ((tmp_path / f"given{suffix}").read_bytes()
                == (tmp_path / f"sorted{suffix}").read_bytes())


def test_bounds_subcommand(capsys):
    assert run_cli("bounds", "--n", "1e10") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["table"]["five_log_ratio_sqrt"] is None
    assert report["table"]["triple_sixth_over_double"] == pytest.approx(0.7114, abs=1e-4)


@pytest.mark.parametrize("n", ["3", "10", "15"])
def test_bounds_below_e_to_the_e_reports_null(capsys, n):
    assert run_cli("bounds", "--n", n) == 0
    out = capsys.readouterr().out
    assert "null" in out
    assert json.loads(out)["table"]["triple_52_over_double_sqrt"] is None


def test_exit_code_invalid_argument(capsys):
    assert run_cli("primes", "--limit", "1") == 1
    assert run_cli("pipeline", "--n", "50", "--out", "/tmp/x.json") == 1
    assert run_cli("tuples", "--w", "6", "--offsets", "2,4", "--limit", "5") == 1
    assert run_cli("nonsense") == 1
    capsys.readouterr()


def test_exit_code_precondition(tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text("2\n")  # nothing above W = 2: empty selection
    assert run_cli("wtrick", "--n", "100", "--set", str(path), "--out",
                   str(tmp_path / "w.json")) == 2
    capsys.readouterr()


def test_exit_code_resource_limit(tmp_path, capsys):
    assert run_cli("primes", "--limit", str(1 << 40)) == 3
    # P = 8388617 at the default z is past the 2^23 FFT budget
    assert run_cli("wtrick", "--n", "16777216", "--out", str(tmp_path / "w.json")) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv, code", [
    (["wtrick", "--n", "1000000000"], 3),  # P past the FFT budget
    (["pipeline", "--n", "1000000000"], 3),
    (["wtrick", "--n", "1000", "--z", "100"], 1),  # z past ln N
    # a radius whose denominator the Bohr scan refuses
    (["pipeline", "--n", "1000000", "--eps", "0.1234567890123"], 1),
    (["delta-sweep", "--n", "1000000", "--eps-grid", "0.1,0.1234567890123"], 1),
    # a threshold that rounds to 0.0 as a float
    (["pipeline", "--n", "10000000", "--delta", "1e-400"], 1),
    (["delta-sweep", "--n", "10000000", "--delta-grid", "0.1,1e-400"], 1),
    # a threshold whose -4th power, in the eps-delta constraint, overflows
    (["pipeline", "--n", "100000", "--delta", "1e-100"], 1),
    (["delta-sweep", "--n", "100000", "--delta-grid", "0.1,1e-90"], 1),
    # 2k * ln(scale) + ln P past ln(float max): the 2k-norm of h would overflow
    (["pipeline", "--n", "1000000", "--k", "145"], 1),
    # c4 * delta**-4 * |ln eps| overflows to inf, though delta**-4 does not
    (["pipeline", "--n", "100000", "--delta", "1e-77"], 1),
    (lambda tmp_path: _config_file({"n": 100000, "c4": 1e305})(tmp_path), 1),
    # an empty set file path, from the command line or a config
    (["pipeline", "--n", "1000", "--set", ""], 1),
    (lambda tmp_path: _config_file({"n": 1000, "set_source": ""})(tmp_path), 1),
], ids=["wtrick-past-budget", "pipeline-past-budget", "z-past-ln-n",
        "pipeline-eps-denominator", "delta-sweep-eps-grid-denominator",
        "pipeline-delta-underflow", "delta-sweep-delta-grid-underflow",
        "pipeline-delta-overflow", "delta-sweep-delta-grid-overflow",
        "pipeline-k-norm-overflow", "pipeline-constraint-overflow",
        "pipeline-c4-constraint-overflow", "pipeline-set-empty",
        "pipeline-set-source-empty"])
def test_lift_refuses_before_sieving(tmp_path, capsys, monkeypatch, argv, code):
    def unreachable(*args, **kwargs):
        raise AssertionError("sieved to N before the size checks")

    monkeypatch.setattr("ap3lab.pipeline.sieve_primes", unreachable)
    if callable(argv):
        argv = argv(tmp_path)
    assert run_cli(*argv, "--out", str(tmp_path / "out.json")) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command, raw, argv", [
    # wtrick evaluates no (delta, epsilon)
    ("wtrick", {"c4": 1e304}, ["--n", "100000"]),
    # pipeline evaluates delta and epsilon, not the grids
    ("pipeline", {"n": 100000, "delta_grid": ["1e-100"]}, []),
    # the sweep evaluates its grid, not the default delta = 0.05, eps = 0.1
    ("delta-sweep", {"c4": 1e304}, ["--n", "100000", "--delta-grid", "0.3", "--eps-grid", "0.3"]),
], ids=["wtrick", "pipeline-grid", "delta-sweep-grid"])
def test_eps_delta_overflow_is_checked_only_at_evaluated_points(tmp_path, command, raw, argv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(config), *argv, "--out", str(out)) == 0
    assert out.exists()


def test_the_largest_k_whose_norm_stays_finite_runs(tmp_path):
    # at N = 1e6, 2k * ln(scale) + ln P stays below ln(float max) up to k = 144
    out = tmp_path / "r.json"
    assert run_cli("pipeline", "--n", "1000000", "--k", "144", "--out", str(out)) == 0
    (row,) = json.loads(out.read_text())["norm_table"]
    assert row["k"] == 144 and 0 < row["h_norm_2k"] < math.inf


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 7.11 PiB for an array",
     "error: out of memory: Unable to allocate 7.11 PiB for an array\n"),
    ("", "error: out of memory\n"),
])
def test_memory_error_exits_3_with_one_line(monkeypatch, capsys, message, line):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("ap3lab.cli.sieve_primes", exhausted)
    assert run_cli("primes", "--limit", "30") == 3
    captured = capsys.readouterr()
    assert captured.err == line and captured.out == ""


def test_missing_n_is_invalid(capsys):
    assert run_cli("pipeline", "--out", "/tmp/y.json") == 1
    capsys.readouterr()


def _damaged_function(damage):
    def argv(tmp_path):
        path = tmp_path / "f.zpfn"
        save_function(CyclicFunction(101, np.linspace(0.0, 1.0, 101)), path)
        path.write_bytes(damage(path.read_bytes()))
        return ["transform", "--in", str(path), "--out", str(tmp_path / "s.zpsp")]
    return argv


def _config_file(raw):
    def argv(tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return ["pipeline", "--config", str(path), "--out", str(tmp_path / "r.json")]
    return argv


def _set_file(text, command="wtrick"):
    def argv(tmp_path):
        path = tmp_path / "set.txt"
        path.write_text(text)
        return [command, "--n", "100", "--set", str(path), "--out", str(tmp_path / "out.json")]
    return argv


def _with_config(tmp_path, raw, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    command, *rest = argv(tmp_path)
    return [command, "--config", str(path), *rest]


def _small_set(tmp_path, text="0\n1\n3\n"):
    path = tmp_path / "set.txt"
    path.write_text(text)
    return ["lambda", "--p", "101", "--set", str(path)]


def _header_only(tmp_path):
    # a ZPFN header claiming P = 8388617 and no payload: the budget is
    # checked from the header, before the payload is read
    path = tmp_path / "big.zpfn"
    path.write_bytes(b"ZPFN" + (1).to_bytes(4, "little") + (8388617).to_bytes(8, "little"))
    return ["transform", "--in", str(path), "--out", str(tmp_path / "s.zpsp")]


# every command that builds P-point arrays, at P = 8388617, the least prime
# past the 2^23 FFT budget (wtrick: N = 2^24 at the default z); the set
# file does not exist, so the budget must be checked before it is read
BUDGETED = {
    "transform": _header_only,
    "wtrick": lambda tmp_path: ["wtrick", "--n", "16777216", "--out", str(tmp_path / "w.json")],
    "bohr": lambda tmp_path: ["bohr", "--p", "8388617", "--freqs", "1", "--eps", "0.1"],
    "lambda": lambda tmp_path: [
        "lambda", "--p", "8388617", "--set", str(tmp_path / "missing.txt"),
    ],
}


@pytest.mark.parametrize("command", sorted(BUDGETED))
def test_config_fft_budget_binds_every_command(tmp_path, capsys, command):
    # the budget is a constant: each command refuses a P past it, and no
    # config can move it
    argv = BUDGETED[command]
    assert run_cli(*argv(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "P = 8388617 exceeds the FFT budget 8388608" in err
    assert run_cli(*_with_config(tmp_path, {"fft_budget": 1 << 24}, argv)) == 1
    refusal = "unknown config keys" if command == "wtrick" else "unrecognized arguments: --config"
    assert refusal in capsys.readouterr().err


def test_wtrick_reads_n_from_the_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 10000}))
    out = tmp_path / "w.json"
    assert run_cli("wtrick", "--config", str(config), "--out", str(out)) == 0
    assert json.loads(out.read_text())["p"] == 15013


# case -> (argv builder, fragment of the one-line error message)
MALFORMED_INPUTS = {
    "zpfn-truncated-header": (_damaged_function(lambda blob: blob[:10]), "truncated header"),
    "zpfn-magic": (_damaged_function(lambda blob: b"ZPSP" + blob[4:]), "bad magic"),
    "zpfn-version": (
        _damaged_function(lambda blob: blob[:4] + (2).to_bytes(4, "little") + blob[8:]),
        "unsupported format version",
    ),
    "zpfn-short-payload": (_damaged_function(lambda blob: blob[:-8]), "payload has"),
    "zpfn-composite-modulus": (
        _damaged_function(lambda blob: blob[:8] + (100).to_bytes(8, "little") + blob[16:816]),
        "is not prime",
    ),
    "set-empty": (_set_file("\n"), "is empty"),
    "n-string": (_config_file({"n": "100000"}), "n must be an integer"),
    "n-float": (_config_file({"n": 100000.0}), "n must be an integer"),
    "n-bool": (_config_file({"n": True}), "n must be an integer"),
    "c4-string": (_config_file({"n": 100000, "c4": "1"}), "constant c4 must be a positive real"),
    "z-string": (_config_file({"n": 100000, "z_override": "3"}), "z_override must be a real"),
    "fft-budget-string": (_config_file({"n": 10000, "fft_budget": "8"}), "unknown config keys"),
    "k-values-null": (_config_file({"n": 10000, "k_values": [None]}), "k_values must be integers"),
    "set-composite": (_set_file("-5\n4\n5\n11\n17\n23\n"), "set member -5 is not a prime"),
    "set-above-n": (_set_file("5\n11\n17\n23\n101\n"), "set member 101 is not a prime"),
    "set-member-past-int64": (
        _set_file("5\n11\n99999999999999999999999\n"),
        "set member 99999999999999999999999 in",
    ),
    "set-member-past-int64-pipeline": (
        _set_file("-99999999999999999999999\n5\n11\n", "pipeline"),
        "set member -99999999999999999999999 in",
    ),
    "config-not-object": (_config_file([["n", 10000]]), "must hold a JSON object"),
    "fft-budget-string-bohr": (
        lambda tmp_path: _with_config(tmp_path, {"fft_budget": "8"}, BUDGETED["bohr"]),
        "unrecognized arguments: --config",
    ),
    "threads-key-lambda": (
        lambda tmp_path: _with_config(tmp_path, {"threads": 2}, BUDGETED["lambda"]),
        "unrecognized arguments: --config",
    ),
    "tuples-limit-below-3": (
        lambda tmp_path: ["tuples", "--w", "2", "--offsets", "1", "--limit", "1"],
        "limit must be >= 3, got 1",
    ),
    "bounds-n-nan": (lambda tmp_path: ["bounds", "--n", "nan"], "N must be a finite number"),
    "bounds-n-inf": (lambda tmp_path: ["bounds", "--n", "inf"], "N must be a finite number"),
    "bounds-n-1e400": (lambda tmp_path: ["bounds", "--n", "1e400"], "N must be a finite number"),
    "threads-key": (_config_file({"n": 10000, "threads": 2}), "unknown config keys"),
    "delta-grid-flag": (
        lambda tmp_path: ["delta-sweep", "--n", "1000", "--delta-grid", "0.1,0.6",
                          "--eps-grid", "0.1", "--out", str(tmp_path / "d.csv")],
        "delta_grid must lie in (0, 1/2), got 3/5",
    ),
    "eps-grid-flag": (
        lambda tmp_path: ["delta-sweep", "--n", "1000", "--delta-grid", "0.1",
                          "--eps-grid", "0.5", "--out", str(tmp_path / "d.csv")],
        "epsilon_grid must lie in (0, 1/2), got 1/2",
    ),
    "delta-grid-config": (
        _config_file({"n": 1000, "delta_grid": ["0.6"]}),
        "delta_grid must lie in (0, 1/2), got 3/5",
    ),
    "eps-grid-config": (
        _config_file({"n": 1000, "epsilon_grid": ["0"]}),
        "epsilon_grid must lie in (0, 1/2), got 0",
    ),
    "threads-flag": (
        lambda tmp_path: ["--threads=2", "pipeline", "--n", "10000",
                          "--out", str(tmp_path / "r.json")],
        "unrecognized arguments: --threads",
    ),
    "k-repeated": (
        lambda tmp_path: ["pipeline", "--n", "1000", "--k", "2,1,2",
                          "--out", str(tmp_path / "r.json")],
        "k_values repeats the value 2",
    ),
    "k-repeated-config": (
        _config_file({"n": 1000, "k_values": [3, 3]}),
        "k_values repeats the value 3",
    ),
    "delta-grid-repeated": (
        lambda tmp_path: ["delta-sweep", "--n", "1000", "--delta-grid", "0.1,0.10",
                          "--out", str(tmp_path / "d.csv")],
        "delta_grid repeats the value 1/10",
    ),
    "eps-grid-repeated": (
        _config_file({"n": 1000, "epsilon_grid": ["0.2", "1/5"]}),
        "epsilon_grid repeats the value 1/5",
    ),
    "k-grid-key": (_config_file({"n": 1000, "k_grid": [1, 2]}), "unknown config keys"),
    # suggested_delta = (eta * floor_rhs)^(5/3) overflows a float
    "eta-overflow": (_config_file({"n": 10000, "eta": 1e200}), "error: overflow:"),
    "k-grid-flag": (
        lambda tmp_path: ["pipeline", "--n", "1000", "--k-grid", "1,2",
                          "--out", str(tmp_path / "r.json")],
        "unrecognized arguments: --k-grid",
    ),
    # each option a command does not read is refused, not ignored
    "force-flag": (
        lambda tmp_path: ["--force", "pipeline", "--n", "1000",
                          "--out", str(tmp_path / "r.json")],
        "unrecognized arguments: --force",
    ),
    **{
        f"config-{argv[0]}": (
            lambda tmp_path, argv=argv: _with_config(tmp_path, {"threads": 2}, lambda _: argv),
            "unrecognized arguments: --config",
        )
        for argv in (["primes", "--limit", "30"],
                     ["tuples", "--w", "6", "--offsets", "1,5", "--limit", "10"],
                     ["bounds", "--n", "1e10"])
    },
    # an empty option value is refused, not read as absent
    **{
        f"empty-{argv[-2][2:]}": (
            lambda tmp_path, argv=argv: argv + ["--out", str(tmp_path / "out")],
            f"argument {argv[-2]}: must not be empty",
        )
        for argv in (["pipeline", "--n", "1000", "--set", ""],
                     ["pipeline", "--n", "1000", "--delta", ""],
                     ["pipeline", "--n", "1000", "--eps", ""],
                     ["pipeline", "--n", "1000", "--k", ""],
                     ["pipeline", "--n", "1000", "--config", ""],
                     ["delta-sweep", "--n", "1000", "--delta-grid", ""],
                     ["delta-sweep", "--n", "1000", "--eps-grid", ""])
    },
    "set-source-empty-config": (
        _config_file({"n": 1000, "set_source": ""}),
        "set_source must be a nonempty path string, got ''",
    ),
    "k-flag-delta-sweep": (
        lambda tmp_path: ["delta-sweep", "--n", "1000", "--k", "1,2", "--delta-grid", "0.1",
                          "--eps-grid", "0.1", "--out", str(tmp_path / "d.csv")],
        "unrecognized arguments: --k 1,2",
    ),
    "lambda-both": (lambda tmp_path: [*_small_set(tmp_path), "--both"],
                    "unrecognized arguments: --both"),
    "lambda-fourier": (lambda tmp_path: [*_small_set(tmp_path), "--fourier"],
                       "unrecognized arguments: --fourier"),
    # lambda reads residues mod P: a member outside [0, P) is not reduced
    "lambda-member-negative": (
        lambda tmp_path: _small_set(tmp_path, "1\n102\n-100\n"),
        "set.txt must be ascending distinct residues in [0, 101)",
    ),
    "lambda-member-past-p": (
        lambda tmp_path: _small_set(tmp_path, "0\n1\n101\n"),
        "set.txt must be ascending distinct residues in [0, 101)",
    ),
    # a malformed list or decimal value names its option or config key
    "delta-grid-trailing-comma": (
        lambda tmp_path: ["delta-sweep", "--n", "1000", "--delta-grid", "0.1,",
                          "--out", str(tmp_path / "d.csv")],
        "argument --delta-grid: '0.1,' holds an empty value",
    ),
    "eps-grid-not-a-decimal": (
        lambda tmp_path: ["delta-sweep", "--n", "1000", "--eps-grid", "0.1,abc",
                          "--out", str(tmp_path / "d.csv")],
        "argument --eps-grid: 'abc' is not a decimal or fraction",
    ),
    "delta-empty-config": (_config_file({"n": 1000, "delta": ""}),
                           "delta must be a decimal or fraction string, got ''"),
    "epsilon-zero-denominator-config": (
        _config_file({"n": 1000, "epsilon": "1/0"}),
        "epsilon must be a decimal or fraction string, got '1/0'",
    ),
    "delta-grid-not-a-decimal-config": (
        _config_file({"n": 1000, "delta_grid": ["0.1", "abc"]}),
        "delta_grid must be a decimal or fraction string, got 'abc'",
    ),
    "delta-zero-denominator": (
        lambda tmp_path: ["pipeline", "--n", "1000", "--delta", "1/0",
                          "--out", str(tmp_path / "r.json")],
        "argument --delta: '1/0' is not a decimal or fraction",
    ),
    "k-trailing-comma": (
        lambda tmp_path: ["pipeline", "--n", "1000", "--k", "1,",
                          "--out", str(tmp_path / "r.json")],
        "argument --k: '1,' holds an empty value",
    ),
    "k-not-an-integer": (
        lambda tmp_path: ["pipeline", "--n", "1000", "--k", "1,1.5",
                          "--out", str(tmp_path / "r.json")],
        "argument --k: '1.5' is not an integer",
    ),
    "bohr-freqs-trailing-comma": (
        lambda tmp_path: ["bohr", "--p", "101", "--freqs", "1,", "--eps", "0.1"],
        "argument --freqs: '1,' holds an empty value",
    ),
    "bohr-eps-zero-denominator": (
        lambda tmp_path: ["bohr", "--p", "101", "--freqs", "1", "--eps", "1/0"],
        "argument --eps: '1/0' is not a decimal or fraction",
    ),
    "tuples-offsets-trailing-comma": (
        lambda tmp_path: ["tuples", "--w", "6", "--offsets", "1,", "--limit", "10"],
        "argument --offsets: '1,' holds an empty value",
    ),
    # a set-file line that is not an integer names the file and the line
    "set-line-not-an-integer-pipeline": (
        _set_file("5\n\n11\nabc\n", "pipeline"),
        "set.txt, line 4: 'abc' is not an integer",
    ),
    "lambda-set-line-not-an-integer": (
        lambda tmp_path: _small_set(tmp_path, "0\n1.5\n3\n"),
        "set.txt, line 2: '1.5' is not an integer",
    ),
    # an abbreviated option is refused, not expanded: --delta is not read
    # as --delta-grid, the one delta-sweep option it would abbreviate
    "primes-lim": (lambda tmp_path: ["primes", "--lim", "10"],
                   "the following arguments are required: --limit"),
    "pipeline-de-ep": (
        lambda tmp_path: ["pipeline", "--n", "100000", "--de", "0.05", "--ep", "0.1",
                          "--out", str(tmp_path / "r.json")],
        "unrecognized arguments: --de 0.05 --ep 0.1",
    ),
    "delta-sweep-delta": (
        lambda tmp_path: ["delta-sweep", "--n", "100000", "--delta", "0.3",
                          "--out", str(tmp_path / "d.csv")],
        "unrecognized arguments: --delta 0.3",
    ),
    # the eps-delta check names the least point the sweep evaluates
    "delta-sweep-c4-constraint-overflow": (
        lambda tmp_path: _with_config(tmp_path, {"c4": 1e307}, lambda _: [
            "delta-sweep", "--n", "100000", "--delta-grid", "0.4,0.3",
            "--eps-grid", "0.3,0.35", "--out", str(tmp_path / "d.csv")]),
        "overflows a float at c4 = 1e+307, delta = 0.3, epsilon = 0.3",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_1_with_a_message(tmp_path, capsys, case):
    argv, fragment = MALFORMED_INPUTS[case]
    assert run_cli(*argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err and err.count("\n") == 1
    assert "Traceback" not in err


def _oversized_function(tmp_path):
    # a well-formed all-zero ZPFN file for P = 8388617, its payload left
    # sparse: the budget must be checked before the transform
    path = tmp_path / "big.zpfn"
    with open(path, "wb") as fh:
        fh.write(b"ZPFN" + (1).to_bytes(4, "little") + (8388617).to_bytes(8, "little"))
        fh.truncate(16 + 8 * 8388617)
    return ["transform", "--in", str(path), "--out", str(tmp_path / "s.zpsp")]


OVERSIZED_INPUTS = {
    "transform-in": _oversized_function,
    "bohr-p": BUDGETED["bohr"],
    "lambda-p": BUDGETED["lambda"],
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_INPUTS))
def test_oversized_input_exits_3_with_a_message(tmp_path, capsys, monkeypatch, case):
    def unreachable(*args, **kwargs):
        raise AssertionError("a P-length array was built past the budget")

    monkeypatch.setattr("ap3lab.cli.build_bohr_set", unreachable)
    monkeypatch.setattr("ap3lab.cli.ScaledIndicator", unreachable)
    monkeypatch.setattr("ap3lab.cli.additive_counts", unreachable)
    monkeypatch.setattr("ap3lab.cli.forward_transform", unreachable)
    assert run_cli(*OVERSIZED_INPUTS[case](tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds the FFT budget 8388608" in err
    assert "Traceback" not in err


def _command_options():
    """command -> the option strings its subparser accepts, help left out."""
    (subparsers,) = [action for action in _build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return {
        command: {flag for action in parser._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for command, parser in subparsers.choices.items()
    }


def test_each_command_accepts_only_the_options_it_reads():
    # delta-sweep reads delta and epsilon only from a config without grids
    lift = {"--config", "--n", "--z", "--set"}
    options = _command_options()
    assert options == {
        "primes": {"--limit", "--out"},
        "transform": {"--in", "--out"},
        "wtrick": lift | {"--out"},
        "bohr": {"--p", "--freqs", "--eps", "--members", "--out"},
        "lambda": {"--p", "--set", "--direct", "--out"},
        "tuples": {"--w", "--offsets", "--limit", "--series-cutoff", "--out"},
        "pipeline": lift | {"--delta", "--eps", "--k", "--out"},
        "delta-sweep": lift | {"--delta-grid", "--eps-grid", "--out"},
        "bounds": {"--n", "--out"},
    }
    assert sum(map(len, options.values())) == 40  # (command, option) slots


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line)[1:] for line in block.splitlines()
             if line.startswith("ap3lab ")]
    assert sorted(argv[0] for argv in argvs) == sorted(_COMMANDS)  # one per command
    parser = _build_parser()
    for argv in argvs:
        parser.parse_args(argv)
    # one bullet per command lists exactly the options its subparser accepts
    listed = {
        match["command"]: set(re.findall(r"`(--[a-z][a-z-]*)`", match["body"]))
        for match in re.finditer(r"^\* `(?P<command>[a-z-]+)`: (?P<body>.*?)(?=^\* |^$)",
                                 section, re.M | re.S)
    }
    assert listed == _command_options()
