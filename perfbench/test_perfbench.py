"""Tests of the benchmark itself: span arithmetic, output checks, the
accounting of failed calls, and agreement of BENCHMARK.json with the code.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, spans, workloads  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench.spans import Span  # noqa: E402


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

def test_self_time_subtracts_union_of_direct_children():
    tree = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),   # grandchild: not subtracted from root
        Span("b", 3.5, 6.0, 0),         # overlaps a: union counted once
        Span("c", 9.0, 12.0, 0),        # clipped to the end of root
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_recorder_nesting_and_layer_metrics():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    smooth = rec.open("bohr.smooth")          # t=0
    fwd = rec.open("cyclic.forward")          # t=1
    rec.close(fwd)                            # t=2
    rec.spans[fwd].attrs["points"] = 7
    inv = rec.open("cyclic.inverse")          # t=3
    rec.close(inv)                            # t=4
    rec.spans[inv].attrs["points"] = 7
    rec.close(smooth)                         # t=5
    lam = rec.open("threeap.lambda")          # t=6
    fwd2 = rec.open("cyclic.forward")         # t=7
    rec.close(fwd2)                           # t=8
    rec.spans[fwd2].attrs["points"] = 7
    rec.close(lam)                            # t=9
    rec.counts["primes.mr_calls"] += 3

    assert [s.parent for s in rec.spans] == [None, 0, 0, None, 3]
    loaded, counts = spans.Recorder.from_json(json.loads(json.dumps(rec.to_json())))
    metrics = spans.layer_metrics(loaded, counts)
    assert metrics["bohr.smooth_self_s"] == 5 - 1 - 1
    assert metrics["threeap.lambda_self_s"] == 3 - 1
    assert metrics["cyclic.forward_s"] == 2
    assert metrics["cyclic.inverse_s"] == 1
    assert metrics["cyclic.forward_calls"] == 2
    assert metrics["cyclic.transform_points"] == 21
    assert metrics["threeap.transforms_in_lambda"] == 1
    assert metrics["primes.mr_calls"] == 3
    assert metrics["bohr.scan_calls"] == 0 and metrics["bohr.trivial_share"] == 0.0


def test_recorder_rejects_out_of_order_close():
    rec = spans.Recorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_traced_child_records_every_layer_of_a_small_pipeline(tmp_path):
    job = tmp_path / "job.json"
    result = tmp_path / "result.json"
    job.write_text(json.dumps([["pipeline", "--n", "100000", "--k", "1,2",
                                "--out", str(tmp_path / "r.json")]]))
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(ROOT),
                    str(job), str(result), "0", "--trace"], check=True, timeout=120)
    data = json.loads(result.read_text())
    assert data["codes"] == [0]
    metrics = spans.layer_metrics(*spans.Recorder.from_json(data["trace"]))
    report = json.loads((tmp_path / "r.json").read_text())
    assert metrics["bohr.scan_calls"] == 1
    assert metrics["bohr.scan_work"] == report["wtrick"]["p"] * report["spectrum"]["r_size"]
    assert metrics["bohr.trivial_share"] == (1.0 if report["bohr"]["bohr_size"] == 1 else 0.0)
    assert metrics["wtrick.a0_size"] == report["wtrick"]["a0_size"]
    assert metrics["threeap.lambda_calls"] == 2
    assert metrics["primes.table_lookups"] >= report["wtrick"]["a0_size"]
    per_layer = {name for name, _, _ in bench.PER_LAYER}
    assert per_layer - set(metrics) == {"process.cpu_s", "trace.overhead_s"}
    assert all(value >= 0 for value in metrics.values())


# ----------------------------------------------------------------------
# output checks and their accounting
# ----------------------------------------------------------------------

def _pipeline_outputs(outdir: Path, report: dict) -> None:
    (outdir / "pipeline.json").write_text(json.dumps(report))
    (outdir / "pipeline.csv").write_bytes(
        (workloads.EXPECTED / "pipeline_n1e7.csv").read_bytes())


def test_pipeline_check_accepts_reference_and_rejects_corruption(tmp_path):
    load = workloads.Pipeline()
    load.prepare(tmp_path, seed=1)
    good = json.loads((workloads.EXPECTED / "pipeline_n1e7.json").read_text())
    _pipeline_outputs(tmp_path, good)
    assert load.check(0, tmp_path) == []

    for path, value in ((("spectrum", "r_size"), 116),
                        (("bohr", "bohr_size"), 14),
                        (("lambda", "lambda_hhh"), good["lambda"]["lambda_hhh"] * (1 + 1e-5))):
        bad = copy.deepcopy(good)
        bad[path[0]][path[1]] = value
        _pipeline_outputs(tmp_path, bad)
        assert load.check(0, tmp_path), path

    # last-ulp noise on a float is tolerated
    noisy = copy.deepcopy(good)
    noisy["lambda"]["lambda_hhh"] *= 1 + 1e-12
    _pipeline_outputs(tmp_path, noisy)
    assert load.check(0, tmp_path) == []


def test_pipeline_invariants_are_checked_beyond_the_reference():
    report = json.loads((workloads.EXPECTED / "pipeline_n1e7.json").read_text())
    rows = checks.read_csv(workloads.EXPECTED / "pipeline_n1e7.csv")
    report["norm_table"][1]["level_margin"] = -1e-3
    report["lambda"]["h_l1"] *= 1 + 1e-6
    problems = checks.check_pipeline(report, rows, copy.deepcopy(report), rows)
    assert len(problems) == 2


class _FakeTuples(workloads.Tuples):
    """Tuples workload whose 'child' writes recorded reports, one corrupted."""

    def __init__(self):
        self.expected = json.loads((workloads.EXPECTED / "tuples_mixed.json").read_text())
        self.independent = [r["count"] for r in self.expected]


def test_corrupted_count_is_counted_in_failed_ops_share(tmp_path):
    load = _FakeTuples()
    runner = bench.Runner(ROOT, tmp_path, load)

    def fake_spawn(flags, calls=None):
        for i, report in enumerate(load.expected):
            report = dict(report, count=report["count"] + (1 if i == 1 else 0))
            (tmp_path / "out" / f"tuples{i}.json").write_text(json.dumps(report))
        return {"codes": [0, 0, 0], "walls": [1.0, 1.0, 1.0], "peak_rss_mb": 1.0}

    runner.spawn = fake_spawn
    runner.setup_samples = [0.2]
    assert runner.round(traced=False) is not None
    assert (runner.tally.attempted, runner.tally.failed) == (3, 1)
    metrics = bench.end_to_end_metrics(runner, [])
    assert metrics["ok_ops_share"] == pytest.approx(2 / 3)


def test_nonzero_exit_counts_every_call_of_the_child(tmp_path):
    runner = bench.Runner(ROOT, tmp_path, _FakeTuples())
    runner.spawn = lambda flags, calls=None: None
    assert runner.round(traced=False) is None
    assert (runner.tally.attempted, runner.tally.failed) == (3, 3)


def test_independent_tuple_count_matches_the_program():
    from ap3lab.primes import sieve_primes
    from ap3lab.sieve_bounds import TupleSpec, count_prime_tuples

    specs = [(6, (1, 5), 5000), (30, (1, 7, 11, 13), 2000), (2, (1,), 3000)]
    table = sieve_primes(max(checks.tuple_top(*s) for s in specs))
    for w, offsets, limit in specs:
        expected = count_prime_tuples(TupleSpec(w=w, offsets=offsets), limit)
        assert checks.independent_tuple_count(table, w, offsets, limit, chunk=777) == expected


def test_sweep_oracle_matches_the_program_and_rejects_corruption(tmp_path):
    from ap3lab.pipeline import PipelineConfig, delta_sweep, write_csv

    n = 20000
    members = workloads.seeded_half_of_primes(n, seed=3)
    set_file = tmp_path / "set.txt"
    set_file.write_text("\n".join(map(str, members.tolist())))
    deltas, epsilons = ("0.05", "0.1"), ("0.1", "0.3")
    config = PipelineConfig(n=n, set_source=str(set_file),
                            delta_grid=deltas, epsilon_grid=epsilons)
    write_csv(tmp_path / "s.csv", *delta_sweep(config))
    rows = checks.read_csv(tmp_path / "s.csv")
    oracle = checks.sweep_oracle(members, n, deltas, epsilons)
    assert checks.compare(oracle, rows) == []

    rows[2]["bohr_size"] += 1
    assert checks.compare(oracle, rows)


def test_seeded_subset_depends_only_on_the_seed():
    a = workloads.seeded_half_of_primes(1000, seed=5)
    assert np.array_equal(a, workloads.seeded_half_of_primes(1000, seed=5))
    assert not np.array_equal(a, workloads.seeded_half_of_primes(1000, seed=6))


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------

def test_benchmark_json_matches_the_declared_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert set(bench.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == bench.PER_LAYER
