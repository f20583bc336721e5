"""Benchmark of the ap3lab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured call is ``ap3lab.cli.main`` in a fresh child process, so start-up,
peak RSS and per-process transform caches are what a user pays. Outputs are
checked after each child ends, outside the timed region. Rounds are repeated
until S seconds have passed (at least MIN_ROUNDS), and medians are reported.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced children and prints the per-layer metrics; the traced children wrap
the layer entry points from outside the program (see spans.py), and the
difference of the traced and untraced median wall times is reported as
trace.overhead_s. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("ok_ops_share", "share", "higher", 0.05),
]

PER_LAYER = [
    ("bohr.scan_s", "s", "lower"),
    ("bohr.scan_calls", "count", "lower"),
    ("bohr.scan_work", "count", "lower"),
    ("bohr.trivial_share", "share", "higher"),
    ("bohr.smooth_self_s", "s", "lower"),
    ("cyclic.forward_s", "s", "lower"),
    ("cyclic.forward_calls", "count", "lower"),
    ("cyclic.inverse_s", "s", "lower"),
    ("cyclic.inverse_calls", "count", "lower"),
    ("cyclic.transform_points", "count", "lower"),
    ("cyclic.threshold_s", "s", "lower"),
    ("cyclic.norm_s", "s", "lower"),
    ("threeap.lambda_self_s", "s", "lower"),
    ("threeap.lambda_calls", "count", "lower"),
    ("threeap.transforms_in_lambda", "count", "lower"),
    ("wtrick.context_s", "s", "lower"),
    ("wtrick.lift_s", "s", "lower"),
    ("wtrick.a0_size", "count", "higher"),
    ("primes.table_lookups", "count", "lower"),
    ("primes.sieve_s", "s", "lower"),
    ("primes.mr_calls", "count", "lower"),
    ("sieve_bounds.count_tuples_s", "s", "lower"),
    ("sieve_bounds.series_s", "s", "lower"),
    ("sieve_bounds.rho_calls", "count", "lower"),
    ("bounds.level_set_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.load_members_s", "s", "lower"),
    ("pipeline.write_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

SETUP_PROBES = 5          # import-only children per run, for setup_s
MIN_ROUNDS = 2            # untraced rounds per run, even past --seconds
CHILD_TIMEOUT_S = 150     # one child; a run must end within 180 s
LOOP_CAP_S = 120          # never start a round that would end past this

WORKLOAD_NAMES = ("pipeline_n1e7", "sweep_subset_n1e6", "tuples_mixed")


class EnvironmentProblem(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


class Tally:
    """Calls attempted and calls failed (non-zero exit or failed check)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path, seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(root),
        "seed": seed,
    }


class Runner:
    """Spawns the children of one run and checks what they wrote."""

    def __init__(self, root: Path, workdir: Path, workload):
        self.root = root
        self.workdir = workdir
        self.workload = workload
        self.tally = Tally()
        self.setup_samples: list[float] = []

    def spawn(self, flags: list[str], calls=None) -> dict | None:
        job = self.workdir / "job.json"
        result = self.workdir / "result.json"
        log = self.workdir / "child.log"
        job.write_text(json.dumps(calls or []), encoding="utf-8")
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(self.root / "perfbench" / "child.py"),
               str(self.root), str(job), str(result)]
        with open(log, "wb") as fh:
            try:
                spawn = time.monotonic()
                proc = subprocess.run(cmd + [repr(spawn)] + flags, stdout=fh,
                                      stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"perfbench: child timed out after {CHILD_TIMEOUT_S} s",
                      file=sys.stderr)
                return None
        if proc.returncode != 0 or not result.is_file():
            tail = log.read_text(errors="replace")[-2000:]
            print(f"perfbench: child exited {proc.returncode}:\n{tail}", file=sys.stderr)
            return None
        data = json.loads(result.read_text(encoding="utf-8"))
        if not Path(data["module"]).resolve().is_relative_to(self.root / "src"):
            raise EnvironmentProblem(f"child imported ap3lab from {data['module']}")
        self.setup_samples.append(data["setup_s"])
        return data

    def probe_setup(self) -> None:
        if self.spawn(["--setup-only"]) is None:
            raise EnvironmentProblem("ap3lab.cli could not be imported")

    def round(self, traced: bool) -> dict | None:
        """One child running the workload's calls; None if it failed."""
        outdir = self.workdir / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir()
        calls = self.workload.calls(outdir)
        data = self.spawn(["--trace"] if traced else [], calls)
        codes = data["codes"] if data else [None] * len(calls)
        for index, code in enumerate(codes):
            if code != 0:
                problems = [f"exit code {code}"]
            else:
                try:
                    problems = self.workload.check(index, outdir)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            for line in problems[:5]:
                print(f"perfbench: call {index} failed its check: {line}", file=sys.stderr)
            self.tally.record(problems)
        if data is None or any(code != 0 for code in codes):
            return None
        return data


def measure(runner: Runner, seconds: int, trace: bool) -> dict[str, list[dict]]:
    """Rounds until `seconds` have passed, and at least MIN_ROUNDS so that a
    workload whose single call outlasts `seconds` still reports a median of
    more than one process. With trace, an untraced and a traced child
    alternate so both see the same machine state, and one pair suffices."""
    kinds = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_ROUNDS
    samples: dict[bool, list[dict]] = {kind: [] for kind in kinds}
    durations = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for kind in kinds:
            data = runner.round(kind)
            if data is not None:
                samples[kind].append(data)
        durations.append(time.monotonic() - t0)
        projected = time.monotonic() - start + statistics.median(durations)
        if len(durations) >= min_rounds and (projected > seconds or projected > LOOP_CAP_S):
            return {"untraced": samples[False], "traced": samples.get(True, [])}


def end_to_end_metrics(runner: Runner, untraced: list[dict]) -> dict[str, float]:
    return {
        "wall_s": _median(sum(d["walls"]) for d in untraced),
        "peak_rss_mb": _median(d["peak_rss_mb"] for d in untraced),
        "setup_s": _median(runner.setup_samples),
        "ok_ops_share": 1.0 - runner.tally.failed_share,
    }


def per_layer_metrics(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    from perfbench import spans

    per_child = [spans.layer_metrics(*spans.Recorder.from_json(d["trace"])) for d in traced]
    out = {name: _median(m[name] for m in per_child)
           for name, _, _ in PER_LAYER if name not in ("process.cpu_s", "trace.overhead_s")}
    out["process.cpu_s"] = _median(d["cpu_s"] for d in untraced)
    out["trace.overhead_s"] = (_median(sum(d["walls"]) for d in traced)
                               - _median(sum(d["walls"]) for d in untraced))
    return out


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, root: Path) -> dict:
    if not (root / "src" / "ap3lab" / "cli.py").is_file():
        raise EnvironmentProblem(f"no ap3lab sources under {root / 'src'}")
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        info = provenance(root, args.seed)
        info.update(workload.prepare(workdir, args.seed))
        runner = Runner(root, workdir, workload)
        for _ in range(SETUP_PROBES):
            runner.probe_setup()
        samples = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer_metrics(samples["untraced"], samples["traced"])
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end_metrics(runner, samples["untraced"])
        units = {name: unit for name, unit, _, _ in END_TO_END}
    tally = runner.tally
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": info,
        "rounds": {kind: len(v) for kind, v in samples.items()},
        "failed_ops_share": tally.failed_share,
        "metrics": metrics,
        "samples": samples,
    }
    runs = root / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {record['rounds']}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'failed_ops_share':32s} {tally.failed_share:.6g} "
          f"({tally.failed} of {tally.attempted} calls)")
    print("provenance " + json.dumps(info, sort_keys=True))
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        result = run(args, ROOT)
    except EnvironmentProblem as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
