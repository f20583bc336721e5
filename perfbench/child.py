"""One fresh process of the benchmark: import the CLI, run its calls, report.

Usage: child.py ROOT JOB RESULT SPAWN_TIME [--setup-only] [--trace]

JOB is a JSON list of argument lists for ``ap3lab.cli.main``. SPAWN_TIME is
the parent's CLOCK_MONOTONIC reading just before it started this process, so
setup time covers interpreter start-up plus the import of ``ap3lab.cli``.
RESULT receives a JSON object with the setup time, each call's exit code and
wall time, the CPU time of the calls, peak RSS (this process plus any
children it waited for) and, with --trace, the recorded spans.
"""

import json
import resource
import sys
import time


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv: list[str]) -> int:
    root, job_path, result_path, spawn = argv[:4]
    flags = set(argv[4:])
    sys.path.insert(0, root + "/src")
    import ap3lab.cli

    setup_s = time.monotonic() - float(spawn)
    result = {"setup_s": setup_s, "module": ap3lab.cli.__file__}
    if "--setup-only" not in flags:
        recorder = None
        if "--trace" in flags:
            sys.path.insert(0, root)
            from perfbench import spans

            recorder = spans.Recorder()
            spans.install(recorder)
        with open(job_path, encoding="utf-8") as fh:
            calls = json.load(fh)
        codes, walls = [], []
        cpu0 = _cpu_s()
        for call in calls:
            t0 = time.perf_counter()
            codes.append(ap3lab.cli.main(call))
            walls.append(time.perf_counter() - t0)
        result["cpu_s"] = _cpu_s() - cpu0
        result["codes"] = codes
        result["walls"] = walls
        if recorder is not None:
            result["trace"] = recorder.to_json()
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result["peak_rss_mb"] = kib / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
