"""Span recorder, the wrappers that put ap3lab's layers under it, and the
per-layer metrics computed from the recorded spans.

A span is one call into a layer: its name, start, end and the span that was
open when it began (its parent). Spans stay in memory and are written out
when the traced process ends. Functions that are called hundreds of
thousands of times per run (primality lookups, root counts) get a plain call
counter instead of a span, so that tracing them stays cheap.

The wrappers replace the public names that callers look up at call time, so
the program itself is not edited: ``pipeline`` calls ``build_bohr_set``
through its own module globals, ``CyclicFunction.spectrum`` calls
``forward_transform`` through the ``cyclic`` module globals, and so on.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and call counts of one process, in memory."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._clock = clock

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self._clock(), float("nan"), parent))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index].end = self._clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def to_json(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans],
            "counts": dict(self.counts),
        }

    @staticmethod
    def from_json(data: dict) -> tuple[list[Span], Counter]:
        spans = [Span(n, a, b, p, dict(attrs)) for n, a, b, p, attrs in data["spans"]]
        return spans, Counter(data["counts"])


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once, and a child that
    sticks out of its parent is clipped to it)."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo = max(kid.start, reach)
            hi = min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


# ----------------------------------------------------------------------
# instrumentation of ap3lab
# ----------------------------------------------------------------------

def _wrap_span(rec: Recorder, owner, attr: str, name: str, attrs=None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = rec.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.close(index)
        if attrs is not None:
            rec.spans[index].attrs.update(attrs(args, result))
        return result

    setattr(owner, attr, traced)


def _wrap_count(rec: Recorder, owner, attr: str, name: str) -> None:
    original = getattr(owner, attr)
    counts = rec.counts

    @functools.wraps(original)
    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, counted)


def install(rec: Recorder) -> None:
    """Wrap the names through which the CLI reaches each ap3lab layer."""
    from ap3lab import bohr, bounds, cli, cyclic, pipeline, primes, sieve_bounds, wtrick

    span = functools.partial(_wrap_span, rec)
    count = functools.partial(_wrap_count, rec)

    span(cli, "main", "cli.main")
    span(cli, "run_pipeline", "pipeline.run")
    span(cli, "delta_sweep", "pipeline.run")
    span(cli, "write_report", "pipeline.write")
    span(cli, "write_csv", "pipeline.write")
    span(cli, "count_prime_tuples", "sieve_bounds.count_tuples")
    span(cli, "singular_series", "sieve_bounds.series")

    span(pipeline, "sieve_primes", "primes.sieve")
    span(pipeline, "load_member_file", "pipeline.load_members")
    span(pipeline, "build_context", "wtrick.context")
    span(pipeline, "build_sieved_function", "wtrick.lift",
         lambda args, result: {"a0_size": int(args[1].a0.size)})
    span(pipeline, "threshold_spectrum", "cyclic.threshold")
    span(pipeline, "spectral_lp_norm", "cyclic.norm")
    span(pipeline, "lp_norm", "cyclic.norm")
    span(pipeline, "build_bohr_set", "bohr.scan",
         lambda args, result: {"work": int(args[0]) * len(set(args[1])),
                               "trivial": result.size == 1})
    span(pipeline, "smooth", "bohr.smooth")
    span(pipeline, "lambda_fourier", "threeap.lambda")
    span(bounds, "level_set_extract", "bounds.level_set")

    span(cyclic, "forward_transform", "cyclic.forward",
         lambda args, result: {"points": int(result.modulus)})
    span(cyclic, "inverse_transform", "cyclic.inverse",
         lambda args, result: {"points": int(result.modulus)})

    span(sieve_bounds, "sieve_primes", "primes.sieve")
    span(wtrick, "sieve_primes", "primes.sieve")
    count(sieve_bounds, "root_count_rho", "sieve_bounds.rho_calls")
    for module in (wtrick, sieve_bounds, cyclic, bohr):
        count(module, "is_prime", "primes.mr_calls")
    count(primes.PrimeTable, "is_prime", "primes.table_lookups")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

# Summed span durations: metric name -> span name.
_TOTAL_TIME = {
    "bohr.scan_s": "bohr.scan",
    "cyclic.forward_s": "cyclic.forward",
    "cyclic.inverse_s": "cyclic.inverse",
    "cyclic.threshold_s": "cyclic.threshold",
    "cyclic.norm_s": "cyclic.norm",
    "wtrick.context_s": "wtrick.context",
    "wtrick.lift_s": "wtrick.lift",
    "primes.sieve_s": "primes.sieve",
    "sieve_bounds.count_tuples_s": "sieve_bounds.count_tuples",
    "sieve_bounds.series_s": "sieve_bounds.series",
    "bounds.level_set_s": "bounds.level_set",
    "pipeline.load_members_s": "pipeline.load_members",
    "pipeline.write_s": "pipeline.write",
}

# Summed self times: metric name -> span name.
_SELF_TIME = {
    "bohr.smooth_self_s": "bohr.smooth",
    "threeap.lambda_self_s": "threeap.lambda",
    "pipeline.self_s": "pipeline.run",
    "cli.self_s": "cli.main",
}

_COUNTERS = ("primes.table_lookups", "primes.mr_calls", "sieve_bounds.rho_calls")


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced process (see README.md for which
    end-to-end metric each should move)."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for metric, name in _TOTAL_TIME.items():
        out[metric] = sum(s.duration for s in spans if s.name == name)
    for metric, name in _SELF_TIME.items():
        out[metric] = sum(t for s, t in zip(spans, own) if s.name == name)

    scans = [s for s in spans if s.name == "bohr.scan"]
    out["bohr.scan_calls"] = len(scans)
    out["bohr.scan_work"] = sum(s.attrs["work"] for s in scans)
    out["bohr.trivial_share"] = (
        sum(1 for s in scans if s.attrs["trivial"]) / len(scans) if scans else 0.0
    )

    transforms = [s for s in spans if s.name in ("cyclic.forward", "cyclic.inverse")]
    out["cyclic.forward_calls"] = sum(1 for s in transforms if s.name == "cyclic.forward")
    out["cyclic.inverse_calls"] = sum(1 for s in transforms if s.name == "cyclic.inverse")
    out["cyclic.transform_points"] = sum(s.attrs["points"] for s in transforms)

    out["threeap.lambda_calls"] = sum(1 for s in spans if s.name == "threeap.lambda")
    out["threeap.transforms_in_lambda"] = sum(
        1 for s in spans
        if s.name == "cyclic.forward"
        and s.parent is not None
        and spans[s.parent].name == "threeap.lambda"
    )
    out["wtrick.a0_size"] = sum(s.attrs["a0_size"] for s in spans if s.name == "wtrick.lift")
    for name in _COUNTERS:
        out[name] = counts.get(name, 0)
    return out
