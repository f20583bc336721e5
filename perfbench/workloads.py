"""The benchmark's workloads: CLI arguments made from the seed, and the
checks of what each call wrote.

pipeline_n1e7
    ``pipeline`` at N = 1e7 on all primes (P = 5000011, |R| = 115,
    |B| = 15): the only size where the Bohr scan, smoothing, prime-length
    transforms and lambda_h are all large and the arrays far exceed the
    caches.
sweep_subset_n1e6
    ``delta-sweep`` at N = 1e6 over a seeded random half of the primes and a
    3 x 4 (delta, epsilon) grid sharing one lift and spectrum: many small
    Bohr scans and transforms at P = 500009, including the Bohr set = {0}
    regime, and the set-file reader.
tuples_mixed
    Three ``tuples`` specs in one process (dense-flag path, a k = 4 tuple,
    and per-element Miller-Rabin past the 1e8 ceiling): exercises the prime
    engine and tuple sieve bounds and none of the Fourier layers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import checks

EXPECTED = Path(__file__).resolve().parent / "expected"


def _load(name: str):
    return json.loads((EXPECTED / name).read_text(encoding="utf-8"))


def seeded_half_of_primes(limit: int, seed: int) -> np.ndarray:
    """Each prime <= limit kept with probability 1/2, from the seed alone."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for q in range(2, int(limit ** 0.5) + 1):
        if flags[q]:
            flags[q * q::q] = False
    primes = np.flatnonzero(flags)
    return primes[np.random.default_rng(seed).random(primes.size) < 0.5]


class Pipeline:
    name = "pipeline_n1e7"

    def prepare(self, workdir: Path, seed: int) -> dict:
        self.expected_report = _load("pipeline_n1e7.json")
        self.expected_rows = checks.read_csv(EXPECTED / "pipeline_n1e7.csv")
        return {}

    def calls(self, outdir: Path) -> list[list[str]]:
        return [["pipeline", "--n", "10000000", "--delta", "0.05", "--eps", "0.1",
                 "--k", "1,2,3", "--out", str(outdir / "pipeline.json")]]

    def check(self, index: int, outdir: Path) -> list[str]:
        report = json.loads((outdir / "pipeline.json").read_text(encoding="utf-8"))
        rows = checks.read_csv(outdir / "pipeline.csv")
        return checks.check_pipeline(report, rows, self.expected_report, self.expected_rows)


class Sweep:
    name = "sweep_subset_n1e6"
    n = 1_000_000
    deltas = ("0.02", "0.05", "0.1")
    epsilons = ("0.1", "0.2", "0.3", "0.4")

    def prepare(self, workdir: Path, seed: int) -> dict:
        members = seeded_half_of_primes(self.n, seed)
        self.set_file = workdir / f"subset_seed{seed}.txt"
        self.set_file.write_text("\n".join(map(str, members.tolist())) + "\n")
        self.oracle = checks.sweep_oracle(members, self.n, self.deltas, self.epsilons)
        return {"subset_seed": seed, "subset_size": int(members.size)}

    def calls(self, outdir: Path) -> list[list[str]]:
        return [["delta-sweep", "--n", str(self.n), "--set", str(self.set_file),
                 "--delta-grid", ",".join(self.deltas),
                 "--eps-grid", ",".join(self.epsilons),
                 "--out", str(outdir / "sweep.csv")]]

    def check(self, index: int, outdir: Path) -> list[str]:
        return checks.compare(self.oracle, checks.read_csv(outdir / "sweep.csv"), "sweep")


class Tuples:
    name = "tuples_mixed"
    specs = (
        (6, (1, 5), 16_000_000),          # dense-flag path
        (30, (1, 7, 11, 13), 3_000_000),  # k = 4
        (2310, (1, 13), 100_000),         # top value past 1e8: Miller-Rabin
    )

    def prepare(self, workdir: Path, seed: int) -> dict:
        from ap3lab.primes import sieve_primes

        self.expected = _load("tuples_mixed.json")
        table = sieve_primes(max(checks.tuple_top(*spec) for spec in self.specs))
        self.independent = [checks.independent_tuple_count(table, *spec)
                            for spec in self.specs]
        return {}

    def calls(self, outdir: Path) -> list[list[str]]:
        return [["tuples", "--w", str(w), "--offsets", ",".join(map(str, offsets)),
                 "--limit", str(limit), "--out", str(outdir / f"tuples{i}.json")]
                for i, (w, offsets, limit) in enumerate(self.specs)]

    def check(self, index: int, outdir: Path) -> list[str]:
        report = json.loads((outdir / f"tuples{index}.json").read_text(encoding="utf-8"))
        return checks.check_tuple(report, self.expected[index], self.independent[index])


WORKLOADS = {w.name: w for w in (Pipeline, Sweep, Tuples)}
