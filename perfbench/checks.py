"""Output checks for the benchmark workloads.

Every check returns a list of problems; an empty list means the output is
correct. Three kinds of check are made:

* integer, boolean and string fields must equal the reference exactly;
* floats must agree with the reference to FLOAT_REL_TOL relative (and
  FLOAT_ABS_TOL absolute, for values that are zero); this absorbs last-ulp
  differences between numpy builds, which are not this benchmark's concern;
* invariants that hold for every correct report (h_l1 = a_l1, level margins
  and the pigeonhole margin nonnegative).

The references are the reports recorded at the commit that introduced the
benchmark (``expected/``), an independent count of prime tuples from a
``sieve_primes`` table, and, for the seeded sweep, an independent numpy
recomputation of the lift, spectrum, Bohr sets and progression operators.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np

FLOAT_REL_TOL = 1e-7
FLOAT_ABS_TOL = 1e-12
H_L1_REL_TOL = 1e-9


def compare(expected, actual, path: str = "$") -> list[str]:
    """Leaf-by-leaf comparison of two JSON values."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object, got {actual!r}"]
        if set(expected) != set(actual):
            return [f"{path}: keys differ: {sorted(set(expected) ^ set(actual))}"]
        return [p for key in sorted(expected)
                for p in compare(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}, got {actual!r}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in compare(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and not isinstance(actual, bool) \
            and isinstance(actual, (int, float)):
        if math.isclose(actual, expected, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL):
            return []
        return [f"{path}: {actual!r} differs from {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def _cell(text: str):
    """Typed value of one CSV cell as the CLI writes it."""
    if text in ("true", "false"):
        return text == "true"
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------

def check_pipeline(report: dict, csv_rows: list[dict],
                   expected_report: dict, expected_rows: list[dict]) -> list[str]:
    problems = compare(expected_report, report, "report")
    problems += compare(expected_rows, csv_rows, "csv")
    if problems:
        return problems
    lam, wt = report["lambda"], report["wtrick"]
    if not math.isclose(lam["h_l1"], wt["a_l1"], rel_tol=H_L1_REL_TOL):
        problems.append(f"h_l1 {lam['h_l1']} != a_l1 {wt['a_l1']}")
    for entry in report["norm_table"]:
        if entry["level_margin"] < 0:
            problems.append(f"level margin {entry['level_margin']} < 0 at k={entry['k']}")
    if report["level_set"]["margin"] < 0:
        problems.append(f"level_set margin {report['level_set']['margin']} < 0")
    if report["bohr"]["pigeonhole_margin"] < 0:
        problems.append(f"pigeonhole margin {report['bohr']['pigeonhole_margin']} < 0")
    return problems


# ----------------------------------------------------------------------
# tuples
# ----------------------------------------------------------------------

def tuple_top(w: int, offsets, limit: int) -> int:
    return max(offsets) + limit * w


def independent_tuple_count(table, w: int, offsets, limit: int,
                            chunk: int = 1 << 20) -> int:
    """Count n <= limit with every b + n*w prime, by vectorised lookups in
    the bit table of a ``PrimeTable`` (bit i set iff 2i+1 is not prime)."""
    if table.limit < tuple_top(w, offsets, limit):
        raise ValueError("prime table does not reach the largest tuple value")
    bits = np.asarray(table.bits)
    total = 0
    for lo in range(1, limit + 1, chunk):
        n = np.arange(lo, min(lo + chunk, limit + 1), dtype=np.int64)
        ok = np.ones(n.size, dtype=bool)
        for b in offsets:
            v = n * w + b
            odd = v % 2 == 1
            i = np.where(odd, (v - 1) // 2, 0)
            composite = (bits[i >> 3] >> (7 - (i & 7))) & 1
            ok &= np.where(odd, composite == 0, v == 2)
        total += int(np.count_nonzero(ok))
    return total


def check_tuple(report: dict, expected_report: dict, independent_count: int) -> list[str]:
    problems = compare(expected_report, report, "tuples")
    if report.get("count") != independent_count:
        problems.append(
            f"count {report.get('count')} != independent count {independent_count}")
    return problems


# ----------------------------------------------------------------------
# seeded (delta, epsilon) sweep
# ----------------------------------------------------------------------

def _trial_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _lambda(fs, gs, hs) -> float:
    p = fs.size
    minus_2t = (-2 * np.arange(p, dtype=np.int64)) % p
    return float(np.sum(fs * gs[minus_2t] * hs).real)


def _bohr_members(p: int, freqs, eps: Fraction) -> np.ndarray:
    """Exact Bohr set by filtering a shrinking candidate array."""
    cand = np.arange(p, dtype=np.int64)
    for x in freqs:
        t = (cand * int(x)) % p
        cand = cand[np.minimum(t, p - t) * eps.denominator <= eps.numerator * p]
    return cand


def sweep_oracle(members, n: int, deltas, epsilons) -> list[dict]:
    """Rows of ``delta-sweep`` recomputed independently with numpy's own FFT.

    Follows the documented construction: z = ln(N)/4, W the product of 2 and
    the odd primes <= z, P the least prime above 3N/W, b the densest class
    coprime to W among members above W (smallest b on ties), a = (ln N/ln z)
    times the indicator of A0 = {(m-b)/W} on Z/PZ.
    """
    members = np.unique(np.asarray(members, dtype=np.int64))
    z = 0.25 * math.log(n)
    w = 2
    for q in range(3, math.floor(z) + 1):
        if _trial_prime(q):
            w *= q
    p = 3 * n // w + 1
    while not _trial_prime(p):
        p += 1
    big = members[members > w]
    counts = np.bincount(big % w, minlength=w)
    coprime = np.array([math.gcd(b, w) == 1 for b in range(w)])
    b = int(np.argmax(np.where(coprime, counts, -1)))
    a0 = (big[big % w == b] - b) // w
    values = np.zeros(p)
    values[a0] = math.log(n) / math.log(z)
    a_hat = np.fft.ifft(values)  # (1/P) sum_x a(x) e^{+2 pi i x t / P}
    magnitudes = np.abs(a_hat)
    lam_a = _lambda(a_hat, a_hat, a_hat)

    rows = []
    for delta_s, eps_s in sorted(((d, e) for d in deltas for e in epsilons),
                                 key=lambda de: (Fraction(de[0]), Fraction(de[1]))):
        delta, eps = float(Fraction(delta_s)), float(Fraction(eps_s))
        raw = np.flatnonzero(magnitudes >= delta)
        freqs = np.union1d(raw, [1])
        bohr = _bohr_members(p, freqs, Fraction(eps_s))
        if bohr.size == 1:
            lam_h = lam_a
        else:
            sigma = np.zeros(p)
            sigma[bohr] = p / bohr.size
            h_hat = a_hat * np.fft.ifft(sigma)
            lam_h = _lambda(h_hat, h_hat, h_hat)
        gap = abs(lam_a - lam_h)
        bound = eps + delta ** 0.6
        rows.append({
            "n": n,
            "delta": _cell(delta_s),
            "epsilon": _cell(eps_s),
            "raw_spectrum_size": int(raw.size),
            "r_size": int(freqs.size),
            "bohr_size": int(bohr.size),
            "bohr_measure": bohr.size / p,
            "lambda_aaa": lam_a,
            "lambda_hhh": lam_h,
            "delta_gap": gap,
            "smoothing_bound": bound,
            "gap_over_bound": gap / bound,
            "eps_delta_ok": delta ** -4 * abs(math.log(eps)) <= 0.5 * math.log(n),
            "zero_lambda": abs(lam_h) < 1e-15,
        })
    return rows
