"""End-to-end experiment pipeline: sieve, lift, transform, smooth, compare.

A run is deterministic: canonical JSON output (sorted keys, two-space
indent), fixed CSV column order, and the thread-count hint never changes
any emitted byte.

Values computed from integers or by fixed-order reductions are identical
on every numpy build: lambda(a, a, a), its d = 0 part and sum |ahat|^4
come from exact integer counts of A0 (threeap.additive_counts), and every
mean and L^k norm is a cyclic.fixed_sum with integer powers by repeated
multiplication. With B = {0}, h is a, and every report value is a fixed
function of integers and IEEE operations in a fixed order. Two things
still carry the transform's rounding: values derived from h when |B| > 1,
and threshold membership for a coefficient within rounding of delta.
math.log and pow come from the platform's libm and are outside this
guarantee.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bounds as bd
from .bohr import build_bohr_set, smooth
# lp_norm stays importable here because perfbench/spans.py wraps pipeline.lp_norm.
from .cyclic import lp_norm, spectral_lp_norm, threshold_spectrum  # noqa: F401
from .errors import InvalidArgumentError, InvariantError, ResourceLimitError
from .primes import sieve_primes
from .sieve_bounds import convolution_norm_bound, moment_index_in_range
from .threeap import additive_counts, lambda_fourier
from .wtrick import build_context, build_sieved_function

REPORT_SCHEMA = "ap3lab-report/1"
DEFAULT_FFT_BUDGET = 1 << 23

# Agreement required between an exact count and its transform evaluation;
# the transform's relative error measured about 2e-15 up to P = 5000011.
_SPECTRAL_CHECK_REL_TOL = 1e-9

PIPELINE_CSV_COLUMNS = [
    "n", "z", "w", "phi_w", "b", "p", "set_size", "a0_size", "alpha", "scale",
    "a_l1", "ahat_l4_pow4", "raw_spectrum_size", "r_size", "delta", "epsilon",
    "bohr_size", "bohr_measure", "pigeonhole_margin", "lambda_aaa",
    "lambda_aaa_trivial", "lambda_aaa_nontrivial", "lambda_hhh", "delta_gap",
    "smoothing_bound", "trivial_term", "h_l1", "h_sup", "mass_ok",
    "eps_delta_lhs", "eps_delta_slack", "eps_delta_ok", "alpha_threshold_ok",
    "exploratory", "k", "in_theory_range", "h_norm_2k", "norm_bound",
    "norm_ratio", "level_size", "level_mu", "level_bound", "level_margin",
    "floor_rhs", "final_lhs", "final_ratio", "sanders_at_level_mu",
    "suggested_epsilon", "suggested_delta",
]

NORM_SWEEP_CSV_COLUMNS = [
    "n", "delta", "epsilon", "k", "in_theory_range", "h_norm_2k",
    "norm_bound", "norm_ratio", "level_size", "level_mu", "level_margin",
    "floor_rhs", "final_lhs", "final_ratio",
]

DELTA_SWEEP_CSV_COLUMNS = [
    "n", "delta", "epsilon", "raw_spectrum_size", "r_size", "bohr_size",
    "bohr_measure", "lambda_aaa", "lambda_hhh", "delta_gap",
    "smoothing_bound", "gap_over_bound", "eps_delta_ok", "zero_lambda",
]


@dataclass
class PipelineConfig:
    """One grid point of the experiment, plus sweep grids and the explicit
    stand-ins for every unnamed absolute constant (all default 1)."""

    n: int
    set_source: str = "all-primes"
    z_override: float | None = None
    delta: str = "0.05"
    epsilon: str = "0.1"
    k_values: tuple[int, ...] = ()
    c4: float = 1.0
    c_sanders: float = 1.0
    c1: float = 1.0
    eta: float = 1.0
    k_grid: tuple[int, ...] = ()
    delta_grid: tuple[str, ...] = ()
    epsilon_grid: tuple[str, ...] = ()
    threads: int = 1
    force: bool = False
    fft_budget: int = DEFAULT_FFT_BUDGET

    def __post_init__(self):
        for name in ("delta", "epsilon"):
            value = Fraction(getattr(self, name))
            if not 0 < value < Fraction(1, 2):
                raise InvalidArgumentError(f"{name} must lie in (0, 1/2), got {value}")
        for name in ("c4", "c_sanders", "c1", "eta"):
            if getattr(self, name) <= 0:
                raise InvalidArgumentError(f"constant {name} must be positive")
        if any(k < 1 for k in self.k_values):
            raise InvalidArgumentError("k values must be >= 1")
        if self.threads < 1:
            raise InvalidArgumentError("thread count must be >= 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise InvalidArgumentError(f"unknown config keys: {sorted(unknown)}")
        coerced = dict(raw)
        for name in ("delta", "epsilon"):
            if name in coerced:
                coerced[name] = str(coerced[name])
        for name in ("k_values", "k_grid"):
            if name in coerced:
                coerced[name] = tuple(int(v) for v in coerced[name])
        for name in ("delta_grid", "epsilon_grid"):
            if name in coerced:
                coerced[name] = tuple(str(v) for v in coerced[name])
        return cls(**coerced)

    def echo(self) -> dict:
        """Experiment-defining fields only: execution hints (threads) are
        excluded so reports stay byte-identical across thread counts."""
        return {
            "n": self.n,
            "set_source": self.set_source,
            "z_override": self.z_override,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "k_values": list(self.k_values),
            "constants": {
                "c4": self.c4,
                "c_sanders": self.c_sanders,
                "c1": self.c1,
                "eta": self.eta,
            },
            "force": self.force,
        }


@dataclass
class ExperimentReport:
    """Nested report structure; `data` is exactly what lands in the JSON."""

    data: dict = field(repr=False)

    def to_json(self) -> str:
        return canonical_json(self.data)

    def csv_rows(self) -> tuple[list[str], list[list]]:
        shared = {**self.data["wtrick"], **self.data["spectrum"],
                  **self.data["bohr"], **self.data["lambda"],
                  **self.data["flags"]}
        shared["n"] = self.data["config"]["n"]
        shared["delta"] = self.data["config"]["delta"]
        shared["epsilon"] = self.data["config"]["epsilon"]
        rows = []
        for entry in self.data["norm_table"]:
            record = {**shared, **entry}
            rows.append([_csv_cell(record.get(col)) for col in PIPELINE_CSV_COLUMNS])
        return PIPELINE_CSV_COLUMNS, rows


def load_member_file(path) -> np.ndarray:
    """One integer per line, blank lines ignored."""
    values = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            values.append(int(line))
    if not values:
        raise InvalidArgumentError(f"set file {path} is empty")
    return np.asarray(sorted(set(values)), dtype=np.int64)


def _resolve_members(config: PipelineConfig, table) -> np.ndarray:
    if config.set_source == "all-primes":
        return table.primes()
    return load_member_file(config.set_source)


def run_pipeline(config: PipelineConfig) -> ExperimentReport:
    """Full run: W-trick lift, spectrum, Bohr smoothing, progression
    operators, norm table, level sets, and the final-inequality ledger."""
    table = sieve_primes(config.n)
    members = _resolve_members(config, table)

    ctx, params = build_context(members, config.n, config.z_override)
    if ctx.p > config.fft_budget:
        raise ResourceLimitError(
            f"P = {ctx.p} exceeds the FFT budget {config.fft_budget}"
        )
    sieved = build_sieved_function(members, ctx, prime_table=table)
    a = sieved.function

    delta_f = float(Fraction(config.delta))
    epsilon_f = float(Fraction(config.epsilon))

    lam_a, lam_a_trivial, l4_pow4 = _counted_moments(a, ctx)
    spec_a = a.spectrum()
    r_set = threshold_spectrum(spec_a, delta_f)
    raw_size = int(np.count_nonzero(np.abs(spec_a.coefficients) >= delta_f))

    bohr = build_bohr_set(ctx.p, r_set.tolist(), config.epsilon)
    h = smooth(a, bohr)

    lam_h_fourier = lambda_fourier(h, h, h)
    # B = {0} leaves h the very object a: its operator is the exact count
    lam_h = lam_a if h is a else lam_h_fourier
    delta_gap = abs(lam_a - lam_h)
    smoothing_bound = epsilon_f + delta_f ** 0.6
    trivial_term = (math.log(config.n) / math.log(ctx.z)) ** 2 / ctx.p
    final_lhs = trivial_term + smoothing_bound

    h_l1 = h.mean()
    h_sup = h.sup_norm()
    constraint = bd.epsilon_delta_constraint(delta_f, epsilon_f, config.n, config.c4)

    k_values = tuple(config.k_values) or (bd.choose_k(config.n),)
    norm_table = []
    exploratory = False
    for k in k_values:
        in_range = moment_index_in_range(k, ctx.z)
        exploratory = exploratory or not in_range
        norm_bound = convolution_norm_bound(k, config.n, ctx.z, bohr.size, force=True)
        _, level = bd.level_set_extract(h, h_l1, 2 * k)
        h2k = level.c_norm  # lp_norm(h, 2k), computed once inside the extraction
        floor_rhs = _progression_floor(sieved.alpha, k, config.c1)
        sanders_val = (
            bd.sanders_lower_bound(level.mu, config.c_sanders)
            if 0 < level.mu < 1
            else (1.0 if level.mu >= 1 else None)
        )
        suggested_epsilon = config.eta * floor_rhs
        norm_table.append({
            "k": k,
            "in_theory_range": in_range,
            "h_norm_2k": h2k,
            "norm_bound": norm_bound,
            "norm_ratio": h2k / norm_bound,
            "level_size": level.size,
            "level_mu": level.mu,
            "level_bound": level.holder_bound,
            "level_margin": level.margin,
            "floor_rhs": floor_rhs,
            "final_lhs": final_lhs,
            "final_ratio": final_lhs / floor_rhs if floor_rhs > 0 else None,
            "sanders_at_level_mu": sanders_val,
            "suggested_epsilon": suggested_epsilon,
            "suggested_delta": suggested_epsilon ** (5.0 / 3.0),
        })

    data = {
        "schema": REPORT_SCHEMA,
        "config": config.echo(),
        "wtrick": {
            "n": config.n,
            "z": ctx.z,
            "w": ctx.w,
            "phi_w": ctx.phi_w,
            "b": ctx.b,
            "p": ctx.p,
            "scale": ctx.scale,
            "set_size": int(members.size),
            "a0_size": int(ctx.a0.size),
            "alpha": sieved.alpha,
            "a_l1": sieved.l1_norm,
            "log_w_in_band": params.log_w_in_band,
            "ratio_in_band": params.ratio_in_band,
            "wphi_gamma_ratio": bd.wphi_gamma_diagnostic(ctx.w, ctx.phi_w, ctx.z),
        },
        "spectrum": {
            "ahat_l4_pow4": l4_pow4,
            "raw_spectrum_size": raw_size,
            "markov_bound": l4_pow4 / delta_f**4,
            "r_size": int(r_set.size),
        },
        "bohr": {
            "bohr_size": bohr.size,
            "bohr_measure": bohr.measure,
            "pigeonhole_margin": bohr.size - ctx.p * epsilon_f ** len(bohr.frequencies),
        },
        "lambda": {
            "lambda_aaa": lam_a,
            "lambda_aaa_trivial": lam_a_trivial,
            "lambda_aaa_nontrivial": lam_a - lam_a_trivial,
            "lambda_hhh": lam_h,
            "delta_gap": delta_gap,
            "smoothing_bound": smoothing_bound,
            "trivial_term": trivial_term,
            "h_l1": h_l1,
            "h_sup": h_sup,
        },
        "norm_table": norm_table,
        "level_set": {
            "alpha": h_l1,
            "size": norm_table[0]["level_size"],
            "mu": norm_table[0]["level_mu"],
            "margin": norm_table[0]["level_margin"],
        },
        "flags": {
            "mass_ok": sieved.mass_ok,
            "alpha_threshold_ok": sieved.alpha >= math.log(config.n) ** -0.25,
            "eps_delta_lhs": constraint.lhs,
            "eps_delta_rhs": constraint.rhs,
            "eps_delta_slack": constraint.slack,
            "eps_delta_ok": constraint.satisfied,
            "exploratory": exploratory,
            "chosen_k": bd.choose_k(config.n),
        },
        "density_table": bd.density_bound_table(config.n),
    }
    return ExperimentReport(data=_plain(data))


def _counted_moments(a, ctx) -> tuple[float, float, float]:
    """lambda(a, a, a), its d = 0 part and sum_t |ahat(t)|^4 for
    a = scale * 1_{A0}, from the exact integer counts of A0.

    Each value is a product of the scale with an integer over a power of P,
    so it does not depend on how the transforms round. The operator and the
    4-norm are cross-checked against their spectral evaluations.
    """
    counts = additive_counts(ctx.a0)
    p, scale = ctx.p, ctx.scale
    scale3 = scale * scale * scale
    lam = scale3 * counts.pairs / (p * p)
    lam_trivial = scale3 * int(ctx.a0.size) / (p * p)
    l4_pow4 = scale3 * scale * counts.energy / (p * p * p)
    for name, exact, spectral in (
        ("lambda(a, a, a)", lam, lambda_fourier(a, a, a)),
        ("sum |ahat|^4", l4_pow4, spectral_lp_norm(a.spectrum(), 4) ** 4),
    ):
        if not math.isclose(exact, spectral, rel_tol=_SPECTRAL_CHECK_REL_TOL):
            raise InvariantError(
                f"{name}: exact count gives {exact!r}, transform gives {spectral!r}"
            )
    return lam, lam_trivial, l4_pow4


def _progression_floor(alpha: float, k: int, c1: float) -> float:
    """Progression floor, extended by continuity to the dense endpoint alpha = 1
    (all-primes runs have alpha exactly 1, where the exponent vanishes)."""
    if alpha >= 1:
        return 1.0
    return bd.smoothed_progression_floor(alpha, k, c1)


def norm_sweep(config: PipelineConfig) -> tuple[list[str], list[list]]:
    """One pipeline run, one CSV row per k in the k grid."""
    grid = tuple(config.k_grid) or tuple(config.k_values) or (1, 2, 3)
    run_config = _with(config, k_values=tuple(sorted(grid)))
    report = run_pipeline(run_config)
    rows = []
    for entry in report.data["norm_table"]:
        record = {
            "n": config.n,
            "delta": config.delta,
            "epsilon": config.epsilon,
            **entry,
        }
        rows.append([_csv_cell(record.get(col)) for col in NORM_SWEEP_CSV_COLUMNS])
    return NORM_SWEEP_CSV_COLUMNS, rows


def delta_sweep(config: PipelineConfig) -> tuple[list[str], list[list]]:
    """Rows over the (delta, epsilon) grid in ascending lexicographic order.

    The sieved function and its spectrum are shared across grid points; the
    threshold set, Bohr set, and smoothing are rebuilt per point.
    """
    deltas = config.delta_grid or (config.delta,)
    epsilons = config.epsilon_grid or (config.epsilon,)
    points = sorted(
        ((Fraction(d), d, Fraction(e), e) for d in deltas for e in epsilons)
    )

    table = sieve_primes(config.n)
    members = _resolve_members(config, table)
    ctx, _ = build_context(members, config.n, config.z_override)
    if ctx.p > config.fft_budget:
        raise ResourceLimitError(
            f"P = {ctx.p} exceeds the FFT budget {config.fft_budget}"
        )
    sieved = build_sieved_function(members, ctx, prime_table=table)
    a = sieved.function
    lam_a, _, _ = _counted_moments(a, ctx)
    spec_a = a.spectrum()

    rows = []
    for _, delta_str, _, eps_str in points:
        delta_f = float(Fraction(delta_str))
        eps_f = float(Fraction(eps_str))
        r_set = threshold_spectrum(spec_a, delta_f)
        raw_size = int(np.count_nonzero(np.abs(spec_a.coefficients) >= delta_f))
        bohr = build_bohr_set(ctx.p, r_set.tolist(), eps_str)
        h = smooth(a, bohr)
        lam_h = lam_a if h is a else lambda_fourier(h, h, h)
        gap = abs(lam_a - lam_h)
        smoothing_bound = eps_f + delta_f ** 0.6
        constraint = bd.epsilon_delta_constraint(delta_f, eps_f, config.n, config.c4)
        record = {
            "n": config.n,
            "delta": delta_str,
            "epsilon": eps_str,
            "raw_spectrum_size": raw_size,
            "r_size": int(r_set.size),
            "bohr_size": bohr.size,
            "bohr_measure": bohr.measure,
            "lambda_aaa": lam_a,
            "lambda_hhh": lam_h,
            "delta_gap": gap,
            "smoothing_bound": smoothing_bound,
            "gap_over_bound": gap / smoothing_bound,
            "eps_delta_ok": constraint.satisfied,
            "zero_lambda": abs(lam_h) < 1e-15,
        }
        rows.append([_csv_cell(record.get(col)) for col in DELTA_SWEEP_CSV_COLUMNS])
    return DELTA_SWEEP_CSV_COLUMNS, rows


def _with(config: PipelineConfig, **overrides) -> PipelineConfig:
    raw = {name: getattr(config, name) for name in config.__dataclass_fields__}
    raw.update(overrides)
    return PipelineConfig(**raw)


# ----------------------------------------------------------------------
# canonical serialization
# ----------------------------------------------------------------------

def _plain(obj):
    """Convert numpy scalars/arrays and tuples into JSON-stable builtins."""
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(value) for value in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def canonical_json(data) -> str:
    return json.dumps(_plain(data), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """RFC-4180 output: fixed documented header row, minimal quoting, CRLF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        writer.writerows(rows)


def write_report(report: ExperimentReport, json_path) -> tuple[Path, Path]:
    """JSON at the given path, CSV alongside with the same stem."""
    json_path = Path(json_path)
    json_path.write_text(report.to_json(), encoding="utf-8")
    csv_path = json_path.with_suffix(".csv")
    header, rows = report.csv_rows()
    write_csv(csv_path, header, rows)
    return json_path, csv_path
