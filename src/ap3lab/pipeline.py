"""End-to-end experiment pipeline: sieve, lift, transform, smooth, compare.

Every entry point starts from one W-trick lift stage, `lift`, which
returns (ctx, a): the frozen wtrick.WTrickContext, which holds every lift
fact a report reads, and a. A run is deterministic: canonical JSON
(sorted keys, two-space indent), fixed CSV column order.

a = scale * 1_{A0} is held as its support A0 and the scale
(cyclic.ScaledIndicator), from the lift to the one forward transform of a,
which scatters the chirped scale at A0's offsets; no length-P array of a
is built, and after the lift only the size of the input set is kept.

Values computed from integers or by fixed-order reductions are identical
on every numpy build: lambda(a, a, a), its d = 0 part and sum |ahat|^4
come from exact integer counts of A0 (threeap.additive_counts), taken
after ahat (that order peaked about 1.3 MB lower at N = 1e7). h is
(scale/|B|) times bohr.smooth's exact integer count g (with B = {0}, g is
the indicator of A0), and h is never built: _smoothed_statistics reads
h_sup, the level set and every 2k-norm off one histogram of g by exact
integer sums, and h_l1 is the lift's a_l1 = scale * |A0| / P. So every
value derived from h is a fixed function of integers and the scale, by
IEEE operations in a fixed order. Two things still carry the transform's
rounding: lambda_hhh, evaluated on ahat * sigmahat (the rounding of ahat's
transform and of sigmahat's sines or transform), and threshold membership
for a coefficient within rounding of delta. math.log and pow come from the
platform's libm and are outside this guarantee.

Around the one forward transform of a, each pass does only the work its
output needs: the Bohr scan forms the survivors of its least nonzero
frequency directly; sigmahat of a B that is a progression {j*d : |j| <= m}
(nearly every B the grid builds, |B| = 15 with d = 5005 at N = 1e7) is
the Dirichlet kernel in closed form, and of any other B the real part of
one transform of the indicator of B & (0, P/2), whose window is at most
half as long as sigma's, so sigmahat is a float64 half either way; every
exact sum count (A0 + A0, and smooth's S + B) is formed, rounded and
checked by one helper, cyclic._sum_counts, which convolves over the
first indicator's own buffer at the least even 5-smooth length S by one
complex FFT of length S/2 and its inverse; and lambda multiplies out
only t <= P/2 of its spectra.

Every spectrum (ahat, sigmahat, hhat) is that of a real function and holds
only its P//2 + 1 coefficients t <= P/2 (cyclic.Spectrum); the threshold,
the products and lambda read that half, and a sum over all P frequencies
mirrors it in fixed_sum's order without building the upper half.

Both entry points take every value at a grid point from one front end,
_grid: the lift, a's exact moments, the thresholds, the Bohr scans and
_point_record, the one owner of sigmahat (bohr.kernel_spectrum) and of
lambda_hhh. Three stages split their work between two threads once
their arrays reach 2^20 values (cyclic._THREAD_FLOOR, so at N = 1e7 but
not at N <= 1e6): the chirps and the row-column FFT passes of each
forward transform (ahat, and sigmahat of a set that is not a
progression), the FFT passes and combining pass of the integer
convolutions (the exact counts, and smooth's count of a Bohr set past
255 members), and the closed-form sigmahat of a progression; the exact
counts' rounding and energy passes share their blocks out the same way.
Each value is formed by the same numpy calls in the same order on
either thread, so no report bit depends on the split. The level set
{h >= h_l1/2} does not depend on k, so the one histogram of g serves
every k.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import numpy as np

from . import bounds as bd
from . import cyclic
from .bohr import (
    as_radius,
    build_bohr_set,
    kernel_spectrum,
    smooth,
    spectrum_needs_transform,
)
from .cyclic import ScaledIndicator, _share_out, check_fft_budget, threshold_spectrum
from .errors import InvalidArgumentError, InvariantError
from .primes import sieve_primes
from .sieve_bounds import convolution_norm_bound, moment_index_in_range
from .threeap import additive_counts, lambda_fourier, lambda_of_spectra
from .wtrick import WTrickContext, build_context, build_sieved_function, compute_parameters

# lp_norm and spectral_lp_norm stay importable here because perfbench/spans.py
# wraps pipeline.lp_norm and pipeline.spectral_lp_norm.
from .cyclic import lp_norm, spectral_lp_norm  # noqa: F401

REPORT_SCHEMA = "ap3lab-report/1"

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

DELTA_SWEEP_CSV_COLUMNS = [
    "n", "delta", "epsilon", "raw_spectrum_size", "r_size", "bohr_size",
    "bohr_measure", "lambda_aaa", "lambda_hhh", "delta_gap",
    "smoothing_bound", "gap_over_bound", "eps_delta_ok", "zero_lambda",
]


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fraction(name: str, value) -> Fraction:
    """value as an exact Fraction; a malformed one names its field."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidArgumentError(
            f"{name} must be a decimal or fraction string, got {value!r}"
        ) from None


def _reject_repeats(name: str, values) -> None:
    seen = set()
    for value in values:
        if value in seen:
            raise InvalidArgumentError(f"{name} repeats the value {value}")
        seen.add(value)


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
    delta_grid: tuple[str, ...] = ()
    epsilon_grid: tuple[str, ...] = ()

    def __post_init__(self):
        if not _is_integer(self.n):
            raise InvalidArgumentError(f"n must be an integer, got {self.n!r}")
        if not isinstance(self.set_source, str) or not self.set_source:
            raise InvalidArgumentError(
                f"set_source must be a nonempty path string, got {self.set_source!r}"
            )
        if self.z_override is not None and not _is_real(self.z_override):
            raise InvalidArgumentError(
                f"z_override must be a real number or null, got {self.z_override!r}"
            )
        for name, values in (
            ("delta", [self.delta]), ("epsilon", [self.epsilon]),
            ("delta_grid", self.delta_grid), ("epsilon_grid", self.epsilon_grid),
        ):
            fractions = [_fraction(name, value) for value in values]
            for value in fractions:
                if not 0 < value < Fraction(1, 2):
                    raise InvalidArgumentError(f"{name} must lie in (0, 1/2), got {value}")
                if float(value) == 0:  # the threshold compares floats
                    raise InvalidArgumentError(f"{name} rounds to 0.0 as a float")
            _reject_repeats(name, fractions)
        for radius in (self.epsilon, *self.epsilon_grid):
            as_radius(radius)  # the Bohr scan's rule, checked before the lift
        for name in ("c4", "c_sanders", "c1", "eta"):
            value = getattr(self, name)
            if not _is_real(value) or not 0 < value < math.inf:
                raise InvalidArgumentError(
                    f"constant {name} must be a positive real number, got {value!r}"
                )
        if not all(_is_integer(k) and k >= 1 for k in self.k_values):
            raise InvalidArgumentError("k_values must be integers >= 1")
        _reject_repeats("k_values", self.k_values)
        # one canonical order: the level_set section reads the least k's row
        self.k_values = tuple(sorted(self.k_values))

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
        for name in ("k_values", "delta_grid", "epsilon_grid"):
            if name in coerced:
                if not isinstance(coerced[name], (list, tuple)):
                    raise InvalidArgumentError(f"{name} must be a list")
                coerced[name] = tuple(coerced[name])
        for name in ("delta_grid", "epsilon_grid"):
            if name in coerced:
                coerced[name] = tuple(str(v) for v in coerced[name])
        return cls(**coerced)

    def echo(self) -> dict:
        """The fields that define the experiment: the sweep grids are left
        out, since no report value depends on them."""
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
            "force": False,  # a former field that changed no value
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
    """One integer per line, blank lines ignored. A line that is not an
    integer, or a member outside int64, raises InvalidArgumentError."""
    values = []
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if line:
            try:
                values.append(int(line))
            except ValueError:
                raise InvalidArgumentError(
                    f"set file {path}, line {number}: {line!r} is not an integer"
                ) from None
    if not values:
        raise InvalidArgumentError(f"set file {path} is empty")
    members = sorted(set(values))
    for member in (members[0], members[-1]):  # the least and the largest
        if not -(1 << 63) <= member < 1 << 63:
            raise InvalidArgumentError(
                f"set member {member} in {path} does not fit in a 64-bit integer"
            )
    return np.asarray(members, dtype=np.int64)


def lift(config: PipelineConfig) -> tuple[WTrickContext, ScaledIndicator]:
    """The W-trick lift shared by every entry point.

    Picks W and P from (N, z), and refuses P past the FFT budget and a k
    whose 2k-norm would overflow a float, before anything is sieved. Then
    sieves to N, reads the members (all primes up to N, or a set file,
    each member of which must be a prime up to N), and lifts them in one
    pass. Returns (ctx, a): the frozen WTrickContext and
    a = scale * 1_{A0}, the ScaledIndicator over ctx.a0. The members are
    not kept: the report reads their count, ctx.set_size.
    """
    params = compute_parameters(config.n, config.z_override)
    check_fft_budget(params.p)
    # h <= scale = ln N / ln z, so the 2k-norm's sum is at most P * scale^(2k)
    k = max(config.k_values, default=1)
    log_sum = 2 * k * math.log(params.scale) + math.log(params.p)
    if log_sum >= math.log(sys.float_info.max):
        raise InvalidArgumentError(f"k = {k} is too large: the 2k-norm of h would overflow")
    table = sieve_primes(config.n)
    if config.set_source == "all-primes":
        members = table.primes()
    else:
        members = load_member_file(config.set_source)
        outside = members[~table.is_prime_many(members)]
        if outside.size:
            raise InvalidArgumentError(
                f"set member {int(outside[0])} is not a prime in [2, N = {config.n}]"
            )
    # Kept while perfbench is frozen (ROADMAP item 1): perfbench/spans.py
    # wraps both calls below through this module's globals and reads ctx as
    # build_sieved_function's args[1]; its tests count at least |A0| table
    # lookups, which that function's loop makes though every member is
    # checked above; and it wraps wtrick.is_prime and wtrick.sieve_primes
    # by name, so wtrick imports both.
    ctx = build_context(members, table, params)
    return ctx, build_sieved_function(members, ctx, table)


def _grid(config: PipelineConfig, deltas, epsilons) -> tuple:
    """The front end of run_pipeline (one point) and delta_sweep (a grid).
    Returns (ctx, a, moments, [(record, B)]): moments is _counted_moments'
    triple, then each point of deltas x epsilons, in ascending order, as
    its _point_record and its Bohr set B.

    c4 * delta**-4 * |ln eps|, the eps-delta constraint's lhs, is largest
    at the least delta and eps given: an overflow there is refused
    (InvalidArgumentError) before the lift sieves, and no value the run
    does not evaluate is checked. One lift, a's moments and its spectrum
    serve every point; R(delta) is taken once per distinct delta and B
    once per point. R(delta) grows as delta falls, so B(R(delta), eps) lies
    within B(R(delta'), eps') for delta <= delta' and eps <= eps': the sets
    are built from the largest point down, only it is seeded, and each
    other is scanned within the least set built at a larger or equal eps
    for its own delta or the next larger one (build_bohr_set's within).

    When P//2 + 1 < cyclic._THREAD_FLOOR, so that the closed-form sigmahat
    stays on one thread, and with two points or more, the caller and one
    thread share the records (cyclic._share_out): the caller first takes,
    in order, the points whose B kernel_spectrum would transform
    (bohr.spectrum_needs_transform; B = {0} among them, whose record forms
    no sigmahat), then helps the thread with the closed-form rest. So at
    most one forward transform is in flight. That transform still splits
    itself once its length S >= P//2 + L reaches the floor (L the window
    of B & (0, P/2), so for P from about 1.4e6 with L near P/4), and three
    threads then share two cores while it runs. Otherwise the points run
    in turn: past the floor every stage splits itself, and sharing the
    points as well holds two points' sigmahat and hhat at once. On the
    all-primes 3 x 4 grid at N = 1e7 (P = 5000011), 4 in-process runs a
    side on 2 cores, shared points took 1.55-1.76 s (median 1.60) and
    peaked at 329-345 MiB VmHWM, points in turn 1.65-2.32 s (median 1.81)
    at 268-269 MiB: the gate gives up about a tenth of the wall time for
    about 70 MiB. Each record is formed by the same calls on either thread
    and is keyed by point, so no bit depends on the split.
    """
    points = sorted((Fraction(d), d, Fraction(e), e) for d in deltas for e in epsilons)
    delta, epsilon = float(points[0][0]), float(min(point[2] for point in points))
    try:
        lhs = config.c4 * delta**-4 * abs(math.log(epsilon))
    except OverflowError:  # delta**-4 alone
        lhs = math.inf
    if lhs == math.inf:
        raise InvalidArgumentError(f"c4 * delta**-4 * |ln epsilon| overflows a float at "
                                   f"c4 = {config.c4}, delta = {delta}, epsilon = {epsilon}")

    ctx, a = lift(config)
    moments = _counted_moments(a, ctx)
    spec_a = a.spectrum()

    # points are sorted by delta, and the threshold set depends on delta alone
    groups = [
        (list(group), *threshold_spectrum(spec_a, delta_f))
        for delta_f, group in groupby(points, key=lambda point: float(point[0]))
    ]
    # largest point first, so each later set has a superset already built
    scanned = {}  # point -> (R, raw size, B)
    outer = []  # (eps, Bohr set) of the next larger delta
    for group, r_set, raw_size in reversed(groups):
        inner = []
        for point in reversed(group):
            eps, eps_str = point[2:]
            supersets = [bohr for e, bohr in inner + outer if e >= eps]
            within = min(supersets, key=lambda b: b.size).members() if supersets else None
            bohr = build_bohr_set(ctx.p, r_set.tolist(), eps_str, within=within)
            inner.append((eps, bohr))
            scanned[point] = (r_set, raw_size, bohr)
        outer = inner

    records = {}

    def evaluate(point) -> None:
        r_set, raw_size, bohr = scanned[point]
        records[point] = _point_record(config, point[1], point[3], moments[0], spec_a.half,
                                       raw_size, r_set, bohr)

    if len(points) >= 2 and ctx.p // 2 + 1 < cyclic._THREAD_FLOOR:
        transformed, rest = [], []
        for point in points:
            needs_transform = spectrum_needs_transform(scanned[point][2])
            (transformed if needs_transform else rest).append(point)
        _share_out(evaluate, rest, caller_first=transformed)
    else:
        for point in points:
            evaluate(point)
    return ctx, a, moments, [(records[point], scanned[point][2]) for point in points]


def run_pipeline(config: PipelineConfig) -> ExperimentReport:
    """Full run: W-trick lift, spectrum, Bohr smoothing, progression
    operators, norm table, level sets, and the final-inequality ledger."""
    ctx, a, (lam_a, lam_a_trivial, l4_pow4), [(point, bohr)] = _grid(
        config, [config.delta], [config.epsilon])
    g = smooth(ctx.a0, bohr)
    if bohr.size == 1:
        lambda_fourier(a, a, a)  # discarded; perfbench's traced test counts it
    trivial_term = ctx.scale ** 2 / ctx.p
    final_lhs = trivial_term + point["smoothing_bound"]

    k_values = tuple(config.k_values) or (bd.choose_k(config.n),)
    h_l1 = ctx.l1_norm
    h_sup, level_size, norms = _smoothed_statistics(g, bohr.size, ctx.a0.size, ctx.scale, k_values)
    norm_table = []
    exploratory = False
    for k in k_values:
        in_range = moment_index_in_range(k, ctx.z)
        exploratory = exploratory or not in_range
        norm_bound = convolution_norm_bound(k, ctx.scale, bohr.size)
        h2k = norms[k]
        level = bd.holder_report(ctx.p, h_l1, 2 * k, h2k, level_size)
        floor_rhs = _progression_floor(ctx.alpha, k, config.c1)
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
            "set_size": ctx.set_size,
            "a0_size": int(ctx.a0.size),
            "alpha": ctx.alpha,
            "a_l1": ctx.l1_norm,
            "log_w_in_band": ctx.log_w_in_band,
            "ratio_in_band": ctx.ratio_in_band,
            "wphi_gamma_ratio": bd.wphi_gamma_diagnostic(ctx.w, ctx.phi_w, ctx.z),
        },
        "spectrum": {
            "ahat_l4_pow4": l4_pow4,
            "markov_bound": l4_pow4 / float(Fraction(config.delta)) ** 4,
            **_pick(point, "raw_spectrum_size", "r_size"),
        },
        "bohr": _pick(point, "bohr_size", "bohr_measure", "pigeonhole_margin"),
        "lambda": {
            **_pick(point, "lambda_aaa", "lambda_hhh", "delta_gap", "smoothing_bound"),
            "lambda_aaa_trivial": lam_a_trivial,
            "lambda_aaa_nontrivial": lam_a - lam_a_trivial,
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
            "mass_ok": ctx.mass_ok,
            "alpha_threshold_ok": ctx.alpha_threshold_ok,
            **_pick(point, "eps_delta_lhs", "eps_delta_rhs", "eps_delta_slack", "eps_delta_ok"),
            "exploratory": exploratory,
            "chosen_k": bd.choose_k(config.n),
        },
        "density_table": bd.density_bound_table(config.n),
    }
    return ExperimentReport(data=_plain(data))


def _point_record(config, delta: str, epsilon: str, lam_a: float, a_hat: np.ndarray,
                  raw_size: int, r_set: np.ndarray, bohr) -> dict:
    """Every value at one (delta, epsilon) grid point, from lambda_aaa,
    ahat's half, the threshold set R(delta) and its raw size, and
    B = B(R, epsilon). lambda_hhh is taken on hhat = ahat * sigmahat
    (bohr.kernel_spectrum), or is lambda_aaa when B = {0}, where h is a."""
    delta_f, eps_f = float(Fraction(delta)), float(Fraction(epsilon))
    if bohr.size == 1:
        lam_h = lam_a
    else:
        h_hat = a_hat * kernel_spectrum(bohr)
        lam_h = lambda_of_spectra(bohr.modulus, h_hat, h_hat, h_hat)
    gap = abs(lam_a - lam_h)
    smoothing_bound = eps_f + delta_f ** 0.6
    constraint = bd.epsilon_delta_constraint(delta_f, eps_f, config.n, config.c4)
    return {
        "n": config.n,
        "delta": delta,
        "epsilon": epsilon,
        "raw_spectrum_size": raw_size,
        "r_size": int(r_set.size),
        "bohr_size": bohr.size,
        "bohr_measure": bohr.measure,
        "pigeonhole_margin": bohr.size - bohr.modulus * eps_f ** len(bohr.frequencies),
        "lambda_aaa": lam_a,
        "lambda_hhh": lam_h,
        "delta_gap": gap,
        "smoothing_bound": smoothing_bound,
        "gap_over_bound": gap / smoothing_bound,
        "zero_lambda": abs(lam_h) < 1e-15,
        "eps_delta_lhs": constraint.lhs,
        "eps_delta_rhs": constraint.rhs,
        "eps_delta_slack": constraint.slack,
        "eps_delta_ok": constraint.satisfied,
    }


def _smoothed_statistics(g: np.ndarray, size: int, a0_size: int, scale: float,
                         k_values) -> tuple[float, int, dict]:
    """(h_sup, |{h >= h_l1/2}|, {k: ||h||_2k}) of h = (scale/|B|) * g on
    Z/PZ, P = g.size, read off the histogram n_v of smooth's count g: the
    only code that knows how h is made from g. sum g = |A0| * |B| is
    checked (InvariantError), so h_l1 is the lift's a_l1. The level set is
    2P * g >= |A0| * |B|, and ||h||_2k^2k the exact sum_v n_v * v^(2k) over
    |B|^(2k), rounded once with the factor scale^(2k) (by repeated
    multiplication), then over P: nothing overflows for a k the lift takes.
    """
    # bincount casts its input to intp, so g is counted in blocks: each
    # block's histogram has |B| + 1 bins, and a block of at least four
    # times that keeps their sums a small part of the work (one block once
    # |B| nears P)
    block = max(1 << 16, 4 * (size + 1))
    histogram = np.zeros(size + 1, dtype=np.int64)
    for start in range(0, g.size, block):
        histogram += np.bincount(g[start : start + block], minlength=size + 1)
    bins = [(v, int(histogram[v])) for v in np.flatnonzero(histogram).tolist()]
    if sum(v * n for v, n in bins) != a0_size * size:
        raise InvariantError(f"smoothed count does not sum to |A0| * |B| = {a0_size * size}")
    level_size = int(histogram[-(-a0_size * size // (2 * g.size)) :].sum())
    norms = {}
    for k in k_values:
        moment = Fraction(sum(n * v ** (2 * k) for v, n in bins), size ** (2 * k))
        power = math.prod([scale] * (2 * k))  # 1 * scale * ... * scale
        norms[k] = (float(moment * Fraction(power)) / g.size) ** (1.0 / (2 * k))
    return float(bins[-1][0]) * (scale / size), level_size, norms


def _pick(record: dict, *keys: str) -> dict:
    return {key: record[key] for key in keys}


def _counted_moments(a, ctx) -> tuple[float, float, float]:
    """lambda(a, a, a), its d = 0 part and sum_t |ahat(t)|^4 for
    a = scale * 1_{A0}, from the exact integer counts of A0.

    Each value is a product of the scale with an integer over a power of P,
    so it does not depend on how the transforms round. The operator and the
    4-norm are cross-checked against their spectral evaluations; ahat is
    taken first, and its fourth moment is the one the threshold's Markov
    check reads.
    """
    spectrum = a.spectrum()
    counts = additive_counts(ctx.a0, ctx.p)  # A0 lies in [1, P/3], so nothing folds
    p, scale = ctx.p, ctx.scale
    scale3 = scale * scale * scale
    lam = scale3 * counts.pairs / (p * p)
    lam_trivial = scale3 * int(ctx.a0.size) / (p * p)
    l4_pow4 = scale3 * scale * counts.energy / (p * p * p)
    for name, exact, spectral in (
        ("lambda(a, a, a)", lam, lambda_fourier(a, a, a)),
        ("sum |ahat|^4", l4_pow4, spectrum.fourth_moment()),
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


def delta_sweep(config: PipelineConfig) -> tuple[list[str], list[list]]:
    """Rows over the (delta, epsilon) grid in ascending lexicographic order:
    delta_grid (or delta alone) by epsilon_grid (or epsilon alone). Each
    row is a projection of _grid's point record, which run_pipeline reads
    too, so a column the two share is the pipeline's bit for bit; h is
    never built."""
    _, _, _, points = _grid(config, config.delta_grid or [config.delta],
                            config.epsilon_grid or [config.epsilon])
    return DELTA_SWEEP_CSV_COLUMNS, [
        [_csv_cell(record[col]) for col in DELTA_SWEEP_CSV_COLUMNS] for record, _ in points
    ]


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
    """Sorted keys, two-space indent. A non-finite float raises
    InvalidArgumentError that names its key path."""
    plain = _plain(data)
    bad = _non_finite_paths(plain, "")
    if bad:
        raise InvalidArgumentError(f"report value {bad[0].lstrip('.')} is not finite")
    return json.dumps(plain, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _non_finite_paths(obj, path: str) -> list[str]:
    """Key paths (".a.b[2].c") of obj's non-finite floats, in written order."""
    if isinstance(obj, dict):
        return [bad for key in sorted(obj) for bad in _non_finite_paths(obj[key], f"{path}.{key}")]
    if isinstance(obj, list):
        return [bad for i, v in enumerate(obj) for bad in _non_finite_paths(v, f"{path}[{i}]")]
    return [path] if isinstance(obj, float) and not math.isfinite(obj) else []


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
