"""Command-line front end.

wtrick, pipeline and delta-sweep read --config, a JSON object
of pipeline fields under the command line. Every command refuses a P past
the fixed FFT budget 2^23 before it allocates or reads P values.

Exit codes: 0 success, 1 invalid arguments, 2 precondition or constraint
violation, 3 resource limit (a refused size, or memory that could not be
allocated).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bd
from .bohr import build_bohr_set
from .cyclic import (ScaledIndicator, check_fft_budget, check_residues, forward_transform,
                     load_function, save_spectrum)
from .errors import InvalidArgumentError, LabError, ResourceLimitError
from .pipeline import (
    PipelineConfig,
    canonical_json,
    delta_sweep,
    lift,
    load_member_file,
    run_pipeline,
    write_csv,
    write_report,
)
from .primes import sieve_primes
from .sieve_bounds import (
    DEFAULT_SERIES_CUTOFF,
    TupleSpec,
    count_prime_tuples,
    hypothesis_flags,
    klimov_upper_bound,
    singular_series,
)
from .threeap import additive_counts, lambda_fourier


class _CliArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _CliArgumentError(message)


def _nonempty(text: str) -> str:
    """An option value that must not be empty; argparse names the option."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _integer(text: str) -> int:
    """One integer; argparse names the option of a malformed one."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None


def _decimal(text: str) -> str:
    """A nonempty decimal or fraction string, kept as written for the exact
    parse downstream; argparse names the option of a malformed one."""
    try:
        Fraction(_nonempty(text))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a decimal or fraction") from None
    return text


def _listed(parse):
    """The argparse type of a nonempty comma-separated list, each value
    read by parse (_integer or _decimal)."""

    def read(text: str) -> list:
        values = _nonempty(text).split(",")
        if "" in values:
            raise argparse.ArgumentTypeError(f"{text!r} holds an empty value")
        return [parse(value) for value in values]

    return read


def _build_parser() -> _Parser:
    parser = _Parser(prog="ap3lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # parent parsers: the options shared by the commands that run the lift
    lift = _Parser(add_help=False)
    lift.add_argument("--config", type=_nonempty, help="JSON config file of pipeline fields")
    lift.add_argument("--n", type=int)
    lift.add_argument("--z", dest="z_override", type=float)
    lift.add_argument("--set", dest="set_source", type=_nonempty)
    point = _Parser(add_help=False, parents=[lift])
    point.add_argument("--delta", type=_decimal)
    point.add_argument("--eps", dest="epsilon", type=_decimal)

    p = sub.add_parser("primes", help="write primes up to a limit, one per line")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("transform", help="spectrum of a serialized function")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("wtrick", parents=[lift], help="sieving construction report")
    p.add_argument("--out", required=True)

    p = sub.add_parser("bohr", help="Bohr set size and members")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--freqs", type=_listed(_integer), required=True,
                   help="comma-separated frequencies")
    p.add_argument("--eps", type=_decimal, required=True, help="radius as a decimal string")
    p.add_argument("--members", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("lambda", help="three-term progression operator of a set of residues")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--set", dest="set_file", type=_nonempty, required=True)
    p.add_argument("--direct", action="store_true",
                   help="add the operator from the exact pair count to the spectral one")
    p.add_argument("--out")

    p = sub.add_parser("tuples", help="prime tuple count against its sieve bound")
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--offsets", type=_listed(_integer), required=True,
                   help="comma-separated offsets")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--series-cutoff", type=int, default=DEFAULT_SERIES_CUTOFF)
    p.add_argument("--out")

    p = sub.add_parser("pipeline", parents=[point], help="full experiment; JSON plus CSV")
    p.add_argument("--k", dest="k_values", type=_listed(_integer), help="comma-separated k values")
    p.add_argument("--out", required=True)

    p = sub.add_parser("delta-sweep", parents=[point], help="rows over a (delta, epsilon) grid")
    p.add_argument("--delta-grid", type=_listed(_decimal))
    p.add_argument("--eps-grid", dest="epsilon_grid", type=_listed(_decimal))
    p.add_argument("--out", required=True)

    p = sub.add_parser("bounds", help="density bound comparison table")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--out")

    return parser


def _read_config(args) -> dict:
    if args.config is None:
        return {}
    raw = json.loads(Path(args.config).read_text())
    if not isinstance(raw, dict):
        raise InvalidArgumentError(f"config file {args.config} must hold a JSON object")
    return raw


def _pipeline_config(args) -> PipelineConfig:
    """The config file with every option given on the command line merged
    over it: each lift option's dest is the config key it sets."""
    raw = _read_config(args)
    raw.update((key, value) for key, value in vars(args).items()
               if key in PipelineConfig.__dataclass_fields__ and value is not None)
    if "n" not in raw:
        raise InvalidArgumentError("--n (or a config file with n) is required")
    return PipelineConfig.from_dict(raw)


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_primes(args) -> int:
    table = sieve_primes(args.limit)
    sink = open(args.out, "w", encoding="utf-8") if args.out is not None else sys.stdout
    try:
        for block in table.iter_blocks():
            sink.write("\n".join(str(int(p)) for p in block.tolist()))
            sink.write("\n")
    finally:
        if args.out is not None:
            sink.close()
    return 0


def _cmd_transform(args) -> int:
    function = load_function(args.infile)  # refuses P past the budget from the header
    save_spectrum(forward_transform(function), args.out)
    return 0


def _cmd_wtrick(args) -> int:
    config = _pipeline_config(args)
    ctx, _ = lift(config)
    report = {
        "n": config.n,
        "z": ctx.z,
        "w": ctx.w,
        "phi_w": ctx.phi_w,
        "b": ctx.b,
        "p": ctx.p,
        "set_size": ctx.set_size,
        "a0_size": int(ctx.a0.size),
        "alpha": ctx.alpha,
        "l1_norm": ctx.l1_norm,
        "bounds_hold": {
            "log_w_in_band": ctx.log_w_in_band,
            "ratio_in_band": ctx.ratio_in_band,
            "mass_ok": ctx.mass_ok,
            "alpha_threshold_ok": ctx.alpha_threshold_ok,
        },
    }
    _emit(canonical_json(report), args.out)
    return 0


def _cmd_bohr(args) -> int:
    check_fft_budget(args.p)
    bohr = build_bohr_set(args.p, args.freqs, args.eps)
    report = {
        "p": args.p,
        "frequencies": list(bohr.frequencies),
        "epsilon": str(bohr.radius),
        "size": bohr.size,
        "measure": bohr.measure,
    }
    if args.members:
        report["members"] = bohr.members().tolist()
    _emit(canonical_json(report), args.out)
    return 0


def _cmd_lambda(args) -> int:
    check_fft_budget(args.p)
    # load_member_file sorts and dedupes, so only the range can fail
    members = check_residues(load_member_file(args.set_file), args.p,
                             f"the members of {args.set_file}")
    p2 = args.p * args.p
    a = ScaledIndicator(args.p, members, 1.0)
    lam, triv = lambda_fourier(a, a, a), members.size / p2  # d = 0: |S|/P^2
    report: dict = {
        "p": args.p,
        "set_size": int(members.size),
        "fourier": {"lambda": lam, "trivial": triv, "nontrivial": lam - triv},
    }
    if args.direct:
        pairs = additive_counts(members, args.p).pairs  # P^2 * lambda, exactly
        exact = pairs / p2
        report["direct"] = {
            "lambda": exact, "trivial": triv, "nontrivial": exact - triv, "pair_count": pairs,
        }
    _emit(canonical_json(report), args.out)
    return 0


def _cmd_tuples(args) -> int:
    spec = TupleSpec(w=args.w, offsets=tuple(args.offsets))
    count = count_prime_tuples(spec, args.limit)
    series = singular_series(spec, args.series_cutoff)
    report = {
        "w": spec.w,
        "offsets": list(spec.offsets),
        "limit": args.limit,
        "count": count,
        "singular_series": series.value,
        "tail_estimate": series.tail_estimate,
        "hypotheses": hypothesis_flags(spec, args.limit),
    }
    if spec.k >= 2:
        bound = klimov_upper_bound(spec, args.limit, series)
        report["klimov_bound"] = bound
        report["ratio"] = count / bound
    else:
        report["klimov_bound"] = None
        report["ratio"] = None
    _emit(canonical_json(report), args.out)
    return 0


def _cmd_pipeline(args) -> int:
    report = run_pipeline(_pipeline_config(args))
    write_report(report, args.out)
    return 0


def _cmd_delta_sweep(args) -> int:
    header, rows = delta_sweep(_pipeline_config(args))
    write_csv(args.out, header, rows)
    return 0


def _cmd_bounds(args) -> int:
    report = {"n": args.n, "table": bd.density_bound_table(args.n)}
    _emit(canonical_json(report), args.out)
    return 0


_COMMANDS = {
    "primes": _cmd_primes,
    "transform": _cmd_transform,
    "wtrick": _cmd_wtrick,
    "bohr": _cmd_bohr,
    "lambda": _cmd_lambda,
    "tuples": _cmd_tuples,
    "pipeline": _cmd_pipeline,
    "delta-sweep": _cmd_delta_sweep,
    "bounds": _cmd_bounds,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _CliArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return ResourceLimitError.exit_code
    except OverflowError as exc:
        print(f"error: overflow: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
