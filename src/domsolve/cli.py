"""Command-line front end.

Subcommands: ``exact`` (closed-form tables), ``enumerate`` (exhaustive
oracles), ``simulate`` (Monte Carlo estimates), ``diagnose`` (asymptotics,
CLT and bound checks), ``game`` (generate / inspect single games).

Output is CSV by default (JSON with ``--format json``); exact rationals are
rendered both as "p/q" strings and as decimals. Exit codes: 0 success,
2 usage error, 3 capacity error, 4 numerical (LP) failure.

A JSON config file may supply defaults for any long option
(``--config run.json``); explicit command-line flags win. ``--out`` with a
bare filename is placed under ``$DOMSOLVE_OUTPUT_DIR`` when that is set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__, elimination, enumeration, exact, montecarlo
from .exact import CapacityError
from .games import (
    GameClass,
    OrdinalBimatrix,
    Seed,
    UNIFORM,
    apply_crra,
    game_from_json_dict,
    ordinalize,
    rank_along,
    sample_class,
    sample_class_batch,
    sample_nplayer,
)
from .montecarlo import ExperimentSpec, GameSource, HistogramEstimate
from .rationalizability import LPSolveError

EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_NUMERICAL = 4

_CLASSES = {c.value: c for c in GameClass}


# Most values an --n a..b range may name; one row or more is built per value.
N_RANGE_LIMIT = 10**5


def _parse_n_range(text: str) -> list[int]:
    """Either a single integer or an inclusive 'a..b' range of at most
    ``N_RANGE_LIMIT`` values."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        if hi - lo >= N_RANGE_LIMIT:
            raise CapacityError(f"range {text!r} has {hi - lo + 1} values, above the limit of {N_RANGE_LIMIT}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _decimal(value) -> str:
    """The float repr of an exact value where that float is zero or normal;
    otherwise (it would overflow, or lose digits below the normal range) 17
    significant digits in scientific form, from exact integer arithmetic."""
    value = Fraction(value)
    try:
        approx = float(value)
    except OverflowError:
        approx = math.inf
    if value == 0 or sys.float_info.min <= abs(approx) < math.inf:
        return repr(approx)
    digits = 17
    magnitude = abs(value)
    # log10(2) = 0.30103: a first guess, settled by exact comparisons
    bits = magnitude.numerator.bit_length() - magnitude.denominator.bit_length()
    exponent = bits * 30103 // 100000
    while magnitude >= Fraction(10) ** (exponent + 1):
        exponent += 1
    while magnitude < Fraction(10) ** exponent:
        exponent -= 1
    mantissa = round(magnitude / Fraction(10) ** (exponent - digits + 1))
    if mantissa == 10**digits:  # rounding carried into one more digit
        mantissa //= 10
        exponent += 1
    text = str(mantissa)
    sign = "-" if value < 0 else ""
    return f"{sign}{text[0]}.{text[1:]}e{exponent:+03d}"


def _emit(rows: list[dict], args) -> None:
    """Write rows as CSV (default) or JSON to stdout or --out.

    Exact values can have more digits than Python's integer-to-string limit
    (4300 by default), which guards parsing untrusted input; it is lifted
    while these rows are rendered and restored afterwards.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = _render(rows, args)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    out_path = getattr(args, "out", None)
    if out_path:
        base_dir = os.environ.get("DOMSOLVE_OUTPUT_DIR")
        if base_dir and not os.path.isabs(out_path) and os.sep not in out_path:
            out_path = os.path.join(base_dir, out_path)
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _render(rows: list[dict], args) -> str:
    if (getattr(args, "format", "csv") or "csv") == "json":
        return json.dumps(rows, indent=2, default=_fmt) + "\n"
    buffer = io.StringIO()
    if rows:
        fields: list[str] = []
        for row in rows:
            fields.extend(k for k in row if k not in fields)
        writer = csv.DictWriter(buffer, fieldnames=fields, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
    return buffer.getvalue()


def _seed_from_args(args) -> Seed:
    return Seed(args.seed, getattr(args, "stream", 0) or 0)


# --------------------------------------------------------------------------
# exact

def _valued(row: dict, value, decimal: bool = True) -> dict:
    """``row`` with ``value`` and, unless ``decimal`` is False, its decimal."""
    row["value"] = value
    if decimal:
        row["decimal"] = _decimal(value)
    return row


def _per_n(fn):
    """Rows of a table with one value per n."""
    return lambda m, n: [_valued({"n": n}, fn(n))]


def _per_k(fn):
    """Rows of a table with one value per k = 1.. of the sequence ``fn(n)``."""
    return lambda m, n: [_valued({"n": n, "k": k}, v) for k, v in enumerate(fn(n), start=1)]


def _per_mn(fn, decimal: bool = True, n_key: str = "n"):
    """Rows of a table with one value per (m, n)."""
    return lambda m, n: [_valued({"m": m, n_key: n}, fn(m, n), decimal)]


def _iterations_dist_rows(m: int, n: int) -> list[dict]:
    p1, p2, p3 = exact.iteration_distribution_2xn(n)
    return [
        {
            "n": n,
            "pr_1_round": p1,
            "pr_2_rounds": p2,
            "pr_3_rounds": p3,
            "decimal_1": _decimal(p1),
            "decimal_2": _decimal(p2),
            "decimal_3": _decimal(p3),
        }
    ]


def _undominated_bounds_rows(m: int, n: int) -> list[dict]:
    lo, hi = exact.undominated_mean_bounds(m, n)
    return [{"m": m, "n": n, "lower": lo, "upper": hi}]


def _no_dominated_3xn_rows(m: int, n: int) -> list[dict]:
    lo, hi = exact.no_dominated_column_bounds_3xn(n)
    return [{"n": n, "lower": lo, "lower_decimal": _decimal(lo), "upper": hi}]


# Each table's rows for one (m, n); tables of 2 x n games ignore m.
_EXACT_TABLES = {
    "solvability": _per_n(exact.solvable_probability_2xn),
    "iterations-dist": _iterations_dist_rows,
    "iterations-mean": _per_n(exact.mean_iterations_2xn),
    "undominated-dist": _per_k(exact.undominated_distribution_2xn),
    "survivors-dist": _per_k(exact.survivor_distribution_2xn),
    "survivors-mean": _per_n(exact.mean_survivors_2xn),
    "survivors-var": _per_n(exact.var_survivors_2xn),
    "stirling": _per_k(exact.stirling_row),
    "undominated-mean": _per_mn(exact.mean_undominated),
    "undominated-bounds": _undominated_bounds_rows,
    "union-lower-bound": _per_mn(exact.undominated_fraction_lower_bound, decimal=False),
    "blocking-event": _per_mn(exact.blocking_event_probability, n_key="j"),
    "row-elim-bound": _per_mn(exact.row_elimination_probability_bound, decimal=False),
    "solvability-lower-bound": _per_mn(exact.solvable_probability_lower_bound),
    "point-rat-unique": _per_mn(exact.unique_point_rationalizable_probability),
    "no-dominated-3xn": _no_dominated_3xn_rows,
}


def _cmd_exact(args) -> int:
    build = _EXACT_TABLES[args.table]
    _emit([row for n in _parse_n_range(args.n) for row in build(args.m, n)], args)
    return 0


# --------------------------------------------------------------------------
# enumerate

def _cmd_enumerate(args) -> int:
    rows = []
    if args.what == "full2xn":
        report = enumeration.enumerate_2xn(args.n)
        rows.append(
            {
                "n": report.n,
                "states": report.total_states,
                "solvable": report.solvable_probability,
                "solvable_decimal": _decimal(report.solvable_probability),
            }
        )
        for i, p in enumerate(report.dist_iterations, start=1):
            rows.append({"n": report.n, "iterations": i, "probability": p})
        for k, p in enumerate(report.dist_undominated, start=1):
            rows.append({"n": report.n, "undominated": k, "probability": p})
        for k, p in enumerate(report.dist_survivors, start=1):
            rows.append({"n": report.n, "survivors": k, "probability": p})
    elif args.what == "uc3xn":
        counts = enumeration.enumerate_undominated_3xn(args.n)
        for k, c in enumerate(counts, start=1):
            rows.append({"n": args.n, "k": k, "count": c})
    elif args.what == "class2x2":
        report = enumeration.enumerate_class_2x2(_CLASSES[args.game_class])
        rows.append(
            {
                "class": args.game_class,
                "solvable": report.solvable_probability,
                "solvable_decimal": _decimal(report.solvable_probability),
            }
        )
        for i, p in sorted(report.iteration_probs.items()):
            rows.append({"class": args.game_class, "iterations": i, "probability": p})
        for (s_r, s_c), p in sorted(report.survivor_pair_probs.items()):
            rows.append(
                {
                    "class": args.game_class,
                    "survivors_row": s_r,
                    "survivors_col": s_c,
                    "probability": p,
                }
            )
    elif args.what == "pointrat2x2":
        v = enumeration.enumerate_point_rat_2x2()
        rows.append({"unique_point_rationalizable": v, "decimal": _decimal(v)})
    _emit(rows, args)
    return 0


# --------------------------------------------------------------------------
# simulate

def _source_from_args(args) -> GameSource:
    if not args.dims and (args.m is None or args.n is None):
        raise ValueError("simulate requires --m and --n (or --dims)")
    return GameSource(
        m=args.m or 0,
        n=args.n or 0,
        game_class=_CLASSES[args.game_class],
        distribution=args.dist,
        crra_alpha=args.alpha,
        dims=tuple(int(d) for d in args.dims.split(",")) if args.dims else None,
    )


def _cmd_simulate(args) -> int:
    source = _source_from_args(args)
    spec = ExperimentSpec(
        metric=args.metric,
        source=source,
        samples=args.samples,
        seed=_seed_from_args(args),
        batch_size=args.batch_size,
    )
    result = montecarlo.run(spec, threads=args.threads)
    base = {
        "metric": args.metric,
        "class": source.game_class.value if not source.is_nplayer else "nplayer",
        "m": source.m if not source.is_nplayer else "",
        "n": source.n if not source.is_nplayer else "",
        "dims": ",".join(map(str, source.dims)) if source.is_nplayer else "",
        "distribution": source.distribution,
        "alpha": "" if source.crra_alpha is None else source.crra_alpha,
        "samples": args.samples,
        "seed": args.seed,
        "stream": args.stream,
    }
    rows = []
    if isinstance(result, HistogramEstimate):
        for value, count in result.counts.items():
            rows.append(
                base
                | {
                    "value": value,
                    "count": count,
                    "estimate": result.freq(value),
                    "se": result.se(value),
                    "conditioning_count": count,
                }
            )
    else:
        rows.append(
            base
            | {
                "estimate": result.mean,
                "se": result.se,
                "conditioning_count": result.conditioning_count,
            }
        )
    _emit(rows, args)
    return 0


# --------------------------------------------------------------------------
# diagnose

def _cmd_diagnose(args) -> int:
    rows = []
    if args.what == "asymptotics":
        ns = _parse_n_range(args.n)
        for row in exact.asymptotic_diagnostics(ns):
            rows.append(
                {
                    "n": row.n,
                    "sqrt_n_solvable": row.sqrt_n_solvable,
                    "limit_sqrt_n_solvable": 2 / math.sqrt(math.pi),
                    "scaled_pr_one_round": row.scaled_pr_one_round,
                    "limit_pr_one_round": math.sqrt(math.pi),
                    "sqrt_n_pr_two_rounds": row.sqrt_n_pr_two_rounds,
                    "sqrt_n_pr_not_three": row.sqrt_n_pr_not_three,
                    "limit_pr_two_rounds": math.sqrt(math.pi) / 2,
                    "mean_survivors_minus_log": row.mean_survivors_minus_log,
                    "limit_mean": exact.EULER_GAMMA,
                    "var_survivors_minus_log": row.var_survivors_minus_log,
                    "limit_var": exact.EULER_GAMMA - math.pi**2 / 6,
                }
            )
    elif args.what == "clt":
        report = montecarlo.clt_check(int(args.n), args.samples, _seed_from_args(args))
        rows.append(report.__dict__)
    elif args.what == "bounds":
        grid = []
        for pair in args.grid.split(";"):
            m, n = pair.split(",")
            grid.append((int(m), int(n)))
        for row in montecarlo.bound_checks(
            grid, args.samples, _seed_from_args(args), threads=args.threads
        ):
            rows.append(row.__dict__)
    _emit(rows, args)
    return 0


# --------------------------------------------------------------------------
# game

# Peak bytes per payoff of ``game generate``, above the measured peaks: a
# cardinal payoff about 90 (the draw, a Python float in a list, JSON text),
# an ordinal one about 50.
_GENERATE_BYTES_PER_PAYOFF = 96


def _generated_game(args):
    """The game ``game generate`` prints, drawn from the source its flags
    give; refused before drawing when it would not fit in memory. Returning
    frees the draw's arrays before the JSON text is built."""
    source = _source_from_args(args)
    if source.is_nplayer and args.cardinal:
        raise ValueError("--cardinal needs a bimatrix source: N-player games are ordinal")
    need = _GENERATE_BYTES_PER_PAYOFF * len(source.shape) * math.prod(source.shape)
    if need > montecarlo.BATCH_BYTES_LIMIT:
        raise CapacityError(
            f"a {'x'.join(map(str, source.shape))} game needs about {need / 2**30:.3g} GiB, "
            f"above the {montecarlo.BATCH_BYTES_LIMIT / 2**30:g} GiB limit"
        )
    seed = _seed_from_args(args)
    if source.is_nplayer:
        return sample_nplayer(source.dims, seed)
    if args.cardinal or source.game_class is not GameClass.BASELINE:
        game = sample_class(source.game_class, source.m, source.n, seed, source.distribution)
        return game if source.crra_alpha is None else apply_crra(game, source.crra_alpha)
    # the ranks of a batch of one, as sample_baseline draws them
    u_row, u_col = sample_class_batch(
        seed.generator(), 1, source.m, source.n, distribution=source.distribution, crra_alpha=source.crra_alpha
    )
    return OrdinalBimatrix(rank_along(u_row[0], 0).tolist(), rank_along(u_col[0], 1).tolist())


def _cmd_game(args) -> int:
    if args.what == "generate":
        sys.stdout.write(json.dumps(_generated_game(args).to_json_dict()) + "\n")
        return 0
    if args.what == "trace":
        if args.game == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.game) as handle:
                data = json.load(handle)
        game = game_from_json_dict(data)
        if hasattr(game, "u_row"):
            game = ordinalize(game)
        trace = elimination.iterate(game)
        sys.stdout.write(json.dumps(trace.to_json_dict()) + "\n")
        return 0
    raise AssertionError(args.what)  # pragma: no cover


# --------------------------------------------------------------------------
# parser plumbing

def _add_common_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domsolve",
        description="Dominance solvability in random games: exact tables, "
        "enumeration oracles, and Monte Carlo experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--config", default=None, help="JSON file with defaults for long options"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="closed-form tables")
    p_exact.add_argument("table", choices=tuple(_EXACT_TABLES))
    p_exact.add_argument("--n", required=True, help="n or inclusive range a..b")
    p_exact.add_argument("--m", type=int, default=2)
    _add_common_output(p_exact)
    p_exact.set_defaults(func=_cmd_exact)

    p_enum = sub.add_parser("enumerate", help="exhaustive enumeration oracles")
    p_enum.add_argument("what", choices=("full2xn", "uc3xn", "class2x2", "pointrat2x2"))
    p_enum.add_argument("--n", type=int, default=3)
    p_enum.add_argument("--class", dest="game_class", choices=sorted(_CLASSES), default="baseline")
    _add_common_output(p_enum)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimates")
    p_sim.add_argument("--metric", required=True, choices=montecarlo.METRICS)
    p_sim.add_argument("--m", type=int, default=None)
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--dims", default=None, help="N-player dims, e.g. 2,2,2")
    p_sim.add_argument("--class", dest="game_class", choices=sorted(_CLASSES), default="baseline")
    p_sim.add_argument("--dist", choices=("uniform", "normal"), default=UNIFORM)
    p_sim.add_argument("--alpha", type=float, default=None, help="CRRA exponent")
    p_sim.add_argument("--samples", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--stream", type=int, default=None)
    p_sim.add_argument("--batch-size", type=int, default=None)
    p_sim.add_argument("--threads", type=int, default=None)
    _add_common_output(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_diag = sub.add_parser("diagnose", help="asymptotics, CLT and bound checks")
    p_diag.add_argument("what", choices=("asymptotics", "clt", "bounds"))
    p_diag.add_argument("--n", default="1000")
    p_diag.add_argument("--samples", type=int, default=None)
    p_diag.add_argument("--seed", type=int, default=None)
    p_diag.add_argument("--stream", type=int, default=None)
    p_diag.add_argument("--grid", default="2,10;3,50", help="semicolon-separated m,n pairs")
    p_diag.add_argument("--threads", type=int, default=None)
    _add_common_output(p_diag)
    p_diag.set_defaults(func=_cmd_diagnose)

    p_game = sub.add_parser("game", help="generate and inspect single games")
    p_game.add_argument("what", choices=("generate", "trace"))
    p_game.add_argument("--m", type=int, default=3)
    p_game.add_argument("--n", type=int, default=3)
    p_game.add_argument("--dims", default=None)
    p_game.add_argument("--class", dest="game_class", choices=sorted(_CLASSES), default="baseline")
    p_game.add_argument("--dist", choices=("uniform", "normal"), default=UNIFORM)
    p_game.add_argument("--alpha", type=float, default=None)
    p_game.add_argument("--cardinal", action="store_true", help="emit payoffs, not ranks")
    p_game.add_argument("--seed", type=int, default=None)
    p_game.add_argument("--stream", type=int, default=None)
    p_game.add_argument("--game", default="-", help="game JSON path for trace ('-' = stdin)")
    p_game.set_defaults(func=_cmd_game)

    return parser


_HARD_DEFAULTS = {
    "samples": 100_000,
    "seed": 0,
    "stream": 0,
    "threads": os.cpu_count() or 1,
    "format": "csv",
}


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset (None) options from --config, then from hard defaults.

    Explicit command-line flags always win because they leave no None behind.
    """
    config = {}
    if args.config:
        with open(args.config) as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ValueError(f"--config {args.config} must hold a JSON object")
        unknown = set(config) - set(vars(args))
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    for key, value in _HARD_DEFAULTS.items():
        if getattr(args, key, None) is None and key in vars(args):
            setattr(args, key, value)
    if getattr(args, "threads", 1) < 1:
        raise ValueError("--threads must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args)
        return args.func(args)
    except (CapacityError, OverflowError) as err:  # OverflowError: a value beyond the float range
        print(f"capacity error: {err}", file=sys.stderr)
        return EXIT_CAPACITY
    except LPSolveError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, montecarlo.NoConditioningEventsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
