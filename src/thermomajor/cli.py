"""Command-line front end.

Subcommands: curve, majorize, divergence, build-reservoir, verify,
catalytic-check, oracle-check, engine, reproduce.  Exit codes: 0 success or
verdict-true, 1 verdict-false, 2 input error (or a domain limit, such as an
output rational beyond Python's digit limit for integer strings), 3
reproduction mismatch, 4 internal error (an unexpected exception, reported
in one line on stderr without a traceback).

Rationals serialize as "p/q" strings so JSON output re-parses exactly; with a
fixed seed all output is byte-identical across runs.

Each command runs in its own process, so start-up is most of its cost.  Only
``errors`` and ``states`` load with this module, because every subcommand and
``main``'s error handling use them; each handler imports the other library
modules it runs in its own body.  So ``curve`` and ``majorize`` add only
``curves``, no command but ``oracle-check`` loads the LP oracle, and the
reproduction targets sit in ``reproduce``, which only ``reproduce`` loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable, Sequence
from fractions import Fraction

from .errors import ParseError, ReproductionMismatch, ThermomajorError
from .states import (
    ThermoState,
    Transition,
    _Value,
    as_rat,
    clock_lift,
    rational_list,
    state_from_dict,
    state_to_dict,
)

SVG_WIDTH = 800
SVG_HEIGHT = 500
SVG_MARGIN = 60


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------


def _load(path: str, parse: Callable[[object], object]) -> object:
    """Read the JSON file at ``path`` and build it with ``parse``.

    Every error names the path once, so a command that reads several files
    says which one is bad; a file that is not JSON, deep nesting included,
    is a ParseError too.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return parse(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    except ThermomajorError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _reservoir_from_dict(data: object) -> Reservoir:
    from .reservoirs import Reservoir

    if not isinstance(data, dict):
        raise ParseError("reservoir JSON must be an object")
    return Reservoir(
        rational_list(data, "r", "reservoir"),
        rational_list(data, "init_weights", "reservoir"),
        rational_list(data, "fin_weights", "reservoir"),
    )


def _load_pair(initial_path: str, final_path: str) -> tuple[ThermoState, ThermoState]:
    """The initial and final states a command reads, in that order."""
    return _load(initial_path, state_from_dict), _load(final_path, state_from_dict)


def _load_transition(initial_path: str, final_path: str) -> Transition:
    """A shared-weights transition, or its clock lift when the weights differ."""
    initial, final = _load_pair(initial_path, final_path)
    if initial.weights == final.weights:
        return Transition(initial, final)
    return clock_lift(initial, final)


def _float_token(x: float) -> object:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def _rational_str(x: Fraction) -> str:
    """``x`` as its "p/q" string, refusing a numerator or denominator with
    more digits than Python converts to a string."""
    try:
        return str(x)
    except ValueError as exc:
        raise ThermomajorError(
            f"an output rational has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for integer string conversion"
        ) from exc


def _json_token(x: object) -> object:
    """JSON hook: a Fraction becomes its "p/q" string and a value object the
    dict of its fields; nothing else is encoded."""
    if isinstance(x, Fraction):
        return _rational_str(x)
    if isinstance(x, _Value):
        return x._asdict()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _dump(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_token) + "\n"


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_alpha_grid(text: str) -> tuple[float, ...]:
    grid = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            alpha = float(token)
        except ValueError as exc:
            raise ParseError(f"bad alpha value {token!r}") from exc
        grid.append(alpha)
    if not grid:
        raise ParseError("alpha grid is empty")
    return tuple(grid)


def _alpha_grid(args: argparse.Namespace) -> tuple[float, ...]:
    from .divergences import DEFAULT_ALPHA_GRID

    if args.alpha_grid:
        return _parse_alpha_grid(args.alpha_grid)
    return DEFAULT_ALPHA_GRID


# ---------------------------------------------------------------------------
# Curve rendering
# ---------------------------------------------------------------------------


def _decimal(x: Fraction) -> str:
    """``x`` (nonnegative) as a float literal, or "inf" beyond float range."""
    try:
        return repr(float(x))
    except OverflowError:
        return "inf"


def breakpoints_csv(curve: Curve) -> str:
    from .curves import breakpoints

    lines = ["x,y,x_decimal,y_decimal"]
    for x, y in breakpoints(curve):
        lines.append(f"{_rational_str(x)},{_rational_str(y)},{_decimal(x)},{_decimal(y)}")
    return "\n".join(lines) + "\n"


def curve_svg(curve: Curve) -> str:
    """Fixed-size SVG polyline; coordinates are scaled to [0, 1] exactly and
    become floats only at render time, so any width Z renders."""
    from .curves import breakpoints

    z = curve.total_width
    inner_w = SVG_WIDTH - 2 * SVG_MARGIN
    inner_h = SVG_HEIGHT - 2 * SVG_MARGIN
    points = " ".join(
        f"{SVG_MARGIN + float(x / z) * inner_w:.3f},"
        f"{SVG_HEIGHT - SVG_MARGIN - float(y) * inner_h:.3f}"
        for x, y in breakpoints(curve)
    )
    axis_color = "#444"
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">\n'
        f'  <rect x="{SVG_MARGIN}" y="{SVG_MARGIN}" width="{inner_w}" height="{inner_h}" '
        f'fill="none" stroke="{axis_color}" stroke-width="1"/>\n'
        f'  <text x="{SVG_MARGIN}" y="{SVG_HEIGHT - SVG_MARGIN + 20}" font-size="14">0</text>\n'
        f'  <text x="{SVG_WIDTH - SVG_MARGIN}" y="{SVG_HEIGHT - SVG_MARGIN + 20}" '
        f'font-size="14" text-anchor="end">{_rational_str(curve.total_width)}</text>\n'
        f'  <text x="{SVG_MARGIN - 10}" y="{SVG_MARGIN + 5}" font-size="14" '
        f'text-anchor="end">1</text>\n'
        f'  <polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="2"/>\n'
        "</svg>\n"
    )


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_curve(args: argparse.Namespace) -> int:
    from .curves import curve_of

    state = _load(args.state, state_from_dict)
    curve = curve_of(state)
    if args.format == "svg":
        _emit(args, curve_svg(curve))
    else:
        _emit(args, breakpoints_csv(curve))
    return 0


def cmd_majorize(args: argparse.Namespace) -> int:
    from .curves import curve_of, majorizes

    a, b = _load_pair(args.initial, args.final)
    verdict = majorizes(curve_of(a), curve_of(b))
    _emit(args, _dump({"majorizes": verdict}))
    return 0 if verdict else 1


def cmd_divergence(args: argparse.Namespace) -> int:
    from .divergences import alpha_profile

    state = _load(args.state, state_from_dict)
    reference = _load(args.reference, state_from_dict) if args.reference else None
    profile = alpha_profile(state, reference, _alpha_grid(args))
    payload = {
        "alpha": [_float_token(a) for a in profile.alphas],
        "value": [_float_token(v) for v in profile.values],
    }
    _emit(args, _dump(payload))
    return 0


def cmd_build_reservoir(args: argparse.Namespace) -> int:
    from .reservoirs import (
        alt_product_reservoir,
        average_work,
        general_efficient_reservoir,
        minimal_extraction_reservoir,
    )

    if args.method == "minimal":
        if len(args.states) != 1:
            raise ParseError("minimal method takes one state file")
        state = _load(args.states[0], state_from_dict)
        res = minimal_extraction_reservoir(state, as_rat(args.c))
    else:
        if len(args.states) != 2:
            raise ParseError(f"{args.method} method takes two state files")
        t = _load_transition(*args.states)
        if args.method == "general":
            res = general_efficient_reservoir(t, as_rat(args.anchor))
        else:
            res = alt_product_reservoir(t)
    payload = res._asdict()
    payload["average_work"] = average_work(res)
    _emit(args, _dump(payload))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .reservoirs import average_work, verify_efficient

    t = _load_transition(args.initial, args.final)
    res = _load(args.reservoir, _reservoir_from_dict)
    verdict = verify_efficient(t, res)
    _emit(args, _dump({"efficient": verdict, "average_work": average_work(res)}))
    return 0 if verdict else 1


def cmd_catalytic_check(args: argparse.Namespace) -> int:
    from .catalysis import cto_feasible

    t = Transition(*_load_pair(args.initial, args.final))
    verdict = cto_feasible(t, _alpha_grid(args), nonnegative_only=args.nonnegative_only)
    payload = {
        "feasible": verdict.feasible,
        "grid_only": verdict.grid_only,
        "witnessed": [
            {
                "alpha": _float_token(alpha),
                "d_initial": _float_token(di),
                "d_final": _float_token(df),
            }
            for alpha, di, df in verdict.witnessed
        ],
    }
    _emit(args, _dump(payload))
    return 0 if verdict.feasible else 1


def _parse_dims(text: str) -> list[int]:
    from .oracle import DEFAULT_DIMENSION_CAP as cap

    dims = []
    for token in text.split(","):
        try:
            dim = int(token)
        except ValueError as exc:
            raise ParseError(f"bad dimension {token!r}") from exc
        if not 1 <= dim <= cap:
            raise ParseError(f"dimension {dim} is outside 1..{cap}")
        dims.append(dim)
    return dims


def cmd_oracle_check(args: argparse.Namespace) -> int:
    import random

    from . import oracle
    from .curves import curve_of, majorizes

    if args.trials < 1:
        raise ParseError(f"--trials must be at least 1, got {args.trials}")
    dims = _parse_dims(args.dims)
    rng = random.Random(args.seed)
    disagreements = []
    agree = 0
    for index in range(args.trials):
        dim = dims[index % len(dims)]
        t = oracle.random_transition(rng, dim)
        curve_verdict = majorizes(curve_of(t.initial), curve_of(t.final))
        lp_verdict, _ = oracle.lp_feasible(t)
        if curve_verdict == lp_verdict:
            agree += 1
        else:
            disagreements.append(
                {
                    "trial": index,
                    "initial": state_to_dict(t.initial),
                    "final": state_to_dict(t.final),
                    "curve": curve_verdict,
                    "lp": lp_verdict,
                }
            )
    payload = {
        "trials": args.trials,
        "agreements": agree,
        "agreement_rate": agree / args.trials,
        "disagreements": disagreements,
    }
    _emit(args, _dump(payload))
    return 0 if not disagreements else 1


def cmd_engine(args: argparse.Namespace) -> int:
    from . import engine
    from .curves import curve_of

    spec = engine.EngineSpec.from_temperatures(args.epsilon, args.t_hot, args.t_cold)
    report = _dump(engine.run_carnot(spec))
    # The stage curves go first, so a run that cannot write them emits nothing.
    if args.curves_dir:
        os.makedirs(args.curves_dir, exist_ok=True)
        names = (
            "stage1_cold_equilibrium.csv",
            "stage2_cold_populations_hot_bath.csv",
            "stage3_hot_equilibrium.csv",
            "stage4_hot_populations_cold_bath.csv",
        )
        for name, state in zip(names, engine.stage_states(spec)):
            with open(os.path.join(args.curves_dir, name), "w") as fh:
                fh.write(breakpoints_csv(curve_of(state)))
    _emit(args, report)
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from .reproduce import TARGETS

    report = TARGETS[args.target]()
    failed = [check["name"] for check in report["checks"] if not check["ok"]]
    report["ok"] = not failed
    _emit(args, _dump(report))
    if failed:
        raise ReproductionMismatch(f"{args.target}: failed {', '.join(failed)}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermomajor",
        description="Exact thermomajorization curves and efficient work reservoirs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", help="write to file instead of stdout")

    p = sub.add_parser("curve", help="breakpoints of a state's curve as CSV or SVG")
    p.add_argument("state", help="state JSON file")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    add_output(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("majorize", help="does the first state thermomajorize the second?")
    p.add_argument("initial")
    p.add_argument("final")
    add_output(p)
    p.set_defaults(func=cmd_majorize)

    p = sub.add_parser("divergence", help="alpha-divergence profile of a state")
    p.add_argument("state")
    p.add_argument("--reference", help="reference state JSON (default: Gibbs)")
    p.add_argument("--alpha-grid", help="comma-separated alpha values, e.g. 0,0.5,1,inf")
    add_output(p)
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("build-reservoir", help="synthesize an efficient work reservoir")
    p.add_argument("--method", choices=("minimal", "general", "product"), required=True)
    p.add_argument("states", nargs="+", help="state JSON file(s): one for minimal, two otherwise")
    p.add_argument("--c", default="1", help="gauge constant for the minimal method")
    p.add_argument("--anchor", default="1", help="first initial weight for the general method")
    add_output(p)
    p.set_defaults(func=cmd_build_reservoir)

    p = sub.add_parser("verify", help="exact zero-dissipation check of a reservoir")
    p.add_argument("initial")
    p.add_argument("final")
    p.add_argument("reservoir")
    add_output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalytic-check", help="alpha-monotonicity verdict for a transition")
    p.add_argument("initial")
    p.add_argument("final")
    p.add_argument("--alpha-grid")
    p.add_argument("--nonnegative-only", action="store_true", help="restrict to alpha >= 0")
    add_output(p)
    p.set_defaults(func=cmd_catalytic_check)

    p = sub.add_parser("oracle-check", help="cross-validate the LP oracle against the curves")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--dims", default="2,3,4,5")
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("engine", help="run the qubit Carnot cycle")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--t-hot", type=float, required=True)
    p.add_argument("--t-cold", type=float, required=True)
    p.add_argument("--curves-dir", help="also write the four per-stage curve CSVs here")
    add_output(p)
    p.set_defaults(func=cmd_engine)

    p = sub.add_parser("reproduce", help="regenerate a pinned reference result")
    # reproduce.TARGETS' keys, spelled out so that parsing loads no target.
    p.add_argument("target", choices=("engine", "example1", "example2", "table1"))
    add_output(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproductionMismatch as exc:
        print(f"reproduction mismatch: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ThermomajorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # last resort: keep exit 1 for "verdict false"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
