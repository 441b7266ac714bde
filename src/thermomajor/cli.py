"""Command-line front end.

Subcommands: curve, majorize, divergence, build-reservoir, verify,
catalytic-check, oracle-check, engine, reproduce.  Exit codes: 0 success or
verdict-true, 1 verdict-false, 2 input error (or a domain limit, such as an
output rational beyond Python's digit limit for integer strings), 3
reproduction mismatch, 4 internal error (an unexpected exception, reported
in one line on stderr without a traceback).

This module owns the JSON file format.  ``_dump`` writes every value, a
value class as the dict of its fields and a rational as its "p/q" string, so
output re-parses exactly; ``_load`` reads a state or reservoir file back by
the class's fields, one list of rationals each.  With a fixed seed all
output is byte-identical across runs.

Each command runs in its own process, so start-up is most of its cost.  Only
``errors`` and ``states`` load with this module, because every subcommand and
``main``'s error handling use them; each handler imports the other library
modules it runs in its own body.  So ``curve`` and ``majorize`` add only
``curves``; ``build-reservoir``, ``verify`` (unless its reservoir is no shift
of the transition), ``divergence``, ``catalytic-check``, ``reproduce`` and
``engine`` without ``--curves-dir`` load no ``curves``; no command but
``oracle-check`` loads the LP oracle; and the reproduction targets sit in
``reproduce``, which only ``reproduce`` loads.  ``main`` builds the parser of
the invoked subcommand alone (every one when ``argv[0]`` names none), with
the same help, usage and error text.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Sequence
from fractions import Fraction

from .errors import ParseError, ReproductionMismatch, ThermomajorError
from .states import ThermoState, Transition, _Value, as_rat, clock_lift

SVG_WIDTH = 800
SVG_HEIGHT = 500
SVG_MARGIN = 60


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------


def _rationals(data: dict, key: str, kind: str) -> tuple[Fraction, ...]:
    """Parse the JSON list ``data[key]`` of rationals; errors name the field."""
    if key not in data:
        raise ParseError(f"{kind} JSON missing field {key!r}")
    if not isinstance(data[key], Sequence) or isinstance(data[key], str):
        raise ParseError(f"{kind} field {key!r} must be a list")
    out = []
    for index, raw in enumerate(data[key]):
        try:
            out.append(as_rat(raw))
        except ParseError as exc:
            raise ParseError(f"{key}[{index}]: {exc}") from exc
    return tuple(out)


def _load(path: str, cls: type[_Value] = ThermoState, kind: str = "state") -> _Value:
    """Read the JSON file at ``path`` as a ``cls``: an object holding one
    list of rationals ("p/q" strings or integers) per field of ``cls``, the
    shape ``_dump`` writes.

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
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ParseError(f"{kind} JSON must be an object, got {type(data).__name__}")
        return cls(*[_rationals(data, key, kind) for key in cls._fields])
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    except ThermomajorError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _load_pair(initial_path: str, final_path: str) -> tuple[ThermoState, ThermoState]:
    """The initial and final states a command reads, in that order."""
    return _load(initial_path), _load(final_path)


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


def _alpha_grid(args: argparse.Namespace) -> tuple[float, ...]:
    """The orders of ``--alpha-grid``, or ``DEFAULT_ALPHA_GRID`` when the
    flag is absent; a grid given empty is an input error."""
    from .divergences import DEFAULT_ALPHA_GRID

    if args.alpha_grid is None:
        return DEFAULT_ALPHA_GRID
    grid = []
    for token in args.alpha_grid.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            grid.append(float(token))
        except ValueError as exc:
            raise ParseError(f"bad alpha value {token!r}") from exc
    if not grid:
        raise ParseError("alpha grid is empty")
    return tuple(grid)


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

    state = _load(args.state)
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

    state = _load(args.state)
    reference = _load(args.reference) if args.reference else None
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
        state = _load(args.states[0])
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
    from .reservoirs import Reservoir, average_work, verify_efficient

    t = _load_transition(args.initial, args.final)
    res = _load(args.reservoir, Reservoir, "reservoir")
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
                    "initial": t.initial,
                    "final": t.final,
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

    spec = engine.EngineSpec.from_temperatures(args.epsilon, args.t_hot, args.t_cold)
    report = _dump(engine.run_carnot(spec))
    # The stage curves go first, so a run that cannot write them emits nothing.
    if args.curves_dir:
        from .curves import curve_of

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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command``'s alone when it
    names one.  Then the usage line still lists every subcommand, so help,
    usage and error text are those of the full parser."""
    # Each subcommand's help line, handler and arguments, as (flags,
    # keywords) for ``add_argument``; every one also takes -o/--output, last.
    commands = {
        "curve": ("breakpoints of a state's curve as CSV or SVG", cmd_curve, [
            (("state",), {"help": "state JSON file"}),
            (("--format",), {"choices": ("csv", "svg"), "default": "csv"}),
        ]),
        "majorize": ("does the first state thermomajorize the second?", cmd_majorize, [
            (("initial",), {}),
            (("final",), {}),
        ]),
        "divergence": ("alpha-divergence profile of a state", cmd_divergence, [
            (("state",), {}),
            (("--reference",), {"help": "reference state JSON (default: Gibbs)"}),
            (("--alpha-grid",), {"help": "comma-separated alpha values, e.g. 0,0.5,1,inf"}),
        ]),
        "build-reservoir": ("synthesize an efficient work reservoir", cmd_build_reservoir, [
            (("--method",), {"choices": ("minimal", "general", "product"), "required": True}),
            (("states",), {
                "nargs": "+", "help": "state JSON file(s): one for minimal, two otherwise",
            }),
            (("--c",), {"default": "1", "help": "gauge constant for the minimal method"}),
            (("--anchor",), {
                "default": "1", "help": "first initial weight for the general method",
            }),
        ]),
        "verify": ("exact zero-dissipation check of a reservoir", cmd_verify, [
            (("initial",), {}),
            (("final",), {}),
            (("reservoir",), {}),
        ]),
        "catalytic-check": ("alpha-monotonicity verdict for a transition", cmd_catalytic_check, [
            (("initial",), {}),
            (("final",), {}),
            (("--alpha-grid",), {}),
            (("--nonnegative-only",), {"action": "store_true", "help": "restrict to alpha >= 0"}),
        ]),
        "oracle-check": ("cross-validate the LP oracle against the curves", cmd_oracle_check, [
            (("--trials",), {"type": int, "default": 200}),
            (("--dims",), {"default": "2,3,4,5"}),
            (("--seed",), {"type": int, "default": 0}),
        ]),
        "engine": ("run the qubit Carnot cycle", cmd_engine, [
            (("--epsilon",), {"type": float, "required": True}),
            (("--t-hot",), {"type": float, "required": True}),
            (("--t-cold",), {"type": float, "required": True}),
            (("--curves-dir",), {"help": "also write the four per-stage curve CSVs here"}),
        ]),
        "reproduce": ("regenerate a pinned reference result", cmd_reproduce, [
            # reproduce.TARGETS' keys, spelled out so that parsing loads no target.
            (("target",), {"choices": ("engine", "example1", "example2", "table1")}),
        ]),
    }
    parser = argparse.ArgumentParser(
        prog="thermomajor",
        description="Exact thermomajorization curves and efficient work reservoirs.",
    )
    names, metavar = commands, None
    if command in commands:
        names, metavar = [command], "{" + ",".join(commands) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, func, arguments = commands[name]
        p = sub.add_parser(name, help=help_text)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        p.add_argument("-o", "--output", help="write to file instead of stdout")
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the invoked subcommand's parser is built: each costs start-up.
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
