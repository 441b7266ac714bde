"""Spans and counts recorded from outside the program, at its module boundaries.

:meth:`Tracer.install` replaces the public functions of each thermomajor
module, and the constructors of its validating classes, by wrappers; every
module binding that refers to a wrapped function is rebound, so calls
between modules (``verify_efficient`` -> ``joint_states`` -> ``ThermoState``)
become child spans.  Spans stay in memory until :meth:`Tracer.write`.

Per-element helpers called inside a layer (``ln_frac``, ``evaluate``,
``as_rat``) are left unwrapped: their time is their caller's self time, which
is where it belongs.  In ``cli`` only ``main`` is wrapped, so its self time
is all of the command line's own code (argument parsing, JSON I/O, rendering).
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

MODULES = ("states", "curves", "divergences", "reservoirs", "catalysis", "oracle", "engine", "cli")
CONSTRUCTORS = {"states": ("ThermoState",), "curves": ("Curve",), "reservoirs": ("Reservoir",)}
LEAVES = {"ln_frac", "evaluate", "as_rat"}
ONLY = {"cli": {"main"}}

# Metrics named in BENCHMARK.json, in the order printed.
LISTED_SELF = (
    "states.ThermoState", "curves.Curve", "curves.curve_of", "curves.canonical_curve",
    "curves.majorizes", "curves.product", "curves.divide", "curves.coincide",
    "reservoirs.general_efficient_reservoir",
    "reservoirs.minimal_extraction_reservoir", "reservoirs.joint_states",
    "reservoirs.verify_efficient", "reservoirs.average_work", "divergences.renyi",
    "divergences.curve_alpha_divergence", "divergences.alpha_profile", "catalysis.cto_feasible",
    "oracle.lp_feasible", "engine.run_carnot", "cli.main",
)
LISTED_CALLS = (
    "states.ThermoState", "curves.Curve", "curves.curve_of", "curves.majorizes", "curves.product",
    "curves.divide", "reservoirs.general_efficient_reservoir", "reservoirs.joint_states",
    "reservoirs.verify_efficient", "divergences.renyi", "divergences.curve_alpha_divergence",
    "catalysis.cto_feasible", "oracle.lp_feasible", "engine.run_carnot",
)
LISTED_COUNTS = (
    "states.ThermoState.levels", "curves.curve_of.segments_out", "curves.majorizes.segments_in",
    "curves.product.segments_out", "curves.divide.segments_in", "curves.max_num_bits",
    "curves.max_den_bits", "reservoirs.levels_out", "reservoirs.joint_states.levels_out",
    "oracle.lp_feasible.vars_in",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_states(counts, args, kwargs, result):
    counts["states.ThermoState.levels"] += len(_arg(args, kwargs, 1, "probs"))


def _count_curve_in(key):
    def count(counts, args, kwargs, result):
        counts[key] += len(args[0].segments) + len(args[1].segments)
    return count


def _count_lp(counts, args, kwargs, result):
    counts["oracle.lp_feasible.vars_in"] += _arg(args, kwargs, 0, "t").dim ** 2


def _count_joint(counts, args, kwargs, result):
    counts["reservoirs.joint_states.levels_out"] += result[0].dim


COUNTERS = {
    "states.ThermoState": _count_states,
    "curves.majorizes": _count_curve_in("curves.majorizes.segments_in"),
    "curves.divide": _count_curve_in("curves.divide.segments_in"),
    "oracle.lp_feasible": _count_lp,
    "reservoirs.joint_states": _count_joint,
}


class Tracer:
    """Span recorder: ``spans`` holds [name, start, end, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _after(self, name: str, module: str, args, kwargs, result) -> None:
        counter = COUNTERS.get(name)
        if counter is not None:
            counter(self.counts, args, kwargs, result)
        kind = type(result).__name__
        if kind == "Curve" and module == "curves":
            if name in ("curves.curve_of", "curves.product"):
                self.counts[name + ".segments_out"] += len(result.segments)
            num = den = 0
            for seg in result.segments:
                for x in (seg.height, seg.slope):
                    num = max(num, x.numerator.bit_length())
                    den = max(den, x.denominator.bit_length())
            self.counts["curves.max_num_bits"] = max(self.counts["curves.max_num_bits"], num)
            self.counts["curves.max_den_bits"] = max(self.counts["curves.max_den_bits"], den)
        elif kind == "Reservoir" and module == "reservoirs":
            self.counts["reservoirs.levels_out"] += result.dim

    def wrap(self, name: str, module: str, fn):
        spans, stack, after = self.spans, self.stack, self._after
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            after(name, module, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of each module of ``package`` and rebind them."""
        modules = {short: getattr(package, short) for short in MODULES}
        replacements = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or attr in LEAVES or attr not in ONLY.get(short, {attr}):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    replacements[id(value)] = self.wrap(f"{short}.{attr}", short, value)
            for cls_name in CONSTRUCTORS.get(short, ()):
                cls = getattr(module, cls_name)
                cls.__init__ = self.wrap(f"{short}.{cls_name}", short, cls.__init__)
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replacements:
                            value[key] = replacements[id(item)]

    # -- derived metrics -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: duration minus the durations of child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics named as in BENCHMARK.json, as (value, unit)."""
        selfs = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        out = {}
        for name in LISTED_SELF:
            out[name + ".self_ms"] = (selfs.get(name, 0.0) * 1e3, "ms")
        for name in LISTED_CALLS:
            out[name + ".calls"] = (calls.get(name, 0), "count")
        for name in LISTED_COUNTS:
            unit = "bits" if "bits" in name else "count"
            out[name] = (self.counts.get(name, 0), unit)
        unlisted = sum(v for k, v in selfs.items() if k not in LISTED_SELF)
        out["trace.unlisted_self_ms"] = (unlisted * 1e3, "ms")
        out["trace.bench_ms"] = ((wall_s - self.top_level_seconds()) * 1e3, "ms")
        out["trace.wall_ms"] = (wall_s * 1e3, "ms")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path) -> None:
        """Spans as CSV: name, start and end in ns from the first span, parent, op."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{round((start - origin) * 1e9)},{round((end - origin) * 1e9)},{parent},{op}\n")
