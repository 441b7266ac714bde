"""The four workloads: seeded inputs, one timed operation, and its checks.

Each workload is a class with

* ``make_round(rng)``: the inputs of one round, built by the benchmark from
  its seed (no program code runs here);
* ``warmup(ops)``: the untimed warm-up operations taken from a round;
* ``run(tm, op)``: the timed operation, calling the program through the
  module namespace ``tm`` so that a traced run sees every call;
* ``check(op, out)``: the untimed check of the output against
  :mod:`reference`, raising ``CheckFailed``.

A run repeats the same round of operations, so every run attempts whole
rounds and any kept failure is the same share of every run.
"""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import reference as ref
from reference import CheckFailed

PALETTE = tuple(Fraction(x) for x in ("1", "2", "3", "1/2", "1/3", "4", "2/3"))


# ---------------------------------------------------------------------------
# Seeded state families
# ---------------------------------------------------------------------------


def _probs(rng: random.Random, n: int, low: int, high: int) -> tuple[Fraction, ...]:
    while True:
        raw = [rng.randint(low, high) for _ in range(n)]
        if sum(raw) > 0:
            total = sum(raw)
            return tuple(Fraction(x, total) for x in raw)


def generic_weights(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """Distinct rational weights with two-digit numerators and denominators."""
    weights: set[Fraction] = set()
    while len(weights) < n:
        weights.add(Fraction(rng.randint(1, 60), rng.randint(1, 60)))
    out = list(weights)
    rng.shuffle(out)
    return tuple(out)


def generic_state(rng: random.Random, n: int, weights=None):
    """Full support and pairwise distinct slopes p_i / g_i."""
    weights = weights or generic_weights(rng, n)
    while True:
        probs = _probs(rng, n, 1, 999)
        if len({p / g for p, g in zip(probs, weights)}) == n:
            return probs, weights


def palette_state(rng: random.Random, n: int, weights=None, low: int = 0):
    """Weights from a seven-value palette and small integer masses: slopes collapse."""
    weights = weights or tuple(rng.choice(PALETTE) for _ in range(n))
    return _probs(rng, n, low, 6), weights


def _to_json(state) -> str:
    return json.dumps({"probs": [str(p) for p in state[0]], "weights": [str(g) for g in state[1]]})


# ---------------------------------------------------------------------------
# reservoir-pipeline
# ---------------------------------------------------------------------------


class ReservoirPipeline:
    """Transition -> efficient reservoir -> exact verify -> average work.

    One round holds, for each size n in SIZES and each family, COPIES[n]
    operations of each kind: a plain transition, the same kind with a
    tampered reservoir, a clock-lifted transition (two n/2-level
    Hamiltonians) and an extraction p -> tau through the minimal reservoir.
    The costliest group, generic n=32 plain and tampered, is 6 of 48
    operations, so the 90th percentile falls inside it rather than on the
    gap between two groups, where it would jump from run to run.
    """

    name = "reservoir-pipeline"
    SIZES = (8, 16, 24, 32)
    COPIES = {8: 1, 16: 1, 24: 1, 32: 3}
    KINDS = ("general", "tampered", "lifted", "minimal")

    def make_round(self, rng: random.Random) -> list:
        ops = []
        for n in self.SIZES:
            for family in (generic_state, palette_state):
                for kind in self.KINDS * self.COPIES[n]:
                    if kind == "lifted":
                        initial, final = family(rng, n // 2), family(rng, n // 2)
                    else:
                        initial = family(rng, n)
                        final = family(rng, n, weights=initial[1])
                    if kind == "minimal":
                        while len(ref.curve(*initial)[0]) == 1:
                            initial = family(rng, n)  # a Gibbs state has nothing to extract
                        z = sum(initial[1], Fraction(0))
                        final = (tuple(g / z for g in initial[1]), initial[1])
                    ops.append((kind, initial, final))
        return ops

    def warmup(self, ops: list) -> list:
        return ops[: 2 * len(self.KINDS)]  # both families at the smallest size

    def run(self, tm, op):
        kind, initial, final = op
        states, res_mod = tm.states, tm.reservoirs
        p = states.ThermoState(*initial)
        if kind == "minimal":
            t = states.Transition(p, states.gibbs_of(p))
            res = res_mod.minimal_extraction_reservoir(p)
        else:
            q = states.ThermoState(*final)
            t = states.clock_lift(p, q) if kind == "lifted" else states.Transition(p, q)
            res = res_mod.general_efficient_reservoir(t)
        shifted = None
        if kind == "tampered":
            k = max(range(len(res.r)), key=res.r.__getitem__)
            fin = list(res.fin_weights)
            fin[k] *= ref.TAMPER
            shifted = res.r[k]
            res = res_mod.Reservoir(res.r, res.init_weights, tuple(fin))
        return res_mod.verify_efficient(t, res), res_mod.average_work(res), shifted

    def check(self, op, out) -> None:
        kind, initial, final = op
        efficient, work, shifted = out
        delta_f = ref.free_energy(*initial) - ref.free_energy(*final)
        if kind == "tampered":
            ref.check_equal("tampered reservoir verdict", efficient, False)
            ref.check_close("tampered work", work, delta_f - float(shifted) * ref.ln(ref.TAMPER))
        else:
            ref.check_equal(f"{kind} reservoir verdict", efficient, True)
            ref.check_close(f"{kind} work vs free-energy difference", work, delta_f)


# ---------------------------------------------------------------------------
# curve-algebra
# ---------------------------------------------------------------------------


class CurveAlgebra:
    """Products, majorization, division and divergences of generic curves.

    Factor curves a, b (same weights) and c have k segments each for k in
    FACTOR_SIZES; every (k_ab, k_c) pair appears twice per round, once with
    b = G a for a benchmark-built Gibbs-stochastic G (verdict true, full
    scan) and once with b drawn independently (the scan can exit early).
    """

    name = "curve-algebra"
    FACTOR_SIZES = (4, 8, 12, 16)

    def make_round(self, rng: random.Random) -> list:
        ops = []
        for k_ab in self.FACTOR_SIZES:
            for k_c in self.FACTOR_SIZES:
                for feasible in (True, False):
                    a = generic_state(rng, k_ab)
                    if feasible:
                        b = (ref.apply(ref.gibbs_mixture(a[1], rng), a[0]), a[1])
                    else:
                        b = generic_state(rng, k_ab, weights=a[1])
                    ops.append((feasible, a, b, generic_state(rng, k_c)))
        return ops

    def warmup(self, ops: list) -> list:
        return ops[:2]

    def run(self, tm, op):
        _, a, b, c = op
        states, curves, div = tm.states, tm.curves, tm.divergences
        ca = curves.curve_of(states.ThermoState(*a))
        cb = curves.curve_of(states.ThermoState(*b))
        cc = curves.curve_of(states.ThermoState(*c))
        ac, bc = curves.product(ca, cc), curves.product(cb, cc)
        verdict = curves.majorizes(ac, bc)
        quotient = curves.divide(ac, cc)
        profile = [div.curve_alpha_divergence(ac, alpha) for alpha in div.DEFAULT_ALPHA_GRID]
        return ac, bc, verdict, quotient, profile

    def check(self, op, out) -> None:
        feasible, a, b, c = op
        ac, bc, verdict, quotient, profile = out
        ref_ac, ref_bc = ref.curve(*ref.tensor(a, c)), ref.curve(*ref.tensor(b, c))
        ref.check_curve("product(a, c)", ac, ref_ac)
        ref.check_curve("product(b, c)", bc, ref_bc)
        expected = ref.majorizes(ref_ac, ref_bc)
        if feasible:
            ref.check_equal("verdict on a Gibbs-stochastic image", expected, True)
        ref.check_equal("majorizes vs merge walk", verdict, expected)
        ref.check_curve("divide(product(a, c), c)", quotient, ref.curve(*a))
        for alpha, value in zip(ref.ALPHA_GRID, profile):
            expected_d = ref.divergence(alpha, *a) + ref.divergence(alpha, *c)
            ref.check_close(f"D_{alpha} additivity", value, expected_d)


# ---------------------------------------------------------------------------
# oracle-crosscheck
# ---------------------------------------------------------------------------


class OracleCrosscheck:
    """Curve criterion, LP oracle and alpha-monotonicity on small transitions.

    Small-palette transitions of every dim in DIMS, each dim eight times per
    round: four times with the final state the image under a benchmark-built
    Gibbs-stochastic matrix (known feasible), four times drawn independently.
    """

    name = "oracle-crosscheck"
    DIMS = (2, 3, 4, 5, 6, 7, 8)

    def make_round(self, rng: random.Random) -> list:
        ops = []
        for dim in self.DIMS:
            for feasible in (True, False) * 4:
                initial = palette_state(rng, dim)
                if feasible:
                    final = (ref.apply(ref.gibbs_mixture(initial[1], rng), initial[0]), initial[1])
                else:
                    final = palette_state(rng, dim, weights=initial[1])
                ops.append((feasible, initial, final))
        return ops

    def warmup(self, ops: list) -> list:
        return ops[:4]

    def run(self, tm, op):
        _, initial, final = op
        states, curves = tm.states, tm.curves
        p, q = states.ThermoState(*initial), states.ThermoState(*final)
        verdict = curves.majorizes(curves.curve_of(p), curves.curve_of(q))
        t = states.Transition(p, q)
        lp, witness = tm.oracle.lp_feasible(t)
        return verdict, lp, witness, tm.catalysis.cto_feasible(t).feasible

    def check(self, op, out) -> None:
        feasible, initial, final = op
        verdict, lp, witness, cto = out
        expected = ref.majorizes(ref.curve(*initial), ref.curve(*final))
        if feasible:
            ref.check_equal("verdict on a Gibbs-stochastic image", expected, True)
        ref.check_equal("majorizes vs merge walk", verdict, expected)
        ref.check_equal("LP verdict vs curve verdict", lp, verdict)
        if lp:
            ref.check_witness(getattr(witness, "matrix", witness), initial[1], initial[0], final[0])
        if verdict:
            ref.check_equal("cto_feasible on a thermomajorizable pair", cto, True)


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

HUGE_GAP_STATE = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1, 10**200)))


class CliSession:
    """One ``python -m thermomajor.cli`` process per operation, in a fixed round.

    ``run`` starts the process; a traced run calls ``thermomajor.cli.main``
    in-process instead (``in_process``), so the layers below are traced.
    Inputs are written once per run into ``workdir``.  A check may write a
    file that a later operation of the round reads (a built reservoir).
    """

    name = "cli-session"

    def __init__(self, workdir: Path, env: dict, seed: int, in_process: bool = False):
        self.dir = workdir
        self.env = env
        self.seed = seed
        self.in_process = in_process

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def make_round(self, rng: random.Random) -> list:
        s = palette_state(rng, 4, low=1)
        while len(ref.curve(*s)[0]) == 1:
            s = palette_state(rng, 4, low=1)  # a Gibbs state has nothing to extract
        z = sum(s[1], Fraction(0))
        lift_i = palette_state(rng, 3, low=1)
        lift_f = palette_state(rng, 3, low=1)
        while lift_f[1] == lift_i[1]:
            lift_f = palette_state(rng, 3, low=1)
        flat = (Fraction(1),) * 3
        maj_a = palette_state(rng, 4)
        cat_i = palette_state(rng, 4, low=1)
        self.states = {
            "s": s,
            "tau": (tuple(g / z for g in s[1]), s[1]),
            "lift_i": lift_i,
            "lift_f": lift_f,
            "flat_i": palette_state(rng, 3, weights=flat, low=1),
            "flat_f": palette_state(rng, 3, weights=flat, low=1),
            "maj_a": maj_a,
            "maj_b": palette_state(rng, 4, weights=maj_a[1]),
            "cat_i": cat_i,
            "cat_f": (ref.apply(ref.gibbs_mixture(cat_i[1], rng), cat_i[0]), cat_i[1]),
            "huge": HUGE_GAP_STATE,
        }
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, state in self.states.items():
            Path(self._path(name + ".json")).write_text(_to_json(state))
        f = self._path
        return [
            ("reproduce", ["reproduce", "table1"]),
            ("reproduce", ["reproduce", "example1"]),
            ("reproduce", ["reproduce", "example2"]),
            ("reproduce", ["reproduce", "engine"]),
            ("build", ["build-reservoir", "--method", "minimal", f("s.json")], ("s", "tau", "r_min")),
            ("verify", ["verify", f("s.json"), f("tau.json"), f("r_min.json")], ("s", "tau", "r_min")),
            ("build", ["build-reservoir", "--method", "general", f("lift_i.json"), f("lift_f.json")],
             ("lift_i", "lift_f", "r_gen")),
            ("verify", ["verify", f("lift_i.json"), f("lift_f.json"), f("r_gen.json")],
             ("lift_i", "lift_f", "r_gen")),
            ("build", ["build-reservoir", "--method", "product", f("flat_i.json"), f("flat_f.json")],
             ("flat_i", "flat_f", "r_prod")),
            ("verify", ["verify", f("flat_i.json"), f("flat_f.json"), f("r_prod.json")],
             ("flat_i", "flat_f", "r_prod")),
            ("verify", ["verify", f("lift_i.json"), f("lift_f.json"), f("r_bad.json")],
             ("lift_i", "lift_f", "r_bad")),
            ("majorize", ["majorize", f("maj_a.json"), f("maj_b.json")]),
            ("divergence", ["divergence", f("s.json")], "s"),
            ("catalytic", ["catalytic-check", f("cat_i.json"), f("cat_f.json")]),
            ("curve-csv", ["curve", "--format", "csv", f("s.json")]),
            ("curve-svg", ["curve", "--format", "svg", f("s.json")]),
            ("engine", ["engine", "--epsilon", "1", "--t-hot", "2", "--t-cold", "1",
                        "--curves-dir", f("engine_curves")]),
            ("oracle", ["oracle-check", "--trials", "20", "--seed", str(self.seed)]),
            # Kept failure: D_alpha of this state is finite for every alpha.
            ("divergence", ["divergence", f("huge.json")], "huge"),
        ]

    def warmup(self, ops: list) -> list:
        return ops[:1]

    def run(self, tm, op):
        argv = op[1]
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = tm.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                raise RuntimeError(traceback.format_exc()) from None
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "thermomajor.cli", *argv],
            capture_output=True, text=True, env=self.env, cwd=self.dir, timeout=120,
        )
        if "Traceback" in proc.stderr:
            raise RuntimeError(proc.stderr.strip().splitlines()[-1])
        return proc.returncode, proc.stdout

    # -- checks ------------------------------------------------------------

    def check(self, op, out) -> None:
        kind = op[0]
        code, stdout = out
        getattr(self, "_check_" + kind.replace("-", "_"))(op, code, stdout)

    def _json(self, stdout: str) -> dict:
        try:
            return json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"output is not JSON: {exc}") from None

    def _check_reproduce(self, op, code, stdout) -> None:
        ref.check_equal("reproduce exit code", code, 0)
        report = self._json(stdout)
        ref.check_equal("reproduce ok", report.get("ok"), True)
        checks = {c["name"]: c for c in report["checks"]}
        one, two = Fraction(1), Fraction(2)
        target = report["target"]
        if target == "table1":
            expected = ref.free_energy((Fraction(1, 3), Fraction(2, 3)), (one, one))
            ref.check_close("table1 work", checks["erasure_average_work"]["actual"], expected)
        elif target == "example1":
            expected = ref.free_energy((one / 2, one / 2), (two, one)) - ref.free_energy(
                (one / 3, 2 * one / 3), (two, one))
            ref.check_close("example1 work", checks["average_work"]["actual"], expected)
        elif target == "example2":
            # work minus ln(Z'/Z) is D_1(p || tau) - D_1(p' || tau')
            expected = ref.divergence(1.0, (one / 2, one / 2), (one, two)) - ref.divergence(
                1.0, (2 * one / 3, one / 3), (one, one))
            ref.check_close("example2 Z-free work", checks["z_independent_work_component"]["actual"],
                            expected)
        else:
            ref.check_close("Carnot efficiency", checks["carnot_efficiency_exact"]["actual"], 0.5)

    def _delta_f(self, names) -> float:
        return ref.free_energy(*self.states[names[0]]) - ref.free_energy(*self.states[names[1]])

    def _check_build(self, op, code, stdout) -> None:
        ref.check_equal("build-reservoir exit code", code, 0)
        payload = self._json(stdout)
        r, init_w, fin_w = ([Fraction(x) for x in payload[key]] for key in ("r", "init_weights", "fin_weights"))
        delta_f = self._delta_f(op[2])
        ref.check_close("built reservoir work", payload["average_work"], delta_f)
        ref.check_close("recomputed reservoir work", ref.work_of(r, init_w, fin_w), delta_f)
        reservoir = {key: payload[key] for key in ("r", "init_weights", "fin_weights")}
        Path(self._path(op[2][2] + ".json")).write_text(json.dumps(reservoir))
        if op[2][2] == "r_gen":
            k = max(range(len(r)), key=r.__getitem__)
            reservoir["fin_weights"][k] = str(fin_w[k] * ref.TAMPER)
            Path(self._path("r_bad.json")).write_text(json.dumps(reservoir))
            self.tamper_shift = float(r[k]) * ref.ln(ref.TAMPER)

    def _check_verify(self, op, code, stdout) -> None:
        payload = self._json(stdout)
        delta_f = self._delta_f(op[2])
        if op[2][2] == "r_bad":
            ref.check_equal("tampered verify exit code", code, 1)
            ref.check_equal("tampered verdict", payload["efficient"], False)
            ref.check_close("tampered work", payload["average_work"], delta_f - self.tamper_shift)
        else:
            ref.check_equal("verify exit code", code, 0)
            ref.check_equal("verify verdict", payload["efficient"], True)
            ref.check_close("verified work", payload["average_work"], delta_f)

    def _check_majorize(self, op, code, stdout) -> None:
        expected = ref.majorizes(ref.curve(*self.states["maj_a"]), ref.curve(*self.states["maj_b"]))
        ref.check_equal("majorize exit code", code, 0 if expected else 1)
        ref.check_equal("majorize verdict", self._json(stdout)["majorizes"], expected)

    def _check_divergence(self, op, code, stdout) -> None:
        ref.check_equal("divergence exit code", code, 0)
        payload = self._json(stdout)
        state = self.states[op[2]]
        for alpha, value in zip(payload["alpha"], payload["value"]):
            ref.check_close(f"D_{alpha}", float(value), ref.divergence(float(alpha), *state))

    def _check_catalytic(self, op, code, stdout) -> None:
        ref.check_equal("catalytic-check exit code", code, 0)
        payload = self._json(stdout)
        ref.check_equal("catalytic verdict on a Gibbs-stochastic image", payload["feasible"], True)
        for row in payload["witnessed"]:
            alpha = float(row["alpha"])
            for key, name in (("d_initial", "cat_i"), ("d_final", "cat_f")):
                expected = ref.divergence(alpha, *self.states[name])
                ref.check_close(f"witnessed D_{alpha}", float(row[key]), expected)

    def _elbows(self):
        return ref.elbows(ref.curve(*self.states["s"]))

    def _check_curve_csv(self, op, code, stdout) -> None:
        ref.check_equal("curve exit code", code, 0)
        rows = stdout.strip().splitlines()[1:]
        points = [tuple(Fraction(v) for v in row.split(",")[:2]) for row in rows]
        ref.check_equal("curve CSV elbows", points, self._elbows())

    def _check_curve_svg(self, op, code, stdout) -> None:
        ref.check_equal("curve svg exit code", code, 0)
        if not stdout.startswith("<svg") or "<polyline" not in stdout:
            raise CheckFailed("curve svg output is not an SVG polyline")
        points = stdout.split('points="', 1)[1].split('"', 1)[0].split()
        ref.check_equal("SVG polyline points", len(points), len(self._elbows()))

    def _check_engine(self, op, code, stdout) -> None:
        ref.check_equal("engine exit code", code, 0)
        payload = self._json(stdout)
        ref.check_close("engine efficiency 1 - T_c/T_h", payload["eta"], 1.0 - 1.0 / 2.0)
        ref.check_equal("strokes certified", (payload["hot_step_certified"], payload["cold_step_certified"]),
                        (True, True))
        written = sorted(p.name for p in Path(op[1][-1]).glob("*.csv"))
        ref.check_equal("engine stage curve files", len(written), 4)

    def _check_oracle(self, op, code, stdout) -> None:
        ref.check_equal("oracle-check exit code", code, 0)
        payload = self._json(stdout)
        ref.check_equal("oracle-check agreements", payload["agreements"], payload["trials"])
        ref.check_equal("oracle-check trials", payload["trials"], 20)
