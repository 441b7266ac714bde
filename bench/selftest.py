"""Self-test of the checks: each must pass a right output and fail a planted wrong one.

The right outputs are built from :mod:`reference` alone, so the self-test
runs without the program.  ``run.py`` runs it before every workload; run it
by hand from the repository root with

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import reference as ref
from reference import CheckFailed
from workloads import CliSession, CurveAlgebra, OracleCrosscheck, ReservoirPipeline, generic_state, palette_state


def _program_curve(c):
    """A stand-in for a program ``Curve`` holding the reference curve ``c``."""
    segments = tuple(SimpleNamespace(height=h, slope=s) for h, s in c[0])
    return SimpleNamespace(segments=segments, total_width=c[1])


def _reservoir_cases(rng):
    w = ReservoirPipeline()
    initial = generic_state(rng, 4)
    final = generic_state(rng, 4, weights=initial[1])
    delta_f = ref.free_energy(*initial) - ref.free_energy(*final)
    op = ("general", initial, final)
    shift = Fraction(1, 3)
    tampered_work = delta_f - float(shift) * ref.ln(ref.TAMPER)
    tampered = ("tampered", initial, final)
    return [
        ("reservoir verdict", w.check, op, (True, delta_f, None), (False, delta_f, None)),
        ("reservoir work off by 1e-6", w.check, op, (True, delta_f, None), (True, delta_f + 1e-6, None)),
        ("tampered verdict flipped", w.check, tampered, (False, tampered_work, shift),
         (True, tampered_work, shift)),
        ("tampered work left at the free-energy difference", w.check, tampered,
         (False, tampered_work, shift), (False, delta_f, shift)),
    ]


def _curve_cases(rng):
    w = CurveAlgebra()
    a = generic_state(rng, 4)
    b = (ref.apply(ref.gibbs_mixture(a[1], rng), a[0]), a[1])
    c = generic_state(rng, 3)
    op = (True, a, b, c)
    ac = _program_curve(ref.curve(*ref.tensor(a, c)))
    bc = _program_curve(ref.curve(*ref.tensor(b, c)))
    quotient = _program_curve(ref.curve(*a))
    profile = [ref.divergence(x, *a) + ref.divergence(x, *c) for x in ref.ALPHA_GRID]
    right = (ac, bc, True, quotient, profile)
    off = list(profile)
    off[4] += 1e-6
    return [
        ("majorizes verdict flipped", w.check, op, right, (ac, bc, False, quotient, profile)),
        ("quotient of the wrong curve", w.check, op, right,
         (ac, bc, True, _program_curve(ref.curve(*b)), profile)),
        ("no quotient", w.check, op, right, (ac, bc, True, None, profile)),
        ("product of the wrong curve", w.check, op, right, (bc, bc, True, quotient, profile)),
        ("D_alpha off by 1e-6", w.check, op, right, (ac, bc, True, quotient, off)),
    ]


def _oracle_cases(rng):
    w = OracleCrosscheck()
    initial = palette_state(rng, 4, low=1)
    matrix = ref.gibbs_mixture(initial[1], rng)
    final = (ref.apply(matrix, initial[0]), initial[1])
    op = (True, initial, final)
    corrupted = [list(row) for row in matrix]
    corrupted[1][0] += Fraction(1, 10**6)
    return [
        ("curve verdict flipped", w.check, op, (True, True, matrix, True), (False, True, matrix, True)),
        ("LP verdict flipped", w.check, op, (True, True, matrix, True), (True, False, None, True)),
        ("corrupted witness entry", w.check, op, (True, True, matrix, True),
         (True, True, corrupted, True)),
        ("cto verdict flipped", w.check, op, (True, True, matrix, True), (True, True, matrix, False)),
    ]


def _cli_cases(rng, workdir: Path):
    w = CliSession(workdir, {}, 0)
    ops = {op[1][0] + ":" + op[1][-1]: op for op in w.make_round(rng)}
    states = w.states
    one = Fraction(1)
    table1 = ref.free_energy((one / 3, 2 * one / 3), (one, one))

    def reproduce(actual):
        checks = [{"name": "erasure_average_work", "actual": actual}]
        return json.dumps({"target": "table1", "ok": True, "checks": checks})

    alphas = list(ref.ALPHA_GRID[:-1])
    values = [ref.divergence(x, *states["s"]) for x in alphas]

    def div(shift):
        return json.dumps({"alpha": alphas, "value": [values[0] + shift, *values[1:]]})

    delta_f = ref.free_energy(*states["s"]) - ref.free_energy(*states["tau"])

    def verify(efficient, work):
        return json.dumps({"efficient": efficient, "average_work": work})

    oracle = ops["oracle-check:0"]
    verify_min = ops["verify:" + str(workdir / "r_min.json")]
    divergence = ops["divergence:" + str(workdir / "s.json")]
    return [
        ("reproduce work off by 1e-6", w.check, ops["reproduce:table1"], (0, reproduce(table1)),
         (0, reproduce(table1 + 1e-6))),
        ("verify exit code", w.check, verify_min, (0, verify(True, delta_f)), (1, verify(True, delta_f))),
        ("verify work off by 1e-6", w.check, verify_min, (0, verify(True, delta_f)),
         (0, verify(True, delta_f + 1e-6))),
        ("divergence value off by 1e-6", w.check, divergence, (0, div(0.0)), (0, div(1e-6))),
        ("oracle-check disagreement", w.check, oracle,
         (0, json.dumps({"trials": 20, "agreements": 20})), (0, json.dumps({"trials": 20, "agreements": 19}))),
    ]


def run(workdir: Path) -> list[tuple[str, bool, bool]]:
    """(case, right output passed, planted output failed) for every case."""
    rng = random.Random(0)
    cases = _reservoir_cases(rng) + _curve_cases(rng) + _oracle_cases(rng)
    try:
        cases += _cli_cases(rng, workdir)
        results = []
        for name, check, op, right, planted in cases:
            outcome = []
            for out in (right, planted):
                try:
                    check(op, out)
                    outcome.append(True)
                except CheckFailed:
                    outcome.append(False)
            results.append((name, outcome[0], not outcome[1]))
        return results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    results = run(Path.cwd() / ".bench_out" / "selftest")
    for name, passed, caught in results:
        print(f"{'ok ' if passed and caught else 'BAD'} {name}: right output "
              f"{'passes' if passed else 'FAILS'}, planted output {'fails' if caught else 'PASSES'}")
    return 0 if all(p and c for _, p, c in results) else 1


if __name__ == "__main__":
    sys.exit(main())
