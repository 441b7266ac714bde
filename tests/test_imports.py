"""The lazy package and what each CLI subcommand imports."""

import importlib
import json
import pkgutil
import sys
import types
from fractions import Fraction

import pytest

import thermomajor
from thermomajor.cli import _dump, main
from thermomajor.states import gibbs_of, make_state

from conftest import run_python

# The public API: loading on first use must keep every name.
PUBLIC = [
    "AlphaProfile", "CtoVerdict", "Curve", "DEFAULT_ALPHA_GRID", "DimensionCapExceeded",
    "DimensionMismatch", "EngineReport", "EngineSpec", "GibbsInput", "InvalidCurve",
    "InvalidOrder", "InvalidTemperatures", "LevelRow", "NegativeProbability", "NonPositiveWeight",
    "NontrivialHamiltonian", "OutsideDomain", "ParseError", "ProbSumNotOne",
    "ReproductionMismatch", "Reservoir", "Segment", "ThermoState", "ThermomajorError",
    "Transition", "WidthMismatch", "ZeroProbability", "alpha_free_energy", "alpha_profile",
    "alt_product_reservoir", "as_rat", "average_work", "breakpoints", "canonical_curve",
    "characterize_formation_family", "clock_lift", "coincide", "cto_feasible",
    "curve_alpha_divergence", "curve_of", "dimension_lower_bound", "divide", "entropy_production",
    "evaluate", "general_efficient_reservoir", "gibbs_of", "identity_curve",
    "joint_states", "lp_feasible", "majorizes", "make_state",
    "minimal_extraction_reservoir", "num_distinct_slopes", "product",
    "random_rational_gibbs_matrix", "realize_state", "recovery_map", "renyi",
    "reservoir_level_table", "run_carnot", "shannon_entropy", "tensor",
    "two_level_extraction_bound", "two_level_formation_bound", "verify_efficient",
]


class TestLazyPackage:
    def test_all_is_the_public_api(self):
        assert sorted(thermomajor.__all__) == PUBLIC

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from thermomajor import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC

    def test_each_name_is_its_modules_object(self):
        for name in PUBLIC:
            short = thermomajor._MODULE_OF[name]
            value = getattr(thermomajor, name)
            assert value is getattr(importlib.import_module(f"thermomajor.{short}"), name), name
            # Classes and functions say where they are defined.
            if getattr(value, "__module__", "").startswith("thermomajor."):
                assert value.__module__ == f"thermomajor.{short}", name

    def test_dir_lists_every_name(self):
        assert set(PUBLIC) <= set(dir(thermomajor))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            thermomajor.no_such_name

    def test_the_package_table_is_the_one_list_of_public_names(self):
        """No module keeps a list of its own to drift from ``_EXPORTS``, and
        a star import of a module still binds every name listed for it."""
        for info in pkgutil.iter_modules(thermomajor.__path__):
            module = importlib.import_module(f"thermomajor.{info.name}")
            assert not hasattr(module, "__all__"), info.name
        for short, names in thermomajor._EXPORTS.items():
            namespace = {}
            exec(f"from thermomajor.{short} import *", namespace)
            assert set(names) <= set(namespace), short

    def test_from_import_of_a_submodule(self):
        from thermomajor import curves

        assert isinstance(curves, types.ModuleType)
        assert curves is sys.modules["thermomajor.curves"]


# Runs the CLI as ``python -m thermomajor.cli`` does (runpy imports the
# package first), exits with its code, and prints every module loaded as the
# last line of stderr.
PROBE = """
import json, runpy, sys
try:
    runpy.run_module("thermomajor.cli", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""

# Code generation and introspection no command needs; each would add several
# milliseconds to every process.
_STARTUP_HEAVY = {"dataclasses", "inspect"}

# The library modules a command may load beyond ``errors`` and ``states``,
# which every command and ``main``'s error handling use.
_LIBRARY = {
    "catalysis", "curves", "divergences", "engine", "oracle", "reproduce", "reservoirs",
}
_REPRODUCE = {"reproduce", "reservoirs"}
ENGINE = ["engine", "--epsilon", "1", "--t-hot", "2", "--t-cold", "1"]


@pytest.fixture(scope="module")
def bare_modules():
    """The modules a bare interpreter loads in this environment (site included)."""
    code = "import sys; m = sorted(sys.modules); import json; print(json.dumps(m))"
    proc = run_python("-c", code, timeout=10)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.fixture(scope="module")
def bare_s_modules():
    """The modules ``python -S`` loads with the standard modules the CLI
    imports itself."""
    code = "import argparse, fractions, json, sys; print(json.dumps(sorted(sys.modules)))"
    proc = run_python("-S", "-c", code, timeout=10)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.fixture
def cli_files(tmp_path):
    initial = make_state(("1/2", "1/3", "1/6"), (1, 2, "1/2"))
    paths = {"initial": tmp_path / "initial.json", "final": tmp_path / "final.json"}
    paths["initial"].write_text(_dump(initial))
    paths["final"].write_text(_dump(gibbs_of(initial)))
    paths["reservoir"] = tmp_path / "reservoir.json"
    paths["dir"] = tmp_path / "curves"
    argv = ["build-reservoir", "--method", "general", str(paths["initial"]), str(paths["final"])]
    assert main([*argv, "-o", str(paths["reservoir"])]) == 0
    return {name: str(path) for name, path in paths.items()}


class TestImportFootprint:
    """Each subcommand, in its own process, loads exactly the library modules
    it runs: every one beyond ``errors`` and ``states`` is listed, so a
    module-level import that loads ``curves`` (or any other) for code the
    command never runs fails here."""

    @pytest.mark.parametrize(
        "argv, runs",
        [
            (["curve", "{initial}"], {"curves"}),
            (["majorize", "{initial}", "{final}"], {"curves"}),
            (["divergence", "{initial}"], {"divergences"}),
            (["build-reservoir", "--method", "general", "{initial}", "{final}"], {"reservoirs"}),
            (["verify", "{initial}", "{final}", "{reservoir}"], {"reservoirs"}),
            (["catalytic-check", "{initial}", "{final}"], {"divergences", "catalysis"}),
            (["oracle-check", "--trials", "3"], {"oracle", "curves"}),
            (["reproduce", "table1"], _REPRODUCE),
            (["reproduce", "example1"], _REPRODUCE),
            (["reproduce", "example2"], _REPRODUCE),
            (ENGINE, {"engine", "reservoirs"}),
            ([*ENGINE, "--curves-dir", "{dir}"], {"engine", "reservoirs", "curves"}),
            (["reproduce", "engine"], _REPRODUCE | {"engine"}),
        ],
        ids=["curve", "majorize", "divergence", "build-reservoir", "verify", "catalytic-check",
             "oracle-check", "reproduce", "reproduce-example1", "reproduce-example2", "engine",
             "engine-curves", "reproduce-engine"],
    )
    def test_subcommand_loads_only_what_it_runs(self, cli_files, bare_modules, argv, runs):
        proc = run_python("-c", PROBE, *(arg.format(**cli_files) for arg in argv), timeout=10)
        assert proc.returncode == 0, proc.stderr
        modules = set(json.loads(proc.stderr.splitlines()[-1]))
        loaded = {m[len("thermomajor."):] for m in modules if m.startswith("thermomajor.")}
        assert {"errors", "states"} <= loaded
        assert loaded & _LIBRARY == runs
        assert not (modules - bare_modules) & _STARTUP_HEAVY

    def test_verify_loads_curves_only_off_the_shift_path(self, cli_files, tmp_path):
        """A tampered initial weight makes the reservoir's initial work state
        no shift of the final system state, so ``verify_efficient`` falls back
        to comparing measures, and ``curves`` loads on that use."""
        with open(cli_files["reservoir"]) as fh:
            reservoir = json.load(fh)
        weight = Fraction(reservoir["init_weights"][0]) * Fraction(10001, 10000)
        reservoir["init_weights"][0] = str(weight)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(reservoir))
        argv = ["verify", cli_files["initial"], cli_files["final"], str(tampered)]
        proc = run_python("-c", PROBE, *argv, timeout=10)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["efficient"] is False
        modules = set(json.loads(proc.stderr.splitlines()[-1]))
        assert "thermomajor.curves" in modules

    def test_only_oracle_check_loads_random(self, cli_files):
        """``build-reservoir`` draws nothing at random, so it loads no
        ``random``.  ``-S`` leaves ``site`` out: a ``.pth`` hook in an
        installed package can import ``random`` into every interpreter,
        which the bare-interpreter baseline would then hide."""
        argv = ["build-reservoir", "--method", "general", cli_files["initial"], cli_files["final"]]
        proc = run_python("-S", "-c", PROBE, *argv, timeout=10)
        assert proc.returncode == 0, proc.stderr
        modules = set(json.loads(proc.stderr.splitlines()[-1]))
        assert "thermomajor.reservoirs" in modules
        assert "random" not in modules

    @pytest.mark.parametrize(
        "argv",
        [
            ["majorize", "{initial}", "{final}"],
            ["verify", "{initial}", "{final}", "{reservoir}"],
            ["build-reservoir", "--method", "general", "{initial}", "{final}"],
            ["catalytic-check", "{initial}", "{final}"],
            ["engine", "--epsilon", "1", "--t-hot", "2", "--t-cold", "1"],
            ["reproduce", "table1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_command_loads_typing_or_pathlib(self, cli_files, bare_s_modules, argv):
        """Annotations need neither module, and file I/O needs only ``open``
        and ``os``.  Under ``-S``, as above."""
        argv = [arg.format(**cli_files) for arg in argv]
        proc = run_python("-S", "-c", PROBE, *argv, timeout=10)
        assert proc.returncode == 0, proc.stderr
        modules = set(json.loads(proc.stderr.splitlines()[-1]))
        assert "thermomajor.states" in modules
        assert not (modules - bare_s_modules) & {"typing", "pathlib"}

    def test_bare_import_loads_no_submodule(self):
        code = "import sys, thermomajor; print(sorted(m for m in sys.modules if 'thermo' in m))"
        proc = run_python("-c", code, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['thermomajor']"
