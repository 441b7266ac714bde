"""The lazy package and what each CLI subcommand imports."""

import importlib
import json
import pkgutil
import sys
import types

import pytest

import thermomajor
from thermomajor.cli import main
from thermomajor.states import gibbs_of, make_state, state_to_dict

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

_ALL = {
    "catalysis", "curves", "divergences", "engine", "errors", "oracle", "reproduce", "reservoirs",
    "states",
}
_CURVES_ONLY = _ALL - {"errors", "states", "curves"}


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
    paths["initial"].write_text(json.dumps(state_to_dict(initial)))
    paths["final"].write_text(json.dumps(state_to_dict(gibbs_of(initial))))
    paths["reservoir"] = tmp_path / "reservoir.json"
    argv = ["build-reservoir", "--method", "general", str(paths["initial"]), str(paths["final"])]
    assert main([*argv, "-o", str(paths["reservoir"])]) == 0
    return {name: str(path) for name, path in paths.items()}


class TestImportFootprint:
    """Each subcommand, in its own process, loads only the modules it runs."""

    @pytest.mark.parametrize(
        "argv, forbidden",
        [
            (["curve", "{initial}"], _CURVES_ONLY),
            (["majorize", "{initial}", "{final}"], _CURVES_ONLY),
            (["divergence", "{initial}"], _CURVES_ONLY - {"divergences"}),
            (
                ["build-reservoir", "--method", "general", "{initial}", "{final}"],
                {"divergences", "catalysis", "oracle", "engine", "reproduce"},
            ),
            (
                ["verify", "{initial}", "{final}", "{reservoir}"],
                {"divergences", "catalysis", "oracle", "engine", "reproduce"},
            ),
            (
                ["catalytic-check", "{initial}", "{final}"],
                {"reservoirs", "oracle", "engine", "reproduce"},
            ),
            (["oracle-check", "--trials", "3"], {"reservoirs", "catalysis", "engine", "reproduce"}),
            (["reproduce", "table1"], {"divergences", "catalysis", "oracle", "engine"}),
            (
                ["engine", "--epsilon", "1", "--t-hot", "2", "--t-cold", "1"],
                {"divergences", "catalysis", "oracle", "reproduce"},
            ),
            (["reproduce", "engine"], {"divergences", "catalysis", "oracle"}),
        ],
        ids=["curve", "majorize", "divergence", "build-reservoir", "verify", "catalytic-check",
             "oracle-check", "reproduce", "engine", "reproduce-engine"],
    )
    def test_subcommand_loads_only_what_it_runs(self, cli_files, bare_modules, argv, forbidden):
        proc = run_python("-c", PROBE, *(arg.format(**cli_files) for arg in argv), timeout=10)
        assert proc.returncode == 0, proc.stderr
        modules = set(json.loads(proc.stderr.splitlines()[-1]))
        loaded = {m[len("thermomajor."):] for m in modules if m.startswith("thermomajor.")}
        assert {"errors", "states"} <= loaded
        assert not loaded & forbidden
        assert not (modules - bare_modules) & _STARTUP_HEAVY

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
