"""Command-line front end: formats, exit codes, determinism."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thermomajor import cli
from thermomajor.cli import main
from thermomajor.curves import breakpoints, curve_of
from thermomajor.divergences import DEFAULT_ALPHA_GRID
from thermomajor.reservoirs import Reservoir
from thermomajor.states import make_state, state_from_dict, state_to_dict

from conftest import run_python


@pytest.fixture
def state_files(tmp_path):
    paths = {}
    for name, state in {
        "mixed": make_state(("1/3", "2/3"), (1, 1)),
        "pure": make_state((1, 0), (1, 1)),
        "biased": make_state(("3/4", "1/4"), (1, 1)),
        "tilted_init": make_state(("1/2", "1/2"), (2, 1)),
        "tilted_fin": make_state(("1/3", "2/3"), (2, 1)),
    }.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(state_to_dict(state)))
        paths[name] = str(path)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestCurve:
    def test_csv_breakpoints(self, capsys, state_files):
        code, out = run(capsys, ["curve", state_files["mixed"]])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,x_decimal,y_decimal"
        assert lines[1].startswith("0,0,")
        assert lines[2].startswith("1,2/3,")
        assert lines[3].startswith("2,1,")

    def test_gibbs_curve_is_two_points(self, capsys, tmp_path):
        path = tmp_path / "gibbs.json"
        path.write_text(json.dumps(state_to_dict(make_state(("1/2", "1/2"), (1, 1)))))
        code, out = run(capsys, ["curve", str(path)])
        assert code == 0
        assert len(out.strip().splitlines()) == 3  # header + 2 points

    def test_svg_output(self, capsys, state_files):
        code, out = run(capsys, ["curve", state_files["mixed"], "--format", "svg"])
        assert code == 0
        assert out.startswith("<svg")
        assert 'width="800" height="500"' in out
        assert "<polyline" in out

    def test_malformed_rational_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"probs": ["1/0", "1"], "weights": [1, 1]}')
        code, _ = run(capsys, ["curve", str(path)])
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _ = run(capsys, ["curve", "nope.json"])
        assert code == 2

    @pytest.mark.parametrize(
        "text", ["{not json", '{"probs": ["1/0", "1"], "weights": [1, 1]}']
    )
    def test_error_names_path_once(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["curve", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: ")
        assert err.count(str(path)) == 1

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_width_beyond_float_range(self, capsys, tmp_path, fmt):
        path = tmp_path / "huge.json"
        data = {"probs": ["1/2", "1/2"], "weights": ["1e400", "1"]}
        path.write_text(json.dumps(data))
        code = main(["curve", str(path), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        if fmt == "svg":
            assert "<polyline" in captured.out
            return
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        exact = [(Fraction(x), Fraction(y)) for x, y, _, _ in rows]
        assert exact == breakpoints(curve_of(state_from_dict(data)))
        assert [row[2] for row in rows] == ["0.0", "1.0", "inf"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 100000 + "]" * 100000, "JSON nested too deeply"),
            (
                json.dumps({"probs": ["1/2", "1/2"], "weights": ["1", "1e999999999"]}),
                "weights[1]: not a rational: '1e999999999' (decimal exponent beyond 4300)",
            ),
            (
                b"\xff\xfe{}",
                "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            ),
        ],
        ids=["deep-nesting", "huge-exponent", "not-utf-8"],
    )
    def test_hostile_input_exits_2(self, tmp_path, text, message):
        path = tmp_path / "hostile.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        proc = run_python("-m", "thermomajor.cli", "curve", str(path), timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"input error: {path}: {message}\n"


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [["curve"], ["curve", "--format", "svg"], ["build-reservoir", "--method", "minimal"]],
        ids=["csv", "svg", "build-reservoir"],
    )
    def test_output_beyond_digit_limit_exits_2(self, tmp_path, argv):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"probs": ["1/2", "1/2"], "weights": ["1", "1e4300"]}))
        proc = run_python("-m", "thermomajor.cli", *argv, str(path), timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: an output rational has more than 4300 digits, "
            "the limit for integer string conversion\n"
        )

    @pytest.mark.parametrize(
        "command, files, message",
        [
            ("curve", [{"probs": ["-1e-4300", "1"], "weights": [1, 1]}],
             "input error: {0}: probability {beyond} is negative"),
            ("curve", [{"probs": ["1/2", "1/2"], "weights": ["-1e-4300", "1"]}],
             "input error: {0}: weight {beyond} is not positive"),
            ("curve", [{"probs": ["1e-4300", "1e-4299"], "weights": [1, 1]}],
             "input error: {0}: probabilities sum to {beyond}, not 1"),
            ("majorize",
             [{"probs": ["1/2", "1/2"], "weights": [1, 2]},
              {"probs": ["1/2", "1/2"], "weights": ["1e4000", "1e-4000"]}],
             "error: widths differ: 3 vs {beyond}; "
             "curves from different Hamiltonians are not comparable"),
            ("verify",
             [{"probs": ["1/2", "1/2"], "weights": [1, 1]}] * 2
             + [{"r": ["1"], "init_weights": ["-1e-4300"], "fin_weights": ["1"]}],
             "input error: {2}: reservoir weight {beyond} must be positive"),
        ],
        ids=["negative-probability", "non-positive-weight", "sum", "widths", "reservoir-weight"],
    )
    def test_error_message_beyond_digit_limit_exits_2(
        self, capsys, tmp_path, command, files, message
    ):
        """A message naming a rational beyond the digit limit shows the
        limit in its place: exit 2, not an internal error."""
        paths = []
        for index, data in enumerate(files):
            path = tmp_path / f"{index}.json"
            path.write_text(json.dumps(data))
            paths.append(str(path))
        assert main([command, *paths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        beyond = "(a rational of more than 4300 digits)"
        assert captured.err == message.format(*paths, beyond=beyond) + "\n"

    def test_unexpected_exception_exits_4(self, capsys, monkeypatch, state_files):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_curve", boom)
        assert main(["curve", state_files["mixed"]]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: boom\n"


class TestMajorize:
    def test_true_direction(self, capsys, state_files):
        code, out = run(capsys, ["majorize", state_files["pure"], state_files["mixed"]])
        assert code == 0
        assert json.loads(out) == {"majorizes": True}

    def test_false_direction(self, capsys, state_files):
        code, out = run(capsys, ["majorize", state_files["mixed"], state_files["pure"]])
        assert code == 1
        assert json.loads(out) == {"majorizes": False}

    def test_invalid_state_names_its_path_once(self, capsys, state_files, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"probs": ["1/2", "1/3"], "weights": [1, 1]}')
        assert main(["majorize", state_files["mixed"], str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: ")
        assert err.count(str(path)) == 1
        assert "5/6" in err


class TestDivergence:
    def test_profile_round_trips(self, capsys, state_files):
        code, out = run(capsys, ["divergence", state_files["biased"]])
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"][-1] == "inf"
        assert len(payload["alpha"]) == len(payload["value"])

    def test_alpha_grid_flag(self, capsys, state_files):
        code, out = run(
            capsys,
            ["divergence", state_files["biased"], "--alpha-grid", "0,1,inf"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == [0.0, 1.0, "inf"]

    def test_environment_sets_no_grid(self, capsys, state_files, monkeypatch):
        argv = ["divergence", state_files["biased"]]
        monkeypatch.delenv("THERMO_ALPHA_GRID", raising=False)
        plain = run(capsys, argv)
        monkeypatch.setenv("THERMO_ALPHA_GRID", "0.5,2")
        assert run(capsys, argv) == plain
        assert plain[0] == 0
        assert len(json.loads(plain[1])["alpha"]) == len(DEFAULT_ALPHA_GRID)

    @pytest.mark.parametrize(
        "argv",
        [
            ["divergence", "biased", "--alpha-grid", "nan"],
            ["catalytic-check", "biased", "biased", "--alpha-grid=-inf"],
        ],
        ids=["flag-nan", "catalytic-flag-minus-inf"],
    )
    def test_nan_and_minus_inf_orders_exit_2(self, capsys, state_files, argv):
        argv = [state_files.get(arg, arg) for arg in argv]
        code, out = run(capsys, argv)
        assert code == 2
        assert out == ""

    def test_order_refused_by_the_library_exits_2(self, capsys, state_files):
        # --nonnegative-only drops negative reals only, so nan reaches the
        # library's one order check and comes back as an input error.
        argv = ["catalytic-check", state_files["biased"], state_files["mixed"]]
        code = main(argv + ["--nonnegative-only", "--alpha-grid", "0,nan"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "alpha must be a real number or inf, got nan" in captured.err

    def test_tiny_weight_profile_is_finite(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        state = make_state(("1/2", "1/2"), (1, Fraction(1, 10**200)))
        path.write_text(json.dumps(state_to_dict(state)))
        code, out = run(capsys, ["divergence", str(path)])
        assert code == 0
        values = json.loads(out)["value"]
        assert len(values) == len(DEFAULT_ALPHA_GRID)
        assert all(math.isfinite(v) for v in values)
        d4 = values[DEFAULT_ALPHA_GRID.index(4.0)]
        assert abs(d4 - (200 * math.log(10) - 4 / 3 * math.log(2))) <= 1e-10


class TestBuildVerify:
    def test_minimal_build_then_verify(self, capsys, state_files, tmp_path):
        res_path = tmp_path / "res.json"
        code, out = run(
            capsys,
            ["build-reservoir", "--method", "minimal", state_files["biased"], "-o", str(res_path)],
        )
        assert code == 0
        payload = json.loads(res_path.read_text())
        assert payload["r"] == ["3/4", "1/4"]
        gibbs_path = tmp_path / "gibbs.json"
        gibbs_path.write_text(json.dumps(state_to_dict(make_state(("1/2", "1/2"), (1, 1)))))
        code, out = run(
            capsys,
            ["verify", state_files["biased"], str(gibbs_path), str(res_path)],
        )
        assert code == 0
        assert json.loads(out)["efficient"] is True

    def test_general_build(self, capsys, state_files):
        code, out = run(
            capsys,
            [
                "build-reservoir",
                "--method",
                "general",
                state_files["tilted_init"],
                state_files["tilted_fin"],
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["r"] == ["1/3", "1/6", "1/2"]
        assert payload["init_weights"] == ["1", "1/8", "3/8"]

    @pytest.mark.parametrize("anchor, weight", [([], "1"), (["--anchor", "5/7"], "5/7")])
    def test_equal_endpoints_build_one_level(self, capsys, state_files, anchor, weight):
        argv = ["build-reservoir", "--method", "general", *anchor]
        code, out = run(capsys, [*argv, state_files["tilted_init"], state_files["tilted_init"]])
        assert code == 0
        assert out == (
            "{\n"
            '  "average_work": 0.0,\n'
            f'  "fin_weights": [\n    "{weight}"\n  ],\n'
            f'  "init_weights": [\n    "{weight}"\n  ],\n'
            '  "r": [\n    "1"\n  ]\n'
            "}\n"
        )

    def test_product_build(self, capsys, state_files):
        code, out = run(
            capsys,
            [
                "build-reservoir",
                "--method",
                "product",
                state_files["mixed"],
                state_files["pure"],
            ],
        )
        assert code == 2  # pure state has a zero probability

    def test_inefficient_reservoir_exits_1(self, capsys, state_files, tmp_path):
        res_path = tmp_path / "res.json"
        res_path.write_text(
            json.dumps({"r": ["1"], "init_weights": ["1"], "fin_weights": ["2"]})
        )
        gibbs_path = tmp_path / "gibbs.json"
        gibbs_path.write_text(json.dumps(state_to_dict(make_state(("1/2", "1/2"), (1, 1)))))
        code, out = run(
            capsys,
            ["verify", state_files["biased"], str(gibbs_path), str(res_path)],
        )
        assert code == 1
        assert json.loads(out)["efficient"] is False

    @pytest.mark.parametrize("field", ["r", "init_weights", "fin_weights"])
    def test_reservoir_string_field_exits_2(self, capsys, state_files, tmp_path, field):
        fields = {"r": ["1"], "init_weights": ["1"], "fin_weights": ["1"]}
        fields[field] = "1"
        res_path = tmp_path / "res.json"
        res_path.write_text(json.dumps(fields))
        code = main(["verify", state_files["mixed"], state_files["mixed"], str(res_path)])
        assert code == 2
        assert capsys.readouterr().out == ""


class TestCatalyticCheck:
    def test_feasible_direction(self, capsys, state_files, tmp_path):
        gibbs_path = tmp_path / "gibbs.json"
        gibbs_path.write_text(json.dumps(state_to_dict(make_state(("1/2", "1/2"), (1, 1)))))
        code, out = run(
            capsys, ["catalytic-check", state_files["mixed"], str(gibbs_path)]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert payload["grid_only"] is True

    def test_infeasible_direction(self, capsys, state_files, tmp_path):
        gibbs_path = tmp_path / "gibbs.json"
        gibbs_path.write_text(json.dumps(state_to_dict(make_state(("1/2", "1/2"), (1, 1)))))
        code, out = run(
            capsys, ["catalytic-check", str(gibbs_path), state_files["mixed"]]
        )
        assert code == 1
        assert json.loads(out)["feasible"] is False

    def test_grid_emptied_by_nonnegative_only_exits_2(self, capsys, state_files, tmp_path):
        gibbs_path = tmp_path / "gibbs.json"
        gibbs_path.write_text(json.dumps(state_to_dict(make_state(("1/2", "1/2"), (1, 1)))))
        argv = ["catalytic-check", "--nonnegative-only", "--alpha-grid=-1,-2"]
        code = main([*argv, str(gibbs_path), state_files["mixed"]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "alpha grid is empty after dropping negative orders" in captured.err

    def test_differing_weights_exit_2(self, capsys, state_files):
        """No clock lift here: the two states must share their weights."""
        code = main(["catalytic-check", state_files["mixed"], state_files["tilted_init"]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "share the same Gibbs weights" in captured.err


class TestOracleCheck:
    def test_small_run_agrees(self, capsys):
        code, out = run(capsys, ["oracle-check", "--trials", "30", "--seed", "7"])
        assert code == 0
        payload = json.loads(out)
        assert payload["agreements"] == 30
        assert payload["disagreements"] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--dims", ""],
            ["--dims", "2,x"],
            ["--dims", "9"],
            ["--trials", "0"],
            ["--trials", "-1"],
        ],
    )
    def test_out_of_range_input_exits_2(self, capsys, argv):
        code, out = run(capsys, ["oracle-check", *argv])
        assert code == 2
        assert out == ""

    # In a subprocess with a timeout, so that a hang fails the test.
    @pytest.mark.parametrize("dims", ["0", "3,-1"])
    def test_empty_dimension_exits_2_without_hanging(self, dims):
        proc = run_python("-m", "thermomajor.cli", "oracle-check", "--dims", dims, timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr


class TestEngine:
    def test_report_and_stage_curves(self, capsys, tmp_path):
        curves_dir = tmp_path / "curves"
        code, out = run(
            capsys,
            [
                "engine",
                "--epsilon",
                "1",
                "--t-hot",
                "2",
                "--t-cold",
                "1",
                "--curves-dir",
                str(curves_dir),
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["eta"] == 0.5
        assert payload["hot_step_certified"] is True
        assert len(payload["reservoir_levels"]) == 4
        files = sorted(p.name for p in curves_dir.iterdir())
        assert files == [
            "stage1_cold_equilibrium.csv",
            "stage2_cold_populations_hot_bath.csv",
            "stage3_hot_equilibrium.csv",
            "stage4_hot_populations_cold_bath.csv",
        ]

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output-file"])
    def test_unwritable_curves_dir_emits_nothing(self, capsys, tmp_path, to_file):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        report = tmp_path / "report.json"
        argv = ["engine", "--epsilon", "1", "--t-hot", "2", "--t-cold", "1"]
        argv += ["--curves-dir", str(blocker)] + (["-o", str(report)] if to_file else [])
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("io error: ")
        assert not report.exists()

    def test_boltzmann_factor_below_the_cap_exits_2(self, capsys):
        # e^-1000 rounds to 0 at the 10^6 denominator cap.
        code = main(["engine", "--epsilon", "1", "--t-hot", "1e-3", "--t-cold", "1e-4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "rounds to 0 at the 10^6 denominator cap" in captured.err


class TestReproduce:
    @pytest.mark.parametrize("target", ["table1", "example1", "example2", "engine"])
    def test_targets_pass(self, capsys, target):
        code, out = run(capsys, ["reproduce", target])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert all(check["ok"] for check in payload["checks"])

    def test_efficiency_from_perturbed_heats_fails(self, capsys, monkeypatch):
        # Moving 1e-11 from the work to the hot heat conserves energy and keeps
        # the entropy balance within its tolerance; only the efficiency sees it.
        from thermomajor import engine

        run_carnot = engine.run_carnot

        def perturbed(spec):
            report = run_carnot(spec)
            fields = report._asdict()
            fields.update(w=report.w - 1e-11, q_h=report.q_h + 1e-11)
            return engine.EngineReport(**fields)

        monkeypatch.setattr(engine, "run_carnot", perturbed)
        code, out = run(capsys, ["reproduce", "engine"])
        assert code == 3
        assert [check["name"] for check in json.loads(out)["checks"] if not check["ok"]] == [
            "carnot_efficiency_exact"
        ]

    @pytest.mark.parametrize(
        "target, check", [("table1", "general_construction_equals_table1"),
                          ("example1", "weight_ratios_exact")],
    )
    @pytest.mark.parametrize("mutant", ["doubled", "reversed"])
    def test_reservoir_off_gauge_or_order_fails(self, capsys, monkeypatch, target, check, mutant):
        """The rebuilt reservoir must equal the paper's exactly: all weights
        doubled (the anchor ignored) or the levels reversed is a mismatch,
        although either reservoir is still efficient."""
        from thermomajor import reservoirs

        build = reservoirs.general_efficient_reservoir

        def mutated(t, anchor_weight=Fraction(1)):
            res = build(t)
            if mutant == "doubled":
                return Reservoir(res.r, [2 * w for w in res.init_weights],
                                 [2 * w for w in res.fin_weights])
            return Reservoir(res.r[::-1], res.init_weights[::-1], res.fin_weights[::-1])

        monkeypatch.setattr(reservoirs, "general_efficient_reservoir", mutated)
        code, out = run(capsys, ["reproduce", target])
        assert code == 3
        assert [c["name"] for c in json.loads(out)["checks"] if not c["ok"]] == [check]


class TestDeterminism:
    def test_byte_identical_runs(self, capsys, state_files):
        _, first = run(capsys, ["divergence", state_files["biased"]])
        _, second = run(capsys, ["divergence", state_files["biased"]])
        assert first == second
        _, first = run(capsys, ["oracle-check", "--trials", "12", "--seed", "3"])
        _, second = run(capsys, ["oracle-check", "--trials", "12", "--seed", "3"])
        assert first == second

    def test_emitted_state_json_reparses_exactly(self, capsys, state_files, tmp_path):
        res_path = tmp_path / "res.json"
        run(
            capsys,
            ["build-reservoir", "--method", "minimal", state_files["biased"], "-o", str(res_path)],
        )
        from thermomajor.cli import _load, _reservoir_from_dict
        from thermomajor.reservoirs import minimal_extraction_reservoir

        rebuilt = _load(str(res_path), _reservoir_from_dict)
        direct = minimal_extraction_reservoir(make_state(("3/4", "1/4"), (1, 1)))
        assert rebuilt == direct


def parse_output(parse, argv):
    """Exit code, stdout and stderr of ``parse(argv)``, which exits on help
    and on a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def full_parse(argv):
    return cli.build_parser().parse_args(argv)


COMMANDS = [
    "curve", "majorize", "divergence", "build-reservoir", "verify", "catalytic-check",
    "oracle-check", "engine", "reproduce",
]

#: One call per command that its parser refuses for a missing argument.
MISSING_ARGUMENT = [
    ["curve"],
    ["majorize", "a.json"],
    ["divergence"],
    ["build-reservoir", "a.json"],
    ["verify", "a.json", "b.json"],
    ["catalytic-check", "a.json"],
    ["oracle-check", "--trials"],
    ["engine", "--epsilon", "1", "--t-hot", "2"],
    ["reproduce"],
]


class TestParser:
    """``main`` builds only the invoked subcommand's parser; what it prints
    and its exit code are the full parser's."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help_is_the_full_parsers(self, command):
        code, out, err = parse_output(main, [command, "--help"])
        assert (code, out, err) == parse_output(full_parse, [command, "--help"])
        assert code == 0 and out.startswith(f"usage: thermomajor {command} ")

    @pytest.mark.parametrize("argv", MISSING_ARGUMENT, ids=lambda argv: argv[0])
    def test_missing_argument_error_is_the_full_parsers(self, argv):
        code, out, err = parse_output(main, argv)
        assert (code, out, err) == parse_output(full_parse, argv)
        assert code == 2 and out == ""
        assert f"thermomajor {argv[0]}: error: " in err

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["majoriz"], [], ["curve", "a.json", "--bogus"]],
        ids=["help", "unknown-command", "empty", "unrecognized-argument"],
    )
    def test_top_level_text_is_the_full_parsers(self, argv):
        """An unrecognized argument after a command is reported in the top
        parser's usage, which lists every subcommand even when only one is
        built."""
        code, out, err = parse_output(main, argv)
        assert (code, out, err) == parse_output(full_parse, argv)
        assert "{" + ",".join(COMMANDS) + "}" in out + err

    def test_only_the_invoked_subcommand_is_built(self):
        def choices(parser):
            (sub,) = [a for a in parser._actions if a.dest == "command"]
            return list(sub.choices)

        assert choices(cli.build_parser()) == COMMANDS
        assert choices(cli.build_parser("verify")) == ["verify"]
        assert choices(cli.build_parser("majoriz")) == COMMANDS


#: Rational-list entries: valid ints and fraction strings mixed with every
#: kind of value the parser must refuse.
ENTRIES = st.one_of(
    st.integers(-2, 9),
    st.sampled_from(["1/2", "1/3", "2/3", "-1/2", "0", "3/4", "1e4301", "1/0", "nan"]),
    st.floats(),
    st.booleans(),
    st.none(),
)
RANDOM_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=8,
)


@st.composite
def rationals(draw, size, positive):
    """``size`` valid entries, drawn as ints or fraction strings; with
    ``positive`` false they are masses normalised to sum to one."""
    nums = draw(st.lists(st.integers(1 if positive else 0, 6), min_size=size, max_size=size))
    if positive:
        return [draw(st.sampled_from([n, f"{n}/{draw(st.integers(1, 4))}"])) for n in nums]
    total = sum(nums) or 1
    return [f"{n}/{total}" for n in nums]


@st.composite
def entry_lists(draw, positive):
    """A rational list that is valid or holds one hostile entry."""
    values = draw(rationals(draw(st.integers(1, 3)), positive))
    if draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(ENTRIES)
    return draw(st.sampled_from([values, values[:-1], draw(st.lists(ENTRIES, max_size=3))]))


@st.composite
def file_contents(draw):
    """Random bytes, random JSON, or a state- or reservoir-shaped object."""
    kind = draw(st.sampled_from(["bytes", "json", "state", "reservoir"]))
    if kind == "bytes":
        return draw(st.binary(max_size=12))
    if kind == "json":
        data = draw(RANDOM_JSON)
    elif kind == "state":
        data = {"probs": draw(entry_lists(False)), "weights": draw(entry_lists(True))}
    else:
        data = {
            "r": draw(entry_lists(False)),
            "init_weights": draw(entry_lists(True)),
            "fin_weights": draw(entry_lists(True)),
        }
    return json.dumps(data).encode()


#: Subcommand prefixes and how many input files each reads.
FUZZ_COMMANDS = [
    (["curve"], 1),
    (["curve", "--format", "svg"], 1),
    (["majorize"], 2),
    (["divergence"], 1),
    (["divergence", "--reference"], 2),
    (["verify"], 3),
    (["build-reservoir", "--method", "minimal"], 1),
    (["build-reservoir", "--method", "general"], 2),
    (["build-reservoir", "--method", "product"], 2),
    (["catalytic-check"], 2),
    (["catalytic-check", "--nonnegative-only"], 2),
]
GAUGES = st.sampled_from(["1", "5/7", "0", "-1", "x", "0.5", "1e4301", "1/0", "nan"])


#: Hostile numbers for the float, int and alpha-grid options.
FLOAT_TOKENS = [
    "nan", "inf", "-inf", "0", "-0", "1", "2", "-1", "1e308", "-1e308", "1e-300", "5e-324",
    "0.5", "x", "",
]
INT_TOKENS = ["-3", "-1", "0", "1", "2", "3", "9", "x", "1.5", "", str(2**70), str(-(2**70))]
TRIAL_TOKENS = ["-1", "0", "1", "2", "3", "x", "1e3", ""]
ALPHA_TOKENS = [
    "0", "1", "0.9999999999999999", "1.0000000000000002", "1e-320", "-1e-320", "0.5", "-0.5",
    "2", "-2", "inf", "-inf", "nan", "1e308", "-1e308", "x", "",
]
REPRODUCE_TARGETS = ["table1", "example1", "example2", "engine", "nope", ""]


#: State pairs for the alpha-grid commands: mixed to Gibbs, Gibbs to mixed,
#: pure to mixed, and a state with a 10^-200 weight.
GRID_STATE_PAIRS = [
    (make_state(("1/2", "1/2"), (1, 2)), make_state(("1/3", "2/3"), (1, 2))),
    (make_state(("1/3", "2/3"), (1, 2)), make_state(("1/2", "1/2"), (1, 2))),
    (make_state((1, 0), (1, 1)), make_state(("1/3", "2/3"), (1, 1))),
    (make_state(("1/2", "1/2"), (1, Fraction(1, 10**200))), make_state((1, 0), (1, 1))),
]


def run_quietly(argv):
    """``main(argv)`` in process: its exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_clean_exit(code, err):
    """Exit 0, 1 or 2, with neither an internal error nor a traceback."""
    assert code in (0, 1, 2), err
    assert "internal error" not in err
    assert "Traceback" not in err


class TestFuzz:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_hostile_files_never_crash(self, tmp_path_factory, data):
        """Every run exits 0, 1 or 2, and stderr holds neither an internal
        error nor a traceback."""
        directory = tmp_path_factory.mktemp("fuzz")
        command, files = data.draw(st.sampled_from(FUZZ_COMMANDS))
        argv = list(command)
        if command[-1] == "minimal" and data.draw(st.booleans()):
            argv += ["--c", data.draw(GAUGES)]
        if command[-1] == "general" and data.draw(st.booleans()):
            argv += ["--anchor", data.draw(GAUGES)]
        contents = data.draw(st.lists(file_contents(), min_size=files, max_size=files))
        for index, content in enumerate(contents):
            path = directory / f"{index}.json"
            path.write_bytes(content)
            argv.append(str(path))
        assert_clean_exit(*run_quietly(argv))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_hostile_argv_never_crash(self, tmp_path_factory, data):
        """``engine``, ``oracle-check`` (at most 3 trials of at most 8
        levels), ``reproduce`` and ``--alpha-grid`` on valid files, with
        hostile numbers: every run exits 0, 1 or 2, cleanly."""
        command = data.draw(st.sampled_from(["engine", "oracle", "reproduce", "grid"]))
        if command == "engine":
            argv = ["engine"] + [
                f"{flag}={data.draw(st.sampled_from(FLOAT_TOKENS))}"
                for flag in ("--epsilon", "--t-hot", "--t-cold")
            ]
        elif command == "oracle":
            dims = data.draw(st.lists(st.sampled_from(INT_TOKENS), min_size=1, max_size=3))
            argv = [
                "oracle-check",
                f"--trials={data.draw(st.sampled_from(TRIAL_TOKENS))}",
                f"--dims={','.join(dims)}",
                f"--seed={data.draw(st.sampled_from(INT_TOKENS))}",
            ]
        elif command == "reproduce":
            argv = ["reproduce", data.draw(st.sampled_from(REPRODUCE_TARGETS))]
        else:
            grid = data.draw(st.lists(st.sampled_from(ALPHA_TOKENS), min_size=1, max_size=4))
            directory = tmp_path_factory.mktemp("argv")
            files = []
            for index, state in enumerate(data.draw(st.sampled_from(GRID_STATE_PAIRS))):
                path = directory / f"{index}.json"
                path.write_text(json.dumps(state_to_dict(state)))
                files.append(str(path))
            command_argv = data.draw(
                st.sampled_from(
                    [
                        ["divergence", files[0]],
                        ["divergence", files[0], "--reference", files[1]],
                        ["catalytic-check", *files],
                        ["catalytic-check", *files, "--nonnegative-only"],
                    ]
                )
            )
            argv = command_argv + [f"--alpha-grid={','.join(grid)}"]
        assert_clean_exit(*run_quietly(argv))


class TestFuzzInSubprocess:
    """A few hostile runs, each in a fresh interpreter with a timeout, so a
    hang fails the test instead of stalling the suite."""

    @settings(max_examples=4, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_hostile_files_end_in_time(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("subprocess-files")
        command, files = data.draw(st.sampled_from(FUZZ_COMMANDS))
        argv = list(command)
        contents = data.draw(st.lists(file_contents(), min_size=files, max_size=files))
        for index, content in enumerate(contents):
            path = directory / f"{index}.json"
            path.write_bytes(content)
            argv.append(str(path))
        proc = run_python("-m", "thermomajor.cli", *argv, timeout=10)
        assert_clean_exit(proc.returncode, proc.stderr)

    @settings(max_examples=6, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_hostile_argv_end_in_time(self, tmp_path_factory, data):
        """``engine`` with hostile numbers and a ``--curves-dir`` that is a
        file, lies under a file or is new, and ``oracle-check`` with hostile
        counts."""
        directory = tmp_path_factory.mktemp("subprocess-argv")
        blocker = directory / "blocker"
        blocker.write_text("")
        if data.draw(st.booleans()):
            target = data.draw(st.sampled_from([blocker, blocker / "curves", directory / "new"]))
            hostile = st.tuples(*[st.sampled_from(FLOAT_TOKENS)] * 3)
            numbers = data.draw(st.sampled_from([("1", "2", "1"), ("0.5", "3", "2")]) | hostile)
            argv = ["engine", f"--curves-dir={target}"] + [
                f"{flag}={number}"
                for flag, number in zip(("--epsilon", "--t-hot", "--t-cold"), numbers)
            ]
        else:
            dims = data.draw(st.lists(st.sampled_from(INT_TOKENS), min_size=1, max_size=3))
            argv = [
                "oracle-check",
                f"--trials={data.draw(st.sampled_from(TRIAL_TOKENS))}",
                f"--dims={','.join(dims)}",
            ]
        proc = run_python("-m", "thermomajor.cli", *argv, timeout=10)
        assert_clean_exit(proc.returncode, proc.stderr)
        assert proc.returncode != 2 or proc.stdout == ""
