"""Command-line interface: outputs, JSON reports, exit-code contract."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from pgsos import cli
from pgsos.cli import main

PA = str(resources.files("pgsos").joinpath("data", "pa.pgsos"))
EXAMPLES = str(resources.files("pgsos").joinpath("data", "examples.pgsos"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- happy paths ------------------------------------------------------------

def test_check(capsys):
    code, out, _ = run(capsys, "check", PA)
    assert code == 0
    assert "ok: 10 operators, 18 rules" in out
    assert "actions: a, b" in out


def test_transitions(capsys):
    code, out, _ = run(capsys, "transitions", PA, "pa0")
    assert code == 0
    assert "a -->" in out
    assert "9/10" in out and "1/10" in out


def test_transitions_deadlock(capsys):
    code, out, _ = run(capsys, "transitions", PA, "zero")
    assert code == 0
    assert "no transitions" in out


def test_explore(capsys):
    code, out, _ = run(capsys, "explore", PA, "par(aa0, aa0)", "par(pa0, pa0)")
    assert code == 0
    assert "states: 6 (complete, depth 1)" in out
    assert "transitions: 3" in out


def test_distance(capsys):
    code, out, _ = run(capsys, "distance", PA, "par(aa0, aa0)", "par(pa0, pa0)")
    assert code == 0
    assert out.strip() == "19/100"


def test_distance_between_deep_chains(capsys):
    # the parser reads nesting on an explicit stack, not by recursion
    deep = "pref_a(" * 1000 + "zero" + ")" * 1000
    shallower = "pref_a(" * 999 + "zero" + ")" * 999
    code, out, err = run(capsys, "distance", PA, deep, shallower)
    assert (code, out, err) == (0, "1\n", "")


def test_denote(capsys):
    code, out, _ = run(capsys, "denote", PA, "par(x, x)")
    assert code == 0
    assert "{x:2}" in out


def test_denote_reports_widening(capsys):
    code, out, _ = run(capsys, "denote", EXAMPLES, "bang(x1)")
    assert code == 0
    assert "{x1:inf}" in out
    assert "widen" in out.lower()


def test_bound(capsys):
    code, out, _ = run(capsys, "bound", PA, "par(x, x)", "--dist", "x=1/10")
    assert code == 0
    assert out.strip().endswith("19/100")


def test_continuity_single_operator(capsys):
    code, out, _ = run(capsys, "continuity", PA, "par")
    assert code == 0
    assert "uniformly-continuous" in out
    assert "min(e1 + e2, 1)" in out


def test_continuity_all_operators(capsys):
    code, out, _ = run(capsys, "continuity", EXAMPLES)
    assert code == 0
    assert "bang" in out and "not-shown" in out
    assert "f_alt" in out


def test_check_modulus(capsys):
    code, out, _ = run(capsys, "check-modulus", PA, "par", "--z", "e1 + e2")
    assert code == 0 and out.strip() == "satisfied"
    code, out, _ = run(capsys, "check-modulus", PA, "par", "--z", "1/2*e1 + e2")
    assert code == 0 and out.strip() == "not satisfied"


def test_oracle_fixed_term(capsys):
    code, out, _ = run(capsys, "oracle", PA, "par(x, x)",
                       "--samples", "8", "--seed", "7")
    assert code == 0
    assert "violations: 0" in out


# -- JSON reports -----------------------------------------------------------

def test_json_report_shape(capsys):
    code, out, _ = run(capsys, "--json", "distance", PA,
                       "par(aa0, aa0)", "par(pa0, pa0)")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "pgsos-report/1"
    assert report["command"] == "distance"
    assert report["results"]["distance"] == "19/100"
    assert len(report["spec_digest"]) == 64


def test_json_is_deterministic(capsys):
    args = ("--json", "continuity", EXAMPLES)
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    json.loads(out1)


IPAR3 = "ipar(ipar(ipar({}, pa0), pa0), pa0)"


@pytest.mark.parametrize("argv", [
    ["distance", PA, "par(aa0, aa0)", "par(pa0, pa0)"],
    ["oracle", EXAMPLES, "--samples", "30", "--seed", "7"],
    ["distance", PA, IPAR3.format("pa0"), IPAR3.format("pb0")],
    # includes a sample whose pair system fits the default pair budget
    # only when counted in pairs of bisimulation classes
    ["oracle", PA, "--samples", "200", "--seed", "7"],
])
def test_json_is_identical_across_hash_seeds(argv):
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from pgsos.cli import main; sys.exit(main())",
             "--json", *argv],
            env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])


def test_json_renders_exact_rationals_and_infinity(capsys):
    code, out, _ = run(capsys, "--json", "denote", EXAMPLES, "bang(x1)")
    assert code == 0
    report = json.loads(out)
    text = json.dumps(report)
    assert "inf" in text
    assert "0.1" not in text  # reports carry exact rationals, never floats


# -- failure contract -------------------------------------------------------

def test_missing_spec_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/path.pgsos")
    assert code == 2
    assert "error:" in err


def test_bad_term_is_an_input_error(capsys):
    code, _, err = run(capsys, "distance", PA, "par(aa0", "zero")
    assert code == 2
    assert "error:" in err


def test_unknown_operator_is_an_input_error(capsys):
    code, _, err = run(capsys, "continuity", PA, "missing_op")
    assert code == 2


def test_open_term_where_closed_needed(capsys):
    code, _, err = run(capsys, "distance", PA, "par(x, zero)", "zero")
    assert code == 2
    assert "free" in err


def test_identical_open_terms_are_an_input_error(capsys):
    code, out, err = run(capsys, "distance", PA, "par(x, zero)", "par(x, zero)")
    assert code == 2
    assert out == ""
    assert "exploration needs closed roots; free: x" in err


def test_bad_distance_assignment(capsys):
    code, _, err = run(capsys, "bound", PA, "par(x, x)", "--dist", "x=oops")
    assert code == 2


def test_bad_modulus_shape(capsys):
    code, _, err = run(capsys, "check-modulus", PA, "par", "--z", "e1*e2")
    assert code == 2


def test_exploration_refusal_exits_one(capsys):
    code, _, err = run(capsys, "explore", EXAMPLES, "bang(aa0)",
                       "--max-states", "8")
    assert code == 1
    assert "refused" in err


def test_distance_refusal_exits_one(capsys):
    code, _, err = run(capsys, "distance", EXAMPLES, "bang(aa0)", "aa0",
                       "--max-states", "8")
    assert code == 1


def test_internal_error_exits_three(monkeypatch, capsys):
    def crash(_args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_check", crash)
    code, _, err = run(capsys, "check", PA)
    assert code == 3
    assert "Traceback" in err
    assert err.rstrip().splitlines()[-1] == "internal error: RuntimeError: boom"
    assert "refused" not in err


def test_nonconvergent_distance_exits_one(tmp_path, capsys):
    spec = tmp_path / "loops.pgsos"
    spec.write_text("""
actions a;
op zero : 0;
op loop_all : 0;
op loop_half : 0;
rule:
  ---
  loop_all --a--> delta(loop_all)
rule:
  ---
  loop_half --a--> 1/2*delta(loop_half) + 1/2*delta(zero)
""")
    code, _, err = run(capsys, "distance", str(spec), "loop_all", "loop_half",
                       "--max-iter", "40")
    assert code == 1
    code, out, _ = run(capsys, "distance", str(spec), "loop_all", "loop_half",
                       "--mode", "iterate", "--max-iter", "11")
    assert code == 0
    assert out.strip() == "1023/1024"


@pytest.mark.parametrize("command", ["distance", "denote", "bound",
                                     "continuity"])
@pytest.mark.parametrize("budget", ["0", "-3", "many"])
def test_iteration_budget_must_be_a_positive_integer(capsys, command, budget):
    positional = {"distance": ["aa0", "pa0"], "denote": ["par(x, x)"],
                  "bound": ["par(x, x)", "--dist", "x=1/10"],
                  "continuity": []}[command]
    code, out, err = run(capsys, command, PA, *positional,
                         "--max-iter", budget)
    assert code == 2
    assert out == ""
    assert "--max-iter" in err
    assert "refused" not in err


@pytest.mark.parametrize("argv", [
    ["explore", PA, "pa0", "--max-states", "0"],
    ["explore", PA, "pa0", "--max-states", "-1"],
    ["explore", PA, "pa0", "--max-depth", "-1"],
    ["distance", PA, "aa0", "pa0", "--max-states", "0"],
    ["oracle", PA, "--samples", "0"],
    ["oracle", PA, "--samples", "-2"],
    ["oracle", PA, "--depth", "-2"],
    ["oracle", PA, "--max-states", "0"],
])
def test_budget_below_its_least_value_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: pgsos")
    assert f"argument {argv[-2]}: must be at least" in err


def test_zero_depth_budget_is_a_refusal(capsys):
    code, _, err = run(capsys, "explore", PA, "pa0", "--max-depth", "0")
    assert code == 1
    assert err.startswith("refused:")


# -- golden reports -------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("continuity_pa", ["continuity", PA]),
    ("continuity_examples", ["continuity", EXAMPLES]),
    ("denote_examples_bang", ["denote", EXAMPLES, "bang(x1)"]),
    ("denote_pa_par", ["denote", PA, "par(x, x)"]),
    ("bound_pa_par", ["bound", PA, "par(x, x)", "--dist", "x=1/10"]),
])
def test_json_reports_match_golden_files(capsys, name, argv):
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
