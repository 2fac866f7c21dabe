"""Command-line interface: outputs, JSON reports, exit-code contract."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from pgsos import cli, frontend
from pgsos.cli import main
from pgsos.terms import format_rational

from helpers import dup_spec
from test_denotation import MIX, MIX_WITHOUT_P, WIDENING_SPECS
from test_metric import TWO_ROUNDS

PA = str(resources.files("pgsos").joinpath("data", "pa.pgsos"))
EXAMPLES = str(resources.files("pgsos").joinpath("data", "examples.pgsos"))
LOOPS = str(resources.files("pgsos").joinpath("data", "loops.pgsos"))


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


GRAMMAR_FORMS = """actions a;
op zero : 0;
op f : 1;
op g : 0;
op h : 0;
rule:
  ---
  f(x1) --a--> 1/2*(1/2*delta(x1) + 1/2*delta(zero)) + 1/2*delta(f(x1))
rule:
  ---
  g --a--> zero()
rule:
  ---
  h --a--> zero
"""


@pytest.mark.parametrize("term, moves", [
    # a parenthesised group inside a distribution term, and ``zero()`` as
    # a state term
    ("f(zero())", "a --> 1/2*f(zero) + 1/2*zero\n"),
    ("f(g())", "a --> 1/2*f(g) + 1/4*g + 1/4*zero\n"),
    ("g", "a --> 1*zero\n"),  # ``zero()`` as a distribution term
    ("h", "a --> 1*zero\n"),  # a bare nullary operator as a rule target
])
def test_transitions_of_rarer_grammar_forms(tmp_path, capsys, term, moves):
    spec = tmp_path / "forms.pgsos"
    spec.write_text(GRAMMAR_FORMS, encoding="utf-8")
    assert run(capsys, "transitions", str(spec), term) == (0, moves, "")


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


def test_distance_between_chains_5000_deep(capsys):
    # parsing, derivation and exploration walk explicit stacks
    deep = "pref_a(" * 5000 + "zero" + ")" * 5000
    shallower = "pref_a(" * 4999 + "zero" + ")" * 4999
    code, out, err = run(capsys, "distance", EXAMPLES, deep, shallower,
                         "--max-states", "6000")
    assert (code, out, err) == (0, "1\n", "")


def test_oracle_on_a_deep_open_term(capsys):
    # substitution walks an explicit stack, not one call per term level
    deep = "pref_a(" * 1500 + "x" + ")" * 1500
    code, out, err = run(capsys, "oracle", PA, deep, "--samples", "10",
                         "--seed", "2")
    assert (code, err) == (0, "")
    assert "compared: 4" in out and "violations: 0" in out


def test_denote(capsys):
    code, out, _ = run(capsys, "denote", PA, "par(x, x)")
    assert code == 0
    assert "{x:2}" in out


def test_denote_prints_a_non_dirac_generator(capsys):
    code, out, _ = run(capsys, "denote", EXAMPLES, "h_rep(x)")
    assert code == 0
    assert out.splitlines()[0] == "[[h_rep(x)]] = 1/2@{} + 1/2@{x:2}"


def test_denote_reports_widening(capsys):
    code, out, _ = run(capsys, "denote", EXAMPLES, "bang(x1)")
    assert code == 0
    assert "{x1:inf}" in out
    assert "widen" in out.lower()


def test_probabilistic_recursion_answers_over_approximated(tmp_path, capsys):
    # the mass of {x:1} at p(x) converges to 1/2 only in the limit, so the
    # component ends at the point mass at inf, flagged
    spec = tmp_path / "grow.pgsos"
    spec.write_text(WIDENING_SPECS["grow"])
    code, out, _ = run(capsys, "denote", str(spec), "p(x)")
    assert code == 0
    assert out.splitlines() == [
        "[[p(x)]] = {x:inf}",
        "(widened: some counts were promoted to inf)",
        "(over-approximated: an upper bound of the least fixed point)"]
    code, out, _ = run(capsys, "bound", "--dist", "x=1/10", str(spec), "p(x)")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "--json", "continuity", str(spec), "p")
    assert code == 0
    report = json.loads(out)
    assert report["flags"] == {"over_approximated": True, "widened": True}
    assert report["results"]["reports"][0]["verdict"] == "not-shown"


def test_flags_describe_the_query_alone(tmp_path, capsys):
    # p's component jumps, and ipar and bang do not depend on p
    mix, without_p = tmp_path / "mix.pgsos", tmp_path / "without_p.pgsos"
    mix.write_text(MIX)
    without_p.write_text(MIX_WITHOUT_P)

    def report(*argv):
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0
        return json.loads(out)

    both = {"over_approximated": True, "widened": True}
    neither = {"over_approximated": False, "widened": False}
    assert report("denote", str(mix), "ipar(x, y)")["flags"] == neither
    assert report("denote", str(mix), "p(x)")["flags"] == both
    assert report("continuity", str(mix))["flags"] == both
    bang = report("continuity", str(mix), "bang")
    assert bang["results"] == report("continuity", str(without_p),
                                     "bang")["results"]
    assert bang["flags"] == {"over_approximated": False, "widened": True}
    assert "not uniformly continuous" in (
        bang["results"]["reports"][0]["annotation"])


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


@pytest.mark.parametrize("k", [9, 20])
def test_finite_copying_gets_the_exact_modulus(tmp_path, capsys, k):
    # k nested copies and no recursion: a finite count, however deep
    spec = tmp_path / "dup.pgsos"
    spec.write_text(dup_spec(k))
    code, out, _ = run(capsys, "--json", "continuity", str(spec), "dup")
    assert code == 0
    report = json.loads(out)
    (r,) = report["results"]["reports"]
    assert r["verdict"] == "uniformly-continuous"
    assert r["modulus"] == f"min({k}*e1, 1)"
    assert r["copies_bound"] == k
    assert report["flags"]["widened"] is False
    code, out, _ = run(capsys, "--json", "denote", str(spec), "dup(x1)")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["denotation"] == f"{{x1:{k}}}"
    assert report["flags"]["widened"] is False
    code, out, _ = run(capsys, "bound", str(spec), "dup(x)",
                       "--dist", "x=1/10")
    assert code == 0
    bound = 1 - Fraction(9, 10) ** k
    assert out.strip() == f"{bound.numerator}/{bound.denominator}"
    if k == 9:
        assert out.strip() == "612579511/1000000000"


def test_rule_targets_10000_deep_are_instantiated(tmp_path, capsys):
    # dup's target alt(m1, alt(m1, ...)) nests alt 10^4 deep; every walk
    # over it is iterative, and equal targets are one object
    spec = tmp_path / "dup.pgsos"
    spec.write_text(dup_spec(10 ** 4 + 1) + "op pa : 0;\nrule:\n  ---\n"
                    "  pa --a--> delta(zero)\n")
    code, _, _ = run(capsys, "check", str(spec))
    assert code == 0
    code, out, _ = run(capsys, "transitions", str(spec), "dup(pa)")
    assert code == 0
    assert out == ("a --> 1*" + "alt(zero, " * 10 ** 4 + "zero"
                   + ")" * 10 ** 4 + "\n")
    code, out, _ = run(capsys, "continuity", str(spec))
    assert code == 0
    assert "copies bound: 10001" in out
    code, out, _ = run(capsys, "denote", str(spec), "dup(x)")
    assert (code, out) == (0, "[[dup(x)]] = {x:10001}\n")
    code, out, _ = run(capsys, "bound", str(spec), "dup(x)",
                       "--dist", "x=1/10")
    assert code == 0
    # the exact bound has about 10^4 digits, past the default limit of
    # int-to-text conversion
    bound = 1 - Fraction(9, 10) ** (10 ** 4 + 1)
    assert out.strip() == format_rational(bound)
    assert out.count("0") > 10 ** 4  # the denominator is 10^10001


def test_rule_targets_1000_deep_are_parsed(tmp_path, capsys):
    # distribution terms are parsed on an explicit stack, not by recursion
    spec = tmp_path / "dup.pgsos"
    spec.write_text(dup_spec(1000) + "op pa : 0;\nrule:\n  ---\n"
                    "  pa --a--> delta(zero)\n")
    code, out, err = run(capsys, "check", str(spec))
    assert (code, err) == (0, "")
    assert out.startswith("ok: 6 operators")


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
    # variables key denotations, multiplicities and substitutions
    ["continuity", EXAMPLES],
    ["denote", EXAMPLES, "bang(x1)"],
    ["bound", PA, "par(x, x)", "--dist", "x=1/10"],
    ["oracle", PA, "par(x, y)", "--samples", "60", "--seed", "5"],
    # states, transitions and the strategies of a cyclic component follow the
    # order of derivation, never the hashes; text is sorted only to print
    ["explore", PA, IPAR3.format("pa0"), IPAR3.format("pb0")],
    ["transitions", EXAMPLES, "bang(aa0)"],
    ["distance", LOOPS, "choose_l", "choose_r"],
    # cyclic components on the oracle's path; pairs are ordered by class id
    ["oracle", LOOPS, "--samples", "30", "--seed", "7"],
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


def test_spec_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    spec = tmp_path / "bom.pgsos"
    spec.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "check", str(spec))
    assert (code, out) == (2, "")
    assert err == ("error: spec is not UTF-8 at byte offset 0 (0xff): "
                   "invalid start byte\n")


WEIGHTED_RULE = ("actions a;\nop z : 0;\nop f : 1;\nrule:\n  ---\n"
                 "  f(x1) --a--> {}*delta(x1) + 1/2*delta(z)\n")
BIG = "1" * 5000  # past the 4,300 digits int converts from text


@pytest.mark.parametrize("text", [
    "actions a;\nop f : \u00b2;\n",
    "actions a;\nop f : 1;\nrule:\n  ---\n  f(x1) --a--> \u00b2*delta(x1)\n",
    pytest.param(f"actions a;\nop zero : {BIG};\n", id="arity-5000-digits"),
    pytest.param(WEIGHTED_RULE.format(f"1/{BIG}"), id="denominator-5000-digits"),
    pytest.param(WEIGHTED_RULE.format(f"0.{BIG}"), id="decimal-5000-digits"),
    pytest.param(WEIGHTED_RULE.format("1/0"), id="zero-denominator"),
])
def test_digits_int_cannot_read_are_a_syntax_error(tmp_path, capsys, text):
    # a superscript two is a digit to str.isdigit, but not a decimal; a
    # number with more digits than int converts, or a zero denominator, is
    # reported at its token too
    spec = tmp_path / "sup.pgsos"
    spec.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", str(spec))
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: (unexpected character '\u00b2'|number of 500[02] "
                        r"characters is too long to read|zero denominator) "
                        r"\(line \d, column \d+\)\n", err), err


def test_bad_term_is_an_input_error(capsys):
    code, _, err = run(capsys, "distance", PA, "par(aa0", "zero")
    assert code == 2
    assert "error:" in err


DECLS = "actions a;\nop zero : 0;\nop f : 1;\n"
RULE = "rule:\n  ---\n  f(x1) --a--> {}\n"


@pytest.mark.parametrize("decls, argv, message", [
    pytest.param("op f : 2;", ["check"],
                 "operator 'f' declared twice (line 4, column 4)",
                 id="operator-twice"),
    pytest.param("set S = {a};\nset S = {a};", ["check"],
                 "action set 'S' declared twice (line 5, column 5)",
                 id="set-twice"),
    pytest.param("term t = zero;\nop t : 0;", ["check"],
                 "name 't' already in use (line 5, column 4)",
                 id="op-after-term"),
    pytest.param("op t : 0;\nterm t = zero;", ["check"],
                 "name 't' already in use (line 5, column 6)",
                 id="term-after-op"),
    pytest.param("term t = f(x);", ["check"], "unknown name 'x'",
                 id="open-abbreviation"),
    pytest.param(";", ["check"], "expected a declaration, found ';'",
                 id="stray-token"),
    pytest.param("rule forall c of ACT:\n  ---\n  f(x1) --c--> delta(x1)",
                 ["check"], "expected 'in'", id="forall-of"),
    pytest.param("rule:\n  x1 a m1\n  ---\n  f(x1) --a--> m1", ["check"],
                 "expected '--' or '-/' in premise", id="malformed-premise"),
    pytest.param("rule:\n  ---\n  g(x1) --a--> delta(x1)", ["check"],
                 "operator 'g' is not declared", id="undeclared-conclusion"),
    pytest.param("op h : 2;\nrule:\n  ---\n  h(x1) --a--> delta(x1)",
                 ["check"], "h expects 2 source variable(s), got 1",
                 id="source-count"),
    pytest.param(RULE.format("0.5/2*delta(x1) + 3/4*delta(zero)"), ["check"],
                 "mixed decimal/fraction notation", id="mixed-number"),
    pytest.param(RULE.format("delta(x1) + 1/2*delta(zero)"), ["check"],
                 "need explicit weights", id="first-weight-missing"),
    pytest.param(RULE.format("1/2*delta(x1) + delta(zero)"), ["check"],
                 "need explicit weights", id="second-weight-missing"),
    pytest.param(RULE.format("0*delta(x1) + 1*delta(zero)"), ["check"],
                 "convex weights must be positive, got 0",
                 id="zero-weight"),
    pytest.param(RULE.format("2*delta(x1) + 1/2*delta(zero)"), ["check"],
                 "convex weights sum to 5/2, expected 1",
                 id="weight-above-one"),
    pytest.param("rule:\n  ---\n  f(x1) -a--> delta(x1)", ["check"],
                 "stray '-'", id="stray-dash"),
    pytest.param("op g : 1.5;", ["check"], "arity must be a natural number",
                 id="fractional-arity"),
    pytest.param("rule forall c in S:\n  ---\n  f(x1) --c--> delta(x1)\n"
                 "set S = {a};", ["check"],
                 "action set 'S' is not declared (line 4)", id="late-set"),
    pytest.param("rule:\n  ---\n  f(x1) --b--> delta(x1)\nactions b;",
                 ["check"], "action 'b' is not declared (line 6)",
                 id="late-label"),
    pytest.param("rule forall c in ACT:\n  ---\n  f(x1) --c--> delta(x1)\n"
                 "actions b;", ["check"],
                 "actions declared after a set or rule (line 7, column 1)",
                 id="actions-after-rule"),
    pytest.param("set S = {a};\nactions b;", ["check"],
                 "actions declared after a set or rule", id="actions-after-set"),
    pytest.param("actions b, b;", ["check"], "action 'b' declared twice",
                 id="action-twice-in-one-list"),
    pytest.param("actions a;", ["check"], "action 'a' declared twice",
                 id="action-declared-again"),
    pytest.param("set ACT = {a};", ["check"],
                 "'ACT' names every action and cannot be declared "
                 "(line 4, column 5)", id="set-act"),
    pytest.param("set S = {a,\n b};", ["check"],
                 "action 'b' is not declared (line 5)",
                 id="undeclared-set-member"),
    pytest.param("set S = {a} |\n T;", ["check"],
                 "action set 'T' is not declared (line 5)",
                 id="undeclared-set-name"),
    pytest.param("set E = {};\nrule forall c in E:\n  ---\n"
                 "  f(x1) --q--> delta(x1)", ["check"],
                 "action 'q' is not declared (line 7)",
                 id="undeclared-label-in-empty-template"),
    pytest.param(None, ["transitions", PA, "pa0 pa0"],
                 "unexpected trailing input 'pa0'", id="trailing-input"),
    pytest.param(None, ["bound", PA, "par(x, x)", "--dist", "x"],
                 "expected name=value in --dist, got 'x'", id="dist-no-value"),
    pytest.param(None, ["bound", PA, "par(x, x)", "--dist", "x=1"],
                 "process distance 1 for x outside [0,1)", id="dist-one"),
    pytest.param(None, ["bound", PA, "par(x, x)", "--dist", "x=1/2,x=1/3"],
                 "variable 'x' given twice in --dist", id="dist-repeated-name"),
    pytest.param(None, ["bound", PA, "par(x, x)", "--dist", "=1/2"],
                 "empty variable name in --dist, got '=1/2'",
                 id="dist-empty-name"),
])
def test_malformed_input_is_an_input_error(tmp_path, capsys, decls, argv,
                                           message):
    if decls is not None:
        spec = tmp_path / "bad.pgsos"
        spec.write_text(DECLS + decls + "\n", encoding="utf-8")
        argv = argv + [str(spec)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["", "# only a comment\n"],
                         ids=["empty", "comment-only"])
def test_a_spec_without_a_declaration_is_an_input_error(tmp_path, capsys,
                                                        text):
    spec = tmp_path / "empty.pgsos"
    spec.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", str(spec))
    assert (code, out) == (2, "")
    assert err == "error: empty specification (line 1, column 1)\n"


@pytest.mark.parametrize("term", [[], ["f(x)"]], ids=["drawn", "fixed"])
def test_oracle_without_a_closed_term_is_an_input_error(tmp_path, capsys,
                                                         term):
    spec = tmp_path / "noconst.pgsos"
    spec.write_text("actions a;\nop f : 1;\n"
                    "rule:\n  x1 --a--> m1\n  ---\n  f(x1) --a--> f(m1)\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "oracle", str(spec), *term)
    assert (code, out) == (2, "")
    assert err == ("error: the spec has no constant or abbreviation to "
                   "build closed terms from\n")


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


@pytest.mark.parametrize("z, number", [
    ("1/0*e1", "1/0"), ("0/0", "0/0"),
    pytest.param(f"{BIG}*e1", BIG, id="coefficient-5000-digits"),
    pytest.param(f"e{BIG}", BIG, id="index-5000-digits")])
def test_modulus_numbers_fraction_refuses_are_an_input_error(capsys, z,
                                                             number):
    code, out, err = run(capsys, "check-modulus", PA, "ipar", "--z", z)
    assert (code, out) == (2, "")
    assert err == f"error: bad number '{number}' in modulus\n"


def test_exploration_refusal_exits_one(capsys):
    code, _, err = run(capsys, "explore", EXAMPLES, "bang(aa0)",
                       "--max-states", "8")
    assert code == 1
    assert "refused" in err


def test_distance_refusal_exits_one(capsys):
    code, _, err = run(capsys, "distance", EXAMPLES, "bang(aa0)", "aa0",
                       "--max-states", "8")
    assert code == 1


@pytest.mark.parametrize("command", ["explore", "distance"])
def test_more_roots_than_the_state_budget_exit_one(capsys, monkeypatch,
                                                   command):
    # a fresh memo, so that neither root is classified by an earlier test
    monkeypatch.setattr(frontend, "_MEMO_TABLES", {})
    code, out, err = run(capsys, command, PA, "aa0", "pa0",
                         "--max-states", "1")
    assert (code, out) == (1, "")
    assert err == "refused: 2 roots already exceed max_states=1\n"


# the pair budget tests run on a fresh memo: a root pair that an earlier
# test solved would answer at once
DISTANCE_PAR = ["distance", PA, "par(pa0, pa0)", "par(aa0, pa0)"]


def test_distance_pair_budget_refuses(capsys, monkeypatch):
    monkeypatch.setattr(frontend, "_MEMO_TABLES", {})
    code, out, err = run(capsys, *DISTANCE_PAR, "--max-pairs", "1")
    assert (code, out) == (1, "")
    assert err == "refused: distance depends on more than 1 class pairs\n"


def test_distance_has_no_pair_budget_by_default(capsys, monkeypatch):
    outs = []
    for budget in ([], ["--max-pairs", "1000"]):
        monkeypatch.setattr(frontend, "_MEMO_TABLES", {})
        code, out, _ = run(capsys, "--json", *DISTANCE_PAR, *budget)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert sorted(report["inputs"]) == ["term1", "term2"]
    assert report["results"] == {"distance": "9/100"}


def test_internal_error_exits_three(monkeypatch, capsys):
    def crash(_args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_check", crash)
    code, _, err = run(capsys, "check", PA)
    assert code == 3
    assert "Traceback" in err
    assert err.rstrip().splitlines()[-1] == "internal error: RuntimeError: boom"
    assert "refused" not in err


def test_closed_stdout_ends_the_output_with_exit_zero():
    # about 100 kB of states: more than a pipe holds, so pgsos is still
    # writing when the reader goes away after the first line
    term = "pa0"
    for _ in range(5):
        term = f"ipar({term}, pa0)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pgsos.cli", "explore", PA, term],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0, err
    assert first.startswith(b"states: ")
    assert err == ""  # no traceback, no "internal error"


def test_cyclic_distance_answers_exactly(capsys):
    # the Kleene iterates 1 - 2^-n never reach 1
    code, out, _ = run(capsys, "distance", LOOPS, "loop_all", "loop_1_2")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "distance", LOOPS, "loop_2_3", "loop_4_5")
    assert (code, out.strip()) == (0, "2/5")


def test_cyclic_distance_with_a_wrong_first_coupling(tmp_path, capsys):
    spec = tmp_path / "two_rounds.pgsos"
    spec.write_text(TWO_ROUNDS)
    code, out, _ = run(capsys, "distance", str(spec), "s0", "s1")
    assert (code, out.strip()) == (0, "1/5")


@pytest.mark.parametrize("argv", [
    ["explore", PA, "pa0", "--max-states", "0"],
    ["explore", PA, "pa0", "--max-states", "-1"],
    ["explore", PA, "pa0", "--max-depth", "-1"],
    ["distance", PA, "aa0", "pa0", "--max-states", "0"],
    ["distance", PA, "aa0", "pa0", "--max-pairs", "0"],
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
    ("transitions_examples_bang", [
        "transitions", EXAMPLES,
        "bang(h_rep(f_alt(ppref_a_9_1(pref_a(zero), zero))))"]),
    ("explore_pa_ipar", ["explore", PA, "ipar(ipar(ipar(pa0, pa0), pa0), pa0)"]),
    ("oracle_pa", ["oracle", PA, "--samples", "60", "--seed", "7"]),
    # benchmark/inputs.generated_spec(random.Random(0), 40), drawn after
    # sizes 6, 14 and 24: recursive operators whose counts are widened
    ("continuity_gen40", ["continuity", str(GOLDEN / "gen40.pgsos")]),
    ("oracle_loops", ["oracle", LOOPS, "--samples", "60", "--seed", "7"]),
    # a fixed open term: every sample substitutes into par(x, y)
    ("oracle_pa_term", ["oracle", PA, "par(x, y)", "--samples", "60",
                        "--seed", "5"]),
])
def test_json_reports_match_golden_files(capsys, name, argv):
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
