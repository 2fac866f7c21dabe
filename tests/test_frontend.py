"""Specification parsing, template expansion, validation, and round-tripping."""

import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsos.errors import (
    ArityMismatch,
    KindMismatch,
    OpenTermError,
    RuleFormatError,
    SpecSyntaxError,
    UndeclaredSymbol,
)
from pgsos.frontend import (
    EmptyExpansion,
    Rule,
    Token,
    _tokenize,
    parse_spec,
    parse_term,
    validate_rule,
)
from pgsos.terms import (
    Apply,
    DistVariable,
    InstDirac,
    format_term,
    free_vars,
    state_var,
)

from helpers import print_rule, print_spec, tokenize_reference

MINI = """
actions a, b;
op zero : 0;
op f : 1;
op g : 1;

rule:
  x1 --a--> m1
  ---
  f(x1) --a--> m1

rule:
  x1 -/b->
  ---
  g(x1) --a--> delta(zero)
"""


def test_parse_minimal_document():
    doc = parse_spec(MINI)
    assert doc.actions == ("a", "b")
    assert doc.signature.arity("f") == 1
    assert len(doc.rules) == 2
    (pos_rule, neg_rule) = doc.rules
    assert pos_rule.op == "f" and pos_rule.action == "a"
    assert pos_rule.pos[0].source == state_var("x1")
    assert pos_rule.pos[0].derivative == DistVariable("m1")
    assert neg_rule.neg[0].source == state_var("x1")
    assert neg_rule.neg[0].action == "b"
    assert neg_rule.target == InstDirac(Apply("zero"))


def test_document_is_hashable_and_groups_rules(pa_doc):
    hash(pa_doc)
    assert len(pa_doc.rules_for("par")) == len(pa_doc.actions)
    assert len(pa_doc.rules_for("alt")) == 2 * len(pa_doc.actions)
    assert pa_doc.rules_for("zero") == ()


def test_template_expansion_over_action_sets(pa_doc):
    # parB synchronises on B={a} and interleaves on ACT\B={b}
    rules = pa_doc.rules_for("parB")
    sync = [r for r in rules if len(r.pos) == 2]
    inter = [r for r in rules if len(r.pos) == 1]
    assert [r.action for r in sync] == ["a"]
    assert sorted(r.action for r in inter) == ["b", "b"]


def test_empty_expansion_warns_and_drops_rule():
    text = MINI + "\nset E = {};\nrule forall c in E:\n  ---\n  f(x1) --c--> delta(x1)\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        doc = parse_spec(text)
    assert any(isinstance(w.message, EmptyExpansion) for w in caught)
    assert len(doc.rules) == 2


def test_syntax_error_carries_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("actions a;\nop zero 0;\n")
    assert err.value.line == 2


def _lex(tokenize, text):
    """The tokens of ``text``, or the message of its syntax error."""
    try:
        return tokenize(text)
    except SpecSyntaxError as err:
        return str(err)


# the characters at which the lexer's pieces start and end, few enough that
# any two meet often, and characters it must refuse: a digit that is no
# decimal, a number, and blanks other than space, tab and carriage return;
# a non-ASCII decimal and letter are read like 1 and a
SPEC_TEXT = st.text(st.sampled_from(" \t\r\n#-/>.;(1a_\u00b2\u00bd\u0663"
                                    "\u00e9\f\x0b\x85"))


@settings(max_examples=500, deadline=None)
@given(st.text() | SPEC_TEXT)
def test_lexer_equals_the_character_loop(text):
    assert _lex(_tokenize, text) == _lex(tokenize_reference, text)


def test_lexer_equals_the_character_loop_on_the_shipped_specs():
    data = resources.files("pgsos").joinpath("data")
    texts = [data.joinpath(f"{name}.pgsos").read_text(encoding="utf-8")
             for name in ("pa", "examples", "loops")]
    texts.append((Path(__file__).parent / "golden" / "gen40.pgsos").read_text(
        encoding="utf-8"))
    for text in texts:
        assert _tokenize(text) == tokenize_reference(text)


def test_eof_after_a_trailing_comment_is_where_the_comment_starts():
    # a comment's characters take no columns, so the end of a text that
    # ends in one, without a newline, is the column of its '#'
    assert _tokenize("a # note")[-1] == Token("eof", "", 1, 3)
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("actions a # the one action")
    assert str(err.value) == "expected ;, found '' (line 1, column 11)"


@pytest.mark.parametrize("text, message", [
    pytest.param("actions a;\f", "unexpected character '\\x0c' "
                 "(line 1, column 11)", id="form-feed"),
    pytest.param("actions\x85a;", "unexpected character '\\x85' "
                 "(line 1, column 8)", id="next-line"),
])
def test_blanks_other_than_space_tab_and_cr_are_unexpected(text, message):
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(text)
    assert str(err.value) == message


def test_crlf_line_ends_count_the_cr_as_a_blank():
    crlf = MINI.replace("\n", "\r\n")
    assert parse_spec(crlf).rules == parse_spec(MINI).rules
    assert _tokenize("a\r\nb") == [Token("ident", "a", 1, 1),
                                    Token("ident", "b", 2, 1),
                                    Token("eof", "", 2, 2)]
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("actions a;\r\nop zero 0;\r\n")
    assert str(err.value) == "expected :, found '0' (line 2, column 9)"


def test_undeclared_action_in_rule():
    bad = """
actions a;
op zero : 0;
op f : 1;
rule:
  ---
  f(x1) --q--> delta(x1)
"""
    with pytest.raises((UndeclaredSymbol, SpecSyntaxError)):
        parse_spec(bad)


def test_rule_format_violations_are_rejected():
    # target uses a variable that is neither a source nor a derivative
    bad = """
actions a;
op zero : 0;
op f : 1;
rule:
  ---
  f(x1) --a--> delta(x2)
"""
    with pytest.raises(RuleFormatError):
        parse_spec(bad)


def test_template_violations_are_reported_once():
    # every instance of a template has the same shape, so a foreign premise
    # is one finding, not one per action
    bad = """
actions a, b;
op f : 1;
rule forall c in ACT:
  y --c--> m
  ---
  f(x1) --c--> m
"""
    with pytest.raises(RuleFormatError) as err:
        parse_spec(bad)
    assert len(err.value.violations) == 1
    assert str(err.value) == "rule for f: premise tests y, not a source variable"


def test_duplicate_derivative_variable_is_rejected():
    bad = """
actions a;
op zero : 0;
op f : 2;
rule:
  x1 --a--> m1
  x2 --a--> m1
  ---
  f(x1, x2) --a--> m1
"""
    with pytest.raises(RuleFormatError):
        parse_spec(bad)


def test_premise_on_non_source_is_rejected():
    bad = """
actions a;
op zero : 0;
op f : 1;
rule:
  x2 --a--> m1
  ---
  f(x1) --a--> m1
"""
    with pytest.raises(RuleFormatError):
        parse_spec(bad)


def test_validate_rule_reports_violations_directly():
    x1 = state_var("x1")
    rule = Rule(op="f", sources=(x1, x1), pos=(), neg=(), action="a",
                target=InstDirac(x1))
    kinds = {v.kind for v in validate_rule(rule)}
    assert kinds == {"DuplicateSource"}
    good = Rule(op="f", sources=(x1,), pos=(), neg=(), action="a",
                target=InstDirac(x1))
    assert validate_rule(good) == []


def test_print_parse_round_trip(pa_doc, examples_doc):
    for doc in (pa_doc, examples_doc):
        text = print_spec(doc)
        again = parse_spec(text)
        assert again.signature == doc.signature
        assert again.rules == doc.rules
        assert again.abbreviations == doc.abbreviations


def test_print_rule_is_readable(pa_doc):
    rule = pa_doc.rules_for("par")[0]
    text = print_rule(rule)
    assert "par(x1, x2)" in text
    assert "---" in text


def test_parse_term_expands_abbreviations(pa_doc):
    t = parse_term("par(aa0, x)", pa_doc)
    assert format_term(t) == "par(pref_a(pref_a(zero)), x)"
    assert free_vars(t) == frozenset({state_var("x")})


def test_parse_term_checks_arity(pa_doc):
    with pytest.raises(Exception) as err:
        parse_term("par(zero)", pa_doc)
    assert "par" in str(err.value)


def test_abbreviations_must_be_closed():
    bad = """
actions a;
op zero : 0;
term t = f(x);
"""
    with pytest.raises((UndeclaredSymbol, SpecSyntaxError, OpenTermError)):
        parse_spec(bad)


def test_digest_is_stable(pa_doc):
    doc2 = parse_spec(print_spec(pa_doc))
    assert doc2.source_digest != ""
    assert parse_spec(print_spec(pa_doc)).source_digest == doc2.source_digest


def test_deep_state_terms_parse_without_recursion(pa_doc):
    deep = "pref_a(" * 5000 + "zero" + ")" * 5000
    t = parse_term(deep, pa_doc)
    for _ in range(5000):
        assert t.op == "pref_a"
        (t,) = t.args
    assert t == Apply("zero")
    doc = parse_spec(MINI + f"op pref_a : 1;\nterm deep = {deep};\n")
    assert parse_term("deep", doc) == parse_term(deep, doc)


def test_deep_set_expressions_parse_and_evaluate_without_recursion():
    # set expressions are parsed and evaluated on explicit stacks
    n = 10 ** 4
    for expr in ["(" * n + "{a}" + ")" * n, " | ".join(["{a}"] * n)]:
        doc = parse_spec(f"actions a, b;\nset B = {expr};\nop zero : 0;\n")
        assert doc.sets == (("B", ("a",)),)
    # operators stay left-associative, groups bind first
    doc = parse_spec("actions a, b; set B = {a, b} \\ {a} | {a};"
                     " set C = {a, b} \\ ({a} | {a}); set D = ((ACT)) & B;"
                     " op zero : 0;")
    assert doc.sets == (("B", ("a", "b")), ("C", ("b",)), ("D", ("a", "b")))
    with pytest.raises(SpecSyntaxError, match="expected \\)"):
        parse_spec("actions a; set B = (({a}); op zero : 0;")
    with pytest.raises(SpecSyntaxError, match="expected a set expression"):
        parse_spec("actions a; set B = ({a} | ()); op zero : 0;")


def test_state_names_in_a_distribution_ask_for_delta():
    # a term abbreviation, like a state variable, names a state, not a
    # distribution: it is neither a free distribution variable nor unknown
    spec = MINI + "term z = f(zero);\nrule:\n  ---\n  f(x1) --b--> z\n"
    line = spec.splitlines().index("  f(x1) --b--> z") + 1
    with pytest.raises(KindMismatch) as err:
        parse_spec(spec)
    assert str(err.value) == (f"z is a state term; write delta(z) for its "
                              f"point mass (line {line})")
    with pytest.raises(KindMismatch, match=r"x1 is a state variable"):
        parse_spec(MINI + "rule:\n  ---\n  f(x1) --b--> x1\n")


def test_nesting_errors_keep_their_line():
    text = MINI + "term t = f(\n  g(\n    f(zero, zero)));\n"
    line = text.splitlines().index("    f(zero, zero)));") + 1
    with pytest.raises(ArityMismatch) as err:
        parse_spec(text)
    assert str(err.value) == f"f expects 1 argument(s), got 2 (line {line})"


def test_bare_operator_in_a_distribution_is_an_arity_mismatch():
    spec = """
actions a;
op f : 1;
op par : 2;

rule:
  ---
  f(x1) --a--> par
"""
    line = spec.splitlines().index("  f(x1) --a--> par") + 1
    with pytest.raises(ArityMismatch) as err:
        parse_spec(spec)
    assert str(err.value) == f"par expects 2 argument(s), got 0 (line {line})"
