"""Specification parsing, template expansion, validation, and round-tripping."""

import warnings
from fractions import Fraction

import pytest

from pgsos.errors import (
    ArityMismatch,
    OpenTermError,
    RuleFormatError,
    SpecSyntaxError,
    UndeclaredSymbol,
)
from pgsos.frontend import (
    EmptyExpansion,
    Rule,
    parse_spec,
    parse_term,
    validate_rule,
)
from pgsos.terms import (
    Apply,
    InstDirac,
    Variable,
    dist_var,
    format_term,
    free_vars,
    state_var,
)

from helpers import print_rule, print_spec

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
    assert pos_rule.pos[0].derivative == dist_var("m1")
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
    m1 = dist_var("m1")
    rule = Rule(op="f", sources=(x1, x1), pos=(), neg=(), action="a",
                target=InstDirac(Variable(x1)))
    kinds = {v.kind for v in validate_rule(rule)}
    assert "duplicate-source" in kinds or len(kinds) > 0
    good = Rule(op="f", sources=(x1,), pos=(), neg=(), action="a",
                target=InstDirac(Variable(x1)))
    assert validate_rule(good) == []
    assert m1  # silence linters; the variable documents intent


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


def test_parse_term_rejects_free_when_asked(pa_doc):
    with pytest.raises((OpenTermError, UndeclaredSymbol)):
        parse_term("par(aa0, x)", pa_doc, free_ok=False)


def test_parse_term_checks_arity(pa_doc):
    with pytest.raises(Exception) as err:
        parse_term("par(zero)", pa_doc)
    assert "par" in str(err.value)


def test_parse_dist_term(pa_doc):
    theta = parse_term("1/2*delta(zero) + 1/2*delta(a0)", pa_doc, kind="dist")
    assert format_term(theta) == "1/2*delta(pref_a(zero)) + 1/2*delta(zero)"


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
