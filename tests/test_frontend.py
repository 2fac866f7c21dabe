"""Specification parsing, template expansion, validation, and round-tripping."""

import random
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
    NegPremise,
    PosPremise,
    Rule,
    Token,
    _tokenize,
    parse_spec,
    parse_term,
)
from pgsos.terms import (
    Apply,
    DistApply,
    DistVariable,
    InstDirac,
    convex_sum,
    format_term,
    free_vars,
    state_var,
)

from helpers import print_rule, print_spec, tokenize_reference, validate_rule

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


# -- the rule check the parser makes where it reads a rule --------------------

CHECK_DECLS = ("actions a, b;\nop zero : 0;\nop g : 1;\nop par : 2;\n"
               + "".join(f"op f{n} : {n};\n" for n in range(4)))
X1, Y = state_var("x1"), state_var("y")
M1, U = DistVariable("m1"), DistVariable("u")


def _block(rule, template):
    """``rule`` as a rule block; a template ranges over ``ACT`` and writes
    every label as its variable."""
    text = print_rule(rule)
    if template:
        text = text.replace("--a-->", "--c-->").replace("-/a->", "-/c->")
        text = text.replace("rule:", "rule forall c in ACT:", 1)
    return text + "\n"


def _instances(rule, template):
    """The rules the parser makes of ``_block(rule, template)``."""
    return [Rule(rule.op, rule.sources,
                 tuple(PosPremise(p.source, c, p.derivative) for p in rule.pos),
                 tuple(NegPremise(n.source, c) for n in rule.neg), c,
                 rule.target)
            for c in (("a", "b") if template else ("a",))]


def _half(theta, eta):
    return convex_sum([(Fraction(1, 2), theta), (Fraction(1, 2), eta)])


def _rule(op, sources, pos=(), neg=(), target=InstDirac(Apply("zero"))):
    return Rule(op, tuple(map(state_var, sources)),
                tuple(PosPremise(state_var(s), "a", DistVariable(d))
                      for s, d in pos),
                tuple(NegPremise(state_var(s), "a") for s in neg), "a",
                target)


@pytest.mark.parametrize("rule, messages", [
    pytest.param(_rule("f2", ["x1", "x1"], target=InstDirac(X1)),
                 ["rule for f2: source variables repeat"], id="source"),
    pytest.param(_rule("f1", ["x1"], pos=[("x1", "m1"), ("x1", "m1")],
                       target=M1),
                 ["rule for f1: derivative variables repeat"],
                 id="derivative"),
    pytest.param(_rule("f1", ["x1"], pos=[("y", "m1")], neg=["x1", "z"],
                       target=M1),
                 ["rule for f1: premise tests y, not a source variable",
                  "rule for f1: premise tests z, not a source variable"],
                 id="premise"),
    pytest.param(_rule("f1", ["x1"], target=_half(U, InstDirac(state_var("u")))),
                 ["rule for f1: target mentions u, u"], id="both-kinds"),
    pytest.param(_rule("f1", ["x1"], pos=[("x1", "m1")],
                       target=InstDirac(state_var("m1"))),
                 ["rule for f1: target mentions m1"], id="derivative-in-delta"),
    pytest.param(_rule("f2", ["x1", "x1"], pos=[("x1", "m1"), ("y", "m1")],
                       neg=["z"],
                       target=DistApply("par", (
                           InstDirac(state_var("m1")),
                           _half(DistVariable("w"),
                                 InstDirac(Apply("g", (Y,))))))),
                 ["rule for f2: source variables repeat",
                  "rule for f2: derivative variables repeat",
                  "rule for f2: premise tests y, not a source variable",
                  "rule for f2: premise tests z, not a source variable",
                  "rule for f2: target mentions m1, w, y"], id="all"),
])
@pytest.mark.parametrize("template", [False, True], ids=["plain", "forall"])
def test_each_violation_is_reported_as_the_rule_walk_finds_it(rule, messages,
                                                              template):
    with pytest.raises(RuleFormatError) as err:
        parse_spec(CHECK_DECLS + _block(rule, template))
    assert [v.message for v in err.value.violations] == messages
    assert err.value.violations == validate_rule(rule)
    assert str(err.value) == "; ".join(messages)


def _random_target(rng, derivs, depth=3):
    """A distribution term over the rule's derivatives and the foreign
    names ``u``, ``w``, ``y`` and ``m1`` to ``m3``, the derivatives
    under ``delta`` among them."""
    def state(d):
        k = rng.randrange(4 if d else 3)
        if k == 0:
            return state_var(rng.choice(("x1", "x2", "x3", "y", "u", "m1")))
        if k == 1:
            return Apply("zero")
        return Apply("g", (state(d - 1),))

    k = rng.randrange(5 if depth else 2)
    if k == 0:
        return DistVariable(rng.choice(derivs + ["u", "w", "m3"]))
    if k == 1:
        return InstDirac(state(2))
    if k == 2:
        return DistApply("par", (_random_target(rng, derivs, depth - 1),
                                 _random_target(rng, derivs, depth - 1)))
    return _half(_random_target(rng, derivs, depth - 1),
                 _random_target(rng, derivs, depth - 1))


def _random_rule(rng):
    """A rule whose sources may repeat, whose premises may test a
    non-source or repeat a derivative, and whose target may mention
    foreign names of both kinds; names never change their kind, so the
    parser reads the text of the rule back as this rule."""
    n = rng.randrange(4)
    sources = [f"x{i + 1}" for i in range(n)]
    if n > 1 and rng.random() < 0.2:
        sources[rng.randrange(n)] = sources[0]
    testable = sources + ["y"] if sources else ["y"]
    derivs = []
    for _ in range(rng.randrange(4)):
        derivs.append(rng.choice(derivs) if derivs and rng.random() < 0.2
                      else f"m{len(derivs) + 1}")
    pos = [(rng.choice(testable) if rng.random() < 0.2 else
            rng.choice(sources or ["y"]), d) for d in derivs]
    neg = [rng.choice(testable) for _ in range(rng.randrange(3))]
    return _rule(f"f{n}", sources, pos, neg,
                 _random_target(rng, sorted(set(derivs))))


def test_the_check_where_rules_are_read_equals_the_walk_over_each_rule():
    kinds = set()
    for seed in range(400):
        rng = random.Random(seed)
        blocks = [(_random_rule(rng), rng.random() < 0.5)
                  for _ in range(rng.randint(1, 3))]
        text = CHECK_DECLS + "".join(_block(r, tpl) for r, tpl in blocks)
        expected = [v for r, _ in blocks for v in validate_rule(r)]
        kinds |= {v.kind for v in expected}
        if expected:
            with pytest.raises(RuleFormatError) as err:
                parse_spec(text)
            assert err.value.violations == expected, seed
            # a syntax error later in the text wins over every violation
            with pytest.raises(SpecSyntaxError):
                parse_spec(text + "rule ---")
        else:
            assert list(parse_spec(text).rules) == [
                r for rule, tpl in blocks for r in _instances(rule, tpl)]
    assert kinds == {"DuplicateSource", "DuplicateDerivative",
                     "ForeignPremiseSource", "ForeignTargetVariable"}


def test_a_template_with_no_instance_is_not_checked():
    text = ("actions a;\nop f : 1;\nrule forall c in {}:\n  ---\n"
            "  f(x1) --c--> delta(y)\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parse_spec(text).rules == ()
    assert [w.category for w in caught] == [EmptyExpansion]
    with pytest.raises(RuleFormatError) as err:
        parse_spec(text.replace("{}", "{a}"))
    assert str(err.value) == "rule for f: target mentions y"


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
