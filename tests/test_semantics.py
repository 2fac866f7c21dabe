"""Rule-driven transition derivation and reachable-fragment exploration."""

from fractions import Fraction

import pytest

from pgsos.errors import (
    ArityMismatch,
    DepthLimitExceeded,
    OpenTermError,
    StateLimitExceeded,
    UndeclaredSymbol,
)
from pgsos.frontend import parse_spec, parse_term
from pgsos.semantics import derive_transitions, explore_fragment
from pgsos.terms import Apply, FiniteDistribution, Variable, state_var

from helpers import enabled_actions

F = Fraction


def t(doc, text):
    return parse_term(text, doc)


def only(steps):
    steps = sorted(steps)
    assert len(steps) == 1
    return steps[0]


def test_probabilistic_prefix_transition(pa_doc):
    action, pi = only(derive_transitions(pa_doc, t(pa_doc, "pa0")))
    assert action == "a"
    assert pi.mass(t(pa_doc, "a0")) == F(9, 10)
    assert pi.mass(t(pa_doc, "zero")) == F(1, 10)


def test_deterministic_prefix_and_deadlock(pa_doc):
    action, pi = only(derive_transitions(pa_doc, t(pa_doc, "a0")))
    assert action == "a"
    assert pi == FiniteDistribution.dirac(t(pa_doc, "zero"))
    assert derive_transitions(pa_doc, t(pa_doc, "zero")) == frozenset()


def test_alternative_offers_both_branches(pa_doc):
    term = t(pa_doc, "alt(a0, bb0)")
    acts = sorted(a for a, _ in derive_transitions(pa_doc, term))
    assert acts == ["a", "b"]
    assert enabled_actions(pa_doc, term) == ("a", "b")


def test_synchronous_parallel_requires_both(pa_doc):
    # a-prefix against b-prefix: no common action, no step
    assert derive_transitions(pa_doc, t(pa_doc, "par(a0, bb0)")) == frozenset()
    action, pi = only(derive_transitions(pa_doc, t(pa_doc, "par(a0, a0)")))
    assert action == "a"
    assert pi == FiniteDistribution.dirac(t(pa_doc, "par(zero, zero)"))


def test_synchronous_parallel_multiplies_probabilities(pa_doc):
    _, pi = only(derive_transitions(pa_doc, t(pa_doc, "par(pa0, pa0)")))
    assert pi.mass(t(pa_doc, "par(a0, a0)")) == F(81, 100)
    assert pi.mass(t(pa_doc, "par(a0, zero)")) == F(9, 100)
    assert pi.mass(t(pa_doc, "par(zero, a0)")) == F(9, 100)
    assert pi.mass(t(pa_doc, "par(zero, zero)")) == F(1, 100)


def test_interleaving_keeps_partner_still(pa_doc):
    out = derive_transitions(pa_doc, t(pa_doc, "ipar(a0, bb0)"))
    by_action = {a: pi for a, pi in out}
    assert set(by_action) == {"a", "b"}
    assert by_action["a"] == FiniteDistribution.dirac(t(pa_doc, "ipar(zero, bb0)"))
    assert by_action["b"] == FiniteDistribution.dirac(
        t(pa_doc, "ipar(a0, pref_b(zero))"))


def test_set_restricted_synchronisation(pa_doc):
    # parB syncs on {a}; b interleaves
    out = derive_transitions(pa_doc, t(pa_doc, "parB(a0, bb0)"))
    assert sorted(a for a, _ in out) == ["b"]
    out = derive_transitions(pa_doc, t(pa_doc, "parB(a0, alt(a0, bb0))"))
    assert sorted(a for a, _ in out) == ["a", "b"]


def test_negative_premises_enable_on_refusal():
    doc = parse_spec("""
actions a, b;
op zero : 0;
op pref_a : 1;
op pref_b : 1;
op only_if_no_b : 1;
rule:
  ---
  pref_a(x1) --a--> delta(x1)
rule:
  ---
  pref_b(x1) --b--> delta(x1)
rule:
  x1 -/b->
  ---
  only_if_no_b(x1) --a--> delta(zero)
""")
    action, _ = only(derive_transitions(doc, t(doc, "only_if_no_b(pref_a(zero))")))
    assert action == "a"
    cannot = derive_transitions(doc, t(doc, "only_if_no_b(pref_b(zero))"))
    assert cannot == frozenset()


def test_open_terms_are_rejected(pa_doc):
    with pytest.raises(OpenTermError):
        derive_transitions(pa_doc, Variable(state_var("x")))
    with pytest.raises(OpenTermError):
        explore_fragment(pa_doc, [t(pa_doc, "par(x, zero)")])


def test_undeclared_operator_is_rejected(pa_doc):
    with pytest.raises(UndeclaredSymbol):
        derive_transitions(pa_doc, Apply("nonsense", ()))


def test_wrong_arity_is_an_arity_mismatch(pa_doc):
    one_arg_par = Apply("par", (Apply("zero", ()),))
    with pytest.raises(ArityMismatch):
        derive_transitions(pa_doc, one_arg_par)
    with pytest.raises(ArityMismatch):
        explore_fragment(pa_doc, [one_arg_par])


def test_explore_complete_fragment(pa_doc):
    frag = explore_fragment(pa_doc, [t(pa_doc, "par(aa0, aa0)"),
                                     t(pa_doc, "par(pa0, pa0)")])
    assert len(frag.states) == 6
    assert frag.depth == 1
    # closure property: every support state is itself explored
    for s in frag.states:
        for a in pa_doc.actions:
            for pi in frag.der(s, a):
                for target in pi.support():
                    assert target in frag.states


def test_explore_deterministic_order(pa_doc):
    roots = [t(pa_doc, "par(pa0, pa0)")]
    f1 = explore_fragment(pa_doc, roots)
    f2 = explore_fragment(pa_doc, roots)
    assert f1.states == f2.states
    assert f1.transitions == f2.transitions


def test_state_limit_refuses_the_closure(examples_doc):
    with pytest.raises(StateLimitExceeded):
        explore_fragment(examples_doc, [t(examples_doc, "bang(aa0)")],
                         max_states=8)


def test_depth_limit(pa_doc):
    with pytest.raises(DepthLimitExceeded):
        explore_fragment(pa_doc, [t(pa_doc, "aa0")], max_depth=1)
    frag = explore_fragment(pa_doc, [t(pa_doc, "aa0")], max_depth=2)
    assert frag.depth == 2
