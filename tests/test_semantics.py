"""Rule-driven transition derivation and reachable-fragment exploration."""

import gc
import itertools
import random
import types
from fractions import Fraction
from importlib import resources

import pytest

from pgsos import terms
from pgsos.errors import (
    ArityMismatch,
    DepthLimitExceeded,
    OpenTermError,
    StateLimitExceeded,
    UndeclaredSymbol,
)
from pgsos.frontend import parse_spec, parse_term
from pgsos.oracle import random_closed_term
from pgsos.semantics import (check_closed, derive_transitions,
                             explore_fragment, transitions)
from pgsos.terms import Apply, FiniteDistribution, Variable

from helpers import (dup_spec, enabled_actions, fire_reference, instantiate,
                     random_cyclic_spec, round_trip, subterms)

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
    assert dict(pi.entries)[t(pa_doc, "a0")] == F(9, 10)
    assert dict(pi.entries)[t(pa_doc, "zero")] == F(1, 10)


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
    assert dict(pi.entries)[t(pa_doc, "par(a0, a0)")] == F(81, 100)
    assert dict(pi.entries)[t(pa_doc, "par(a0, zero)")] == F(9, 100)
    assert dict(pi.entries)[t(pa_doc, "par(zero, a0)")] == F(9, 100)
    assert dict(pi.entries)[t(pa_doc, "par(zero, zero)")] == F(1, 100)


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
        derive_transitions(pa_doc, Variable("x"))
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


def test_a_term_is_checked_in_one_walk(pa_doc, monkeypatch):
    """Free variables come first, all of them, sorted, whatever else is
    wrong; a closed term's error is at its first operator in the text with
    a wrong arity or no declaration, outermost first, left to right; and
    every subterm is read once."""
    x, y, zero = Variable("x"), Variable("y"), Apply("zero")
    with pytest.raises(OpenTermError, match="; free: x, y$"):
        check_closed(pa_doc, Apply("par", (Apply("par", (y,)), Apply(
            "nonsense", (x, Apply("ipar", (x, y)))))), "open")
    with pytest.raises(ArityMismatch, match="^ipar expects 2"):
        check_closed(pa_doc, Apply("ipar", (Apply("par", (zero,)),)), "")
    with pytest.raises(ArityMismatch, match="^par expects 2"):
        check_closed(pa_doc, Apply("ipar", (Apply("par", (zero,)),
                                            Apply("nonsense"))), "")
    with pytest.raises(UndeclaredSymbol, match="'nonsense'"):
        check_closed(pa_doc, Apply("ipar", (Apply("nonsense"),
                                            Apply("par", (zero,)))), "")
    root = t(pa_doc, "par(ipar(pa0, aa0), ipar(pa0, pref_a(aa0)))")
    reads = []
    read = terms.immediate_subterms
    monkeypatch.setattr(terms, "immediate_subterms",
                        lambda u: reads.append(u) or read(u))
    check_closed(pa_doc, root, "")
    assert sorted(map(id, reads)) == sorted(map(id, subterms(root)))


def test_rule_plans_hold_no_reference_to_the_document():
    """Nothing reachable from the plans table is the document, so the
    plans cannot keep it alive (types and modules, which reach everything,
    are not followed; functions only through their closures)."""
    doc = _load("examples.pgsos")
    explore_fragment(doc, [t(doc, "par(ipar(pref_a(zero), zero), "
                                  "alt(zero, zero))")])
    plans = doc.memo("rule plans")
    assert plans
    seen, stack = set(), [plans]
    while stack:
        obj = stack.pop()
        assert obj is not doc
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, types.FunctionType):
            stack += obj.__closure__ or ()
        else:
            stack += gc.get_referents(obj)


def test_explore_complete_fragment(pa_doc):
    frag = explore_fragment(pa_doc, [t(pa_doc, "par(aa0, aa0)"),
                                     t(pa_doc, "par(pa0, pa0)")])
    assert len(frag.states) == 6
    assert frag.depth == 1
    # closure property: every support state is itself explored
    for s in frag.states:
        for a in pa_doc.actions:
            for pi in frag.transitions[s].get(a, ()):
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


def test_more_roots_than_the_state_budget_are_refused_at_once(pa_doc):
    roots = [t(pa_doc, "aa0"), t(pa_doc, "pa0"), t(pa_doc, "aa0")]
    with pytest.raises(StateLimitExceeded) as refusal:
        explore_fragment(pa_doc, roots, max_states=1)
    assert str(refusal.value) == "2 roots already exceed max_states=1"


def test_depth_limit(pa_doc):
    with pytest.raises(DepthLimitExceeded):
        explore_fragment(pa_doc, [t(pa_doc, "aa0")], max_depth=1)
    frag = explore_fragment(pa_doc, [t(pa_doc, "aa0")], max_depth=2)
    assert frag.depth == 2


# -- rule targets are instantiated as the round trip through syntax --------

# dup_spec has no process that moves; this constant gives dup, d3 and dd
# two-point premises to copy
MOVER = """op pa : 0;
rule:
  ---
  pa --a--> 1/3*delta(pa) + 2/3*delta(zero)
"""


def _moves(doc, s):
    """The transitions of ``s`` by action, in a fixed order."""
    out = {}
    for a, pi in sorted(derive_transitions(doc, s),
                        key=lambda m: (m[0], str(m[1]))):
        out.setdefault(a, []).append(pi)
    return out


def _instantiation_cases(doc, roots, rng, per_rule=6):
    """``(rule, states, dists)`` for rules of ``doc`` with arguments drawn
    from the roots and the states up to two steps from them, and premise
    distributions taken from those arguments' derived transitions."""
    pool = dict.fromkeys(roots)
    for s in list(pool) * 2:
        for pis in _moves(doc, s).values():
            pool.update((u, None) for pi in pis for u in pi.support()
                        if len(pool) < 300)
    pool = list(pool)
    for rule in doc.rules:
        found = 0
        for _ in range(100):
            states = {x: rng.choice(pool) for x in rule.sources}
            choices = [_moves(doc, states[p.source]).get(p.action, ())
                       for p in rule.pos]
            if not all(choices):
                continue
            for combo in itertools.islice(itertools.product(*choices), 4):
                yield rule, states, dict(zip(rule.derivatives(), combo))
            found += 1
            if found == per_rule:
                break


def _load(name):
    return parse_spec(resources.files("pgsos").joinpath("data", name)
                      .read_bytes())


def _small(doc, root):
    try:
        explore_fragment(doc, [root], max_states=200)
    except StateLimitExceeded:
        return False
    return True


def _roots(doc, roots, rng):
    """The named roots, or a dozen random closed terms with small
    fragments."""
    if roots is None:
        return [r for r in (random_closed_term(rng, doc, 3)
                            for _ in range(12)) if _small(doc, r)]
    return [t(doc, r) for r in roots]


def _instantiation_docs():
    rng = random.Random(15)
    yield "pa", _load("pa.pgsos"), None
    yield "examples", _load("examples.pgsos"), None
    yield "loops", _load("loops.pgsos"), None
    yield "dup9", parse_spec(dup_spec(9) + MOVER), ["dd(pa)", "dup(pa)", "pa"]
    for i in range(20):
        text, names = random_cyclic_spec(rng)
        yield f"cyclic{i}", parse_spec(text), names


@pytest.mark.parametrize("name, doc, roots", [
    pytest.param(*case, id=case[0]) for case in _instantiation_docs()])
def test_instantiate_equals_the_round_trip_through_syntax(name, doc, roots):
    rng = random.Random(name)
    roots = _roots(doc, roots, rng)
    fired = set()
    for rule, states, dists in _instantiation_cases(doc, roots, rng):
        pi = instantiate(rule.target, states, dists)
        assert pi.entries == round_trip(rule.target, states, dists).entries
        fired.add(rule)
    assert fired == set(doc.rules)


@pytest.mark.parametrize("name, doc, roots", [
    pytest.param(*case, id=case[0]) for case in _instantiation_docs()])
def test_transitions_equal_the_rules_read_afresh(name, doc, roots):
    """Every state's moves equal the reference's: the actions in name
    order, per action the distributions in order, each with its entries in
    order (equality alone would ignore that order)."""
    if name == "dup9":  # dd(pa) reaches d3(dup(pa)), a move of 512**3 points
        roots = ["dup(pa)", "pa"]
    rng = random.Random(name)
    for s in explore_fragment(doc, _roots(doc, roots, rng)).states:
        moves, expected = transitions(doc, s), fire_reference(doc, s)
        assert list(moves) == list(expected)
        for a, pis in moves.items():
            assert [pi.entries for pi in pis] == [
                pi.entries for pi in expected[a]]
