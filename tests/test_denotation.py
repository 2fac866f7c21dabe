"""Open-term denotations: composition laws, the joint fixpoint, pumping.

Golden values for the shipped operator suites are written out in full; they
were derived by hand from the step clauses and double-checked against the
sampling oracle (see test_oracle.py), so any regression here is a real
semantic change and not a formatting accident.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from pgsos import denotation, frontend
from pgsos.continuity import is_uniformly_continuous
from pgsos.denotation import (
    Denotations,
    _measure,
    _StepContext,
    bound_distance,
    branch_compose,
    canonical_rule,
    fold_rule,
    lfp_denotations,
    power_sum,
)
from pgsos.errors import ArityMismatch
from pgsos.frontend import Rule, parse_spec, parse_term
from pgsos.metric import bisim_distance
from pgsos.oracle import random_open_term
from pgsos.multiplicity import (
    D_ZERO,
    INF,
    M_ZERO,
    P_ZERO,
    GenSet,
    ProbMultiplicity,
    genset_equiv,
    genset_leq,
    genset_normalize,
    m_sum,
    mult,
    p_sum,
    process_distance,
    unit,
    weighting_of,
)
from pgsos.terms import (
    Apply,
    ConvexSum,
    DistApply,
    DistVariable,
    InstDirac,
    convex_sum,
    immediate_subterms,
    state_var,
)

from helpers import (UnsoundStep, document_flags, dup_spec,
                     fold_rule_reference, jacobi_denotations,
                     jacobi_iterates, random_cyclic_spec, subterms,
                     tracked_entries, unsound_denotations)

F = Fraction
X = state_var("x")
X1, X2 = state_var("x1"), state_var("x2")
MU = DistVariable("mu")


def g(*pairs_list):
    """Generator set literal from (multiplicity, mass) pair lists."""
    return GenSet(tuple(ProbMultiplicity.from_pairs(ps) for ps in pairs_list))


def dirac_gs(m):
    return GenSet((ProbMultiplicity.dirac(m),))


def t(doc, text):
    return parse_term(text, doc)


# -- composition primitives -------------------------------------------------

def test_power_sum_basics():
    p = ProbMultiplicity.from_pairs([(M_ZERO, F(1, 2)), (unit(X), F(1, 2))])
    assert power_sum(p, 0) == P_ZERO
    assert power_sum(p, 1) == p
    sq = power_sum(p, 2)
    assert dict(sq.entries) == {M_ZERO: F(1, 4), unit(X): F(1, 2),
                                mult({X: 2}): F(1, 4)}


def test_power_sum_infinite_copies():
    p = ProbMultiplicity.from_pairs([(M_ZERO, F(1, 2)), (unit(X), F(1, 2))])
    assert power_sum(p, INF) == ProbMultiplicity.dirac(mult({X: INF}))
    # no support variables: infinitely many silent copies stay silent
    assert power_sum(P_ZERO, INF) == P_ZERO


def test_branch_compose_shares_the_outer_draw():
    # outer: two copies of x half the time; inner argument: one copy of x1
    # every argument copy is drawn independently
    p_f = ProbMultiplicity.from_pairs([(M_ZERO, F(1, 2)), (mult({X: 2}), F(1, 2))])
    arg = ProbMultiplicity.from_pairs([(M_ZERO, F(1, 2)), (unit(X1), F(1, 2))])
    out = branch_compose(p_f, (X,), (arg,))
    assert dict(out.entries) == {M_ZERO: F(5, 8), unit(X1): F(1, 4),
                                 mult({X1: 2}): F(1, 8)}


def test_fold_rule_counts_premise_copies(examples_doc):
    rule = next(r for r in examples_doc.rules if r.op == "f_alt")
    canon = canonical_rule(rule)
    d1 = DistVariable("d1")
    x1 = state_var("x1")
    # each copy of the derivative d1 also charges one copy of its source;
    # the derivative coordinate itself survives (composition ignores it)
    p = ProbMultiplicity.dirac(unit(d1))
    assert fold_rule(p, canon) == ProbMultiplicity.dirac(mult({d1: 1, x1: 1}))
    p2 = ProbMultiplicity.dirac(mult({d1: 2}))
    assert fold_rule(p2, canon) == ProbMultiplicity.dirac(mult({d1: 2, x1: 2}))


def test_canonical_rule_renames_sources_and_derivatives(pa_doc):
    rule = next(r for r in pa_doc.rules if r.op == "par")
    canon = canonical_rule(rule)
    assert canon.sources == (state_var("x1"), state_var("x2"))
    assert [p.derivative.name for p in canon.pos] == ["d1", "d2"]
    assert canonical_rule(canon) == canon


def test_the_denotation_keeps_one_rule_per_rule_up_to_actions(pa_doc):
    # pa with 300 more actions expands its templates into 2,118 rules; the
    # denotation reads no action, so it keeps one canonical rule per rule
    # block of pa.pgsos, whatever the number of actions
    text = resources.files("pgsos").joinpath("data", "pa.pgsos").read_text(
        encoding="utf-8")
    extra = ", ".join(f"e{i}" for i in range(300))
    doc = parse_spec(text.replace("actions a, b;", f"actions a, b, {extra};"))
    assert len(doc.rules) == 2118
    den = lfp_denotations(doc)
    assert {op: len(rules) for op, rules in den.rules_by_op.items()} == {
        "pref_a": 1, "pref_b": 1, "ppref_a_9_1": 1, "ppref_b_8_2": 1,
        "ppref_a_5_5": 1, "alt": 2, "par": 1, "parB": 3, "ipar": 2}
    assert all(r.action == "" and {p.action for p in r.pos + r.neg} <= {""}
               for rules in den.rules_by_op.values() for r in rules)
    small = lfp_denotations(pa_doc)
    for op in ("alt", "par", "parB", "ipar"):
        generic = Apply(op, (state_var("x1"), state_var("x2")))
        assert den.genset(generic) == small.genset(generic)
        assert den.flags(generic) == small.flags(generic)


def test_subterms_innermost_first(pa_doc):
    term = t(pa_doc, "par(pref_a(zero), x)")
    names = [str(s) for s in map(type, subterms(term))]
    assert len(subterms(term)) == 4
    assert subterms(term)[-1] == term
    assert names  # structure only; order contract: every child before its parent
    seen = set()
    for s in subterms(term):
        for child in getattr(s, "args", ()):
            assert child in seen
        seen.add(s)


# -- fixpoint on the finite algebra ----------------------------------------

def test_finite_algebra_converges_without_widening(pa_doc):
    den = lfp_denotations(pa_doc)
    assert isinstance(den, Denotations)
    assert document_flags(den) == (False, False)
    assert den.iterations <= 16


def test_canonical_forms_of_classic_operators(pa_doc):
    den = lfp_denotations(pa_doc)
    assert genset_equiv(den.genset(t(pa_doc, "zero")), D_ZERO)
    assert genset_equiv(den.genset(t(pa_doc, "x")), dirac_gs(unit(X)))
    assert genset_equiv(den.genset(t(pa_doc, "pref_a(x1)")), dirac_gs(unit(X1)))
    assert genset_equiv(den.genset(t(pa_doc, "alt(x1, x2)")),
                        GenSet((ProbMultiplicity.dirac(unit(X1)),
                                ProbMultiplicity.dirac(unit(X2)))))
    for op in ("par", "parB", "ipar"):
        assert genset_equiv(den.genset(t(pa_doc, f"{op}(x1, x2)")),
                            dirac_gs(unit(X1, X2))), op
    assert genset_equiv(den.genset(t(pa_doc, "ppref_a_5_5(x1, x2)")),
                        g([(unit(X1), F(1, 2)), (unit(X2), F(1, 2))]))


def test_multiple_occurrences_accumulate(pa_doc):
    den = lfp_denotations(pa_doc)
    assert genset_equiv(den.genset(t(pa_doc, "par(x, x)")),
                        dirac_gs(mult({X: 2})))
    # a closed partner occupies no variable coordinate
    assert genset_equiv(den.genset(t(pa_doc, "par(x, aa0)")), dirac_gs(unit(X)))


def test_closed_terms_denote_the_zero_point(pa_doc):
    den = lfp_denotations(pa_doc)
    assert genset_equiv(den.genset(t(pa_doc, "par(aa0, pa0)")), D_ZERO)


def test_derivative_duplication(examples_doc):
    den = lfp_denotations(examples_doc)
    assert genset_equiv(den.genset(t(examples_doc, "f_alt(x)")),
                        dirac_gs(mult({X: 2})))
    assert genset_equiv(den.genset(t(examples_doc, "h_rep(x1)")),
                        g([(M_ZERO, F(1, 2)), (mult({X1: 2}), F(1, 2))]))


def test_replication_widens_to_infinity(examples_doc):
    den = lfp_denotations(examples_doc)
    assert genset_equiv(den.genset(t(examples_doc, "bang(x1)")),
                        dirac_gs(mult({X1: INF})))
    assert den.flags(t(examples_doc, "bang(x1)")) == (True, False)
    assert document_flags(den) == (True, False)


def test_equal_documents_share_one_fixpoint():
    data = resources.files("pgsos").joinpath("data", "pa.pgsos").read_bytes()
    first, again = parse_spec(data), parse_spec(data)
    assert first is not again
    assert lfp_denotations(again) is lfp_denotations(first)
    # a comment changes the text, not the specification
    commented = parse_spec(data + b"# one more comment line\n")
    assert commented.source_digest != first.source_digest
    assert lfp_denotations(commented) is lfp_denotations(first)
    old_rule = b"ppref_a_5_5(x1, x2) --a--> 1/2*delta(x1) + 1/2*delta(x2)"
    new_rule = b"ppref_a_5_5(x1, x2) --a--> 1/3*delta(x1) + 2/3*delta(x2)"
    assert data.count(old_rule) == 1
    changed = parse_spec(data.replace(old_rule, new_rule))
    assert lfp_denotations(changed) is not lfp_denotations(first)


def test_fixpoint_property_of_tracked_entries(pa_doc, examples_doc):
    # one more step, taken from the solved table, changes no entry
    for doc in (pa_doc, examples_doc):
        den = lfp_denotations(doc)
        document_flags(den)  # solves every entry
        ctx = _StepContext(doc, den.rules_by_op, den.value)
        for e in tracked_entries(doc):
            assert genset_equiv(ctx.step(e), den.value[e]), e


def test_reactive_testing_of_distribution_arguments(examples_doc):
    den = lfp_denotations(examples_doc)
    # at state level the tester's own behaviour spawns no argument copies
    assert genset_equiv(den.genset(t(examples_doc, "g_test(x)")), D_ZERO)
    # the distribution-level clause records that the argument is tested once
    mu_term = DistApply("g_test", (MU,))
    gs = den.genset(mu_term)
    assert weighting_of(list(gs)[0]).get(MU) == 1
    off = unsound_denotations(examples_doc)
    assert genset_equiv(off.genset(mu_term), D_ZERO)
    assert lfp_denotations(examples_doc) is den


def test_convex_sum_denotation(pa_doc):
    theta = convex_sum([(F(1, 2), InstDirac(Apply("par", (X, X)))),
                        (F(1, 2), InstDirac(Apply("zero")))])
    den = lfp_denotations(pa_doc)
    assert genset_equiv(den.genset(theta),
                        g([(M_ZERO, F(1, 2)), (mult({X: 2}), F(1, 2))]))


@pytest.mark.parametrize("n_args", [1, 3])
def test_queries_check_operator_arities(pa_doc, n_args):
    # par has arity 2: a missing argument must not read as zero copies,
    # nor an extra one be dropped
    term = Apply("par", (X,) * n_args)
    e = process_distance({X: F(1, 10)})
    with pytest.raises(ArityMismatch):
        lfp_denotations(pa_doc).genset(term)
    with pytest.raises(ArityMismatch):
        bound_distance(pa_doc, term, e)


def test_deep_chains_are_measured_and_denoted_without_recursion(examples_doc):
    closed, open_ = Apply("zero"), X
    for _ in range(5000):
        closed = Apply("pref_a", (closed,))
        open_ = Apply("pref_a", (open_,))
    assert bisim_distance(examples_doc, closed, closed) == 0
    den = lfp_denotations(examples_doc)
    assert den.genset(closed) == D_ZERO
    assert den.genset(open_) == dirac_gs(unit(X))


# -- components, pumping and the plain-iteration reference ----------------

_BASE = """actions a, b;
op zero : 0;
op alt : 2;
op par : 2;
op ipar : 2;
rule forall c in ACT:
  x1 --c--> m1
  ---
  alt(x1, x2) --c--> m1
rule forall c in ACT:
  x2 --c--> m2
  ---
  alt(x1, x2) --c--> m2
rule forall c in ACT:
  x1 --c--> m1
  x2 --c--> m2
  ---
  par(x1, x2) --c--> par(m1, m2)
rule forall c in ACT:
  x1 --c--> m1
  ---
  ipar(x1, x2) --c--> ipar(m1, delta(x2))
rule forall c in ACT:
  x2 --c--> m2
  ---
  ipar(x1, x2) --c--> ipar(delta(x1), m2)
"""

# Each widens; together they cover spawning, replication, duplication of a
# derivative and testing, both values of the over-approximation flag, and
# probabilistic recursion, whose masses move for ever once the counts are
# promoted, so that the component ends at the point mass at inf.
WIDENING_SPECS = {
    # spawns a copy of a duplicating operator at every step
    "spawn_duplicate": _BASE + """op dup : 1;
op spawn : 1;
rule forall c in ACT:
  x1 --c--> m1
  ---
  dup(x1) --c--> alt(m1, alt(m1, m1))
rule forall c in ACT:
  x1 --c--> m1
  ---
  spawn(x1) --c--> ipar(dup(m1), delta(spawn(dup(x1))))
""",
    # probabilistic replication of the derivative, fed to a tester
    "replicate_test": _BASE + """op rep : 1;
op drv : 1;
op tst : 1;
rule:
  x1 --a--> m1
  ---
  rep(x1) --a--> 1/3*par(m1, rep(m1)) + 2/3*delta(zero)
rule:
  x1 --a--> m1
  ---
  drv(x1) --a--> tst(rep(m1))
rule:
  x1 --b--> m1
  ---
  tst(x1) --a--> delta(zero)
""",
    # a probabilistic prefix lifted over a tester and a nested spawn
    "probabilistic_spawn": _BASE + """op pp : 2;
op grow : 1;
op tst : 1;
rule:
  ---
  pp(x1, x2) --a--> 1/4*delta(x1) + 3/4*delta(x2)
rule forall c in ACT:
  x1 --c--> m1
  ---
  grow(x1) --c--> pp(tst(m1), delta(grow(grow(x1))))
rule:
  x1 -/b->
  x1 --a--> m1
  ---
  tst(x1) --b--> 1/2*m1 + 1/2*delta(zero)
""",
    # the mass of {x1:1} at p(x1) climbs to the least root of
    # q = 1/3 + 2/3*q^2, which is 1/2, only in the limit
    "grow": """actions a;
op z : 0;
op p : 1;
rule:
  ---
  p(x1) --a--> 1/3*delta(x1) + 2/3*delta(p(p(x1)))
""",
    # the same with a premise: the derivative d1 sits in the component
    "grow_premise": """actions a;
op z : 0;
op p : 1;
rule:
  x1 --a--> m1
  ---
  p(x1) --a--> 1/3*m1 + 2/3*delta(p(p(x1)))
""",
}


# examples.pgsos's ipar and bang, without and with the operator p of the
# "grow" spec, whose component jumps: p's flags must not reach the others
MIX_WITHOUT_P = """actions a;
op zero : 0;
op ipar : 2;
op bang : 1;
rule forall c in ACT:
  x1 --c--> m1
  ---
  ipar(x1, x2) --c--> ipar(m1, delta(x2))
rule forall c in ACT:
  x2 --c--> m2
  ---
  ipar(x1, x2) --c--> ipar(delta(x1), m2)
rule forall c in ACT:
  x1 --c--> m1
  ---
  bang(x1) --c--> ipar(m1, delta(bang(x1)))
"""
MIX = MIX_WITHOUT_P + """op p : 1;
rule:
  ---
  p(x1) --a--> 1/3*delta(x1) + 2/3*delta(p(p(x1)))
"""

DUP_SPECS = {f"dup{k}": dup_spec(k) for k in (2, 9, 20)}

# Cycles whose rules permute their variables: a count travels round the
# cycle once per variable before it settles, so none of them widens.
PERMUTING_SPECS = {
    "swap": """actions a, b;
op zero : 0;
op f : 2;
rule:
  ---
  f(x1, x2) --a--> delta(f(x2, x1))
rule:
  x2 --b--> m2
  ---
  f(x1, x2) --b--> m2
""",
    "rotate": """actions a, b;
op zero : 0;
op f : 3;
rule:
  ---
  f(x1, x2, x3) --a--> delta(f(x2, x3, x1))
rule:
  x3 --b--> m3
  ---
  f(x1, x2, x3) --b--> m3
""",
    # the same at distribution level
    "dist_swap": """actions a;
op zero : 0;
op f : 2;
rule:
  x1 --a--> m1
  ---
  f(x1, x2) --a--> f(delta(x2), m1)
""",
}


def spec_doc(spec, pa_doc, examples_doc):
    doc = {"pa": pa_doc, "examples": examples_doc}.get(spec)
    return doc if doc is not None else parse_spec(
        {**WIDENING_SPECS, **DUP_SPECS, **PERMUTING_SPECS}[spec])


# ``sound`` False runs the fixpoint and plain iteration with the unsound
# clauses of ``helpers.UnsoundStep``: the solver must agree with plain
# iteration whatever the step function
@pytest.mark.parametrize("sound", [True, False])
@pytest.mark.parametrize("spec", ["pa", "examples", *WIDENING_SPECS,
                                  *DUP_SPECS, *PERMUTING_SPECS])
def test_fixpoint_matches_plain_jacobi_iteration(spec, sound,
                                                 pa_doc, examples_doc):
    doc = spec_doc(spec, pa_doc, examples_doc)
    den = lfp_denotations(doc) if sound else unsound_denotations(doc)
    context = _StepContext if sound else UnsoundStep
    widened, over_approximated = document_flags(den)
    if spec in WIDENING_SPECS and sound:
        assert widened
    if spec in PERMUTING_SPECS:
        assert not widened
    entries = tracked_entries(doc)
    assert den.value.keys() >= set(entries)
    if not widened:
        # plain iteration settles: the result is its fixed point, entry
        # for entry
        ref, ref_over_approximated = jacobi_denotations(doc, 300, context)
        assert {e: den.value[e] for e in entries} == ref
        assert over_approximated == ref_over_approximated
        return
    # plain iteration never settles (past 20 rounds it slows to a crawl)
    widened = [(e, x) for e in entries
               for x, v in _measure(den.value[e]).items() if v is INF]
    assert widened
    rounds = list(itertools.islice(jacobi_iterates(doc, context), 20))

    def values(e):
        return [value[e] for value, _ in rounds]

    if spec in ("grow", "grow_premise"):
        # the component ended at the point at inf: the masses of each of
        # its entries still move
        assert over_approximated
        for e in {e for e, _ in widened}:
            assert not genset_equiv(values(e)[-1], values(e)[-6]), e
        return
    # every count that pumping promoted is still growing there
    for e, x in widened:
        counts = [_measure(gs).get(x, 0) for gs in values(e)]
        assert counts[-1] > counts[-5], (e, x, counts)


POST_FIXED_SPECS = {
    **{name: resources.files("pgsos").joinpath("data", f"{name}.pgsos")
       .read_text() for name in ("pa", "examples", "loops")},
    "gen40": (Path(__file__).parent / "golden" / "gen40.pgsos").read_text(),
    **WIDENING_SPECS, "mix": MIX,
    **{f"cyclic{seed}": random_cyclic_spec(random.Random(seed))[0]
       for seed in range(4)},
}


@pytest.mark.parametrize("spec", POST_FIXED_SPECS)
def test_every_solved_entry_is_a_post_fixed_point(spec):
    # Park induction: one more step from the table lies below the value of
    # every solved rule and term, so each value bounds the least fixed point
    doc = parse_spec(POST_FIXED_SPECS[spec])
    den = lfp_denotations(doc)
    document_flags(den)  # solves every entry
    ctx = _StepContext(doc, den.rules_by_op, den.value)
    for e in list(den.value):
        assert genset_leq(ctx.step(e), den.value[e]), e


EXACTNESS_SPECS = {
    **{name: POST_FIXED_SPECS[name]
       for name in ("pa", "examples", "loops", "gen40")},
    **{f"cyclic{seed}": random_cyclic_spec(random.Random(seed))[0]
       for seed in range(50)},
}


@pytest.mark.parametrize("spec", EXACTNESS_SPECS)
def test_the_step_shortcuts_return_the_node_the_long_path_builds(spec):
    # the sum with P_ZERO, the one-generator set and the fold that raises
    # no draw return their operand; that is the node the long path builds
    # because every generator is canonical
    doc = parse_spec(EXACTNESS_SPECS[spec])
    for op, _ in doc.signature.operators:
        is_uniformly_continuous(doc, op)
    den = lfp_denotations(doc)
    tables = [*den.value.values(), *(v for v in den._step._memo.values()
                                     if isinstance(v, GenSet))]
    for p in {p for gs in tables for p in gs}:
        assert ProbMultiplicity.from_pairs(p.entries) is p
        assert ProbMultiplicity.from_pairs(
            (m_sum(M_ZERO, m), q) for m, q in p) is p
        assert p_sum(P_ZERO, p) is p is p_sum(p, P_ZERO)
        assert genset_normalize([p, p]) is GenSet((p,))
    for rules in den.rules_by_op.values():
        for rule in rules:
            for p in den.value[rule.target]:
                assert fold_rule(p, rule) is fold_rule_reference(p, rule)


@pytest.mark.parametrize("spec", EXACTNESS_SPECS)
def test_every_fold_builds_the_node_of_the_premise_chain(spec, fresh_memo,
                                                         monkeypatch):
    # fold_rule raises each draw in one mult; the reference adds a scaled
    # unit per premise, as the step did before
    folds = []
    fold = denotation.fold_rule

    def recorded(p, rule):
        folds.append((p, rule, fold(p, rule)))
        return folds[-1][2]

    monkeypatch.setattr(denotation, "fold_rule", recorded)
    doc = fresh_memo(parse_spec(EXACTNESS_SPECS[spec]))
    for op, _ in doc.signature.operators:
        is_uniformly_continuous(doc, op)
    assert folds
    for p, rule, got in folds:
        assert got is fold_rule_reference(p, rule)


def test_continuity_weighs_each_generator_once(fresh_memo, monkeypatch):
    # the pumping test reads every generator's weighting from the step's
    # memo: on gen40 it weighed the same generators again in every round
    doc = fresh_memo(parse_spec(POST_FIXED_SPECS["gen40"]))
    weighed = []
    weigh = denotation.weighting_of

    def counted(p):
        weighed.append(p)
        return weigh(p)

    monkeypatch.setattr(denotation, "weighting_of", counted)
    for op, _ in doc.signature.operators:
        is_uniformly_continuous(doc, op)
    assert weighed
    assert len(weighed) == len(set(weighed))


@pytest.mark.parametrize("k", [2, 9, 20])
def test_finite_copying_is_exact_at_any_depth(k):
    # no operator here is on a cycle, however deep the copies nest
    doc = parse_spec(dup_spec(k))
    den = lfp_denotations(doc)
    assert den.genset(t(doc, "dup(x1)")) == dirac_gs(mult({X1: k}))
    # dd runs d3 (three copies) over dup (k copies): the counts multiply
    assert den.genset(t(doc, "dd(x1)")) == dirac_gs(mult({X1: 3 * k}))
    assert not document_flags(den)[0]
    report = is_uniformly_continuous(doc, "dup")
    assert report.verdict == "uniformly-continuous"
    assert str(report.modulus) == f"min({k}*e1, 1)"
    assert report.copies_bound == k
    assert not report.widened
    e = process_distance({X: F(1, 10)})
    assert bound_distance(doc, t(doc, "dup(x)"), e) == 1 - F(9, 10) ** k


def operators_in(term):
    """The operators applied anywhere in ``term``."""
    ops, todo = set(), [term]
    while todo:
        u = todo.pop()
        if isinstance(u, (Apply, DistApply)):
            ops.add(u.op)
            todo.extend(u.args)
        elif isinstance(u, InstDirac):
            todo.append(u.term)
        elif isinstance(u, ConvexSum):
            todo.extend(u.support())
    return ops


@pytest.mark.parametrize("spec", ["pa", "examples", *WIDENING_SPECS,
                                  *DUP_SPECS])
def test_operators_reaching_no_cycle_get_finite_coefficients(
        spec, pa_doc, examples_doc):
    # The paper counts copies by unfolding the rules: only recursion can
    # make a count infinite.  On the operator-dependency graph (an operator
    # uses those in its rule targets), an operator from which no cycle can
    # be reached has finite coefficients.  Being off every cycle is not
    # enough: drv in replicate_test is on none, but uses rep, which is.
    doc = spec_doc(spec, pa_doc, examples_doc)
    uses = {op: set() for op, _ in doc.signature.operators}
    for rule in doc.rules:
        uses[rule.op] |= operators_in(rule.target)
    reach = {}
    for op in uses:
        seen, todo = set(), list(uses[op])
        while todo:
            u = todo.pop()
            if u not in seen:
                seen.add(u)
                todo.extend(uses[u])
        reach[op] = seen
    cyclic = {op for op in uses if op in reach[op]}
    acyclic = [op for op in uses if not (reach[op] | {op}) & cyclic]
    assert acyclic
    for op in acyclic:
        modulus = is_uniformly_continuous(doc, op).modulus
        assert all(c is not INF for c in modulus.coefficients), (op, modulus)


def test_probabilistic_recursion_ends_at_a_checked_post_fixed_point(
        monkeypatch):
    # a fresh memo, so the fixpoint is computed here and not found
    monkeypatch.setattr(frontend, "_MEMO_TABLES", {})
    checks = []

    def leq(g1, g2):
        checks.append((g1, g2))
        return genset_leq(g1, g2)

    monkeypatch.setattr(denotation, "genset_leq", leq)
    doc = parse_spec(WIDENING_SPECS["grow"])
    den = lfp_denotations(doc)
    assert den.genset(t(doc, "p(x)")) == dirac_gs(mult({X: INF}))
    assert den.value[t(doc, "p(x1)")] == dirac_gs(mult({X1: INF}))
    assert den.flags(t(doc, "p(x)")) == (True, True)
    # one check per entry of the component, each of a step from the point
    # against the point
    assert len(checks) == 5
    assert all(g2 == dirac_gs(mult({X1: INF})) for _, g2 in checks)
    # a failed check is a bug, raised as such, never an answer
    monkeypatch.setattr(frontend, "_MEMO_TABLES", {})
    monkeypatch.setattr(denotation, "genset_leq", lambda g1, g2: False)
    den = lfp_denotations(parse_spec(WIDENING_SPECS["grow"]))
    with pytest.raises(RuntimeError, match="denotations of p: the point at "
                                           "inf is not a post-fixed point"):
        den.genset(t(doc, "p(x)"))


def test_widening_specs_raise_and_clear_the_over_approximation_flag():
    flags = {name: document_flags(lfp_denotations(parse_spec(text)))[1]
             for name, text in WIDENING_SPECS.items()}
    assert flags == {"spawn_duplicate": False, "replicate_test": True,
                     "probabilistic_spawn": True, "grow": True,
                     "grow_premise": True}


def test_a_query_solves_only_its_dependency_cone(monkeypatch):
    # a fresh memo, so nothing is solved before the queries here
    monkeypatch.setattr(frontend, "_MEMO_TABLES", {})
    doc = parse_spec(MIX)
    den = lfp_denotations(doc)
    assert not den.value

    def solved_ops():
        return {e.op for e in den.value if isinstance(e, Rule)}

    den.genset(t(doc, "ipar(x, zero)"))
    assert solved_ops() == {"ipar"}
    assert is_uniformly_continuous(doc, "bang").annotation.endswith(
        "not uniformly continuous")
    assert solved_ops() == {"ipar", "bang"}
    assert den.flags(t(doc, "p(x)")) == (True, True)
    assert solved_ops() == {"ipar", "bang", "p"}


def test_each_acyclic_entry_is_stepped_once(monkeypatch):
    # a fresh memo, so the fixpoint is computed here and not found
    monkeypatch.setattr(frontend, "_MEMO_TABLES", {})
    data = resources.files("pgsos").joinpath(
        "data", "examples.pgsos").read_bytes()
    calls = Counter()
    for name in ("term_step", "rule_step"):
        step = getattr(_StepContext, name)

        def counted(self, entry, step=step):
            calls[entry] += 1
            return step(self, entry)

        monkeypatch.setattr(_StepContext, name, counted)
    doc = parse_spec(data)
    den = lfp_denotations(doc)
    document_flags(den)  # solves every entry
    entries = tracked_entries(doc)
    assert len(entries) == 40
    assert den.value.keys() == set(entries)

    def reads(e):
        if isinstance(e, Rule):
            return (e.target,)
        if isinstance(e, (Apply, DistApply)):
            return e.args + den.rules_by_op.get(e.op, ())
        return immediate_subterms(e)

    def on_cycle(e):
        seen, todo = set(), list(reads(e))
        while todo:
            u = todo.pop()
            if u == e:
                return True
            if u not in seen:
                seen.add(u)
                todo.extend(reads(u))
        return False

    cyclic = {e for e in entries if on_cycle(e)}
    assert len(cyclic) == 10
    for e in entries:
        if e in cyclic:
            assert 1 <= calls[e] <= den.iterations, e
        else:
            assert calls[e] == 1, e
    # the whole-table iteration this replaced took 35 rounds of 40 steps;
    # stepping every cyclic entry in each of the 11 rounds took 92 steps,
    # and a round steps only the entries whose inputs changed
    assert den.iterations == 11
    assert sum(calls.values()) == 56


@pytest.mark.parametrize("spec", ["pa", "examples"])
def test_a_warm_table_answers_as_a_fresh_one(spec, pa_doc, examples_doc,
                                             fresh_memo):
    # the step's memo is shared by every query on the document's table; a
    # table that has solved nothing yet answers each term from scratch
    doc = spec_doc(spec, pa_doc, examples_doc)
    rng = random.Random(11)
    terms = [random_open_term(rng, doc, 3, ("x", "y")) for _ in range(40)]
    warm = lfp_denotations(doc)
    answers = [(warm.genset(u), warm.flags(u)) for u in terms]
    for u, answer in zip(terms, answers):
        cold = lfp_denotations(fresh_memo(doc))
        assert (cold.genset(u), cold.flags(u)) == answer, u


def test_an_operator_composition_is_computed_once(pa_doc, fresh_memo,
                                                  monkeypatch):
    doc = fresh_memo(pa_doc)
    den = lfp_denotations(doc)
    for text in ("par(x, y)", "pa0", "aa0"):  # par's rules and the arguments
        den.genset(t(doc, text))
    calls = []
    compose = denotation.compose_operator

    def counted(*args):
        calls.append(args)
        return compose(*args)

    monkeypatch.setattr(denotation, "compose_operator", counted)
    # two closed arguments: equal denotations, so one composition
    assert den.genset(t(doc, "par(x, pa0)")) == den.genset(t(doc, "par(x, aa0)"))
    assert len(calls) == 1


# -- distance bounds from denotations --------------------------------------

def test_bound_distance_hand_values(pa_doc, examples_doc):
    e = process_distance({X: F(1, 10)})
    assert bound_distance(pa_doc, t(pa_doc, "par(x, x)"), e) == F(19, 100)
    assert bound_distance(pa_doc, t(pa_doc, "pref_a(x)"), e) == F(1, 10)
    assert bound_distance(pa_doc, t(pa_doc, "zero"), e) == 0
    assert bound_distance(examples_doc, t(examples_doc, "h_rep(x)"), e) == F(19, 200)
    assert bound_distance(examples_doc, t(examples_doc, "bang(x)"), e) == 1
    e9 = process_distance({X: F(9, 10)})
    assert bound_distance(examples_doc, t(examples_doc, "f_alt(x)"), e9) == F(99, 100)


def test_bound_is_monotone_in_the_argument_distance(pa_doc):
    # argument distances live in [0,1); at 1 the bound would be vacuous
    term = t(pa_doc, "par(x, x)")
    prev = F(-1)
    for num in range(0, 10):
        e = process_distance({X: F(num, 10)})
        cur = bound_distance(pa_doc, term, e)
        assert cur >= prev
        prev = cur
    assert prev == 1 - F(1, 100)


def test_process_distance_rejects_one(pa_doc):
    with pytest.raises(ValueError):
        process_distance({X: F(1)})
