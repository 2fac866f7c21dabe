"""Open-term denotations: composition laws, the joint fixpoint, widening.

Golden values for the shipped operator suites are written out in full; they
were derived by hand from the step clauses and double-checked against the
sampling oracle (see test_oracle.py), so any regression here is a real
semantic change and not a formatting accident.
"""

from fractions import Fraction

import pytest

from pgsos.denotation import (
    Denotations,
    FixpointConfig,
    bound_distance,
    branch_compose,
    canonical_rule,
    denote,
    fold_rule,
    lfp_denotations,
    power_sum,
    subterms,
)
from pgsos.errors import IterationLimitExceeded
from pgsos.frontend import parse_term
from pgsos.multiplicity import (
    D_ZERO,
    INF,
    M_ZERO,
    P_ZERO,
    GenSet,
    ProbMultiplicity,
    genset_equiv,
    genset_normalize,
    mult,
    process_distance,
    unit,
    weighting_of,
)
from pgsos.terms import (
    DistApply,
    DistVariable,
    dist_var,
    state_var,
)

F = Fraction
X = state_var("x")
X1, X2 = state_var("x1"), state_var("x2")
MU = dist_var("mu")


def g(*pairs_list):
    """Generator set literal from (multiplicity, mass) pair lists."""
    return GenSet(tuple(ProbMultiplicity.from_pairs(ps) for ps in pairs_list))


def dirac_gs(m):
    return GenSet((ProbMultiplicity.dirac(m),))


def t(doc, text, kind="state"):
    return parse_term(text, doc, kind=kind)


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
    d1 = dist_var("d1")
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
    assert not den.widened
    assert not den.over_approximated
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
    assert den.widened
    assert X1 in den.widened_vars
    assert not den.over_approximated


def test_widening_result_stable_under_smaller_window(examples_doc):
    den_small = lfp_denotations(examples_doc, FixpointConfig(widening_window=3))
    den = lfp_denotations(examples_doc)
    assert genset_equiv(den_small.genset(t(examples_doc, "bang(x1)")),
                        den.genset(t(examples_doc, "bang(x1)")))


def test_iteration_budget_refusal(examples_doc):
    with pytest.raises(IterationLimitExceeded):
        lfp_denotations(examples_doc, FixpointConfig(max_iterations=3))


def test_fixpoint_property_of_tracked_entries(pa_doc, examples_doc):
    # one more step, taken through the public query path, changes no entry
    for doc in (pa_doc, examples_doc):
        den = lfp_denotations(doc)
        for term, gs in den.tau.items():
            assert genset_equiv(den.genset(term), gs), term
        for rule, gs in den.rho.items():
            stepped = genset_normalize(fold_rule(p, rule)
                                       for p in den.genset(rule.target))
            assert genset_equiv(stepped, gs), rule.op


def test_reactive_testing_of_distribution_arguments(examples_doc):
    den = lfp_denotations(examples_doc)
    # at state level the tester's own behaviour spawns no argument copies
    assert genset_equiv(den.genset(t(examples_doc, "g_test(x)")), D_ZERO)
    # the distribution-level clause records that the argument is tested once
    mu_term = DistApply("g_test", (DistVariable(MU),))
    gs = den.genset(mu_term)
    assert weighting_of(list(gs)[0]).get(MU) == 1
    off = lfp_denotations(examples_doc, reactive_testing=False)
    assert genset_equiv(off.genset(mu_term), D_ZERO)


def test_convex_sum_denotation(pa_doc):
    theta = t(pa_doc, "1/2*delta(par(x, x)) + 1/2*delta(zero)", kind="dist")
    den = lfp_denotations(pa_doc)
    assert genset_equiv(den.genset(theta),
                        g([(M_ZERO, F(1, 2)), (mult({X: 2}), F(1, 2))]))


def test_denote_convenience_wrapper(pa_doc):
    gs = denote(pa_doc, t(pa_doc, "par(x, x)"))
    assert genset_equiv(gs, dirac_gs(mult({X: 2})))


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
