"""Open-term denotations: composition laws, the joint fixpoint, widening.

Golden values for the shipped operator suites are written out in full; they
were derived by hand from the step clauses and double-checked against the
sampling oracle (see test_oracle.py), so any regression here is a real
semantic change and not a formatting accident.
"""

from fractions import Fraction
from importlib import resources

import pytest

from pgsos import frontend
from pgsos.denotation import (
    Denotations,
    FixpointConfig,
    _StepContext,
    bound_distance,
    branch_compose,
    canonical_rule,
    denote,
    fold_rule,
    lfp_denotations,
    power_sum,
    subterms,
)
from pgsos.errors import ArityMismatch, IterationLimitExceeded
from pgsos.frontend import parse_spec, parse_term
from pgsos.metric import bisim_distance
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
    Apply,
    DistApply,
    DistVariable,
    state_var,
)

from helpers import jacobi_denotations

F = Fraction
X = state_var("x")
X1, X2 = state_var("x1"), state_var("x2")
MU = DistVariable("mu")


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
    mu_term = DistApply("g_test", (MU,))
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


@pytest.mark.parametrize("n_args", [1, 3])
def test_queries_check_operator_arities(pa_doc, n_args):
    # par has arity 2: a missing argument must not read as zero copies,
    # nor an extra one be dropped
    term = Apply("par", (X,) * n_args)
    e = process_distance({X: F(1, 10)})
    with pytest.raises(ArityMismatch):
        lfp_denotations(pa_doc).genset(term)
    with pytest.raises(ArityMismatch):
        denote(pa_doc, term)
    with pytest.raises(ArityMismatch):
        bound_distance(pa_doc, term, e)


def test_deep_chains_are_measured_and_denoted_without_recursion(examples_doc):
    closed, open_ = Apply("zero"), X
    for _ in range(5000):
        closed = Apply("pref_a", (closed,))
        open_ = Apply("pref_a", (open_,))
    assert bisim_distance(examples_doc, closed, closed) == 0
    assert denote(examples_doc, closed) == D_ZERO
    assert denote(examples_doc, open_) == dirac_gs(unit(X))


# -- the fixpoint steps only entries whose inputs changed -------------------

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

# Each widens under reactive testing; together they cover spawning,
# replication, duplication of a derivative and testing, and both values of
# the over-approximation flag.
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
}


@pytest.mark.parametrize("reactive_testing", [True, False])
@pytest.mark.parametrize("spec", ["pa", "examples", *WIDENING_SPECS])
def test_fixpoint_matches_plain_jacobi_iteration(spec, reactive_testing,
                                                 pa_doc, examples_doc):
    doc = {"pa": pa_doc, "examples": examples_doc}.get(spec)
    if doc is None:
        doc = parse_spec(WIDENING_SPECS[spec])
    for config in (FixpointConfig(), FixpointConfig(widening_window=3)):
        den = lfp_denotations(doc, config, reactive_testing=reactive_testing)
        ref = jacobi_denotations(doc, config,
                                 reactive_testing=reactive_testing)
        assert list(den.tau.items()) == list(ref.tau.items())
        assert list(den.rho.items()) == list(ref.rho.items())
        assert den.iterations == ref.iterations
        assert den.widened_vars == ref.widened_vars
        assert den.over_approximated == ref.over_approximated
    if spec in WIDENING_SPECS and reactive_testing:
        assert ref.widened


def test_widening_specs_raise_and_clear_the_over_approximation_flag():
    flags = {name: lfp_denotations(parse_spec(text)).over_approximated
             for name, text in WIDENING_SPECS.items()}
    assert flags == {"spawn_duplicate": False, "replicate_test": True,
                     "probabilistic_spawn": True}


def test_fixpoint_steps_only_entries_whose_inputs_changed(monkeypatch):
    # a fresh memo, so the fixpoint is computed here and not found
    monkeypatch.setattr(frontend, "_MEMO_TABLES", {})
    data = resources.files("pgsos").joinpath(
        "data", "examples.pgsos").read_bytes()
    calls = []
    for name in ("term_step", "rule_step"):
        step = getattr(_StepContext, name)

        def counted(self, entry, step=step):
            calls.append(entry)
            return step(self, entry)

        monkeypatch.setattr(_StepContext, name, counted)
    den = lfp_denotations(parse_spec(data))
    assert den.iterations == 35
    # stepping all 40 entries on each of the 35 iterations takes 1,400
    assert len(den.tau) + len(den.rho) == 40
    assert len(calls) <= 200


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
