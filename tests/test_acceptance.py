"""Acceptance gate: the fifteen headline behaviours, one test each.

Every comparison is exact rational equality (tolerance zero).  The worked
values come from the three shipped operator suites: ``pa.pgsos`` (finite
algebra over two actions), ``examples.pgsos`` (derivative duplication,
reactive testing of distribution arguments, probabilistic replication,
unbounded spawning) and ``loops.pgsos`` (recursive processes, whose
distances are fixed points of cyclic equations).
"""

import random
import re
from fractions import Fraction

from pgsos.continuity import (
    VERDICT_NOT_SHOWN,
    is_uniformly_continuous,
)
from pgsos.denotation import bound_distance, lfp_denotations
from pgsos.frontend import parse_term
from pgsos.lp import solve_transport
from pgsos.metric import bisim_distance
from pgsos.multiplicity import (
    D_ZERO,
    INF,
    M_ZERO,
    GenSet,
    ProbMultiplicity,
    da,
    dda,
    genset_equiv,
    genset_leq,
    genset_normalize,
    mult,
    p_leq,
    pda,
    process_distance,
    sup_approx,
    unit,
    weighting_of,
)
from pgsos.oracle import oracle_suite
from pgsos.semantics import explore_fragment
from pgsos.terms import (
    Apply,
    DistApply,
    DistVariable,
    FiniteDistribution,
    state_var,
)

from helpers import (
    check_pseudometric,
    degrade,
    degraded_pair,
    distance_table,
    random_distance,
    random_prob_multiplicity,
    transport_bruteforce,
    unsound_denotations,
)

F = Fraction
X = state_var("x")
Y = state_var("y")
X1, X2 = state_var("x1"), state_var("x2")


def t(doc, text):
    return parse_term(text, doc)


def dirac_gs(m):
    return GenSet((ProbMultiplicity.dirac(m),))


def test_criterion_01_two_synced_copies_square_the_bound(pa_doc):
    """d(p‖p, q‖q) = 19/100 exactly, and the context bound at e=1/10 agrees."""
    u = t(pa_doc, "par(aa0, aa0)")
    v = t(pa_doc, "par(pa0, pa0)")
    assert bisim_distance(pa_doc, u, v) == F(19, 100)
    assert bisim_distance(pa_doc, v, u) == F(19, 100)
    e = process_distance({X: F(1, 10)})
    assert bound_distance(pa_doc, t(pa_doc, "par(x, x)"), e) == F(19, 100)


def test_criterion_02_bound_gap_can_open_and_close(pa_doc):
    """One substitution pair sits strictly below the context bound, a
    second pair meets it exactly; both bounds use engine-computed
    argument distances."""
    ctx = t(pa_doc, "par(x, aa0)")
    # pair one: derivative difference is erased by forced synchronisation
    e1 = bisim_distance(pa_doc, t(pa_doc, "ab0"), t(pa_doc, "pb0"))
    assert e1 == F(1, 10)
    exact1 = bisim_distance(pa_doc, t(pa_doc, "par(ab0, aa0)"),
                            t(pa_doc, "par(pb0, aa0)"))
    bound1 = bound_distance(pa_doc, ctx, process_distance({X: e1}))
    assert exact1 == 0
    assert bound1 == F(1, 10)
    assert exact1 < bound1
    # pair two: the difference survives and the bound is met exactly
    e2 = bisim_distance(pa_doc, t(pa_doc, "aa0"), t(pa_doc, "pa0"))
    assert e2 == F(1, 10)
    exact2 = bisim_distance(pa_doc, t(pa_doc, "par(aa0, aa0)"),
                            t(pa_doc, "par(pa0, aa0)"))
    bound2 = bound_distance(pa_doc, ctx, process_distance({X: e2}))
    assert exact2 == F(1, 10)
    assert bound2 == F(1, 10)
    assert exact2 == bound2


def test_criterion_03_expected_bound_over_probabilistic_draws():
    """pda of (half two copies, half none) at e(x)=1/10 is 19/200."""
    p = ProbMultiplicity.from_pairs([(mult({X: 2}), F(1, 2)), (M_ZERO, F(1, 2))])
    e = process_distance({X: F(1, 10)})
    assert pda(p, e) == F(19, 200)
    assert pda(p, e) == F(1, 2) * (1 - (1 - F(1, 10)) ** 2)


def test_criterion_04_best_generator_wins():
    """da of a two-generator set at e = {x:1/10, y:1/5} is 1/5."""
    g = genset_normalize([
        ProbMultiplicity.from_pairs([(M_ZERO, F(1, 2)), (mult({X: 2}), F(1, 2))]),
        ProbMultiplicity.dirac(unit(Y)),
    ])
    assert len(g) == 2
    e = process_distance({X: F(1, 10), Y: F(1, 5)})
    assert da(g, e) == F(1, 5)
    assert da(g, e) == max(F(19, 200), F(1, 5))


def test_criterion_05_derivative_duplication_squares_exactly(examples_doc):
    """An operator copying its derivative twice denotes {two copies}; for
    arguments at distance 9/10 the instances sit at 99/100 = its bound."""
    assert genset_equiv(denote_of(examples_doc, "f_alt(x)"),
                        dirac_gs(mult({X: 2})))
    e = bisim_distance(examples_doc, t(examples_doc, "paa0"),
                       t(examples_doc, "pa0"))
    assert e == F(9, 10)
    exact = bisim_distance(examples_doc, t(examples_doc, "f_alt(paa0)"),
                           t(examples_doc, "f_alt(pa0)"))
    assert exact == F(99, 100)
    assert exact == dda(mult({X: 2}), process_distance({X: e}))


def test_criterion_06_reactive_testing_correction(examples_doc):
    """Testing a distribution argument counts as one copy of it; without
    that correction the bound collapses to an unsound 0."""
    mu = DistVariable("mu")
    den = lfp_denotations(examples_doc)
    gs = den.genset(DistApply("g_test", (mu,)))
    assert len(gs) == 1
    assert weighting_of(list(gs)[0]).get(mu) == 1
    assert genset_equiv(denote_of(examples_doc, "f_test(x)"), dirac_gs(unit(X)))

    e = process_distance({X: F(1, 10)})
    exact = bisim_distance(examples_doc, t(examples_doc, "f_test(aa0)"),
                           t(examples_doc, "f_test(pa0)"))
    bound = bound_distance(examples_doc, t(examples_doc, "f_test(x)"), e)
    assert exact == F(1, 10)
    assert bound == F(1, 10)
    assert exact <= bound

    off = unsound_denotations(examples_doc)
    unsound = da(off.genset(t(examples_doc, "f_test(x)")), e)
    assert unsound == 0
    assert exact > unsound  # the disabled correction really is unsound


def test_criterion_07_replication_widens_and_blocks_the_certificate(examples_doc):
    """Unbounded spawning widens to an infinite count and the uniform
    continuity check answers not-shown with an infinite coefficient."""
    den = lfp_denotations(examples_doc)
    assert genset_equiv(den.genset(t(examples_doc, "bang(x1)")),
                        dirac_gs(mult({X1: INF})))
    assert den.flags(t(examples_doc, "bang(x1)"))[0]
    report = is_uniformly_continuous(examples_doc, "bang")
    assert report.verdict == VERDICT_NOT_SHOWN
    assert report.modulus.coefficients == (INF,)


def test_criterion_08_finite_algebra_denotes_canonically(pa_doc):
    """Deadlock, variables, choice, synchronised parallel and the
    probabilistic prefixes all take their closed canonical forms."""
    assert genset_equiv(denote_of(pa_doc, "zero"), D_ZERO)
    assert genset_equiv(denote_of(pa_doc, "x"), dirac_gs(unit(X)))
    assert genset_equiv(denote_of(pa_doc, "alt(x1, x2)"),
                        GenSet((ProbMultiplicity.dirac(unit(X1)),
                                ProbMultiplicity.dirac(unit(X2)))))
    assert genset_equiv(denote_of(pa_doc, "parB(x1, x2)"), dirac_gs(unit(X1, X2)))
    assert genset_equiv(denote_of(pa_doc, "par(x1, x2)"), dirac_gs(unit(X1, X2)))
    assert genset_equiv(denote_of(pa_doc, "ipar(x1, x2)"), dirac_gs(unit(X1, X2)))
    assert genset_equiv(denote_of(pa_doc, "pref_a(x1)"), dirac_gs(unit(X1)))
    assert genset_equiv(
        denote_of(pa_doc, "ppref_a_9_1(x1, x2)"),
        GenSet((ProbMultiplicity.from_pairs([(unit(X1), F(9, 10)),
                                             (unit(X2), F(1, 10))]),)))
    assert genset_equiv(
        denote_of(pa_doc, "ppref_a_5_5(x1, x2)"),
        GenSet((ProbMultiplicity.from_pairs([(unit(X1), F(1, 2)),
                                             (unit(X2), F(1, 2))]),)))


def test_criterion_09_distance_tables_are_pseudometrics(pa_doc, examples_doc):
    """On every golden fragment the reference fixpoint table satisfies zero
    self-distance, symmetry, and the triangle inequality exactly, and the
    distance engine reproduces every entry of it."""
    golden = [
        (pa_doc, ("aa0", "pa0")),
        (pa_doc, ("bb0", "qb0")),
        (pa_doc, ("par(aa0, aa0)", "par(pa0, pa0)")),
        (pa_doc, ("par(ab0, aa0)", "par(pb0, aa0)")),
        (pa_doc, ("alt(aa0, bb0)", "alt(pa0, qb0)")),
        (pa_doc, ("ipar(a0, bb0)", "ipar(a0, qb0)")),
        (examples_doc, ("f_alt(paa0)", "f_alt(pa0)")),
        (examples_doc, ("f_test(aa0)", "f_test(pa0)")),
        (examples_doc, ("h_rep(aa0)", "h_rep(pa0)")),
    ]
    for doc, roots in golden:
        frag = explore_fragment(doc, [t(doc, r) for r in roots])
        table = distance_table(doc, frag)
        check_pseudometric(table, frag.states)
        for (u, v), value in table.items():
            assert bisim_distance(doc, u, v) == value, (roots, u, v)


def test_criterion_10_order_laws_hold_on_random_draws():
    """Reflexivity, approximate-join domination, and monotonicity of the
    two bound functionals, 100 random draws each."""
    rng = random.Random(42)
    for _ in range(100):
        p = random_prob_multiplicity(rng)
        assert p_leq(p, p)
    for _ in range(100):
        ps = [random_prob_multiplicity(rng) for _ in range(rng.randint(1, 3))]
        top = sup_approx(ps)
        for p in ps:
            assert p_leq(p, top)
    for _ in range(100):
        p1, p2 = degraded_pair(rng)
        assert p_leq(p1, p2)
        e = random_distance(rng)
        assert pda(p1, e) <= pda(p2, e)
    for _ in range(100):
        g2 = genset_normalize(
            random_prob_multiplicity(rng) for _ in range(rng.randint(1, 3)))
        g1 = genset_normalize(degrade(rng, p) for p in g2)
        assert genset_leq(g1, g2)
        e = random_distance(rng)
        assert da(g1, e) <= da(g2, e)


def test_criterion_11_sampled_bounds_never_violated(pa_doc, examples_doc):
    """200 seeded random samples respect exact-distance <= bound, and the
    probabilistic-duplication bound stays below the identity modulus."""
    summary = oracle_suite(pa_doc, seed=11, samples=200, depth=3)
    assert summary.requested == 200
    assert summary.used > 0
    for r in summary.results:
        assert r.exact <= r.bound

    # one probabilistic duplication: bound 1/2(1-(1-eps)^2) <= eps exactly
    gen = list(lfp_denotations(examples_doc).genset(
        t(examples_doc, "h_rep(x1)")))[0]
    z = is_uniformly_continuous(examples_doc, "h_rep").modulus
    for k in range(1, 10):
        eps = F(k, 10)
        value = pda(gen, process_distance({X1: eps}))
        assert value == F(1, 2) * (1 - (1 - eps) ** 2)
        assert value <= eps
        assert z.evaluate((eps,)) == eps


def test_criterion_12_transport_optimum_matches_vertex_enumeration():
    """50 random instances with supports of at most four points: the exact
    solver equals brute-force enumeration over basic feasible solutions."""
    rng = random.Random(1234)
    states = [Apply(f"s{i}") for i in range(4)]
    for _ in range(50):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        supp1 = rng.sample(states, n1)
        supp2 = rng.sample(states, n2)
        dist = {}
        for a in states:
            for b in states:
                if a is b:
                    dist[(a, b)] = F(0)
                else:
                    dist[(a, b)] = dist.get((b, a), F(rng.randint(0, 8), 8))
                    dist[(b, a)] = dist[(a, b)]
        pi1 = _random_dist(rng, supp1)
        pi2 = _random_dist(rng, supp2)
        cost = [[dist[(a, b)] for b in pi2.support()] for a in pi1.support()]
        supply = [q for _, q in pi1]
        demand = [q for _, q in pi2]
        value, plan = solve_transport(cost, supply, demand)
        assert value == transport_bruteforce(cost, supply, demand)
        # the returned plan is a coupling achieving the optimum
        assert sum(map(sum, plan)) == 1
        assert all(q >= 0 for row in plan for q in row)
        assert [sum(row) for row in plan] == supply
        assert [sum(col) for col in zip(*plan)] == demand
        assert sum(q * c for row, crow in zip(plan, cost)
                   for q, c in zip(row, crow)) == value


# -- helpers ----------------------------------------------------------------

def denote_of(doc, text):
    return lfp_denotations(doc).genset(parse_term(text, doc))


def _random_dist(rng, support):
    cuts = sorted(rng.randint(1, 11) for _ in range(len(support) - 1))
    masses, prev = [], 0
    for c in cuts + [12]:
        masses.append(F(c - prev, 12))
        prev = c
    pairs = [(s, q) for s, q in zip(support, masses) if q > 0]
    return FiniteDistribution.from_pairs(pairs)


LOOP_WEIGHTS = {"loop_1_2": F(1, 2), "loop_2_3": F(2, 3),
                "loop_3_4": F(3, 4), "loop_4_5": F(4, 5)}


def test_criterion_13_stopping_loops_have_closed_form_distances(loops_doc):
    """Loops that go on with probabilities p < q are (q - p)/(1 - p)
    apart, and the loop that never stops is at distance 1 from each."""
    for a, p in LOOP_WEIGHTS.items():
        assert bisim_distance(loops_doc, t(loops_doc, "loop_all"),
                              t(loops_doc, a)) == 1
        for b, q in LOOP_WEIGHTS.items():
            if p < q:
                d = bisim_distance(loops_doc, t(loops_doc, a),
                                   t(loops_doc, b))
                assert d == (q - p) / (1 - p)


def test_criterion_14_the_least_of_an_interval_of_fixed_points(loops_doc):
    """Each of choose_l, choose_r may repeat or move on to states 1/2
    apart: the pair's equation x = max(x, 1/2) holds on all of [1/2, 1],
    and the distance is its least solution."""
    assert bisim_distance(loops_doc, t(loops_doc, "choose_l"),
                          t(loops_doc, "choose_r")) == F(1, 2)


def test_criterion_15_bounds_hold_over_recursive_arguments(loops_doc):
    """exact <= context bound <= 1 when prefix and parallel contexts are
    filled with recursive processes, the argument distances themselves
    solved on cycles."""
    fillings = [("loop_1_2", "loop_2_3", "loop_3_4", "loop_4_5"),
                ("rec", "loop_1_2", "loop_2_3", "loop_4_5"),
                ("loop_1_2", "loop_3_4", "rec", "loop_2_3")]
    for ctx in ("pref_a(x)", "par(x, y)", "ipar(x, y)", "par(x, x)",
                "ipar(x, x)"):
        for x1, x2, y1, y2 in fillings:
            e = {X: bisim_distance(loops_doc, t(loops_doc, x1),
                                   t(loops_doc, x2)),
                 Y: bisim_distance(loops_doc, t(loops_doc, y1),
                                   t(loops_doc, y2))}
            sub1, sub2 = {"x": x1, "y": y1}, {"x": x2, "y": y2}
            u = re.sub(r"\b[xy]\b", lambda m: sub1[m[0]], ctx)
            v = re.sub(r"\b[xy]\b", lambda m: sub2[m[0]], ctx)
            exact = bisim_distance(loops_doc, t(loops_doc, u),
                                   t(loops_doc, v))
            used = {k: d for k, d in e.items() if k.name in ctx}
            bound = bound_distance(loops_doc, t(loops_doc, ctx),
                                   process_distance(used))
            assert exact <= bound <= 1, (u, v, exact, bound)
