"""The three-layer domain: counts, probabilistic counts, generator sets.

Hand-checked equalities are exact; the randomized laws reuse the degradation
generator from helpers, which produces order-related pairs by construction.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsos import multiplicity
from pgsos.multiplicity import (
    D_ZERO,
    INF,
    M_ZERO,
    P_ZERO,
    GenSet,
    Multiplicity,
    ProbMultiplicity,
    ProcessDistance,
    Weighting,
    da,
    dda,
    ext_add,
    ext_leq,
    ext_max,
    ext_mul,
    format_count,
    genset_equiv,
    genset_leq,
    genset_normalize,
    m_pointwise_max,
    m_scale,
    m_sum,
    mult,
    p_leq,
    p_sum,
    pda,
    process_distance,
    sup_approx,
    sup_is_exact,
    unit,
    weighting_of,
)
from pgsos.terms import state_var

from helpers import (E_ZERO, assert_one_object, degrade, degraded_pair,
                     random_prob_multiplicity)

F = Fraction
X, Y, Z = state_var("x"), state_var("y"), state_var("z")


# -- extended counts --------------------------------------------------------

def test_infinity_arithmetic_conventions():
    assert ext_add(INF, 3) is INF
    assert ext_add(F(1, 2), F(1, 2)) == 1
    assert ext_mul(0, INF) == 0
    assert ext_mul(INF, 0) == 0
    assert ext_mul(2, INF) is INF
    assert ext_max(INF, 7) is INF
    assert ext_leq(10**9, INF) and not ext_leq(INF, 10**9)
    assert ext_leq(INF, INF)


def test_format_count():
    assert format_count(INF) == "inf"
    assert format_count(3) == "3"
    assert format_count(F(1, 2)) == "1/2"


# -- multiplicities ---------------------------------------------------------

def test_mult_drops_zeros_and_sorts():
    m = mult({Y: 2, X: 1, Z: 0})
    assert m.get(Z) == 0
    assert [x.name for x, _ in m.entries] == ["x", "y"]
    assert str(m) == "{x:1, y:2}"


def test_unit_and_sum():
    assert unit(X, Y) == mult({X: 1, Y: 1})
    assert m_sum(unit(X), unit(X, Y)) == mult({X: 2, Y: 1})
    assert m_sum(M_ZERO, unit(X)) == unit(X)
    assert m_sum(mult({X: INF}), unit(X)) == mult({X: INF})


def test_scale_and_pointwise_max():
    assert m_scale(0, mult({X: INF})) == M_ZERO
    assert m_scale(INF, unit(X)) == mult({X: INF})
    assert m_pointwise_max([unit(X, Y), mult({X: 3})]) == mult({X: 3, Y: 1})


def test_pointwise_leq():
    assert unit(X).pointwise_leq(mult({X: 2, Y: 1}))
    assert not mult({X: 2}).pointwise_leq(unit(X))
    assert mult({X: 5}).pointwise_leq(mult({X: INF}))


# -- probabilistic multiplicities ------------------------------------------

def test_prob_multiplicity_merges_and_validates():
    p = ProbMultiplicity.from_pairs([(unit(X), F(1, 2)), (unit(X), F(1, 4)),
                                     (M_ZERO, F(1, 4))])
    assert dict(p.entries)[unit(X)] == F(3, 4)
    with pytest.raises(ValueError):
        ProbMultiplicity(((unit(X), F(1, 2)),))
    with pytest.raises(ValueError, match="masses must be positive, got 0"):
        ProbMultiplicity(((unit(X), F(0)), (M_ZERO, F(1))))


def test_lift_sum_is_convolution():
    p = ProbMultiplicity.from_pairs([(M_ZERO, F(1, 2)), (unit(X), F(1, 2))])
    pp = p_sum(p, p)
    assert dict(pp.entries) == {
        M_ZERO: F(1, 4), unit(X): F(1, 2), mult({X: 2}): F(1, 4)}


def test_weighting_is_expected_count():
    p = ProbMultiplicity.from_pairs([(mult({X: 2}), F(1, 2)), (M_ZERO, F(1, 2))])
    w = weighting_of(p)
    assert w.get(X) == 1
    assert w.get(Y) == 0
    pinf = ProbMultiplicity.from_pairs([(mult({X: INF}), F(1, 100)),
                                        (M_ZERO, F(99, 100))])
    assert weighting_of(pinf).get(X) is INF


def test_every_domain_value_is_one_object_per_value():
    m = mult({X: 2, Y: INF})
    assert_one_object(lambda: mult({Y: INF, X: 2}), hash((m.entries,)))
    assert_one_object(lambda: Multiplicity(()), hash(((),)))
    p = ProbMultiplicity.from_pairs([(m, F(1, 3)), (unit(X), F(2, 3))])
    assert_one_object(
        lambda: ProbMultiplicity(((unit(X), F(2, 3)), (m, F(1, 3)))),
        hash(frozenset(p.entries)))
    assert_one_object(lambda: GenSet((p, P_ZERO)), hash(((p, P_ZERO),)))
    w = weighting_of(p)
    assert w.entries == ((X, F(4, 3)), (Y, INF))
    assert_one_object(lambda: Weighting(((X, F(4, 3)), (Y, INF))),
                      hash((w.entries,)))
    e = process_distance({X: F(1, 10)})
    assert_one_object(lambda: process_distance({X: F(1, 10)}),
                      hash((e.entries,)))
    assert ProcessDistance(()) is E_ZERO

    # values are frozen and print as the dataclasses they replace did
    for value, field in [(m, "entries"), (p, "entries"), (D_ZERO, "generators"),
                         (w, "entries"), (e, "entries")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, ())
    assert repr(unit(X)) == ("Multiplicity(entries="
                             "((Variable(name='x'), 1),))")
    assert repr(P_ZERO) == ("ProbMultiplicity(entries="
                            "((Multiplicity(entries=()), Fraction(1, 1)),))")
    assert repr(D_ZERO) == f"GenSet(generators=({P_ZERO!r},))"
    assert repr(e) == ("ProcessDistance(entries="
                       "((Variable(name='x'), Fraction(1, 10)),))")


# -- the probabilistic order ------------------------------------------------

def test_p_leq_dirac_cases():
    d1 = ProbMultiplicity.dirac(unit(X))
    d2 = ProbMultiplicity.dirac(mult({X: 2}))
    assert p_leq(d1, d2) and not p_leq(d2, d1)
    assert p_leq(d1, d1)


def test_p_leq_split_mass_against_dirac():
    # half nothing, half two copies: conditional mean one copy
    p = ProbMultiplicity.from_pairs([(M_ZERO, F(1, 2)), (mult({X: 2}), F(1, 2))])
    one = ProbMultiplicity.dirac(unit(X))
    assert p_leq(p, one)
    assert not p_leq(one, p)


def test_p_leq_reflexive_randomized():
    rng = random.Random(23)
    for _ in range(50):
        p = random_prob_multiplicity(rng)
        assert p_leq(p, p)


def test_p_leq_transitive_on_degraded_chain():
    rng = random.Random(29)
    for _ in range(25):
        p1, p2 = degraded_pair(rng)
        assert p_leq(p1, p2)


def test_infinite_rows_must_feed_infinite_columns():
    pinf = ProbMultiplicity.dirac(mult({X: INF}))
    big = ProbMultiplicity.dirac(mult({X: 10**6}))
    assert not p_leq(pinf, big)
    assert p_leq(big, pinf)
    assert p_leq(pinf, pinf)


@st.composite
def _related_or_not(draw):
    """A pair of small probabilistic multiplicities over three variables,
    counts ``INF`` included: half of the pairs ordered by construction,
    the others drawn independently."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    p2 = random_prob_multiplicity(rng)
    if draw(st.booleans()):
        return degrade(rng, p2), p2
    return random_prob_multiplicity(rng), p2


@settings(max_examples=300, deadline=None)
@given(_related_or_not())
def test_p_leq_agrees_with_its_linear_program(pair):
    # the Dirac shortcuts and the refutation by expected counts decide
    # exactly what the feasibility problem decides
    p1, p2 = pair
    assert p_leq(p1, p2) == multiplicity._p_leq_lp(p1, p2)


def test_a_pair_refuted_by_its_expected_counts_poses_no_lp(monkeypatch):
    def no_lp(*args):
        raise AssertionError("the linear program was posed")

    monkeypatch.setattr(multiplicity, "simplex_min", no_lp)
    # expected copies of x: 3 against 3/2, so p1 <= p2 cannot hold
    p1 = ProbMultiplicity.from_pairs([(mult({X: 2}), F(1, 2)),
                                      (mult({X: 4}), F(1, 2))])
    p2 = ProbMultiplicity.from_pairs([(unit(X), F(1, 2)),
                                      (mult({X: 2}), F(1, 2))])
    assert not p_leq(p1, p2)
    # the other way the counts agree, so only the program decides
    with pytest.raises(AssertionError, match="was posed"):
        p_leq(p2, p1)


# -- generator sets ---------------------------------------------------------

def test_genset_normalize_drops_dominated():
    d1 = ProbMultiplicity.dirac(unit(X))
    d2 = ProbMultiplicity.dirac(mult({X: 2}))
    g = genset_normalize([d1, d2])
    assert g.generators == (d2,)
    with pytest.raises(ValueError):
        genset_normalize([])
    with pytest.raises(ValueError):
        GenSet(())


def test_genset_order_and_equivalence():
    d1 = ProbMultiplicity.dirac(unit(X))
    d2 = ProbMultiplicity.dirac(mult({X: 2}))
    g1, g2 = GenSet((d1,)), GenSet((d2,))
    assert genset_leq(g1, g2) and not genset_leq(g2, g1)
    assert genset_equiv(genset_normalize([d1, d2]), g2)
    assert genset_leq(D_ZERO, g1)
    assert D_ZERO.generators == (P_ZERO,)


def test_the_identities_of_the_algebra_compare_nothing(monkeypatch):
    # a one-generator set, a one-pair distribution and a sum with the unit
    # are the operand itself: nothing is ordered or compared to build them
    p = ProbMultiplicity.from_pairs([(unit(X), F(1, 2)), (M_ZERO, F(1, 2))])
    m = mult({X: 2})

    def compared(*args):
        raise AssertionError("compared")

    monkeypatch.setattr(multiplicity, "p_leq", compared)
    monkeypatch.setattr(ProbMultiplicity, "sort_key", compared)
    monkeypatch.setattr(Multiplicity, "sort_key", compared)
    assert genset_normalize([p, p]) is GenSet((p,))
    assert genset_normalize(iter([p])) is GenSet((p,))
    assert ProbMultiplicity.from_pairs([(m, F(1))]) is ProbMultiplicity.dirac(m)
    assert p_sum(P_ZERO, p) is p is p_sum(p, P_ZERO)
    with pytest.raises(ValueError):
        genset_normalize([])


def test_sup_approx_dirac_inputs_exact():
    d1 = ProbMultiplicity.dirac(mult({X: 2}))
    d2 = ProbMultiplicity.dirac(mult({Y: 1}))
    assert sup_is_exact([d1, d2])
    assert sup_approx([d1, d2]) == ProbMultiplicity.dirac(mult({X: 2, Y: 1}))


def test_sup_approx_upper_bound_randomized():
    rng = random.Random(31)
    for _ in range(40):
        ps = [random_prob_multiplicity(rng) for _ in range(rng.randint(1, 3))]
        top = sup_approx(ps)
        for p in ps:
            assert p_leq(p, top)
        if not sup_is_exact(ps):
            assert top.is_dirac()


# -- distance approximation -------------------------------------------------

def test_dda_hand_values():
    e = process_distance({X: F(1, 10)})
    assert dda(mult({X: 2}), e) == F(19, 100)
    assert dda(M_ZERO, e) == 0
    assert dda(mult({X: INF}), e) == 1
    # infinite copies at distance zero are inert
    assert dda(mult({X: INF}), E_ZERO) == 0
    assert dda(mult({X: INF, Y: 2}), process_distance({Y: F(1, 2)})) == F(3, 4)


def test_pda_is_expectation():
    e = process_distance({X: F(1, 10)})
    p = ProbMultiplicity.from_pairs([(mult({X: 2}), F(1, 2)), (M_ZERO, F(1, 2))])
    assert pda(p, e) == F(19, 200)


def test_da_takes_the_best_generator():
    e = process_distance({X: F(1, 10), Y: F(1, 5)})
    g = genset_normalize([
        ProbMultiplicity.from_pairs([(M_ZERO, F(1, 2)), (mult({X: 2}), F(1, 2))]),
        ProbMultiplicity.dirac(unit(Y)),
    ])
    assert da(g, e) == F(1, 5)
    assert da(D_ZERO, e) == 0


def test_process_distance_lookup_defaults_to_zero():
    e = process_distance({X: F(1, 3)})
    assert e.get(X) == F(1, 3)
    assert e.get(Y) == 0
