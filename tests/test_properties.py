"""Algebraic laws checked with hypothesis-generated inputs.

These complement the seeded randomized checks: the count algebra is a
commutative monoid with an absorbing infinity, and the deterministic bound
turns sums of counts into products of survival probabilities — an exact
law, so it is asserted with equality, not tolerance.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pgsos.multiplicity import (
    INF,
    M_ZERO,
    dda,
    ext_add,
    ext_leq,
    ext_max,
    ext_mul,
    m_sum,
    mult,
    p_sum,
    pda,
    process_distance,
    weighting_of,
)
from pgsos.terms import format_rational, state_var

VARS = tuple(state_var(n) for n in ("x", "y", "z"))

counts = st.one_of(st.integers(min_value=0, max_value=5), st.just(INF))
multiplicities = st.dictionaries(st.sampled_from(VARS), counts,
                                 max_size=3).map(mult)
eps_fractions = st.integers(min_value=0, max_value=9).map(
    lambda k: Fraction(k, 10))
distances = st.dictionaries(st.sampled_from(VARS), eps_fractions,
                            max_size=3).map(process_distance)
prob_weights = st.integers(min_value=1, max_value=11)


@st.composite
def prob_multiplicities(draw):
    supp = draw(st.lists(multiplicities, min_size=1, max_size=3, unique=True))
    weights = [draw(prob_weights) for _ in supp]
    total = sum(weights)
    from pgsos.multiplicity import ProbMultiplicity
    return ProbMultiplicity.from_pairs(
        (m, Fraction(w, total)) for m, w in zip(supp, weights))


@given(multiplicities, multiplicities)
def test_count_sum_is_commutative(m1, m2):
    assert m_sum(m1, m2) == m_sum(m2, m1)


@given(multiplicities, multiplicities, multiplicities)
def test_count_sum_is_associative(m1, m2, m3):
    assert m_sum(m_sum(m1, m2), m3) == m_sum(m1, m_sum(m2, m3))


@given(multiplicities)
def test_count_sum_identity(m):
    assert m_sum(m, M_ZERO) == m


@given(counts, counts)
def test_extended_addition_commutes_and_dominates(a, b):
    assert ext_add(a, b) == ext_add(b, a)
    assert ext_leq(a, ext_add(a, b))
    assert ext_max(a, b) in (a, b)


@given(counts, counts)
def test_extended_multiplication_zero_absorbs(a, b):
    assert ext_mul(0, b) == 0
    assert ext_mul(a, b) == ext_mul(b, a)


@given(multiplicities, distances)
def test_deterministic_bound_stays_in_unit_interval(m, e):
    v = dda(m, e)
    assert 0 <= v <= 1


@given(multiplicities, multiplicities, distances)
def test_deterministic_bound_turns_sums_into_products(m1, m2, e):
    lhs = dda(m_sum(m1, m2), e)
    rhs = 1 - (1 - dda(m1, e)) * (1 - dda(m2, e))
    assert lhs == rhs


@given(multiplicities, multiplicities, distances)
def test_deterministic_bound_is_monotone(m1, m2, e):
    assert dda(m1, e) <= dda(m_sum(m1, m2), e)


@settings(max_examples=50)
@given(prob_multiplicities(), prob_multiplicities(), distances)
def test_probabilistic_bound_of_convolution(p1, p2, e):
    # drawing independently and summing multiplies the survival chances
    conv = p_sum(p1, p2)
    lhs = pda(conv, e)
    rhs = 1 - (1 - pda(p1, e)) * (1 - pda(p2, e))
    assert lhs == rhs


@settings(max_examples=50)
@given(prob_multiplicities())
def test_weighting_never_exceeds_max_support_count(p):
    w = weighting_of(p)
    for x in VARS:
        top = max((m.get(x) for m, _ in p), key=lambda n: (n is INF, n),
                  default=0)
        assert ext_leq(w.get(x), top)


@given(st.fractions())
def test_rational_rendering_round_trips(q):
    assert Fraction(format_rational(q)) == q
