"""Terms: construction, rendering, substitution, instantiating distribution terms."""

import copy
import dataclasses
import gc
import os
import pickle
import random
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest

from pgsos.errors import ArityMismatch, KindMismatch
from pgsos.frontend import Rule, parse_spec, parse_term
from pgsos.oracle import random_closed_term
from pgsos.terms import (
    Apply,
    ConvexSum,
    DistApply,
    DistVariable,
    FiniteDistribution,
    InstDirac,
    Signature,
    Variable,
    check_arities,
    convex_sum,
    format_rational,
    format_term,
    free_vars,
    instantiate,
    state_var,
    substitute,
)

from helpers import assert_one_object, embed, is_closed

X = state_var("x")
Y = state_var("y")
MU = DistVariable("mu")

ZERO = Apply("zero")
A_ZERO = Apply("a_pref", (ZERO,))


def test_format_rational():
    assert format_rational(Fraction(19, 100)) == "19/100"
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(-1, 2)) == "-1/2"


def test_state_and_dist_namespaces_are_disjoint():
    assert state_var("x") != DistVariable("x")
    assert state_var("x") == state_var("x")
    assert state_var is Variable


def test_format_term_round_shapes():
    assert format_term(ZERO) == "zero"
    assert format_term(Apply("par", (X, A_ZERO))) == "par(x, a_pref(zero))"
    assert format_term(InstDirac(X)) == "delta(x)"
    theta = convex_sum([(Fraction(1, 2), InstDirac(ZERO)),
                        (Fraction(1, 2), InstDirac(A_ZERO))])
    assert format_term(theta) == "1/2*delta(zero) + 1/2*delta(a_pref(zero))"


def test_convex_sum_flattens_merges_and_collapses():
    d0 = InstDirac(ZERO)
    d1 = InstDirac(A_ZERO)
    nested = convex_sum([(Fraction(1, 2), d0),
                         (Fraction(1, 2), convex_sum([(Fraction(1, 2), d0),
                                                      (Fraction(1, 2), d1)]))])
    assert isinstance(nested, ConvexSum)
    assert dict((theta, q) for q, theta in nested.parts) == {
        d0: Fraction(3, 4), d1: Fraction(1, 4)}
    # merging identical summands collapses to the summand itself
    assert convex_sum([(Fraction(1, 3), d0), (Fraction(2, 3), d0)]) == d0


def test_convex_sum_rejects_bad_weights():
    d0 = InstDirac(ZERO)
    d1 = InstDirac(A_ZERO)
    with pytest.raises(ValueError):
        convex_sum([(Fraction(1, 2), d0), (Fraction(1, 3), d1)])
    with pytest.raises(ValueError):
        ConvexSum(((Fraction(2), d0), (Fraction(-1), d1)))


def test_free_vars_and_closedness():
    t = Apply("par", (X, Apply("alt", (Y, ZERO))))
    assert free_vars(t) == frozenset({X, Y})
    assert not is_closed(t)
    assert is_closed(A_ZERO)
    theta = convex_sum([(Fraction(1, 2), MU),
                        (Fraction(1, 2), InstDirac(X))])
    assert free_vars(theta) == frozenset({MU, X})


def test_substitute_homomorphic_and_kind_checked():
    t = Apply("par", (X, Y))
    s = substitute(t, {X: A_ZERO})
    assert s == Apply("par", (A_ZERO, Y))
    theta = InstDirac(X)
    assert substitute(theta, {X: ZERO}) == InstDirac(ZERO)
    with pytest.raises(KindMismatch):
        substitute(X, {X: InstDirac(ZERO)})
    with pytest.raises(KindMismatch):
        substitute(MU, {MU: ZERO})


def test_substitution_is_simultaneous():
    t = Apply("par", (X, Y))
    s = substitute(t, {X: Y, Y: X})
    assert s == Apply("par", (Y, X))


def test_format_term_is_injective_and_values_ignore_order_on_samples(pa_doc):
    terms = [ZERO, A_ZERO, X, Apply("par", (ZERO, ZERO)),
             Apply("par", (ZERO, A_ZERO))]
    assert len({format_term(t) for t in terms}) == len(terms)

    # Sampled closed terms: interned and hashed as a frozen dataclass of
    # (op, args) would be, and still immutable values.
    rng = random.Random(11)
    sampled = [random_closed_term(rng, pa_doc, depth) for depth in (1, 2, 3)
               for _ in range(10)]
    for t in sampled:
        assert parse_term(format_term(t), pa_doc) is t
        assert hash(t) == hash((t.op, t.args))
        for twin in (copy.copy(t), copy.deepcopy(t),
                     pickle.loads(pickle.dumps(t))):
            assert twin == t and hash(twin) == hash(t)
        with pytest.raises(AttributeError):
            t.op = "zero"
    assert len({format_term(t) for t in sampled}) == len(set(sampled))

    # distributions and convex sums are maps: the order of their entries
    # is not part of the value
    pairs = [(t, Fraction(1, len(sampled))) for t in sampled]
    pi = FiniteDistribution.from_pairs(pairs)
    rev = FiniteDistribution.from_pairs(reversed(pairs))
    assert pi.items() != rev.items()
    assert pi == rev and hash(pi) == hash(rev)
    assert str(pi) == str(rev)
    assert pickle.loads(pickle.dumps(pi)) == pi
    parts = [(q, InstDirac(t)) for t, q in pairs]
    theta, reversed_theta = convex_sum(parts), convex_sum(reversed(parts))
    assert theta.parts != reversed_theta.parts
    assert theta == reversed_theta and hash(theta) == hash(reversed_theta)


def test_deep_terms_are_hashed_and_compared_without_recursion():
    def chain(depth):
        t = ZERO
        for _ in range(depth):
            t = Apply("pref_a", (t,))
        return t

    first, second = chain(10 ** 5), chain(10 ** 5)
    assert first is second
    assert first == second and hash(first) == hash(second)
    assert {first: 1}[second] == 1
    root = weakref.ref(first)
    del first, second
    gc.collect()
    assert root() is None


def test_deep_distribution_terms_are_hashed_without_recursion():
    # each node stores its hash at construction, from its arguments' ones
    theta = DistVariable("m1")
    for _ in range(2000):
        theta = DistApply("alt", (DistVariable("m1"), theta))
    assert hash(theta) == hash(("alt", theta.args))
    assert {theta: 1}[theta] == 1


# Values that store their hash, built the same way in every process.
STORED_HASH_VALUES = """
from fractions import Fraction
from pgsos.frontend import parse_spec
from pgsos.multiplicity import INF, ProbMultiplicity, mult
from pgsos.terms import *
zero = Apply("zero")
spec = parse_spec("actions a; op zero : 0; op f : 1; rule: x1 --a--> m1 ---"
                  " f(x1) --a--> 1/3*delta(x1) + 2/3*f(m1)")
x, y = Variable("x"), Variable("y")
values = [DistApply("f", (InstDirac(zero),)), InstDirac(Apply("f", (zero,))),
          convex_sum([(Fraction(1, 3), InstDirac(zero)),
                      (Fraction(2, 3), DistVariable("m1"))]),
          FiniteDistribution.dirac(zero), Variable("x1"), DistVariable("m1"),
          *spec.rules, mult({x: INF}),
          ProbMultiplicity.from_pairs([(mult({y: INF}), Fraction(2, 3)),
                                       (mult({x: 2}), Fraction(1, 3))])]
"""


def test_stored_hashes_are_recomputed_in_copies_and_other_processes():
    namespace = {}
    exec(STORED_HASH_VALUES, namespace)
    for value in namespace["values"]:
        for twin in (copy.copy(value), copy.deepcopy(value)):
            assert twin == value and hash(twin) == hash(value)

    def python(seed, code, stdin=b""):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", STORED_HASH_VALUES + code],
                              input=stdin, env=env, capture_output=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    blob = python("1", "import pickle, sys\n"
                       "sys.stdout.buffer.write(pickle.dumps(values))")
    # under another salt, each unpickled value hashes as a fresh one does
    assert python("2", "import pickle, sys\n"
                       "twins = pickle.loads(sys.stdin.buffer.read())\n"
                       "assert twins == values\n"
                       "assert [hash(t) for t in twins] == "
                       "[hash(v) for v in values]\n"
                       "assert all(t in set(values) for t in twins)\n"
                       "print(len(twins))", blob) == b"9\n"
    # a hash depends on the seed alone, INF's included
    hashes = "print([hash(v) for v in values])"
    assert python("1", hashes) == python("1", hashes)


def test_every_term_variable_and_rule_is_one_object_per_value():
    assert_one_object(lambda: Variable("x"), hash(("x",)))
    assert_one_object(lambda: DistVariable("mu"), hash(("mu",)))
    assert_one_object(lambda: Apply("a_pref", (Apply("zero"),)),
                      hash(("a_pref", (ZERO,))))
    assert_one_object(lambda: Apply("zero", ()), hash(("zero", ())))
    assert Apply("zero") is Apply("zero", ())
    assert_one_object(lambda: InstDirac(Apply("a_pref", (X,))),
                      hash((Apply("a_pref", (X,)),)))
    assert_one_object(lambda: DistApply("par", (MU, InstDirac(X))),
                      hash(("par", (MU, InstDirac(X)))))
    parts = ((Fraction(1, 3), InstDirac(ZERO)), (Fraction(2, 3), MU))
    assert_one_object(lambda: ConvexSum(parts), hash(frozenset(parts)))
    # a sum is keyed by its summands in order, so each order prints as
    # written, and compares as a map
    swapped = ConvexSum(parts[::-1])
    assert swapped is not ConvexSum(parts)
    assert swapped == ConvexSum(parts) and swapped.parts == parts[::-1]

    text = ("actions a; op zero : 0; op f : 1; rule: x1 --a--> m1 ---"
            " f(x1) --a--> 1/2*delta(x1) + 1/2*f(m1)")
    rule = parse_spec(text).rules[0]
    assert_one_object(lambda: parse_spec(text).rules[0],
                      hash((rule.op, rule.sources, rule.pos, rule.neg,
                            rule.action, rule.target)))
    assert Rule(op=rule.op, sources=rule.sources, pos=rule.pos, neg=rule.neg,
                action=rule.action, target=rule.target) is rule

    # values are frozen and print as the dataclasses they replace did
    for value, field in [(X, "name"), (A_ZERO, "args"), (rule, "target")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field)
    assert repr(X) == "Variable(name='x')"
    assert repr(InstDirac(A_ZERO)) == ("InstDirac(term=Apply(op='a_pref', "
                                       "args=(Apply(op='zero', args=()),)))")
    assert repr(DistApply("f")) == "DistApply(op='f', args=())"


def test_finite_distribution_normalizes_and_checks_mass():
    pi = FiniteDistribution.from_pairs([(ZERO, Fraction(1, 2)),
                                        (ZERO, Fraction(1, 4)),
                                        (A_ZERO, Fraction(1, 4))])
    assert pi.mass(ZERO) == Fraction(3, 4)
    assert pi.mass(A_ZERO) == Fraction(1, 4)
    assert pi.mass(Apply("other")) == 0
    with pytest.raises(ValueError):
        FiniteDistribution(((ZERO, Fraction(1, 2)),))


def test_instantiate_closed_and_embedding_roundtrip():
    theta = convex_sum([
        (Fraction(9, 10), InstDirac(A_ZERO)),
        (Fraction(1, 10), InstDirac(ZERO)),
    ])
    pi = instantiate(theta, {}, {})
    assert pi.items() == ((A_ZERO, Fraction(9, 10)), (ZERO, Fraction(1, 10)))
    assert instantiate(embed(pi), {}, {}).items() == pi.items()


def test_instantiate_closed_merges_equal_targets():
    theta = convex_sum([
        (Fraction(1, 2), InstDirac(ZERO)),
        (Fraction(1, 2), convex_sum([(Fraction(1, 2), InstDirac(ZERO)),
                                     (Fraction(1, 2), InstDirac(A_ZERO))])),
    ])
    pi = instantiate(theta, {}, {})
    assert pi.items() == ((ZERO, Fraction(3, 4)), (A_ZERO, Fraction(1, 4)))


def test_instantiate_binds_sources_and_derivatives():
    # par(mu, 1/2*delta(x) + 1/2*delta(y)) with x, y bound to states
    # and mu to a two-point premise distribution
    nu = DistVariable("nu")
    pi = FiniteDistribution(((A_ZERO, Fraction(1, 3)), (ZERO, Fraction(2, 3))))
    theta = DistApply("par", (MU, convex_sum([(Fraction(1, 2), InstDirac(X)),
                                              (Fraction(1, 2), InstDirac(Y))])))
    out = instantiate(theta, {X: ZERO, Y: ZERO}, {MU: pi})
    assert out.items() == ((Apply("par", (A_ZERO, ZERO)), Fraction(1, 3)),
                           (Apply("par", (ZERO, ZERO)), Fraction(2, 3)))
    # a bare derivative is the premise distribution itself
    assert instantiate(MU, {}, {MU: pi}) is pi
    # delta of an open state term is instantiated through substitution
    out = instantiate(InstDirac(Apply("a_pref", (X,))), {X: A_ZERO}, {nu: pi})
    assert out == FiniteDistribution.dirac(Apply("a_pref", (A_ZERO,)))


@pytest.mark.parametrize("theta", [
    MU,
    DistApply("par", (InstDirac(ZERO), MU)),
    convex_sum([(Fraction(1, 2), InstDirac(ZERO)), (Fraction(1, 2), MU)]),
])
def test_instantiate_rejects_an_unbound_distribution_variable(theta):
    other = DistVariable("other")
    with pytest.raises(ValueError, match="not closed: mu"):
        instantiate(theta, {}, {other: FiniteDistribution.dirac(ZERO)})


def test_check_arities():
    sig = Signature(operators=(("zero", 0), ("a_pref", 1), ("par", 2)),
                    actions=("a",))
    check_arities(Apply("par", (ZERO, A_ZERO)), sig)
    with pytest.raises(ArityMismatch):
        check_arities(Apply("a_pref", (ZERO, ZERO)), sig)
    with pytest.raises(ArityMismatch):
        check_arities(Apply("par", (ZERO,)), sig)
    # the outermost offending operator is reported, before any below it
    with pytest.raises(ArityMismatch, match="^par expects 2"):
        check_arities(Apply("par", (Apply("a_pref", (ZERO, ZERO)),)), sig)
    with pytest.raises(ArityMismatch, match="^par expects 2"):
        check_arities(Apply("par", (Apply("undeclared"),)), sig)


def test_deep_terms_are_substituted_without_recursion():
    t, closed = X, ZERO
    for _ in range(5000):
        t, closed = Apply("pref_a", (t,)), Apply("pref_a", (closed,))
    assert substitute(t, {X: ZERO}) is closed
    theta = InstDirac(t)
    assert substitute(theta, {X: ZERO}) == InstDirac(closed)
    with pytest.raises(KindMismatch):
        substitute(t, {X: MU})

