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
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsos import terms
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
    convex_sum,
    format_rational,
    format_term,
    free_vars,
    scan_term,
    state_var,
    substitute,
)

from helpers import (assert_one_object, convex_sum_reference, embed,
                     instantiate, is_closed)

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
    assert dict(nested.entries) == {d0: Fraction(3, 4), d1: Fraction(1, 4)}
    # merging identical summands collapses to the summand itself
    assert convex_sum([(Fraction(1, 3), d0), (Fraction(2, 3), d0)]) == d0


def test_convex_sum_rejects_bad_weights():
    d0 = InstDirac(ZERO)
    d1 = InstDirac(A_ZERO)
    with pytest.raises(ValueError):
        convex_sum([(Fraction(1, 2), d0), (Fraction(1, 3), d1)])
    with pytest.raises(ValueError):
        ConvexSum(((d0, Fraction(2)), (d1, Fraction(-1))))


SUMMANDS = [InstDirac(ZERO), InstDirac(A_ZERO), MU, DistVariable("nu"),
            DistApply("par", (MU, InstDirac(X))),
            convex_sum([(Fraction(1, 2), MU), (Fraction(1, 2), InstDirac(ZERO))]),
            convex_sum([(Fraction(1, 3), DistVariable("nu")),
                        (Fraction(2, 3), MU)])]


def _built(build, parts):
    """The node ``build(parts)`` returns, or the message of its error."""
    try:
        return build(parts)
    except ValueError as err:
        return f"ValueError: {err}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4),
                          st.integers(0, len(SUMMANDS) - 1)),
                min_size=1, max_size=5),
       st.sampled_from(["normalised", "fraction", "int"]))
def test_convex_sum_builds_the_node_of_its_merging_loop(drawn, weights):
    # distinct, repeated and nested summands, with weights that sum to 1,
    # or that may be zero or not sum to 1, as Fractions or as ints
    total = sum(w for w, _ in drawn)
    parts = [(Fraction(w, total) if weights == "normalised" and total
              else Fraction(w) if weights != "int" else w, SUMMANDS[k])
             for w, k in drawn]
    got = _built(convex_sum, iter(parts))
    want = _built(convex_sum_reference, parts)
    # the node table keys a sum by its entries in order, so ``is`` also
    # compares the order of the summands
    assert got is want or got == want and isinstance(want, str)


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
    assert pi.entries != rev.entries
    assert pi == rev and hash(pi) == hash(rev)
    assert str(pi) == str(rev)
    assert pickle.loads(pickle.dumps(pi)) is pi
    parts = [(q, InstDirac(t)) for t, q in pairs]
    theta, reversed_theta = convex_sum(parts), convex_sum(reversed(parts))
    assert theta.entries != reversed_theta.entries
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


def test_the_table_forgets_dead_nodes_and_keeps_live_ones():
    gc.collect()
    before = len(terms._TABLE)
    for i in range(10 ** 4):
        leaf = Apply(f"leaf_{i}")
        FiniteDistribution(((Apply("pref_a", (leaf,)), Fraction(1, 3)),
                            (leaf, Fraction(2, 3))))
    del leaf
    gc.collect()
    assert len(terms._TABLE) == before

    # a node rebuilt after its entry died has the dead node's hash
    node = Apply("pref_a", (Apply("fresh"),))
    value_hash, key = hash(node), (Apply, ("pref_a", (Apply("fresh"),)))
    dead = terms._TABLE[key]
    del node
    assert dead() is None and key not in terms._TABLE
    node = Apply("pref_a", (Apply("fresh"),))
    assert hash(node) == value_hash
    # a late callback for the dead node leaves the new node's entry alone
    terms._drop(dead)
    assert terms._TABLE[key]() is node
    assert Apply("pref_a", (Apply("fresh"),)) is node


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
    parts = ((InstDirac(ZERO), Fraction(1, 3)), (MU, Fraction(2, 3)))
    assert_one_object(lambda: ConvexSum(parts), hash(frozenset(parts)))
    # a sum is keyed by its summands in order, so each order prints as
    # written, and compares as a map
    swapped = ConvexSum(parts[::-1])
    assert swapped is not ConvexSum(parts)
    assert swapped == ConvexSum(parts) and swapped.entries == parts[::-1]
    # so is a distribution over states
    masses = ((ZERO, Fraction(1, 3)), (A_ZERO, Fraction(2, 3)))
    assert_one_object(lambda: FiniteDistribution.from_pairs(masses),
                      hash(frozenset(masses)))
    reordered = FiniteDistribution(masses[::-1])
    assert reordered is not FiniteDistribution(masses)
    assert reordered == FiniteDistribution(masses)
    assert hash(reordered) == hash(FiniteDistribution(masses))

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
    assert pi.entries == ((ZERO, Fraction(3, 4)), (A_ZERO, Fraction(1, 4)))
    with pytest.raises(ValueError):
        FiniteDistribution(((ZERO, Fraction(1, 2)),))
    # masses over different denominators are summed exactly
    mixed = ((ZERO, Fraction(1, 2)), (A_ZERO, Fraction(1, 3)),
             (Apply("a_pref", (A_ZERO,)), Fraction(1, 6)))
    assert FiniteDistribution(mixed).entries == mixed
    with pytest.raises(ValueError, match="^masses sum to 5/6, expected 1$"):
        FiniteDistribution(mixed[:2])
    with pytest.raises(ValueError, match="^masses must be positive, got -1/6"):
        FiniteDistribution(((ZERO, Fraction(7, 6)), (A_ZERO, Fraction(-1, 6))))


def test_instantiate_closed_and_embedding_roundtrip():
    theta = convex_sum([
        (Fraction(9, 10), InstDirac(A_ZERO)),
        (Fraction(1, 10), InstDirac(ZERO)),
    ])
    pi = instantiate(theta, {}, {})
    assert pi.entries == ((A_ZERO, Fraction(9, 10)), (ZERO, Fraction(1, 10)))
    assert instantiate(embed(pi), {}, {}) is pi


def test_instantiate_closed_merges_equal_targets():
    theta = convex_sum([
        (Fraction(1, 2), InstDirac(ZERO)),
        (Fraction(1, 2), convex_sum([(Fraction(1, 2), InstDirac(ZERO)),
                                     (Fraction(1, 2), InstDirac(A_ZERO))])),
    ])
    pi = instantiate(theta, {}, {})
    assert pi.entries == ((ZERO, Fraction(3, 4)), (A_ZERO, Fraction(1, 4)))


def test_instantiate_binds_sources_and_derivatives():
    # par(mu, 1/2*delta(x) + 1/2*delta(y)) with x, y bound to states
    # and mu to a two-point premise distribution
    nu = DistVariable("nu")
    pi = FiniteDistribution(((A_ZERO, Fraction(1, 3)), (ZERO, Fraction(2, 3))))
    theta = DistApply("par", (MU, convex_sum([(Fraction(1, 2), InstDirac(X)),
                                              (Fraction(1, 2), InstDirac(Y))])))
    out = instantiate(theta, {X: ZERO, Y: ZERO}, {MU: pi})
    assert out.entries == ((Apply("par", (A_ZERO, ZERO)), Fraction(1, 3)),
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

    def error(t):
        return scan_term(t, sig)[1]

    assert error(Apply("par", (ZERO, A_ZERO))) is None
    assert isinstance(error(Apply("a_pref", (ZERO, ZERO))), ArityMismatch)
    assert isinstance(error(Apply("par", (ZERO,))), ArityMismatch)
    # the outermost offending operator is reported, before any below it
    assert str(error(Apply("par", (Apply("a_pref", (ZERO, ZERO)),)))
               ).startswith("par expects 2")
    assert str(error(Apply("par", (Apply("undeclared"),)))
               ).startswith("par expects 2")
    # the variables are found in the same walk, and without a signature
    assert scan_term(Apply("par", (X, Apply("undeclared", (Y,))))) == (
        frozenset({X, Y}), None)


def test_deep_terms_are_substituted_without_recursion():
    t, closed = X, ZERO
    for _ in range(5000):
        t, closed = Apply("pref_a", (t,)), Apply("pref_a", (closed,))
    assert substitute(t, {X: ZERO}) is closed
    theta = InstDirac(t)
    assert substitute(theta, {X: ZERO}) == InstDirac(closed)
    with pytest.raises(KindMismatch):
        substitute(t, {X: MU})

