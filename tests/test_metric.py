"""Transport lifting, set lifting, and the behavioural-distance fixpoint."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from pgsos.errors import (
    ArityMismatch,
    OpenTermError,
    PairLimitExceeded,
    StateLimitExceeded,
)
from pgsos import metric
from pgsos.frontend import parse_spec, parse_term
from pgsos.lp import solve_transport
from pgsos.metric import bisim_distance, hausdorff
from pgsos.oracle import perturbed_term, random_closed_term
from pgsos.semantics import explore_fragment
from pgsos.terms import Apply, FiniteDistribution, format_term

from helpers import (
    check_pseudometric,
    distance_step,
    distance_table,
    game_distance_bruteforce,
    kleene_distance,
    pair_dependencies,
    random_cyclic_spec,
)

F = Fraction

A = Apply("a")
B = Apply("b")
C = Apply("c")


def t(doc, text):
    return parse_term(text, doc)


# -- Kantorovich lifting: the transport problems it poses -----------------
# Rows are the points of the first distribution, columns those of the
# second; ``bisim_distance`` settles identical distributions and point
# masses itself, so those cases are also checked through it.

def test_kantorovich_identical_inputs_cost_zero(pa_doc):
    value, plan = solve_transport([[F(0), F(1)], [F(1), F(0)]],
                                  [F(1, 3), F(2, 3)], [F(1, 3), F(2, 3)])
    assert value == 0
    assert plan == [[F(1, 3), F(0)], [F(0), F(2, 3)]]
    p = "ppref_a_5_5(aa0, pa0)"
    assert bisim_distance(pa_doc, t(pa_doc, f"alt({p}, {p})"),
                          t(pa_doc, p)) == 0


def test_kantorovich_dirac_pair_is_ground_distance():
    value, plan = solve_transport([[F(2, 5)]], [F(1)], [F(1)])
    assert value == F(2, 5)
    assert plan == [[F(1)]]


def test_kantorovich_single_support_side_forces_product_plan():
    value, plan = solve_transport([[F(1, 2), F(1, 4)]],
                                  [F(1)], [F(1, 2), F(1, 2)])
    assert value == F(1, 2) * F(1, 2) + F(1, 2) * F(1, 4)
    assert plan == [[F(1, 2), F(1, 2)]]


def test_kantorovich_prefers_cheap_matching():
    # mass can stay in place: distance 0 despite expensive cross pairs
    value, _ = solve_transport([[F(0), F(1)], [F(1), F(0)]],
                               [F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)])
    assert value == 0


def test_kantorovich_partial_overlap():
    # total-variation-like instance: only the 1/10 surplus must move
    value, plan = solve_transport([[F(0), F(1)], [F(1), F(0)]],
                                  [F(9, 10), F(1, 10)], [F(8, 10), F(2, 10)])
    assert value == F(1, 10)
    assert sum(map(sum, plan)) == 1
    # plan marginals
    assert sum(plan[0]) == F(9, 10) and plan[0][1] + plan[1][1] == F(2, 10)


def test_kantorovich_respects_ground_metric_scaling(pa_doc):
    value, _ = solve_transport([[F(0), F(1, 10)]],
                               [F(1)], [F(9, 10), F(1, 10)])
    assert value == F(1, 100)
    # a point mass on aa0 against 9/10 on aa0 and 1/10 on pa0, which lie
    # 1/10 apart: the product coupling inside the distance engine
    assert bisim_distance(pa_doc, t(pa_doc, "pref_a(aa0)"),
                          t(pa_doc, "ppref_a_9_1(aa0, pa0)")) == F(1, 100)


def test_check_pseudometric_catches_asymmetry():
    bad = {(A, A): F(0), (A, B): F(1, 2), (B, A): F(1, 3), (B, B): F(0)}
    with pytest.raises(AssertionError):
        check_pseudometric(bad, [A, B])


# -- Hausdorff --------------------------------------------------------------

def test_hausdorff_conventions_for_empty_sides():
    pi = FiniteDistribution.dirac(A)
    values = lambda x, y: F(0)  # noqa: E731
    assert hausdorff(values, [], []) == 0
    assert hausdorff(values, [pi], []) == 1
    assert hausdorff(values, [], [pi]) == 1


def test_hausdorff_hand_instance():
    pa = FiniteDistribution.dirac(A)
    pb = FiniteDistribution.dirac(B)
    pc = FiniteDistribution.dirac(C)
    dist = {(A, A): F(0), (B, B): F(0), (C, C): F(0),
            (A, B): F(1, 4), (B, A): F(1, 4),
            (A, C): F(1, 2), (C, A): F(1, 2),
            (B, C): F(1, 3), (C, B): F(1, 3)}
    values = lambda x, y: dist[(x.support()[0], y.support()[0])]  # noqa: E731
    # {A} vs {B, C}: forward inf = 1/4; backward: B->1/4, C->1/2 -> sup 1/2
    assert hausdorff(values, [pa], [pb, pc]) == F(1, 2)
    assert hausdorff(values, [pa, pb], [pa, pb]) == 0


# -- fixpoint on explored fragments ----------------------------------------

def test_lfp_metric_on_prefix_chain(pa_doc):
    roots = [t(pa_doc, "aa0"), t(pa_doc, "pa0")]
    frag = explore_fragment(pa_doc, roots)
    d = distance_table(pa_doc, frag)
    check_pseudometric(d, frag.states)
    assert d[(roots[0], roots[1])] == F(1, 10)
    assert bisim_distance(pa_doc, *roots) == F(1, 10)


def test_lfp_metric_fixpoint_property(pa_doc):
    # the engine's distances over a whole fragment are a fixed point of
    # one step of the reference functional
    frag = explore_fragment(pa_doc, [t(pa_doc, "aa0"), t(pa_doc, "pa0"),
                                     t(pa_doc, "bb0"), t(pa_doc, "qb0")])
    d = {(u, v): bisim_distance(pa_doc, u, v)
         for u in frag.states for v in frag.states}
    assert distance_step(pa_doc, frag, d) == d


def test_lfp_requires_complete_fragment(examples_doc):
    with pytest.raises(StateLimitExceeded):
        bisim_distance(examples_doc, t(examples_doc, "bang(aa0)"),
                       t(examples_doc, "bang(pa0)"), max_states=6)


def test_distance_between_action_disagreement(pa_doc):
    # an a-step against a b-step: nothing matches, full distance
    assert bisim_distance(pa_doc, t(pa_doc, "a0"), t(pa_doc, "pref_b(zero)")) == 1


def test_distance_zero_for_distinct_but_equivalent_terms(pa_doc):
    # alt(p, p) behaves exactly like p
    assert bisim_distance(pa_doc, t(pa_doc, "alt(a0, a0)"), t(pa_doc, "a0")) == 0


def test_distance_identical_terms_short_circuit(pa_doc):
    u = t(pa_doc, "par(aa0, aa0)")
    assert bisim_distance(pa_doc, u, u) == 0


def test_identical_roots_are_checked_before_the_short_circuit(pa_doc):
    one_arg = Apply("par", (Apply("zero"),))
    with pytest.raises(ArityMismatch):
        bisim_distance(pa_doc, one_arg, one_arg)
    open_term = t(pa_doc, "par(x, zero)")
    with pytest.raises(OpenTermError, match="exploration needs closed roots"):
        bisim_distance(pa_doc, open_term, open_term)


def test_distance_discounts_along_prefix_depth(pa_doc):
    # difference shows one step later on one side only
    d1 = bisim_distance(pa_doc, t(pa_doc, "aa0"), t(pa_doc, "pa0"))
    d2 = bisim_distance(pa_doc, t(pa_doc, "ab0"), t(pa_doc, "pb0"))
    assert d1 == d2 == F(1, 10)
    assert bisim_distance(pa_doc, t(pa_doc, "bb0"), t(pa_doc, "qb0")) == F(1, 5)


def test_distance_agrees_with_full_table(pa_doc):
    pairs = [("par(aa0, aa0)", "par(pa0, pa0)"),
             ("alt(aa0, bb0)", "alt(pa0, qb0)"),
             ("ipar(a0, bb0)", "ipar(a0, qb0)"),
             ("parB(aa0, bb0)", "parB(pa0, bb0)")]
    for left, right in pairs:
        u, v = t(pa_doc, left), t(pa_doc, right)
        frag = explore_fragment(pa_doc, [u, v])
        assert bisim_distance(pa_doc, u, v) == distance_table(pa_doc, frag)[(u, v)]


def test_distance_randomized_against_full_table(pa_doc):
    rng = random.Random(99)
    for _ in range(8):
        u = random_closed_term(rng, pa_doc, rng.randint(1, 3))
        v = random_closed_term(rng, pa_doc, rng.randint(1, 3))
        frag = explore_fragment(pa_doc, [u, v])
        assert bisim_distance(pa_doc, u, v) == distance_table(pa_doc, frag)[(u, v)]


def test_distance_axioms_on_sampled_triples(pa_doc):
    # independent terms are mostly at distance 1, where the triangle
    # inequality cannot fail; draw until 20 triples have d(u,v) + d(v,w) < 1
    rng = random.Random(2024)
    informative = 0
    while informative < 20:
        u, v, w = (random_closed_term(rng, pa_doc, rng.randint(0, 2))
                   for _ in range(3))
        assert bisim_distance(pa_doc, u, u) == 0
        d_uv, d_vw = bisim_distance(pa_doc, u, v), bisim_distance(pa_doc, v, w)
        assert d_uv == bisim_distance(pa_doc, v, u)
        assert bisim_distance(pa_doc, u, w) <= d_uv + d_vw
        informative += d_uv + d_vw < 1


# A pair budget counts the pairs not yet solved for the document, so the
# budget tests run on a fresh memo: what they count does not depend on the
# tests before them.

def test_pair_budget_refusal(pa_doc, fresh_memo):
    doc = fresh_memo(pa_doc)
    u, v = t(doc, "par(pa0, pa0)"), t(doc, "par(aa0, pa0)")
    with pytest.raises(PairLimitExceeded):
        bisim_distance(doc, u, v, max_pairs=1)


def test_pair_budget_skips_equal_distributions(pa_doc, fresh_memo):
    # two pairs: the roots and (zero, pref_b(zero)); both roots move by a
    # to pa0's one distribution, and that move adds no pair
    doc = fresh_memo(pa_doc)
    u = t(doc, "alt(pa0, pref_b(zero))")
    v = t(doc, "alt(pa0, pref_b(pref_b(zero)))")
    assert bisim_distance(doc, u, v, max_pairs=2) == 1


def test_pair_budget_counts_a_solved_pair_as_one(pa_doc, fresh_memo):
    doc = fresh_memo(pa_doc)
    u, v = t(doc, "par(pa0, pa0)"), t(doc, "par(aa0, pa0)")
    with pytest.raises(PairLimitExceeded):
        bisim_distance(doc, u, v, max_pairs=1)
    value = bisim_distance(doc, u, v)
    # the root's class pair is solved now, and its cone is not walked
    assert bisim_distance(doc, u, v, max_pairs=1) == value


def test_a_stored_root_pair_is_answered_at_once(pa_doc, fresh_memo,
                                               monkeypatch):
    doc = fresh_memo(pa_doc)
    u, v = t(doc, "par(pa0, pa0)"), t(doc, "par(aa0, pa0)")
    value = bisim_distance(doc, u, v)
    # a budget of no pairs refuses even a stored one
    with pytest.raises(PairLimitExceeded):
        bisim_distance(doc, u, v, max_pairs=0)

    def walked(*args):
        raise AssertionError("a stored pair walks no graph")

    monkeypatch.setattr(metric, "strongly_connected_components", walked)
    assert bisim_distance(doc, u, v) == value
    assert bisim_distance(doc, v, u, max_pairs=1) == value


# The state budget follows the same rule: it counts the states a query has
# to classify, and a state an earlier query classified counts as none.


def test_state_budget_counts_only_states_to_classify(pa_doc, fresh_memo):
    u, v = _ipar_chain(pa_doc, 2, "pa0"), _ipar_chain(pa_doc, 2, "pb0")
    pa0 = t(pa_doc, "pa0")
    joint = explore_fragment(pa_doc, [u, v]).states
    known = explore_fragment(pa_doc, [u, pa0]).states
    need = len(set(joint) - set(known))
    assert (len(joint), need) == (45, 18)
    cold = fresh_memo(pa_doc)
    with pytest.raises(StateLimitExceeded):
        bisim_distance(cold, u, v, max_states=need)
    value = bisim_distance(cold, u, v, max_states=len(joint))
    warm = fresh_memo(pa_doc)
    bisim_distance(warm, u, pa0)  # classifies the 30 states of ``known``
    with pytest.raises(StateLimitExceeded):
        bisim_distance(warm, u, v, max_states=need - 1)
    assert bisim_distance(warm, u, v, max_states=need) == value


def test_a_refused_walk_leaves_the_class_tables_as_they_were(pa_doc,
                                                             fresh_memo):
    # the walk refuses part-way, after deriving moves for some states; no
    # class id is given until it is complete
    doc = fresh_memo(pa_doc)
    u, v = _ipar_chain(doc, 2, "pa0"), _ipar_chain(doc, 2, "pb0")
    bisim_distance(doc, u, t(doc, "pa0"))
    tables = ("state classes", "class signatures", "class moves",
              "class distances")
    before = {name: dict(doc.memo(name)) for name in tables}
    with pytest.raises(StateLimitExceeded):
        metric._classify(doc, [u, v], 17)
    with pytest.raises(StateLimitExceeded):
        bisim_distance(doc, u, v, max_states=17)
    assert {name: dict(doc.memo(name)) for name in tables} == before


def test_more_roots_than_the_state_budget_refuse_before_any_walk(
        pa_doc, fresh_memo):
    doc = fresh_memo(pa_doc)
    u, v = t(doc, "aa0"), t(doc, "pa0")
    for refuse in (lambda: metric._classify(doc, [u, v, u], 1),
                   lambda: bisim_distance(doc, u, v, max_states=1)):
        with pytest.raises(StateLimitExceeded) as refusal:
            refuse()
        assert str(refusal.value) == "2 roots already exceed max_states=1"
    assert doc.memo("transitions") == {}
    assert doc.memo("state classes") == {}


def test_classified_roots_are_neither_walked_nor_checked(pa_doc, fresh_memo,
                                                         monkeypatch):
    doc = fresh_memo(pa_doc)
    u, v = _ipar_chain(doc, 2, "pa0"), _ipar_chain(doc, 2, "pb0")
    value = bisim_distance(doc, u, v)
    calls = []

    def counted(fn):
        def call(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return call

    for name in ("transitions", "check_closed"):
        monkeypatch.setattr(metric, name, counted(getattr(metric, name)))
    assert bisim_distance(doc, u, v) == value
    assert calls == []


def test_deep_chains_are_explored_and_measured_without_recursion(examples_doc):
    u = Apply("zero")
    for _ in range(1999):
        u = Apply("pref_a", (u,))
    deeper = Apply("pref_a", (u,))
    assert format_term(deeper) == "pref_a(" * 2000 + "zero" + ")" * 2000
    assert len(explore_fragment(examples_doc, [deeper]).states) == 2001
    # the deeper chain can make one more a-step
    assert bisim_distance(examples_doc, deeper, u) == 1


CHAIN_PEAK = """
from importlib import resources
from pgsos import Apply, bisim_distance, parse_spec
doc = parse_spec(resources.files("pgsos").joinpath(
    "data", "examples.pgsos").read_bytes())
u = Apply("zero")
for _ in range(19999):
    u = Apply("pref_a", (u,))
print(bisim_distance(doc, Apply("pref_a", (u,)), u, max_states=20001))
print(next(line.split()[1] for line in open("/proc/self/status")
           if line.startswith("VmHWM:")))
"""


def test_distance_between_chains_20000_deep_peaks_under_200_mb():
    # a term is one node per level with no text kept on it, so memory
    # grows linearly with depth, not with its square
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc/self/status to read the peak resident size")
    # a fresh interpreter, since the peak is kept for the process's life
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", CHAIN_PEAK], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    distance, peak_kb = proc.stdout.split()
    assert distance == "1"
    assert int(peak_kb) < 200 * 1024


# -- the bisimulation quotient ----------------------------------------------

def _ipar_chain(doc, n, first):
    text = first
    for _ in range(n):
        text = f"ipar({text}, pa0)"
    return t(doc, text)


def test_bisimilar_roots_need_no_transport(pa_doc, monkeypatch):
    def no_transport(*args):
        raise AssertionError("bisimilar roots must not reach the LP")

    monkeypatch.setattr(metric, "solve_transport", no_transport)
    u = t(pa_doc, "ipar(ipar(alt(pa0, pa0), pa0), pa0)")
    v = t(pa_doc, "ipar(ipar(pa0, pa0), pa0)")
    assert bisim_distance(pa_doc, u, v) == 0


def test_pair_budget_counts_pairs_of_classes(pa_doc, fresh_memo):
    # 405 joint states in 51 classes; without the quotient the pair system
    # of ``ipar`` nested three times alone has 3,893 pairs
    doc = fresh_memo(pa_doc)
    u, v = _ipar_chain(doc, 4, "pa0"), _ipar_chain(doc, 4, "pb0")
    assert bisim_distance(doc, u, v, max_pairs=500) == F(9, 10)


@pytest.mark.parametrize("spec", ["pa_doc", "examples_doc", "cyclic"])
def test_classes_are_the_distance_zero_pairs(spec, request):
    rng = random.Random(5)
    if spec == "cyclic":
        _check_cyclic_classes(rng)
        return
    doc = request.getfixturevalue(spec)
    fragments = 0
    while fragments < 10:
        u = random_closed_term(rng, doc, rng.randint(1, 3))
        try:
            frag = explore_fragment(doc, [u, perturbed_term(rng, doc, u)],
                                    max_states=40)
        except StateLimitExceeded:
            continue
        fragments += 1
        d = distance_table(doc, frag)
        class_of = metric._classify(doc, frag.states)
        for x in frag.states:
            for y in frag.states:
                assert (class_of[x] == class_of[y]) == (d[(x, y)] == 0)


def _check_cyclic_classes(rng):
    """On recursive specifications a state stands for itself exactly when
    it reaches a cycle of its support graph, and two states that reach
    none share a class exactly when they are at distance 0.  Each
    document first classifies one constant's fragment, so the second
    walk meets states an earlier query classified."""
    for _ in range(30):
        text, names = random_cyclic_spec(rng)
        doc = parse_spec(text)
        metric._classify(doc, [t(doc, names[-1])])
        frag = explore_fragment(doc, [t(doc, x) for x in names + ["zero"]])
        class_of = metric._classify(doc, frag.states)
        after = {s: {x for pis in frag.transitions[s].values()
                     for pi in pis for x in pi.support()}
                 for s in frag.states}
        for s in frag.states:  # ``after[s]``: reachable in one step or more
            todo = list(after[s])
            while todo:
                x = todo.pop()
                todo.extend(after[x] - after[s])
                after[s] |= after[x]
        on_cycle = {s for s in frag.states if s in after[s]}
        cyclic = {s for s in frag.states
                  if s in on_cycle or after[s] & on_cycle}
        alone = doc.memo("class signatures")
        for x in frag.states:
            assert (x in alone) == (x in cyclic), text
            for y in frag.states:
                if x in cyclic or y in cyclic:
                    assert (class_of[x] == class_of[y]) == (x == y), text
                else:
                    assert ((class_of[x] == class_of[y])
                            == (bisim_distance(doc, x, y) == 0)), text


def _sampled_fragments(spec, request):
    """Ten ``(doc, fragment)`` pairs of at most 64 states: sampled term
    pairs of the fixture ``spec``, or all the constants of a random
    recursive specification when ``spec`` is ``"cyclic"``."""
    rng = random.Random(11)
    fragments = 0
    while fragments < 10:
        if spec == "cyclic":
            text, names = random_cyclic_spec(rng)
            doc = parse_spec(text)
            roots = [t(doc, x) for x in names + ["zero"]]
        else:
            doc = request.getfixturevalue(spec)
            u = random_closed_term(rng, doc, rng.randint(1, 3))
            roots = [u, perturbed_term(rng, doc, u)]
        try:
            frag = explore_fragment(doc, roots, max_states=64)
        except StateLimitExceeded:
            continue
        fragments += 1
        yield doc, frag


@pytest.mark.parametrize("spec", ["pa_doc", "examples_doc", "loops_doc",
                                  "cyclic"])
def test_each_state_moves_as_its_class_does(spec, request):
    # the solver reads a class's moves from the "class moves" table, which
    # holds those of the class's first state: every state of the class,
    # whichever query classified it, must move the same, lifted to class ids
    for doc, frag in _sampled_fragments(spec, request):
        class_of = metric._classify(doc, frag.states)
        class_moves = doc.memo("class moves")
        for s in frag.states:
            lifted = {}
            for a, pis in frag.transitions[s].items():
                lifted[a] = set()
                for pi in pis:
                    mass = {}
                    for x, q in pi:
                        mass[class_of[x]] = mass.get(class_of[x], 0) + q
                    lifted[a].add(frozenset(mass.items()))
            entry = dict(class_moves[class_of[s]])
            assert all(len(set(ds)) == len(ds) for ds in entry.values())
            assert {a: {frozenset(d) for d in ds}
                    for a, ds in entry.items()} == lifted


@pytest.mark.parametrize("spec", ["pa_doc", "examples_doc", "loops_doc",
                                  "cyclic"])
def test_a_class_keeps_its_signature_as_its_moves(spec, request):
    # a class that does not stand for itself keeps its moves once: the
    # "class moves" entry is the very key of "class signatures"
    merged = 0
    for doc, frag in _sampled_fragments(spec, request):
        class_of = metric._classify(doc, frag.states)
        signatures = doc.memo("class signatures")
        key_of = {c: key for key, c in signatures.items()}
        class_moves = doc.memo("class moves")
        for s in frag.states:
            if s not in signatures:
                merged += 1
                assert class_moves[class_of[s]] is key_of[class_of[s]]
    assert merged


def test_declared_actions_no_class_enables_cost_nothing(pa_doc, fresh_memo,
                                                        monkeypatch):
    # 100 more declared actions, none of which a state of these pairs
    # enables, leave each distance and each Hausdorff lifting it takes as
    # they were; the second pair has actions only one side enables
    text = resources.files("pgsos").joinpath("data", "pa.pgsos").read_text()
    extra = ", ".join(f"a_{i}" for i in range(100))
    assert "actions a, b;" in text
    wide = parse_spec(text.replace("actions a, b;",
                                   f"actions a, {extra}, b;"))
    calls = []

    def counted(*args):
        calls.append(args)
        return hausdorff(*args)

    monkeypatch.setattr(metric, "hausdorff", counted)
    for u, v in [("ipar(ipar(pa0, pa0), pa0)", "ipar(ipar(pb0, pa0), pa0)"),
                 ("alt(ppref_a_9_1(a0, zero), pref_b(a0))",
                  "ppref_a_9_1(a0, a0)")]:
        seen = []
        for doc in (fresh_memo(pa_doc), fresh_memo(wide)):
            calls.clear()
            seen.append((bisim_distance(doc, t(doc, u), t(doc, v)),
                         len(calls)))
        assert seen[0] == seen[1]


@pytest.mark.parametrize("u, v, states, classes", [
    ("ipar(ipar(ipar(loop_4_5, rec), pref_a(loop_1_2)), pref_a(zero))",
     "ipar(ipar(rec, pref_a(loop_1_2)), pref_a(zero))", 54, 52),
    ("ipar(ipar(ipar(rec, rec), loop_1_2), loop_1_2)",
     "ipar(ipar(ipar(rec, loop_4_5), loop_1_2), loop_1_2)", 48, 48),
])
def test_states_reaching_a_cycle_stand_for_themselves(loops_doc, u, v,
                                                      states, classes):
    # bisimulation has 36 and 27 classes on these fragments; refining the
    # states that reach a cycle would find them
    frag = explore_fragment(loops_doc, [t(loops_doc, u), t(loops_doc, v)])
    class_of = metric._classify(loops_doc, frag.states)
    assert len(frag.states) == states
    assert len({class_of[s] for s in frag.states}) == classes


LOOPS = """
actions a;
op zero : 0;
op loop_all : 0;
op loop_half : 0;
rule:
  ---
  loop_all --a--> delta(loop_all)
rule:
  ---
  loop_half --a--> 1/2*delta(loop_half) + 1/2*delta(zero)
"""


def test_cyclic_chain_exact_mode_answers():
    doc = parse_spec(LOOPS)
    u, v = t(doc, "loop_all"), t(doc, "loop_half")
    # the Kleene iterates 1 - 2^-n never reach 1; the policy solve does
    assert bisim_distance(doc, u, v) == 1


# The first coupling is read off the zero table, where moving s1's mass
# onto s0 looks free; the answerer's policy iteration has to switch it.
TWO_ROUNDS = """
actions a;
op zero : 0;
op s0 : 0;
op s1 : 0;
rule:
  ---
  s0 --a--> 1/5*delta(zero) + 4/5*delta(s1)
rule:
  ---
  s1 --a--> 4/5*delta(s1) + 1/5*delta(s0)
"""


def test_cyclic_pair_whose_first_coupling_is_wrong():
    doc = parse_spec(TWO_ROUNDS)
    u, v = t(doc, "s0"), t(doc, "s1")
    assert bisim_distance(doc, u, v) == F(1, 5)


# At 0 the challenge s0 --a--> zero is the costliest (3/5), but once it is
# answered, s0's loop costs more: the challenger has to switch.
SWITCH = """
actions a;
op zero : 0;
op s0 : 0;
op s1 : 0;
rule:
  ---
  s0 --a--> 4/5*delta(s0) + 1/5*delta(s1)
rule:
  ---
  s0 --a--> delta(zero)
rule:
  ---
  s1 --a--> 3/5*delta(s1) + 2/5*delta(zero)
"""


def test_challenger_switches_from_its_first_challenge():
    doc = parse_spec(SWITCH)
    u, v = t(doc, "s0"), t(doc, "s1")
    frag = explore_fragment(doc, [u, v])
    assert bisim_distance(doc, u, v) == F(2, 3)
    assert game_distance_bruteforce(doc, frag, u, v) == F(2, 3)


def test_non_least_fixed_point_fails_the_closure_check(loops_doc):
    u, v = t(loops_doc, "choose_l"), t(loops_doc, "choose_r")
    frag = explore_fragment(loops_doc, [u, v])
    # 1 on the pair is a fixed point too:
    table = distance_table(loops_doc, frag)
    assert table[(u, v)] == F(1, 2)
    table[(u, v)] = table[(v, u)] = F(1)
    assert distance_step(loops_doc, frag, table) == table
    # but the answerer meets the looping challenge by looping, which keeps
    # the pair closed at cost 0, so only the challenge that stops counts
    assert bisim_distance(loops_doc, u, v) == F(1, 2)


def test_cyclic_distances_match_the_game_bruteforce():
    # bisim_distance on 30 random recursive specifications that reach a
    # cycle: equal to the game value, above the 50-round Kleene iterate,
    # and a fixed point of the distance functional on the whole fragment
    rng = random.Random(11)
    compared = 0
    while compared < 30:
        text, names = random_cyclic_spec(rng)
        doc = parse_spec(text)
        u, v = (t(doc, x) for x in rng.sample(names, 2))
        frag = explore_fragment(doc, [u, v])
        _, reaches = pair_dependencies(doc, frag, u, v)
        if not any(p in reached for p, reached in reaches.items()):
            continue
        try:
            game = game_distance_bruteforce(doc, frag, u, v)
        except ValueError:  # more pairs on cycles than it enumerates
            continue
        table = {(x, y): bisim_distance(doc, x, y)
                 for x in frag.states for y in frag.states}
        assert table[(u, v)] == game, text
        assert kleene_distance(doc, frag, 50)[(u, v)] <= game
        assert distance_step(doc, frag, table) == table
        compared += 1


def test_cyclic_but_convergent_pair():
    doc = parse_spec(LOOPS)
    # self-loop against itself through distinct-but-bisimilar wrappers
    u, v = t(doc, "loop_all"), t(doc, "loop_all")
    assert bisim_distance(doc, u, v) == 0


# -- the document's table of class distances ----------------------------------

def _outcome(doc, u, v, **budget):
    """The distance of ``u`` and ``v``, or the name of the refusal."""
    try:
        return bisim_distance(doc, u, v, **budget)
    except (PairLimitExceeded, StateLimitExceeded) as refusal:
        return type(refusal).__name__


def test_warm_answers_equal_cold_answers(pa_doc, examples_doc, loops_doc,
                                         fresh_memo):
    # every pair is asked in one warm document, whose table holds the pairs
    # solved before it, and again in a fresh one; on small games the brute
    # force must agree too
    rng = random.Random(13)
    asked = []
    for _ in range(25):
        text, names = random_cyclic_spec(rng)
        doc = parse_spec(text)
        frag = explore_fragment(doc, [t(doc, x) for x in names + ["zero"]])
        for _ in range(12):
            asked.append((doc, *rng.sample(frag.states, 2), {}))
    for doc in (pa_doc, examples_doc, loops_doc):
        for _ in range(30):
            u, v = (random_closed_term(rng, doc, rng.randint(1, 3))
                    for _ in range(2))
            asked.append((doc, u, v, {"max_states": 64}))
    rng.shuffle(asked)
    brute = 0
    for doc, u, v, budget in asked:
        warm = _outcome(doc, u, v, **budget)
        assert warm == _outcome(fresh_memo(doc), u, v, **budget)
        if isinstance(warm, str):
            continue
        frag = explore_fragment(doc, [u, v])
        if len(frag.states) > 12:
            continue
        deps, reaches = pair_dependencies(doc, frag, u, v)
        if sum(p in reaches[p] for p in deps) <= 2:  # a quick game
            assert warm == game_distance_bruteforce(doc, frag, u, v)
            brute += 1
    assert brute >= 250


def test_a_solved_class_pair_poses_no_transport(pa_doc, fresh_memo,
                                                monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_transport(*args)

    monkeypatch.setattr(metric, "solve_transport", counted)

    def transports(doc, n):
        calls.clear()
        bisim_distance(doc, _ipar_chain(doc, n, "pa0"),
                       _ipar_chain(doc, n, "pb0"))
        return len(calls)

    assert transports(fresh_memo(pa_doc), 2) == 44
    doc = fresh_memo(pa_doc)
    assert transports(doc, 3) == 131
    assert transports(doc, 3) == 0
    # the smaller chains' pairs all lie below the larger ones'
    assert transports(doc, 2) == 0


# -- classes by key: a composite state classified through its arguments ------

PERTURBED_LEAVES = ("ppref_a_9_1(pref_b(zero), zero)",
                    "ppref_a_5_5(pref_a(zero), zero)",
                    "ppref_a_9_1(zero, pref_a(zero))")


def _chain(doc, ops, leaves):
    text = leaves[0]
    for op, leaf in zip(ops, leaves[1:]):
        text = f"{op}({text}, {leaf})"
    return t(doc, text)


def test_a_warm_document_answers_chains_as_fresh_ones_do(pa_doc, fresh_memo):
    # par/parB/ipar chains over pa0, each against itself with one leaf
    # perturbed, and pairs of random recursive specifications, asked in
    # one warm document per specification in a shuffled order: the later
    # queries meet composite states whose arguments' classes are known,
    # and each answer must equal a fresh document's, and on small
    # fragments the brute-force game's
    rng = random.Random(41)
    pa = fresh_memo(pa_doc)
    asked = []
    for n in (1, 2):
        for ops in itertools.product(("par", "parB", "ipar"), repeat=n):
            for pos in range(n + 1):
                leaves = ["pa0"] * (n + 1)
                pair = [_chain(pa, ops, leaves)]
                for leaf in PERTURBED_LEAVES:
                    leaves[pos] = leaf
                    pair.append(_chain(pa, ops, leaves))
                asked += [(pa, pair[0], v) for v in pair[1:]]
                asked.append((pa, pair[1], pair[2]))
    for _ in range(15):
        text, names = random_cyclic_spec(rng)
        doc = parse_spec(text)
        terms = [t(doc, x) for x in names + ["zero"]]
        terms += [Apply("alt", (x, y)) for x in terms for y in terms]
        asked += [(doc, *rng.sample(terms, 2)) for _ in range(8)]
    rng.shuffle(asked)
    brute = {"pa": 0, "cyclic": 0}
    for doc, u, v in asked:
        warm = bisim_distance(doc, u, v)
        fresh = fresh_memo(doc)
        assert warm == bisim_distance(fresh, u, v)
        side = "pa" if doc is pa else "cyclic"
        if side == "pa" and brute["pa"] >= 6:  # a game on pa takes 0.3 s
            continue
        frag = explore_fragment(fresh, [u, v])
        if len(frag.states) <= (8 if side == "pa" else 12):
            deps, reaches = pair_dependencies(fresh, frag, u, v)
            if sum(p in reaches[p] for p in deps) <= 2:
                assert warm == game_distance_bruteforce(fresh, frag, u, v)
                brute[side] += 1
    assert brute["pa"] == 6 and brute["cyclic"] >= 60
    # states that took their class by key have no moves derived
    moves_of = pa.memo("transitions")
    assert sum(s not in moves_of for s in pa.memo("state classes")) >= 100


def test_a_state_is_classified_by_its_arguments_classes(pa_doc, fresh_memo):
    # alt(aa0, aa0) is bisimilar to aa0 but is another term: once
    # ipar(aa0, zero) has added its key, ipar(alt(aa0, aa0), zero) takes
    # its class without a move derived, and its distance is unchanged
    doc = fresh_memo(pa_doc)
    aa0, zero = t(doc, "aa0"), t(doc, "zero")
    twin = t(doc, "alt(aa0, aa0)")
    assert bisim_distance(doc, twin, aa0) == 0
    known, other = t(doc, "ipar(aa0, zero)"), t(doc, "ipar(pa0, zero)")
    value = bisim_distance(doc, known, other)
    class_of = doc.memo("state classes")
    assert doc.memo("classes by key")[("ipar", class_of[aa0],
                                       class_of[zero])] == class_of[known]
    decided = Apply("ipar", (twin, zero))
    # a walk refused after it has decided that state gives its class back
    tables = ("state classes", "classes by key", "class signatures",
              "class moves")
    before = {name: dict(doc.memo(name)) for name in tables}
    with pytest.raises(StateLimitExceeded):
        metric._classify(doc, [decided, _ipar_chain(doc, 3, "pb0")], 10)
    assert {name: dict(doc.memo(name)) for name in tables} == before
    assert bisim_distance(doc, decided, other) == value == F(1, 10)
    assert class_of[decided] == class_of[known]
    assert decided not in doc.memo("transitions")
    assert bisim_distance(fresh_memo(pa_doc), decided, other) == value


def test_a_state_that_reaches_a_cycle_gives_its_class_to_no_key(loops_doc,
                                                                fresh_memo):
    # ipar(loop_1_2, par(zero, zero)) has the operator and argument classes
    # of ipar(loop_1_2, zero), which reaches a cycle and so stands for
    # itself: the two are bisimilar, but each keeps a class of its own
    doc = fresh_memo(loops_doc)
    assert bisim_distance(doc, t(doc, "zero"), t(doc, "par(zero, zero)")) == 0
    u = t(doc, "ipar(loop_1_2, zero)")
    v = t(doc, "ipar(loop_1_2, par(zero, zero))")
    metric._classify(doc, [t(doc, "loop_1_2"), u])
    class_of = metric._classify(doc, [v])
    signatures = doc.memo("class signatures")
    assert u in signatures and v in signatures
    assert class_of[u] != class_of[v]
    assert bisim_distance(doc, u, v) == 0
