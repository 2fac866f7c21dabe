"""Test-only reference implementations and random generators.

The brute-force transport oracle here is deliberately naive: it enumerates
vertices of the transportation polytope via spanning trees of the complete
bipartite graph and evaluates the cost at each feasible vertex.  An optimal
basic feasible solution always exists for a bounded feasible LP, so the
minimum over feasible tree solutions equals the true optimum.  Exponential,
but exact, and entirely independent of the transport kernel under test.
For sizes it cannot reach, ``transport_lp`` solves the dense LP formulation
with the general simplex instead.

``distance_table`` is the independent reference for the distance engine:
plain Kleene iteration of the distance functional over every ordered state
pair of a complete fragment, sharing nothing with ``bisim_distance`` but
the transport solver.  On a cyclic fragment the iteration may only converge
in the limit; ``kleene_distance`` keeps its iterates as lower bounds, and
``game_distance_bruteforce`` gives the exact value on small cyclic
fragments by enumerating the strategies of the bisimulation game.

``fold_rule_reference`` is the reference for ``denotation.fold_rule``:
the per-premise chain of sums it replaced.

``jacobi_denotations`` is the reference for the denotation fixpoint: the
plain Jacobi iteration that steps every entry of ``tracked_entries`` on
every round, without widening, sharing only the step clauses with
``lfp_denotations``; ``document_flags`` reads the whole document's flags
off the fixpoint.
``UnsoundStep`` is the step clauses without the one copy that testing a
distribution argument costs; ``unsound_denotations`` runs
``lfp_denotations`` with it, so that tests can show that the bound this
leaves is unsound, and both Jacobi helpers take it as their ``context``.

``instantiate`` binds a rule target through ``terms.compile_target`` and
``terms.run_target``, as the rules fire; ``round_trip`` is its reference:
it embeds each premise distribution back into syntax, substitutes that
syntax into the rule target and evaluates the closed result node by node.
``fire_reference`` is the reference for one step of
``semantics.transitions``: it reads a term's rules afresh and evaluates
each target by ``round_trip``.

``tokenize_reference`` is the reference for ``frontend._tokenize``: the
lexer as a loop over the characters, with its own column count.
``validate_rule`` is the reference for the rule-format check the parser
makes where it reads a rule: a walk over the finished rule.
``convex_sum_reference`` is the reference for ``terms.convex_sum``: the
merging loop alone, without the path for distinct summands.

``mutate_spec`` and ``parse_outcome`` make the seeded spec mutations of
``golden/parse_outcomes.json`` and read what the parser makes of them.

The printers, ``is_closed``, ``assert_one_object`` and ``E_ZERO`` serve
the tests alone.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import pickle
import random
import warnings
from fractions import Fraction
from unittest import mock

from pgsos import denotation
from pgsos.denotation import (
    Denotations,
    _StepContext,
    canonical_rule,
    generic_application,
    lfp_denotations,
)
from pgsos.errors import SpecSyntaxError
from pgsos.frontend import _PUNCT, Rule, Token, Violation, parse_spec
from pgsos.graphs import strongly_connected_components
from pgsos.lp import Infeasible, simplex_min, solve_transport
from pgsos.multiplicity import (
    D_ZERO,
    INF,
    GenSet,
    Multiplicity,
    ProbMultiplicity,
    ProcessDistance,
    genset_equiv,
    m_scale,
    m_sum,
    mult,
    sup_approx,
    sup_is_exact,
    unit,
)
from pgsos.semantics import derive_transitions, transitions
from pgsos.terms import (
    Apply,
    ConvexSum,
    DistApply,
    DistVariable,
    FiniteDistribution,
    InstDirac,
    compile_target,
    convex_sum,
    format_term,
    free_vars,
    immediate_subterms,
    run_target,
    state_var,
    substitute,
)


# ---------------------------------------------------------------------------
# Test-only conveniences
# ---------------------------------------------------------------------------

E_ZERO = ProcessDistance(())


def is_closed(t) -> bool:
    return not free_vars(t)


def assert_one_object(build, value_hash):
    """``build()`` twice, a copy, a deep copy and a pickle round trip are
    one object, whose hash is ``value_hash``."""
    value = build()
    assert build() is value
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert pickle.loads(pickle.dumps(value)) is value
    assert hash(value) == value_hash


def print_rule(rule) -> str:
    lines = ["rule:"]
    for p in rule.pos:
        lines.append(f"  {p.source.name} --{p.action}--> {p.derivative.name}")
    for np in rule.neg:
        lines.append(f"  {np.source.name} -/{np.action}->")
    lines.append("  ---")
    head = rule.op
    if rule.sources:
        head += "(" + ", ".join(x.name for x in rule.sources) + ")"
    lines.append(f"  {head} --{rule.action}--> {format_term(rule.target)}")
    return "\n".join(lines)


def print_spec(doc) -> str:
    """Render a document in the concrete syntax so that parsing the output
    reproduces an equal document (templates are already expanded)."""
    chunks: list[str] = []
    if doc.signature.actions:
        chunks.append("actions " + ", ".join(doc.signature.actions) + ";")
    for name, acts in doc.sets:
        chunks.append(f"set {name} = {{{', '.join(acts)}}};")
    for op, arity in doc.signature.operators:
        chunks.append(f"op {op} : {arity};")
    parts = ["\n".join(chunks)] if chunks else []
    for rule in doc.rules:
        parts.append(print_rule(rule))
    tail = [f"term {name} = {format_term(term)};"
            for name, term in doc.abbreviations]
    if tail:
        parts.append("\n".join(tail))
    return "\n\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Brute-force minimum-cost transport
# ---------------------------------------------------------------------------

def _tree_flow(edges, supply, demand):
    """Unique flow on a spanning tree, or None if any edge goes negative.

    Nodes are ('L', i) / ('R', j); balances start at +supply / +demand and
    leaf-stripping determines every edge value.
    """
    balance = {("L", i): s for i, s in enumerate(supply)}
    balance.update({("R", j): d for j, d in enumerate(demand)})
    adj = {v: set() for v in balance}
    for (i, j) in edges:
        adj[("L", i)].add(("R", j))
        adj[("R", j)].add(("L", i))
    flow = {}
    pending = set(balance)
    while len(pending) > 1:
        leaf = next(v for v in pending if len(adj[v]) == 1)
        (other,) = adj[leaf]
        value = balance[leaf]
        if value < 0:
            return None
        i = leaf[1] if leaf[0] == "L" else other[1]
        j = other[1] if leaf[0] == "L" else leaf[1]
        flow[(i, j)] = value
        balance[other] -= value
        adj[other].discard(leaf)
        pending.discard(leaf)
    last = next(iter(pending))
    if balance[last] != 0:
        return None
    return flow


def _spanning_trees(m: int, n: int):
    """All spanning trees of K_{m,n} as edge sets, by filtering subsets."""
    edges = [(i, j) for i in range(m) for j in range(n)]
    size = m + n - 1
    for subset in itertools.combinations(edges, size):
        # acyclic + spanning == connected with |V|-1 edges touching all nodes
        parent = {("L", i): ("L", i) for i in range(m)}
        parent.update({("R", j): ("R", j) for j in range(n)})

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        ok = True
        for (i, j) in subset:
            a, b = find(("L", i)), find(("R", j))
            if a == b:
                ok = False
                break
            parent[a] = b
        if ok and len({find(v) for v in parent}) == 1:
            yield subset


def transport_bruteforce(cost, supply, demand) -> Fraction:
    """Exact minimum transport cost by enumerating polytope vertices."""
    m, n = len(supply), len(demand)
    assert sum(supply) == sum(demand)
    best = None
    for tree in _spanning_trees(m, n):
        flow = _tree_flow(tree, list(supply), list(demand))
        if flow is None:
            continue
        total = sum(q * cost[i][j] for (i, j), q in flow.items())
        if best is None or total < best:
            best = total
    assert best is not None, "every balanced instance has a feasible tree"
    return best


def transport_lp(cost, supply, demand) -> Fraction:
    """Exact minimum transport cost from the dense LP formulation: one
    variable per cell, one equality per marginal, solved by ``simplex_min``."""
    m, n = len(supply), len(demand)
    a_eq, b_eq = [], []
    for i in range(m):
        a_eq.append([Fraction(k // n == i) for k in range(m * n)])
        b_eq.append(supply[i])
    for j in range(n):
        a_eq.append([Fraction(k % n == j) for k in range(m * n)])
        b_eq.append(demand[j])
    flat = [cost[i][j] for i in range(m) for j in range(n)]
    value, _ = simplex_min(flat, a_eq, b_eq)
    return value


def lp_feasible(a_eq, b_eq, a_ub=(), b_ub=()) -> bool:
    """Does ``a_eq x = b_eq``, ``a_ub x <= b_ub`` admit some ``x >= 0``?"""
    n = len(a_eq[0]) if a_eq else (len(a_ub[0]) if a_ub else 0)
    try:
        simplex_min([Fraction(0)] * n, a_eq, b_eq, a_ub, b_ub)
        return True
    except Infeasible:
        return False


# ---------------------------------------------------------------------------
# Transitions and the all-pairs bisimulation distance by Kleene iteration
# ---------------------------------------------------------------------------

def enabled_actions(doc, t) -> tuple[str, ...]:
    """The actions a closed term can perform immediately, sorted."""
    return tuple(sorted({a for a, _ in derive_transitions(doc, t)}))


def distance_step(doc, fragment, d):
    """One application of the distance functional to the table ``d``, for
    every ordered pair of fragment states: per action, the Hausdorff
    distance of the two transition sets under the transport lifting of
    ``d``; the worst action counts.  No shortcuts: every pair of
    distributions goes through ``solve_transport``."""
    def lift(p1, p2):
        cost = [[d[(x, y)] for y, _ in p2] for x, _ in p1]
        value, _ = solve_transport(cost, [q for _, q in p1],
                                   [q for _, q in p2])
        return value

    def directed(set1, set2):
        # inf over the empty set is 1, sup over the empty set is 0
        return max((min((lift(p1, p2) for p2 in set2), default=Fraction(1))
                    for p1 in set1), default=Fraction(0))

    def pair(s, t):
        moves_s, moves_t = fragment.transitions[s], fragment.transitions[t]
        return max((max(directed(moves_s.get(a, ()), moves_t.get(a, ())),
                        directed(moves_t.get(a, ()), moves_s.get(a, ())))
                    for a in doc.actions), default=Fraction(0))

    return {(s, t): pair(s, t)
            for s in fragment.states for t in fragment.states}


def kleene_distance(doc, fragment, rounds):
    """The Kleene iterate of ``distance_step`` from the zero table after
    ``rounds`` steps (fewer once a step changes nothing): a lower bound of
    the distance on every pair, exact once it has stopped changing."""
    d = {(s, t): Fraction(0)
         for s in fragment.states for t in fragment.states}
    for _ in range(rounds):
        nxt = distance_step(doc, fragment, d)
        if nxt == d:
            break
        d = nxt
    return d


def distance_table(doc, fragment, max_iter=100):
    """Least fixed point of ``distance_step`` from the zero table, over a
    complete fragment, as ``{(s, t): distance}``."""
    d = kleene_distance(doc, fragment, max_iter)
    assert distance_step(doc, fragment, d) == d, (
        f"distance table still changing after {max_iter} steps")
    return d


def _moves(doc, fragment, s, t):
    """The challenges at the pair ``(s, t)``: each move of one side, with
    the other side's answers to it."""
    for a in doc.actions:
        for mine, theirs in ((s, t), (t, s)):
            for pi in fragment.transitions[mine].get(a, ()):
                yield list(pi), [list(pi2) for pi2
                                 in fragment.transitions[theirs].get(a, ())]


def _vertex_couplings(pi, pi2):
    """Every vertex of the transportation polytope of ``pi`` onto ``pi2``,
    as ``(x, y, mass)`` cells, from the spanning-tree enumeration."""
    supply, demand = [q for _, q in pi], [q for _, q in pi2]
    for tree in _spanning_trees(len(pi), len(pi2)):
        flow = _tree_flow(tree, supply, demand)
        if flow is not None:
            yield [(pi[i][0], pi2[j][0], m) for (i, j), m in flow.items() if m]


def _key(x, y):
    return frozenset((x, y))


def pair_dependencies(doc, fragment, t1, t2):
    """The pairs of distinct states that ``(t1, t2)`` depends on, as
    frozensets, each mapped to the pairs its transports compare
    (``deps``) and to those it reaches along them (``reaches``).  A pair
    lies on a cycle when it reaches itself."""
    deps = {}
    todo = [_key(t1, t2)]
    while todo:
        p = todo.pop()
        if p in deps or len(p) == 1:
            continue
        s, t = tuple(p)
        deps[p] = {_key(x, y) for pi, answers in _moves(doc, fragment, s, t)
                   for pi2 in answers for x, _ in pi for y, _ in pi2
                   if x != y}
        todo.extend(deps[p])
    reaches = {}
    for p in deps:
        seen, todo = set(), list(deps[p])
        while todo:
            q = todo.pop()
            if q not in seen:
                seen.add(q)
                todo.extend(deps[q])
        reaches[p] = seen
    return deps, reaches


def game_distance_bruteforce(doc, fragment, t1, t2):
    """The distance of ``t1`` and ``t2`` as the value of the bisimulation
    game, by enumerating positional strategies on the pairs that lie on a
    cycle of the pair-dependency graph (at most four of them).

    A pair on no cycle gets the functional's value from the pairs below it
    (transport by vertex enumeration).  On a cyclic component, with the
    pairs below fixed, every challenger policy (one challenge per pair) is
    met by every answerer policy (one answer and one vertex coupling per
    pair, or the cost 1 of no answer); each policy pair is a linear system
    whose least non-negative solution is found as the least pre-fixpoint by
    ``simplex_min``.  Positional strategies are optimal from every pair at
    once in such games, so the value is the pointwise max over challenger
    policies of the pointwise min over answerer policies.  Shares nothing
    with ``bisim_distance`` but the fragment."""
    deps, reaches = pair_dependencies(doc, fragment, t1, t2)
    cyclic = [p for p in deps if p in reaches[p]]
    if len(cyclic) > 4:
        raise ValueError(f"{len(cyclic)} pairs on cycles, more than 4")
    value = {}

    def get(x, y):
        return Fraction(0) if x == y else value[_key(x, y)]

    def solve(p):
        if p in value or len(p) == 1:
            return
        comp = [q for q in cyclic if q in reaches[p] and p in reaches[q]]
        for q in comp or [p]:
            for r in deps[q]:
                if r not in comp:
                    solve(r)
        if not comp:
            s, t = tuple(p)
            value[p] = max(
                (min((transport_bruteforce(
                    [[get(x, y) for y, _ in pi2] for x, _ in pi],
                    [q for _, q in pi], [q for _, q in pi2])
                      for pi2 in answers), default=Fraction(1))
                 for pi, answers in _moves(doc, fragment, s, t)),
                default=Fraction(0))
            return
        index = {q: i for i, q in enumerate(comp)}
        challenges = [list(_moves(doc, fragment, *tuple(q))) for q in comp]
        best = None
        for tau in itertools.product(*challenges):
            answers = [[(pi2, cells) for pi2 in their
                        for cells in _vertex_couplings(pi, pi2)] or [None]
                       for pi, their in tau]
            worst = None
            for sigma in itertools.product(*answers):
                x = _least_policy_solution(index, sigma, get)
                worst = x if worst is None else list(map(min, worst, x))
            best = worst if best is None else list(map(max, best, worst))
        value.update(zip(comp, best))

    solve(_key(t1, t2))
    return get(t1, t2)


def _least_policy_solution(index, sigma, get):
    """Least non-negative ``x`` with ``x >= C x + b`` for the couplings
    ``sigma`` (``None``: no answer, cost 1), by ``simplex_min`` on the sum
    of ``x``."""
    n = len(index)
    a_ub, b_ub = [], []
    for i, choice in enumerate(sigma):
        line = [Fraction(0)] * n
        line[i] = Fraction(-1)
        const = Fraction(1)
        if choice is not None:
            const = Fraction(0)
            for x, y, m in choice[1]:
                if x == y:
                    continue
                j = index.get(_key(x, y))
                if j is None:
                    const += m * get(x, y)
                else:
                    line[j] += m
        a_ub.append(line)
        b_ub.append(-const)
    _, x = simplex_min([Fraction(1)] * n, [], [], a_ub, b_ub)
    return x


def check_pseudometric(d, states):
    """Assert the 1-bounded pseudometric axioms exactly on the table ``d``."""
    for s in states:
        assert d[(s, s)] == 0, "self-distance must be 0"
        for t in states:
            assert 0 <= d[(s, t)] <= 1, "distances live in [0,1]"
            assert d[(s, t)] == d[(t, s)], "symmetry"
    for s in states:
        for t in states:
            for u in states:
                assert d[(s, t)] <= d[(s, u)] + d[(u, t)], "triangle inequality"


# ---------------------------------------------------------------------------
# The denotation fixpoint by plain Jacobi iteration
# ---------------------------------------------------------------------------

def subterms(t):
    """The distinct subterms of ``t``, ``t`` included, innermost first: each
    in the place of its first occurrence in a left-to-right post-order walk.
    Subterms form no cycle, so each component of their graph is one term."""
    return [u for u, in strongly_connected_components([t],
                                                      immediate_subterms)]


def tracked_entries(doc):
    """The entries of the whole document's fixpoint: the subterms of every
    canonical rule's target and of every operator's generic application,
    then the canonical rules.  Querying every generic application solves
    exactly these (see :func:`document_flags`)."""
    rules = [canonical_rule(r) for r in doc.rules]
    roots = [r.target for r in rules]
    roots += [generic_application(doc, op)[0]
              for op, _ in doc.signature.operators]
    return list(dict.fromkeys(u for t in roots for u in subterms(t))) + rules


def document_flags(den):
    """The flags of every operator's generic application together: the
    ``(widened, over_approximated)`` pair of the whole document."""
    flags = [den.flags(generic_application(den.doc, op)[0])
             for op, _ in den.doc.signature.operators]
    return any(w for w, _ in flags), any(o for _, o in flags)


class UnsoundStep(_StepContext):
    """The step clauses with an operator's distribution-level summary not
    raised by the sources its rules test: the unsound bound."""

    def rho_dist(self, op):
        rules = self.rules_by_op.get(op, ())
        gens = [p for r in rules for p in self.value[r]]
        if not sup_is_exact(gens):
            self.coarsened.add(op)
        return GenSet((sup_approx(gens),)) if rules else D_ZERO


def unsound_denotations(doc) -> Denotations:
    """``lfp_denotations(doc)`` computed and queried with
    :class:`UnsoundStep`, in a memo table of its own: the document's
    fixpoint is neither read nor replaced."""
    private = dataclasses.replace(doc)
    private.__dict__["_memo_tables"] = {}
    with mock.patch.object(denotation, "_StepContext", UnsoundStep):
        return lfp_denotations(private)


def jacobi_iterates(doc, context=_StepContext):
    """Plain Jacobi iteration of the joint step function, without
    widening: from the zero denotation, every entry of
    :func:`tracked_entries` is stepped from the previous iterate in every
    round, by the clauses of ``context`` (a ``_StepContext`` class).
    Yields ``(value, flag)`` after each round, ``flag`` telling whether a
    non-Dirac supremum was over-approximated in that round.  Bypasses the
    document's memo table."""
    entries = tracked_entries(doc)
    rules_by_op = {}
    for r in entries:
        if isinstance(r, Rule):
            rules_by_op[r.op] = rules_by_op.get(r.op, ()) + (r,)
    value = dict.fromkeys(entries, D_ZERO)
    while True:
        ctx = context(doc, rules_by_op, value)
        value = {e: ctx.step(e) for e in entries}
        yield value, bool(ctx.coarsened)


def jacobi_denotations(doc, max_iterations=300, context=_StepContext):
    """The joint least fixed point by :func:`jacobi_iterates`, stopping
    when a round leaves every entry equivalent, as ``(value,
    over_approximated)``; raises :class:`AssertionError` after
    ``max_iterations`` rounds."""
    value, over_approx = {}, False
    for n, (value2, flag) in enumerate(jacobi_iterates(doc, context),
                                       start=1):
        over_approx = over_approx or flag
        settled = (value2.keys() == value.keys()
                   and all(genset_equiv(gs, value[e])
                           for e, gs in value2.items()))
        value = value2
        if settled:
            return value, over_approx
        if n == max_iterations:
            raise AssertionError(
                f"denotations still changing after {n} rounds")


def fold_rule_reference(p: ProbMultiplicity, rule: Rule) -> ProbMultiplicity:
    """``denotation.fold_rule`` as a chain of ``unit``, ``m_scale`` and
    ``m_sum`` per premise of every draw, the distribution built again."""
    def raise_one(m: Multiplicity) -> Multiplicity:
        acc = m
        for prem in rule.pos:
            acc = m_sum(acc, m_scale(m.get(prem.derivative),
                                     unit(prem.source)))
        return acc

    return ProbMultiplicity.from_pairs((raise_one(m), q) for m, q in p)


def random_cyclic_spec(rng: random.Random) -> tuple[str, list[str]]:
    """A small recursive specification over one action and its constants
    ``s0``, ``s1`` (and maybe ``s2``): each has one or two moves, each a
    point mass, a two-point probabilistic choice or a point mass on an
    ``alt`` choice, over the constants, ``zero`` and itself.  Returns the
    text and the constants' names."""
    names = [f"s{i}" for i in range(rng.randint(2, 3))]
    lines = ["actions a;", "op zero : 0;", "op alt : 2;"]
    lines += [f"op {x} : 0;" for x in names]
    lines += ["rule forall c in ACT:", "  x1 --c--> m1", "  ---",
              "  alt(x1, x2) --c--> m1",
              "rule forall c in ACT:", "  x2 --c--> m2", "  ---",
              "  alt(x1, x2) --c--> m2"]
    for x in names:
        for _ in range(rng.randint(1, 2)):
            y = rng.choice(names + ["zero", x])
            z = rng.choice(names + ["zero"])
            kind = rng.choice(["point", "choice", "choice", "alt"])
            if kind == "alt":
                target = f"delta(alt({y}, {z}))"
            elif kind == "point" or y == z:
                target = f"delta({y})"
            else:
                w = Fraction(rng.randint(1, 4), 5)
                target = f"{w}*delta({y}) + {1 - w}*delta({z})"
            lines += ["rule:", "  ---", f"  {x} --a--> {target}"]
    return "\n".join(lines) + "\n", names


def dup_spec(k: int) -> str:
    """A specification on which no operator is on a cycle: ``dup`` copies
    its argument's derivative ``k`` times through nested ``alt``; ``dd``
    feeds ``dup``'s copies to ``d3``, which copies three times, so its
    counts multiply to ``3 * k``."""
    def copies(n):
        target = "m1"
        for _ in range(n - 1):
            target = f"alt(m1, {target})"
        return target

    return f"""actions a;
op zero : 0;
op alt : 2;
op dup : 1;
op d3 : 1;
op dd : 1;
rule forall c in ACT:
  x1 --c--> m1
  ---
  alt(x1, x2) --c--> m1
rule forall c in ACT:
  x2 --c--> m2
  ---
  alt(x1, x2) --c--> m2
rule:
  x1 --a--> m1
  ---
  dup(x1) --a--> {copies(k)}
rule:
  x1 --a--> m1
  ---
  d3(x1) --a--> {copies(3)}
rule forall c in ACT:
  x1 --c--> m1
  ---
  dd(x1) --c--> d3(dup(m1))
"""


# ---------------------------------------------------------------------------
# Rule targets through syntax
# ---------------------------------------------------------------------------

def embed(pi):
    """The distribution term denoting exactly ``pi``."""
    if len(pi) == 1:
        return InstDirac(pi.support()[0])
    return convex_sum((q, InstDirac(t)) for t, q in pi)


def eval_closed(theta):
    """The distribution of a closed distribution term, built and validated
    at every node."""
    if isinstance(theta, DistVariable):
        raise ValueError(f"distribution term is not closed: {theta.name}")
    if isinstance(theta, InstDirac):
        return FiniteDistribution.dirac(theta.term)
    if isinstance(theta, ConvexSum):
        return FiniteDistribution.from_pairs(
            (t, q * r) for part, q in theta for t, r in eval_closed(part))
    assert isinstance(theta, DistApply)
    combos = [((), Fraction(1))]
    for dist in [eval_closed(a) for a in theta.args]:
        combos = [(prefix + (t,), q * r) for prefix, q in combos
                  for t, r in dist]
    return FiniteDistribution.from_pairs(
        (Apply(theta.op, prefix), q) for prefix, q in combos)


def instantiate(theta, states, dists):
    """The distribution ``theta`` denotes with its state variables bound
    by ``states`` and its distribution variables by ``dists``, through the
    compiled target the rules fire: ``delta(t)`` is the point mass at
    ``t`` instantiated, sums mix pointwise, and ``f(th_1, ..., th_n)`` puts
    mass ``prod_i pi_i(t_i)`` on ``f(t_1, ..., t_n)``.  A state reached
    twice is merged where it first occurs.  Raises :class:`ValueError` on
    an unbound distribution variable."""
    return run_target(compile_target(theta, tuple(states), tuple(dists)),
                      tuple(states.values()), tuple(dists.values()))


def round_trip(theta, states, dists):
    """``theta`` with ``states`` and the embedded ``dists`` substituted,
    then evaluated: what ``instantiate(theta, states, dists)`` computes."""
    sigma = dict(states)
    sigma.update((x, embed(pi)) for x, pi in dists.items())
    return eval_closed(substitute(theta, sigma))


def fire_reference(doc, t):
    """The moves of the closed term ``t``, per action in name order, each
    distinct distribution once in derivation order: the rules for ``t.op``
    read afresh, premises checked against the arguments' moves, and each
    target evaluated by ``round_trip``."""
    arg_moves = [transitions(doc, arg) for arg in t.args]
    out = {}
    for rule in doc.rules_for(t.op):
        moves = dict(zip(rule.sources, arg_moves))
        if any(n.action in moves[n.source] for n in rule.neg):
            continue
        choices = [moves[p.source].get(p.action, ()) for p in rule.pos]
        states = dict(zip(rule.sources, t.args))
        for combo in itertools.product(*choices):
            dists = dict(zip(rule.derivatives(), combo))
            out.setdefault(rule.action, {})[
                round_trip(rule.target, states, dists)] = None
    return {a: tuple(out[a]) for a in sorted(out)}


# ---------------------------------------------------------------------------
# The lexer, one character at a time
# ---------------------------------------------------------------------------

def tokenize_reference(text: str) -> list[Token]:
    """The tokens of ``text``, read one character at a time."""
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == "-":
            dashes = 0
            while i < n and text[i] == "-":
                dashes += 1
                i += 1
                col += 1
            if dashes >= 3:
                toks.append(Token("sep", "-" * dashes, line, start_col))
            elif dashes == 2:
                if i < n and text[i] == ">":
                    i += 1
                    col += 1
                    toks.append(Token("arrow", "-->", line, start_col))
                else:
                    toks.append(Token("dash2", "--", line, start_col))
            else:
                if i < n and text[i] == "/":
                    i += 1
                    col += 1
                    toks.append(Token("negdash", "-/", line, start_col))
                elif i < n and text[i] == ">":
                    i += 1
                    col += 1
                    toks.append(Token("rarrow", "->", line, start_col))
                else:
                    raise SpecSyntaxError("stray '-'", line, start_col)
            continue
        if ch.isdecimal():  # the digits int and Fraction read
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdecimal():
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            toks.append(Token("number", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise SpecSyntaxError(f"unexpected character {ch!r}", line, start_col)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# The rule format and convex sums, checked and built the long way
# ---------------------------------------------------------------------------

def validate_rule(rule: Rule) -> list[Violation]:
    """The violations of the rule format by ``rule``; an empty list means
    the rule is admissible.

    The constraints: derivative variables pairwise distinct, source
    variables pairwise distinct, premises only test source variables, and
    every free variable of the target is a source or a derivative.
    """
    out: list[Violation] = []
    if len(set(rule.sources)) != len(rule.sources):
        out.append(Violation("DuplicateSource",
                             f"rule for {rule.op}: source variables repeat"))
    derivs = rule.derivatives()
    if len(set(derivs)) != len(derivs):
        out.append(Violation("DuplicateDerivative",
                             f"rule for {rule.op}: derivative variables repeat"))
    sources = set(rule.sources)
    for prem_source in [p.source for p in rule.pos] + [n.source for n in rule.neg]:
        if prem_source not in sources:
            out.append(Violation(
                "ForeignPremiseSource",
                f"rule for {rule.op}: premise tests {prem_source.name}, "
                f"not a source variable"))
    allowed = sources | set(derivs)
    foreign = sorted(x.name for x in free_vars(rule.target) if x not in allowed)
    if foreign:
        out.append(Violation(
            "ForeignTargetVariable",
            f"rule for {rule.op}: target mentions {', '.join(foreign)}"))
    return out


def convex_sum_reference(parts):
    """``terms.convex_sum`` by its merging loop: nested sums flattened and
    equal summands merged, each where it first occurs."""
    merged = {}
    for q, theta in parts:
        q = Fraction(q)
        for inner, r in (theta.entries if isinstance(theta, ConvexSum)
                         else ((theta, 1),)):
            merged[inner] = merged.get(inner, Fraction(0)) + q * r
    if len(merged) == 1:
        [(theta, q)] = merged.items()
        if q != 1:
            raise ValueError(f"convex weights sum to {q}, expected 1")
        return theta
    return ConvexSum(tuple(merged.items()))


# ---------------------------------------------------------------------------
# Seeded mutations of specification texts
# ---------------------------------------------------------------------------

MUTATION_CHARS = " \t\r\n#-/>.;,(){}=:|&\\+*_0aé²\f"
MUTATION_WORDS = ("actions", "set", "op", "term", "rule", "forall", "in",
                  "ACT", "delta", "zero", "x1", "m1", "---", "-->", "--",
                  "-/", "->", "1/2*", "0.5", "9/0", "{}", "# note\n")


def mutate_spec(rng: random.Random, text: str) -> str:
    """``text`` after one to three random edits, each one of: a character
    inserted, one to three characters deleted, a run of up to twelve
    characters copied elsewhere, or a keyword, arrow or number inserted."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(4)
        if edit == 0:
            text = text[:i] + rng.choice(MUTATION_CHARS) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + rng.randint(1, 3):]
        elif edit == 2:
            j = rng.randrange(len(text) + 1)
            text = text[:i] + text[j:j + rng.randint(1, 12)] + text[i:]
        else:
            text = text[:i] + rng.choice(MUTATION_WORDS) + text[i:]
    return text


def parse_outcome(text: str) -> dict:
    """What ``parse_spec`` makes of ``text``: the error's class and
    message, or the rule count and a digest of the printed document."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            doc = parse_spec(text)
    except Exception as err:
        return {"error": type(err).__name__, "message": str(err)}
    printed = print_spec(doc).encode("utf-8")
    return {"rules": len(doc.rules),
            "print_sha256": hashlib.sha256(printed).hexdigest()}


# ---------------------------------------------------------------------------
# Random domain elements
# ---------------------------------------------------------------------------

VARS = tuple(state_var(n) for n in ("x", "y", "z"))


def random_fraction(rng: random.Random, den: int = 12) -> Fraction:
    d = rng.randint(1, den)
    return Fraction(rng.randint(0, d), d)


def random_multiplicity(rng: random.Random, inf_ok: bool = True) -> Multiplicity:
    entries = {}
    for x in VARS:
        roll = rng.random()
        if roll < 0.45:
            continue
        if inf_ok and roll > 0.92:
            entries[x] = INF
        else:
            entries[x] = rng.randint(1, 3)
    return mult(entries)


def random_prob_multiplicity(rng: random.Random, *, inf_ok: bool = True,
                             max_support: int = 3) -> ProbMultiplicity:
    k = rng.randint(1, max_support)
    supp = []
    while len(supp) < k:
        m = random_multiplicity(rng, inf_ok)
        if m not in supp:
            supp.append(m)
    cuts = sorted(rng.randint(1, 24) for _ in range(len(supp) - 1))
    weights = []
    prev = 0
    for c in cuts:
        weights.append(Fraction(c - prev, 24))
        prev = c
    weights.append(Fraction(24 - prev, 24))
    pairs = [(m, q) for m, q in zip(supp, weights) if q > 0]
    return ProbMultiplicity.from_pairs(pairs)


def shrink_multiplicity(rng: random.Random, m: Multiplicity) -> Multiplicity:
    """A pointwise smaller-or-equal multiplicity (possibly equal)."""
    entries = {}
    for x, n in m.entries:
        if n is INF:
            entries[x] = INF if rng.random() < 0.6 else rng.randint(0, 4)
        else:
            entries[x] = rng.randint(0, int(n))
        if entries[x] == 0:
            del entries[x]
    return mult(entries)


def degrade(rng: random.Random, p2: ProbMultiplicity) -> ProbMultiplicity:
    """A probabilistic multiplicity below ``p2`` by construction.

    Each column mass of ``p2`` is split over pointwise-smaller
    multiplicities, which witnesses the ordering with the obvious coupling.
    """
    pairs = []
    for m2, q2 in p2:
        parts = rng.randint(1, 2)
        if parts == 1 or q2.numerator == 1:
            pairs.append((shrink_multiplicity(rng, m2), q2))
        else:
            half = q2 / 2
            pairs.append((shrink_multiplicity(rng, m2), half))
            pairs.append((shrink_multiplicity(rng, m2), q2 - half))
    merged: dict[Multiplicity, Fraction] = {}
    for m, q in pairs:
        merged[m] = merged.get(m, Fraction(0)) + q
    return ProbMultiplicity.from_pairs(merged.items())


def degraded_pair(rng: random.Random) -> tuple[ProbMultiplicity, ProbMultiplicity]:
    """A pair ``(p1, p2)`` true by construction for the probabilistic order."""
    p2 = random_prob_multiplicity(rng)
    return degrade(rng, p2), p2


def random_distance(rng: random.Random, den: int = 10):
    """A process distance on the shared variable pool, values in [0, 1)."""
    from pgsos.multiplicity import process_distance
    return process_distance({x: Fraction(rng.randint(0, den - 1), den)
                             for x in VARS})
