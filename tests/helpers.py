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
the transport solver.

``jacobi_denotations`` is the reference for the denotation fixpoint: the
plain Jacobi iteration that steps every tracked entry on every iteration,
widening included, sharing only the step clauses with ``lfp_denotations``.

The printers, ``is_closed`` and ``E_ZERO`` serve the tests alone.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from pgsos.denotation import (
    Denotations,
    FixpointConfig,
    _measure,
    _StepContext,
    _widen,
    canonical_rule,
    generic_application,
    subterms,
)
from pgsos.errors import IterationLimitExceeded
from pgsos.lp import Infeasible, simplex_min, solve_transport
from pgsos.multiplicity import (
    D_ZERO,
    INF,
    Multiplicity,
    ProbMultiplicity,
    ProcessDistance,
    ext_leq,
    genset_equiv,
    mult,
)
from pgsos.semantics import derive_transitions
from pgsos.terms import format_term, free_vars, state_var


# ---------------------------------------------------------------------------
# Test-only conveniences
# ---------------------------------------------------------------------------

E_ZERO = ProcessDistance(())


def is_closed(t) -> bool:
    return not free_vars(t)


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
        return max((max(directed(fragment.der(s, a), fragment.der(t, a)),
                        directed(fragment.der(t, a), fragment.der(s, a)))
                    for a in doc.actions), default=Fraction(0))

    return {(s, t): pair(s, t)
            for s in fragment.states for t in fragment.states}


def distance_table(doc, fragment, max_iter=100):
    """Least fixed point of ``distance_step`` from the zero table, over a
    complete fragment, as ``{(s, t): distance}``."""
    d = {(s, t): Fraction(0)
         for s in fragment.states for t in fragment.states}
    for _ in range(max_iter):
        nxt = distance_step(doc, fragment, d)
        if nxt == d:
            return d
        d = nxt
    raise AssertionError(f"distance table still changing after {max_iter} steps")


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

def jacobi_denotations(doc, config=FixpointConfig(), *,
                       reactive_testing=True) -> Denotations:
    """The joint least fixed point of the term and rule clauses, stepping
    every tracked entry on every iteration from the previous iterate, with
    the same per-entry widening and stop test as ``lfp_denotations``.
    Bypasses the document's memo table."""
    rules = tuple(canonical_rule(r) for r in doc.rules)
    rules_by_op = {}
    for r in rules:
        rules_by_op[r.op] = rules_by_op.get(r.op, ()) + (r,)
    tracked = []
    seen = set()
    roots = [r.target for r in rules]
    roots += [generic_application(doc, op)[0]
              for op, _ in doc.signature.operators]
    for root in roots:
        for sub in subterms(root):
            if sub not in seen:
                seen.add(sub)
                tracked.append(sub)

    tau = {t: D_ZERO for t in tracked}
    rho = {r: D_ZERO for r in rules}
    growth, measures, forced = {}, {}, {}
    over_approx = False
    widened_vars = set()

    def apply_widening(key, gs):
        prev = measures.get(key, {})
        measure = _measure(gs)
        for x, v in measure.items():
            if not ext_leq(v, prev.get(x, Fraction(0))):
                count = growth.get((key, x), 0) + 1
                growth[(key, x)] = count
                if count >= config.widening_window:
                    forced.setdefault(key, set()).add(x)
                    widened_vars.add(x)
        widen = forced.get(key, ())
        for x in widen:
            gs = _widen(gs, x)
        measures[key] = _measure(gs) if widen else measure
        return gs

    for iterations in range(1, config.max_iterations + 1):
        ctx = _StepContext(doc, rules_by_op, rho, reactive_testing,
                           tau.__getitem__)
        tau2 = {t: apply_widening(t, ctx.term_step(t)) for t in tracked}
        rho2 = {r: apply_widening(r, ctx.rule_step(r)) for r in rules}
        over_approx = over_approx or ctx.over_approximated
        if tau2 == tau and rho2 == rho:
            break
        if (all(genset_equiv(tau2[t], tau[t]) for t in tracked)
                and all(genset_equiv(rho2[r], rho[r]) for r in rules)):
            tau, rho = tau2, rho2
            break
        tau, rho = tau2, rho2
    else:
        raise IterationLimitExceeded(
            f"denotations still changing after {config.max_iterations} "
            f"iterations (widening window {config.widening_window})")
    return Denotations(doc, config, reactive_testing, tau, rho, rules_by_op,
                       iterations, frozenset(widened_vars), over_approx)


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
