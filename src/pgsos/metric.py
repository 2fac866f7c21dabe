"""Bisimulation distance between two closed terms, computed exactly.

The distance between two states is the least fixed point of the functional
that lifts a state distance to distributions via optimal transport
(Kantorovich) and to transition sets via the Hausdorff construction, taking
the worst case over actions.  :func:`bisim_distance` computes it on the fly,
only on the pairs the root pair depends on, and over bisimulation classes
rather than states: the distance is 0 exactly on bisimilar states and sees a
distribution only through the mass it puts on each class, so the same fixed
point solved on the quotient of the explored fragment gives the same value.
Everything is rational: the transport problems are solved exactly by
:func:`pgsos.lp.solve_transport`.

When the pairs depend on one another in a cycle, the chain of iterates may
never stabilise (each step can peel off another factor of a loop
probability); exact mode then reports failure rather than returning a
near-answer, and iterate mode documents its result as a lower bound of the
true distance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import NoConvergence, PairLimitExceeded
from .frontend import SpecDocument
from .lp import solve_transport
from .semantics import (ROOTS_CLOSED, ReachableFragment, check_closed,
                        explore_fragment)
from .terms import FiniteDistribution, StateTerm, term_key


def hausdorff(values: Callable[[FiniteDistribution, FiniteDistribution], Fraction],
              set1: Sequence[FiniteDistribution],
              set2: Sequence[FiniteDistribution]) -> Fraction:
    """Hausdorff lifting of a distance on distributions to finite sets,
    with the conventions ``inf {} = 1`` and ``sup {} = 0`` so that a move
    one side cannot answer at all costs the full distance 1."""
    def directed(a: Sequence[FiniteDistribution],
                 b: Sequence[FiniteDistribution]) -> Fraction:
        worst = Fraction(0)  # sup over the empty set
        for pi in a:
            best = Fraction(1)  # inf over the empty set
            for pi2 in b:
                v = values(pi, pi2)
                if v < best:
                    best = v
                if best == 0:
                    break
            if best > worst:
                worst = best
        return worst

    return max(directed(set1, set2), directed(set2, set1))


def _pair_key(t1: StateTerm, t2: StateTerm) -> tuple[StateTerm, StateTerm]:
    return (t1, t2) if term_key(t1) <= term_key(t2) else (t2, t1)


def _classify(doc: SpecDocument,
              fragment: ReachableFragment) -> dict[StateTerm, int]:
    """Give every state of a fragment its bisimulation class id.

    The states are walked bottom-up (depth-first post-order, on an explicit
    stack).  A state's class is the interned signature that lists, per
    action in ``transitions`` order, the set of its distributions lifted to
    ``{class id: mass}``; states with equal signatures are bisimilar.  A
    state that can reach a cycle has no bottom-up signature: it stands for
    itself (its signature key is the state), which is exact but merges
    nothing.  Signatures depend on the specification alone, so both tables
    live in the document's memo and a later query classifies only the
    states no earlier one has seen."""
    class_of = doc.memo("state classes")
    signatures = doc.memo("class signatures")
    on_path: set[StateTerm] = set()
    reaches_cycle: set[StateTerm] = set()

    def successors(s: StateTerm):
        for pis in fragment.transitions[s].values():
            for pi in pis:
                yield from pi.support()

    for start in fragment.states:
        if start in class_of:
            continue
        stack = [(start, successors(start))]
        on_path.add(start)
        while stack:
            s, todo = stack[-1]
            for x in todo:
                if x in on_path:
                    reaches_cycle.add(s)
                elif x not in class_of:
                    stack.append((x, successors(x)))
                    on_path.add(x)
                    break
                elif x in signatures:  # x stands for itself: it is cyclic
                    reaches_cycle.add(s)
            else:
                stack.pop()
                on_path.discard(s)
                if s in reaches_cycle:
                    key = s
                    if stack:
                        reaches_cycle.add(stack[-1][0])
                else:
                    key = tuple(
                        (a, frozenset(frozenset(_lift(class_of, pi).items())
                                      for pi in pis))
                        for a, pis in fragment.transitions[s].items())
                class_of[s] = signatures.setdefault(key, len(signatures))
    return class_of


def _lift(class_of: dict[StateTerm, int],
          pi: FiniteDistribution) -> dict[int, Fraction]:
    """The mass ``pi`` puts on each class."""
    mass: dict[int, Fraction] = {}
    for x, q in pi:
        c = class_of[x]
        mass[c] = mass[c] + q if c in mass else q
    return mass


def bisim_distance(doc: SpecDocument, t1: StateTerm, t2: StateTerm, *,
                   max_states: int | None = None,
                   mode: str = "exact",
                   max_iter: int = 1000,
                   max_pairs: int | None = None) -> Fraction:
    """Distance between two closed terms over their joint reachable fragment.

    The distance is 0 exactly on bisimilar states and depends on a
    distribution only through the mass it puts on each bisimulation class,
    so the fixed point is solved on the quotient: each class of the
    fragment is represented by its first state in ``fragment.states``
    order, with its distributions mapped onto representatives, and two
    roots in one class are at distance 0 without further work.  States
    that can reach a cycle are classes of their own.

    The fixed point is solved only on the pairs of classes the root pair
    transitively depends on — the supports of compared transition
    distributions — which is far smaller than all pairs of a product state
    space.  ``max_pairs`` optionally bounds that dependency system, counted
    in pairs of classes; exceeding it raises :class:`PairLimitExceeded`.
    An acyclic dependency system is settled in one pass in topological
    order.  A cyclic one is iterated from zero over all its pairs:
    ``exact`` mode returns once two consecutive iterates are equal and
    raises :class:`NoConvergence` if that does not happen within
    ``max_iter`` steps; ``iterate`` mode returns the root's value after at
    most ``max_iter`` steps, a lower bound of the distance.
    """
    if mode not in ("exact", "iterate"):
        raise ValueError(f"unknown mode {mode!r}")
    if t1 == t2:
        check_closed(doc, t1, ROOTS_CLOSED)
        return Fraction(0)
    kwargs = {} if max_states is None else {"max_states": max_states}
    fragment = explore_fragment(doc, [t1, t2], **kwargs)

    class_of = _classify(doc, fragment)
    if class_of[t1] == class_of[t2]:
        return Fraction(0)
    # ``rep`` maps each state merged into an earlier one to its class's first
    first: dict[int, StateTerm] = {}
    rep: dict[StateTerm, StateTerm] = {}
    for s in fragment.states:
        r = first.setdefault(class_of[s], s)
        if r is not s:
            rep[s] = r
    t1, t2 = rep.get(t1, t1), rep.get(t2, t2)

    def onto(pi: FiniteDistribution) -> FiniteDistribution:
        if not any(x in rep for x, _ in pi):
            return pi
        return FiniteDistribution.from_pairs((rep.get(x, x), q) for x, q in pi)

    # A representative's moves are mapped onto representatives, dropping
    # distributions that become equal, when first asked for; when no two
    # states merge, the fragment's own are used.
    quotient = {} if rep else fragment.transitions

    def der(u: StateTerm, a: str) -> tuple[FiniteDistribution, ...]:
        moves = quotient.get(u)
        if moves is None:
            moves = quotient[u] = {
                b: tuple(dict.fromkeys(map(onto, pis)))
                for b, pis in fragment.transitions[u].items()}
        return moves.get(a, ())

    root = _pair_key(t1, t2)
    deps: dict[tuple[StateTerm, StateTerm],
               frozenset[tuple[StateTerm, StateTerm]]] = {}
    todo = [root]
    while todo:
        pair = todo.pop()
        if pair in deps:
            continue
        if max_pairs is not None and len(deps) >= max_pairs:
            raise PairLimitExceeded(
                f"distance depends on more than {max_pairs} state pairs")
        u, v = pair
        below: set[tuple[StateTerm, StateTerm]] = set()
        for a in doc.actions:
            for pu in der(u, a):
                for pv in der(v, a):
                    if pu == pv:
                        continue
                    for x in pu.support():
                        for y in pv.support():
                            if x != y:
                                below.add(_pair_key(x, y))
        deps[pair] = frozenset(below)
        todo.extend(k for k in below if k not in deps)

    memo: dict[tuple[StateTerm, StateTerm], Fraction] = {}
    kcache: dict[tuple[FiniteDistribution, FiniteDistribution],
                 Fraction] = {}

    def getd(x: StateTerm, y: StateTerm) -> Fraction:
        return Fraction(0) if x == y else memo[_pair_key(x, y)]

    def kv(pu: FiniteDistribution, pv: FiniteDistribution) -> Fraction:
        """Transport optimum of ``pu`` onto ``pv`` under the current
        distances; a shortcut decides it when the two are equal (identity
        coupling) or one side is a point mass (product coupling)."""
        hit = kcache.get((pu, pv))
        if hit is not None:
            return hit
        if pu == pv:
            value = Fraction(0)
        elif len(pu) == 1:
            ((x, _),) = pu
            value = sum((q * getd(x, y) for y, q in pv), Fraction(0))
        elif len(pv) == 1:
            ((y, _),) = pv
            value = sum((q * getd(x, y) for x, q in pu), Fraction(0))
        else:
            value, _ = solve_transport(
                [[getd(x, y) for y, _ in pv] for x, _ in pu],
                [q for _, q in pu], [q for _, q in pv])
        kcache[(pu, pv)] = kcache[(pv, pu)] = value
        return value

    def settle(pair: tuple[StateTerm, StateTerm]) -> Fraction:
        u, v = pair
        value = Fraction(0)
        for a in doc.actions:
            h = hausdorff(kv, der(u, a), der(v, a))
            if h > value:
                value = h
            if value == 1:
                break
        return value

    # On an acyclic dependency graph each pair's fixed-point value follows
    # from the values strictly below it, so one pass in topological order
    # suffices.  Only genuinely cyclic specifications need iteration.
    remaining = {pair: {k for k in below if k != pair}
                 for pair, below in deps.items()}
    users: dict[tuple[StateTerm, StateTerm],
                list[tuple[StateTerm, StateTerm]]] = {}
    for pair, below in remaining.items():
        for k in below:
            users.setdefault(k, []).append(pair)
    ready = [pair for pair, below in remaining.items()
             if not below and pair not in deps[pair]]
    while ready:
        pair = ready.pop()
        memo[pair] = settle(pair)
        for parent in users.get(pair, ()):
            blockers = remaining[parent]
            blockers.discard(pair)
            if not blockers and parent not in memo \
                    and parent not in deps[parent]:
                ready.append(parent)
    if root in memo:
        return memo[root]

    # Cyclic case: global iteration from the zero table over all pairs.
    d: dict[tuple[StateTerm, StateTerm], Fraction] = {
        k: Fraction(0) for k in deps}
    for step in range(1, max_iter + 1):
        memo = d
        kcache = {}
        nxt = {pair: settle(pair) for pair in deps}
        if nxt == d:
            return d[root]
        d = nxt
    if mode == "exact":
        raise NoConvergence(
            f"distance still changing after {max_iter} iterations; "
            f"rerun in iterate mode for a lower bound", max_iter)
    return d[root]
