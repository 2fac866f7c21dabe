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

Pairs that depend on one another in a cycle are solved one cyclic
component at a time, exactly: a policy of the bisimulation game read off a
Jacobi step gives a linear system, whose least solution is solved by
exact elimination and returned only once it is certified to be the least
fixed point (Bacci, Bacci, Larsen & Mardare, TACAS 2013, for the
probabilistic case; Fu, ICALP 2012, for the nondeterministic one).  A
round budget bounds that search: past it, exact mode refuses and iterate
mode returns a lower bound of the true distance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import NoConvergence, PairLimitExceeded
from .frontend import SpecDocument
from .graphs import strongly_connected_components
from .lp import solve_transport
from .semantics import (ROOTS_CLOSED, ReachableFragment, check_closed,
                        explore_fragment)
from .terms import FiniteDistribution, StateTerm


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


def _classify(doc: SpecDocument,
              fragment: ReachableFragment) -> dict[StateTerm, int]:
    """Give every state of a fragment its bisimulation class id.

    The states are walked bottom-up (depth-first post-order, on an explicit
    stack).  A state's class is the interned signature that lists, per
    action in name order, the set of its distributions lifted to
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
    fragment is represented by its first state in breadth-first order
    (``fragment.states``), with its distributions mapped onto
    representatives, and two roots in one class are at distance 0 without
    further work.  States that can reach a cycle are classes of their own.
    A pair of representatives is kept with the one explored first on the
    left, so no order the solver sees depends on the hash seed.

    The fixed point is solved only on the pairs of classes the root pair
    transitively depends on — the supports of compared transition
    distributions — which is far smaller than all pairs of a product state
    space.  ``max_pairs`` optionally bounds that dependency system, counted
    in pairs of classes; exceeding it raises :class:`PairLimitExceeded`.
    The strongly connected components of that system are solved inputs
    first.  A pair on no cycle is settled once from the pairs below it.  A
    cyclic component ``C`` is solved with its inputs fixed, in rounds, for
    the least fixed point ``lfp`` of the functional ``F`` on ``C``.  Each
    round takes one Jacobi step from the last iterate, the Kleene chain
    from zero, which stays below ``lfp``; a step that changes nothing has
    reached ``lfp``.  The step also gives a policy: per pair, a challenge
    (action, side and distribution) attaining the Hausdorff max, its
    cheapest answer and their optimal coupling, each kept from the last
    round while it still attains the optimum (the rule of Hoffman and
    Karp's strategy iteration).  Whenever the policy's linear system
    differs from the last one solved, its least non-negative solution
    ``L`` is a candidate, returned only when

    (i) one sweep of ``F`` reproduces ``L`` on every pair of ``C``, so
        ``L`` is a fixed point and ``L >= lfp``; and
    (ii) no non-empty set ``X`` of pairs with ``L > 0`` is *self-closed*:
        at every ``p`` in ``X``, every ``L``-optimal challenge has an
        ``L``-optimal answer whose ``L``-optimal coupling is supported on
        ``X``.

    Check (ii) gives ``L <= lfp``.  Were ``L - lfp`` largest, at ``delta >
    0``, on the set ``X``, then at ``p`` in ``X`` take an ``L``-optimal
    challenge and its ``lfp``-optimal answer and coupling ``w``: under
    ``L`` that coupling costs at most ``lfp(p) + delta``, with equality
    only if all of ``w`` lies on ``X``, and it costs at least ``L(p) =
    lfp(p) + delta``; so ``X`` would be self-closed.  Conversely a
    self-closed ``X`` makes ``F(L - e*1_X) <= L - e*1_X`` for a small ``e >
    0``, so ``L`` is not the least fixed point, and the check refuses no
    correct candidate.  It starts from all pairs with ``L > 0`` and drops
    a pair while some ``L``-optimal challenge there has no answer whose
    transport, at cost ``L`` on ``X`` and 2 on every other pair (the
    diagonal and the settled pairs included), still comes to ``L(p)``.

    ``max_iter`` bounds the rounds per cyclic component.  When they run
    out, ``exact`` mode raises :class:`NoConvergence`; ``iterate`` mode
    keeps the last Jacobi iterate, so its answer is a lower bound of the
    distance.
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
    position = {s: i for i, s in enumerate(fragment.states)}

    def pair_key(x: StateTerm, y: StateTerm) -> tuple[StateTerm, StateTerm]:
        """A pair oriented by the states' places in the fragment."""
        return (x, y) if position[x] <= position[y] else (y, x)

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

    root = pair_key(t1, t2)
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
                                below.add(pair_key(x, y))
        deps[pair] = frozenset(below)
        todo.extend(k for k in below if k not in deps)

    memo: dict[tuple[StateTerm, StateTerm], Fraction] = {}
    kcache: dict[tuple[FiniteDistribution, FiniteDistribution],
                 Fraction] = {}

    def getd(x: StateTerm, y: StateTerm) -> Fraction:
        return Fraction(0) if x == y else memo[pair_key(x, y)]

    def transport(pu: FiniteDistribution, pv: FiniteDistribution,
                  ) -> tuple[Fraction, list[tuple[StateTerm, StateTerm,
                                                  Fraction]]]:
        """Transport optimum of ``pu`` onto ``pv`` under ``memo``, with an
        optimal coupling as ``(x, y, mass)`` cells: the identity coupling
        when the two are equal, the product coupling when one side is a
        point mass, else the plan of ``solve_transport``."""
        if pu == pv:
            return Fraction(0), [(x, x, q) for x, q in pu]
        if len(pu) == 1 or len(pv) == 1:
            if len(pu) == 1:
                ((x, _),) = pu
                cells = [(x, y, q) for y, q in pv]
            else:
                ((y, _),) = pv
                cells = [(x, y, q) for x, q in pu]
            return sum((m * getd(x, y) for x, y, m in cells),
                       Fraction(0)), cells
        value, plan = solve_transport(
            [[getd(x, y) for y, _ in pv] for x, _ in pu],
            [q for _, q in pu], [q for _, q in pv])
        return value, [(x, y, m) for (x, _), row in zip(pu, plan)
                       for (y, _), m in zip(pv, row) if m]

    def kv(pu: FiniteDistribution, pv: FiniteDistribution) -> Fraction:
        """``transport``'s optimum, cached for the acyclic pass."""
        hit = kcache.get((pu, pv))
        if hit is None:
            hit = kcache[(pu, pv)] = kcache[(pv, pu)] = transport(pu, pv)[0]
        return hit

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

    def challenges(pair: tuple[StateTerm, StateTerm]):
        """Each move one side of ``pair`` can make, with the other side's
        answers to it: ``(distribution, answers)``."""
        u, v = pair
        for a in doc.actions:
            du, dv = der(u, a), der(v, a)
            for pi in du:
                yield pi, dv
            for pi in dv:
                yield pi, du

    def step(pair: tuple[StateTerm, StateTerm], keep=None):
        """``settle`` at ``pair`` with a policy that attains it: ``(value,
        (challenge, answer), coupling)``, the indices of a challenge that
        attains the max and of its cheapest answer, and that answer's
        coupling (``None`` when there is no answer, at cost 1).  A choice
        of ``keep``, the policy of the last round, is kept wherever it
        still attains the optimum, so the policy changes only where that
        strictly gains, as in Hoffman and Karp's strategy iteration."""
        old, old_cells = (None, None) if keep is None else keep[1:]
        best = (Fraction(0), None, [])
        for i, (pi, answers) in enumerate(challenges(pair)):
            top = (Fraction(1), (i, None), None)
            for j, pi2 in enumerate(answers):
                k, cells = transport(pi, pi2)
                if (i, j) == old and k == sum(
                        (m * getd(x, y) for x, y, m in old_cells), Fraction(0)):
                    cells = old_cells
                if (top[2] is None or k < top[0]
                        or k == top[0] and (i, j) == old):
                    top = (k, (i, j), cells)
            if (best[1] is None or top[0] > best[0]
                    or top[0] == best[0] and old and i == old[0]):
                best = top
        return best

    def close(comp: list[tuple[StateTerm, StateTerm]]) -> None:
        """Solve one cyclic component into ``memo``, where its inputs are
        settled: Jacobi rounds, policy solves and the two checks above."""
        inside = set(comp)

        def row(cells) -> tuple[dict, Fraction]:
            """The linear equation of a coupling: the mass it puts on each
            pair of the component, and the cost of the rest as a constant."""
            if cells is None:
                return {}, Fraction(1)
            coeffs: dict[tuple[StateTerm, StateTerm], Fraction] = {}
            const = Fraction(0)
            for x, y, m in cells:
                if x != y:
                    k = pair_key(x, y)
                    if k in inside:
                        coeffs[k] = coeffs.get(k, Fraction(0)) + m
                    else:
                        const += m * memo[k]
            return coeffs, const

        def certified(values) -> bool:
            memo.update(values)
            optimal = {}
            for p in comp:
                worth = [(min((transport(pi, pi2)[0] for pi2 in answers),
                              default=Fraction(1)), pi, answers)
                         for pi, answers in challenges(p)]
                if max((k for k, _, _ in worth),
                       default=Fraction(0)) != values[p]:
                    return False  # not a fixed point: check (i)
                if values[p] > 0:
                    optimal[p] = [(pi, answers) for k, pi, answers in worth
                                  if k == values[p]]
            # check (ii): shrink to the largest self-closed set
            closed = set(optimal)
            shrinking = True
            while closed and shrinking:
                shrinking = False
                for p in list(closed):
                    if not all(any(_transport_on(pair_key, closed, values,
                                                 pi, pi2) == values[p]
                                   for pi2 in answers)
                               for pi, answers in optimal[p]):
                        closed.discard(p)
                        shrinking = True
            return not closed

        values = {p: Fraction(0) for p in comp}
        policy: dict = {}
        solved = None
        for _ in range(max_iter):
            memo.update(values)
            policy = {p: step(p, policy.get(p)) for p in comp}
            lower = {p: k for p, (k, _, _) in policy.items()}
            if lower == values:
                return  # a Kleene iterate from zero that is a fixed point
            rows = {p: row(cells) for p, (_, _, cells) in policy.items()}
            if rows != solved:
                solved = rows
                candidate = _least_solution(rows)
                if certified(candidate):
                    memo.update(candidate)
                    return
            values = lower
        memo.update(values)
        if mode == "exact":
            raise NoConvergence(
                f"distances on a cycle of {_count(len(comp), 'state pair')} "
                f"still uncertified after {_count(max_iter, 'round')} "
                f"(--max-iter {max_iter}); rerun in iterate mode for a "
                f"lower bound")

    for comp in strongly_connected_components([root], deps.__getitem__):
        if len(comp) == 1 and comp[0] not in deps[comp[0]]:
            memo[comp[0]] = settle(comp[0])
        else:
            close(comp)
    return memo[root]


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def _transport_on(pair_key, closed, values, pi: FiniteDistribution,
                  pi2: FiniteDistribution) -> Fraction:
    """Transport of ``pi`` onto ``pi2`` at cost ``values`` on the pairs of
    ``closed`` and 2 on every other pair, the diagonal included: it equals
    the transport under ``values`` exactly when some optimal coupling puts
    all its mass on ``closed``."""
    two = Fraction(2)
    cost = [[values[k] if (k := pair_key(x, y)) in closed else two
             for y, _ in pi2] for x, _ in pi]
    return solve_transport(cost, [q for _, q in pi], [q for _, q in pi2])[0]


def _least_solution(rows):
    """Least non-negative solution of ``x[p] = sum(c * x[q]) + b``, one
    equation ``({q: c}, b)`` per ``p``, the coefficients of each adding up
    to at most 1.  A pair that cannot reach a positive constant along
    positive coefficients gets 0.  On the others the matrix ``I - C`` is
    non-singular (from each of them mass leaks out of the system), so they
    are solved exactly by Gauss-Jordan elimination."""
    users: dict = {p: [] for p in rows}
    for p, (coeffs, _) in rows.items():
        for q in coeffs:
            users[q].append(p)
    live = {p for p, (_, b) in rows.items() if b > 0}
    todo = list(live)
    while todo:
        for p in users[todo.pop()]:
            if p not in live:
                live.add(p)
                todo.append(p)
    order = [p for p in rows if p in live]
    index = {p: i for i, p in enumerate(order)}
    n = len(order)
    matrix = []
    for i, p in enumerate(order):
        coeffs, b = rows[p]
        line = [Fraction(0)] * (n + 1)
        line[i] = Fraction(1)
        for q, c in coeffs.items():
            if q in index:
                line[index[q]] -= c
        line[n] = b
        matrix.append(line)
    for col in range(n):
        pivot = next(r for r in range(col, n) if matrix[r][col])
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        head = matrix[col]
        lead = head[col]
        if lead != 1:
            head[:] = [e / lead for e in head]
        for r in range(n):
            factor = matrix[r][col]
            if r != col and factor:
                matrix[r] = [e - factor * h for e, h in zip(matrix[r], head)]
    return {p: matrix[index[p]][n] if p in index else Fraction(0)
            for p in rows}
