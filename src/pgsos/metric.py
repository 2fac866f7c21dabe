"""Bisimulation distance between two closed terms, computed exactly.

The distance between two states is the least fixed point of the functional
that lifts a state distance to distributions via optimal transport
(Kantorovich) and to transition sets via the Hausdorff construction, taking
the worst case over actions.  :func:`bisim_distance` computes it on the fly,
only on the pairs the root pair depends on, and over bisimulation classes
rather than states: the distance is 0 exactly on bisimilar states and sees a
distribution only through the mass it puts on each class, so the same fixed
point solved on the quotient of the explored fragment gives the same value.
The classes are found one strongly connected component of the fragment's
support graph at a time: a state that reaches a cycle is a class of its
own, any other gets a bottom-up signature.  Everything is rational: the
transport problems are solved exactly by :func:`pgsos.lp.solve_transport`.

Pairs that depend on one another in a cycle are solved one cyclic
component at a time, exactly, as a game: strategy iteration for the
challenger, each strategy answered by policy iteration over exactly
solved linear systems, ends at the least fixed point (Bacci, Bacci,
Larsen & Mardare, TACAS 2013, for exact distances by couplings; Fu,
ICALP 2012, for the nondeterministic case).  Only the state and pair
budgets refuse a distance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import PairLimitExceeded
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

    The states no earlier query has classified are walked one strongly
    connected component of the support graph at a time, each after every
    component it reaches.  A component's states stand for themselves
    (their signature key is the state), which is exact but merges
    nothing, when it has two or more states, when its one state has a
    move into its own support, or when a successor already stands for
    itself: these are the states that reach a cycle.  Any other state's
    class is the interned signature that lists, per action in name order,
    the set of its distributions lifted to ``{class id: mass}``; states
    with equal signatures are bisimilar.  Signatures depend on the
    specification alone, so both tables live in the document's memo, and
    the walk neither starts from nor enters a classified state: a later
    query pays only for the states no earlier one has seen."""
    class_of = doc.memo("state classes")
    signatures = doc.memo("class signatures")

    def support(s: StateTerm) -> list[StateTerm]:
        return [x for pis in fragment.transitions[s].values()
                for pi in pis for x, _ in pi]

    def unclassified(s: StateTerm) -> list[StateTerm]:
        return [x for x in support(s) if x not in class_of]

    for comp in strongly_connected_components(
            [s for s in fragment.states if s not in class_of], unclassified):
        s = comp[0]
        if len(comp) > 1 or any(x == s or x in signatures
                                for x in support(s)):
            for s in comp:
                class_of[s] = signatures.setdefault(s, len(signatures))
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
    cyclic component is solved exactly with its inputs fixed, by strategy
    iteration for the challenger of the bisimulation game, which ends at
    the least fixed point after finitely many strategies (see ``close``).
    No budget bounds that search, so the answer is always exact.
    """
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

    deps: dict[tuple[StateTerm, StateTerm],
               set[tuple[StateTerm, StateTerm]]] = {}

    def below(pair: tuple[StateTerm, StateTerm]):
        """The pairs ``pair`` depends on, kept in ``deps``: the supports of
        the distributions it compares."""
        if max_pairs is not None and len(deps) >= max_pairs:
            raise PairLimitExceeded(
                f"distance depends on more than {max_pairs} state pairs")
        u, v = pair
        out = deps[pair] = set()
        for a in doc.actions:
            for pu in der(u, a):
                for pv in der(v, a):
                    if pu == pv:
                        continue
                    for x in pu.support():
                        for y in pv.support():
                            if x != y:
                                out.add(pair_key(x, y))
        return out

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

    def cheapest(pi: FiniteDistribution, answers, floor: Fraction):
        """The cheapest answer to ``pi`` under ``memo``, as ``(cost,
        coupling)``: cost 1 and no coupling when there is none.  It stops
        at the first answer that costs at most ``floor``."""
        best = (Fraction(1), None)
        for pi2 in answers:
            k, cells = transport(pi, pi2)
            if best[1] is None or k < best[0]:
                best = (k, cells)
            if k <= floor:
                break
        return best

    def close(comp: list[tuple[StateTerm, StateTerm]]) -> None:
        """Solve one cyclic component ``C`` into ``memo``, where its
        inputs are settled, for the least fixed point ``lfp`` of the
        functional ``F`` on ``C``, by strategy iteration for the
        challenger (Condon, *The complexity of stochastic games*, 1992).

        A challenger strategy ``sigma`` picks one challenge per pair: an
        action, a side and that side's distribution.  The first attains
        ``settle`` with ``C`` at 0.  ``F_sigma`` is ``F`` with every
        challenge fixed to ``sigma``'s, and ``v_sigma`` its least fixed
        point, the value of ``sigma``.  Each round answers ``sigma``
        exactly, then improves it.

        *Answer.*  The zero set ``Z`` of ``v_sigma`` is the largest set of
        pairs where ``sigma``'s challenge has an answer with a coupling
        supported on the diagonal, ``Z`` and the settled pairs at 0.  It
        is found by removal; each test is one transport at cost 0 on
        those cells and 1 elsewhere, which comes to 0 exactly when such a
        coupling exists.  On the rest ``R`` every answerer policy leaves
        ``R`` with probability 1: a set that some policy kept closed would
        have value 0, so it would lie in ``Z``.  Each policy's linear
        system therefore has one solution, and policy iteration from any
        couplings finds ``v_sigma``: a pair switches its answer and
        coupling only where a transport under the new values is strictly
        cheaper, so the values strictly fall, and every coupling taken is
        a vertex of its transport polytope, of which there are finitely
        many.

        *Improve.*  A pair switches its challenge only where one costs
        strictly more than ``v_sigma(p)`` under ``v_sigma``.  If none
        does, ``v_sigma`` is a fixed point of ``F``, so ``v_sigma >=
        lfp``; and ``v_sigma = lfp F_sigma <= lfp F``.  So it is ``lfp``.
        If ``sigma'`` switches somewhere, let ``x = P x + b`` be the system
        of ``sigma'`` and the answerer's best response to it, so that
        ``v_sigma' = P v_sigma' + b`` and ``v_sigma <= F_sigma'(v_sigma)
        <= P v_sigma + b``.  Then ``e = v_sigma - v_sigma'`` has ``e <= P^n
        e`` for every ``n``, and ``e <= 0`` once ``v_sigma = 0`` on every
        recurrent class ``K`` of ``P``, where ``v_sigma' = 0``.  On the
        set of ``K`` where ``v_sigma`` is largest every inequality above
        is an equality, so it holds no switched pair and is closed under
        ``sigma`` and that answer; ``v_sigma`` with that set at 0 is then
        a pre-fixed point of ``F_sigma``, so ``v_sigma`` is 0 there.  At a
        switched pair ``v_sigma'(p) = F_sigma'(v_sigma')(p) >=
        F_sigma'(v_sigma)(p) > v_sigma(p)``.  So the values strictly
        rise, no strategy repeats, and there are finitely many."""
        inside = set(comp)
        moves = {p: list(challenges(p)) for p in comp}
        sigma: dict[tuple[StateTerm, StateTerm], int] = {}
        plans: dict = {}  # per pair, its challenge's coupling or None

        def improve(p, floor: Fraction) -> bool:
            """Switch ``p`` to the challenge whose cheapest answer costs
            most, where that is strictly above ``floor``."""
            best = None
            for i, (pi, answers) in enumerate(moves[p]):
                if i != sigma.get(p):
                    k, cells = cheapest(pi, answers, floor)
                    if k > floor and (best is None or k > best[0]):
                        best = (k, i, cells)
            if best is not None:
                _, sigma[p], plans[p] = best
            return best is not None

        def free(pi, pi2) -> bool:
            """Some coupling of ``pi`` onto ``pi2`` keeps to the diagonal,
            the pairs of ``zero`` and the settled pairs at 0."""
            if pi == pi2:
                return True
            cost = [[Fraction(0) if x == y or (k := pair_key(x, y)) in zero
                     or k not in inside and not memo[k] else Fraction(1)
                     for y, _ in pi2] for x, _ in pi]
            return not solve_transport(
                cost, [q for _, q in pi], [q for _, q in pi2])[0]

        def row(cells) -> tuple[dict, Fraction]:
            """The linear equation of a coupling: the mass it puts on each
            pair of ``rest``, and the cost of the rest as a constant."""
            if cells is None:
                return {}, Fraction(1)
            coeffs: dict[tuple[StateTerm, StateTerm], Fraction] = {}
            const = Fraction(0)
            for x, y, m in cells:
                if x != y:
                    k = pair_key(x, y)
                    if k in rest:
                        coeffs[k] = coeffs.get(k, Fraction(0)) + m
                    else:
                        const += m * memo[k]
            return coeffs, const

        memo.update(dict.fromkeys(comp, Fraction(0)))
        for p in comp:
            improve(p, Fraction(-1))  # the challenge attaining ``settle``
        zero = set(comp)
        while True:
            # The answerer's best response to ``sigma``.  ``zero`` only
            # shrinks as the values grow, so it starts from the last one.
            shrinking = True
            while shrinking:
                shrinking = False
                for p in comp:
                    pi, answers = moves[p][sigma[p]]
                    if p in zero and not any(free(pi, pi2)
                                             for pi2 in answers):
                        zero.discard(p)
                        shrinking = True
            memo.update(dict.fromkeys(zero, Fraction(0)))
            rest = dict.fromkeys(p for p in comp if p not in zero)
            improved = True
            while improved:
                memo.update(_solve({p: row(plans[p]) for p in rest}))
                improved = False
                for p in rest:
                    pi, answers = moves[p][sigma[p]]
                    k, cells = cheapest(pi, answers, Fraction(-1))
                    if k < memo[p]:
                        plans[p] = cells
                        improved = True
            switched = [p for p in comp if improve(p, memo[p])]
            if not switched:
                return

    root = pair_key(t1, t2)
    # every pair is found before any is solved, so the budget refuses
    # before any transport is posed
    for comp in strongly_connected_components([root], below):
        if len(comp) == 1 and comp[0] not in deps[comp[0]]:
            memo[comp[0]] = settle(comp[0])
        else:
            close(comp)
    return memo[root]


def _solve(rows):
    """The solution of ``x[p] = sum(c * x[q]) + b``, one equation ``({q: c},
    b)`` per ``p``, where ``I - C`` is non-singular, by exact Gauss-Jordan
    elimination."""
    order = list(rows)
    index = {p: i for i, p in enumerate(order)}
    n = len(order)
    matrix = []
    for i, p in enumerate(order):
        coeffs, b = rows[p]
        line = [Fraction(0)] * (n + 1)
        line[i] = Fraction(1)
        for q, c in coeffs.items():
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
    return {p: matrix[i][n] for i, p in enumerate(order)}
