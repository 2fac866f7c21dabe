"""Bisimulation distance between two closed terms, computed exactly.

The distance between two states is the least fixed point of the functional
that lifts a state distance to distributions via optimal transport
(Kantorovich) and to transition sets via the Hausdorff construction, taking
the worst case over actions.  :func:`bisim_distance` computes it on the fly,
only on the pairs the root pair depends on, and over bisimulation classes
rather than states: the distance is 0 exactly on bisimilar states and sees a
distribution only through the mass it puts on each class, so the same fixed
point solved over class ids, with each class's moves lifted to masses on
class ids, gives the same value.  The classes are found one strongly
connected component of the fragment's support graph at a time: a state
that reaches a cycle is a class of its own, any other gets a bottom-up
signature.  Bisimilarity is a congruence for the rule format, so a
composite state whose operator and argument classes were met before takes
that class without its moves derived.  Everything is rational: the
transport problems are solved exactly by :func:`pgsos.lp.solve_transport`.

Pairs that depend on one another in a cycle are solved one cyclic
component at a time, exactly, as a game: strategy iteration for the
challenger, each strategy answered by policy iteration over exactly
solved linear systems, ends at the least fixed point (Bacci, Bacci,
Larsen & Mardare, TACAS 2013, for exact distances by couplings; Fu,
ICALP 2012, for the nondeterministic case).  Only the state and pair
budgets refuse a distance.  Each class pair solved is kept for the
document, so no later query on it solves that pair again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import PairLimitExceeded, StateLimitExceeded
from .frontend import SpecDocument
from .graphs import strongly_connected_components
from .lp import solve_transport
from .semantics import (DEFAULT_MAX_STATES, ROOTS_CLOSED, check_closed,
                        transitions)
from .terms import Distribution, FiniteDistribution, StateTerm


def hausdorff(values: Callable[[Distribution, Distribution], Fraction],
              set1: Sequence[Distribution],
              set2: Sequence[Distribution]) -> Fraction:
    """Hausdorff lifting of a distance on distributions to finite sets,
    with the conventions ``inf {} = 1`` and ``sup {} = 0`` so that a move
    one side cannot answer at all costs the full distance 1."""
    def directed(a: Sequence[Distribution],
                 b: Sequence[Distribution]) -> Fraction:
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


class _ClassMasses(Distribution):
    """A move lifted to classes: the mass it puts on each class id."""

    __slots__ = ("entries",)
    entries: tuple[tuple[int, Fraction], ...]


Pair = tuple[int, int]  # two class ids, the smaller first
# a class's moves: per action it enables, in name order, its distinct moves
Moves = tuple[tuple[str, tuple[_ClassMasses, ...]], ...]


def _classify(doc: SpecDocument, roots: Sequence[StateTerm],
              max_states: int = DEFAULT_MAX_STATES) -> dict[StateTerm, int]:
    """Give every state reachable from ``roots`` its bisimulation class id.

    One walk from the roots visits only the states no earlier query has
    classified, the roots among them checked to be closed: a classified
    state is a leaf, as its successors are classified too.  More than
    ``max_states`` states to visit raise :class:`StateLimitExceeded`, and
    leave every table as it was.  The states visited are classified one
    strongly connected component of the support graph at a time, each
    after every component it reaches.  A component's states stand for
    themselves (their signature key is the state), which is exact but
    merges nothing, when it has two or more states, when its one state has
    a move into its own support, or when a successor already stands for
    itself: these are the states that reach a cycle.  Any other state's
    class is its interned signature, which lists per action it enables, in
    name order, its moves lifted to class ids, each once, ordered by their
    sorted entries and so by no hash; states with equal signatures are
    bisimilar.  That signature is the class's moves: the ``"class moves"``
    table holds the key object itself, and for a class that stands for
    itself, its state's moves lifted the same way.

    A composite state ``f(t1, ..., tn)`` is first looked up by its key
    ``(f, class(t1), ..., class(tn))`` in ``"classes by key"``: found, it
    takes that class as one state visited, with no move derived and no
    successor walked.  An argument with no class, whose moves are known
    and whose successors have classes, gets one by a lifting, never by a
    derivation.  After the walk every classified composite state that does
    not stand for itself adds its key, if its arguments have classes.
    Bisimilarity is a congruence for the PGSOS format (Bartels, PhD thesis,
    2004; D'Argenio & Lee, FoSSaCS 2012), which the parser enforces:
    sources and derivatives distinct, premises only on sources, no other
    variable in the target.  Only bisimilar states share a class id, so
    equal keys mean bisimilar states; the solver reads a class only through
    ``"class moves"``, and distances depend only on the bisimulation class.
    A state bisimilar to one that stands for itself reaches a cycle too, so
    such a state adds no key.  Signatures and keys depend on the
    specification alone, so the tables live in the document's memo, and a
    later query pays only for states no earlier one saw."""
    class_of = doc.memo("state classes")
    fresh = [r for r in dict.fromkeys(roots) if r not in class_of]
    if not fresh:
        return class_of
    signatures = doc.memo("class signatures")
    class_moves = doc.memo("class moves")
    by_key = doc.memo("classes by key")
    moves_of = doc.memo("transitions")
    for r in fresh:
        check_closed(doc, r, ROOTS_CLOSED)
    if len(fresh) > max_states:
        raise StateLimitExceeded(
            f"{len(fresh)} roots already exceed max_states={max_states}")
    reached = set(fresh)  # counted when found, before their moves are derived
    given: list[StateTerm] = []  # classified during the walk, undone if refused

    def key(s: StateTerm) -> tuple | None:
        """``(s.op, class of each argument)``, or None while an argument
        has no class and cannot get one by lifting its known moves."""
        out = [s.op]
        for x in s.args:
            c = class_of.get(x)
            if c is None and x in moves_of and all(
                    y in class_of for pis in moves_of[x].values()
                    for pi in pis for y, _ in pi):
                c = signatures.get(lifted(x))  # None for a new class
                if c is not None:
                    class_of[x] = c
                    given.append(x)
            if c is None:
                return None
            out.append(c)
        return tuple(out)

    def unclassified(s: StateTerm) -> list[StateTerm]:
        if s.args and (c := by_key.get(key(s))) is not None:
            class_of[s] = c
            given.append(s)
            return []
        out = [x for pis in transitions(doc, s).values() for pi in pis
               for x, _ in pi if x not in class_of]
        reached.update(out)
        if len(reached) > max_states:
            raise StateLimitExceeded(
                f"more than max_states={max_states} reachable states")
        return out

    def lift(pi: FiniteDistribution) -> _ClassMasses:
        """The mass ``pi`` puts on each class."""
        mass: dict[int, Fraction] = {}
        for x, q in pi:
            c = class_of[x]
            mass[c] = mass[c] + q if c in mass else q
        return _ClassMasses(tuple(mass.items()))

    def lifted(s: StateTerm) -> Moves:
        return tuple((a, tuple(sorted(set(map(lift, pis)),
                                      key=lambda pi: sorted(pi.entries))))
                     for a, pis in moves_of[s].items())

    try:
        comps = strongly_connected_components(fresh, unclassified)
    except StateLimitExceeded:
        for s in given:
            del class_of[s]
        raise
    for comp in comps:
        s = comp[0]
        if s in class_of:  # by key or by lifting, during the walk
            continue
        if len(comp) > 1 or any(x == s or x in signatures
                                for pis in moves_of[s].values()
                                for pi in pis for x, _ in pi):
            for s in comp:
                class_of[s] = signatures.setdefault(s, len(signatures))
            for s in comp:
                class_moves[class_of[s]] = lifted(s)
        else:
            moves = lifted(s)
            class_of[s] = signatures.setdefault(moves, len(signatures))
            class_moves.setdefault(class_of[s], moves)
    for comp in comps:
        for s in comp:
            if s.args and s not in signatures and (k := key(s)) is not None:
                by_key.setdefault(k, class_of[s])
    return class_of


def bisim_distance(doc: SpecDocument, t1: StateTerm, t2: StateTerm, *,
                   max_states: int = DEFAULT_MAX_STATES,
                   max_pairs: int | None = None) -> Fraction:
    """Distance between two closed terms, solved over bisimulation classes.

    The distance is 0 exactly on bisimilar states and depends on a
    distribution only through the mass it puts on each bisimulation class,
    so the fixed point is solved over class ids: the states the roots
    reach are classified, two roots in one class are at distance 0 without
    further work, and the solver reads each class's moves, lifted to class
    ids, from the document's ``"class moves"`` table, where they are the
    class's interned signature.  It walks a pair one action at a time, and
    only the actions one of its classes enables: an action neither enables
    adds no challenge and Hausdorff distance 0, so it is skipped.  States
    that can reach a cycle are classes of their own.  A pair of classes is
    kept with the smaller id first; ids are given in an order that follows
    the walk from the roots, so no order the solver sees depends on the
    hash seed.

    The fixed point is solved only on the pairs of classes the root pair
    transitively depends on — the supports of compared transition
    distributions — which is far smaller than all pairs of a product state
    space.  The strongly connected components of that system are solved
    inputs first.  A pair on no cycle is settled once from the pairs below
    it.  A cyclic component is solved exactly with its inputs fixed, by
    strategy iteration for the challenger of the bisimulation game, which
    ends at the least fixed point after finitely many strategies (see
    ``close``).  No budget bounds that search, so the answer is always
    exact.

    Solved pairs go into the document's ``"class distances"`` table, under
    the same key, once ``settle`` or ``close`` (which tries values on the
    way) is done with their component.  A pair found there has that value
    and no pairs below it.  This is exact: components are solved inputs
    first, so the stored set is closed downward, and fixing its pairs at
    their exact values leaves the least fixed point of the rest unchanged.
    Class ids are document-wide and never given again, and a state that
    reaches a cycle is a class of its own, so cyclic pairs are stored too.

    Two budgets refuse a distance.  ``max_states`` bounds the states this
    query has to classify, a state an earlier query classified counting as
    none and one classified by its key as one with no successors, so for a
    fresh document it bounds the joint reachable fragment;
    exceeding it raises :class:`StateLimitExceeded`.  ``max_pairs``
    optionally bounds the class pairs this query walks, a stored pair
    counting as one and its cone as none; exceeding it raises
    :class:`PairLimitExceeded` before any transport is posed.
    """
    if t1 == t2:
        check_closed(doc, t1, ROOTS_CLOSED)
        return Fraction(0)
    class_of = _classify(doc, [t1, t2], max_states)
    c1, c2 = class_of[t1], class_of[t2]
    if c1 == c2:
        return Fraction(0)
    table = doc.memo("class distances")
    root = (c1, c2) if c1 < c2 else (c2, c1)
    if root in table and (max_pairs is None or max_pairs >= 1):
        return table[root]
    class_moves = doc.memo("class moves")

    def enabled(pair: Pair):
        """``(moves of u, moves of v)`` per action ``u`` or ``v`` enables,
        ``()`` on a side that does not, where ``pair`` is ``(u, v)``."""
        u, v = pair
        rest = dict(class_moves[v])
        for a, du in class_moves[u]:
            yield du, rest.pop(a, ())
        for dv in rest.values():
            yield (), dv

    def pair_key(x: int, y: int) -> Pair:
        return (x, y) if x < y else (y, x)

    deps: dict[Pair, set[Pair]] = {}
    memo: dict[Pair, Fraction] = {}

    def below(pair: Pair) -> set[Pair]:
        """The pairs ``pair`` depends on, kept in ``deps``: the supports of
        the distributions it compares, or none if it is solved."""
        if max_pairs is not None and len(deps) >= max_pairs:
            raise PairLimitExceeded(
                f"distance depends on more than {max_pairs} class pairs")
        out = deps[pair] = set()
        known = table.get(pair)
        if known is not None:
            memo[pair] = known
            return out
        for du, dv in enabled(pair):
            for pu in du:
                for pv in dv:
                    if pu == pv:
                        continue
                    for x in pu.support():
                        for y in pv.support():
                            if x != y:
                                out.add(pair_key(x, y))
        return out

    kcache: dict[tuple[_ClassMasses, _ClassMasses], Fraction] = {}

    def getd(x: int, y: int) -> Fraction:
        return Fraction(0) if x == y else memo[pair_key(x, y)]

    def transport(pu: _ClassMasses, pv: _ClassMasses,
                  ) -> tuple[Fraction, list[tuple[int, int, Fraction]]]:
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

    def kv(pu: _ClassMasses, pv: _ClassMasses) -> Fraction:
        """``transport``'s optimum, cached for the acyclic pass."""
        hit = kcache.get((pu, pv))
        if hit is None:
            hit = kcache[(pu, pv)] = kcache[(pv, pu)] = transport(pu, pv)[0]
        return hit

    def settle(pair: Pair) -> Fraction:
        value = Fraction(0)
        for du, dv in enabled(pair):
            h = hausdorff(kv, du, dv)
            if h > value:
                value = h
            if value == 1:
                break
        return value

    def challenges(pair: Pair):
        """Each move one side of ``pair`` can make, with the other side's
        answers to it: ``(distribution, answers)``."""
        for du, dv in enabled(pair):
            for pi in du:
                yield pi, dv
            for pi in dv:
                yield pi, du

    def cheapest(pi: _ClassMasses, answers, floor: Fraction):
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

    def close(comp: list[Pair]) -> None:
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
        sigma: dict[Pair, int] = {}
        plans: dict = {}  # per pair, its challenge's coupling or None

        def improve(p, floor: Fraction) -> bool:
            """Switch ``p`` to the challenge whose cheapest answer costs
            most, where that is strictly above ``floor``.  The floor rises
            to the best cost so far: a challenge is taken only above it, so
            pricing one may stop at the first answer at or below it."""
            best = None
            for i, (pi, answers) in enumerate(moves[p]):
                if i != sigma.get(p):
                    k, cells = cheapest(pi, answers, floor)
                    if k > floor:
                        best, floor = (k, i, cells), k
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
            coeffs: dict[Pair, Fraction] = {}
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

    # every pair is found before any is solved, so the budget refuses
    # before any transport is posed
    for comp in strongly_connected_components([root], below):
        if comp[0] in memo:  # solved by an earlier query
            continue
        if len(comp) == 1 and comp[0] not in deps[comp[0]]:
            memo[comp[0]] = settle(comp[0])
        else:
            close(comp)
        table.update((p, memo[p]) for p in comp)
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
