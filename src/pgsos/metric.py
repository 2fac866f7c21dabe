"""Bisimulation distances on finite fragments, computed exactly.

The distance between two states is the least fixed point of the functional
that lifts a state distance to distributions via optimal transport
(Kantorovich) and to transition sets via the Hausdorff construction, taking
the worst case over actions.  Everything is rational: the transport
problems are solved exactly by :func:`pgsos.lp.solve_transport`, and the
fixed point is reached when one more step reproduces the table bit for bit.

On fragments with cycles the chain of iterates may never stabilise (each
step can peel off another factor of a loop probability); exact mode then
reports failure rather than returning a near-answer, and iterate mode
documents its result as a lower bound of the true distance table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import NoConvergence, PairLimitExceeded, UnindexedState
from .frontend import SpecDocument
from .lp import solve_transport
from .semantics import ReachableFragment, explore_fragment
from .terms import FiniteDistribution, StateTerm, format_term, term_key

TransportPlan = dict[tuple[StateTerm, StateTerm], Fraction]


@dataclass
class PseudometricTable:
    """A symmetric table of rational distances in [0,1] over indexed states."""

    states: tuple[StateTerm, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    iterations: int = field(default=0, compare=False)
    converged: bool = field(default=True, compare=False)

    def __post_init__(self) -> None:
        self._index = {s: i for i, s in enumerate(self.states)}

    def index(self, t: StateTerm) -> int:
        try:
            return self._index[t]
        except KeyError:
            raise UnindexedState(f"state not in table: {format_term(t)}") from None

    def get(self, t1: StateTerm, t2: StateTerm) -> Fraction:
        return self.rows[self.index(t1)][self.index(t2)]

    @staticmethod
    def zero(states: Sequence[StateTerm]) -> "PseudometricTable":
        n = len(states)
        row = (Fraction(0),) * n
        return PseudometricTable(tuple(states), tuple(row for _ in range(n)))

    def check_pseudometric(self) -> None:
        """Assert the 1-bounded pseudometric axioms exactly."""
        n = len(self.states)
        for i in range(n):
            assert self.rows[i][i] == 0, "self-distance must be 0"
            for j in range(n):
                assert 0 <= self.rows[i][j] <= 1, "distances live in [0,1]"
                assert self.rows[i][j] == self.rows[j][i], "symmetry"
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert self.rows[i][j] <= self.rows[i][k] + self.rows[k][j], \
                        "triangle inequality"


def _lift(getd: Callable[[StateTerm, StateTerm], Fraction],
          pi1: FiniteDistribution, pi2: FiniteDistribution,
          ) -> tuple[Fraction, list[list[Fraction]] | None]:
    """Transport optimum of ``pi1`` onto ``pi2`` under the ground distance
    ``getd``, with the optimal plan over the two supports when a transport
    problem was solved, or ``None`` when a shortcut decided the value."""
    if pi1 == pi2:
        # the identity coupling is optimal: a pseudometric has zero diagonal
        return Fraction(0), None
    supp1, supp2 = pi1.support(), pi2.support()
    if len(supp1) == 1:
        # one source: the product coupling is the only coupling
        s = supp1[0]
        return sum((q * getd(s, y) for y, q in pi2), Fraction(0)), None
    if len(supp2) == 1:
        s = supp2[0]
        return sum((q * getd(x, s) for x, q in pi1), Fraction(0)), None
    cost = [[getd(t1, t2) for t2 in supp2] for t1 in supp1]
    return solve_transport(cost, [q for _, q in pi1], [q for _, q in pi2])


def kantorovich(d: PseudometricTable, pi1: FiniteDistribution,
                pi2: FiniteDistribution) -> tuple[Fraction, TransportPlan]:
    """Optimal-transport lifting of a state distance to distributions:
    the cheapest way to move ``pi1``'s mass onto ``pi2`` when moving one
    unit from ``t`` to ``t'`` costs ``d(t,t')``.  Returns the exact optimum
    and one optimal plan."""
    value, plan = _lift(d.get, pi1, pi2)
    if plan is not None:
        return value, {(t1, t2): q
                       for t1, row in zip(pi1.support(), plan)
                       for t2, q in zip(pi2.support(), row) if q != 0}
    if pi1 == pi2:
        return value, {(t, t): q for t, q in pi1}
    # one side is a point mass: the product coupling is the only coupling
    return value, {(x, y): p * q for x, p in pi1 for y, q in pi2}


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


def bisim_step(doc: SpecDocument, fragment: ReachableFragment,
               d: PseudometricTable) -> PseudometricTable:
    """One application of the distance functional: for every state pair,
    the worst action of the Hausdorff distance between their transition
    sets under the Kantorovich lifting of ``d``."""
    fragment.require_complete("the distance functional")
    states = d.states
    cache: dict[tuple[FiniteDistribution, FiniteDistribution], Fraction] = {}

    def k(pi1: FiniteDistribution, pi2: FiniteDistribution) -> Fraction:
        key = (pi1, pi2)
        hit = cache.get(key)
        if hit is not None:
            return hit
        value, _ = kantorovich(d, pi1, pi2)
        cache[key] = value
        cache[(pi2, pi1)] = value
        return value

    n = len(states)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = Fraction(0)
            for a in doc.actions:
                h = hausdorff(k, fragment.der(states[i], a),
                              fragment.der(states[j], a))
                if h > value:
                    value = h
                if value == 1:
                    break
            rows[i][j] = rows[j][i] = value
    return PseudometricTable(states, tuple(tuple(r) for r in rows))


def bisim_metric_lfp(doc: SpecDocument, fragment: ReachableFragment, *,
                     mode: str = "exact",
                     max_iter: int = 1000) -> PseudometricTable:
    """Least fixed point of the distance functional from the zero table.

    ``exact`` mode iterates until two consecutive tables are equal and
    raises :class:`NoConvergence` if that does not happen within
    ``max_iter`` steps (cyclic fragments may approach their fixed point
    only in the limit).  ``iterate`` mode always returns after at most
    ``max_iter`` steps; its table is a lower bound of the fixed point and
    is flagged ``converged=False`` unless it stabilised on the way.
    """
    if mode not in ("exact", "iterate"):
        raise ValueError(f"unknown mode {mode!r}")
    fragment.require_complete("the distance fixpoint")
    d = PseudometricTable.zero(fragment.states)
    for step in range(1, max_iter + 1):
        nxt = bisim_step(doc, fragment, d)
        if nxt == d:
            d.iterations = step - 1
            d.converged = True
            return d
        d = nxt
    if mode == "exact":
        raise NoConvergence(
            f"distance table still changing after {max_iter} iterations; "
            f"rerun in iterate mode for a lower bound", max_iter)
    d.iterations = max_iter
    d.converged = False
    return d


def _pair_key(t1: StateTerm, t2: StateTerm) -> tuple[StateTerm, StateTerm]:
    return (t1, t2) if term_key(t1) <= term_key(t2) else (t2, t1)


def bisim_distance(doc: SpecDocument, t1: StateTerm, t2: StateTerm, *,
                   max_states: int | None = None,
                   mode: str = "exact",
                   max_iter: int = 1000,
                   max_pairs: int | None = None) -> Fraction:
    """Distance between two closed terms over their joint reachable fragment.

    Computes the same fixed point as :func:`bisim_metric_lfp` but only on
    the state pairs the root pair transitively depends on — the supports
    of compared transition distributions — which is far smaller than all
    pairs of a product state space.  ``max_pairs`` optionally bounds that
    dependency system; exceeding it raises :class:`PairLimitExceeded`.
    """
    if mode not in ("exact", "iterate"):
        raise ValueError(f"unknown mode {mode!r}")
    if t1 == t2:
        return Fraction(0)
    kwargs = {} if max_states is None else {"max_states": max_states}
    fragment = explore_fragment(doc, [t1, t2], **kwargs)
    fragment.require_complete("the distance fixpoint")

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
            for pu in fragment.der(u, a):
                for pv in fragment.der(v, a):
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
        hit = kcache.get((pu, pv))
        if hit is not None:
            return hit
        value, _ = _lift(getd, pu, pv)
        kcache[(pu, pv)] = kcache[(pv, pu)] = value
        return value

    def settle(pair: tuple[StateTerm, StateTerm]) -> Fraction:
        u, v = pair
        value = Fraction(0)
        for a in doc.actions:
            h = hausdorff(kv, fragment.der(u, a), fragment.der(v, a))
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
