"""Transition derivation for closed terms and reachable-fragment exploration.

Rules are applied bottom-up over the term's structure: to fire a rule for
``f(t_1, ..., t_n)`` the transitions of the arguments are derived first,
positive premises pick one matching argument transition each, and a
negative premise holds when the argument has no transition for the
forbidden action.  Premises only ever test proper subterms, so the
derivation is well-founded and yields the unique supported model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import (DepthLimitExceeded, OpenTermError, StateLimitExceeded,
                     TruncatedFragment)
from .frontend import SpecDocument
from .terms import (Apply, FiniteDistribution, StateTerm, Var,
                    check_arities, embed_distribution, eval_closed_dist,
                    free_vars, substitute, term_key)


@dataclass(frozen=True)
class Transition:
    source: StateTerm
    action: str
    target: FiniteDistribution


def _dist_key(pi: FiniteDistribution) -> tuple:
    return tuple((term_key(t), q) for t, q in pi)


def _transitions(doc: SpecDocument, memo: dict,
                 t: StateTerm) -> frozenset[tuple[str, FiniteDistribution]]:
    """Transitions of a closed, arity-checked term; ``memo`` is the
    document's ``"transitions"`` table.

    The subterms whose transitions are not yet known are derived bottom-up
    from an explicit stack, so the depth of ``t`` is not limited by the
    interpreter's recursion limit."""
    cached = memo.get(t)
    if cached is not None:
        return cached
    stack = [t]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        assert isinstance(u, Apply)
        missing = [arg for arg in u.args if arg not in memo]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        memo[u] = _fire(doc, u, [memo[arg] for arg in u.args])
    return memo[t]


def _fire(doc: SpecDocument, t: Apply,
          arg_transitions: list[frozenset[tuple[str, FiniteDistribution]]]
          ) -> frozenset[tuple[str, FiniteDistribution]]:
    """The transitions the rules for ``t.op`` derive from the transitions
    of ``t``'s arguments."""
    out: set[tuple[str, FiniteDistribution]] = set()
    for rule in doc.rules_for(t.op):
        base: dict[Var, StateTerm] = dict(zip(rule.sources, t.args))
        position = {x: i for i, x in enumerate(rule.sources)}
        if any(any(a == n.action for a, _ in arg_transitions[position[n.source]])
               for n in rule.neg):
            continue
        choices = []
        for p in rule.pos:
            matching = [pi for a, pi in arg_transitions[position[p.source]]
                        if a == p.action]
            choices.append(matching)
        if any(not c for c in choices):
            continue
        for combo in itertools.product(*choices):
            sigma = dict(base)
            for p, pi in zip(rule.pos, combo):
                sigma[p.derivative] = embed_distribution(pi)
            closed_target = substitute(rule.target, sigma)
            out.add((rule.action, eval_closed_dist(closed_target)))
    return frozenset(out)


def check_closed(doc: SpecDocument, t: StateTerm, what: str) -> None:
    """Raise :class:`OpenTermError` (message ``what``, then the free
    variables) unless ``t`` is closed, and :class:`ArityMismatch` unless
    every operator in it has its declared arity."""
    names = sorted(x.name for x in free_vars(t))
    if names:
        raise OpenTermError(f"{what}; free: {', '.join(names)}")
    check_arities(t, doc.signature)


def derive_transitions(doc: SpecDocument,
                       t: StateTerm) -> frozenset[tuple[str, FiniteDistribution]]:
    """All transitions ``(action, distribution)`` of a closed term."""
    check_closed(doc, t, "transitions need a closed term")
    return _transitions(doc, doc.memo("transitions"), t)


@dataclass
class ReachableFragment:
    """A finite transition-closed state space (or a truncated prefix of one).

    ``transitions[state][action]`` lists the distinct target distributions
    in canonical order.  When ``complete`` is set the states are closed
    under one-step supports.
    """

    states: tuple[StateTerm, ...]
    transitions: dict[StateTerm, dict[str, tuple[FiniteDistribution, ...]]]
    complete: bool
    depth: int
    roots: tuple[StateTerm, ...] = ()

    @property
    def visited(self) -> int:
        return len(self.states)

    def der(self, t: StateTerm, action: str) -> tuple[FiniteDistribution, ...]:
        return self.transitions.get(t, {}).get(action, ())

    def require_complete(self, what: str = "this analysis") -> None:
        if not self.complete:
            raise TruncatedFragment(
                f"{what} needs a fully explored state space, but exploration "
                f"was truncated at {len(self.states)} states / depth {self.depth}")


DEFAULT_MAX_STATES = 4096
ROOTS_CLOSED = "exploration needs closed roots"


def explore_fragment(doc: SpecDocument, roots: Iterable[StateTerm], *,
                     max_states: int = DEFAULT_MAX_STATES,
                     max_depth: int | None = None) -> ReachableFragment:
    """Breadth-first closure of ``roots`` under transition supports.

    Raises :class:`StateLimitExceeded` or :class:`DepthLimitExceeded` when a
    limit cuts the closure short; the partial fragment (marked incomplete)
    travels on the exception for callers that can live with truncation.
    """
    ordered_roots: list[StateTerm] = []
    for r in roots:
        check_closed(doc, r, ROOTS_CLOSED)
        if r not in ordered_roots:
            ordered_roots.append(r)

    memo = doc.memo("transitions")
    depth: dict[StateTerm, int] = {r: 0 for r in ordered_roots}
    table: dict[StateTerm, dict[str, tuple[FiniteDistribution, ...]]] = {}
    queue: list[StateTerm] = list(ordered_roots)
    pos = 0

    def partial() -> ReachableFragment:
        done = [s for s in depth if s in table]
        done.sort(key=lambda s: (depth[s], term_key(s)))
        return ReachableFragment(tuple(done),
                                 {s: table[s] for s in done},
                                 complete=False,
                                 depth=max((depth[s] for s in done), default=0),
                                 roots=tuple(ordered_roots))

    if max_states is not None and len(queue) > max_states:
        raise StateLimitExceeded(
            f"{len(queue)} roots already exceed max_states={max_states}",
            partial())

    while pos < len(queue):
        state = queue[pos]
        pos += 1
        by_action: dict[str, list[FiniteDistribution]] = {}
        for a, pi in _transitions(doc, memo, state):
            by_action.setdefault(a, []).append(pi)
        table[state] = {a: tuple(sorted(pis, key=_dist_key))
                        for a, pis in sorted(by_action.items())}
        successors: list[StateTerm] = []
        for a in sorted(by_action):
            for pi in table[state][a]:
                for succ in pi.support():
                    if succ not in depth and succ not in successors:
                        successors.append(succ)
        successors.sort(key=term_key)
        for succ in successors:
            d = depth[state] + 1
            if max_depth is not None and d > max_depth:
                raise DepthLimitExceeded(
                    f"state at depth {d} exceeds max_depth={max_depth}",
                    partial())
            if max_states is not None and len(depth) + 1 > max_states:
                raise StateLimitExceeded(
                    f"more than max_states={max_states} reachable states",
                    partial())
            depth[succ] = d
            queue.append(succ)

    states = tuple(sorted(depth, key=lambda s: (depth[s], term_key(s))))
    return ReachableFragment(states,
                             {s: table[s] for s in states},
                             complete=True,
                             depth=max((depth[s] for s in states), default=0),
                             roots=tuple(ordered_roots))
