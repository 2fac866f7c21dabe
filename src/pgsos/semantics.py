"""Transition derivation for closed terms and reachable-fragment exploration.

Rules are applied bottom-up over the term's structure: to fire a rule for
``f(t_1, ..., t_n)`` the transitions of the arguments are derived first,
positive premises pick one matching argument transition each, and a
negative premise holds when the argument has no transition for the
forbidden action.  The target is then instantiated straight into one
distribution, its sources bound to the ``t_i`` and its derivatives to the
picked distributions.  Premises only ever test proper subterms, so the
derivation is well-founded and yields the unique supported model.  Each
rule is compiled once per document, the first time its operator fires.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import DepthLimitExceeded, OpenTermError, StateLimitExceeded
from .frontend import Rule, SpecDocument
from .terms import (Apply, FiniteDistribution, StateTerm, compile_target,
                    run_target, scan_term)

Moves = dict[str, tuple[FiniteDistribution, ...]]


def transitions(doc: SpecDocument, t: StateTerm) -> Moves:
    """The moves of a closed, arity-checked term, kept once in the
    document's ``"transitions"`` table: per action in name order, the
    distinct target distributions in the order :func:`_fire` derives them.

    The subterms whose moves are not yet known are derived bottom-up from
    an explicit stack, so the depth of ``t`` is not limited by the
    interpreter's recursion limit."""
    memo = doc.memo("transitions")
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


def _fire(doc: SpecDocument, t: Apply, arg_moves: list[Moves]) -> Moves:
    """The moves the rules for ``t.op`` derive from the moves of ``t``'s
    arguments, each once, in the order the rules, their premises and the
    arguments' moves give them, grouped per action in name order."""
    plans = doc.memo("rule plans")
    if t.op not in plans:
        plans[t.op] = tuple(map(_plan, doc.rules_for(t.op)))
    out: dict[str, dict[FiniteDistribution, None]] = {}
    for action, pos, neg, program in plans[t.op]:
        if any(a in arg_moves[i] for i, a in neg):
            continue
        choices = [arg_moves[i].get(a, ()) for i, a in pos]
        for combo in itertools.product(*choices):
            out.setdefault(action, {})[
                run_target(program, t.args, combo)] = None
    return {a: tuple(out[a]) for a in sorted(out)}


def _plan(rule: Rule) -> tuple:
    """A rule compiled for :func:`_fire`, kept in the ``"rule plans"``
    table: its action, its positive and negative premises as ``(argument
    index, action)`` pairs, and its target over arguments and derivatives."""
    index = {x: i for i, x in enumerate(rule.sources)}
    return (rule.action, [(index[p.source], p.action) for p in rule.pos],
            [(index[n.source], n.action) for n in rule.neg],
            compile_target(rule.target, rule.sources, rule.derivatives()))


def check_closed(doc: SpecDocument, t: StateTerm, what: str) -> None:
    """Raise :class:`OpenTermError` (message ``what``, then the free
    variables) unless ``t`` is closed, and :class:`ArityMismatch` unless
    every operator in it has its declared arity, from one walk."""
    free, error = scan_term(t, doc.signature)
    if free:
        names = ", ".join(sorted(x.name for x in free))
        raise OpenTermError(f"{what}; free: {names}")
    if error is not None:
        raise error


def derive_transitions(doc: SpecDocument,
                       t: StateTerm) -> frozenset[tuple[str, FiniteDistribution]]:
    """All transitions ``(action, distribution)`` of a closed term."""
    check_closed(doc, t, "transitions need a closed term")
    return frozenset((a, pi) for a, pis in transitions(doc, t).items()
                     for pi in pis)


@dataclass
class ReachableFragment:
    """A finite state space closed under one-step supports.

    ``states`` lists the states in breadth-first order from the roots, and
    ``depths[state]`` is a state's distance from the nearest root.
    ``transitions[state]`` holds the state's moves from :func:`transitions`.
    """

    states: tuple[StateTerm, ...]
    transitions: dict[StateTerm, Moves]
    depths: dict[StateTerm, int]

    @property
    def depth(self) -> int:
        """The largest distance of a state from the nearest root."""
        return max(self.depths.values(), default=0)


DEFAULT_MAX_STATES = 4096
ROOTS_CLOSED = "exploration needs closed roots"


def explore_fragment(doc: SpecDocument, roots: Iterable[StateTerm], *,
                     max_states: int = DEFAULT_MAX_STATES,
                     max_depth: int | None = None) -> ReachableFragment:
    """Breadth-first closure of ``roots`` under transition supports.

    Raises :class:`StateLimitExceeded` or :class:`DepthLimitExceeded` when a
    limit cuts the closure short, so the fragment returned is always closed.
    """
    depth: dict[StateTerm, int] = {}
    for r in roots:
        check_closed(doc, r, ROOTS_CLOSED)
        depth[r] = 0

    if max_states is not None and len(depth) > max_states:
        raise StateLimitExceeded(
            f"{len(depth)} roots already exceed max_states={max_states}")

    table: dict[StateTerm, Moves] = {}
    queue: list[StateTerm] = list(depth)
    for state in queue:  # grows while it is walked
        table[state] = moves = transitions(doc, state)
        d = depth[state] + 1
        for pis in moves.values():
            for pi in pis:
                for succ, _ in pi:
                    if succ in depth:
                        continue
                    if max_depth is not None and d > max_depth:
                        raise DepthLimitExceeded(f"state at depth {d} "
                                                 f"exceeds max_depth={max_depth}")
                    if max_states is not None and len(depth) >= max_states:
                        raise StateLimitExceeded(f"more than max_states="
                                                 f"{max_states} reachable states")
                    depth[succ] = d
                    queue.append(succ)

    return ReachableFragment(tuple(queue), table, depth)
