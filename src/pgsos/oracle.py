"""Randomized cross-check of exact distances against denotational bounds.

For an open term ``t`` and a pair of closed substitutions, the exact
behavioural distance of the two instances can never exceed the bound
computed from the denotation of ``t`` and the pairwise distances of the
substituted processes.  This module samples such instances and verifies
the inequality with exact arithmetic; any violation is a bug in either
the metric engine or the denotation engine, so it is raised immediately
rather than recorded.

Samples whose per-variable distance reaches 1 are discarded (the bound is
only claimed for strictly smaller distances), as are samples that hit the
state budget or the pair budget.

The one harness is :func:`oracle_suite`, over a fixed open term or over
drawn ones; :func:`evaluate_sample` checks a single instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .denotation import lfp_denotations
from .errors import AllSamplesSkipped, AnalysisRefusal
from .frontend import SpecDocument
from .metric import bisim_distance
from .multiplicity import da, process_distance
from .semantics import DEFAULT_MAX_STATES
from .terms import (Apply, StateTerm, Variable, format_term, free_vars,
                    substitute)


VARIABLES = ("x", "y")  # the variables of the open terms the suite draws
MAX_PAIRS = 2000  # the pair budget of each distance a sample computes


@dataclass(frozen=True)
class SampleResult:
    term: str
    left: tuple[tuple[str, str], ...]
    right: tuple[tuple[str, str], ...]
    distances: tuple[tuple[str, Fraction], ...]
    exact: Fraction
    bound: Fraction

    @property
    def gap(self) -> Fraction:
        return self.bound - self.exact


@dataclass
class OracleSummary:
    requested: int
    used: int
    skipped: dict[str, int]
    max_gap: Fraction
    tight: int
    results: tuple[SampleResult, ...] = field(repr=False)


# ---------------------------------------------------------------------------
# Grammar-directed term generation
# ---------------------------------------------------------------------------

def random_closed_term(rng: random.Random, doc: SpecDocument,
                       depth: int) -> StateTerm:
    """A closed state term of at most the given operator depth."""
    leaves: list[StateTerm] = [Apply(op, ()) for op, n in
                               doc.signature.operators if n == 0]
    leaves += [t for _, t in doc.abbreviations]
    if depth <= 0 or not any(n > 0 for _, n in doc.signature.operators):
        return rng.choice(leaves)
    if rng.random() < 0.3:
        return rng.choice(leaves)
    op, n = rng.choice([(op, n) for op, n in doc.signature.operators if n > 0])
    return Apply(op, tuple(random_closed_term(rng, doc, depth - 1)
                           for _ in range(n)))


def _positions(t: StateTerm) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    if isinstance(t, Apply):
        for i, a in enumerate(t.args):
            out.extend((i,) + p for p in _positions(a))
    return out


def _replace(t: StateTerm, path: tuple[int, ...],
             repl: StateTerm) -> StateTerm:
    if not path:
        return repl
    assert isinstance(t, Apply)
    i = path[0]
    args = list(t.args)
    args[i] = _replace(args[i], path[1:], repl)
    return Apply(t.op, tuple(args))


def perturbed_term(rng: random.Random, doc: SpecDocument,
                   t: StateTerm) -> StateTerm:
    """A closed term that usually differs from ``t`` only in one subterm.

    Independent resampling almost always lands at distance 1; replacing a
    single random subterm keeps the pair close, which is where the bound
    is informative.
    """
    path = rng.choice(_positions(t))
    return _replace(t, path, random_closed_term(rng, doc, 1))


def substitution_pair(rng: random.Random, doc: SpecDocument,
                      variables: Sequence[Variable], depth: int,
                      ) -> tuple[dict[Variable, StateTerm],
                                 dict[Variable, StateTerm]]:
    """A pair of closed substitutions biased towards nearby processes."""
    s1 = {v: random_closed_term(rng, doc, depth) for v in variables}
    s2 = {}
    for v in variables:
        roll = rng.random()
        if roll < 0.2:
            s2[v] = s1[v]
        elif roll < 0.8:
            s2[v] = perturbed_term(rng, doc, s1[v])
        else:
            s2[v] = random_closed_term(rng, doc, depth)
    return s1, s2


def random_open_term(rng: random.Random, doc: SpecDocument, depth: int,
                     pool: Sequence[str]) -> StateTerm:
    """An open state term whose leaves may be variables from the pool."""
    if depth <= 0 or rng.random() < 0.25:
        if pool and rng.random() < 0.7:
            return Variable(rng.choice(list(pool)))
        return random_closed_term(rng, doc, 0)
    positive = [(op, n) for op, n in doc.signature.operators if n > 0]
    if not positive:
        return Variable(rng.choice(list(pool)))
    op, n = rng.choice(positive)
    return Apply(op, tuple(random_open_term(rng, doc, depth - 1, pool)
                           for _ in range(n)))


# ---------------------------------------------------------------------------
# Single-sample evaluation
# ---------------------------------------------------------------------------

def evaluate_sample(doc: SpecDocument, t: StateTerm,
                    sigma1: Mapping[Variable, StateTerm],
                    sigma2: Mapping[Variable, StateTerm], *,
                    max_states: int = DEFAULT_MAX_STATES,
                    max_pairs: int | None = None,
                    ) -> SampleResult | str:
    """Exact distance of the two instances against the denotational bound.

    Returns the comparison record, or a skip reason ("distance-one" when
    some per-variable distance is 1, "refused" when the state budget or
    the pair budget was hit).  A bound violation is a bug in the metric
    or the denotation engine, not bad input: it raises ``RuntimeError``.
    """
    variables = sorted(free_vars(t), key=lambda v: v.name)
    subst1 = {v: sigma1[v] for v in variables}
    subst2 = {v: sigma2[v] for v in variables}
    try:
        dists = {v: bisim_distance(doc, subst1[v], subst2[v],
                                   max_states=max_states, max_pairs=max_pairs)
                 for v in variables}
        if any(e == 1 for e in dists.values()):
            return "distance-one"
        exact = bisim_distance(doc, substitute(t, subst1),
                               substitute(t, subst2), max_states=max_states,
                               max_pairs=max_pairs)
    except AnalysisRefusal:
        return "refused"
    bound = da(lfp_denotations(doc).genset(t), process_distance(dists))
    if not exact <= bound:
        raise RuntimeError(
            f"exact distance {exact} exceeds bound {bound} for "
            f"{format_term(t)} under "
            f"{{{', '.join(f'{v.name}={format_term(s)}' for v, s in subst1.items())}}} vs "
            f"{{{', '.join(f'{v.name}={format_term(s)}' for v, s in subst2.items())}}}")
    return SampleResult(
        format_term(t),
        tuple((v.name, format_term(subst1[v])) for v in variables),
        tuple((v.name, format_term(subst2[v])) for v in variables),
        tuple((v.name, dists[v]) for v in variables),
        exact, bound)


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------

def oracle_suite(doc: SpecDocument, term: StateTerm | None = None, *,
                 seed: int = 0, samples: int = 200, depth: int = 3,
                 max_states: int = 256) -> OracleSummary:
    """Check the bound on ``samples`` sampled instances and tally them.

    Each sample draws a pair of substitutions into ``term``, or first
    draws an open term over :data:`VARIABLES` when ``term`` is None.  The
    same document, term and parameters give the same summary.  Raises
    ``AllSamplesSkipped`` when no sample was compared.
    """
    rng = random.Random(seed)
    results: list[SampleResult] = []
    skipped: dict[str, int] = {}
    for _ in range(samples):
        t = (random_open_term(rng, doc, depth, VARIABLES) if term is None
             else term)
        variables = sorted(free_vars(t), key=lambda v: v.name)
        s1, s2 = substitution_pair(rng, doc, variables, depth)
        outcome = evaluate_sample(doc, t, s1, s2, max_states=max_states,
                                  max_pairs=MAX_PAIRS)
        if isinstance(outcome, str):
            skipped[outcome] = skipped.get(outcome, 0) + 1
        else:
            results.append(outcome)
    if samples and not results:
        raise AllSamplesSkipped(
            f"all {samples} samples were skipped: "
            + ", ".join(f"{k}={v}" for k, v in sorted(skipped.items())))
    max_gap = max((r.gap for r in results), default=Fraction(0))
    tight = sum(1 for r in results if r.gap == 0)
    return OracleSummary(samples, len(results), dict(sorted(skipped.items())),
                         max_gap, tight, tuple(results))
