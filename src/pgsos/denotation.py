"""Canonical denotations of open terms in the multiplicity domain.

Every term gets a generator set describing how many copies of each free
variable (and, for rule analysis, each premise derivative) a context built
from the specification can spawn.  Denotations of terms and rules are
mutually recursive — a rule's denotation folds the denotation of its
target, which applies operators whose denotations come from their rules —
so both are computed together as the least fixed point of a joint step
function, iterating upward from the zero denotation.

Operators applied to distribution terms are coarsened to a single
generator: the least probabilistic multiplicity covering every rule of the
operator, further raised by one copy of each source variable the rule
tests, because testing a distribution's states discriminates them as
effectively as running one copy (toggle ``reactive_testing`` to reproduce
the unsound bound without that correction).

Unbounded recursion (replication-style operators) makes the chain grow
forever; a per-entry widening promotes a variable's count to ``INF`` after
its expected value has strictly increased ``widening_window`` times, after
which the chain stabilises or the iteration cap reports failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Union

from .errors import IterationLimitExceeded
from .frontend import Rule, SpecDocument
from .multiplicity import (D_ZERO, GenSet, INF, Multiplicity,
                           P_ZERO, ProbMultiplicity, ProcessDistance,
                           ext_leq, genset_equiv, genset_normalize, m_scale,
                           m_sum, mult, p_sum, sup_approx, sup_is_exact,
                           unit, weighting_of, da)
from .terms import (Apply, ConvexSum, DistApply, DistVariable, InstDirac,
                    StateTerm, Term, Var, Variable, check_arities,
                    immediate_subterms, substitute)

ExtRational = Union[Fraction, int, object]


@dataclass(frozen=True)
class FixpointConfig:
    max_iterations: int = 64
    widening_window: int = 8


# ---------------------------------------------------------------------------
# Probabilistic-multiplicity composition
# ---------------------------------------------------------------------------

def power_sum(p: ProbMultiplicity, k) -> ProbMultiplicity:
    """``k`` independent copies of ``p`` added together.

    Infinitely many copies concentrate on ``INF`` at every variable the
    support can touch: any coordinate with positive single-copy probability
    of being spawned is spawned infinitely often almost surely.
    """
    if k == 0:
        return P_ZERO
    if k is INF:
        touched = {x for m in p.support() for x in m.vars()}
        return ProbMultiplicity.dirac(mult({x: INF for x in touched}))
    out = P_ZERO
    for _ in range(k):
        out = p_sum(out, p)
    return out


def branch_compose(p_f: ProbMultiplicity, sources: tuple[Var, ...],
                   args: tuple[ProbMultiplicity, ...]) -> ProbMultiplicity:
    """Compose an operator generator with per-argument generators.

    One multiplicity ``m_f`` is drawn from ``p_f``; position ``i`` then
    contributes ``m_f(x_i)`` independent copies of its argument generator,
    all added together.  Coordinates of ``m_f`` outside the source
    variables (premise derivatives) are consumed by the draw and do not
    reach the result.
    """
    pairs: list[tuple[Multiplicity, Fraction]] = []
    for m_f, q in p_f:
        conv = P_ZERO
        for x_i, p_i in zip(sources, args):
            k = m_f.get(x_i)
            if k == 0:
                continue
            conv = p_sum(conv, power_sum(p_i, k))
        pairs.extend((m, q * r) for m, r in conv)
    return ProbMultiplicity.from_pairs(pairs)


def compose_operator(rho_f: GenSet, sources: tuple[Var, ...],
                     arg_gensets: tuple[GenSet, ...]) -> GenSet:
    """All combinations of operator generators with argument generators."""
    if not sources:
        return D_ZERO
    gens = []
    for p_f in rho_f:
        for combo in itertools.product(*arg_gensets):
            gens.append(branch_compose(p_f, sources, combo))
    return genset_normalize(gens)


def convex_combine(weights: tuple[Fraction, ...],
                   gensets: tuple[GenSet, ...]) -> GenSet:
    """Convex combination lifted to generator sets: one generator choice
    per summand, mixed with the given weights, over all combinations."""
    gens = []
    for combo in itertools.product(*gensets):
        pairs: list[tuple[Multiplicity, Fraction]] = []
        for q, p in zip(weights, combo):
            pairs.extend((m, q * r) for m, r in p)
        gens.append(ProbMultiplicity.from_pairs(pairs))
    return genset_normalize(gens)


def fold_rule(p: ProbMultiplicity, rule: Rule) -> ProbMultiplicity:
    """Push a target generator through the rule view: every copy of a
    derivative also stands for one copy of the source it came from, so
    each draw ``m`` is raised by ``m(mu) * 1_{x_i}`` per positive premise
    ``x_i --a--> mu``."""
    def raise_one(m: Multiplicity) -> Multiplicity:
        acc = m
        for prem in rule.pos:
            k = m.get(prem.derivative)
            if k != 0:
                acc = m_sum(acc, m_scale(k, unit(prem.source)))
        return acc

    return ProbMultiplicity.from_pairs((raise_one(m), q) for m, q in p)


# ---------------------------------------------------------------------------
# Canonical rule form
# ---------------------------------------------------------------------------

def canonical_rule(rule: Rule) -> Rule:
    """Rename sources to x1..xn and derivatives to d1..dk (premise order)
    so that rules of the same operator share coordinates."""
    mapping: dict[Var, Var] = {
        s: Variable(f"x{i + 1}") for i, s in enumerate(rule.sources)}
    mapping.update((p.derivative, DistVariable(f"d{k + 1}"))
                   for k, p in enumerate(rule.pos))
    return Rule(rule.op, tuple(mapping[s] for s in rule.sources),
                tuple(p._replace(source=mapping[p.source],
                                 derivative=mapping[p.derivative])
                      for p in rule.pos),
                tuple(n._replace(source=mapping[n.source]) for n in rule.neg),
                rule.action, substitute(rule.target, mapping))


def subterms(t: Term) -> list[Term]:
    """The distinct subterms of ``t``, ``t`` included, innermost first: each
    in the place of its first occurrence in a left-to-right post-order walk.
    Iterative, so the depth of ``t`` is not limited by the interpreter's
    recursion limit."""
    out: list[Term] = []
    seen: set[Term] = set()
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        u, children_done = stack.pop()
        if children_done:
            out.append(u)
        elif u not in seen:
            seen.add(u)
            stack.append((u, True))
            stack.extend((c, False) for c in reversed(immediate_subterms(u)))
    return out


# ---------------------------------------------------------------------------
# The joint step function
# ---------------------------------------------------------------------------

def generic_application(doc: SpecDocument,
                        op: str) -> tuple[Apply, tuple[Var, ...]]:
    """The generic application ``f(x1, ..., xn)`` of an operator and its
    source variables ``x1..xn``, the coordinates canonical rules share.
    Raises :class:`UndeclaredSymbol` for an unknown operator."""
    xs = tuple(Variable(f"x{i + 1}") for i in range(doc.signature.arity(op)))
    return Apply(op, xs), xs


class _StepContext:
    """Evaluates the step function clauses against one ``rho`` table.

    ``lookup`` gives the denotation of an immediate subterm: the fixpoint
    reads the previous iterate, which tracks every subterm it asks for; a
    query reads the memo that :meth:`Denotations.genset` fills innermost
    first.
    ``rho`` is fixed for the context's lifetime, so the per-operator
    summaries are memoised.
    """

    def __init__(self, doc: SpecDocument,
                 rules_by_op: Mapping[str, tuple[Rule, ...]],
                 rho: Mapping[Rule, GenSet], reactive_testing: bool,
                 lookup: Callable[[Term], GenSet]):
        self.doc = doc
        self.rules_by_op = rules_by_op
        self.rho = rho
        self.reactive_testing = reactive_testing
        self.lookup = lookup
        self.over_approximated = False
        self._state_cache: dict[str, GenSet] = {}
        self._dist_cache: dict[str, GenSet] = {}

    def rho_state(self, op: str) -> GenSet:
        cached = self._state_cache.get(op)
        if cached is not None:
            return cached
        rules = self.rules_by_op.get(op, ())
        if not rules:
            result = D_ZERO
        else:
            result = genset_normalize(p for r in rules for p in self.rho[r])
        self._state_cache[op] = result
        return result

    def rho_dist(self, op: str) -> GenSet:
        cached = self._dist_cache.get(op)
        if cached is not None:
            return cached
        rules = self.rules_by_op.get(op, ())
        if not rules:
            result = D_ZERO
        else:
            per_rule = []
            for r in rules:
                gens = tuple(self.rho[r])
                if not sup_is_exact(gens):
                    self.over_approximated = True
                s_r = sup_approx(gens)
                if self.reactive_testing:
                    tested = ProbMultiplicity.dirac(unit(*sorted(
                        r.tested_sources(), key=lambda v: v.name)))
                    s_r = sup_approx((s_r, tested))
                per_rule.append(s_r)
            result = GenSet((sup_approx(per_rule),))
        self._dist_cache[op] = result
        return result

    def term_step(self, t: Term) -> GenSet:
        if isinstance(t, (Variable, DistVariable)):
            return GenSet((ProbMultiplicity.dirac(unit(t)),))
        if isinstance(t, InstDirac):
            return self.lookup(t.term)
        if isinstance(t, ConvexSum):
            weights = tuple(q for q, _ in t.parts)
            gensets = tuple(self.lookup(theta) for _, theta in t.parts)
            return convex_combine(weights, gensets)
        if isinstance(t, (Apply, DistApply)):
            rho_f = (self.rho_state(t.op) if isinstance(t, Apply)
                     else self.rho_dist(t.op))
            sources = generic_application(self.doc, t.op)[1]
            return compose_operator(rho_f, sources,
                                    tuple(self.lookup(a) for a in t.args))
        raise TypeError(f"not a term: {t!r}")

    def rule_step(self, rule: Rule) -> GenSet:
        target_gs = self.lookup(rule.target)
        return genset_normalize(fold_rule(p, rule) for p in target_gs)


# ---------------------------------------------------------------------------
# Least fixed point with widening
# ---------------------------------------------------------------------------

@dataclass
class Denotations:
    """Result of the joint fixpoint: tracked denotations plus per-operator
    summaries, and honesty flags when the result is an upper bound rather
    than the exact least fixed point.

    ``tau``, ``rho``, ``widened_vars`` and ``over_approximated`` describe
    the fixpoint alone: queries through :meth:`genset` never change them,
    so one instance can serve every caller.  The document's
    ``"fixpoints"`` memo table owns that instance (see
    :func:`lfp_denotations`); the instance owns the memo of query terms.
    """

    doc: SpecDocument
    config: FixpointConfig
    reactive_testing: bool
    tau: dict[Term, GenSet]
    rho: dict[Rule, GenSet]
    rules_by_op: dict[str, tuple[Rule, ...]]
    iterations: int
    widened_vars: frozenset[Var]
    over_approximated: bool
    _memo: dict[Term, GenSet] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._step = _StepContext(self.doc, self.rules_by_op, self.rho,
                                  self.reactive_testing,
                                  self._memo.__getitem__)

    @property
    def widened(self) -> bool:
        return bool(self.widened_vars)

    def genset(self, t: Term) -> GenSet:
        """Denotation of an arbitrary term, evaluated bottom-up against the
        fixed point (the step clauses are compositional, so no iteration is
        needed for query terms).  Writes only its own memo: the flags keep
        describing the fixpoint, whatever a query needed.  Raises
        :class:`ArityMismatch` or :class:`UndeclaredSymbol` for a term the
        signature does not admit."""
        hit = self._memo.get(t)
        if hit is None:
            check_arities(t, self.doc.signature)
            for u in subterms(t):
                if u not in self._memo:
                    self._memo[u] = self._step.term_step(u)
            hit = self._memo[t]
        return hit


def _measure(gs: GenSet) -> dict[Var, object]:
    out: dict[Var, object] = {}
    for p in gs:
        for x, v in weighting_of(p).entries:
            prev = out.get(x, Fraction(0))
            out[x] = v if not ext_leq(v, prev) else prev
    return out


def _widen(gs: GenSet, x: Var) -> GenSet:
    def promote(m: Multiplicity) -> Multiplicity:
        if m.get(x) == 0:
            return m
        return mult({**dict(m.entries), x: INF})

    return genset_normalize(
        ProbMultiplicity.from_pairs((promote(m), q) for m, q in p) for p in gs)


def lfp_denotations(doc: SpecDocument,
                    config: FixpointConfig = FixpointConfig(), *,
                    reactive_testing: bool = True) -> Denotations:
    """Compute the joint least fixed point of the term and rule clauses.

    Tracked entries are the canonical rules, their targets with all
    subterms, and the generic application of every operator.  Iteration
    starts from the zero denotation everywhere and stops when one more
    step leaves every entry equal.  After the first step, only the entries
    that read a term or rule changed by the previous step are evaluated
    again; the others would step to their previous values, so the result
    is that of stepping every entry.  A per-entry, per-variable widening to
    ``INF`` fires once the variable's largest expected count has strictly
    grown ``widening_window`` times, keeping unbounded-recursion chains
    finite.  Exceeding ``max_iterations`` raises
    :class:`IterationLimitExceeded`.

    The result is kept in the document's ``"fixpoints"`` memo table, so
    every later call with an equal document, config and flag returns the
    same object.
    """
    memo = doc.memo("fixpoints")
    key = (config, reactive_testing)
    cached = memo.get(key)
    if cached is not None:
        return cached

    rules = tuple(canonical_rule(r) for r in doc.rules)
    rules_by_op: dict[str, tuple[Rule, ...]] = {}
    for r in rules:
        rules_by_op[r.op] = rules_by_op.get(r.op, ()) + (r,)
    tracked: list[Term] = []
    seen: set[Term] = set()

    def track(t: Term) -> None:
        for sub in subterms(t):
            if sub not in seen:
                seen.add(sub)
                tracked.append(sub)

    for r in rules:
        track(r.target)
    for op, _ in doc.signature.operators:
        track(generic_application(doc, op)[0])

    # readers[e]: the entries whose step clause reads the term or rule e
    readers: dict[object, list[object]] = {}
    for t in tracked:
        inputs = immediate_subterms(t)
        if isinstance(t, (Apply, DistApply)):
            inputs += rules_by_op.get(t.op, ())
        for e in inputs:
            readers.setdefault(e, []).append(t)
    for r in rules:
        readers.setdefault(r.target, []).append(r)

    tau: dict[Term, GenSet] = {t: D_ZERO for t in tracked}
    rho: dict[Rule, GenSet] = {r: D_ZERO for r in rules}
    growth: dict[tuple[object, Var], int] = {}
    measures: dict[object, dict[Var, object]] = {}
    forced: dict[object, set[Var]] = {}
    over_approx = False
    widened_vars: set[Var] = set()

    def apply_widening(key_: object, gs: GenSet) -> GenSet:
        prev = measures.get(key_, {})
        measure = _measure(gs)
        for x, v in measure.items():
            if not ext_leq(v, prev.get(x, Fraction(0))):
                count = growth.get((key_, x), 0) + 1
                growth[(key_, x)] = count
                if count >= config.widening_window:
                    forced.setdefault(key_, set()).add(x)
                    widened_vars.add(x)
        # A tripped entry stays widened in every later iteration; otherwise
        # recomputation from not-yet-widened inputs would undo the promotion
        # and the chain would resume growing.
        widen = forced.get(key_, ())
        for x in widen:
            gs = _widen(gs, x)
        measures[key_] = _measure(gs) if widen else measure
        return gs

    # Skipping is exact: an entry whose inputs kept their values steps to
    # its previous raw value, and widening that again counts no growth.
    iterations = 0
    terms_due, rules_due = tracked, rules
    for iterations in range(1, config.max_iterations + 1):
        ctx = _StepContext(doc, rules_by_op, rho, reactive_testing,
                           tau.__getitem__)
        tau2 = {t: apply_widening(t, ctx.term_step(t)) for t in terms_due}
        rho2 = {r: apply_widening(r, ctx.rule_step(r)) for r in rules_due}
        over_approx = over_approx or ctx.over_approximated
        changed_terms = [t for t, gs in tau2.items() if gs != tau[t]]
        changed_rules = [r for r, gs in rho2.items() if gs != rho[r]]
        settled = (all(genset_equiv(tau2[t], tau[t]) for t in changed_terms)
                   and all(genset_equiv(rho2[r], rho[r])
                           for r in changed_rules))
        tau.update(tau2)
        rho.update(rho2)
        if settled:
            break
        due = {e for c in changed_terms + changed_rules
               for e in readers.get(c, ())}
        terms_due = [t for t in tracked if t in due]
        rules_due = [r for r in rules if r in due]
    else:
        raise IterationLimitExceeded(
            f"denotations still changing after {config.max_iterations} "
            f"iterations (widening window {config.widening_window})")

    result = Denotations(doc, config, reactive_testing, tau, rho, rules_by_op,
                         iterations, frozenset(widened_vars), over_approx)
    memo[key] = result
    return result


def denote(doc: SpecDocument, t: Term, *,
           config: FixpointConfig = FixpointConfig(),
           reactive_testing: bool = True) -> GenSet:
    """Denotation of ``t`` under the document's least fixed point."""
    return lfp_denotations(doc, config,
                           reactive_testing=reactive_testing).genset(t)


def bound_distance(doc: SpecDocument, t: StateTerm, e: ProcessDistance, *,
                   config: FixpointConfig = FixpointConfig()) -> Fraction:
    """Upper bound on the distance between any two closed instances of
    ``t`` whose per-variable distances are below ``e``."""
    return da(denote(doc, t, config=config), e)
