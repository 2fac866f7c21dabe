"""Canonical denotations of open terms in the multiplicity domain.

Every term gets a generator set describing how many copies of each free
variable (and, for rule analysis, each premise derivative) a context built
from the specification can spawn.  Denotations of terms and rules are
mutually recursive — a rule's denotation folds the denotation of its
target, which applies operators whose denotations come from their rules —
so both are computed together as the least fixed point of a joint step
function, solved one strongly connected component of the dependency graph
at a time (see :func:`lfp_denotations`): an entry on no cycle is stepped
once, a count that a cycle pumps for ever is promoted to ``INF``, and a
cycle whose masses move for ever is replaced by a checked post-fixed
point.

Operators applied to distribution terms are coarsened to a single
generator: the least probabilistic multiplicity covering every rule of the
operator, further raised by one copy of each source variable the rule
tests, because testing a distribution's states discriminates them as
effectively as running one copy; without that correction the bound is
unsound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .frontend import Rule, SpecDocument
from .graphs import strongly_connected_components
from .multiplicity import (D_ZERO, GenSet, INF, Multiplicity,
                           P_ZERO, ProbMultiplicity, ProcessDistance,
                           ext_leq, genset_equiv, genset_leq,
                           genset_normalize, m_scale,
                           m_sum, mult, p_sum, sup_approx, sup_is_exact,
                           unit, weighting_of, da)
from .terms import (Apply, ConvexSum, DistApply, DistVariable, InstDirac,
                    StateTerm, Term, Var, Variable, check_arities,
                    immediate_subterms, substitute)


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
    Subterms form no cycle, so each component of their graph is one term."""
    return [u for u, in strongly_connected_components([t],
                                                      immediate_subterms)]


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
    reads its table of tracked entries; a query reads the memo that
    :meth:`Denotations.genset` fills innermost first.
    An operator's summaries are memoised by the operator and the values
    of its rules in ``rho``, so a changed value finds no stale summary.
    """

    def __init__(self, doc: SpecDocument,
                 rules_by_op: Mapping[str, tuple[Rule, ...]],
                 rho: Mapping[Rule, GenSet],
                 lookup: Callable[[Term], GenSet]):
        self.doc = doc
        self.rules_by_op = rules_by_op
        self.rho = rho
        self.lookup = lookup
        self.over_approximated = False
        self._state_cache: dict[tuple, GenSet] = {}
        self._dist_cache: dict[tuple, GenSet] = {}

    def _key(self, op: str) -> tuple:
        return (op, *(self.rho[r] for r in self.rules_by_op.get(op, ())))

    def rho_state(self, op: str) -> GenSet:
        key = self._key(op)
        if key not in self._state_cache:
            self._state_cache[key] = genset_normalize(
                p for gs in key[1:] for p in gs) if key[1:] else D_ZERO
        return self._state_cache[key]

    def rho_dist(self, op: str) -> GenSet:
        key = self._key(op)
        if key not in self._dist_cache:
            rules = self.rules_by_op.get(op, ())
            gens = [p for gs in key[1:] for p in gs]
            self.over_approximated |= not sup_is_exact(gens)
            tested = [ProbMultiplicity.dirac(unit(*r.tested_sources()))
                      for r in rules]
            self._dist_cache[key] = GenSet(
                (sup_approx(gens + tested),)) if rules else D_ZERO
        return self._dist_cache[key]

    def term_step(self, t: Term) -> GenSet:
        if isinstance(t, (Variable, DistVariable)):
            return GenSet((ProbMultiplicity.dirac(unit(t)),))
        if isinstance(t, InstDirac):
            return self.lookup(t.term)
        if isinstance(t, ConvexSum):
            weights = tuple(q for _, q in t.entries)
            gensets = tuple(self.lookup(theta) for theta, _ in t.entries)
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
# Least fixed point, one dependency component at a time
# ---------------------------------------------------------------------------

@dataclass
class Denotations:
    """Result of the joint fixpoint: tracked denotations plus per-operator
    summaries, and honesty flags when the result is an upper bound rather
    than the exact least fixed point.  ``iterations`` is the most rounds
    any dependency component took.

    ``tau``, ``rho``, ``widened_vars`` and ``over_approximated`` describe
    the fixpoint alone: queries through :meth:`genset` never change them,
    so one instance can serve every caller.  The document's
    ``"fixpoints"`` memo table owns that instance (see
    :func:`lfp_denotations`); the instance owns the memo of query terms.
    """

    doc: SpecDocument
    tau: dict[Term, GenSet]
    rho: dict[Rule, GenSet]
    rules_by_op: dict[str, tuple[Rule, ...]]
    iterations: int
    widened_vars: frozenset[Var]
    over_approximated: bool
    _memo: dict[Term, GenSet] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._step = _StepContext(self.doc, self.rules_by_op, self.rho,
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


def _widen(gs: GenSet, xs: set[Var]) -> GenSet:
    """``gs`` with every positive count of a variable in ``xs`` at INF."""
    return genset_normalize(ProbMultiplicity.from_pairs(
        (mult({x: INF if x in xs else n for x, n in m.entries}), q)
        for m, q in p) for p in gs)


def _inf_on(xs) -> GenSet:
    """The point mass at INF on every variable of ``xs``."""
    return GenSet((ProbMultiplicity.dirac(mult({x: INF for x in xs})),))


def lfp_denotations(doc: SpecDocument) -> Denotations:
    """Compute the joint least fixed point of the term and rule clauses.

    Entries are the canonical rules, their targets with all subterms and
    every operator's generic application.  An entry reads its immediate
    subterms and, for an application, its operator's rules; a rule reads
    its target.  The strongly connected components of this graph are
    solved inputs first.  An entry on no cycle is stepped once.  A cyclic
    component ``C`` is iterated in rounds from zero, each entry stepped
    from the previous round, until a round changes nothing.  A round
    after the first steps only the entries with an input that the previous
    round changed: a step reads only its inputs, so any other entry would
    get its last value again, grow no count and change no flag (semi-naive
    evaluation, Bancilhon & Ramakrishnan, SIGMOD 1986).  Let ``P`` be
    the number of pairs (entry of ``C``, variable) with a positive count so
    far: in a round after round ``P``, a variable whose largest expected
    count at an entry still grows is promoted to ``INF`` there for good.
    Such a round that promotes no new pair but still changes ``C`` jumps
    instead: each entry becomes the point mass at ``INF`` on the variables
    its iterates touched, and these count as widened and the result as
    over-approximated.

    This pumping test fires exactly on the counts that plain iteration
    never settles.  On largest expected counts, each clause is a maximum
    over generators of sums and products, with positive coefficients, of
    the counts its inputs hold.  So the count round ``k`` gives a pair is
    that of its best derivation of height at most ``k``: a tree of pairs
    of ``C`` whose leaves read only constants and entries outside ``C``.
    Let a count grow in round ``k > P`` and take a smallest best derivation
    of it.  Round ``k - 1`` did not reach it, so it has a path of ``k``
    pairs, and as ``k > P`` the path repeats one.  Cutting out the loop
    between the repeats leaves a smaller derivation, so a worse one: the
    loop raises the count.  Inserting it once more raises it again, in a
    later round, and so on for ever.  The limit is infinitely many copies,
    or a distribution over unboundedly many, and ``INF`` bounds both.  A
    count that settles never grows after round ``P``, so where plain
    iteration reaches the least fixed point, that is the result.  The
    bound counts pairs, not entries: a rule that permutes its variables
    carries a count round its cycle once per variable before it settles.

    The jump, too, fires only where plain iteration never settles.  If a
    count of ``C`` was promoted, it grows for ever, as above.  Otherwise
    mass moved in round ``k > P``.  On masses the clauses are again sums
    and products with positive coefficients, so the mass round ``k`` puts
    on a multiplicity is the weight of its derivations of height at most
    ``k``.  A node holding no positive count can be cut to a leaf of the
    zero start, so the lowest derivation of the moved mass has a path of
    ``k`` entries that hold a positive count.  At most ``P`` entries do,
    so the path repeats one, and inserting the loop once more moves mass
    again in a later round, and so on for ever.  Such limits, like the
    least root of ``q = 1/3 + 2/3*q**2`` for the rule
    ``p(x1) --a--> 1/3*delta(x1) + 2/3*delta(p(p(x1)))``, are irrational
    in general (Etessami & Yannakakis, JACM 2009).

    The point ``v`` is a post-fixed point, ``F(v) <= v``, so it lies above
    the least fixed point (Park induction).  Whether a step gives an entry
    a positive count of a variable depends only on the variables its
    inputs touch: weights are positive, copies of a generator touch its
    variables, and normalising drops only generators below kept ones,
    which touch their variables too.  A new pair is a count that grows,
    so the round that jumps added none: the touched sets are at their
    fixed point, and a step from ``v`` stays below it.  ``genset_leq``
    checks that exactly, also under ``python -O``: a failure is a bug.

    The rounds end: pairs are finitely many, so from some round on every
    round is past ``P`` and settles ``C``, promotes a new pair or jumps.
    The result is kept in the document's ``"fixpoints"`` memo table.
    """
    memo = doc.memo("fixpoints")
    cached = memo.get("denotations")
    if cached is not None:
        return cached
    rules = tuple(canonical_rule(r) for r in doc.rules)
    rules_by_op: dict[str, tuple[Rule, ...]] = {}
    for r in rules:
        rules_by_op[r.op] = rules_by_op.get(r.op, ()) + (r,)
    roots = [r.target for r in rules] + [
        generic_application(doc, op)[0] for op, _ in doc.signature.operators]
    tracked = list(dict.fromkeys(u for t in roots for u in subterms(t)))

    # inputs[e]: the terms and rules whose values e's step clause reads
    inputs: dict[object, tuple] = {r: (r.target,) for r in rules}
    for t in tracked:
        inputs[t] = immediate_subterms(t)
        if isinstance(t, (Apply, DistApply)):
            inputs[t] += rules_by_op.get(t.op, ())

    # One table serves as ``rho`` and ``lookup`` alike, and one context
    # steps every entry.
    value: dict[object, GenSet] = dict.fromkeys(inputs, D_ZERO)
    ctx = _StepContext(doc, rules_by_op, value, value.__getitem__)
    over_approx = False
    widened_vars: set[Var] = set()
    iterations = 1

    def step(e: object) -> GenSet:
        return ctx.rule_step(e) if isinstance(e, Rule) else ctx.term_step(e)

    def write(updates: Mapping[object, GenSet]) -> set:
        changed = {e for e, gs in updates.items() if gs != value[e]}
        value.update(updates)
        return changed

    for comp in strongly_connected_components([*tracked, *rules],
                                              inputs.__getitem__):
        if len(comp) == 1 and comp[0] not in inputs[comp[0]]:
            value[comp[0]] = step(comp[0])
            continue
        measures: dict[object, dict[Var, object]] = {e: {} for e in comp}
        forced: dict[object, set[Var]] = {e: set() for e in comp}
        changed = set(comp)
        for n in itertools.count(1):
            # an entry none of whose inputs changed keeps its value
            new = {e: step(e) for e in comp
                   if not changed.isdisjoint(inputs[e])}
            grown: dict[object, list[Var]] = {}
            for e, gs in new.items():
                measure = _measure(gs)
                grown[e] = [x for x, v in measure.items()
                            if not ext_leq(v, measures[e].get(x, 0))]
                measures[e] = measure
            pumping = n > sum(map(len, measures.values()))
            promotes = any(not forced[e].issuperset(grown[e]) for e in new)
            for e in new:
                if pumping:
                    forced[e].update(grown[e])
                # pumped for good: a step from unpumped inputs would undo it
                if forced[e]:
                    new[e] = _widen(new[e], forced[e])
            settled = all(genset_equiv(gs, value[e]) for e, gs in new.items())
            if pumping and not promotes and not settled:
                # only masses still move: jump to the point at INF
                forced = {e: set(measures[e]) for e in comp}
                write({e: _inf_on(forced[e]) for e in comp})
                if not all(genset_leq(step(e), value[e]) for e in comp):
                    ops = sorted({e.op for e in comp if hasattr(e, "op")})
                    raise RuntimeError(
                        f"denotations of {', '.join(ops)}: the point at inf "
                        f"is not a post-fixed point")
                over_approx = True
                break
            changed = write(new)
            if settled:
                break
        iterations = max(iterations, n)
        widened_vars.update(*forced.values())

    den = memo["denotations"] = Denotations(
        doc, {t: value[t] for t in tracked}, {r: value[r] for r in rules},
        rules_by_op, iterations, frozenset(widened_vars),
        over_approx or ctx.over_approximated)
    return den


def bound_distance(doc: SpecDocument, t: StateTerm,
                   e: ProcessDistance) -> Fraction:
    """Upper bound on the distance between any two closed instances of
    ``t`` whose per-variable distances are below ``e``."""
    return da(lfp_denotations(doc).genset(t), e)
