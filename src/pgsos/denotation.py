"""Canonical denotations of open terms in the multiplicity domain.

Every term gets a generator set describing how many copies of each free
variable (and, for rule analysis, each premise derivative) a context built
from the specification can spawn.  Denotations of terms and rules are
mutually recursive — a rule's denotation folds the denotation of its
target, which applies operators whose denotations come from their rules —
so both are entries of one least fixed point of a joint step function.
:class:`Denotations` is its one table, solved on demand one strongly
connected component of the dependency graph at a time, as in the local
solvers of Le Charlier & Van Hentenryck (1992) and Fecht & Seidl (SCP
1999): a query solves only what its term depends on and no earlier query
solved.  An entry on no cycle is stepped once, a count that a cycle pumps
for ever is promoted to ``INF``, and a cycle whose masses move for ever
is replaced by a checked post-fixed point.  Each entry carries the flags
of its own dependency cone.

Operators applied to distribution terms are coarsened to a single
generator: the least probabilistic multiplicity covering every rule of the
operator, further raised by one copy of each source variable the rule
tests, because testing a distribution's states discriminates them as
effectively as running one copy; without that correction the bound is
unsound.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping

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
    """Evaluates the step function clauses against one ``value`` table of
    terms and rules.

    An operator's summaries are memoised by the operator and the values
    of its rules, so a changed value finds no stale summary.
    ``coarsened`` holds the operators whose distribution-level summary
    over-approximated a non-Dirac supremum.
    """

    def __init__(self, doc: SpecDocument,
                 rules_by_op: Mapping[str, tuple[Rule, ...]],
                 value: Mapping[object, GenSet]):
        self.doc = doc
        self.rules_by_op = rules_by_op
        self.value = value
        self.coarsened: set[str] = set()
        self._state_cache: dict[tuple, GenSet] = {}
        self._dist_cache: dict[tuple, GenSet] = {}

    def _key(self, op: str) -> tuple:
        return (op, *(self.value[r] for r in self.rules_by_op.get(op, ())))

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
            if not sup_is_exact(gens):
                self.coarsened.add(op)
            tested = [ProbMultiplicity.dirac(unit(*r.tested_sources()))
                      for r in rules]
            self._dist_cache[key] = GenSet(
                (sup_approx(gens + tested),)) if rules else D_ZERO
        return self._dist_cache[key]

    def term_step(self, t: Term) -> GenSet:
        if isinstance(t, (Variable, DistVariable)):
            return GenSet((ProbMultiplicity.dirac(unit(t)),))
        if isinstance(t, InstDirac):
            return self.value[t.term]
        if isinstance(t, ConvexSum):
            weights = tuple(q for _, q in t.entries)
            gensets = tuple(self.value[theta] for theta, _ in t.entries)
            return convex_combine(weights, gensets)
        if isinstance(t, (Apply, DistApply)):
            rho_f = (self.rho_state(t.op) if isinstance(t, Apply)
                     else self.rho_dist(t.op))
            sources = generic_application(self.doc, t.op)[1]
            return compose_operator(rho_f, sources,
                                    tuple(self.value[a] for a in t.args))
        raise TypeError(f"not a term: {t!r}")

    def rule_step(self, rule: Rule) -> GenSet:
        target_gs = self.value[rule.target]
        return genset_normalize(fold_rule(p, rule) for p in target_gs)

    def step(self, e: object) -> GenSet:
        return self.rule_step(e) if isinstance(e, Rule) else self.term_step(e)


# ---------------------------------------------------------------------------
# Least fixed point, one dependency component at a time, on demand
# ---------------------------------------------------------------------------

_WIDENED, _OVER = 1, 2  # the bits of an entry's flags


class Denotations:
    """The one table of a document's joint fixpoint, solved on demand.

    Entries are terms and canonical rules, and ``value`` holds those
    solved so far: a query term is an entry like any other.  Values and
    flags depend on the document alone, so the document's ``"fixpoints"``
    memo table owns the instance (see :func:`lfp_denotations`) and every
    caller shares it.  ``iterations`` is the most rounds any component
    solved so far took.
    """

    def __init__(self, doc: SpecDocument):
        self.doc = doc
        self.rules_by_op = {op: tuple(map(canonical_rule, rules))
                            for op, rules in doc.rules_by_op.items()}
        self.value: dict[object, GenSet] = {}
        self.iterations = 1
        self._flags: dict[object, int] = {}
        self._step = _StepContext(doc, self.rules_by_op, self.value)

    def genset(self, t: Term) -> GenSet:
        """Denotation of an arbitrary term.  Raises
        :class:`ArityMismatch` or :class:`UndeclaredSymbol` for a term the
        signature does not admit."""
        if t not in self._flags:
            check_arities(t, self.doc.signature)
            self._solve(t)
        return self.value[t]

    def flags(self, t: Term) -> tuple[bool, bool]:
        """``(widened, over_approximated)`` for the denotation of ``t``:
        whether some entry it depends on, itself included, had a count
        promoted to ``INF``, and whether the value may lie above the least
        fixed point (a component jumped, or a distribution-level summary
        coarsened a non-Dirac supremum)."""
        self.genset(t)
        return bool(self._flags[t] & _WIDENED), bool(self._flags[t] & _OVER)

    def _inputs(self, e: object) -> tuple:
        """The entries whose values ``e``'s step reads: a rule reads its
        target, an application its arguments and its operator's rules, any
        other term its immediate subterms."""
        if isinstance(e, Rule):
            return (e.target,)
        if isinstance(e, (Apply, DistApply)):
            return e.args + self.rules_by_op.get(e.op, ())
        return immediate_subterms(e)

    def _solve(self, root: Term) -> None:
        """Solve the components that ``root`` depends on and that no
        earlier query solved.

        The strongly connected components of the graph of inputs are
        solved inputs first; the walk neither starts from nor enters a
        solved entry.  An entry on no cycle is stepped once.  A cyclic
        component ``C`` is iterated in rounds from zero, each entry stepped
        from the previous round, until a round changes nothing.  A round
        after the first steps only the entries with an input that the
        previous round changed: a step reads only its inputs, so any other
        entry would get its last value again and grow no count
        (semi-naive evaluation, Bancilhon & Ramakrishnan, SIGMOD 1986).
        Let ``P`` be the number of pairs (entry of ``C``, variable) with a
        positive count so far: in a round after round ``P``, a variable
        whose largest expected count at an entry still grows is promoted
        to ``INF`` there for good.  Such a round that promotes no new pair
        but still changes ``C`` jumps instead: each entry becomes the point
        mass at ``INF`` on the variables its iterates touched.

        This pumping test fires exactly on the counts that plain iteration
        never settles.  On largest expected counts, each clause is a
        maximum over generators of sums and products, with positive
        coefficients, of the counts its inputs hold.  So the count round
        ``k`` gives a pair is that of its best derivation of height at most
        ``k``: a tree of pairs of ``C`` whose leaves read only constants and
        entries outside ``C``.  Let a count grow in round ``k > P`` and take
        a smallest best derivation of it.  Round ``k - 1`` did not reach it,
        so it has a path of ``k`` pairs, and as ``k > P`` the path repeats
        one.  Cutting out the loop between the repeats leaves a smaller
        derivation, so a worse one: the loop raises the count.  Inserting
        it once more raises it again, in a later round, and so on for ever.
        The limit is infinitely many copies, or a distribution over
        unboundedly many, and ``INF`` bounds both.  A count that settles
        never grows after round ``P``, so where plain iteration reaches the
        least fixed point, that is the result.  The bound counts pairs, not
        entries: a rule that permutes its variables carries a count round
        its cycle once per variable before it settles.

        The jump, too, fires only where plain iteration never settles.  If
        a count of ``C`` was promoted, it grows for ever, as above.
        Otherwise mass moved in round ``k > P``.  On masses the clauses are
        again sums and products with positive coefficients, so the mass
        round ``k`` puts on a multiplicity is the weight of its derivations
        of height at most ``k``.  A node holding no positive count can be
        cut to a leaf of the zero start, so the lowest derivation of the
        moved mass has a path of ``k`` entries that hold a positive count.
        At most ``P`` entries do, so the path repeats one, and inserting the
        loop once more moves mass again in a later round, and so on for
        ever.  Such limits, like the least root of ``q = 1/3 + 2/3*q**2``
        for the rule ``p(x1) --a--> 1/3*delta(x1) + 2/3*delta(p(p(x1)))``,
        are irrational in general (Etessami & Yannakakis, JACM 2009).

        The point ``v`` is a post-fixed point, ``F(v) <= v``, so it lies
        above the least fixed point (Park induction).  Whether a step gives
        an entry a positive count of a variable depends only on the
        variables its inputs touch: weights are positive, copies of a
        generator touch its variables, and normalising drops only
        generators below kept ones, which touch their variables too.  A new
        pair is a count that grows, so the round that jumps added none: the
        touched sets are at their fixed point, and a step from ``v`` stays
        below it.  ``genset_leq`` checks that exactly, also under
        ``python -O``: a failure is a bug.

        The rounds end: pairs are finitely many, so from some round on
        every round is past ``P`` and settles ``C``, promotes a new pair or
        jumps.  All entries of ``C`` then get one set of flags: widened if
        a count was promoted, over-approximated if ``C`` jumped or one of
        its distribution-level applications coarsened a non-Dirac
        supremum, and each flag also if some input outside ``C`` has it.
        """
        flags, coarsened = self._flags, self._step.coarsened
        for comp in strongly_connected_components(
                [root], lambda e: [u for u in self._inputs(e)
                                   if u not in flags]):
            inputs = {e: self._inputs(e) for e in comp}
            if len(comp) == 1 and comp[0] not in inputs[comp[0]]:
                self.value[comp[0]] = self._step.step(comp[0])
                bits = 0
            else:
                bits = self._iterate(comp, inputs)
            for e in comp:
                if isinstance(e, DistApply) and e.op in coarsened:
                    bits |= _OVER
                for u in inputs[e]:
                    bits |= flags.get(u, 0)
            flags.update(dict.fromkeys(comp, bits))

    def _iterate(self, comp: list, inputs: Mapping[object, tuple]) -> int:
        """Solve the cyclic component ``comp`` in rounds, as
        :meth:`_solve` sets out, and return the flags it raised itself."""
        value, step = self.value, self._step.step
        value.update(dict.fromkeys(comp, D_ZERO))
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
                value.update({e: _inf_on(forced[e]) for e in comp})
                if not all(genset_leq(step(e), value[e]) for e in comp):
                    ops = sorted({e.op for e in comp if hasattr(e, "op")})
                    raise RuntimeError(
                        f"denotations of {', '.join(ops)}: the point at inf "
                        f"is not a post-fixed point")
                break
            changed = {e for e, gs in new.items() if gs != value[e]}
            value.update(new)
            if settled:
                break
        self.iterations = max(self.iterations, n)
        # a component that did not settle jumped
        return ((0 if settled else _OVER)
                | (_WIDENED if any(forced.values()) else 0))


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
    """The joint least fixed point of the term and rule clauses for
    ``doc``, as the :class:`Denotations` table kept in the document's
    ``"fixpoints"`` memo table: every caller shares one table, and each
    query solves only what no earlier one did."""
    memo = doc.memo("fixpoints")
    den = memo.get("denotations")
    if den is None:
        den = memo["denotations"] = Denotations(doc)
    return den


def bound_distance(doc: SpecDocument, t: StateTerm,
                   e: ProcessDistance) -> Fraction:
    """Upper bound on the distance between any two closed instances of
    ``t`` whose per-variable distances are below ``e``."""
    return da(lfp_denotations(doc).genset(t), e)
