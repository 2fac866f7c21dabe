"""The three-layer multiplicity domain and its distance functionals.

A *multiplicity* records, per variable, how many copies of the process bound
to that variable a context can spawn (a natural number or ``INF``).  On top
of that sit *probabilistic multiplicities* (finite distributions over
multiplicities) and finite generator sets representing downward-closed sets
of probabilistic multiplicities.  The functionals ``dda``/``pda``/``da``
turn each layer into an upper bound on behavioural distance: a context that
spawns ``m(x)`` copies of an argument at distance ``e(x)`` can tell the two
instances apart with probability at most ``1 - prod_x (1-e(x))**m(x)``.

Every value of the domain is hash-consed like a term (``terms._Node``):
equal values are one object while they live, so equality is identity,
except that a probabilistic multiplicity compares as a map, like every
distribution.

The probabilistic order ``p_leq`` is decided exactly by rational linear
feasibility.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .lp import Infeasible, simplex_min
from .terms import Distribution, Var, _Node, format_rational


class _Infinity:
    """The absorbing top count.  A unique sentinel, deliberately not a float
    so that arithmetic goes through the explicit helpers below."""

    _instance = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INF = _Infinity()

Count = Union[int, _Infinity]
ExtRational = Union[Fraction, int, _Infinity]


def ext_add(a: ExtRational, b: ExtRational) -> ExtRational:
    if a is INF or b is INF:
        return INF
    return a + b


def ext_mul(a: ExtRational, b: ExtRational) -> ExtRational:
    """Extended product with the convention 0*inf = 0."""
    if a is INF:
        return 0 if b == 0 else INF
    if b is INF:
        return 0 if a == 0 else INF
    return a * b


def ext_leq(a: ExtRational, b: ExtRational) -> bool:
    if b is INF:
        return True
    if a is INF:
        return False
    return a <= b


def ext_max(a: ExtRational, b: ExtRational) -> ExtRational:
    return b if ext_leq(a, b) else a


def format_count(n: ExtRational) -> str:
    if n is INF:
        return "inf"
    if isinstance(n, Fraction):
        return format_rational(n)
    return str(n)


class _VarMap(_Node):
    """A finitely supported map from variables, as ``entries`` sorted by
    :func:`_by_var`; zero entries are never stored, so each map has one
    form.  ``zero`` is the value of every other variable."""

    __slots__ = ()
    entries: tuple
    zero: object = 0

    def get(self, x: Var):
        for y, v in self.entries:
            if y == x:
                return v
        return self.zero

    def vars(self) -> tuple[Var, ...]:
        return tuple(x for x, _ in self.entries)

    def __str__(self) -> str:
        inner = ", ".join(f"{x.name}:{format_count(v)}" for x, v in self.entries)
        return "{" + inner + "}"


def _by_var(kept: Mapping[Var, object]) -> tuple:
    """A map's entries in canonical variable order: by name, then kind."""
    return tuple(sorted(kept.items(), key=lambda it: (it[0].name, it[0].kind)))


# ---------------------------------------------------------------------------
# Layer M: multiplicities
# ---------------------------------------------------------------------------

class Multiplicity(_VarMap):
    """Finitely supported map from variables to counts in N u {inf}."""

    __slots__ = ("entries",)
    entries: tuple[tuple[Var, Count], ...]

    def pointwise_leq(self, other: "Multiplicity") -> bool:
        return all(ext_leq(n, other.get(x)) for x, n in self.entries)

    def sort_key(self) -> tuple:
        return tuple((x.name, x.kind, n is INF, 0 if n is INF else n)
                     for x, n in self.entries)


def mult(entries: Mapping[Var, Count] | Iterable[tuple[Var, Count]]) -> Multiplicity:
    """Canonical multiplicity from a mapping; zero entries are dropped."""
    items = entries.items() if isinstance(entries, Mapping) else entries
    kept: dict[Var, Count] = {}
    for x, n in items:
        if n is not INF and (not isinstance(n, int) or n < 0):
            raise ValueError(f"multiplicity value {n!r} for {x.name}")
        if n is INF or n > 0:
            kept[x] = n
    return Multiplicity(_by_var(kept))


def unit(*xs: Var) -> Multiplicity:
    """The multiplicity with one copy of each given variable."""
    return mult({x: 1 for x in xs})


M_ZERO = Multiplicity(())


def m_sum(m1: Multiplicity, m2: Multiplicity) -> Multiplicity:
    """Pointwise addition; inf is absorbing."""
    out: dict[Var, Count] = dict(m1.entries)
    for x, n in m2.entries:
        out[x] = ext_add(out.get(x, 0), n)
    return mult(out)


def m_scale(k: Count, m: Multiplicity) -> Multiplicity:
    if k == 0:
        return M_ZERO
    return mult({x: ext_mul(k, n) for x, n in m.entries})


def m_pointwise_max(ms: Iterable[Multiplicity]) -> Multiplicity:
    out: dict[Var, Count] = {}
    for m in ms:
        for x, n in m.entries:
            out[x] = ext_max(out.get(x, 0), n)
    return mult(out)


# ---------------------------------------------------------------------------
# Layer P: probabilistic multiplicities
# ---------------------------------------------------------------------------

class ProbMultiplicity(Distribution):
    """Finite-support distribution over multiplicities.  Build one with
    :meth:`from_pairs`, which lists the entries in canonical order."""

    __slots__ = ("entries",)
    entries: tuple[tuple[Multiplicity, Fraction], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Multiplicity, Fraction]]
                   ) -> "ProbMultiplicity":
        # sorted first, so the merged entries come in canonical order
        pairs = list(pairs)
        if len(pairs) > 1:  # one pair is in canonical order already
            pairs.sort(key=lambda it: it[0].sort_key())
        return super().from_pairs(pairs)

    def is_dirac(self) -> bool:
        return len(self.entries) == 1

    def sort_key(self) -> tuple:
        return tuple((m.sort_key(), q) for m, q in self.entries)

    def __str__(self) -> str:
        if self.is_dirac():
            return str(self.entries[0][0])
        return " + ".join(f"{format_rational(q)}@{m}" for m, q in self.entries)


P_ZERO = ProbMultiplicity.dirac(M_ZERO)


def p_sum(p1: ProbMultiplicity, p2: ProbMultiplicity) -> ProbMultiplicity:
    """Image measure of the product ``p1 x p2`` under pointwise addition:
    the multiplicity of two independent draws added together.  ``P_ZERO``
    is its unit: with it, the other operand is the sum."""
    if p1 is P_ZERO:
        return p2
    if p2 is P_ZERO:
        return p1
    return ProbMultiplicity.from_pairs(
        (m_sum(m1, m2), q1 * q2) for m1, q1 in p1 for m2, q2 in p2)


# ---------------------------------------------------------------------------
# Weightings and process distances
# ---------------------------------------------------------------------------

class Weighting(_VarMap):
    """Expected number of copies per variable (a nonnegative rational or
    ``INF``)."""

    __slots__ = ("entries",)
    entries: tuple[tuple[Var, ExtRational], ...]
    zero = Fraction(0)


def weighting_of(p: ProbMultiplicity) -> Weighting:
    """Expected number of copies of each variable under ``p``; an ``INF``
    count carried with positive mass propagates to ``INF``."""
    acc: dict[Var, ExtRational] = {}
    for m, q in p.entries:
        for x, n in m.entries:
            acc[x] = ext_add(acc.get(x, Fraction(0)),
                             INF if n is INF else q * n)
    return Weighting(_by_var(acc))


class ProcessDistance(_VarMap):
    """Per-variable behavioural distance in [0,1)."""

    __slots__ = ("entries",)
    entries: tuple[tuple[Var, Fraction], ...]
    zero = Fraction(0)


def process_distance(entries: Mapping[Var, Fraction] | Iterable[tuple[Var, Fraction]],
                     ) -> ProcessDistance:
    items = entries.items() if isinstance(entries, Mapping) else entries
    kept: dict[Var, Fraction] = {}
    for x, v in items:
        v = Fraction(v)
        if not 0 <= v < 1:
            raise ValueError(f"process distance {v} for {x.name} outside [0,1)")
        if v != 0:
            kept[x] = v
    return ProcessDistance(_by_var(kept))


# ---------------------------------------------------------------------------
# The probabilistic order, decided by exact linear feasibility
# ---------------------------------------------------------------------------

def p_leq(p1: ProbMultiplicity, p2: ProbMultiplicity) -> bool:
    """Decide ``p1 <= p2`` in the probabilistic order.

    The order asks for a coupling ``w`` with marginals ``p1`` and ``p2``
    such that, for every column ``m`` of ``p2`` and every variable ``x``
    with ``m(x)`` finite, the mass-weighted count satisfies
    ``sum_{m'} w(m',m)*m'(x) <= (sum_{m'} w(m',m))*m(x)``; rows with an
    infinite count at ``x`` may only feed columns that are infinite at
    ``x``.  This is a rational feasibility problem.

    The expected counts refute it first, exactly: ``p1 <= p2`` implies
    ``weighting_of(p1) <= weighting_of(p2)`` at each ``x``.  A column
    infinite at ``x`` has positive mass, so ``p2``'s count is ``INF``;
    otherwise no row is infinite at ``x`` (it has mass and may feed no
    column), and summing the column constraints over the columns gives
    ``sum_{m'} p1(m')*m'(x) <= sum_m p2(m)*m(x)``.  For a Dirac ``p2`` the
    coupling is forced and this is the whole condition.
    """
    if p1 == p2:
        return True
    if p1.is_dirac():
        # a single row: every column receives only m1, whose conditional
        # weighting is m1 itself
        m1 = p1.support()[0]
        return all(m1.pointwise_leq(m2) for m2 in p2.support())
    w2 = weighting_of(p2)
    if not all(ext_leq(n, w2.get(x)) for x, n in weighting_of(p1).entries):
        return False
    return p2.is_dirac() or _p_leq_lp(p1, p2)


def _p_leq_lp(p1: ProbMultiplicity, p2: ProbMultiplicity) -> bool:
    rows = p1.support()
    cols = p2.support()
    pairs = [(i, j) for i, m1 in enumerate(rows) for j, m2 in enumerate(cols)
             if all(m2.get(x) is INF for x, n in m1.entries if n is INF)]
    if not pairs:
        return False
    index = {pair: k for k, pair in enumerate(pairs)}
    nvars = len(pairs)
    zero_row = [Fraction(0)] * nvars

    a_eq: list[list[Fraction]] = []
    b_eq: list[Fraction] = []
    for i, (_, q) in enumerate(p1.entries):
        row = zero_row.copy()
        for j in range(len(cols)):
            if (i, j) in index:
                row[index[(i, j)]] = Fraction(1)
        a_eq.append(row)
        b_eq.append(q)
    for j, (_, q) in enumerate(p2.entries):
        row = zero_row.copy()
        for i in range(len(rows)):
            if (i, j) in index:
                row[index[(i, j)]] = Fraction(1)
        a_eq.append(row)
        b_eq.append(q)

    a_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []
    for j, m2 in enumerate(cols):
        col_vars = {x for i, jj in pairs if jj == j for x in rows[i].vars()}
        for x in col_vars | set(m2.vars()):
            cap = m2.get(x)
            if cap is INF:
                continue
            row = zero_row.copy()
            touched = False
            for i, m1 in enumerate(rows):
                if (i, j) in index:
                    row[index[(i, j)]] = Fraction(m1.get(x)) - Fraction(cap)
                    touched = True
            if touched:
                a_ub.append(row)
                b_ub.append(Fraction(0))

    try:
        simplex_min([Fraction(0)] * nvars, a_eq, b_eq, a_ub, b_ub)
    except Infeasible:
        return False
    return True


# ---------------------------------------------------------------------------
# Layer D: finite generator sets for downward-closed sets
# ---------------------------------------------------------------------------

class GenSet(_Node):
    """Finite set of pairwise-incomparable generators; the denoted set is
    the downward closure.  Build via :func:`genset_normalize`."""

    __slots__ = ("generators",)
    generators: tuple[ProbMultiplicity, ...]

    def __new__(cls, generators: tuple[ProbMultiplicity, ...]) -> "GenSet":
        if not generators:
            raise ValueError("a generator set must be nonempty")
        return _Node.__new__(cls, generators)

    def __iter__(self) -> Iterator[ProbMultiplicity]:
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def __str__(self) -> str:
        return " | ".join(str(p) for p in self.generators)


D_ZERO = GenSet((P_ZERO,))


def genset_normalize(ps: Iterable[ProbMultiplicity]) -> GenSet:
    """Drop generators below another retained generator.  The downward
    closure is unchanged; of mutually equivalent generators the first in
    canonical order survives."""
    unique = set(ps)
    if not unique:
        raise ValueError("cannot normalize an empty generator collection")
    if len(unique) == 1:  # nothing to compare it with
        return GenSet(tuple(unique))
    unique = sorted(unique, key=lambda p: p.sort_key())
    kept: list[ProbMultiplicity] = []
    for i, p in enumerate(unique):
        dominated = False
        for j, q in enumerate(unique):
            if i == j or not p_leq(p, q):
                continue
            if not p_leq(q, p) or j < i:
                dominated = True
                break
        if not dominated:
            kept.append(p)
    return GenSet(tuple(kept))


def genset_leq(g1: GenSet, g2: GenSet) -> bool:
    """Hoare order: every generator of ``g1`` below some generator of ``g2``."""
    return all(any(p_leq(p1, p2) for p2 in g2) for p1 in g1)


def genset_equiv(g1: GenSet, g2: GenSet) -> bool:
    if g1 == g2:
        return True
    return genset_leq(g1, g2) and genset_leq(g2, g1)


def sup_approx(ps: Sequence[ProbMultiplicity]) -> ProbMultiplicity:
    """An upper bound of all inputs in the probabilistic order.

    For Dirac inputs this is the least upper bound (the Dirac at the
    pointwise maximum).  Otherwise the result is intentionally coarse —
    the Dirac at the pointwise maximum over every support multiplicity —
    which can strictly over-approximate; :func:`sup_is_exact` reports
    which case applied.
    """
    ps = list(ps)
    if not ps:
        raise ValueError("sup of an empty generator collection")
    top = m_pointwise_max(m for p in ps for m in p.support())
    return ProbMultiplicity.dirac(top)


def sup_is_exact(ps: Sequence[ProbMultiplicity]) -> bool:
    return all(p.is_dirac() for p in ps)


# ---------------------------------------------------------------------------
# Distance approximation from above
# ---------------------------------------------------------------------------

def dda(m: Multiplicity, e: ProcessDistance) -> Fraction:
    """``1 - prod_x (1-e(x))**m(x)``: the chance that at least one of the
    spawned copies exhibits the behavioural difference.  An infinite count
    at positive distance drives the bound to 1; at distance 0 it is inert.
    """
    prod = Fraction(1)
    for x, n in m.entries:
        eps = e.get(x)
        if eps == 0:
            continue
        if n is INF:
            return Fraction(1)
        prod *= (1 - eps) ** n
    return 1 - prod


def pda(p: ProbMultiplicity, e: ProcessDistance) -> Fraction:
    """Expected deterministic approximation over the multiplicity draw."""
    return sum((q * dda(m, e) for m, q in p), Fraction(0))


def da(g: GenSet, e: ProcessDistance) -> Fraction:
    """Maximum of ``pda`` over the generators; the sup over the denoted
    downward-closed set is attained there because ``pda`` is monotone."""
    return max(pda(p, e) for p in g)
