"""Terms, variables, substitutions and finite-support distributions.

Two syntactic categories are defined over a signature of ranked operators:

* *state terms* — variables and operator applications, describing processes;
* *distribution terms* — distribution variables, instantiable point masses
  ``delta(t)``, convex combinations ``q1*th1 + ... + qn*thn`` and operator
  applications lifted to distributions.

All probabilities are exact :class:`fractions.Fraction` values and equality
of terms and distributions is structural, so every comparison in the rest of
the package is tolerance-free.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction
from typing import ClassVar, Iterable, Iterator, Mapping, Union
from weakref import WeakValueDictionary

from .errors import ArityMismatch, KindMismatch, UndeclaredSymbol


def format_rational(q: Fraction) -> str:
    """Render a rational bit-exactly as ``p/q`` (or ``p`` for integers)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Signature:
    """Ranked operator alphabet plus the (finite) action alphabet."""

    operators: tuple[tuple[str, int], ...]
    actions: tuple[str, ...]

    def __post_init__(self) -> None:
        seen = set()
        for sym, arity in self.operators:
            if sym in seen:
                raise ValueError(f"operator {sym!r} declared twice")
            if arity < 0:
                raise ValueError(f"operator {sym!r} has negative arity")
            seen.add(sym)

    def arity(self, symbol: str) -> int:
        for sym, arity in self.operators:
            if sym == symbol:
                return arity
        raise UndeclaredSymbol(f"operator {symbol!r} is not declared")

    def has_operator(self, symbol: str) -> bool:
        return any(sym == symbol for sym, _ in self.operators)


def _stored_hash(self) -> int:
    """The hash a frozen dataclass computes, stored at construction from
    the parts' stored hashes: a deep value hashes without recursion."""
    return self._hash


def _rebuild(self) -> tuple:
    # the stored hash holds only in this process (string hashing is
    # salted), so a copied or unpickled value computes its own
    return (self.__class__, tuple(getattr(self, f.name) for f in fields(self)))


# ---------------------------------------------------------------------------
# State terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Variable:
    """A state variable, a leaf of state terms.

    State and distribution variables live in disjoint namespaces: a
    variable's class is its kind, so ``Variable("x")`` and
    ``DistVariable("x")`` are different variables."""

    name: str
    kind: ClassVar[str] = "state"


state_var = Variable  # the library tour's name for building one


class Apply:
    """``op(args...)``, hash-consed: building a term equal to a live one
    returns that same object.

    Nodes come from one weak-valued unique table keyed by ``(op, args)``, so
    the table keeps no term alive.  The hash is computed once, at
    construction, and is the value a frozen dataclass with these two fields
    would compute, so sets and dicts of terms iterate in that order.
    Equality tests identity first and then compares structurally, so no
    answer depends on the table (a node copied or built concurrently is
    still equal to its twin).
    """

    __slots__ = ("op", "args", "_hash", "__weakref__")
    __match_args__ = ("op", "args")

    op: str
    args: tuple["StateTerm", ...]

    def __new__(cls, op: str, args: tuple["StateTerm", ...] = ()) -> "Apply":
        key = (op, args)
        node = _UNIQUE.get(key)
        if node is None:
            node = object.__new__(cls)
            object.__setattr__(node, "op", op)
            object.__setattr__(node, "args", args)
            object.__setattr__(node, "_hash", hash(key))
            _UNIQUE[key] = node
        return node

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    __hash__ = _stored_hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.op == other.op
                and self.args == other.args)

    def __repr__(self) -> str:
        return f"Apply(op={self.op!r}, args={self.args!r})"

    def __reduce__(self) -> tuple:
        # copies and unpickled terms are rebuilt through the table
        return (Apply, (self.op, self.args))


_UNIQUE: "WeakValueDictionary[tuple, Apply]" = WeakValueDictionary()


StateTerm = Union[Variable, Apply]


# ---------------------------------------------------------------------------
# Distribution terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistVariable:
    """A distribution variable, a leaf of distribution terms."""

    name: str
    kind: ClassVar[str] = "dist"


@dataclass(frozen=True)
class InstDirac:
    """``delta(t)`` — becomes the point mass at ``sigma(t)`` once closed."""

    term: StateTerm

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.term,)))

    __hash__, __reduce__ = _stored_hash, _rebuild


@dataclass(frozen=True, eq=False)
class ConvexSum:
    """``q1*th1 + ... + qn*thn`` with every ``q_i`` in (0,1] summing to 1.

    Use :func:`convex_sum` to build one; it flattens nested sums, merges
    syntactically equal summands and collapses the trivial single-summand
    case.  The summands keep the order they were written in, but equality
    and hashing compare them as a map from summands to weights, so two sums
    that differ only in that order are equal.
    """

    parts: tuple[tuple[Fraction, "DistTerm"], ...]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ConvexSum:
            return NotImplemented
        return (len(self.parts) == len(other.parts)
                and {t: q for q, t in self.parts}
                == {t: q for q, t in other.parts})

    __hash__, __reduce__ = _stored_hash, _rebuild

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("use convex_sum() to construct convex combinations")
        total = Fraction(0)
        for q, _ in self.parts:
            if not 0 < q <= 1:
                raise ValueError(f"convex weight {q} outside (0,1]")
            total += q
        if total != 1:
            raise ValueError(f"convex weights sum to {total}, expected 1")
        object.__setattr__(self, "_hash", hash(frozenset(self.parts)))


@dataclass(frozen=True)
class DistApply:
    op: str
    args: tuple["DistTerm", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.op, self.args)))

    __hash__, __reduce__ = _stored_hash, _rebuild


DistTerm = Union[DistVariable, InstDirac, ConvexSum, DistApply]
Term = Union[StateTerm, DistTerm]
Var = Union[Variable, DistVariable]  # a variable of either kind


def convex_sum(parts: Iterable[tuple[Fraction, DistTerm]]) -> DistTerm:
    """Build a convex combination of distribution terms: nested sums are
    flattened and equal summands merged, each where it first occurs."""
    merged: dict[DistTerm, Fraction] = {}
    for q, theta in parts:
        q = Fraction(q)
        for r, inner in (theta.parts if isinstance(theta, ConvexSum)
                         else ((1, theta),)):
            merged[inner] = merged.get(inner, Fraction(0)) + q * r
    if len(merged) == 1:
        [(theta, q)] = merged.items()
        if q != 1:
            raise ValueError(f"convex weights sum to {q}, expected 1")
        return theta
    return ConvexSum(tuple((q, theta) for theta, q in merged.items()))


# ---------------------------------------------------------------------------
# Rendering (the concrete syntax shared with the CLI)
# ---------------------------------------------------------------------------

def format_term(t: Term) -> str:
    """Render a term in the concrete syntax.

    Emits the text left to right from an explicit stack of terms and
    literal pieces, so the depth of ``t`` is not limited by the
    interpreter's recursion limit.  Rendering is injective: distinct terms
    have distinct texts."""
    out: list[str] = []
    stack: list = [t]
    push, emit = stack.append, out.append
    while stack:
        u = stack.pop()
        cls = u.__class__
        if cls is str:
            emit(u)
        elif cls is Apply or cls is DistApply:
            args = u.args
            if not args:
                emit(u.op)
            else:
                emit(u.op + "(")
                push(")")
                i = len(args) - 1
                while i:
                    push(args[i])
                    push(", ")
                    i -= 1
                push(args[0])
        elif cls is Variable or cls is DistVariable:
            emit(u.name)
        elif cls is InstDirac:
            emit("delta(")
            push(")")
            push(u.term)
        elif cls is ConvexSum:
            for i in range(len(u.parts) - 1, -1, -1):
                q, theta = u.parts[i]
                if theta.__class__ is ConvexSum:
                    stack += (")", theta, "(")
                else:
                    push(theta)
                push(f"{format_rational(q)}*")
                if i:
                    push(" + ")
        else:
            raise TypeError(f"not a term: {u!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Variables and substitution
# ---------------------------------------------------------------------------

def immediate_subterms(t: Term) -> tuple[Term, ...]:
    """The subterms one level below ``t``, left to right."""
    cls = t.__class__
    if cls is Apply or cls is DistApply:
        return t.args
    if cls is Variable or cls is DistVariable:
        return ()
    if cls is InstDirac:
        return (t.term,)
    if cls is ConvexSum:
        return tuple(theta for _, theta in t.parts)
    raise TypeError(f"not a term: {t!r}")


def free_vars(t: Term) -> frozenset[Var]:
    """The set of all state and distribution variables occurring in ``t``.

    Walks an explicit stack, so the depth of ``t`` is not limited by the
    interpreter's recursion limit; an application shared by identity, as
    hash-consed ones are, is walked once."""
    out: set[Var] = set()
    seen: set[int] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        cls = u.__class__
        if cls is Variable or cls is DistVariable:
            out.add(u)
        elif cls is not Apply:
            stack.extend(immediate_subterms(u))
        elif id(u) not in seen:
            seen.add(id(u))
            stack.extend(u.args)
    return frozenset(out)


Substitution = Mapping[Var, Term]


def substitute(t: Term, sigma: Substitution) -> Term:
    """Apply ``sigma`` homomorphically; unknown variables map to themselves.

    Raises :class:`KindMismatch` if a state variable is sent to a
    distribution term or a distribution variable to a state term.  Walks an
    explicit stack, so the depth of ``t`` is not limited by the
    interpreter's recursion limit; an application shared by identity is
    rebuilt once, and variables are visited left to right.
    """
    images: list[Term] = []        # the images of finished subterms
    done: dict[int, Apply] = {}    # by id: hash-consing shares applications
    stack: list = [t]
    while stack:
        u = stack.pop()
        cls = u.__class__
        if cls is tuple:  # (node, n): the last n images are its subterms'
            u, n = u
            cls = u.__class__
            new = tuple(images[-n:])
            del images[-n:]
            if cls is Apply:
                image = done[id(u)] = Apply(u.op, new)
            elif cls is DistApply:
                image = DistApply(u.op, new)
            elif cls is InstDirac:
                image = InstDirac(new[0])
            else:
                image = convex_sum(zip([q for q, _ in u.parts], new))
        elif cls is Variable or cls is DistVariable:
            image = sigma.get(u, u)
            if (cls is Variable) != (image.__class__ in (Variable, Apply)):
                raise KindMismatch(
                    f"state variable {u.name} mapped to distribution term"
                    if cls is Variable else
                    f"distribution variable {u.name} mapped to state term")
        elif id(u) in done:
            image = done[id(u)]
        else:
            kids = immediate_subterms(u)
            if not kids:
                image = u
            else:
                stack.append((u, len(kids)))
                stack += reversed(kids)
                continue
        images.append(image)
    return images[0]


# ---------------------------------------------------------------------------
# Finite-support distributions over closed state terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """A probability distribution with finite support over closed state terms.

    Only the support is stored (all masses strictly positive) and masses sum
    to exactly 1.  Entries keep the order they were first given in, but
    equality and hashing compare them as a map from terms to masses, so
    that order is not part of the value.
    """

    _items: tuple[tuple[StateTerm, Fraction], ...]

    def __post_init__(self) -> None:
        total = Fraction(0)
        for t, q in self._items:
            if q <= 0:
                raise ValueError(f"non-positive mass {q} on {format_term(t)}")
            total += q
        if total != 1:
            raise ValueError(f"masses sum to {total}, expected 1")
        object.__setattr__(self, "_hash", hash(frozenset(self._items)))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not FiniteDistribution:
            return NotImplemented
        return (self._hash == other._hash
                and len(self._items) == len(other._items)
                and dict(self._items) == dict(other._items))

    __hash__, __reduce__ = _stored_hash, _rebuild

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[StateTerm, Fraction]]) -> "FiniteDistribution":
        merged: dict[StateTerm, Fraction] = {}
        for t, q in pairs:
            merged[t] = merged.get(t, Fraction(0)) + Fraction(q)
        return FiniteDistribution(tuple((t, q) for t, q in merged.items()
                                        if q != 0))

    @staticmethod
    def dirac(t: StateTerm) -> "FiniteDistribution":
        return FiniteDistribution(((t, Fraction(1)),))

    def items(self) -> tuple[tuple[StateTerm, Fraction], ...]:
        return self._items

    def support(self) -> tuple[StateTerm, ...]:
        return tuple(t for t, _ in self._items)

    def mass(self, t: StateTerm) -> Fraction:
        for s, q in self._items:
            if s == t:
                return q
        return Fraction(0)

    def __iter__(self) -> Iterator[tuple[StateTerm, Fraction]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __str__(self) -> str:
        """The support sorted by its text, so the rendering is canonical."""
        return " + ".join(f"{format_rational(q)}*{text}" for text, q in
                          sorted((format_term(t), q) for t, q in self._items))


def instantiate(theta: DistTerm, states: Mapping[Variable, StateTerm],
                dists: Mapping[DistVariable, FiniteDistribution]
                ) -> FiniteDistribution:
    """The distribution ``theta`` denotes with its state variables bound
    by ``states`` and its distribution variables by ``dists``: ``delta(t)``
    is the point mass at ``t`` instantiated, sums mix pointwise, and
    ``f(th_1, ..., th_n)`` puts mass ``prod_i pi_i(t_i)`` on ``f(t_1, ...,
    t_n)``.  A state reached twice is merged where it first occurs.
    Raises :class:`ValueError` on an unbound distribution variable."""
    if theta.__class__ is DistVariable and theta in dists:
        return dists[theta]
    return FiniteDistribution(tuple(_pairs(theta, states, dists)))


def _pairs(theta, states, dists) -> Iterable[tuple[StateTerm, Fraction]]:
    """The entries of :func:`instantiate`, each state once, summing to 1."""
    cls = theta.__class__
    if cls is DistVariable:
        if theta not in dists:
            raise ValueError(f"distribution term is not closed: {theta.name}")
        return dists[theta]._items
    if cls is InstDirac:
        return ((substitute(theta.term, states), _ONE),)
    if cls is ConvexSum:
        merged: dict[StateTerm, Fraction] = {}
        for q, part in theta.parts:
            pairs = _pairs(part, states, dists)
            for t, r in pairs:
                m = q * r if len(pairs) > 1 else q
                merged[t] = merged[t] + m if t in merged else m
        return merged.items()
    if cls is DistApply:
        combos = [((), _ONE)]
        for arg in theta.args:
            pairs = _pairs(arg, states, dists)
            combos = [(prefix + (t,), q * r if len(pairs) > 1 else q)
                      for prefix, q in combos for t, r in pairs]
        return [(Apply(theta.op, prefix), q) for prefix, q in combos]
    raise TypeError(f"not a distribution term: {theta!r}")


_ONE = Fraction(1)


def check_arities(t: Term, sig: Signature) -> None:
    """Verify every operator in ``t`` is declared with the arity used.

    Operators are checked outermost first, left to right, so the error
    reported is the one at the first offending operator in the text.  Like
    :func:`free_vars`, walks an explicit stack and each shared node once."""
    seen: set[int] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is not Apply and u.__class__ is not DistApply:
            stack.extend(reversed(immediate_subterms(u)))
        elif id(u) not in seen:
            seen.add(id(u))
            expected = sig.arity(u.op)
            if expected != len(u.args):
                raise ArityMismatch(
                    f"{u.op} expects {expected} argument(s), got {len(u.args)}")
            stack.extend(reversed(u.args))
