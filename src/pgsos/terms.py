"""Terms, variables, substitutions and finite-support distributions.

Two syntactic categories are defined over a signature of ranked operators:

* *state terms* — variables and operator applications, describing processes;
* *distribution terms* — distribution variables, instantiable point masses
  ``delta(t)``, convex combinations ``q1*th1 + ... + qn*thn`` and operator
  applications lifted to distributions.

Every term, variable, rule and distribution is hash-consed: it is built
through one weak table, so equal values are one object while they live,
and equality is identity, except that a distribution compares as a map
from points to masses.  All probabilities are exact
:class:`fractions.Fraction` values, so every comparison in the rest of the
package is tolerance-free.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Iterator, Mapping, Union
from weakref import KeyedRef

from .errors import ArityMismatch, KindMismatch, UndeclaredSymbol


def format_rational(q: Fraction) -> str:
    """Render a rational bit-exactly as ``p/q`` (or ``p`` for integers), at
    any length: ``Decimal`` prints integers past ``str``'s digit limit."""
    if q.denominator == 1:
        return str(Decimal(q.numerator))
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


@dataclass(frozen=True)
class Signature:
    """Ranked operator alphabet plus the (finite) action alphabet."""

    operators: tuple[tuple[str, int], ...]
    actions: tuple[str, ...]

    @cached_property
    def arities(self) -> dict[str, int]:
        """Each operator's arity, by name."""
        return dict(self.operators)

    def arity(self, symbol: str) -> int:
        if symbol not in self.arities:
            raise UndeclaredSymbol(f"operator {symbol!r} is not declared")
        return self.arities[symbol]


class _Node:
    """An immutable value built through one weak-valued unique table, so
    every term, variable, rule, distribution and multiplicity value is one
    object per value while it lives, and equality is identity.

    A subclass lists its fields in ``__slots__``; the table is keyed by the
    class and the fields and keeps no value alive.  Copies and unpickled
    values are rebuilt through the table: the same object.
    """

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls, fields)
        node = ref() if (ref := _TABLE.get(key)) is not None else None
        if node is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes {cls.__slots__}")
            node = cls._build(fields)
            _TABLE[key] = KeyedRef(node, _drop, key)
        return node

    @classmethod
    def _build(cls, fields: tuple) -> "_Node":
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
        return node

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({', '.join(shown)})"

    def __reduce__(self) -> tuple:
        return (self.__class__,
                tuple(getattr(self, name) for name in self.__slots__))


_TABLE: dict[object, KeyedRef] = {}  # table key -> weak reference to its node


def _drop(ref: KeyedRef) -> None:
    """Delete a dead node's entry, unless a rebuilt node has taken it."""
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


class Distribution(_Node):
    """A finite distribution: ``entries`` pairs each point of its support
    with its mass, every mass positive and all summing to exactly 1.

    Entries keep the order they were given in, which is part of the table
    key.  Unlike other nodes, a distribution compares and hashes as a map
    from points to masses, its hash stored at construction: two orders of
    one distribution are two equal nodes, and the table finds a node above
    one from either order.  A subclass names the points and declares the
    ``entries`` slot.
    """

    __slots__ = ("_hash",)
    entries: tuple
    _masses = "masses"  # what errors call them

    def __new__(cls, entries: tuple):
        key = _EntriesKey(cls, entries)
        node = ref() if (ref := _TABLE.get(key)) is not None else None
        if node is None:
            num, den = 0, 1  # the sum so far, over the lcm of denominators
            for _, q in entries:
                n, d = q.as_integer_ratio()
                if n <= 0:
                    raise ValueError(f"{cls._masses} must be positive, "
                                     f"got {format_rational(q)}")
                g = gcd(den, d)
                num, den = num * (d // g) + n * (den // g), den // g * d
            if num != den:
                total = format_rational(Fraction(num, den))
                raise ValueError(f"{cls._masses} sum to {total}, expected 1")
            node = cls._build((entries,))
            object.__setattr__(node, "_hash", key.hash)
            _TABLE[key] = KeyedRef(node, _drop, key)
        return node

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash
                and len(self.entries) == len(other.entries)
                and dict(self.entries) == dict(other.entries))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, Fraction]]):
        """The distribution of ``pairs``: equal points merged where each
        first occurs, zero masses dropped."""
        merged: dict = {}
        for x, q in pairs:
            merged[x] = merged.get(x, Fraction(0)) + Fraction(q)
        return cls(tuple((x, q) for x, q in merged.items() if q != 0))

    @classmethod
    def dirac(cls, x):
        """The point mass at ``x``."""
        return cls(((x, _ONE),))

    def support(self) -> tuple:
        return tuple(x for x, _ in self.entries)

    def __iter__(self) -> Iterator[tuple[object, Fraction]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class _EntriesKey:
    """A distribution's table key: its class and entries in order, with
    the value hash computed once for the lookup, the store and the node."""

    __slots__ = ("cls", "entries", "hash")

    def __init__(self, cls: type, entries: tuple):
        self.cls, self.entries = cls, entries
        self.hash = hash(frozenset(entries))

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other: object) -> bool:
        return (other.__class__ is _EntriesKey and self.cls is other.cls
                and self.entries == other.entries)


_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# State terms
# ---------------------------------------------------------------------------

class Variable(_Node):
    """A state variable, a leaf of state terms.

    State and distribution variables live in disjoint namespaces: a
    variable's class is its kind, so ``Variable("x")`` and
    ``DistVariable("x")`` are different variables."""

    __slots__ = ("name",)
    name: str
    kind = "state"


state_var = Variable  # the library tour's name for building one


class Apply(_Node):
    """``op(args...)``, an operator applied to state terms."""

    __slots__ = ("op", "args")

    def __new__(cls, op: str, args: tuple["StateTerm", ...] = ()) -> "Apply":
        return _Node.__new__(cls, op, args)


StateTerm = Union[Variable, Apply]


# ---------------------------------------------------------------------------
# Distribution terms
# ---------------------------------------------------------------------------

class DistVariable(_Node):
    """A distribution variable, a leaf of distribution terms."""

    __slots__ = ("name",)
    name: str
    kind = "dist"


class InstDirac(_Node):
    """``delta(t)`` — becomes the point mass at ``sigma(t)`` once closed."""

    __slots__ = ("term",)
    term: StateTerm


class ConvexSum(Distribution):
    """``q1*th1 + ... + qn*thn``: a distribution over distribution terms,
    with ``entries`` the ``(th_i, q_i)`` pairs in the order written.

    Use :func:`convex_sum` to build one; it flattens nested sums, merges
    syntactically equal summands and collapses the trivial single-summand
    case.
    """

    __slots__ = ("entries",)
    entries: tuple[tuple["DistTerm", Fraction], ...]
    _masses = "convex weights"

    def __new__(cls, entries: tuple[tuple["DistTerm", Fraction], ...]
                ) -> "ConvexSum":
        if len(entries) < 2:
            raise ValueError("use convex_sum() to construct convex combinations")
        return Distribution.__new__(cls, entries)


class DistApply(_Node):
    """``op(th1, ..., thn)``, an operator lifted to distributions."""

    __slots__ = ("op", "args")

    def __new__(cls, op: str, args: tuple["DistTerm", ...] = ()
                ) -> "DistApply":
        return _Node.__new__(cls, op, args)


DistTerm = Union[DistVariable, InstDirac, ConvexSum, DistApply]
Term = Union[StateTerm, DistTerm]
Var = Union[Variable, DistVariable]  # a variable of either kind


def convex_sum(parts: Iterable[tuple[Fraction, DistTerm]]) -> DistTerm:
    """Build a convex combination of distribution terms from ``(weight,
    term)`` pairs: nested sums are flattened and equal summands merged,
    each where it first occurs, and a single summand is the term itself.
    Distinct unnested summands with ``Fraction`` weights are kept as is."""
    parts = tuple(parts)
    merged: dict[DistTerm, Fraction] = {theta: q for q, theta in parts}
    if len(merged) < len(parts) or not all(
            q.__class__ is Fraction and theta.__class__ is not ConvexSum
            for q, theta in parts):
        merged = {}
        for q, theta in parts:
            q = Fraction(q)
            for inner, r in (theta.entries if isinstance(theta, ConvexSum)
                             else ((theta, 1),)):
                merged[inner] = merged.get(inner, Fraction(0)) + q * r
    if len(merged) == 1:
        [(theta, q)] = merged.items()
        if q != 1:
            raise ValueError(f"convex weights sum to {q}, expected 1")
        return theta
    return ConvexSum(tuple(merged.items()))


# ---------------------------------------------------------------------------
# Rendering (the concrete syntax shared with the CLI)
# ---------------------------------------------------------------------------

class _Piece(str):
    """Literal text on :func:`format_term`'s stack, unlike any term."""

    __slots__ = ()


_CLOSE, _COMMA, _OPEN, _PLUS = map(_Piece, (")", ", ", "(", " + "))


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
        if cls is _Piece:
            emit(u)
        elif cls is Apply or cls is DistApply:
            args = u.args
            if not args:
                emit(u.op)
            else:
                emit(u.op + "(")
                push(_CLOSE)
                i = len(args) - 1
                while i:
                    push(args[i])
                    push(_COMMA)
                    i -= 1
                push(args[0])
        elif cls is Variable or cls is DistVariable:
            emit(u.name)
        elif cls is InstDirac:
            emit("delta(")
            push(_CLOSE)
            push(u.term)
        elif cls is ConvexSum:
            for i in range(len(u.entries) - 1, -1, -1):
                theta, q = u.entries[i]
                if theta.__class__ is ConvexSum:
                    stack += (_CLOSE, theta, _OPEN)
                else:
                    push(theta)
                push(_Piece(f"{format_rational(q)}*"))
                if i:
                    push(_PLUS)
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
        return t.support()
    raise TypeError(f"not a term: {t!r}")


def free_vars(t: Term) -> frozenset[Var]:
    """The set of all state and distribution variables occurring in ``t``."""
    return scan_term(t)[0]


def scan_term(t: Term, sig: Signature | None = None
              ) -> tuple[frozenset[Var], Exception | None]:
    """The variables occurring in ``t`` and, given ``sig``, the error at
    the first operator in the text (outermost first, left to right) not
    declared with the arity used, or ``None``: one walk, from an explicit
    stack, each subterm shared by identity once."""
    out: set[Var] = set()
    error = None
    seen: set[int] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        cls = u.__class__
        if cls is Variable or cls is DistVariable:
            out.add(u)
        elif id(u) not in seen:
            seen.add(id(u))
            if (sig is not None and error is None
                    and (cls is Apply or cls is DistApply)):
                try:
                    if sig.arity(u.op) != len(u.args):
                        raise ArityMismatch(
                            f"{u.op} expects {sig.arity(u.op)} argument(s), "
                            f"got {len(u.args)}")
                except (ArityMismatch, UndeclaredSymbol) as err:
                    error = err
            stack.extend(reversed(immediate_subterms(u)))
    return frozenset(out), error


Substitution = Mapping[Var, Term]


def substitute(t: Term, sigma: Substitution) -> Term:
    """Apply ``sigma`` homomorphically; unknown variables map to themselves.

    Raises :class:`KindMismatch` if a state variable is sent to a
    distribution term or a distribution variable to a state term.  Walks an
    explicit stack, so the depth of ``t`` is not limited by the
    interpreter's recursion limit; a subterm shared by identity is rebuilt
    once, and variables are visited left to right.
    """
    images: list[Term] = []        # the images of finished subterms
    done: dict[int, Term] = {}     # by id: hash-consing shares subterms
    stack: list = [t]
    while stack:
        u = stack.pop()
        cls = u.__class__
        if cls is tuple:  # (node, n): the last n images are its subterms'
            u, n = u
            cls = u.__class__
            new = tuple(images[-n:])
            del images[-n:]
            if cls is Apply or cls is DistApply:
                image = cls(u.op, new)
            elif cls is InstDirac:
                image = InstDirac(new[0])
            else:
                image = convex_sum(zip([q for _, q in u.entries], new))
            done[id(u)] = image
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

class FiniteDistribution(Distribution):
    """A probability distribution with finite support over closed state
    terms."""

    __slots__ = ("entries",)
    entries: tuple[tuple[StateTerm, Fraction], ...]

    def __str__(self) -> str:
        """The support sorted by its text, so the rendering is canonical."""
        return " + ".join(f"{format_rational(q)}*{text}" for text, q in
                          sorted((format_term(t), q) for t, q in self.entries))


# The codes of a compiled target's instructions, (code, operand, n): each
# pops n values and pushes one.
_ARG, _DERIV, _DIRAC, _LIFT, _APPLY, _SUM, _CONST = range(7)


def compile_target(theta: DistTerm, sources: tuple[Variable, ...],
                   derivatives: tuple[DistVariable, ...]) -> list[tuple]:
    """``theta`` as a postfix program for :func:`run_target`, which binds
    ``sources`` and ``derivatives`` by position.  Subterms come left to
    right; one that mentions neither is evaluated here, into a constant.
    An explicit stack, so no recursion limit bounds ``theta``'s depth."""
    arg = {x: i for i, x in enumerate(sources)}
    der = {x: k for k, x in enumerate(derivatives)}
    program: list[tuple] = []
    stack: list = [theta]
    while stack:
        u = stack.pop()
        cls = u.__class__
        if cls is tuple:  # an instruction, once its subterms are compiled
            operands = program[len(program) - u[2]:]
            if all(code == _CONST for code, _, _ in operands):
                del program[len(program) - u[2]:]
                u = (_CONST, run_target(operands + [u], (), ()), 0)
            program.append(u)
        elif cls is Variable:
            program.append((_ARG, arg[u], 0) if u in arg else (_CONST, u, 0))
        elif cls is DistVariable:
            if u not in der:
                raise ValueError(f"distribution term is not closed: {u.name}")
            program.append((_DERIV, der[u], 0))
        else:
            kids = immediate_subterms(u)
            stack.append((_APPLY, u.op, len(kids)) if cls is Apply else
                         (_LIFT, u.op, len(kids)) if cls is DistApply else
                         (_DIRAC, None, 1) if cls is InstDirac else
                         (_SUM, [q for _, q in u.entries], len(kids)))
            stack += reversed(kids)
    return program


def run_target(program: list[tuple], args: tuple[StateTerm, ...],
               dists: tuple[FiniteDistribution, ...]):
    """The value a program of :func:`compile_target` denotes with its
    sources bound to ``args`` and its derivatives to ``dists``: a
    distribution, or a state term for a program compiled from one."""
    stack: list = []  # state terms, and distributions or their entries
    push = stack.append
    for code, x, n in program:
        if code == _ARG:
            push(args[x])
        elif code == _DERIV:
            push(dists[x])
        elif code == _DIRAC:
            push(((stack.pop(), _ONE),))
        elif code == _LIFT:  # each combination of points, in order
            combos = [((), _ONE)]
            for pairs in stack[len(stack) - n:]:
                if len(pairs) == 1:
                    ((t, _),) = pairs
                    combos = [(prefix + (t,), q) for prefix, q in combos]
                else:
                    combos = [(prefix + (t,), r if q is _ONE else q * r)
                              for prefix, q in combos for t, r in pairs]
            del stack[len(stack) - n:]
            push([(Apply(x, prefix), q) for prefix, q in combos])
        elif code == _APPLY:
            kids = tuple(stack[len(stack) - n:])
            del stack[len(stack) - n:]
            push(Apply(x, kids))
        elif code == _SUM:  # x: the weights
            merged: dict[StateTerm, Fraction] = {}
            for q, pairs in zip(x, stack[len(stack) - n:]):
                for t, r in pairs:
                    m = q * r if len(pairs) > 1 else q
                    merged[t] = merged[t] + m if t in merged else m
            del stack[len(stack) - n:]
            push(merged.items())
        else:
            push(x)
    top = stack[0]
    if top.__class__ is FiniteDistribution or top.__class__ is Apply:
        return top
    return FiniteDistribution(tuple(top))
