"""Reader and validator for rule-format process specifications.

The textual format declares a finite action alphabet, named action sets,
ranked operators, closed term abbreviations and inference rules::

    actions a, b;
    set B = {a};
    op par : 2;

    rule forall c in B:
      x1 --c--> m1
      x2 --c--> m2
      ---
      par(x1, x2) --c--> par(m1, m2)

    term aa0 = pref_a(pref_a(zero));

A rule lists positive premises ``xi --a--> mi`` and negative premises
``xi -/a->`` above a ``---`` separator; below it the conclusion names the
operator, its (distinct) source variables, the action and a distribution
term over the source variables and premise derivatives.  ``forall``
templates quantify the action label over a finite set expression built
from named sets, literals ``{a, b}``, the full alphabet ``ACT`` and the
operators ``|`` (union), ``&`` (intersection) and ``\\`` (difference).

Every name is declared before it is used, and the actions before the first
set or rule.  The parser reads the text once.  Where they are written, it
evaluates each set expression, expands each template into its rules and
checks each rule: sources and derivatives distinct, premises on sources,
and no other free variable in the target.  A syntax error stops it; rule
violations are raised together, as one :class:`RuleFormatError`, at the end.

Rationals are written ``9/10`` or as exact decimals ``0.9``.

Lexically (the pattern ``_PIECE``), lines end at ``\\n``, a ``#`` starts a
comment that runs to the end of the line, and blanks are space, tab and
``\\r``.  The tokens are names (a letter or ``_``, then word characters:
letters, digits and ``_``), numbers (decimal digits, with an optional ``.``
and more digits), the one-character punctuation
``; , ( ) { } = : | & \\ + * /`` and the dashes: ``---`` or longer,
``-->``, ``--``, ``-/`` and ``->``.  Any other character is a syntax
error.  One ``findall`` reads the token texts, each match taking the blanks
and comments before its token.  Positions, 1-based lines and columns with
one column per character outside a comment, are computed for messages only.
"""

from __future__ import annotations

import hashlib
import re
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import (ArityMismatch, KindMismatch, RuleFormatError,
                     SpecSyntaxError, UndeclaredSymbol)
from .terms import (Apply, DistApply, DistTerm, DistVariable, InstDirac,
                    Signature, StateTerm, Var, Variable, _Node, convex_sum)


class EmptyExpansion(UserWarning):
    """A rule template ranged over an empty action set and produced no rules."""


# ---------------------------------------------------------------------------
# Rules and documents
# ---------------------------------------------------------------------------

class PosPremise(NamedTuple):
    source: Variable
    action: str
    derivative: DistVariable


class NegPremise(NamedTuple):
    source: Variable
    action: str


class Rule(_Node):
    """One concrete inference rule (templates already instantiated),
    hash-consed like terms."""

    __slots__ = ("op", "sources", "pos", "neg", "action", "target")

    def __new__(cls, op: str, sources: tuple[Variable, ...],
                pos: tuple[PosPremise, ...], neg: tuple[NegPremise, ...],
                action: str, target: DistTerm) -> "Rule":
        return _Node.__new__(cls, op, sources, pos, neg, action, target)

    def derivatives(self) -> tuple[DistVariable, ...]:
        return tuple(p.derivative for p in self.pos)

    def tested_sources(self) -> frozenset[Variable]:
        """Sources with at least one (positive or negative) premise."""
        return frozenset(p.source for p in self.pos) | frozenset(
            n.source for n in self.neg)


class Violation(NamedTuple):
    kind: str
    message: str


@dataclass(frozen=True)
class SpecDocument:
    """A validated specification: signature, expanded rules, named action
    sets and closed term abbreviations.

    The document owns the memo tables of every result that depends on the
    specification alone (derived transitions, denotation fixpoints, exact
    distances): :meth:`memo` hands each analysis its named table.  Equal
    documents (the source digest aside) share their tables, which live as
    long as the process."""

    signature: Signature
    rules: tuple[Rule, ...]
    sets: tuple[tuple[str, tuple[str, ...]], ...] = ()
    abbreviations: tuple[tuple[str, StateTerm], ...] = ()
    source_digest: str = field(default="", compare=False)

    @cached_property
    def rules_by_op(self) -> dict[str, tuple[Rule, ...]]:
        grouped: dict[str, list[Rule]] = {}
        for r in self.rules:
            grouped.setdefault(r.op, []).append(r)
        return {op: tuple(rs) for op, rs in grouped.items()}

    def rules_for(self, op: str) -> tuple[Rule, ...]:
        return self.rules_by_op.get(op, ())

    @cached_property
    def abbrev_map(self) -> dict[str, StateTerm]:
        return dict(self.abbreviations)

    @property
    def actions(self) -> tuple[str, ...]:
        return self.signature.actions

    @cached_property
    def _memo_tables(self) -> dict[str, dict]:
        # Hashing a document walks all its rules, so it is done once per
        # instance; a document parsed again from equal text finds the
        # tables of the first one.
        return _MEMO_TABLES.setdefault(self, {})

    def memo(self, table: str) -> dict:
        """The memo table named ``table`` of this specification."""
        return self._memo_tables.setdefault(table, {})


_MEMO_TABLES: dict[SpecDocument, dict[str, dict]] = {}


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_PUNCT = ";,(){}=:|&\\+*/"
# One match per token, with the blanks and comments before it, and an empty
# one at the end: no match can fail, so none is tried again further on.
_PIECE = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*"
                    r"(-{3,}|-->|-[-/>]?|\d+(?:\.\d+)?|\w+|[^ \t\r\n#]|\Z)")
_DASHES = {"-->": "arrow", "--": "dash2", "-/": "negdash", "->": "rarrow"}


def _tokenize(text: str) -> list[Token]:
    """The tokens of ``text`` with their positions, ending in ``eof``."""
    toks: list[Token] = []
    line, start = 1, 0  # the line of the last token, and where it starts
    for m in _PIECE.finditer(text):
        piece, at = m[1], m.start(1)
        if "\n" in m[0]:
            line += text.count("\n", m.start(), at)
            start = text.rfind("\n", m.start(), at) + 1
        if not piece:  # a comment's characters take no columns
            comment = text.find("#", max(m.start(), start), at)
            toks.append(Token("eof", "", line,
                              (at if comment < 0 else comment) - start + 1))
            return toks
        ch, col = piece[0], at - start + 1
        if ch.isalpha() or ch == "_":
            kind = "ident"
        elif ch in _PUNCT:
            kind = ch
        elif ch == "-":
            if piece == "-":
                raise SpecSyntaxError("stray '-'", line, col)
            kind = _DASHES.get(piece, "sep")
        elif ch.isdecimal():
            kind = "number"
        else:  # '.', a form feed, or a superscript 2 leading a \w piece
            raise SpecSyntaxError(f"unexpected character {ch!r}", line, col)
        toks.append(Token(kind, piece, line, col))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _TermEnv(NamedTuple):
    """The variables a term may use besides the declared names; ``free``
    collects those made of other names, or is ``None`` where none may be."""
    state_vars: frozenset[str]
    dist_vars: frozenset[str]
    free: set[Var] | None


class _Parser:
    """Reads the token texts by index; ``idents`` holds those that are
    names, and ``actions``, ``named``, ``arities`` and ``abbrevs`` the
    declarations read so far.  Positions come from :func:`_tokenize`, for
    messages only."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _PIECE.findall(text)
        self.pos = 0
        self.actions: dict[str, None] = {}  # insertion-ordered, O(1) lookups
        self.named: dict[str, frozenset[str]] = {}
        self.arities: dict[str, int] = {}
        self.abbrevs: dict[str, StateTerm] = {}
        self.violations: list[Violation] = []  # of the rule format
        self.weights: dict[str, Fraction] = {}  # by their text
        self.idents: set[str] = set()
        for piece in set(self.toks) - {""}:
            ch = piece[0]
            if ch.isalpha() or ch == "_":
                self.idents.add(piece)
            elif not (ch in _PUNCT or ch.isdecimal()
                      or ch == "-" and piece != "-"):
                _tokenize(text)  # raises the first lexical error

    def line(self, i: int) -> int:
        return _tokenize(self.text)[i].line

    def error(self, message: str, i: int | None = None) -> SpecSyntaxError:
        tok = _tokenize(self.text)[self.pos if i is None else i]
        return SpecSyntaxError(message, tok.line, tok.col)

    def expect(self, text: str, what: str | None = None) -> None:
        if self.toks[self.pos] != text:
            raise self.error(f"expected {what or text}, found "
                             f"{self.toks[self.pos]!r}")
        self.pos += 1

    def ident(self, what: str = "ident") -> int:
        """The index of the next token, a name."""
        if self.toks[self.pos] not in self.idents:
            raise self.error(f"expected {what}, found {self.toks[self.pos]!r}")
        self.pos += 1
        return self.pos - 1

    def number(self, what: str = "number") -> int:
        """The index of the next token, a number."""
        if not self.toks[self.pos][:1].isdecimal():
            raise self.error(f"expected {what}, found {self.toks[self.pos]!r}")
        self.pos += 1
        return self.pos - 1

    def read(self, convert, i: int):
        """``convert`` of the number at token ``i``, or a syntax error where
        it has more digits than ``int`` and ``Fraction`` convert
        (``sys.get_int_max_str_digits``)."""
        try:
            return convert(self.toks[i])
        except ValueError:
            raise self.error(f"number of {len(self.toks[i])} characters is "
                             f"too long to read", i) from None

    # -- document -----------------------------------------------------------

    def parse_document(self, digest: str) -> SpecDocument:
        toks = self.toks
        actions, named, arities, abbrevs = (self.actions, self.named,
                                            self.arities, self.abbrevs)
        blocks: list[list[Rule]] = []
        if not toks[0]:
            raise SpecSyntaxError("empty specification", 1, 1)
        while toks[self.pos]:
            word = toks[self.pos]
            if word == "actions":
                if named or blocks:
                    raise self.error("actions declared after a set or rule")
                self.pos += 1
                for i in self._ident_list():
                    if toks[i] in actions:
                        raise self.error(f"action {toks[i]!r} declared twice",
                                         i)
                    actions[toks[i]] = None
                self.expect(";")
            elif word == "set":
                self.pos += 1
                name = toks[i := self.ident("set name")]
                if name in named:
                    raise self.error(f"action set {name!r} declared twice", i)
                if name == "ACT":
                    raise self.error("'ACT' names every action and cannot be "
                                     "declared", i)
                self.expect("=")
                named[name] = self._setexpr()
                self.expect(";")
            elif word == "op":
                self.pos += 1
                name = toks[i := self.ident("operator name")]
                if name in arities:
                    raise self.error(f"operator {name!r} declared twice", i)
                if name in abbrevs:
                    raise self.error(f"name {name!r} already in use", i)
                self.expect(":")
                j = self.number("arity")
                if not toks[j].isdecimal():
                    raise self.error("arity must be a natural number", j)
                self.expect(";")
                arities[name] = self.read(int, j)
            elif word == "term":
                self.pos += 1
                name = toks[i := self.ident("abbreviation name")]
                if name in abbrevs or name in arities:
                    raise self.error(f"name {name!r} already in use", i)
                self.expect("=")
                term = self._state_term(_TermEnv(frozenset(), frozenset(),
                                                 None))
                self.expect(";")
                abbrevs[name] = term
            elif word == "rule":
                blocks.append(self._rule_block())
            else:
                raise self.error(f"expected a declaration, found {word!r}")
        if self.violations:
            raise RuleFormatError(self.violations)
        return SpecDocument(
            Signature(tuple(arities.items()), tuple(actions)),
            tuple(rule for block in blocks for rule in block),
            tuple((name, tuple(sorted(members)))
                  for name, members in named.items()),
            tuple(abbrevs.items()), source_digest=digest)

    def _ident_list(self) -> list[int]:
        """The indices of a comma-separated list of names."""
        out = [self.ident()]
        while self.toks[self.pos] == ",":
            self.pos += 1
            out.append(self.ident())
        return out

    # -- set expressions ----------------------------------------------------

    def _setexpr(self) -> frozenset[str]:
        """The actions a set expression denotes, its operators
        left-associative, evaluated on an explicit stack of open groups:
        each holds the value left of its pending operator and that operator
        (``None`` before any)."""
        toks = self.toks
        groups: list[tuple[frozenset[str] | None, str | None]] = []
        left, op = None, None
        while True:
            if toks[self.pos] == "(":
                self.pos += 1
                groups.append((left, op))
                left, op = None, None
                continue
            value = self._set_primary()
            while True:  # close every group this operand completes
                left = (value if op is None else left | value if op == "|"
                        else left & value if op == "&" else left - value)
                if toks[self.pos] in ("|", "&", "\\"):
                    op = toks[self.pos]
                    self.pos += 1
                    break
                if not groups:
                    return left
                self.expect(")")
                value = left
                left, op = groups.pop()

    def _set_primary(self) -> frozenset[str]:
        """The actions of a set literal, a declared set name or ``ACT``."""
        i = self.pos
        name = self.toks[i]
        self.pos += 1
        if name == "{":
            members = [] if self.toks[self.pos] == "}" else self._ident_list()
            self.expect("}")
            return frozenset(self._action(i=m) for m in members)
        if name not in self.idents:
            raise self.error("expected a set expression", i)
        if name == "ACT":
            return frozenset(self.actions)
        if name not in self.named:
            raise UndeclaredSymbol(f"action set {name!r} is not declared "
                                   f"(line {self.line(i)})")
        return self.named[name]

    # -- rules --------------------------------------------------------------

    def _rule_block(self) -> list[Rule]:
        """The rules of one block: the rule itself, or for a ``forall``
        template one rule per member of its set, in sorted order.  Its
        instances differ only in labels, which the rule format does not
        constrain, so the block is checked once, into ``violations``."""
        toks = self.toks
        rule_at = self.pos  # 'rule'
        self.pos += 1
        var, members = None, (None,)  # a plain rule is its one instance
        if toks[self.pos] == "forall":
            self.pos += 1
            var = toks[self.ident("template action variable")]
            if toks[self.pos] != "in":
                raise self.error("expected 'in'")
            self.pos += 1
            members = self._setexpr()
        self.expect(":")

        pos: list[PosPremise] = []
        neg: list[NegPremise] = []
        while not toks[self.pos].startswith("---"):
            source = Variable(toks[self.ident("a premise or '---'")])
            shape = toks[self.pos]
            self.pos += 1
            if shape == "--":
                label = self._action(var)
                self.expect("-->", "'-->'")
                deriv = toks[self.ident("derivative variable")]
                pos.append(PosPremise(source, label, DistVariable(deriv)))
            elif shape == "-/":
                label = self._action(var)
                self.expect("->", "'->'")
                neg.append(NegPremise(source, label))
            else:
                raise self.error("expected '--' or '-/' in premise",
                                 self.pos - 1)
            if toks[self.pos] == ",":
                self.pos += 1
        self.pos += 1  # the separator

        op = toks[op_at := self.ident("operator symbol")]
        if op not in self.arities:
            raise UndeclaredSymbol(f"operator {op!r} is not declared "
                                   f"(line {self.line(op_at)})")
        source_names: list[str] = []
        if toks[self.pos] == "(":
            self.pos += 1
            if toks[self.pos] != ")":
                source_names = [toks[i] for i in self._ident_list()]
            self.expect(")")
        arity = self.arities[op]
        if arity != len(source_names):
            raise ArityMismatch(
                f"{op} expects {arity} source variable(s), got "
                f"{len(source_names)} (line {self.line(op_at)})")
        self.expect("--", "'--'")
        label = self._action(var)
        self.expect("-->", "'-->'")

        source_set = frozenset(source_names)
        derivs = [p.derivative.name for p in pos]
        env = _TermEnv(source_set, frozenset(derivs), set())
        target = self._dist_term(env)

        if not members:
            warnings.warn(
                f"rule template for {op} (line {self.line(rule_at)}) "
                f"ranges over an empty action set", EmptyExpansion, stacklevel=2)
            return []
        # in the order of the tests' validate_rule; the term reader made
        # exactly the target's foreign variables free ones
        out = self.violations
        if len(source_set) != len(source_names):
            out.append(Violation("DuplicateSource",
                                 f"rule for {op}: source variables repeat"))
        if len(env.dist_vars) != len(derivs):
            out.append(Violation("DuplicateDerivative",
                                 f"rule for {op}: derivative variables repeat"))
        for premise in (*pos, *neg):
            if premise.source.name not in source_set:
                out.append(Violation(
                    "ForeignPremiseSource",
                    f"rule for {op}: premise tests {premise.source.name}, "
                    f"not a source variable"))
        if env.free:
            foreign = ", ".join(sorted(x.name for x in env.free))
            out.append(Violation("ForeignTargetVariable",
                                 f"rule for {op}: target mentions {foreign}"))

        sources = tuple(map(Variable, source_names))
        if var is None:
            return [Rule(op, sources, tuple(pos), tuple(neg), label, target)]
        return [Rule(op, sources,
                     tuple(PosPremise(p.source, c, p.derivative)
                           if p.action == var else p for p in pos),
                     tuple(NegPremise(n.source, c) if n.action == var else n
                           for n in neg),
                     c if label == var else label, target)
                for c in sorted(members)]

    def _action(self, var: str | None = None, i: int | None = None) -> str:
        """The action label at token ``i``, by default the next token: a
        declared action or the template variable ``var``."""
        i = self.ident("action label") if i is None else i
        label = self.toks[i]
        if label != var and label not in self.actions:
            raise UndeclaredSymbol(f"action {label!r} is not declared "
                                   f"(line {self.line(i)})")
        return label

    # -- terms --------------------------------------------------------------

    def _state_term(self, env: _TermEnv) -> StateTerm:
        """A state term, parsed on an explicit stack of open applications
        (operator token and the arguments read so far), so its depth is not
        limited by the interpreter's recursion limit."""
        toks = self.toks
        open_apps: list[tuple[int, list[StateTerm]]] = []
        while True:
            i = self.ident("a process term")
            name = toks[i]
            if toks[self.pos] != "(":
                term = self._resolve_state_ident(i, env)
            else:
                self._open_application(i)
                if toks[self.pos] != ")":
                    open_apps.append((i, []))
                    continue
                self.pos += 1
                self._check_arity(i, 0)
                term = Apply(name)
            # close every application this term completes
            while open_apps:
                op_at, args = open_apps[-1]
                args.append(term)
                if toks[self.pos] == ",":
                    self.pos += 1
                    break
                self.expect(")")
                open_apps.pop()
                self._check_arity(op_at, len(args))
                term = Apply(toks[op_at], tuple(args))
            else:
                return term

    def _resolve_state_ident(self, i: int, env: _TermEnv) -> StateTerm:
        name = self.toks[i]
        if name in env.state_vars:
            return Variable(name)
        if name in self.arities:
            self._check_arity(i, 0)
            return Apply(name)
        if name in self.abbrevs:
            return self.abbrevs[name]
        if env.free is None:
            raise UndeclaredSymbol(f"unknown name {name!r} (line {self.line(i)})")
        env.free.add(v := Variable(name))
        return v

    def _open_application(self, i: int) -> None:
        """Consume the ``(`` after the operator name at token ``i``, which
        must be declared."""
        if self.toks[i] not in self.arities:
            raise UndeclaredSymbol(f"operator {self.toks[i]!r} is not "
                                   f"declared (line {self.line(i)})")
        self.expect("(")

    def _check_arity(self, i: int, got: int) -> None:
        """Raise :class:`ArityMismatch` unless the operator named at token
        ``i`` takes ``got`` arguments."""
        op = self.toks[i]
        if self.arities[op] != got:
            raise ArityMismatch(f"{op} expects {self.arities[op]} argument(s), "
                                f"got {got} (line {self.line(i)})")

    def _dist_term(self, env: _TermEnv) -> DistTerm:
        """A distribution term, parsed like :meth:`_state_term` on an
        explicit stack.  A frame is an open group or application: the index
        of its opening token (``None`` at the top), the weight of the
        summand it stands in, its arguments so far and the summands of its
        open sum."""
        toks = self.toks
        frames: list = [(None, None, [], [])]
        while True:
            q = None
            if toks[self.pos][:1].isdecimal():
                q = self._rational()
                self.expect("*", "'*' after a weight")
            if toks[self.pos] == "(":
                frames.append((self.pos, q, [], []))
                self.pos += 1
                continue
            i = self.ident("a distribution term")
            name = toks[i]
            if name == "delta" or toks[self.pos] != "(":
                theta = self._dist_leaf(i, env)
            else:
                self._open_application(i)
                if toks[self.pos] != ")":
                    frames.append((i, q, [], []))
                    continue
                self.pos += 1
                self._check_arity(i, 0)
                theta = DistApply(name)
            # close every group and application this summand completes
            while True:
                opening, weight, args, parts = frames[-1]
                parts.append((q, theta))
                if toks[self.pos] == "+":
                    if q is None and len(parts) == 1:
                        raise self.error("summands of a convex combination "
                                         "need explicit weights like 1/2*...")
                    self.pos += 1
                    break
                theta = self._sum(parts)
                if opening is None:
                    return theta
                args.append(theta)  # a group's one term, or an argument
                parts.clear()
                applies = toks[opening] != "("
                if applies and toks[self.pos] == ",":
                    self.pos += 1
                    break
                self.expect(")")
                frames.pop()
                if applies:
                    self._check_arity(opening, len(args))
                    theta = DistApply(toks[opening], tuple(args))
                q = weight

    def _sum(self, parts: list) -> DistTerm:
        """The term of the summands ``parts``, at least one."""
        if len(parts) == 1 and parts[0][0] is None:
            return parts[0][1]
        if any(q is None for q, _ in parts):
            raise self.error("summands of a convex combination need "
                             "explicit weights like 1/2*...")
        try:
            return convex_sum(parts)
        except ValueError as exc:
            raise self.error(str(exc))

    def _dist_leaf(self, i: int, env: _TermEnv) -> DistTerm:
        """The point mass ``delta(t)`` or the name at token ``i`` as a
        term.  Distribution terms are read only in rule targets, so a name
        declared nowhere is a free variable."""
        name = self.toks[i]
        if name == "delta":
            self.expect("(")
            inner = self._state_term(env)
            self.expect(")")
            return InstDirac(inner)
        if name in env.dist_vars:
            return DistVariable(name)
        if name in env.state_vars:
            raise KindMismatch(
                f"{name} is a state variable; write delta({name}) for its "
                f"point mass (line {self.line(i)})")
        if name in self.arities:
            self._check_arity(i, 0)
            return DistApply(name)
        if name in self.abbrevs:
            raise KindMismatch(
                f"{name} is a state term; write delta({name}) for its "
                f"point mass (line {self.line(i)})")
        env.free.add(v := DistVariable(name))
        return v

    def _rational(self) -> Fraction:
        """The weight at the next tokens, a decimal or ``p/q``; each
        distinct text is converted once per parse."""
        toks = self.toks
        i = j = self.number()
        if toks[self.pos] == "/":
            self.pos += 1
            j = self.number("denominator")
            if "." in toks[i] or "." in toks[j]:
                raise self.error("mixed decimal/fraction notation", j)
        text = "".join(toks[i:j + 1])
        if text not in self.weights:
            p, q = (self.read(Fraction, i), 1) if i == j else (
                self.read(int, i), self.read(int, j))
            if q == 0:
                raise self.error("zero denominator", j)
            self.weights[text] = Fraction(p, q)
        return self.weights[text]


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def parse_spec(data: bytes | str) -> SpecDocument:
    """Parse, expand and validate a complete specification."""
    if isinstance(data, bytes):
        digest = hashlib.sha256(data).hexdigest()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as err:
            raise SpecSyntaxError(
                f"spec is not UTF-8 at byte offset {err.start} "
                f"({data[err.start]:#04x}): {err.reason}") from None
    else:
        digest = hashlib.sha256(data.encode("utf-8")).hexdigest()
        text = data
    return _Parser(text).parse_document(digest)


def parse_term(text: str, doc: SpecDocument) -> StateTerm:
    """Parse a single state term against a document's signature.

    Unknown identifiers become free variables.
    """
    parser = _Parser(text)
    parser.arities, parser.abbrevs = doc.signature.arities, doc.abbrev_map
    term = parser._state_term(_TermEnv(frozenset(), frozenset(), set()))
    if parser.toks[parser.pos]:
        raise parser.error(f"unexpected trailing input "
                           f"{parser.toks[parser.pos]!r}")
    return term
