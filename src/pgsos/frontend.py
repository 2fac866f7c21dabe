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
set or rule.  The parser reads the text once: it evaluates each set
expression and expands each template into its rules where they are written.

Rationals are written ``9/10`` or as exact decimals ``0.9``.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, NamedTuple

from .errors import (ArityMismatch, KindMismatch, RuleFormatError,
                     SpecSyntaxError, UndeclaredSymbol)
from .terms import (Apply, DistApply, DistTerm, DistVariable, InstDirac,
                    Signature, StateTerm, Variable, _Node, convex_sum,
                    free_vars)


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


def validate_rule(rule: Rule) -> list[Violation]:
    """Check the well-formedness constraints of a rule; an empty list
    means the rule is admissible.

    The constraints: derivative variables pairwise distinct, source
    variables pairwise distinct, premises only test source variables, and
    every free variable of the target is a source or a derivative.
    """
    out: list[Violation] = []
    if len(set(rule.sources)) != len(rule.sources):
        out.append(Violation("DuplicateSource",
                             f"rule for {rule.op}: source variables repeat"))
    derivs = rule.derivatives()
    if len(set(derivs)) != len(derivs):
        out.append(Violation("DuplicateDerivative",
                             f"rule for {rule.op}: derivative variables repeat"))
    sources = set(rule.sources)
    for prem_source in [p.source for p in rule.pos] + [n.source for n in rule.neg]:
        if prem_source not in sources:
            out.append(Violation(
                "ForeignPremiseSource",
                f"rule for {rule.op}: premise tests {prem_source.name}, "
                f"not a source variable"))
    allowed = sources | set(derivs)
    foreign = sorted(x.name for x in free_vars(rule.target) if x not in allowed)
    if foreign:
        out.append(Violation(
            "ForeignTargetVariable",
            f"rule for {rule.op}: target mentions {', '.join(foreign)}"))
    return out


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


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == "-":
            dashes = 0
            while i < n and text[i] == "-":
                dashes += 1
                i += 1
                col += 1
            if dashes >= 3:
                toks.append(Token("sep", "-" * dashes, line, start_col))
            elif dashes == 2:
                if i < n and text[i] == ">":
                    i += 1
                    col += 1
                    toks.append(Token("arrow", "-->", line, start_col))
                else:
                    toks.append(Token("dash2", "--", line, start_col))
            else:
                if i < n and text[i] == "/":
                    i += 1
                    col += 1
                    toks.append(Token("negdash", "-/", line, start_col))
                elif i < n and text[i] == ">":
                    i += 1
                    col += 1
                    toks.append(Token("rarrow", "->", line, start_col))
                else:
                    raise SpecSyntaxError("stray '-'", line, start_col)
            continue
        if ch.isdecimal():  # the digits int and Fraction read
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdecimal():
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            toks.append(Token("number", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise SpecSyntaxError(f"unexpected character {ch!r}", line, start_col)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@dataclass
class _TermEnv:
    arities: Mapping[str, int]
    abbrevs: Mapping[str, StateTerm]
    state_vars: frozenset[str]
    dist_vars: frozenset[str]
    free_ok: bool


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> SpecSyntaxError:
        tok = tok or self.peek()
        return SpecSyntaxError(message, tok.line, tok.col)

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise self.error(f"expected {what or kind}, found {tok.text!r}", tok)
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    # -- document -----------------------------------------------------------

    def parse_document(self, digest: str) -> SpecDocument:
        actions: dict[str, None] = {}  # insertion-ordered, O(1) lookups
        arities: dict[str, int] = {}
        named: dict[str, frozenset[str]] = {}
        abbrevs: dict[str, StateTerm] = {}
        blocks: list[list[Rule]] = []
        if self.peek().kind == "eof":
            raise SpecSyntaxError("empty specification", 1, 1)
        while self.peek().kind != "eof":
            if self.at_keyword("actions"):
                if named or blocks:
                    raise self.error("actions declared after a set or rule")
                self.next()
                for tok in self._ident_list():
                    if tok.text in actions:
                        raise self.error(f"action {tok.text!r} declared twice",
                                         tok)
                    actions[tok.text] = None
                self.expect(";")
            elif self.at_keyword("set"):
                self.next()
                tok = self.expect("ident", "set name")
                name = tok.text
                if name in named:
                    raise self.error(f"action set {name!r} declared twice",
                                     tok)
                if name == "ACT":
                    raise self.error("'ACT' names every action and cannot be "
                                     "declared", tok)
                self.expect("=")
                named[name] = self._setexpr(actions, named)
                self.expect(";")
            elif self.at_keyword("op"):
                self.next()
                tok = self.expect("ident", "operator name")
                name = tok.text
                if name in arities:
                    raise self.error(f"operator {name!r} declared twice", tok)
                if name in abbrevs:
                    raise self.error(f"name {name!r} already in use", tok)
                self.expect(":")
                arity_tok = self.expect("number", "arity")
                if not arity_tok.text.isdecimal():
                    raise self.error("arity must be a natural number", arity_tok)
                self.expect(";")
                arities[name] = _read(int, arity_tok)
            elif self.at_keyword("term"):
                self.next()
                tok = self.expect("ident", "abbreviation name")
                name = tok.text
                if name in abbrevs or name in arities:
                    raise self.error(f"name {name!r} already in use", tok)
                self.expect("=")
                env = _TermEnv(arities, abbrevs, frozenset(), frozenset(),
                               free_ok=False)
                term = self._state_term(env)
                self.expect(";")
                abbrevs[name] = term
            elif self.at_keyword("rule"):
                blocks.append(self._rule_block(arities, abbrevs, actions, named))
            else:
                raise self.error(f"expected a declaration, found {self.peek().text!r}")
        # the rules of a block differ only in their labels, which
        # validate_rule does not read, so each block is validated once
        problems = [v for block in blocks for rule in block[:1]
                    for v in validate_rule(rule)]
        if problems:
            raise RuleFormatError(problems)
        return SpecDocument(
            Signature(tuple(arities.items()), tuple(actions)),
            tuple(rule for block in blocks for rule in block),
            tuple((name, tuple(sorted(members)))
                  for name, members in named.items()),
            tuple(abbrevs.items()), source_digest=digest)

    def _ident_list(self) -> list[Token]:
        toks = [self.expect("ident")]
        while self.peek().kind == ",":
            self.next()
            toks.append(self.expect("ident"))
        return toks

    # -- set expressions ----------------------------------------------------

    def _setexpr(self, actions: Mapping[str, None],
                 named: Mapping[str, frozenset[str]]) -> frozenset[str]:
        """The actions a set expression denotes, its operators
        left-associative, evaluated on an explicit stack of open groups:
        each holds the value left of its pending operator and that operator
        (``None`` before any)."""
        groups: list[tuple[frozenset[str] | None, str | None]] = []
        left, op = None, None
        while True:
            if self.peek().kind == "(":
                self.next()
                groups.append((left, op))
                left, op = None, None
                continue
            value = self._set_primary(actions, named)
            while True:  # close every group this operand completes
                left = (value if op is None else left | value if op == "|"
                        else left & value if op == "&" else left - value)
                if self.peek().kind in ("|", "&", "\\"):
                    op = self.next().kind
                    break
                if not groups:
                    return left
                self.expect(")")
                value = left
                left, op = groups.pop()

    def _set_primary(self, actions: Mapping[str, None],
                     named: Mapping[str, frozenset[str]]) -> frozenset[str]:
        """The actions of a set literal, a declared set name or ``ACT``."""
        tok = self.next()
        if tok.kind == "{":
            members = [] if self.peek().kind == "}" else self._ident_list()
            self.expect("}")
            return frozenset(self._action(actions, tok=m) for m in members)
        if tok.kind != "ident":
            raise self.error("expected a set expression", tok)
        if tok.text == "ACT":
            return frozenset(actions)
        if tok.text not in named:
            raise UndeclaredSymbol(f"action set {tok.text!r} is not declared "
                                   f"(line {tok.line})")
        return named[tok.text]

    # -- rules --------------------------------------------------------------

    def _rule_block(self, arities: Mapping[str, int],
                    abbrevs: Mapping[str, StateTerm],
                    actions: Mapping[str, None],
                    named: Mapping[str, frozenset[str]]) -> list[Rule]:
        """The rules of one block: the rule itself, or for a ``forall``
        template one rule per member of its set, in sorted order."""
        rule_tok = self.expect("ident")  # 'rule'
        var, members = None, (None,)  # a plain rule is its one instance
        if self.at_keyword("forall"):
            self.next()
            var = self.expect("ident", "template action variable").text
            if not self.at_keyword("in"):
                raise self.error("expected 'in'")
            self.next()
            members = self._setexpr(actions, named)
        self.expect(":")

        pos: list[PosPremise] = []
        neg: list[NegPremise] = []
        while self.peek().kind != "sep":
            source = Variable(self.expect("ident", "a premise or '---'").text)
            shape = self.next()
            if shape.kind == "dash2":
                label = self._action(actions, var)
                self.expect("arrow", "'-->'")
                deriv = self.expect("ident", "derivative variable").text
                pos.append(PosPremise(source, label, DistVariable(deriv)))
            elif shape.kind == "negdash":
                label = self._action(actions, var)
                self.expect("rarrow", "'->'")
                neg.append(NegPremise(source, label))
            else:
                raise self.error("expected '--' or '-/' in premise", shape)
            if self.peek().kind == ",":
                self.next()
        self.expect("sep")

        op_tok = self.expect("ident", "operator symbol")
        if op_tok.text not in arities:
            raise UndeclaredSymbol(
                f"operator {op_tok.text!r} is not declared (line {op_tok.line})")
        source_names: list[str] = []
        if self.peek().kind == "(":
            self.next()
            if self.peek().kind != ")":
                source_names = [t.text for t in self._ident_list()]
            self.expect(")")
        arity = arities[op_tok.text]
        if arity != len(source_names):
            raise ArityMismatch(
                f"{op_tok.text} expects {arity} source variable(s), got "
                f"{len(source_names)} (line {op_tok.line})")
        self.expect("dash2", "'--'")
        label = self._action(actions, var)
        self.expect("arrow", "'-->'")

        env = _TermEnv(arities, abbrevs, frozenset(source_names),
                       frozenset(p.derivative.name for p in pos),
                       free_ok=True)
        target = self._dist_term(env)
        sources = tuple(map(Variable, source_names))

        def instance(c: str | None) -> Rule:
            """The rule with the action ``c`` for the template variable."""
            return Rule(op_tok.text, sources,
                        tuple(p._replace(action=c) if p.action == var else p
                              for p in pos),
                        tuple(n._replace(action=c) if n.action == var else n
                              for n in neg),
                        c if label == var else label, target)

        if not members:
            warnings.warn(
                f"rule template for {op_tok.text} (line {rule_tok.line}) "
                f"ranges over an empty action set", EmptyExpansion, stacklevel=2)
        return [instance(c) for c in sorted(members)]

    def _action(self, actions: Mapping[str, None], var: str | None = None,
                tok: Token | None = None) -> str:
        """The action label ``tok``, by default the next token: a declared
        action or the template variable ``var``."""
        tok = tok or self.expect("ident", "action label")
        if tok.text != var and tok.text not in actions:
            raise UndeclaredSymbol(
                f"action {tok.text!r} is not declared (line {tok.line})")
        return tok.text

    # -- terms --------------------------------------------------------------

    def _state_term(self, env: _TermEnv) -> StateTerm:
        """A state term, parsed on an explicit stack of open applications
        (operator token and the arguments read so far), so its depth is not
        limited by the interpreter's recursion limit."""
        open_apps: list[tuple[Token, list[StateTerm]]] = []
        while True:
            tok = self.expect("ident", "a process term")
            if self.peek().kind != "(":
                term = self._resolve_state_ident(tok, env)
            else:
                self._open_application(tok, env)
                if self.peek().kind != ")":
                    open_apps.append((tok, []))
                    continue
                self.next()
                _check_arity(tok, env, 0)
                term = Apply(tok.text)
            # close every application this term completes
            while open_apps:
                op_tok, args = open_apps[-1]
                args.append(term)
                if self.peek().kind == ",":
                    self.next()
                    break
                self.expect(")")
                open_apps.pop()
                _check_arity(op_tok, env, len(args))
                term = Apply(op_tok.text, tuple(args))
            else:
                return term

    def _resolve_state_ident(self, tok: Token, env: _TermEnv) -> StateTerm:
        name = tok.text
        if name in env.state_vars:
            return Variable(name)
        if name in env.arities:
            _check_arity(tok, env, 0)
            return Apply(name)
        if name in env.abbrevs:
            return env.abbrevs[name]
        if env.free_ok:
            return Variable(name)
        raise UndeclaredSymbol(f"unknown name {name!r} (line {tok.line})")

    def _open_application(self, tok: Token, env: _TermEnv) -> None:
        """Consume the ``(`` after an operator name, which must be declared."""
        if tok.text not in env.arities:
            raise UndeclaredSymbol(f"operator {tok.text!r} is not declared "
                                   f"(line {tok.line})")
        self.expect("(")

    def _dist_term(self, env: _TermEnv) -> DistTerm:
        """A distribution term, parsed like :meth:`_state_term` on an
        explicit stack.  A frame is an open group or application: its
        opening token (``None`` at the top), the weight of the summand it
        stands in, its arguments so far and the summands of its open sum."""
        frames: list = [(None, None, [], [])]
        while True:
            q = None
            if self.peek().kind == "number":
                q = self._rational()
                self.expect("*", "'*' after a weight")
            if self.peek().kind == "(":
                frames.append((self.next(), q, [], []))
                continue
            tok = self.expect("ident", "a distribution term")
            if tok.text == "delta" or self.peek().kind != "(":
                theta = self._dist_leaf(tok, env)
            else:
                self._open_application(tok, env)
                if self.peek().kind != ")":
                    frames.append((tok, q, [], []))
                    continue
                self.next()
                _check_arity(tok, env, 0)
                theta = DistApply(tok.text)
            # close every group and application this summand completes
            while True:
                opening, weight, args, parts = frames[-1]
                parts.append((q, theta))
                if self.peek().kind == "+":
                    if q is None and len(parts) == 1:
                        raise self.error("summands of a convex combination "
                                         "need explicit weights like 1/2*...")
                    self.next()
                    break
                theta = self._sum(parts)
                if opening is None:
                    return theta
                args.append(theta)  # a group's one term, or an argument
                parts.clear()
                if opening.kind == "ident" and self.peek().kind == ",":
                    self.next()
                    break
                self.expect(")")
                frames.pop()
                if opening.kind == "ident":
                    _check_arity(opening, env, len(args))
                    theta = DistApply(opening.text, tuple(args))
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

    def _dist_leaf(self, tok: Token, env: _TermEnv) -> DistTerm:
        """The point mass ``delta(t)`` or the name ``tok`` as a term."""
        if tok.text == "delta":
            self.expect("(")
            inner = self._state_term(env)
            self.expect(")")
            return InstDirac(inner)
        name = tok.text
        if name in env.dist_vars:
            return DistVariable(name)
        if name in env.state_vars:
            raise KindMismatch(
                f"{name} is a state variable; write delta({name}) for its "
                f"point mass (line {tok.line})")
        if name in env.arities:
            _check_arity(tok, env, 0)
            return DistApply(name)
        if name in env.abbrevs:
            raise KindMismatch(
                f"{name} is a state term; write delta({name}) for its "
                f"point mass (line {tok.line})")
        if env.free_ok:
            return DistVariable(name)
        raise UndeclaredSymbol(f"unknown name {name!r} (line {tok.line})")

    def _rational(self) -> Fraction:
        tok = self.expect("number")
        if self.peek().kind != "/":
            return _read(Fraction, tok)
        self.next()
        denom = self.expect("number", "denominator")
        if "." in tok.text or "." in denom.text:
            raise self.error("mixed decimal/fraction notation", denom)
        p, q = _read(int, tok), _read(int, denom)
        if q == 0:
            raise self.error("zero denominator", denom)
        return Fraction(p, q)


def _read(convert, tok: Token):
    """``convert(tok.text)`` for a number token, or a syntax error at it
    where the number has more digits than ``int`` and ``Fraction`` convert
    (``sys.get_int_max_str_digits``)."""
    try:
        return convert(tok.text)
    except ValueError:
        raise SpecSyntaxError(f"number of {len(tok.text)} characters is too "
                              f"long to read", tok.line, tok.col) from None


def _check_arity(tok: Token, env: _TermEnv, got: int) -> None:
    """Raise :class:`ArityMismatch` unless the operator named by ``tok``
    takes ``got`` arguments."""
    arity = env.arities[tok.text]
    if arity != got:
        raise ArityMismatch(f"{tok.text} expects {arity} argument(s), got "
                            f"{got} (line {tok.line})")


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


def parse_term(text: str, doc: SpecDocument, *, free_ok: bool = True,
               kind: str = "state") -> StateTerm | DistTerm:
    """Parse a single term against a document's signature.

    Unknown identifiers become free variables when ``free_ok`` is set;
    otherwise they are reported as undeclared.
    """
    parser = _Parser(text)
    env = _TermEnv(doc.signature.arities, doc.abbrev_map, frozenset(),
                   frozenset(), free_ok=free_ok)
    term = (parser._state_term(env) if kind == "state"
            else parser._dist_term(env))
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise parser.error(f"unexpected trailing input {trailing.text!r}",
                           trailing)
    return term
