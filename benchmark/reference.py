"""Exact reference answers, computed without importing pgsos.

Terms are nested tuples ``(op, arg, ...)``; a nullary operator is ``(op,)``
and an open-term variable is a plain string.  The operational rules of the
shipped specifications (``pa.pgsos``, ``examples.pgsos``) are written out
by hand below, and the behavioural distance is solved from its defining
equations: the worst action of the Hausdorff lifting of the
optimal-transport lifting, with ``inf {} = 1`` and ``sup {} = 0``.
Transport problems are solved by vertex enumeration when both sides have
two points and by successive shortest paths on integer-scaled masses
otherwise, so every answer is an exact rational that shares no code with
the package being timed.  Cyclic specifications get closed forms
(:func:`loop_distance`).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

ONE = Fraction(1)
ZERO = Fraction(0)
INF = "inf"


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

def fmt(t) -> str:
    """The package's concrete syntax: ``op`` or ``op(a, b)``."""
    if isinstance(t, str):
        return t
    if len(t) == 1:
        return t[0]
    return f"{t[0]}({', '.join(fmt(a) for a in t[1:])})"


def parse(text: str):
    """Inverse of :func:`fmt`; the variables ``x`` and ``y`` stay strings."""
    tokens = text.replace("(", " ( ").replace(")", " ) ") \
        .replace(",", " , ").split()
    pos = 0

    def term():
        nonlocal pos
        name = tokens[pos]
        pos += 1
        if pos < len(tokens) and tokens[pos] == "(":
            args = []
            pos += 1
            while True:
                args.append(term())
                pos += 1  # "," or ")"
                if tokens[pos - 1] == ")":
                    return (name,) + tuple(args)
        return name if name in ("x", "y") else (name,)

    return term()


def fmt_q(q: Fraction) -> str:
    return str(Fraction(q))


def subst(t, sigma):
    if isinstance(t, str):
        return sigma[t]
    return (t[0],) + tuple(subst(a, sigma) for a in t[1:])


def free_vars(t) -> set[str]:
    if isinstance(t, str):
        return {t}
    out: set[str] = set()
    for a in t[1:]:
        out |= free_vars(a)
    return out


ZERO_T = ("zero",)


def pref(action: str, t):
    return (f"pref_{action}", t)


# Closed-term abbreviations, in declaration order.
PA_TERMS = {
    "aa0": pref("a", pref("a", ZERO_T)),
    "a0": pref("a", ZERO_T),
    "pa0": ("ppref_a_9_1", pref("a", ZERO_T), ZERO_T),
    "ab0": pref("a", pref("b", ZERO_T)),
    "pb0": ("ppref_a_9_1", pref("b", ZERO_T), ZERO_T),
    "bb0": pref("b", pref("b", ZERO_T)),
    "qb0": ("ppref_b_8_2", pref("b", ZERO_T), ZERO_T),
}
EXAMPLES_TERMS = {
    "aa0": pref("a", pref("a", ZERO_T)),
    "a0": pref("a", ZERO_T),
    "paa0": ("ppref_a_9_1", pref("a", pref("a", ZERO_T)), ZERO_T),
    "pa0": ("ppref_a_9_1", pref("a", ZERO_T), ZERO_T),
}

# Ranked alphabets, in declaration order (the sampler's choices follow it).
SIGNATURES = {
    "pa": (("zero", 0), ("pref_a", 1), ("pref_b", 1), ("ppref_a_9_1", 2),
           ("ppref_b_8_2", 2), ("ppref_a_5_5", 2), ("alt", 2), ("par", 2),
           ("parB", 2), ("ipar", 2)),
    "examples": (("zero", 0), ("pref_a", 1), ("ppref_a_9_1", 2), ("alt", 2),
                 ("par", 2), ("ipar", 2), ("f_alt", 1), ("f_test", 1),
                 ("g_test", 1), ("h_rep", 1), ("bang", 1)),
}
ABBREVIATIONS = {"pa": PA_TERMS, "examples": EXAMPLES_TERMS}


# ---------------------------------------------------------------------------
# Operational semantics
# ---------------------------------------------------------------------------

def _dist(pairs) -> frozenset:
    out: dict = {}
    for t, q in pairs:
        out[t] = out.get(t, ZERO) + q
    return frozenset((t, q) for t, q in out.items() if q)


def _dirac(t) -> frozenset:
    return frozenset(((t, ONE),))


def _image(f, mu) -> frozenset:
    return _dist((f(s), q) for s, q in mu)


def _product(f, mu, nu) -> frozenset:
    return _dist((f(s, s2), q * q2) for s, q in mu for s2, q2 in nu)


def _prob_prefix(action: str, w: Fraction):
    def rule(args, _tr):
        return [(action, _dist(((args[0], w), (args[1], 1 - w))))]
    return rule


def _prefix(action: str):
    def rule(args, _tr):
        return [(action, _dirac(args[0]))]
    return rule


def _alt(args, tr):
    return list(tr(args[0])) + list(tr(args[1]))


def _sync(op: str, actions):
    def moves(args, tr):
        out = []
        for c, mu in tr(args[0]):
            if c not in actions:
                continue
            for c2, nu in tr(args[1]):
                if c2 == c:
                    out.append((c, _product(lambda s, s2: (op, s, s2),
                                            mu, nu)))
        return out
    return moves


def _interleave(op: str, actions):
    def moves(args, tr):
        x1, x2 = args
        out = [(c, _image(lambda s: (op, s, x2), mu))
               for c, mu in tr(x1) if c in actions]
        out += [(c, _image(lambda s: (op, x1, s), nu))
                for c, nu in tr(x2) if c in actions]
        return out
    return moves


def _par_b(args, tr):
    # synchronise on B = {a}, interleave on b
    return _sync("parB", {"a"})(args, tr) + _interleave("parB", {"b"})(args, tr)


def _deadlock(_args, _tr):
    return []


def _on_a(build):
    """Rules with one premise ``x1 --a--> m1``."""
    def moves(args, tr):
        return [("a", build(args[0], mu)) for c, mu in tr(args[0]) if c == "a"]
    return moves


_PA_RULES = {
    "zero": _deadlock,
    "pref_a": _prefix("a"),
    "pref_b": _prefix("b"),
    "ppref_a_9_1": _prob_prefix("a", Fraction(9, 10)),
    "ppref_b_8_2": _prob_prefix("b", Fraction(4, 5)),
    "ppref_a_5_5": _prob_prefix("a", Fraction(1, 2)),
    "alt": _alt,
    "par": _sync("par", {"a", "b"}),
    "parB": _par_b,
    "ipar": _interleave("ipar", {"a", "b"}),
}

_EXAMPLES_RULES = {
    "zero": _deadlock,
    "pref_a": _prefix("a"),
    "ppref_a_9_1": _prob_prefix("a", Fraction(9, 10)),
    "alt": _alt,
    "par": _sync("par", {"a"}),
    "ipar": _interleave("ipar", {"a"}),
    "f_alt": _on_a(lambda x, mu: _product(lambda s, s2: ("alt", s, s2),
                                          mu, mu)),
    "f_test": _on_a(lambda x, mu: _image(lambda s: ("g_test", s), mu)),
    "g_test": _on_a(lambda x, mu: _dirac(ZERO_T)),
    "h_rep": _on_a(lambda x, mu: _dist(
        [(s, q / 2) for s, q in _product(lambda s, s2: ("par", s, s2),
                                         mu, mu)] + [(ZERO_T, ONE / 2)])),
    "bang": _on_a(lambda x, mu: _image(lambda s: ("ipar", s, ("bang", x)),
                                       mu)),
}


_SUPPORT = {
    "zero": lambda: 0, "g_test": lambda a: 1,
    "pref_a": lambda a: 1, "pref_b": lambda a: 1,
    "ppref_a_9_1": lambda a, b: 2, "ppref_b_8_2": lambda a, b: 2,
    "ppref_a_5_5": lambda a, b: 2,
    "alt": max, "ipar": max, "par": lambda a, b: a * b,
    "parB": lambda a, b: max(a * b, a, b),
    "f_alt": lambda a: a * a, "f_test": lambda a: a,
    "h_rep": lambda a: a * a + 1, "bang": lambda a: a,
}


@functools.lru_cache(maxsize=1 << 16)
def support_bound(t) -> int:
    """An upper bound on the support of any one-step distribution of a
    closed term of the shipped specs or of its subterms, whose transitions
    are derived first; read off the syntax alone."""
    below = [support_bound(a) for a in t[1:]]
    return max([_SUPPORT[t[0]](*below)] + below)


class Lts:
    """Memoised transitions of closed terms under a table of rules."""

    def __init__(self, rules):
        self.rules = rules
        self.memo: dict = {}

    def trans(self, t) -> tuple:
        hit = self.memo.get(t)
        if hit is None:
            moves = self.rules[t[0]](t[1:], self.trans)
            hit = tuple(sorted(set(moves), key=lambda m: m[0]))
            self.memo[t] = hit
        return hit

    def fragment_size(self, roots, cap: int, max_support: int) -> int:
        """States reachable from ``roots``, counted up to ``cap + 1``;
        ``cap + 1`` also when a state may have a one-step distribution of
        more than ``max_support`` points."""
        seen = set(roots)
        todo = list(seen)
        while todo and len(seen) <= cap:
            state = todo.pop()
            if support_bound(state) > max_support:
                return cap + 1
            for _, mu in self.trans(state):
                for s, _ in mu:
                    if s not in seen:
                        seen.add(s)
                        todo.append(s)
        return len(seen)


@functools.cache
def spec_lts(name: str) -> Lts:
    """The process-wide system of a shipped spec, shared by the input
    generator and the answer checks."""
    return Lts({"pa": _PA_RULES, "examples": _EXAMPLES_RULES}[name])


# ---------------------------------------------------------------------------
# Exact transport
# ---------------------------------------------------------------------------

def _transport_2x2(a, b, cost) -> Fraction:
    # The coupling is fixed by the mass f on (0, 0); the cost is linear in
    # f, so the optimum sits at one end of its feasible interval.
    def total(f):
        return (f * cost[0][0] + (a[0] - f) * cost[0][1]
                + (b[0] - f) * cost[1][0] + (a[1] - b[0] + f) * cost[1][1])
    return min(total(max(ZERO, a[0] - b[1])), total(min(a[0], b[0])))


def _transport_flow(a, b, cost) -> Fraction:
    """Successive shortest paths on integer-scaled masses (exact)."""
    scale = 1
    for q in list(a) + list(b):
        scale = scale * q.denominator // math.gcd(scale, q.denominator)
    supply = [int(q * scale) for q in a]
    demand = [int(q * scale) for q in b]
    m, n = len(a), len(b)
    flow = [[0] * n for _ in range(m)]
    total = ZERO
    while any(supply):
        # Bellman-Ford from every source with spare supply, over the
        # residual graph: forward i->j always, backward j->i where flow>0.
        dist_l = [ZERO if supply[i] else None for i in range(m)]
        dist_r: list = [None] * n
        prev_l: list = [None] * m
        prev_r: list = [None] * n
        for _ in range(m + n):
            changed = False
            for i in range(m):
                if dist_l[i] is None:
                    continue
                for j in range(n):
                    nd = dist_l[i] + cost[i][j]
                    if dist_r[j] is None or nd < dist_r[j]:
                        dist_r[j], prev_r[j] = nd, i
                        changed = True
            for j in range(n):
                if dist_r[j] is None:
                    continue
                for i in range(m):
                    if flow[i][j] > 0:
                        nd = dist_r[j] - cost[i][j]
                        if dist_l[i] is None or nd < dist_l[i]:
                            dist_l[i], prev_l[i] = nd, j
                            changed = True
            if not changed:
                break
        sink = min((j for j in range(n) if demand[j] and dist_r[j] is not None),
                   key=lambda j: dist_r[j])
        # walk back to a source, collecting the bottleneck
        path = []
        j = sink
        while True:
            root = prev_r[j]
            path.append((root, j, 1))
            if prev_l[root] is None:
                break
            path.append((root, prev_l[root], -1))
            j = prev_l[root]
        amount = min([supply[root], demand[sink]]
                     + [flow[i][j] for i, j, sign in path if sign < 0])
        for i, j, sign in path:
            flow[i][j] += sign * amount
            total += sign * amount * cost[i][j]
        supply[root] -= amount
        demand[sink] -= amount
    return total / scale


def transport(mu: frozenset, nu: frozenset, d) -> Fraction:
    """Cheapest coupling of ``mu`` and ``nu`` under the distance ``d``."""
    if mu == nu:
        return ZERO
    xs = list(mu)
    ys = list(nu)
    if len(xs) == 1:
        s = xs[0][0]
        return sum((q * d(s, y) for y, q in ys), ZERO)
    if len(ys) == 1:
        s = ys[0][0]
        return sum((q * d(x, s) for x, q in xs), ZERO)
    cost = [[d(x, y) for y, _ in ys] for x, _ in xs]
    a = [q for _, q in xs]
    b = [q for _, q in ys]
    if len(xs) == 2 and len(ys) == 2:
        return _transport_2x2(a, b, cost)
    return _transport_flow(a, b, cost)


# ---------------------------------------------------------------------------
# Behavioural distance
# ---------------------------------------------------------------------------

class CyclicFragment(Exception):
    """The pair system is not well-founded; use a closed form instead."""


class Distance:
    """Exact distance on an acyclic pair system, memoised across queries.

    On a well-founded pair system the least fixed point is obtained by
    evaluating every pair once after the pairs it depends on, which is the
    value Kleene iteration from zero reaches after depth-many rounds."""

    def __init__(self, lts: Lts):
        self.lts = lts
        self.memo: dict = {}
        self.kmemo: dict = {}
        self.active: set = set()

    def __call__(self, u, v) -> Fraction:
        if u == v:
            return ZERO
        hit = self.memo.get((u, v))
        if hit is not None:
            return hit
        if (u, v) in self.active:
            raise CyclicFragment(fmt(u), fmt(v))
        self.active.add((u, v))
        self.active.add((v, u))
        try:
            value = self._settle(u, v)
        finally:
            self.active.discard((u, v))
            self.active.discard((v, u))
        self.memo[(u, v)] = self.memo[(v, u)] = value
        return value

    def _k(self, mu, nu) -> Fraction:
        hit = self.kmemo.get((mu, nu))
        if hit is None:
            hit = transport(mu, nu, self)
            self.kmemo[(mu, nu)] = self.kmemo[(nu, mu)] = hit
        return hit

    def _settle(self, u, v) -> Fraction:
        tu, tv = self.lts.trans(u), self.lts.trans(v)
        value = ZERO
        for c in sorted({m[0] for m in tu} | {m[0] for m in tv}):
            a = [mu for c2, mu in tu if c2 == c]
            b = [nu for c2, nu in tv if c2 == c]
            h = max(self._directed(a, b), self._directed(b, a))
            value = max(value, h)
            if value == ONE:
                break
        return value

    def _directed(self, a, b) -> Fraction:
        worst = ZERO
        for mu in a:
            best = ONE
            for nu in b:
                best = min(best, self._k(mu, nu))
                if best == 0:
                    break
            worst = max(worst, best)
        return worst


def loop_distance(p: Fraction, q: Fraction) -> Fraction:
    """Distance between two loops that continue with probability ``p`` and
    ``q`` (weight 1 never stops).  With ``p < q`` the fixed point is
    ``x = p*x + (q - p)``: couple ``p`` of the continuations at cost
    ``x`` and the extra ``q - p`` of the faster-stopping side at cost 1."""
    p, q = min(p, q), max(p, q)
    if p == q:
        return ZERO
    return (q - p) / (1 - p)


# ---------------------------------------------------------------------------
# Denotational expectations for generated operators
# ---------------------------------------------------------------------------
#
# A generator is a tuple of (counts, probability) pairs, ``counts`` a tuple
# of (variable, count) pairs with ``INF`` for an unbounded count.  Each
# generated operator has exactly one generator over its sources x1, x2.

def gen_of(shape: dict) -> tuple:
    kind = shape["kind"]
    w = Fraction(shape.get("w", 1))
    if kind == "prob_prefix":
        return (((("x1", 1),), w), ((("x2", 1),), 1 - w))
    if kind == "duplicate":
        return (((("x1", shape["k"]),), ONE),)
    if kind == "replicate":
        return (((("x1", 2),), w), ((), 1 - w))
    if kind == "drive":
        return (((("x1", 1),), ONE),)
    if kind == "test":
        return (((), ONE),)
    if kind == "spawn":
        return (((("x1", INF),), ONE),)
    if kind == "negative":
        return (((("x2", 1),), w), ((), 1 - w))
    raise ValueError(kind)


def instantiate(gen: tuple, names: dict[str, str]) -> tuple:
    """Rename sources; a variable used twice adds its counts."""
    out = []
    for counts, q in gen:
        merged: dict = {}
        for x, n in counts:
            y = names[x]
            prev = merged.get(y, 0)
            merged[y] = INF if INF in (prev, n) else prev + n
        out.append((tuple(sorted(merged.items())), q))
    return tuple(out)


def independent_sum(g1: tuple, g2: tuple) -> tuple:
    """Generator of a synchronous pair of independently drawn copies."""
    out = []
    for c1, q1 in g1:
        for c2, q2 in g2:
            merged = dict(c1)
            for x, n in c2:
                prev = merged.get(x, 0)
                merged[x] = INF if INF in (prev, n) else prev + n
            out.append((tuple(sorted(merged.items())), q1 * q2))
    return tuple(out)


def bound_of(gen: tuple, e: dict[str, Fraction]) -> Fraction:
    """Expected chance that some copy shows its argument's difference."""
    total = ZERO
    for counts, q in gen:
        keep = ONE
        for x, n in counts:
            eps = e.get(x, ZERO)
            if eps == 0:
                continue
            keep = ZERO if n == INF else keep * (1 - eps) ** n
        total += q * (1 - keep)
    return total


def continuity_of(arity: int, gen: tuple | None) -> dict:
    """Verdict, modulus coefficients and copies bound of one operator.

    ``gen`` None stands for the base operators whose denotation is one
    copy of each argument (in one or in separate generators)."""
    sources = [f"x{i + 1}" for i in range(arity)]
    if gen is None:
        coeffs = [ONE] * arity
    else:
        expected: dict = {}
        for counts, q in gen:
            for x, n in counts:
                v = INF if n == INF else q * n
                prev = expected.get(x, ZERO)
                expected[x] = INF if INF in (prev, v) else prev + v
        coeffs = [expected.get(x, ZERO) for x in sources]
    if INF in coeffs:
        return {"verdict": "not-shown", "coefficients":
                ["inf" if c == INF else fmt_q(c) for c in coeffs],
                "copies_bound": None}
    worst = max(coeffs, default=ZERO)
    return {"verdict": "uniformly-continuous",
            "coefficients": [fmt_q(c) for c in coeffs],
            "copies_bound": math.ceil(worst) if arity else 0}
