"""Seeded inputs for the three workloads, with their exact expectations.

Every workload is a sequence of rounds.  A round has the same mix of query
shapes and sizes for every seed; the seed picks the details inside each
shape and their order.  Keeping the mix fixed is what keeps the per-query
percentiles and the throughput comparable between seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference as ref
from reference import fmt

SPEC_FILES = {"pa": "src/pgsos/data/pa.pgsos",
              "examples": "src/pgsos/data/examples.pgsos"}


# ---------------------------------------------------------------------------
# distance: nested par/parB/ipar chains over pa0, one leaf perturbed
# ---------------------------------------------------------------------------

_A, _B, _Z = ("pref_a", ref.ZERO_T), ("pref_b", ref.ZERO_T), ref.ZERO_T
# Replacements for one pa0 leaf, each with pa0's shape (one probabilistic
# a-step onto two small states).
PERTURB = [("ppref_a_9_1", _B, _Z), ("ppref_a_5_5", _A, _Z),
           ("ppref_a_9_1", _Z, _A)]
CHAINS_1 = [("par",), ("parB",), ("ipar",)]
CHAINS_2 = [(a, b) for a in ("par", "parB", "ipar")
            for b in ("par", "parB", "ipar")]
CHAINS_3 = [("par", "ipar", "ipar"), ("ipar", "par", "ipar"),
            ("parB", "ipar", "ipar"), ("ipar", "parB", "ipar")]
# The largest fragment (135 joint states); ("ipar",) * 4 is left out, see
# README.md.
LARGEST = ("ipar", "ipar", "ipar")
LOOP_WEIGHTS = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4),
                Fraction(4, 5)]


def chain(ops, leaves):
    t = leaves[0]
    for op, leaf in zip(ops, leaves[1:]):
        t = (op, t, leaf)
    return t


def loops_spec(rng: random.Random) -> tuple[str, dict[str, Fraction]]:
    """A cyclic specification: ``loop_all`` never stops, each ``loop_<i>``
    continues with its own probability, in a seeded order."""
    loops = {"loop_all": Fraction(1)}
    for i, w in enumerate(rng.sample(LOOP_WEIGHTS, len(LOOP_WEIGHTS))):
        loops[f"loop_{i}"] = w
    lines = ["actions a;", "op zero : 0;"]
    lines += [f"op {name} : 0;" for name in loops]
    for name, w in loops.items():
        target = (f"delta({name})" if w == 1 else
                  f"{w}*delta({name}) + {1 - w}*delta(zero)")
        lines += ["rule:", "  ---", f"  {name} --a--> {target}"]
    return "\n".join(lines) + "\n", loops


def distance_round(rng: random.Random, loops: dict) -> list[dict]:
    """One round: every chain of one and two nestings with every leaf
    perturbed in every way, the two-``ipar`` chains with their first and
    last leaf perturbed, the largest chain, and ``loop_all`` against every
    stopping loop.  The seed orders the queries and picks which side of
    each pair is the perturbed one; the cost of a round does not depend
    on it."""
    pa0 = ref.PA_TERMS["pa0"]
    cases = []
    for ops in CHAINS_1 + CHAINS_2:
        for pos in range(len(ops) + 1):
            cases += [(ops, pos, repl) for repl in PERTURB]
    for ops in CHAINS_3:
        cases += [(ops, 0, PERTURB[0]), (ops, len(ops), PERTURB[0])]
    cases.append((LARGEST, 0, PERTURB[0]))
    queries = []
    for ops, pos, repl in cases:
        leaves = [pa0] * (len(ops) + 1)
        changed = list(leaves)
        changed[pos] = repl
        pair = [fmt(chain(ops, leaves)), fmt(chain(ops, changed))]
        rng.shuffle(pair)
        queries.append({"kind": "distance", "spec": "pa",
                        "t1": pair[0], "t2": pair[1]})
    for name, w in loops.items():
        if w != 1:
            pair = ["loop_all", name]
            rng.shuffle(pair)
            queries.append({"kind": "distance", "spec": "loops",
                            "t1": pair[0], "t2": pair[1],
                            "expect": str(ref.loop_distance(Fraction(1), w))})
    rng.shuffle(queries)
    return queries


def distance_workload(seed: int, rounds: int) -> dict:
    rng = random.Random(seed)
    loops_text, loops = loops_spec(rng)
    plan = [distance_round(rng, loops) for _ in range(rounds)]
    return {"specs": {"pa": SPEC_FILES["pa"], "loops": loops_text},
            "setup_specs": ["pa", "loops"], "rounds": plan}


# ---------------------------------------------------------------------------
# oracle: a copy of the package's sampler as of this benchmark's creation
# ---------------------------------------------------------------------------

class Sampler:
    """Grammar-directed open terms and nearby substitution pairs, drawn in
    the same order as ``pgsos.oracle.oracle_suite`` draws them."""

    def __init__(self, spec: str, rng: random.Random):
        self.rng = rng
        self.ops = ref.SIGNATURES[spec]
        self.leaves = [(op,) for op, n in self.ops if n == 0]
        self.leaves += list(ref.ABBREVIATIONS[spec].values())
        self.positive = [(op, n) for op, n in self.ops if n > 0]

    def closed(self, depth: int):
        rng = self.rng
        if depth <= 0 or not self.positive:
            return rng.choice(self.leaves)
        if rng.random() < 0.3:
            return rng.choice(self.leaves)
        op, n = rng.choice(self.positive)
        return (op,) + tuple(self.closed(depth - 1) for _ in range(n))

    def perturbed(self, t):
        path = self.rng.choice(_positions(t))
        return _replace(t, path, self.closed(1))

    def substitution_pair(self, variables, depth: int):
        rng = self.rng
        s1 = {v: self.closed(depth) for v in variables}
        s2 = {}
        for v in variables:
            roll = rng.random()
            if roll < 0.2:
                s2[v] = s1[v]
            elif roll < 0.8:
                s2[v] = self.perturbed(s1[v])
            else:
                s2[v] = self.closed(depth)
        return s1, s2

    def open(self, depth: int, pool):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.25:
            if pool and rng.random() < 0.7:
                return rng.choice(list(pool))
            return self.closed(0)
        op, n = rng.choice(self.positive)
        return (op,) + tuple(self.open(depth - 1, pool) for _ in range(n))

    def sample(self, depth: int = 3, pool=("x", "y")):
        t = self.open(depth, pool)
        variables = sorted(ref.free_vars(t))
        s1, s2 = self.substitution_pair(variables, depth)
        return t, s1, s2


def _positions(t) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for i, a in enumerate(t[1:]):
        out.extend((i,) + p for p in _positions(a))
    return out


def _replace(t, path, repl):
    if not path:
        return repl
    i = path[0] + 1
    return t[:i] + (_replace(t[i], path[1:], repl),) + t[i + 1:]


ORACLE_SPECS = ("pa", "examples")
# Samples whose compared pairs reach more states than SMALL_FRAGMENT, or
# states that may have one-step distributions of more than SMALL_SUPPORT
# points, are skipped.  Beyond these sizes single samples take from a
# second to more than 100 s (one of 1000 drawn samples), longer than a
# whole run may last; the big-fragment path is what the distance workload
# measures.
SMALL_FRAGMENT = 32
SMALL_SUPPORT = 16
# Samples per round and spec by the largest fragment a sample compares
# (at most 4, 8, 16 and 32 states), close to how often the sampler draws
# each size.  A fixed mix per round keeps the cost of a round the same for
# every seed.
ORACLE_QUOTAS = {"pa": (11, 8, 16, 15), "examples": (23, 13, 8, 6)}
SIZE_CLASSES = (4, 8, 16, 32)


def size_class(lts: ref.Lts, pairs) -> int | None:
    """Index into SIZE_CLASSES of the sample's largest fragment, or None
    for a sample that is too large."""
    largest = max(lts.fragment_size(p, SMALL_FRAGMENT, SMALL_SUPPORT)
                  for p in pairs)
    if largest > SMALL_FRAGMENT:
        return None
    return next(i for i, n in enumerate(SIZE_CLASSES) if largest <= n)


def oracle_workload(seed: int, rounds: int) -> dict:
    rng = random.Random(seed)
    streams = {}
    for spec in ORACLE_SPECS:
        sampler = Sampler(spec, random.Random(f"{seed}/{spec}"))
        streams[spec] = (sampler, ref.spec_lts(spec),
                         [[] for _ in SIZE_CLASSES])
    drawn = skipped = 0
    plan = []
    for _ in range(rounds):
        halves = []
        for spec in ORACLE_SPECS:
            sampler, lts, pending = streams[spec]
            half = []
            for cls, quota in enumerate(ORACLE_QUOTAS[spec]):
                while len(pending[cls]) < quota:
                    drawn += 1
                    t, s1, s2 = sampler.sample()
                    pairs = [(s1[v], s2[v]) for v in s1]
                    pairs.append((ref.subst(t, s1), ref.subst(t, s2)))
                    c = size_class(lts, pairs)
                    if c is None:
                        skipped += 1
                    else:
                        pending[c].append(
                            {"kind": "oracle", "spec": spec, "term": fmt(t),
                             "s1": {v: fmt(x) for v, x in s1.items()},
                             "s2": {v: fmt(x) for v, x in s2.items()}})
                half += pending[cls][:quota]
                del pending[cls][:quota]
            rng.shuffle(half)
            halves.append(half)
        plan.append([q for pair in zip(*halves) for q in pair])
    return {"specs": dict(SPEC_FILES), "setup_specs": list(ORACLE_SPECS),
            "rounds": plan,
            "stats": {"drawn": drawn, "skipped_large": skipped}}


# ---------------------------------------------------------------------------
# analysis: generated specifications queried through the command line
# ---------------------------------------------------------------------------

SPEC_SIZES = (6, 14, 24, 40)  # generated operators per spec, one round
SHAPES = ("prob_prefix", "duplicate", "replicate", "testing", "spawn",
          "negative")
WEIGHTS = [Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5),
           Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(3, 4),
           Fraction(4, 5)]
DISTANCES = ["1/10", "1/5", "1/4", "1/3", "1/2", "3/4"]
BOUNDS_PER_SPEC = 4

BASE = """actions a, b;
op zero : 0;
op alt : 2;
op par : 2;
op ipar : 2;
rule forall c in ACT:
  x1 --c--> m1
  ---
  alt(x1, x2) --c--> m1
rule forall c in ACT:
  x2 --c--> m2
  ---
  alt(x1, x2) --c--> m2
rule forall c in ACT:
  x1 --c--> m1
  x2 --c--> m2
  ---
  par(x1, x2) --c--> par(m1, m2)
rule forall c in ACT:
  x1 --c--> m1
  ---
  ipar(x1, x2) --c--> ipar(m1, delta(x2))
rule forall c in ACT:
  x2 --c--> m2
  ---
  ipar(x1, x2) --c--> ipar(delta(x1), m2)
"""


def _shape_ops(kind: str, i: int, rng: random.Random):
    """Declarations, rules and per-operator shapes for one rule shape."""
    w = rng.choice(WEIGHTS)
    c = rng.choice("ab")
    if kind == "prob_prefix":
        op = f"p{i}"
        return [(op, 2, {"kind": kind, "w": w})], [
            f"rule:\n  ---\n  {op}(x1, x2) --{c}--> "
            f"{w}*delta(x1) + {1 - w}*delta(x2)"]
    if kind == "duplicate":
        op, k = f"d{i}", rng.choice((2, 3))
        target = "alt(m1, m1)" if k == 2 else "alt(m1, alt(m1, m1))"
        return [(op, 1, {"kind": kind, "k": k})], [
            f"rule forall c in ACT:\n  x1 --c--> m1\n  ---\n"
            f"  {op}(x1) --c--> {target}"]
    if kind == "replicate":
        op = f"h{i}"
        return [(op, 1, {"kind": kind, "w": w})], [
            f"rule:\n  x1 --{c}--> m1\n  ---\n"
            f"  {op}(x1) --{c}--> {w}*par(m1, m1) + {1 - w}*delta(zero)"]
    if kind == "testing":
        drv, tst = f"f{i}", f"g{i}"
        return [(drv, 1, {"kind": "drive"}), (tst, 1, {"kind": "test"})], [
            f"rule:\n  x1 --a--> m1\n  ---\n  {drv}(x1) --a--> {tst}(m1)",
            f"rule:\n  x1 --{c}--> m1\n  ---\n  {tst}(x1) --a--> delta(zero)"]
    if kind == "spawn":
        op = f"s{i}"
        return [(op, 1, {"kind": kind})], [
            f"rule forall c in ACT:\n  x1 --c--> m1\n  ---\n"
            f"  {op}(x1) --c--> ipar(m1, delta({op}(x1)))"]
    if kind == "negative":
        op = f"n{i}"
        other = "b" if c == "a" else "a"
        return [(op, 2, {"kind": kind, "w": w})], [
            f"rule:\n  x1 -/{other}->\n  x2 --{c}--> m2\n  ---\n"
            f"  {op}(x1, x2) --{c}--> {w}*m2 + {1 - w}*delta(zero)"]
    raise ValueError(kind)


def generated_spec(rng: random.Random, size: int):
    """A specification with ``size`` generated operators on top of the base
    operators, one rule shape each, cycling through the shapes in a seeded
    order that always starts with a spawning shape."""
    rest = [s for s in SHAPES if s != "spawn"]
    rng.shuffle(rest)
    order = ["spawn"] + rest
    ops: list = []
    rules: list[str] = []
    i = 0
    while len(ops) < size:
        new_ops, new_rules = _shape_ops(order[i % len(order)], i, rng)
        ops += new_ops
        rules += new_rules
        i += 1
    decls = "".join(f"op {op} : {n};\n" for op, n, _ in ops)
    text = BASE + decls + "\n".join(rules) + "\n"
    return text, ops


def _bound_query(rng: random.Random, ops):
    def app():
        op, n, shape = rng.choice(ops)
        names = {f"x{k + 1}": rng.choice("xy") for k in range(n)}
        term = (op,) + tuple(names[f"x{k + 1}"] for k in range(n))
        return term, ref.instantiate(ref.gen_of(shape), names)

    if rng.random() < 0.5:
        term, gen = app()
    else:
        (t1, g1), (t2, g2) = app(), app()
        term, gen = ("par", t1, t2), ref.independent_sum(g1, g2)
    dist = {"x": rng.choice(DISTANCES), "y": rng.choice(DISTANCES)}
    e = {v: Fraction(q) for v, q in dist.items()}
    return fmt(term), ",".join(f"{v}={q}" for v, q in dist.items()), \
        str(ref.bound_of(gen, e))


# The shipped operators, with the moduli of the README and the acceptance
# tests: f_alt copies twice, h_rep twice with probability 1/2, bang spawns.
EXAMPLES_SHAPES = [
    ("zero", 0, None), ("pref_a", 1, {"kind": "drive"}),
    ("ppref_a_9_1", 2, {"kind": "prob_prefix", "w": Fraction(9, 10)}),
    ("alt", 2, None), ("par", 2, None), ("ipar", 2, None),
    ("f_alt", 1, {"kind": "duplicate", "k": 2}),
    ("f_test", 1, {"kind": "drive"}), ("g_test", 1, {"kind": "test"}),
    ("h_rep", 1, {"kind": "replicate", "w": Fraction(1, 2)}),
    ("bang", 1, {"kind": "spawn"}),
]


def analysis_workload(seed: int, rounds: int) -> dict:
    rng = random.Random(seed)
    specs: dict[str, str] = {"examples": SPEC_FILES["examples"]}
    shipped = {op: ref.continuity_of(n, None if shape is None
                                     else ref.gen_of(shape))
               for op, n, shape in EXAMPLES_SHAPES}
    plan = []
    for r in range(rounds):
        queries = [{"kind": "cli", "spec": "examples",
                    "argv": ["--json", "continuity", "{spec}"],
                    "expect": shipped}]
        for size in SPEC_SIZES:
            name = f"gen{r}_{size}"
            text, ops = generated_spec(rng, size)
            specs[name] = text
            expect = {"zero": ref.continuity_of(0, None)}
            for base in ("alt", "par", "ipar"):
                expect[base] = ref.continuity_of(2, None)
            for op, n, shape in ops:
                expect[op] = ref.continuity_of(n, ref.gen_of(shape))
            queries.append({"kind": "cli", "spec": name,
                            "argv": ["--json", "continuity", "{spec}"],
                            "expect": expect})
            for _ in range(BOUNDS_PER_SPEC):
                term, dist, bound = _bound_query(rng, ops)
                queries.append({"kind": "cli", "spec": name,
                                "argv": ["--json", "bound", "--dist", dist,
                                         "{spec}", term],
                                "expect": bound})
        plan.append(queries)
    first = [q["spec"] for q in plan[0] if q["argv"][1] == "continuity"]
    return {"specs": specs, "setup_specs": first, "rounds": plan}


WORKLOADS = {"distance": distance_workload, "oracle": oracle_workload,
             "analysis": analysis_workload}
