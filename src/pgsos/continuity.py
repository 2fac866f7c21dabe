"""Per-operator compositionality analysis.

An operator's denotation bounds how many copies of each argument a context
built from it can spawn; the expected copy-counts become the coefficients
of a capped linear modulus ``z(e) = min(sum c_i * e_i, 1)`` bounding the
distance between applications of the operator in terms of the pairwise
argument distances.  All-finite coefficients certify uniform continuity
(with ``n`` = the ceiling of the largest coefficient as a uniform copy
bound); an infinite coefficient means no such certificate exists — the
sufficient condition fails, so the verdict is "not-shown" rather than a
non-continuity claim, except that genuinely unbounded spawning is
annotated as such.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .denotation import generic_application, lfp_denotations
from .errors import ArityMismatch, UnsupportedModulusShape
from .frontend import SpecDocument
from .multiplicity import (INF, ExtRational, ext_add, ext_leq, ext_mul,
                           format_count, sup_approx, sup_is_exact)
from .terms import Var

VERDICT_CONTINUOUS = "uniformly-continuous"
VERDICT_NOT_SHOWN = "not-shown"


@dataclass(frozen=True)
class ModulusSpec:
    """A capped linear modulus ``z(e1, ..., en) = min(sum c_i e_i, 1)``.

    Coefficients are nonnegative rationals or ``INF``; the form vanishes
    at the origin, and is continuous there exactly when every coefficient
    is finite.
    """

    arity: int
    coefficients: tuple[ExtRational, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.arity:
            raise ValueError("one coefficient per argument required")
        for c in self.coefficients:
            if c is not INF and c < 0:
                raise ValueError(f"negative coefficient {c}")

    def is_finite(self) -> bool:
        return all(c is not INF for c in self.coefficients)

    def evaluate(self, eps: Sequence[Fraction]) -> Fraction:
        if len(eps) != self.arity:
            raise ArityMismatch(
                f"modulus of arity {self.arity} applied to {len(eps)} values")
        total: ExtRational = Fraction(0)
        for c, e in zip(self.coefficients, eps):
            total = ext_add(total, ext_mul(c, Fraction(e)))
        if total is INF:
            return Fraction(1)
        return min(total, Fraction(1))

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coefficients, start=1):
            if c == 0:
                continue
            if c == 1:
                terms.append(f"e{i}")
            else:
                terms.append(f"{format_count(c)}*e{i}")
        if not terms:
            return "0"
        return "min(" + " + ".join(terms) + ", 1)"


@dataclass(frozen=True)
class ContinuityReport:
    """Verdict and evidence for one operator."""

    operator: str
    verdict: str
    modulus: ModulusSpec
    copies_bound: int | None
    reasons: tuple[str, ...]
    over_approximated: bool
    widened: bool
    annotation: str | None


def is_uniformly_continuous(doc: SpecDocument, op: str) -> ContinuityReport:
    """Decide the sufficient condition: the operator's denotation lies
    below a single uniform copy bound ``n`` on its arguments.

    Because a Dirac upper bound reduces the generator order to a pointwise
    condition on expectations, the check is per generator: every expected
    copy-count finite on the argument positions and zero elsewhere.  The
    verdict is per-generator exact even when the reported modulus
    coefficients had to be over-approximated.  The coefficients are the
    argument positions' expected copy-counts in the weighted supremum.
    """
    den = lfp_denotations(doc)
    generic, sources = generic_application(doc, op)
    gens = tuple(den.genset(generic))
    widened, over_approximated = den.flags(generic)

    reasons: list[str] = []
    worst = Fraction(0)
    infinite_vars: list[Var] = []
    for p in gens:
        w = den.weighting(p)
        for x, v in w.entries:  # f(x1..xn)'s generators count x1..xn only
            if v is INF:
                if x not in infinite_vars:
                    infinite_vars.append(x)
            elif not ext_leq(v, worst):
                worst = v

    for x in sorted(infinite_vars, key=lambda v: v.name):
        reasons.append(f"infinite coefficient at {x.name}")
    # only widening makes a count infinite
    if infinite_vars:
        reasons.append("denotation required widening of an unbounded "
                       "growth chain")

    sup = den.weighting(gens[0] if len(gens) == 1 else sup_approx(gens))
    modulus = ModulusSpec(len(sources), tuple(sup.get(x) for x in sources))
    over_approx = len(gens) > 1 and not sup_is_exact(gens)
    if over_approx:
        reasons.append("modulus coefficients over-approximate a "
                       "non-Dirac supremum")

    if not infinite_vars:
        verdict = VERDICT_CONTINUOUS
        copies = math.ceil(worst) if sources else 0
        annotation = None
    else:
        verdict = VERDICT_NOT_SHOWN
        copies = None
        if over_approximated:
            annotation = ("no finite copy bound was found: the infinite "
                          "count was widened in a fixed point that "
                          "over-approximates the least one, so the "
                          "operator may still be uniformly continuous")
        else:
            annotation = ("contexts can spawn unboundedly many copies of "
                          "the argument, so no modulus of continuity exists "
                          "and the operator is not uniformly continuous")
    return ContinuityReport(op, verdict, modulus, copies, tuple(reasons),
                            over_approx, widened, annotation)


def check_modulus(doc: SpecDocument, op: str, z: ModulusSpec) -> bool:
    """Does ``z`` bound the operator's spawning behaviour?

    For capped linear moduli the per-argument copy budget is exactly the
    coefficient, so the check is coefficient-wise: satisfied when every
    expected copy-count is at most the corresponding coefficient.
    """
    derived = is_uniformly_continuous(doc, op).modulus
    if z.arity != derived.arity:
        raise ArityMismatch(
            f"operator '{op}' has arity {derived.arity}, "
            f"modulus has arity {z.arity}")
    return all(ext_leq(c, bound) for c, bound
               in zip(derived.coefficients, z.coefficients))


# ---------------------------------------------------------------------------
# Parsing user-supplied moduli
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?:(?P<coef>inf|\d+/\d+|\d+\.\d+|\d+)\s*\*\s*)?e(?P<idx>\d+)$"
    r"|^(?P<const>inf|\d+/\d+|\d+\.\d+|\d+)$")


def _number(text: str, convert=Fraction):
    """``convert(text)``, or :class:`UnsupportedModulusShape` where it
    refuses: a zero denominator, or more digits than it converts."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise UnsupportedModulusShape(
            f"bad number '{text}' in modulus") from None


def parse_modulus(text: str, arity: int) -> ModulusSpec:
    """Parse a capped linear modulus like ``1/2*e1 + e2``.

    An optional ``min( ..., 1)`` wrapper is accepted; anything that is not
    a nonnegative linear combination of the argument distances (products
    of arguments, subtraction, nonzero constants, out-of-range indices)
    raises :class:`UnsupportedModulusShape`.
    """
    body = text.strip()
    wrapper = re.fullmatch(r"min\s*\((.*),\s*1\s*\)", body, re.DOTALL)
    if wrapper:
        body = wrapper.group(1).strip()
    if not body:
        raise UnsupportedModulusShape("empty modulus expression")
    coeffs: list[ExtRational] = [Fraction(0)] * arity
    for raw in body.split("+"):
        m = _TERM_RE.match(raw.strip())
        if not m:
            raise UnsupportedModulusShape(
                f"unsupported modulus term '{raw.strip()}': only capped "
                f"linear forms c1*e1 + ... + cn*en are accepted")
        if m.group("const") is not None:
            if m.group("const") == "inf" or _number(m.group("const")) != 0:
                raise UnsupportedModulusShape(
                    "nonzero constant term: the modulus must vanish when "
                    "all argument distances are zero")
            continue
        idx = _number(m.group("idx"), int)
        if not 1 <= idx <= arity:
            raise UnsupportedModulusShape(
                f"argument index e{idx} out of range for arity {arity}")
        coef_text = m.group("coef")
        coef: ExtRational
        if coef_text is None:
            coef = Fraction(1)
        elif coef_text == "inf":
            coef = INF
        else:
            coef = _number(coef_text)
        coeffs[idx - 1] = ext_add(coeffs[idx - 1], coef)
    return ModulusSpec(arity, tuple(coeffs))
