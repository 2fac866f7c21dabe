"""Command-line interface.

Every command produces one report document; ``--json`` prints it as
canonical JSON (rationals as ``p/q`` strings, infinite counts as
``"inf"``, keys sorted) and the default output is a human-readable view
of the same data.  Exit codes: 0 on success (also when the reader closes
stdout early), 1 when an analysis refuses to produce a trustworthy result
(a state, depth or pair budget exceeded, every sample skipped), 2 for
malformed specs, terms, or usage, 3 for an internal error (any other
exception, reported with its traceback).  Distances are always exact and
only the budgets refuse them; denotations always end, flagged where they
over-approximate.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
import warnings
from fractions import Fraction
from typing import Any, Callable, Sequence

from . import continuity as cont
from .denotation import bound_distance, generic_application, lfp_denotations
from .errors import AnalysisRefusal, InputError
from .frontend import SpecDocument, parse_spec, parse_term
from .metric import bisim_distance
from .multiplicity import INF, ProcessDistance, process_distance
from .oracle import oracle_suite
from .semantics import DEFAULT_MAX_STATES, derive_transitions, explore_fragment
from .terms import Variable, format_rational, format_term, free_vars

SCHEMA = "pgsos-report/1"


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def jsonable(value: Any) -> Any:
    """Rationals to ``p/q`` strings, infinity to ``"inf"``, domain values
    to their canonical text; containers recursively."""
    if value is INF:
        return "inf"
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return str(value)


def emit(args: argparse.Namespace, command: str, doc: SpecDocument | None,
         inputs: dict[str, Any], results: dict[str, Any],
         flags: dict[str, Any], human: str) -> None:
    if args.json:
        report = {
            "schema": SCHEMA,
            "command": command,
            "spec_digest": doc.source_digest if doc is not None else None,
            "inputs": jsonable(inputs),
            "results": jsonable(results),
            "flags": jsonable(flags),
        }
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(human)


# ---------------------------------------------------------------------------
# Shared argument helpers
# ---------------------------------------------------------------------------

def read_spec(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise InputError(f"cannot read spec file {path}: {err}") from None


def load_spec(path: str) -> SpecDocument:
    data = read_spec(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parse_spec(data)


def parse_dist(text: str) -> ProcessDistance:
    """``x=1/10,y=1/5`` to a process distance."""
    values: dict[Variable, Fraction] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, raw = part.partition("=")
        if not sep:
            raise InputError(f"expected name=value in --dist, got '{part}'")
        x = Variable(name.strip())
        if not x.name:
            raise InputError(f"empty variable name in --dist, got '{part}'")
        if x in values:
            raise InputError(f"variable '{x.name}' given twice in --dist")
        try:
            values[x] = Fraction(raw.strip())
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad rational '{raw.strip()}' in --dist") from None
    try:
        return process_distance(values)
    except ValueError as err:
        raise InputError(str(err)) from None


def int_at_least(low: int) -> Callable[[str], int]:
    """Argument type for budgets: an integer below ``low`` is a usage
    error, not a refusal."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: '{text}'") from None
        if n < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {n}")
        return n
    return parse


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_check(args: argparse.Namespace) -> int:
    data = read_spec(args.spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        doc = parse_spec(data)
    notes = sorted(str(w.message) for w in caught)
    ops = len(doc.signature.operators)
    human_lines = [
        f"ok: {ops} operators, {len(doc.rules)} rules, "
        f"actions: {', '.join(doc.actions)}"]
    human_lines += [f"note: {n}" for n in notes]
    emit(args, "check", doc,
         {"spec": args.spec},
         {"operators": ops, "rules": len(doc.rules),
          "actions": list(doc.actions), "notes": notes},
         {}, "\n".join(human_lines))
    return 0


def cmd_transitions(args: argparse.Namespace) -> int:
    doc = load_spec(args.spec)
    t = parse_term(args.term, doc)
    trans = sorted(derive_transitions(doc, t),
                   key=lambda at: (at[0], str(at[1])))
    human = "\n".join(f"{a} --> {pi}" for a, pi in trans) or "(no transitions)"
    emit(args, "transitions", doc, {"term": format_term(t)},
         {"transitions": [{"action": a, "target": str(pi)}
                          for a, pi in trans]},
         {}, human)
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    doc = load_spec(args.spec)
    roots = [parse_term(s, doc) for s in args.terms]
    fragment = explore_fragment(doc, roots, max_states=args.max_states,
                                max_depth=args.max_depth)
    # a budget that cuts exploration short raises, so the fragment is complete
    states = [text for _, text in sorted((fragment.depths[s], format_term(s))
                                         for s in fragment.states)]
    count = sum(len(pis) for moves in fragment.transitions.values()
                for pis in moves.values())
    lines = [f"states: {len(states)} (complete, depth {fragment.depth})"]
    lines += [f"  {text}" for text in states]
    lines.append(f"transitions: {count}")
    emit(args, "explore", doc,
         {"terms": [format_term(t) for t in roots],
          "max_states": args.max_states, "max_depth": args.max_depth},
         {"states": states,
          "depth": fragment.depth, "transition_count": count},
         {"complete": True}, "\n".join(lines))
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    doc = load_spec(args.spec)
    t1 = parse_term(args.term1, doc)
    t2 = parse_term(args.term2, doc)
    value = bisim_distance(doc, t1, t2, max_states=args.max_states,
                           max_pairs=args.max_pairs)
    emit(args, "distance", doc,
         {"term1": format_term(t1), "term2": format_term(t2)},
         {"distance": value}, {}, format_rational(value))
    return 0


def cmd_denote(args: argparse.Namespace) -> int:
    doc = load_spec(args.spec)
    t = parse_term(args.term, doc)
    den = lfp_denotations(doc)
    gs = den.genset(t)
    widened, over_approximated = den.flags(t)
    flags = {"widened": widened, "over_approximated": over_approximated}
    human = f"[[{format_term(t)}]] = {gs}"
    if widened:
        human += "\n(widened: some counts were promoted to inf)"
    if over_approximated:
        human += ("\n(over-approximated: an upper bound of the least "
                  "fixed point)")
    emit(args, "denote", doc, {"term": format_term(t)},
         {"denotation": str(gs),
          "generators": [str(p) for p in gs]},
         flags, human)
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    doc = load_spec(args.spec)
    t = parse_term(args.term, doc)
    e = parse_dist(args.dist)
    missing = [v.name for v in sorted(free_vars(t), key=lambda v: v.name)
               if e.get(v) == 0 and isinstance(v, Variable)]
    value = bound_distance(doc, t, e)
    widened, over_approximated = lfp_denotations(doc).flags(t)
    flags = {"widened": widened, "over_approximated": over_approximated,
             "zero_distance_variables": missing}
    emit(args, "bound", doc,
         {"term": format_term(t), "dist": args.dist},
         {"bound": value}, flags, format_rational(value))
    return 0


def _report_dict(r: cont.ContinuityReport) -> dict[str, Any]:
    return {"operator": r.operator, "verdict": r.verdict,
            "modulus": str(r.modulus),
            "coefficients": list(r.modulus.coefficients),
            "copies_bound": r.copies_bound,
            "reasons": list(r.reasons),
            "annotation": r.annotation}


def _report_text(r: cont.ContinuityReport) -> str:
    lines = [f"{r.operator}: {r.verdict}", f"  modulus: {r.modulus}"]
    if r.copies_bound is not None:
        lines.append(f"  copies bound: {r.copies_bound}")
    for reason in r.reasons:
        lines.append(f"  reason: {reason}")
    if r.annotation:
        lines.append(f"  note: {r.annotation}")
    return "\n".join(lines)


def cmd_continuity(args: argparse.Namespace) -> int:
    doc = load_spec(args.spec)
    if args.op is not None:
        doc.signature.arity(args.op)  # an unknown operator is bad input
        ops = [args.op]
    else:
        ops = [op for op, _ in doc.signature.operators]
    reports = [cont.is_uniformly_continuous(doc, op) for op in ops]
    # the flags of the reported operators' generic applications, together
    den = lfp_denotations(doc)
    flags = [den.flags(generic_application(doc, op)[0]) for op in ops]
    emit(args, "continuity", doc, {"operator": args.op},
         {"reports": [_report_dict(r) for r in reports]},
         {"widened": any(w for w, _ in flags),
          "over_approximated": any(o for _, o in flags)},
         "\n".join(_report_text(r) for r in reports))
    return 0


def cmd_check_modulus(args: argparse.Namespace) -> int:
    doc = load_spec(args.spec)
    z = cont.parse_modulus(args.z, doc.signature.arity(args.op))
    ok = cont.check_modulus(doc, args.op, z)
    emit(args, "check-modulus", doc,
         {"operator": args.op, "z": args.z},
         {"modulus": str(z), "satisfied": ok}, {},
         "satisfied" if ok else "not satisfied")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    doc = load_spec(args.spec)
    t = None if args.term is None else parse_term(args.term, doc)
    summary = oracle_suite(doc, t, seed=args.seed, samples=args.samples,
                           depth=args.depth, max_states=args.max_states)
    inputs: dict[str, Any] = {} if t is None else {"term": format_term(t)}
    inputs.update({"seed": args.seed, "samples": args.samples,
                   "max_depth": args.depth})
    skipped = ", ".join(f"{k}={v}" for k, v in summary.skipped.items()) or "none"
    # a violated bound raises, so a finished run always reports none
    human = (f"samples: {summary.requested}, compared: {summary.used}, "
             f"skipped: {skipped}\n"
             f"violations: 0, tight: {summary.tight}, "
             f"max gap: {format_rational(summary.max_gap)}")
    emit(args, "oracle", doc, inputs,
         {"requested": summary.requested, "used": summary.used,
          "skipped": summary.skipped, "violations": 0,
          "tight": summary.tight, "max_gap": summary.max_gap,
          "samples": [{"term": r.term,
                       "left": dict(r.left), "right": dict(r.right),
                       "distances": dict(r.distances),
                       "exact": r.exact, "bound": r.bound}
                      for r in summary.results]},
         {}, human)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; :func:`main` runs each
    command as the ``cmd_`` function of its name, looked up at that time."""
    parser = argparse.ArgumentParser(
        prog="pgsos",
        description="Exact bisimulation distances, denotations and "
                    "compositionality analysis for rule-specified "
                    "probabilistic process algebras.")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("spec", help="path to a specification file")
        return p

    add("check", "parse and validate a specification")

    p = add("transitions", "derived transitions of a closed term")
    p.add_argument("term")

    p = add("explore", "reachable fragment of closed terms")
    p.add_argument("terms", nargs="+")
    p.add_argument("--max-states", type=int_at_least(1),
                   default=DEFAULT_MAX_STATES)
    p.add_argument("--max-depth", type=int_at_least(0), default=None)

    p = add("distance", "exact behavioural distance of two closed terms")
    p.add_argument("term1")
    p.add_argument("term2")
    p.add_argument("--max-states", type=int_at_least(1),
                   default=DEFAULT_MAX_STATES)
    p.add_argument("--max-pairs", type=int_at_least(1), default=None,
                   help="bound on the class pairs the distance depends on "
                        "(default: no bound)")

    p = add("denote", "denotation of an open term")
    p.add_argument("term")

    p = add("bound", "distance bound for instances of an open term")
    p.add_argument("term")
    p.add_argument("--dist", required=True,
                   help="per-variable distances, e.g. x=1/10,y=1/5")

    p = add("continuity", "uniform-continuity reports for operators")
    p.add_argument("op", nargs="?", default=None)

    p = add("check-modulus",
            "check a user-supplied modulus against an operator")
    p.add_argument("op")
    p.add_argument("--z", required=True,
                   help="capped linear modulus, e.g. '1/2*e1 + e2'")

    p = add("oracle", "randomized exact-vs-bound comparison")
    p.add_argument("term", nargs="?", default=None)
    p.add_argument("--samples", type=int_at_least(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int_at_least(0), default=3)
    p.add_argument("--max-states", type=int_at_least(1), default=256)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone (``| head``): end the output, flush into nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AnalysisRefusal as err:
        print(f"refused: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        # a crash must not look like a refusal: own exit code, full traceback
        traceback.print_exc()
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
