"""One benchmark process: set up, then run the planned queries.

Usage: ``python3 benchmark/child.py PLAN OUT MODE [SECONDS|ROUNDS]``, run
from the repository root with ``src`` on ``PYTHONPATH``.  ``run.py`` starts
it in a fresh interpreter; nothing here is meant to be called directly.

Modes:
  setup           import pgsos, parse the set-up specs, report the time
  run SECONDS     set up, then run whole rounds while another round of
                  the average length so far still fits in SECONDS (at
                  least one); the peak memory is read after the plan's
                  ``rss_rounds`` rounds
  fixed ROUNDS    set up, then run exactly ROUNDS rounds
  traced ROUNDS   as ``fixed``, with spans around the package's functions

Set-up is timed from before ``import pgsos``; query inputs are parsed
before each query's clock starts.

The host's speed drifts by a quarter and more within seconds.  Between
queries, at most every ``CALIBRATE_EVERY`` seconds, the child times a fixed
piece of interpreter work (``calibrate``).  Each query's wall time ``wall``
is scaled by ``CALIBRATION_NOMINAL_S`` over the mean of the calibrations
taken just before and just after it, giving ``s``: seconds at a fixed
nominal speed.  Set-up is scaled the same way, by the median of three
calibrations before it and three after it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

CALIBRATE_EVERY = 0.2
CALIBRATION_NOMINAL_S = 0.005


@dataclass(frozen=True)
class _Node:
    op: str
    args: tuple


def calibrate() -> float:
    """Wall time of fixed work like the package's: hashing small frozen
    dataclass trees, rational sums and formatting, about 5 ms."""
    start = time.perf_counter()
    leaf = _Node("zero", ())
    nodes = [leaf]
    table = {leaf: 0}
    acc = Fraction(0)
    for i in range(1, 300):
        node = _Node(f"f{i % 5}", (nodes[-1] if i % 8 else leaf, leaf))
        nodes.append(node)
        table[node] = i
        acc += Fraction(i % 7, i % 11 + 1)
        table[f"{node.op}({i}, {acc})"] = acc
    for node in nodes:
        table[node] += 1
    return time.perf_counter() - start


class Clock:
    """Calibrations between queries, and the scaling they imply."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (taken at, length)

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.samples or \
                now - self.samples[-1][0] >= CALIBRATE_EVERY:
            self.samples.append((now, calibrate()))

    def scale(self, records: list[dict]) -> None:
        """Set each record's ``s`` from its ``wall`` and ``start``."""
        times = [t for t, _ in self.samples]
        j = 0
        for rec in records:
            while j + 1 < len(times) and times[j + 1] <= rec["start"]:
                j += 1
            after = min(j + 1, len(times) - 1)
            local = (self.samples[j][1] + self.samples[after][1]) / 2
            rec["s"] = rec["wall"] * CALIBRATION_NOMINAL_S / local


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def load_specs(pgsos, plan: dict) -> dict:
    docs = {}
    for name in plan["setup_specs"]:
        with open(plan["specs"][name], "rb") as fh:
            docs[name] = pgsos.parse_spec(fh.read())
    return docs


def prepare(pgsos, docs: dict, plan: dict, q: dict):
    """Parse the query's inputs and return a zero-argument call."""
    if q["kind"] == "distance":
        doc = docs[q["spec"]]
        t1 = pgsos.parse_term(q["t1"], doc)
        t2 = pgsos.parse_term(q["t2"], doc)
        return lambda: pgsos.bisim_distance(doc, t1, t2)
    if q["kind"] == "oracle":
        doc = docs[q["spec"]]
        t = pgsos.parse_term(q["term"], doc)
        s1 = {pgsos.state_var(v): pgsos.parse_term(s, doc)
              for v, s in q["s1"].items()}
        s2 = {pgsos.state_var(v): pgsos.parse_term(s, doc)
              for v, s in q["s2"].items()}
        return lambda: pgsos.evaluate_sample(doc, t, s1, s2, max_states=256,
                                             max_pairs=2000)
    argv = [a.replace("{spec}", plan["specs"][q["spec"]]) for a in q["argv"]]

    def cli():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pgsos.cli.main(argv)
        return code, out.getvalue()
    return cli


def answer(kind: str, value):
    """Outcome (ok / refused) and a JSON-friendly answer."""
    if kind == "distance":
        return "ok", str(value)
    if kind == "oracle":
        if isinstance(value, str):
            return ("refused" if value == "refused" else "ok"), value
        return "ok", {"exact": str(value.exact), "bound": str(value.bound),
                      "distances": {v: str(q) for v, q in value.distances}}
    code, text = value
    if code == 0:
        return "ok", text
    return ("refused" if code == 1 else "error"), f"exit {code}"


def run_query(pgsos, docs, plan, q) -> dict:
    call = prepare(pgsos, docs, plan, q)
    start = time.perf_counter()
    try:
        value = call()
    except pgsos.AnalysisRefusal as err:
        outcome, ans = "refused", repr(err)
    except Exception as err:  # reported as a failed query, not a crash
        outcome, ans = "error", repr(err)
    else:
        outcome, ans = answer(q["kind"], value)
    wall = time.perf_counter() - start
    return {"start": start, "wall": wall, "outcome": outcome, "answer": ans}


def main(argv: list[str]) -> int:
    plan_path, out_path, mode = argv[:3]
    limit = float(argv[3]) if len(argv) > 3 else 0
    with open(plan_path) as fh:
        plan = json.load(fh)
    # The caches grow with every query, so the peak is read after a fixed
    # amount of work rather than at a deadline that a faster program
    # would fill with more queries.
    rss_rounds = plan["rss_rounds"]
    rss = None

    before = sorted(calibrate() for _ in range(3))[1]
    start = time.perf_counter()
    import pgsos
    import pgsos.cli
    tracer = None
    if mode == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    docs = load_specs(pgsos, plan)
    setup_wall = time.perf_counter() - start
    after = sorted(calibrate() for _ in range(3))[1]
    result: dict = {
        "setup_wall_s": setup_wall,
        "setup_s": setup_wall * CALIBRATION_NOMINAL_S * 2 / (before + after),
        "exports": len(pgsos.__all__)}

    if mode != "setup":
        rounds = plan["rounds"]
        records = []
        clock = Clock()
        begin = time.perf_counter()
        for r, queries in enumerate(rounds):
            elapsed = time.perf_counter() - begin
            if mode == "run" and r and elapsed * (r + 1) / r > limit:
                break
            if mode != "run" and r >= limit:
                break
            for i, q in enumerate(queries):
                clock.tick()
                rec = run_query(pgsos, docs, plan, q)
                rec.update(round=r, index=i, kind=q["kind"])
                records.append(rec)
            if r + 1 == rss_rounds:
                rss = peak_rss_kb()
        clock.tick(force=True)
        clock.scale(records)
        result["records"] = records
        result["calibration_s"] = sorted(c for _, c in clock.samples)[
            len(clock.samples) // 2]
        if tracer is not None:
            result["layers"] = tracer.totals()
            tracer.write(os.path.join(os.path.dirname(out_path),
                                      "spans.tsv"))
    result["maxrss_kb"] = rss if rss is not None else peak_rss_kb()
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
