#!/usr/bin/env python3
"""pgsos benchmark: seeded workloads, exact-answer checks, one JSON result.

Run from the repository root:

    python3 benchmark/run.py --workload distance --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace
1`` reports the per-layer metrics of a traced run of fixed length.  The
last line of standard output is the JSON result; the line before it holds
run information (hash seed, source size, query counts).  The exit code is
non-zero when any answer differs from its reference.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference as ref  # noqa: E402

WORK = ".bench_work"
HASH_SEED = "0"
SETUP_SAMPLES = 7
# Rounds generated per run; a run stops at its deadline long before these
# run out, unless the program becomes several times faster.
ROUNDS = {"distance": 4, "oracle": 100, "analysis": 30}
# Rounds after which the peak memory is read; every run completes them.
RSS_ROUNDS = {"distance": 1, "oracle": 20, "analysis": 6}
# Rounds of the fixed-length runs behind the per-layer metrics.
TRACE_ROUNDS = {"distance": 1, "oracle": 4, "analysis": 2}
CHILD_TIMEOUT = 150

END_TO_END = [("setup_s", "s"), ("query_p50_s", "s"), ("query_p90_s", "s"),
              ("queries_per_s", "1/s"), ("answered_frac", "fraction"),
              ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("lp.solve_transport.calls", "count"), ("lp.solve_transport.s", "s"),
    ("lp.transport_2x2.calls", "count"), ("lp.simplex_min.calls", "count"),
    ("lp.simplex_min.s", "s"),
    ("metric.bisim_distance.s", "s"), ("metric.bisim_distance.self_s", "s"),
    ("metric.hausdorff.calls", "count"), ("metric.hausdorff.self_s", "s"),
    ("terms.term_key.calls", "count"), ("terms.term_key.s", "s"),
    ("terms.substitute.calls", "count"), ("terms.substitute.s", "s"),
    ("semantics.explore_fragment.calls", "count"),
    ("semantics.explore_fragment.s", "s"), ("semantics.states", "count"),
    ("denotation.lfp_denotations.calls", "count"),
    ("denotation.lfp_denotations.self_s", "s"),
    ("denotation.iterations", "count"), ("denotation.genset.s", "s"),
    ("multiplicity.genset_normalize.calls", "count"),
    ("multiplicity.genset_normalize.s", "s"),
    ("multiplicity.p_leq.calls", "count"), ("multiplicity.da.s", "s"),
    ("continuity.is_uniformly_continuous.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("frontend.parse_spec.s", "s"), ("frontend.parse_term.s", "s"),
    ("oracle.evaluate_sample.self_s", "s"),
    ("oracle.compared_frac", "fraction"),
    ("trace.query_s", "s"), ("trace.overhead_s", "s"),
]


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child(work: str, name: str, mode: str, arg) -> dict:
    """Run ``child.py`` in a fresh interpreter and read its result."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
    out = os.path.join(work, f"{name}.json")
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                    os.path.join(work, "plan.json"), out, mode, str(arg)],
                   env=env, check=True, timeout=CHILD_TIMEOUT,
                   stdin=subprocess.DEVNULL)
    with open(out) as fh:
        return json.load(fh)


def write_plan(work: str, plan: dict, rss_rounds: int) -> None:
    """Spec texts become files; expectations stay with the parent."""
    specs = {}
    for name, spec in plan["specs"].items():
        if spec.endswith(".pgsos"):
            specs[name] = spec
        else:
            specs[name] = os.path.join(work, f"{name}.pgsos")
            with open(specs[name], "w") as fh:
                fh.write(spec)
    rounds = [[{k: v for k, v in q.items() if k != "expect"} for q in qs]
              for qs in plan["rounds"]]
    with open(os.path.join(work, "plan.json"), "w") as fh:
        json.dump({"specs": specs, "setup_specs": plan["setup_specs"],
                   "rounds": rounds, "rss_rounds": rss_rounds}, fh)


# ---------------------------------------------------------------------------
# Exact-answer checks
# ---------------------------------------------------------------------------

class Checker:
    """Compares answered queries with the benchmark's own references."""

    def __init__(self) -> None:
        self.distances = {name: ref.Distance(ref.spec_lts(name))
                          for name in ("pa", "examples")}
        self.mismatches: list[str] = []

    def check(self, q: dict, rec: dict) -> None:
        if rec["outcome"] != "ok":
            return  # refusals and errors are failures, not wrong answers
        want = self.expected(q, rec["answer"])
        if want is not None:
            self.mismatches.append(f"{json.dumps(q)[:300]}: {want}")

    def expected(self, q: dict, got) -> str | None:
        """None when ``got`` is right, otherwise what was expected."""
        if q["kind"] == "distance":
            if "expect" in q:
                want = q["expect"]
            else:
                d = self.distances[q["spec"]]
                want = str(d(ref.parse(q["t1"]), ref.parse(q["t2"])))
            return None if got == want else want
        if q["kind"] == "oracle":
            return self._oracle(q, got)
        report = json.loads(got)["results"]
        if q["argv"][1] == "bound":
            return None if report["bound"] == q["expect"] else q["expect"]
        have = {r["operator"]: {"verdict": r["verdict"],
                                "coefficients": [str(c) for c in
                                                 r["coefficients"]],
                                "copies_bound": r["copies_bound"]}
                for r in report["reports"]}
        return None if have == q["expect"] else json.dumps(q["expect"])

    def _oracle(self, q: dict, got) -> str | None:
        d = self.distances[q["spec"]]
        left = {v: ref.parse(s) for v, s in q["s1"].items()}
        right = {v: ref.parse(s) for v, s in q["s2"].items()}
        dists = {v: d(left[v], right[v]) for v in left}
        if got == "distance-one":
            ok = any(e == 1 for e in dists.values())
            return None if ok else f"distances {dists}"
        if any(e == 1 for e in dists.values()):
            return "distance-one"
        term = ref.parse(q["term"])
        exact = d(ref.subst(term, left), ref.subst(term, right))
        want = {"exact": str(exact),
                "distances": {v: str(e) for v, e in dists.items()}}
        bound = Fraction(got["bound"])
        ok = ({"exact": got["exact"], "distances": got["distances"]} == want
              and exact <= bound <= 1)
        return None if ok else f"{want}, exact <= bound <= 1"


def check_records(plan: dict, records: list[dict], checker: Checker) -> None:
    rounds = plan["rounds"]
    for rec in records:
        checker.check(rounds[rec["round"]][rec["index"]], rec)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(setup: list[float], run: dict) -> dict:
    records = run["records"]
    times = [r["s"] for r in records]
    answered = [r for r in records if r["outcome"] == "ok"]
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    values = {
        "setup_s": statistics.median(setup),
        "query_p50_s": statistics.median(times),
        "query_p90_s": deciles[8],
        "queries_per_s": len(answered) / sum(times),
        "answered_frac": len(answered) / len(records),
        "peak_rss_mb": run["maxrss_kb"] / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(plain: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    samples = [r for r in traced["records"] if r["kind"] == "oracle"]
    layers["oracle.compared_frac"] = (
        sum(1 for r in samples if isinstance(r["answer"], dict))
        / len(samples) if samples else 0.0)
    # span times are wall times, so the base of their shares is too; the
    # overhead compares two processes, so it uses the scaled times
    layers["trace.query_s"] = sum(r["wall"] for r in traced["records"])
    layers["trace.overhead_s"] = (sum(r["s"] for r in traced["records"])
                                  - sum(r["s"] for r in plain["records"]))
    return {name: {"value": layers.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER}


def src_lines() -> int:
    total = 0
    for root, _, files in os.walk("src"):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(root, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    plan = inputs.WORKLOADS[workload](seed, ROUNDS[workload])
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        write_plan(work, plan, RSS_ROUNDS[workload])
        checker = Checker()
        if trace:
            plain = child(work, "fixed", "fixed", TRACE_ROUNDS[workload])
            traced = child(work, "traced", "traced", TRACE_ROUNDS[workload])
            for run in (plain, traced):
                check_records(plan, run["records"], checker)
            metrics = per_layer(plain, traced)
            main_run = traced
        else:
            setups = [child(work, f"setup{i}", "setup", 0)
                      for i in range(SETUP_SAMPLES - 1)]
            main_run = child(work, "run", "run", seconds)
            setups.append(main_run)
            check_records(plan, main_run["records"], checker)
            metrics = end_to_end([s["setup_s"] for s in setups], main_run)
            main_run["setup_wall_s"] = statistics.median(
                s["setup_wall_s"] for s in setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    records = main_run["records"]
    failed = sum(1 for r in records if r["outcome"] != "ok")
    info = {"workload": workload, "seed": seed, "trace": int(trace),
            "pythonhashseed": HASH_SEED, "src_lines": src_lines(),
            "exports": main_run["exports"],
            "queries": len(records),
            "rounds": 1 + max(r["round"] for r in records),
            "refused": sum(1 for r in records if r["outcome"] == "refused"),
            "errors": sum(1 for r in records if r["outcome"] == "error"),
            "setup_wall_s": main_run["setup_wall_s"],
            "query_wall_s": sum(r["wall"] for r in records),
            "calibration_s": main_run["calibration_s"],
            "generator": plan.get("stats", {}),
            "mismatches": checker.mismatches[:5]}
    result = {"correct": not checker.mismatches, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    return {"info": info, "result": result}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "pgsos", "__init__.py")):
        print("error: run from the repository root; src/pgsos is missing",
              file=sys.stderr)
        return 2
    names = sorted(inputs.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    ok = True
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        ok = ok and out["result"]["correct"]
        if args.workload == "all":
            for metric, m in out["result"]["metrics"].items():
                print(f"{name:9} {metric:42} {m['value']:.6g} {m['unit']}")
        print(json.dumps(out["info"]))
        print(json.dumps(out["result"]), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
