"""ealab benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 0

Runs from the root of an ealab checkout and imports ealab from its `src/`.
A run repeats whole rounds of the workload's calls, each round the same
calls on the same seed-derived inputs, until --seconds of rounds have
passed. The first round's outputs are checked against independent
computations; every later round must reproduce them exactly. Set-up time
is the median of several fresh interpreters that import ealab and build
the workload's binomial tables.

--trace 0 prints the end-to-end metrics: wall_s (median round), evals_per_s,
setup_s and peak_rss_mb. --trace 1 spends a third of the time on untraced
rounds, the rest on traced ones, and prints the per-layer metrics of the
median traced round together with the tracing overhead. The last line of
standard output is one JSON object; the exit code is 0 when every check
passed, 1 when one failed and 2 on a usage error or a checkout without
ealab's sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"

SETUP_STARTS = 3
TRACE_UNTRACED_SHARE = 1.0 / 3.0

_SETUP_CODE = """
import json, random, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ealab.cli
from ealab.rng import binomial_draw
t1 = time.perf_counter()
rng = random.Random(0)
for n, p in json.loads(sys.argv[2]):
    binomial_draw(rng, n, p)
print(json.dumps({"import_s": t1 - t0, "tables_s": time.perf_counter() - t1}))
"""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep-grid", "batch-pool", "lineage-lab"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Runner:
    """Runs rounds of one workload and keeps what the checks need."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = workload.ops()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = None

    def round(self):
        """One round: every op once. Returns (wall seconds, evaluations)."""
        outs = {}
        evals = 0
        t0 = time.perf_counter()
        for op in self.ops:
            self.attempted += 1
            try:
                outs[op.name] = op.call()
            except Exception:
                self.failed += 1
                print(f"op {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        wall = time.perf_counter() - t0
        for op in self.ops:
            if op.name in outs:
                evals += op.evals(outs[op.name])
        digests = {k: hashlib.sha256(pickle.dumps(v)).hexdigest() for k, v in outs.items()}
        if self.digests is None:
            self.digests = digests
            self.failures += self.workload.check(outs)
        else:
            self.failures += [f"{k}: output differs from the first round on the same inputs"
                              for k, d in digests.items() if self.digests.get(k, d) != d]
        return wall, evals

    def rounds(self, seconds, before=None, after=None):
        """Whole rounds until `seconds` of round time have passed (at least one)."""
        results = []
        spent = 0.0
        while not results or spent < seconds:
            if before:
                before()
            wall, evals = self.round()
            if after:
                after()
            results.append((wall, evals))
            spent += wall
        return results


def _setup_starts(tables, starts):
    """Wall seconds and the child's own import/table split, per fresh start."""
    runs = []
    for _ in range(starts):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), json.dumps(tables)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        runs.append((wall, json.loads(proc.stdout.strip().splitlines()[-1])))
    return runs


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux; children are the pool workers, read
    # before any set-up interpreter runs
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker) / 1024.0


def end_to_end(runner, seconds):
    rounds = runner.rounds(seconds)
    peak = _peak_rss_mb()
    walls = [w for w, _ in rounds]
    wall = statistics.median(walls)
    evals_per_s = statistics.median(e / w for w, e in rounds)
    setup = statistics.median(w for w, _ in _setup_starts(runner.workload.tables, SETUP_STARTS))
    print(f"rounds {len(rounds)}: " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    return {"wall_s": (wall, "s"), "evals_per_s": (evals_per_s, "1/s"),
            "setup_s": (setup, "s"), "peak_rss_mb": (peak, "MB")}


def _layer_metrics(tr, d):
    spans, counts = d

    def n(name):
        return spans.get(name, (0,))[0]

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    offspring = counts.get("engines.mutate.offspring", 0)
    evaluations = n("engines.evaluate")
    candidates = counts.get("engines.select.candidates", 0)
    mutations = n("trees.mutate")
    return {
        "rng.table_builds": (n("rng.table_build"), "count"),
        "rng.table_build_s": (tr.self_s(d, "rng.table_build"), "s"),
        "engines.mutate.offspring": (offspring, "count"),
        "engines.mutate.self_s": (tr.self_s(d, "engines.mutate"), "s"),
        "engines.mutate.ns_per_offspring":
            (per(tr.self_s(d, "engines.mutate"), offspring, 1e9), "ns"),
        "engines.mutate.changed_ratio":
            (per(counts.get("engines.mutate.changed", 0), offspring), "ratio"),
        "engines.evaluate.calls": (evaluations, "count"),
        "engines.evaluate.self_s": (tr.self_s(d, "engines.evaluate"), "s"),
        "engines.evaluate.ns_per_call":
            (per(tr.self_s(d, "engines.evaluate"), evaluations, 1e9), "ns"),
        "engines.select.calls": (n("engines.select"), "count"),
        "engines.select.self_s": (tr.self_s(d, "engines.select"), "s"),
        "engines.select.ns_per_candidate":
            (per(tr.self_s(d, "engines.select"), candidates, 1e9), "ns"),
        "engines.run.self_s": (tr.self_s(d, "engines.run"), "s"),
        "engines.iterations": (counts.get("engines.iterations", 0), "count"),
        "engines.transport.result_bytes":
            (counts.get("engines.transport.result_bytes", 0), "bytes"),
        "engines.transport.pickle_s": (tr.self_s(d, "engines.transport.pickle"), "s"),
        "engines.transport.pool_starts":
            (counts.get("engines.transport.pool_starts", 0), "count"),
        "harness.emit.self_s": (tr.self_s(d, "harness.emit"), "s"),
        "harness.emit.bytes": (counts.get("harness.emit.bytes", 0), "bytes"),
        "harness.parse.self_s": (tr.self_s(d, "harness.parse"), "s"),
        "stats.summarize.self_s": (tr.self_s(d, "stats.summarize"), "s"),
        "harness.dominance.test_s": (tr.self_s(d, "harness.dominance.test"), "s"),
        "takeover.steps": (n("takeover.step"), "count"),
        "takeover.step.self_s": (tr.self_s(d, "takeover.step"), "s"),
        "takeover.censored_steps": (counts.get("takeover.censored_steps", 0), "count"),
        "takeover.ea0.self_s": (tr.self_s(d, "takeover.ea0"), "s"),
        "trees.mutations": (mutations, "count"),
        "trees.ns_per_mutation": (per(tr.self_s(d, "trees.mutate"), mutations, 1e9), "ns"),
        "trees.family.steps": (n("trees.family.step"), "count"),
    }


def _table_build_ms_n1000(builds=15):
    from ealab.rng import BinomialSampler
    times = []
    for _ in range(builds):
        t0 = time.perf_counter()
        BinomialSampler(1000, 1.0 / 1000)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def per_layer(runner, seconds):
    import tracer

    plain = runner.rounds(seconds * TRACE_UNTRACED_SHARE)
    tr = tracer.install()
    deltas = []
    marks = []
    try:
        traced = runner.rounds(seconds * (1.0 - TRACE_UNTRACED_SHARE),
                               before=lambda: marks.append(tr.snapshot()),
                               after=lambda: deltas.append(tr.delta(marks[-1])))
    finally:
        tracer.uninstall()
    walls = [w for w, _ in traced]
    mid = walls.index(sorted(walls)[(len(walls) - 1) // 2])
    counts = [{k: v for k, (v, unit) in _layer_metrics(tr, d).items() if unit in ("count", "bytes")}
              for d in deltas]
    if any(c != counts[0] for c in counts):
        runner.failures.append("traced rounds on the same inputs gave different layer counts")
    metrics = _layer_metrics(tr, deltas[mid])
    untraced_wall = statistics.median(w for w, _ in plain)
    setup = _setup_starts(runner.workload.tables, SETUP_STARTS)
    metrics["cli.import_s"] = (statistics.median(c["import_s"] for _, c in setup), "s")
    metrics["rng.table_build_ms_n1000"] = (_table_build_ms_n1000(), "ms")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (walls[mid], "s")
    metrics["trace.overhead_s"] = (walls[mid] - untraced_wall, "s")
    print(f"untraced rounds: {len(plain)}, traced rounds: {len(traced)}; timer cost "
          f"{tr.inner_s * 1e9:.0f} ns inside a span, {tr.outer_s * 1e9:.0f} ns outside",
          file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ealab" / "__init__.py").is_file():
        print(f"error: no ealab sources under {SRC}; run from an ealab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ealab
    if Path(ealab.__file__).resolve().parent != SRC / "ealab":
        print(f"error: imported ealab from {ealab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from ealab.rng import binomial_draw

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    # build the tables here too, so the timed rounds find them cached
    for n, p in workload.tables:
        binomial_draw(random.Random(0), n, p)
    runner = Runner(workload)
    if args.trace:
        metrics = per_layer(runner, args.seconds)
    else:
        metrics = end_to_end(runner, args.seconds)
    for failure in runner.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    correct = not runner.failures
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {runner.attempted}, failed = {runner.failed}, "
          f"correct = {correct}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
