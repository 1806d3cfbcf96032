#!/usr/bin/env python3
"""Benchmark of valdef's CLI on four seeded corpora.

    python3 perfbench/run.py --workload lie_adapted --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                     # every workload, seed 1
    python3 perfbench/run.py --trace 1           # per-layer metrics

Runs from a plain source checkout: valdef is imported from ./src, nothing
is installed.  Untraced runs time `valdef.cli.main(argv)` in a worker
process, one call at a time, in whole passes over the workload's corpus
until --seconds have gone by, and report the end-to-end metrics.  A traced
run makes a warm-up, an untraced and a traced pass over the corpora of all
four workloads and reports the per-layer metrics of the whole stack, so that
no layer reads zero only because one workload never reaches it; it also
prints each workload's own layer table and the tracing overhead.  Every
answer is checked (see checks.py).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import corpus  # noqa: E402
import tracer  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
WORKER_TIMEOUT = 170


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer from valdef)."""


class Workload:
    """A generated corpus with its inputs, reference answers and checks."""

    def __init__(self, name, seed, work):
        self.name = name
        self.dir = os.path.join(work, name)
        os.makedirs(os.path.join(self.dir, "in"))
        os.makedirs(os.path.join(self.dir, "out"))
        self.cases = corpus.build(name, seed, os.path.join(self.dir, "in"))
        self.reference = self._reference()

    def _reference(self) -> dict:
        keys = sorted({c.check["key"] for c in self.cases if "key" in c.check})
        if not keys:
            return {}
        keys_path = os.path.join(self.dir, "keys.json")
        answers_path = os.path.join(self.dir, "answers.json")
        with open(keys_path, "w", encoding="utf-8") as fh:
            json.dump(keys, fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "reference.py"), keys_path, answers_path],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"reference answers failed: {proc.stderr.strip()[-500:]}")
        with open(answers_path, encoding="utf-8") as fh:
            return json.load(fh)

    def run(self, mode, seconds=0, spans=None) -> dict:
        manifest = {
            "src": SRC, "mode": mode, "seconds": seconds, "spans": spans,
            "outdir": os.path.join(self.dir, "out"),
            "cases": [{"id": c.id, "argv": c.argv} for c in self.cases],
        }
        manifest_path = os.path.join(self.dir, f"{mode}.json")
        result_path = os.path.join(self.dir, f"{mode}-result.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), manifest_path, result_path],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"{self.name} worker failed: {proc.stderr.strip()[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)

    def judge(self, result) -> tuple[int, list]:
        """(failed operations over all passes, [(case id, reason)])."""
        from valdef import cli

        ctx = checks.Context(self.reference, self.dir, cli.main)
        docs, reasons = [], {}
        for n, case in enumerate(self.cases):
            code = result["codes"][n]
            doc = None
            with open(os.path.join(self.dir, "out", f"{n}.out"), encoding="utf-8") as fh:
                text = fh.read()
            try:
                doc = json.loads(text)
            except json.JSONDecodeError:
                pass
            docs.append(doc)
            if code is None:
                reasons[n] = "raised: " + result["errors"][str(n)].strip().splitlines()[-1]
                continue
            try:
                reason = checks.check(case, code, doc, ctx)
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"output malformed: {exc!r}"
            if reason:
                if code >= 2 and str(n) in result["errors"]:
                    reason += ": " + result["errors"][str(n)].strip().splitlines()[-1]
                reasons[n] = reason
        for n, reason in checks.cross_check(self.cases, docs).items():
            reasons.setdefault(n, reason)
        failed = result["passes"] * len(reasons)
        failed += sum(1 for _, n in result["mismatches"] if n not in reasons)
        report = [(self.cases[n].id, r) for n, r in sorted(reasons.items())]
        report += [(self.cases[n].id, f"pass {p} answered differently from pass 0")
                   for p, n in result["mismatches"] if n not in reasons]
        return failed, report


def end_to_end(result) -> dict:
    """Per-case time is the median over the run's passes of its scaled time
    (worker.scaled: milliseconds at the reference machine speed)."""
    case_ms = [statistics.median(t) * 1000 for t in result["times"]]
    return {
        "ops_per_s": len(case_ms) / (sum(case_ms) / 1000),
        "latency_p50_ms": statistics.median(case_ms),
        "latency_p90_ms": statistics.quantiles(case_ms, n=10, method="inclusive")[8],
        "setup_s": statistics.median(result["setup_seconds"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def measure(name, seed, seconds, work) -> dict:
    load = Workload(name, seed, work)
    result = load.run("measure", seconds)
    failed, report = load.judge(result)
    metrics = end_to_end(result)
    attempted = result["passes"] * len(load.cases)
    for case_id, reason in report:
        print(f"FAILED {name} {case_id}: {reason}")
    print(f"{name}: seed {seed}, {len(load.cases)} cases x {result['passes']} passes, "
          f"{attempted} attempted, {failed} failed")
    for key, unit in END_TO_END.items():
        print(f"  {key:16s} {metrics[key]:12.4f} {unit}")
    return {
        "correct": not report,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }


def traced(seed, work, out_dir) -> dict:
    total: dict = {}
    attempted = failed = 0
    correct = True
    untraced_s = traced_s = 0.0
    for name in corpus.WORKLOADS:
        load = Workload(name, seed, work)
        spans = os.path.join(out_dir, f"spans-{name}-seed{seed}.tsv")
        result = load.run("trace", spans=spans)
        n_failed, report = load.judge(result)
        for case_id, reason in report:
            print(f"FAILED {name} {case_id}: {reason}")
        correct = correct and not report
        attempted += result["passes"] * len(load.cases)
        failed += n_failed
        untraced_s += result["untraced_s"]
        traced_s += result["traced_s"]
        layers = result["layers"]
        print(f"{name}: {len(load.cases)} cases, {result['spans']} spans -> {spans}; "
              f"tracing overhead {result['traced_s'] / result['untraced_s']:.2f}x "
              f"({result['traced_s']:.2f} s traced / {result['untraced_s']:.2f} s untraced)")
        busiest = sorted(tracer.NAMES, key=lambda f: -layers[f"{f}.self_s"])
        for f in busiest:
            if layers[f"{f}.calls"]:
                print(f"  {f:40s} {layers[f + '.calls']:9d} calls {layers[f + '.self_s']:9.4f} s self")
        for key, value in layers.items():
            if key == "linalg.entry_bits_max":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    print(f"tracing overhead, all workloads: {traced_s / untraced_s:.2f}x")
    metrics = {}
    for key, value in total.items():
        unit = "s" if key.endswith("_s") else ("bits" if key.endswith("bits_max") else "count")
        metrics[key] = {"value": value, "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "valdef", "cli.py")):
        print(f"error: no valdef sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    scratch = os.path.join(ROOT, ".perfbench")
    work = os.path.join(scratch, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            out_dir = os.path.join(scratch, "traces")
            os.makedirs(out_dir, exist_ok=True)
            print(json.dumps(traced(args.seed, work, out_dir)))
        else:
            names = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
            for name in names:
                doc = measure(name, args.seed, args.seconds, work)
                print(json.dumps(doc if len(names) == 1 else {"workload": name, **doc}))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    start = time.perf_counter()
    code = main()
    print(f"benchmark wall time {time.perf_counter() - start:.1f} s", file=sys.stderr)
    sys.exit(code)
