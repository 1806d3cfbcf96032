"""The measured process: one caller running valdef.cli.main in a closed loop.

    python3 perfbench/worker.py MANIFEST.json RESULT.json

One thread; each call starts when the previous one has returned.  Every
pass runs the manifest's cases in order.  The first pass stores each
case's stdout for checking; later passes store only a digest, so a
changed answer in any pass is caught without holding outputs in memory.
Mode "measure" repeats whole passes until `seconds` have gone by.  Mode
"trace" runs a warm-up pass, one untraced pass and then one pass under
the tracer; the two timed passes give the tracing overhead.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction


def call(main, argv):
    """(exit code or None if it raised, seconds, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, recorded with its traceback
            code = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    if code is not None and code >= 2:
        error = err.getvalue()[-2000:]
    return code, seconds, out.getvalue(), error


SETUP_PROBES = 3
# Time of calibrate() at the reference speed: the fast state of the 2-vCPU
# Xeon VM the benchmark was tuned on.  A shared machine's speed swings by up
# to 2x within seconds; every timing is scaled by CAL_REF_S over the mean of
# the calibrations run just before and just after it, so the metrics read in
# milliseconds at the reference speed and the swings cancel.
CAL_REF_S = 0.0011
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import valdef.cli; print(time.perf_counter() - t)"
)


def calibrate() -> float:
    """Seconds a fixed piece of exact-rational arithmetic takes right now."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 250):
        acc += Fraction(i, i + 3) * Fraction(3, 7)
    return time.perf_counter() - start


def scaled(measure) -> float:
    """Seconds at the reference speed of one call of measure(), which
    returns the seconds it took."""
    before = calibrate()
    raw = measure()
    after = calibrate()
    return raw * CAL_REF_S * 2 / (before + after)


def import_seconds(src) -> float:
    """Time a fresh interpreter takes to import valdef.cli."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


class Passes:
    def __init__(self, cases, outdir):
        self.cases = cases
        self.outdir = outdir
        self.passes = 0
        self.times = [[] for _ in cases]
        self.codes = [None] * len(cases)
        self.digests = [None] * len(cases)
        self.errors = {}
        self.mismatches = []

    def run(self, main, tracer=None) -> float:
        """One pass over every case; returns the summed scaled call time."""
        total = 0.0
        first = self.passes == 0
        for n, case in enumerate(self.cases):
            if tracer is not None:
                tracer.case = n
            answer = []
            seconds = scaled(lambda: answer.extend(call(main, case["argv"])) or answer[1])
            code, _, out, error = answer
            total += seconds
            self.times[n].append(seconds)
            digest = hashlib.sha256(out.encode()).hexdigest()
            if first:
                self.codes[n], self.digests[n] = code, digest
                with open(os.path.join(self.outdir, f"{n}.out"), "w", encoding="utf-8") as fh:
                    fh.write(out)
                if error:
                    self.errors[n] = error
            elif (code, digest) != (self.codes[n], self.digests[n]):
                self.mismatches.append([self.passes, n])
        self.passes += 1
        return total

    def result(self) -> dict:
        return {
            "passes": self.passes,
            "times": self.times,
            "codes": self.codes,
            "errors": self.errors,
            "mismatches": self.mismatches,
        }


def main(argv) -> int:
    manifest_path, result_path = argv
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    sys.path.insert(0, manifest["src"])
    from valdef import cli

    runner = Passes(manifest["cases"], manifest["outdir"])
    result = {}
    if manifest["mode"] == "measure":
        deadline = time.perf_counter() + manifest["seconds"]
        pass_seconds, setup = [], []
        while True:
            pass_seconds.append(runner.run(cli.main))
            # import probes between passes sample set-up time across the
            # whole run, not in one burst whose machine speed may be atypical
            setup += [scaled(lambda: import_seconds(manifest["src"]))
                      for _ in range(SETUP_PROBES)]
            if time.perf_counter() >= deadline:
                break
        result.update(pass_seconds=pass_seconds, setup_seconds=setup)
    else:
        from tracer import Tracer

        runner.run(cli.main)  # warm-up; its outputs are the ones checked
        untraced = runner.run(cli.main)
        tracer = Tracer()
        tracer.install()
        traced = runner.run(cli.main, tracer)
        tracer.write(manifest["spans"])
        result.update(untraced_s=untraced, traced_s=traced, layers=tracer.metrics(),
                      spans=len(tracer.start))
    result.update(runner.result())
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
