"""The dhj benchmark: one workload, one seed, one run.

Usage, from the root of a dhj checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

dhj is imported from the checkout's src/.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it names the run, its sample count and the sha256 digest of
the program's outputs.  bench/README.md describes workloads and metrics.

Load model: closed loop, one client, one process, one thread.  Operations
run back to back over the workload's inputs, in a seeded order, until the
time is up.  Only the program call is timed; reading its outputs, the
oracle check and the digest happen between operations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("portrait", "weights", "battery", "lagrangian")
# Fresh interpreters started to time set-up; their median is reported.
SETUP_PROBES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time of fresh interpreters, in s at reference speed."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(SRC),
             workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        setup_s, ref_ns = done.stdout.split()[-2:]
        times.append(float(setup_s) * calibrate.REF_MS * 1e6 / float(ref_ns))
    return statistics.median(times)


class Run:
    """The timed operations of one run, each input's first verdict and digest.

    Failures are counted per input: an input fails if its first outputs
    miss the oracle or a repeat does not reproduce them byte for byte.  So
    `attempted` and `failed` depend on the seed alone, not on how many
    repeats the machine's speed allowed."""

    def __init__(self, wl):
        self.wl = wl
        self.ns = {False: [], True: []}     # traced? -> operation times
        self.ref_ns = []                    # reference time after each untraced operation
        self.first = {}                     # input -> (Verdict, sha256 of its outputs)
        self.failed_inputs = set()
        self.repeatable = True              # every repeat reproduced its first outputs

    @property
    def attempted(self) -> int:
        return len(self.first)

    @property
    def failed(self) -> int:
        return len(self.failed_inputs)

    def op(self, k: int, tracer=None) -> None:
        if tracer is not None:
            tracer.begin_op()
            tracer.install()
        t0 = time.perf_counter_ns()
        try:
            raw = self.wl.call(k, tracer is not None)
        except Exception as exc:  # an operation that raises is a failed operation
            raw = exc
        self.ns[tracer is not None].append(time.perf_counter_ns() - t0)
        if tracer is not None:
            tracer.uninstall()
        if isinstance(raw, Exception):
            data, verdict = b"", oracles.Verdict(False, f"raised {type(raw).__name__}: {raw}")
        else:
            out = self.wl.outcome(k, raw)
            data, verdict = out.data, None
        digest = hashlib.sha256(data).hexdigest()
        if k not in self.first:
            self.first[k] = (verdict or self.wl.verify(k, out), digest)
        same = self.first[k][1] == digest
        self.repeatable &= same
        if not (same and self.first[k][0].ok):
            self.failed_inputs.add(k)

    def digest(self) -> str:
        h = hashlib.sha256()
        for k in sorted(self.first):
            h.update(self.first[k][1].encode())
        return h.hexdigest()


def measure(name: str, seed: int, seconds: float, tracer, outdir: str) -> Run:
    """Run operations for `seconds`, and at least one full pass over the
    inputs.  An untraced run times the calibration reference after each
    operation.  A traced run alternates an untraced and a traced operation
    on each input; the tracer counts over the first pass."""
    import workloads

    wl = workloads.make(name, seed, outdir, tracer.counter if tracer else None)
    wl.outcome(0, wl.call(0))   # warm-up: first-call costs inside the program
    calibrate.reference()
    run = Run(wl)
    n = len(wl)
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < n:
        k = i % n
        if tracer is None:
            run.op(k)
            run.ref_ns.append(calibrate.time_reference())
        else:
            # alternate the order so neither side always runs second, on warm caches
            for traced in ((True, False) if i % 2 else (False, True)):
                run.op(k, tracer if traced else None)
            if i == n - 1:
                tracer.end_counting()
        i += 1
    return run


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    ms = calibrate.calibrated_ms(run.ns[False], run.ref_ns)
    return {
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": statistics.quantiles(ms, n=10)[8],
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "ok_frac": 1.0 - run.failed / run.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dhj" / "__init__.py").is_file():
        print(f"bench: no dhj sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dhj
    if not Path(dhj.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: dhj was imported from {dhj.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing

    setup_s = 0.0 if args.trace else setup_seconds(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".bench_out-", dir=ROOT) as outdir:
        run = measure(args.workload, args.seed, args.seconds, tracer, outdir)

    if tracer is None:
        values = end_to_end(run, setup_s)
    else:
        overhead = statistics.median(run.ns[True]) / statistics.median(run.ns[False]) - 1.0
        values = tracer.metrics(overhead)
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.write_spans(str(trace_dir / f"{args.workload}-seed{args.seed}.jsonl"))
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in listed["per_layer" if tracer else "end_to_end"]}
    if values.keys() != units.keys():
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: "
                           f"{values.keys() ^ units.keys()}")

    for k in sorted(run.failed_inputs):
        verdict = run.first[k][0]
        reason = verdict.reason if not verdict.ok else "a repeat changed its outputs"
        print(f"bench: failed input {run.wl.describe(k)}: {reason}", file=sys.stderr)
    samples = len(run.ns[False])
    print(f"dhj-bench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={samples} beyond_p90={samples - int(0.9 * samples)} "
          f"wall_p50_ms={statistics.median(run.ns[False]) / 1e6:.3f} "
          f"inputs={run.attempted} failed_inputs={run.failed} digest={run.digest()}")
    print(json.dumps({
        "correct": run.repeatable,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
