"""Host-time benchmark of the SpeedyBox simulator: one command, three workloads.

    python3 perfbench/run.py --workload churn_batch --seed 1 --seconds 25 --trace 0

Run from a checkout holding ``src/repro``.  The run builds its seeded
inputs, times repeated passes (each on a freshly set-up program, under
the machine-speed probe of ``probe.py``) for ``--seconds``, checks a verification slice against the oracle, and
prints one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced pass with
``--trace 1``.  Details, provenance and the traced spans are written
under ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform as host
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: passes below this count extend a run past ``--seconds``
MIN_PASSES = 3
#: set-up samples per pass; the last set-up is the one the pass runs,
#: the others are discarded.  Sampling beside every pass spreads the
#: samples over the whole run instead of one moment of it.
SETUPS_PER_PASS = 4

END_TO_END_UNITS = {"pkts_per_s": "pkt/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "correct_share": "share"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def summary(values):
    """Median, quartiles and count of a sample."""
    values = list(values)
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    q1, __, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def provenance(seed: int, passes: int) -> dict:
    """What produced this result: code, interpreter, machine, seed."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    import numpy

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": host.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "runs": passes,
    }


class Bench:
    """The passes of one benchmark run of one workload.

    Times are kept in reference seconds (see ``probe.py``); the raw host
    times and each pass's slowdown are kept beside them for the record.
    """

    def __init__(self, workload):
        self.workload = workload
        self.setup_s = []
        #: reference seconds of each timed pass
        self.walls = []
        self.pkts_per_s = []
        self.raw = {"pkts_per_s": [], "setup_s": [], "slowdown": []}
        #: simulated-output digest of every pass, warm-up and traced included
        self.digests = []
        self.offered = 0
        self.failed_packets = 0
        self.raised = False

    def setup(self, **options):
        """A freshly set-up program and its raw set-up time."""
        gc.collect()
        started = time.perf_counter()
        program = self.workload.setup(**options)
        return program, time.perf_counter() - started

    def run(self, program, built):
        """One timed run of ``program`` on a fresh copy of the inputs:
        (result, raw wall seconds, the pass's speed probe)."""
        from perfbench.probe import SpeedProbe

        pass_input = self.workload.fresh(built)
        gc.collect()
        with SpeedProbe() as probe:
            started = time.perf_counter()
            result = self.workload.run(program, pass_input)
            wall = time.perf_counter() - started
        self.offered += result.offered
        if not result.conserved:
            self.failed_packets += result.offered
        self.digests.append(result.digest())
        return result, wall, probe

    def timed_passes(self, built, seconds: float, min_passes: int) -> None:
        """A warm-up pass (it fills the program's process-wide memo
        caches), then timed passes until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        self.run(self.setup()[0], built)
        while len(self.pkts_per_s) < min_passes or time.perf_counter() < deadline:
            setups = []
            for __ in range(SETUPS_PER_PASS):
                program, setup_s = self.setup()
                setups.append(setup_s)
            result, wall, probe = self.run(program, built)
            packets = result.delivered + result.dropped
            reference_s = probe.reference_seconds(wall)
            self.walls.append(reference_s)
            self.pkts_per_s.append(packets / reference_s)
            # Set-ups right before the pass share its machine speed.
            self.setup_s.extend(setup_s / probe.slowdown for setup_s in setups)
            self.raw["pkts_per_s"].append(packets / wall)
            self.raw["setup_s"].extend(setups)
            self.raw["slowdown"].append(probe.slowdown)
            # Release this pass before the next one sets up.
            del program, result


def traced_metrics(bench: Bench, built, seconds: float, out_dir: Path) -> dict:
    """Untraced passes for half the time, then traced ones: per-layer metrics."""
    from perfbench import tracing, workloads

    bench.timed_passes(built, seconds / 2, min_passes=2)
    untraced = statistics.median(bench.walls)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        samples = []
        deadline = time.perf_counter() + seconds / 2
        while not samples or time.perf_counter() < deadline:
            tracer.reset()
            program, setup_s = bench.setup(nf_wrap=tracer.wrap_chain)
            nf_setup = tracer.totals()[0]["nf.setup"]
            tracer.reset()
            result, wall, probe = bench.run(program, built)
            metrics = tracing.layer_metrics(tracer, program, result, wall)
            metrics["nf.setup_s"] = nf_setup
            metrics["scale.setup_s"] = (
                setup_s - nf_setup if isinstance(program, workloads.ClusterProgram) else 0.0
            )
            metrics["trace.overhead"] = probe.reference_seconds(wall) / untraced
            samples.append(metrics)
            del program, result
        tracer.write(out_dir / f"{bench.workload.name}-spans.jsonl")
    finally:
        tracer.uninstall()
    # Times and shares as medians over the traced passes; counts repeat.
    return {name: statistics.median(sample[name] for sample in samples)
            for name in samples[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import check, workloads

    out_dir = OUT_DIR / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, out_dir)
    bench = Bench(workload)

    started = time.perf_counter()
    built = workload.build_inputs(args.seed)
    input_build_s = time.perf_counter() - started

    layers = {}
    try:
        if args.trace:
            layers = traced_metrics(bench, built, args.seconds, out_dir)
            layers["input_build_s"] = input_build_s
        else:
            bench.timed_passes(built, args.seconds, MIN_PASSES)
    except Exception:
        traceback.print_exc()
        bench.raised = True
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    del built

    try:
        verification = workload.verify(args.seed)
    except Exception:
        traceback.print_exc()
        bench.raised = True
        verification = check.Verification(packets=0, matched=0, stats_equal=False,
                                          totals_equal=False)
    digests = bench.digests
    deterministic = all(digest == digests[0] for digest in digests)
    correct = (not bench.raised and verification.ok and deterministic
               and bench.failed_packets == 0 and bool(digests))
    attempted = bench.offered + verification.packets
    failed = (attempted if bench.raised
              else bench.failed_packets + verification.packets - verification.matched)

    samples = {
        "pkts_per_s": bench.pkts_per_s,
        "setup_s": bench.setup_s,
        "peak_rss_mb": [peak_rss_mb],
        "correct_share": [0.0 if bench.raised else verification.share],
    }
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed, len(bench.walls)),
        "input_build_s": input_build_s,
        "metrics": {name: dict(summary(values), unit=END_TO_END_UNITS[name])
                    for name, values in samples.items()},
        "raw_host_time": {name: summary(values) for name, values in bench.raw.items()},
        "verification": vars(verification),
        "deterministic": deterministic,
        "sim_digest": digests[0] if digests else None,
    }
    if args.trace:
        details["per_layer"] = layers
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2, sort_keys=True) + "\n")
    print("digest (simulated outputs, informational): "
          + json.dumps(details["sim_digest"], sort_keys=True))
    print("provenance: " + json.dumps(details["provenance"], sort_keys=True))

    if args.trace:
        from perfbench.tracing import PER_LAYER, unit_of

        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit_of(name)}
                   for name in PER_LAYER}
    else:
        metrics = {name: {"value": details["metrics"][name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
