"""Run one workload of the percop benchmark and print its result.

From the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

The benchmark imports percop from ``src/`` of the same checkout, builds the
workload's inputs from the seed, runs the timed loop, checks every answer and
prints two JSON lines: run details (metadata, op and state counts, digests),
then the result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
repeats the loop with spans around every library call and the metrics are
the per-layer ones.  A full report, spans included, goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.

The exit status is 0 when every op was correct, 1 when one failed and 2 when
the percop sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = ROOT / "tests" / "reference.py"
OUT = HERE / "out"

SETUP_REPEATS = 5
# pinned, so that an exported PERCOP_STATE_BUDGET cannot turn solves into
# BudgetErrors; this is the library's default
STATE_BUDGET = 10**8


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    i = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[i]


def timed_pass(wl, lib, inputs, probe):
    """Run the loop once on the probe's clock; return (Run, clock summary)."""
    probe.clock.start()
    run = wl.run(lib, inputs, probe)
    probe.clock.stop()
    return run, probe.clock.summary()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """HEAD of the checkout's own .git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over percop's sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted((SRC / "percop").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def metadata(traced):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "traced": bool(traced),
    }


def load_reference():
    spec = importlib.util.spec_from_file_location("percop_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def end_to_end(setups, timing, ops):
    """The end-to-end metrics, times scaled to the reference speed."""
    op_s = sorted(timing["op_s"])
    values = {
        "setup_s": (statistics.median(t for t, _raw in setups), "s"),
        "wall_s": (timing["wall_s"], "s"),
        "cpu_s": (timing["cpu_s"], "s"),
        "ops_per_s": (ops / timing["wall_s"], "1/s"),
        "op_ms.p50": (percentile(op_s, 0.50) * 1e3, "ms"),
        "op_ms.p99": (percentile(op_s, 0.99) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def raw_times(setups, timing, ops):
    """The same times as measured, before scaling."""
    op_s = sorted(timing["raw_op_s"])
    return {
        "setup_s": statistics.median(raw for _t, raw in setups),
        "wall_s": timing["raw_wall_s"],
        "cpu_s": timing["raw_cpu_s"],
        "ops_per_s": ops / timing["raw_wall_s"],
        "op_ms.p50": percentile(op_s, 0.50) * 1e3,
        "op_ms.p99": percentile(op_s, 0.99) * 1e3,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "percop" / "__init__.py").is_file() or not REFERENCE.is_file():
        print("perfbench: no percop sources under %s" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import clock
    import probes
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r; known: %s"
              % (args.workload, sorted(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    os.environ["PERCOP_STATE_BUDGET"] = str(STATE_BUDGET)
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    size = wl.size(args.seconds)

    # set-up (import plus input generation) is repeated and its median kept
    def setup():
        fresh = workloads.import_library()
        return fresh, wl.make_inputs(fresh, args.seed, size, probes.Counter(fresh))

    setups = []
    for _ in range(SETUP_REPEATS):
        lib = inputs = None
        (lib, inputs), scaled, raw = clock.timed_setup(setup)
        setups.append((scaled, raw))
    if SRC.resolve() not in Path(lib.solver.__file__).resolve().parents:
        print("perfbench: percop was imported from %s" % lib.solver.__file__,
              file=sys.stderr)
        return 2

    counter = probes.Counter(lib).install()
    run, timing = timed_pass(wl, lib, inputs, counter)
    counter.restore()
    ops = len(run.answers)
    metrics = end_to_end(setups, timing, ops)
    inputs_digest = wl.inputs_digest(inputs)
    checked_outside = wl.check_outside(lib, inputs, run, load_reference())

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": size,
        "meta": metadata(args.trace),
        "ops": ops,
        "latency_samples": len(timing["op_s"]),
        "checked_outside_loop": checked_outside,
        "states": counter.states,
        "inputs_sha256": inputs_digest,
        "answers_sha256": hashlib.sha256(repr(run.answers).encode()).hexdigest(),
        "speed": timing["speed"],
        "raw": raw_times(setups, timing, ops),
        "end_to_end": metrics,
    }
    if args.trace:
        inputs = None
        tracer = probes.Tracer(lib).install()
        t0 = perf_counter()
        with tracer.span("bench.setup"):
            traced_inputs = wl.make_inputs(lib, args.seed, size, tracer)
        traced, traced_timing = timed_pass(wl, lib, traced_inputs, tracer)
        traced_total = perf_counter() - t0
        tracer.restore()
        if traced.answers != run.answers:
            run.fail(0, "the traced run answered differently")
        for op, reason in traced.failures.items():
            run.fail(op, reason)
        metrics = tracer.metrics(traced_total, traced_timing["wall_s"] / timing["wall_s"],
                                 tracer.candidates)
        report["traced_states"] = tracer.states
        report["module_self_share"] = tracer.module_shares(traced_total)
        report["per_layer"] = metrics
        report["spans_format"] = ["name", "start_us", "end_us", "parent", "op",
                                  "child_us", "hot", "note"]
        report["spans"] = tracer.dump_spans(t0)

    failed = len(run.failures)
    report["failed"] = failed
    report["failed_frac"] = failed / ops
    report["failures"] = {str(k): v for k, v in sorted(run.failures.items())[:50]}
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(report))

    summary = {k: v for k, v in report.items()
               if k not in ("spans", "spans_format", "per_layer", "end_to_end")}
    summary["report"] = str(path.relative_to(ROOT))
    print(json.dumps({"perfbench": summary}))
    print(json.dumps({"correct": failed == 0, "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
