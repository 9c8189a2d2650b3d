"""Tests of the benchmark itself, on tiny sizes of every workload.

Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import clock  # noqa: E402
import probes  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "corpus": {"family_max_n": 3, "sample": 40},
    "paper": {"passes": 1, "pads": (12,)},
    "search": {"candidates": 300},
}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(name, seed, probe_cls=probes.Counter):
    wl = workloads.WORKLOADS[name]
    lib = workloads.import_library()
    inputs = wl.make_inputs(lib, seed, TINY[name], probes.Counter(lib))
    probe = probe_cls(lib).install()
    try:
        result, timing = bench.timed_pass(wl, lib, inputs, probe)
    finally:
        probe.restore()
    wl.check_outside(lib, inputs, result, bench.load_reference())
    assert len(timing["op_s"]) == len(result.answers)
    return wl.inputs_digest(inputs), probe, result


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct_and_repeatable(name):
    digest, probe, first = run_tiny(name, 3)
    assert first.failures == {}
    assert first.answers
    digest2, probe2, second = run_tiny(name, 3)
    assert digest2 == digest
    assert probe2.states == probe.states
    assert second.answers == first.answers
    other, _probe, _result = run_tiny(name, 4)
    assert other != digest


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric(name):
    _digest, counted, plain = run_tiny(name, 5)
    _digest, tracer, traced = run_tiny(name, 5, probes.Tracer)
    assert traced.answers == plain.answers
    assert tracer.states == counted.states
    assert not tracer.stack
    metrics = tracer.metrics(1.0, 1.0, tracer.candidates)
    assert list(metrics) == [m["name"] for m in DECLARED["per_layer"]]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in DECLARED["per_layer"]
    }


def test_tracer_restores_every_patched_name():
    lib = workloads.import_library()
    before = (lib.solver.is_k_copwin, lib.search.girth, lib.graphs.Graph.__init__)
    tracer = probes.Tracer(lib).install()
    assert lib.solver.is_k_copwin is not before[0]
    tracer.restore()
    assert (lib.solver.is_k_copwin, lib.search.girth, lib.graphs.Graph.__init__) == before


def test_span_self_time_excludes_children():
    lib = workloads.import_library()
    tracer = probes.Tracer(lib)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent == -1
    assert outer.child == pytest.approx(inner.end - inner.start)


def test_clock_leaves_calibration_pauses_out_of_op_times(monkeypatch):
    monkeypatch.setattr(clock, "SMOOTH_S", 0.2)
    nominal = clock.NOMINAL_S
    c = clock.SpeedClock()
    c.calibrations = [(-0.1, nominal), (1.0, nominal / 2), (2.6, nominal / 2)]
    c.segments = [(0.0, 1.0, 1.0), (1.5, 2.5, 0.5)]
    c.op(0.5, 2.0)
    summary = c.summary()
    assert summary["raw_op_s"] == [1.0]
    assert summary["raw_wall_s"] == 2.0 and summary["raw_cpu_s"] == 1.5
    # segment 0 sees kernel times nominal and nominal/2, segment 1 only nominal/2
    assert summary["op_s"] == [pytest.approx(0.5 * 4 / 3 + 0.5 * 2)]
    assert summary["wall_s"] == pytest.approx(4 / 3 + 2)


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_the_declared_metrics(trace):
    out = _cli(ROOT, "--workload", "search", "--seed", "7", "--seconds", "0.2",
               "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.Search.size(0.2)["candidates"]
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_cli_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in DECLARED["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _cli(tmp_path, "--workload", "corpus", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
