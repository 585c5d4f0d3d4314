"""Tests of the benchmark itself (run: ``python -m pytest perfbench``).

They use each workload's small warm-up size, so the whole file takes
seconds, except the two command-line tests, which run the benchmark as
the driver does.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_repo_source()

import metrics  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(run.__file__).resolve().parent.parent


def small_run(name, seed=3):
    wl = WORKLOADS[name]
    bench = run.Run(wl, seed, size=wl.warm_size)
    bench.reference(measure_memory=False)
    return bench


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_keeps_digest_and_removes_wrappers(name):
    bench = small_run(name)
    assert tracing.wrapped_attributes() == []
    _, _, plain = bench.timed_call()
    tr = tracing.Tracer()
    _, wall, traced_digest = bench.timed_call(tr)
    assert traced_digest == plain
    assert bench.failed == 0 and not bench.problems
    assert tracing.wrapped_attributes() == []

    summary = tr.summary()
    assert summary[WORKLOADS[name].top]["calls"] == 1
    selfs = run.module_self_times(summary)
    assert all(s >= 0.0 for s in selfs.values()), selfs
    assert sum(selfs.values()) <= wall


def test_wrappers_present_only_inside_traced_block():
    with tracing.traced(tracing.Tracer()):
        inside = tracing.wrapped_attributes()
    assert "DenseLatencyModel.step_time" in inside
    assert "Scheduler.admit" in inside
    assert tracing.wrapped_attributes() == []


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    with tr.span("fleet"):
        with tr.span("router"):
            with tr.span("router"):
                pass
        with tr.span("decoder.prefill"):
            with tr.span("decoder.step"):
                pass
    summary = tr.summary()
    assert summary["router"]["calls"] == 2
    assert summary["router"]["outer_calls"] == 1
    # The nested decoder.step is not outer: one decoder layer span encloses it.
    assert summary["decoder.step"]["outer_calls"] == 0
    total = summary["fleet"]["self_s"] + sum(
        row["self_s"] for span, row in summary.items() if span != "fleet")
    outer = summary["fleet"]["busy_s"]
    assert total == pytest.approx(outer, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_changed_seed_changes_trace(name):
    wl = WORKLOADS[name]
    a = wl.setup(1, wl.warm_size)["trace"].requests
    b = wl.setup(2, wl.warm_size)["trace"].requests
    again = wl.setup(1, wl.warm_size)["trace"].requests
    assert a == again
    assert a != b


def test_tampered_digest_counts_failures(monkeypatch):
    name = "fleet_autoscale"
    honest = small_run(name)
    tampered = {k: v for k, v in honest.ref.items()}
    tampered["sim.makespan_s"] += 1e-9
    monkeypatch.setattr(run, "load_digests",
                        lambda: {name: {"3": tampered}})
    bench = small_run(name)
    bench.check_recorded()
    assert bench.problems
    bench.timed_call()
    assert bench.attempted == bench.requests
    assert bench.failed == bench.requests


def test_recorded_digests_cover_every_workload():
    recorded = run.load_digests()
    for name in WORKLOADS:
        assert recorded.get(name), f"no recorded digest for {name}"


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]


def _command(tmp_root, *args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    return subprocess.run(cmd + list(args), cwd=tmp_root, capture_output=True,
                          text=True, timeout=180)


def test_command_prints_result_line():
    out = _command(ROOT, "--workload", "fleet_autoscale", "--seed", "5",
                   "--seconds", "0.5", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in metrics.END_TO_END]


def test_command_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _command(tmp_path, "--workload", "fleet_chat", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert not out.stdout.strip()
