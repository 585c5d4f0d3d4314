"""The repository benchmark: host speed of the simulator and engine.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_chat --seed 1 --seconds 15 --trace 0

One process, one thread, one caller: each timed call into a public entry
point starts only after the previous one returned (a closed loop). The
traffic modelled *inside* each trace is open-loop on the simulated clock.

``--trace 0`` measures the end-to-end metrics with tracing off:

* an untimed warm-up call on a small input loads every module;
* a reference call, untimed, under ``tracemalloc`` gives ``peak_mem_mb``,
  the digest of modelled results, and the workload's own checks;
* timed calls, each on freshly built inputs, repeat until ``--seconds``
  of timed work; each must reproduce the reference digest bit for bit.

Every timed call and input build is bracketed by a host-speed probe
(:mod:`hostspeed`), and its duration is divided by the host's slowdown
during it. ``req_per_s`` and ``tok_per_s`` are the work of one call over
the median normalized call time, ``setup_s`` the median normalized input
build. The raw wall-clock rate is printed alongside.

``--trace 1`` alternates untraced and traced calls for ``--seconds`` and
reports the per-layer metrics (medians over traced calls), the module
self-time table and ``trace.overhead_ratio``; the spans of the last
traced call are written to ``.perfbench/`` as a gzipped chrome trace.

The digest of a seed recorded in ``perfbench/digests.json`` must match;
a mismatch, a failed check, or an unfinished request marks requests
failed. The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import hostspeed
from metrics import BY_NAME, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".perfbench"

#: Timed calls per run, at least, however long each takes.
MIN_CALLS = 3
#: Input builds per run, at least, for the ``setup_s`` median.
MIN_SETUPS = 15


def use_repo_source() -> None:
    """Import the program from this checkout's ``src``, never from an
    installed copy; exit with an error when it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}/repro")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def load_digests() -> dict:
    """Recorded digests: workload -> seed (as a string) -> digest."""
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text())["digests"]


class Run:
    """Shared state of one benchmark run on one workload and seed.

    Timings booked here are in reference-host seconds (see
    :mod:`hostspeed`): each raw duration divided by the host's slowdown
    measured by probes right around it.
    """

    def __init__(self, workload, seed: int, size: int | None = None) -> None:
        self.wl = workload
        self.seed = seed
        self.size = workload.size if size is None else size
        self.setup_samples: list[float] = []
        self.gen_samples: list[float] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def warm_up(self) -> None:
        hostspeed.probe()
        warm = self.wl.setup(self.seed, self.wl.warm_size)
        self.wl.call(warm)

    def reference(self, measure_memory: bool) -> None:
        """Untimed reference call: digest, ops counts, checks, memory."""
        inputs = self.wl.setup(self.seed, self.size)
        gc.collect()
        if measure_memory:
            tracemalloc.start()
        try:
            with self.wl.observe() as observed:
                result = self.wl.call(inputs)
            if measure_memory:
                self.peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            if measure_memory:
                tracemalloc.stop()
        self.ref = {**self.wl.digest(inputs, result), **observed}
        self.requests, self.tokens = self.wl.ops(inputs, self.ref)
        self.problems += self.wl.verify(inputs, result, self.ref)

    def check_recorded(self) -> None:
        """Compare the reference digest with the one recorded for this
        seed, when there is one."""
        recorded = load_digests().get(self.wl.name, {}).get(str(self.seed))
        if recorded is None:
            print(f"  no recorded digest for seed {self.seed}; checks are "
                  "the workload's own and run-internal repeatability")
        elif recorded != self.ref:
            diff = sorted(k for k in set(recorded) | set(self.ref)
                          if recorded.get(k) != self.ref.get(k))
            self.problems.append(f"digest differs from the recorded one "
                                 f"for seed {self.seed}: {diff}")

    def _setup(self) -> tuple[dict, float]:
        gc.collect()
        t0 = time.perf_counter()
        inputs = self.wl.setup(self.seed, self.size)
        return inputs, time.perf_counter() - t0

    def _book_setup(self, inputs: dict, seconds: float, slow: float) -> None:
        self.setup_samples.append(seconds / slow)
        self.gen_samples.append(inputs["gen_s"] / slow)

    def timed_call(self, tracer=None) -> tuple[float, float, dict]:
        """Build fresh inputs and make one timed call, traced when
        ``tracer`` is given. Returns ``(normalized_s, wall_s, digest)``
        and books the set-up time and attempted/failed operations."""
        before = hostspeed.probe()
        inputs, setup_s = self._setup()
        if tracer is not None:
            from tracer import TracedCosts, traced

            if "costs" in inputs:
                inputs = {**inputs, "costs": TracedCosts(inputs["costs"],
                                                         tracer)}
        gc.collect()  # no collection of earlier garbage inside the call
        if tracer is None:
            t0 = time.perf_counter()
            result = self.wl.call(inputs)
            wall = time.perf_counter() - t0
        else:
            with traced(tracer):
                t0 = time.perf_counter()
                with tracer.span(self.wl.top):
                    result = self.wl.call(inputs)
                wall = time.perf_counter() - t0
        slow = hostspeed.slowdown(before, hostspeed.probe())
        self._book_setup(inputs, setup_s, slow)
        digest = self.wl.digest(inputs, result)
        self.attempted += self.requests
        if self.problems or digest != {k: self.ref[k] for k in digest}:
            self.failed += self.requests
            if not self.problems:
                self.problems.append("a timed call changed the digest")
        else:
            self.failed += self.requests - self.wl.completed(self.ref)
        return wall / slow, wall, digest

    def finish_setups(self) -> None:
        while len(self.setup_samples) < MIN_SETUPS:
            before = hostspeed.probe()
            inputs, setup_s = self._setup()
            self._book_setup(inputs, setup_s,
                             hostspeed.slowdown(before, hostspeed.probe()))

    def result_line(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": BY_NAME[name].unit}
                        for name, value in metrics.items()},
        }


def run_untraced(run: Run, seconds: float) -> dict:
    run.reference(measure_memory=True)
    run.check_recorded()
    normalized, walls = [], []
    while sum(walls) < seconds or len(walls) < MIN_CALLS:
        norm_s, wall, _ = run.timed_call()
        normalized.append(norm_s)
        walls.append(wall)
    run.finish_setups()
    done = run.wl.completed(run.ref)
    call_s = statistics.median(normalized)
    metrics = {
        "req_per_s": done / call_s,
        "tok_per_s": run.tokens / call_s,
        "setup_s": statistics.median(run.setup_samples),
        "peak_mem_mb": run.peak_bytes / 2**20,
    }
    wall = statistics.median(walls)
    print(f"{run.wl.name} seed={run.seed}: {len(walls)} timed calls of "
          f"{run.requests} requests and {run.tokens} tokens; median call "
          f"{wall:.4f} s wall, {call_s:.4f} s at reference host speed")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:16.6g}  {BY_NAME[name].unit}")
    print(f"  {'error_rate':<12} {run.failed / run.attempted:16.6g}  "
          f"({run.failed} of {run.attempted} failed)")
    print(f"  raw wall rate: {done / wall:.6g} req/s")
    return metrics


def layer_metrics(summary: dict, counts: dict, digest: dict,
                  wall: float) -> dict:
    """Per-layer metrics of one traced call."""
    def get(span, key):
        return summary.get(span, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    lat_calls = get("latency", "calls")
    lat_busy = get("latency", "busy_s")
    prompt_calls = counts.get("costs.prompt_calls", 0)
    run_calls = counts.get("costs.decode_run_calls", 0)
    steps = counts.get("costs.decode_steps", 0)
    discarded = digest.get("fleet.tokens_discarded", 0)
    return {
        "latency.calls": lat_calls,
        "latency.busy_s": lat_busy,
        "latency.us_per_call": 1e6 * ratio(lat_busy, lat_calls),
        "latency.wall_share": ratio(lat_busy, wall),
        "costs.prompt_calls": prompt_calls,
        "costs.decode_run_calls": run_calls,
        "costs.decode_steps": steps,
        "costs.steps_per_run": ratio(steps, run_calls),
        "costs.self_s": get("costs", "self_s"),
        "costs.miss_rate": ratio(lat_calls, prompt_calls + steps),
        "fleet.self_s": get("fleet", "self_s"),
        "router.route_calls": get("router", "calls"),
        "router.busy_s": get("router", "busy_s"),
        "fleet.retries": digest.get("fleet.retries", 0),
        "fleet.discarded_tok_ratio": ratio(discarded,
                                           digest["sim.tokens"] + discarded),
        "autoscale.epochs": get("autoscale", "calls"),
        "autoscale.busy_s": get("autoscale", "busy_s"),
        "autoscale.actions": counts.get("autoscale.actions", 0),
        "serving.self_s": get("serving", "self_s"),
        "scheduler.calls": get("scheduler", "calls"),
        "scheduler.busy_s": get("scheduler", "busy_s"),
        "timeline.records": get("timeline", "calls"),
        "timeline.busy_s": get("timeline", "busy_s"),
        "tuner.self_s": get("tuner", "self_s"),
        "decoder.prefill_calls": get("decoder.prefill", "outer_calls"),
        "decoder.prefill_s": get("decoder.prefill", "busy_s"),
        "decoder.step_calls": get("decoder.step", "calls"),
        "decoder.step_s": get("decoder.step", "busy_s"),
        "paged_kv.fork_calls": get("paged_kv.fork", "calls"),
        "paged_kv.block_ops": get("paged_kv.block", "calls"),
        "paged_kv.busy_s": (get("paged_kv.fork", "busy_s")
                            + get("paged_kv.block", "busy_s")),
        "session.self_s": get("session", "self_s"),
    }


def module_self_times(summary: dict) -> dict[str, float]:
    from tracer import module_of

    out: dict[str, float] = {}
    for span, row in summary.items():
        module = module_of(span)
        out[module] = out.get(module, 0.0) + row["self_s"]
    return out


def run_traced(run: Run, seconds: float) -> dict:
    from tracer import Tracer

    run.reference(measure_memory=False)
    run.check_recorded()
    plain, traced, walls, per_call, tables = [], [], [], [], []
    tracer = None
    while sum(walls) < seconds or not traced:
        norm_s, wall, _ = run.timed_call()
        plain.append(norm_s)
        tracer = Tracer()
        norm_t, wall_t, digest = run.timed_call(tracer)
        traced.append(norm_t)
        walls += [wall, wall_t]
        summary = tracer.summary()
        row = layer_metrics(summary, tracer.counts, run.ref, wall_t)
        selfs = module_self_times(summary)
        row["trace.unattributed_s"] = wall_t - sum(selfs.values())
        row["wall_s"] = wall_t
        per_call.append(row)
        tables.append(selfs)
    run.finish_setups()

    # median_low: counts stay exact integers, times stay measured samples.
    metrics = {k: statistics.median_low([row[k] for row in per_call])
               for k in per_call[0]}
    wall = metrics.pop("wall_s")
    for key in ("sim.ttft_p50_s", "sim.ttft_p99_s", "sim.makespan_s",
                "sim.tokens", "kv.prefix_hits", "kv.prefix_hit_rate",
                "kv.peak_blocks", "kv.dedup_ratio"):
        metrics[key] = run.ref[key]
    metrics["scenarios.gen_s"] = statistics.median(run.gen_samples)
    untraced = statistics.median(plain)
    steps = tracer.counts.get("sim.steps", 0)
    metrics["sim.host_us_per_step"] = 1e6 * untraced / steps if steps else 0.0
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / untraced
                                       - 1.0)
    metrics = {m.name: metrics[m.name] for m in PER_LAYER}

    print(f"{run.wl.name} seed={run.seed}: {len(traced)} traced and "
          f"{len(plain)} untraced calls; median traced wall {wall:.4f} s")
    print(f"  {'module':<12} {'self_s':>10} {'share':>8}")
    selfs = {m: statistics.median([t[m] for t in tables])
             for m in tables[0]}
    for module, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  {module:<12} {s:10.4f} {s / wall:8.1%}")
    rest = metrics["trace.unattributed_s"]
    print(f"  {'(outside)':<12} {rest:10.4f} {rest / wall:8.1%}")
    print(f"  {'per-layer metric':<26} {'value':>16}  unit")
    for m in PER_LAYER:
        print(f"  {m.name:<26} {metrics[m.name]:16.6g}  {m.unit}")
    write_spans(run, tracer)
    return metrics


def write_spans(run: Run, tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{run.wl.name}-seed{run.seed}.trace.json.gz"
    with gzip.open(path, "wt") as f:
        json.dump({"traceEvents": tracer.chrome_events()}, f)
    print(f"  spans of the last traced call: {path.relative_to(ROOT)} "
          f"({tracer.num_spans} spans)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    use_repo_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    run = Run(WORKLOADS[args.workload], args.seed)
    run.warm_up()
    if args.trace:
        metrics = run_traced(run, args.seconds)
    else:
        metrics = run_untraced(run, args.seconds)
    for problem in run.problems:
        print(f"  check failed: {problem}")
    print(json.dumps(run.result_line(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
