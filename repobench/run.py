#!/usr/bin/env python3
"""The repository benchmark: four workloads, every metric by name with its unit.

Run from the root of a checkout::

    python3 repobench/run.py --workload sim-mpi --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no tracing.
Every end-to-end timing is host time rescaled to the reference host's speed
by the benchmark's own speed probe (``speed.py``), which runs in every
process of the program under test.  ``--trace 1`` runs the same untraced
passes, then one more pass, unprobed, under the per-layer instruments, and
prints the per-layer metrics.  Human-readable
lines (sample count, median and quartiles of each timing) come first; the
last line of standard output is one JSON object::

    {"correct": true, "attempted": 21, "failed": 0, "metrics": {...}}

Any wrong output counts as a failed operation and makes the exit code 1.
Without a ``src/repro`` tree and ``results/paper_cache.json`` next to this
directory the benchmark prints nothing on standard output and exits 2.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import speed
from instruments import SIM_LAYERS, LayerTrace
from speed import Totals, since
from stats import summary, tail
from workloads import READY_LINE, WORKLOADS, stop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "repro"
ORACLE = ROOT / "results" / "paper_cache.json"

#: Fresh-interpreter set-ups timed per run, after one discarded warm-up that
#: absorbs bytecode compilation and page-cache effects.  They are spread over
#: the gaps before, between and after the passes, so the median samples the
#: host over the whole run rather than one moment of it.
SETUP_SPAWNS = 15

END_TO_END = {
    "latency_ms.p50": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.self_share": "ratio",
    "mpi.messages": "count",
    "mpi.intra_node_share": "ratio",
    "mpi.events_per_msg": "ratio",
    "mpi.self_share": "ratio",
    "network.packets": "count",
    "network.packets_per_msg": "ratio",
    "network.self_share": "ratio",
    "workloads.self_share": "ratio",
    "engine.product_ms.baseline": "ms",
    "engine.product_ms.pair": "ms",
    "engine.product_ms.comp_sig": "ms",
    "engine.product_ms.degradation": "ms",
    "parallel.tasks": "count",
    "parallel.task_s": "s",
    "parallel.utilization": "ratio",
    "parallel.idle_worker_s": "s",
    "parallel.stage_s.calibration": "s",
    "parallel.stage_s.measurements": "s",
    "parallel.stage_s.dependents": "s",
    "parallel.retries": "count",
    "cache.flushes": "count",
    "cache.flush_s": "s",
    "cache.write_amplification": "ratio",
    "models.predict_us": "us",
    "models.batch_us_per_triple": "us",
    "serving.server_ms.mean": "ms",
    "serving.server_ms.p99": "ms",
    "serving.transport_ms.mean": "ms",
    "serving.cpu_ms_per_req": "ms",
    "serving.errors": "count",
    "serving.client_ms.p99": "ms",
    "trace.overhead_ratio": "ratio",
    "other.self_share": "ratio",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ready", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def spawn_seconds(work) -> float:
    """Seconds from a fresh interpreter to a ready workload, at reference speed."""
    before = Totals.now()
    start = time.perf_counter()
    process = work.spawn_ready()
    elapsed = since(before, time.perf_counter() - start)
    stop(process)
    return elapsed


def spawn_gaps(spawns: int, passes: int) -> List[int]:
    """Timed set-up spawns in each of the ``passes + 1`` gaps around passes."""
    return [len(range(gap, spawns, passes + 1)) for gap in range(passes + 1)]


def report(name: str, unit: str, value: float, samples: List[float] = ()) -> None:
    line = f"{name:32s} {value:14.6g} {unit}"
    if len(samples) > 1:
        count, median, q1, q3 = summary(samples)
        line += f"   (n={count}, median {median:.6g}, q1 {q1:.6g}, q3 {q3:.6g})"
    print(line)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file() or not ORACLE.is_file():
        print(f"repobench: no repro source tree or paper cache under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    cls = WORKLOADS[args.workload]
    if args.ready:
        speed.install_from_env()
        cls.ready(args.seed)
        print(READY_LINE, flush=True)
        return 0
    # Turn a termination request into SystemExit so ``finally`` blocks stop
    # every child process and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    scratch = Path(tempfile.mkdtemp(prefix=".repobench-", dir=ROOT))
    work = cls(ROOT, args.seed, args.seconds, scratch)
    untraced, walls, host_walls, traced, setup = [], [], [], [], []
    try:
        speed.install(scratch / "speed.bin")
        work.prepare_inputs()
        gaps = [0] * (work.passes + 1)
        if not args.trace:
            spawn_seconds(work)  # warm-up, discarded
            gaps = spawn_gaps(SETUP_SPAWNS, work.passes)
        work.prepare()
        for index in range(work.passes):
            setup.extend(spawn_seconds(work) for _ in range(gaps[index]))
            ops = work.pass_ops()
            before = Totals.now()
            start = time.perf_counter()
            untraced.extend(work.run_pass(ops))
            host_walls.append(time.perf_counter() - start)
            walls.append(since(before, host_walls[-1]))
        setup.extend(spawn_seconds(work) for _ in range(gaps[-1]))
        if args.trace:
            # The per-layer pass runs unprobed, so the probe's frames stay out
            # of the stack samples; its timings are plain host time.
            speed.pause()
            ops = work.pass_ops()
            work.begin_trace()
            with LayerTrace(PACKAGE) as trace:
                start = time.perf_counter()
                traced = work.run_pass(ops)
                traced_wall = time.perf_counter() - start
            work.end_trace()
    finally:
        work.close()
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(not correct for _, _, correct in untraced + traced)
    latencies = [seconds for _, seconds, _ in untraced]
    print(f"# {args.workload}: seed {args.seed}, {work.passes} passes of {len(untraced) // work.passes} operations")
    factors = [wall / host for wall, host in zip(walls, host_walls)]
    print(f"# reference seconds per host second, by pass: {' '.join(f'{f:.3f}' for f in factors)}")
    if args.trace:
        metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
        owned = work.layer_metrics(trace, traced, untraced, walls)
        unknown = set(owned) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
        metrics.update(owned)
        metrics["trace.overhead_ratio"] = traced_wall / summary(host_walls)[1]
        for layer in (*SIM_LAYERS, "other"):
            metrics[f"{layer}.self_share"] = trace.sampler.share(layer)
        for name, unit in PER_LAYER.items():
            report(name, unit, metrics[name])
        units = PER_LAYER
    else:
        metrics = {
            "latency_ms.p50": summary(latencies)[1] * 1e3,
            "ops_per_s": len(untraced) / sum(walls),
            "peak_rss_mb": work.peak_rss_kb() / 1024,
            "setup_s": summary(setup)[1],
        }
        report("latency_ms.p50", "ms", metrics["latency_ms.p50"], [s * 1e3 for s in latencies])
        p99 = tail(latencies, 0.99)
        if p99 is not None:
            report("latency_ms.p99 (not gated)", "ms", p99 * 1e3)
        report("ops_per_s", "1/s", metrics["ops_per_s"], [len(untraced) / work.passes / w for w in walls])
        report("peak_rss_mb", "MB", metrics["peak_rss_mb"])
        report("setup_s", "s", metrics["setup_s"], setup)
        units = END_TO_END
    attempted = len(untraced) + len(traced)
    print(f"# {attempted} operations attempted, {failed} failed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
