"""The benchmark's four workloads, driven through public entry points only.

Each workload turns ``--seed`` into a fixed list of operations (one pass),
runs that pass several times, and checks every output.  An operation is
what a caller blocks on: one product (``sim-mpi``, ``sim-network``), one
cold campaign (``campaign``) or one HTTP request (``serve``).  See
``README.md`` next to this file for why each workload was chosen.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

from speed import Totals, child_env, since
from stats import histogram_delta, summary, tail

HERE = Path(__file__).resolve().parent

#: Result of one operation: ``(operation, seconds at reference speed, output
#: correct)``; host seconds are rescaled by the speed probe (``speed.py``).
#: Each output is checked as soon as its operation returns and then dropped,
#: so the benchmark process does not grow with the number of operations.
#: An operation that raised counts as incorrect.
Outcome = Tuple[object, float, bool]

#: Kinds of packet-simulator product, each reported as ``engine.product_ms.<kind>``.
PRODUCT_KINDS = ("baseline", "pair", "comp_sig", "degradation")

#: Worker processes or client connections, the host's core count.
WORKERS = 2

READY_LINE = "ready"


def stop(process: subprocess.Popen) -> None:
    """Terminate ``process`` if it still runs and wait until it has ended."""
    if process.poll() is None:
        process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def _products(pipeline, raws: Sequence[str]) -> Dict[str, object]:
    return {raw: pipeline.product(raw) for raw in raws}


class Workload:
    """One named workload: set-up, a seed-determined pass, and its checks.

    Args:
        root: checkout root (holds ``src/`` and ``results/paper_cache.json``).
        seed: the ``--seed`` argument; every input derives from it.
        seconds: the ``--seconds`` argument; it fixes how many passes run.
        scratch: a private directory inside the checkout, removed afterwards.
    """

    name = ""
    #: Host seconds one untraced pass takes on the reference host (2 cores).
    #: A constant, so faster code runs the same operations in less time.
    nominal_pass_s = 1.0

    def __init__(self, root: Path, seed: int, seconds: int, scratch: Path) -> None:
        self.root = root
        self.seed = seed
        self.scratch = scratch
        self.passes = max(2, round(seconds / self.nominal_pass_s))
        self.rng = random.Random(f"{self.name}:{seed}")

    @property
    def oracle_path(self) -> Path:
        return self.root / "results" / "paper_cache.json"

    def env(self) -> Dict[str, str]:
        src = str(self.root / "src")
        path = os.environ.get("PYTHONPATH")
        return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    # -- set-up ---------------------------------------------------------------
    def prepare_inputs(self) -> None:
        """Untimed: load oracles and write inputs the set-up spawns read."""

    def spawn_ready(self) -> subprocess.Popen:
        """Start a fresh interpreter and return once the workload is ready."""
        command = [
            sys.executable,
            str(Path(__file__).with_name("run.py")),
            "--ready",
            "--workload",
            self.name,
            "--seed",
            str(self.seed),
        ]
        process = subprocess.Popen(
            command, cwd=self.root, env=child_env(self.env()), stdout=subprocess.PIPE, text=True
        )
        line = process.stdout.readline().strip()
        if line != READY_LINE:
            process.wait()
            raise RuntimeError(f"set-up spawn of {self.name} printed {line!r}")
        return process

    @staticmethod
    def ready(seed: int):
        """What a fresh interpreter does before the first operation."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed in-process set-up before the first pass."""

    # -- passes ---------------------------------------------------------------
    def pass_ops(self) -> List[object]:
        """Operations of one pass, in a seed-determined order."""
        raise NotImplementedError

    def run_op(self, op: object) -> object:
        raise NotImplementedError

    def timed(self, op: object) -> Tuple[float, bool]:
        """Host seconds ``op`` took, and whether its output is correct."""
        start = time.perf_counter()
        try:
            output = self.run_op(op)
        except Exception as exc:  # a failed operation, counted and reported
            traceback.print_exc(file=sys.stderr)
            output = exc
        seconds = time.perf_counter() - start
        return seconds, self.check(op, output)

    def run_pass(self, ops: Sequence[object]) -> List[Outcome]:
        """Serial closed loop: each operation starts when the last returned.

        Each operation is rescaled by the probes that ran during it.
        """
        outcomes = []
        for op in ops:
            before = Totals.now()
            seconds, correct = self.timed(op)
            outcomes.append((op, since(before, seconds), correct))
        return outcomes

    def check(self, op: object, output: object) -> bool:
        """Whether ``output`` (or the exception ``op`` raised) is correct."""
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        """Peak resident set of the program under test, in KiB.

        By default the program runs in this process and in the children it
        waited for (pool workers, set-up spawns).
        """
        return max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )

    def begin_trace(self) -> None:
        """Untimed, before the traced pass: switch on what only it records."""

    def end_trace(self) -> None:
        """Untimed, after the traced pass."""

    def layer_metrics(
        self,
        trace,
        traced: List[Outcome],
        untraced: List[Outcome],
        pass_walls: List[float],
    ) -> Dict[str, float]:
        """Per-layer numbers owned by this workload (the rest print as 0)."""
        return {}

    def close(self) -> None:
        """Stop every process this workload started."""


# ---------------------------------------------------------------------------
# Packet-simulator products
# ---------------------------------------------------------------------------
class SimProducts(Workload):
    """Serial packet-sim products, each one ``run_experiment`` call.

    At seed 0 every output must equal ``results/paper_cache.json`` bit for
    bit; at other seeds the machine is re-seeded and each product must agree
    across passes and with the prerequisites computed during set-up.
    """

    products: Tuple[str, ...] = ()

    @staticmethod
    def ready(seed: int):
        from repro.core.experiments.pipeline import PipelineSettings, ReproductionPipeline

        return ReproductionPipeline(PipelineSettings(seed=seed))

    def prepare_inputs(self) -> None:
        from repro.core.experiments.pipeline import ReproductionPipeline

        self.expected: Dict[str, object] = {}
        if self.seed == 0:
            oracle = ReproductionPipeline(legacy_cache=self.oracle_path)
            self.expected = _products(oracle, self.products)

    def prepare(self) -> None:
        from repro.core.experiments.pipeline import run_experiment

        self._run = run_experiment
        pipeline = self.ready(self.seed)
        # Building a descriptor computes (and memoizes) the calibration or
        # baseline it depends on, outside every timed interval.
        self.descriptors = {raw: pipeline.descriptor_for(raw) for raw in self.products}
        # At seed 0 the oracle already fixed every product; at other seeds a
        # baseline operation must reproduce the baseline computed here.
        for raw in ["calibration", *(f"baseline/{app}" for app in pipeline.app_names)]:
            if pipeline.has_product(raw):
                self.expected.setdefault(raw, pipeline.product(raw))

    def pass_ops(self) -> List[object]:
        ops = list(self.products)
        self.rng.shuffle(ops)
        return ops

    def run_op(self, op: object) -> object:
        return self._run(self.descriptors[op])

    def check(self, op: object, output: object) -> bool:
        if isinstance(output, BaseException):
            return False
        return self.expected.setdefault(op, output) == output

    def layer_metrics(self, trace, traced, untraced, pass_walls):
        messages = trace.messages
        per_product: Dict[str, List[float]] = {}
        for op, seconds, _ in untraced:
            per_product.setdefault(str(op), []).append(seconds)
        metrics = {
            "sim.events": trace.events,
            # Every pass runs the same products, so a pass executes exactly
            # the traced pass's events; untraced walls carry no tracing
            # overhead and are at reference speed.
            "sim.events_per_s": trace.events / summary(pass_walls)[1],
            "mpi.messages": messages,
            "mpi.intra_node_share": trace.intra_node / messages,
            "mpi.events_per_msg": trace.events / messages,
            "network.packets": trace.packets,
            "network.packets_per_msg": trace.packets / messages,
        }
        # A kind's products differ in cost, so a median over the kind would be
        # an edge sample between them: sum each product's own median instead.
        for raw, seconds in per_product.items():
            name = f"engine.product_ms.{raw.split('/')[0]}"
            metrics[name] = metrics.get(name, 0.0) + summary(seconds)[1] * 1e3
        return metrics


# Each product list has an odd number of products, and the cost of the middle
# one differs by a factor of at least 1.5 from each neighbour in cost order.
# Host noise of a few tens of percent then never reorders it
# with a neighbour, so the median operation is always that product: its
# median over the passes, not a blend of two products whose cost ratio
# itself drifts with the host.


class SimMPI(SimProducts):
    """MPI-dominated: application baselines and pairs of the small apps."""

    name = "sim-mpi"
    nominal_pass_s = 4.5
    products = (
        "baseline/mcb",
        "pair/mcb/mcb",
        "pair/mcb/lulesh",
        "pair/lulesh/lulesh",
        "baseline/amg",
    )


class SimNetwork(SimProducts):
    """Network-dominated: CompressionB signatures and an mcb degradation from
    the quick catalog (label ``P<partners>xM<messages>xB<sleep cycles>``)."""

    name = "sim-network"
    nominal_pass_s = 4.0
    products = (
        "degradation/mcb/P4xM1xB2.5e+06",
        "comp_sig/P1xM1xB2.5e+05",
        "comp_sig/P17xM1xB2.5e+06",
    )


# ---------------------------------------------------------------------------
# Cold analytic campaign
# ---------------------------------------------------------------------------
#: Products of each campaign checked against a serial ``run_experiment``.
CAMPAIGN_SAMPLE = 12


def _raw_keys(pipeline) -> List[str]:
    """Every product of the evaluation in ``descriptor_for``'s key grammar."""
    apps = pipeline.app_names
    labels = [config.label for config in pipeline.catalog]
    return [
        "calibration",
        "impact/idle",
        *(f"impact/{app}" for app in apps),
        *(f"baseline/{app}" for app in apps),
        *(f"comp_sig/{label}" for label in labels),
        *(f"degradation/{app}/{label}" for app in apps for label in labels),
        *(f"pair/{a}/{b}" for a in apps for b in apps),
    ]


class Campaign(Workload):
    """One operation is a cold, exhaustive, paper-profile analytic campaign
    through ``ensure_all(workers=2)`` into a fresh cache directory."""

    name = "campaign"
    nominal_pass_s = 4.6

    @staticmethod
    def settings(seed: int):
        from repro.core.experiments.pipeline import PipelineSettings

        return PipelineSettings(engine="analytic", seed=seed)

    @staticmethod
    def ready(seed: int):
        from repro.core.experiments.pipeline import ReproductionPipeline

        return ReproductionPipeline(Campaign.settings(seed), legacy_cache=None)

    def prepare_inputs(self) -> None:
        from repro.core.experiments.pipeline import run_experiment

        serial = self.ready(self.seed)
        self.raws = _raw_keys(serial)
        sample = self.rng.sample(self.raws, CAMPAIGN_SAMPLE)
        self.sample = {raw: run_experiment(serial.descriptor_for(raw)) for raw in sample}
        self.reference: Optional[Dict[str, object]] = None
        self.telemetry = False
        self.report: Optional[dict] = None

    def pass_ops(self) -> List[object]:
        return ["campaign"]

    def run_pass(self, ops: Sequence[object]) -> List[Outcome]:
        from repro.core.experiments.pipeline import ReproductionPipeline
        from repro.telemetry import load_report

        outcomes = []
        for op in ops:
            directory = Path(tempfile.mkdtemp(prefix="campaign-", dir=self.scratch))
            pipeline = ReproductionPipeline(
                self.settings(self.seed),
                cache_path=directory,
                legacy_cache=None,
                telemetry=self.telemetry,
            )
            before = Totals.now()
            start = time.perf_counter()
            try:
                stats = pipeline.ensure_all(workers=WORKERS)
                seconds = time.perf_counter() - start
                output = (stats, _products(pipeline, self.raws))
                if self.telemetry:
                    self.report = load_report(stats["telemetry_report"])
            except Exception as exc:
                seconds = time.perf_counter() - start
                traceback.print_exc(file=sys.stderr)
                output = exc
            seconds = since(before, seconds)
            outcomes.append((op, seconds, self.check(op, output)))
            shutil.rmtree(directory)
        return outcomes

    def check(self, op: object, output: object) -> bool:
        if isinstance(output, BaseException):
            return False
        stats, products = output
        if stats["executed"] != len(self.raws) or stats["failed"]:
            return False
        if any(products[raw] != value for raw, value in self.sample.items()):
            return False
        if self.reference is None:
            self.reference = products
        return products == self.reference

    def begin_trace(self) -> None:
        from repro import telemetry

        telemetry.reset()
        self.telemetry = True

    def end_trace(self) -> None:
        from repro import telemetry

        # ensure_all(telemetry=True) switches collection on process-wide.
        telemetry.disable()
        telemetry.reset()
        self.telemetry = False

    def layer_metrics(self, trace, traced, untraced, pass_walls):
        report = self.report
        counters = report["counters"]
        task_seconds = report["histograms"]["runner.task_seconds"]
        elapsed = report["campaign"]["elapsed"]
        workers = report["campaign"]["workers"]
        task_s = task_seconds["sum"]
        metrics = {
            "parallel.tasks": counters["runner.tasks_completed"],
            "parallel.task_s": task_s,
            "parallel.utilization": task_s / (workers * elapsed),
            "parallel.idle_worker_s": workers * elapsed - task_s,
            "parallel.retries": report["campaign"]["retried"],
            "cache.flushes": trace.flushes,
            "cache.flush_s": trace.flush_seconds,
            "cache.write_amplification": trace.flush_bytes / trace.final_shard_bytes,
        }
        for stage, phase in report["phases"].items():
            metrics[f"parallel.stage_s.{stage}"] = phase["wall"]
        spans = report["spans"]["by_name"]
        for kind in PRODUCT_KINDS:
            span = spans.get(f"solve:{kind}")
            if span:
                metrics[f"engine.product_ms.{kind}"] = span["total_s"] / span["count"] * 1e3
        return metrics


# ---------------------------------------------------------------------------
# Prediction serving
# ---------------------------------------------------------------------------
#: Requests in one pass; one in ten is a ``/predict/batch``.
SERVE_BLOCK = 2000
BATCH_SHARE = 10
#: Triples per ``/predict/batch``, each ``[app, other, null]`` (all models),
#: as in the serving load of ``benchmarks/test_perf_serving.py``.
BATCH_TRIPLES = 24
SERVER_LINE = re.compile(r"http://127\.0\.0\.1:(\d+) ")
REQUEST_HISTOGRAMS = tuple(
    f"serving.request_seconds{{endpoint={endpoint}}}" for endpoint in ("/predict", "/predict/batch")
)


def _server_cpu_seconds(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _server_peak_kb(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


class Serve(Workload):
    """Closed loop of two connections against ``repro serve`` on loopback.

    The server is a child process fitted from the committed paper cache
    (``repro serve --model``).  The request shape follows the serving load
    of ``benchmarks/test_perf_serving.py``: single requests are
    ``GET /predict?app=..&other=..`` answered for all models, and one in ten
    is a ``POST /predict/batch`` of 24 ``[app, other, null]`` triples, also
    answered for all models.  Every response is compared with the same
    artifact's :class:`PredictionEngine` in this process.
    """

    name = "serve"
    nominal_pass_s = 4.0

    def prepare_inputs(self) -> None:
        from repro.core.experiments.pipeline import ReproductionPipeline
        from repro.serving import save_artifact

        artifact = ReproductionPipeline(legacy_cache=self.oracle_path).model_artifact()
        self.artifact_path = self.scratch / "model.json"
        save_artifact(artifact, self.artifact_path)
        self.engine = artifact.engine()
        apps = sorted(self.engine.signatures)
        batches = set(self.rng.sample(range(SERVE_BLOCK), SERVE_BLOCK // BATCH_SHARE))
        self.block: List[tuple] = []
        for index in range(SERVE_BLOCK):
            if index in batches:
                pairs = tuple(
                    (self.rng.choice(apps), self.rng.choice(apps)) for _ in range(BATCH_TRIPLES)
                )
                self.block.append(("batch", pairs))
            else:
                self.block.append(("single", self.rng.choice(apps), self.rng.choice(apps)))
        self._expected: Dict[tuple, object] = {}
        self.server: Optional[subprocess.Popen] = None
        self.server_peak_kb = 0
        self.errors = 0
        self._errors_lock = threading.Lock()

    def spawn_ready(self) -> subprocess.Popen:
        log = tempfile.NamedTemporaryFile(
            "w+", prefix="server-", suffix=".log", dir=self.scratch, delete=False
        )
        command = [
            sys.executable, str(HERE / "speed.py"), "-m", "repro", "serve",
            "--model", str(self.artifact_path), "--port", "0",
        ]
        process = subprocess.Popen(
            command, cwd=self.root, env=child_env(self.env()), stdout=subprocess.DEVNULL, stderr=log
        )
        deadline = time.monotonic() + 60.0
        try:
            while (match := SERVER_LINE.search(Path(log.name).read_text())) is None:
                if process.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"server did not start: {Path(log.name).read_text()}")
                time.sleep(0.002)
            process.port = port = int(match.group(1))  # type: ignore[attr-defined]
            while True:
                try:
                    if self._request(port, "GET", "/healthz")[0] == 200:
                        return process
                except OSError:
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError("server never answered /healthz")
                time.sleep(0.002)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            log.close()

    def prepare(self) -> None:
        self.server = self.spawn_ready()

    @staticmethod
    def _request(port: int, method: str, path: str, body: Optional[dict] = None):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            payload = json.dumps(body) if body is not None else None
            connection.request(method, path, body=payload, headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def pass_ops(self) -> List[object]:
        return list(self.block)

    def run_op(self, op: object) -> object:
        port = self.server.port  # type: ignore[union-attr]
        if op[0] == "batch":
            body = {"requests": [[app, other, None] for app, other in op[1]]}
            return self._request(port, "POST", "/predict/batch", body)
        _, app, other = op
        return self._request(port, "GET", "/predict?" + urlencode({"app": app, "other": other}))

    def run_pass(self, ops: Sequence[object]) -> List[Outcome]:
        """Two connections, each sending its next request when the last returns.

        A request lasts about a millisecond, too short for a probe of its
        own, so every request of the pass is rescaled by the probes of the
        client and the server over the whole pass.
        """
        results: List[List[Tuple[object, float, bool]]] = [[] for _ in range(WORKERS)]

        def connection(index: int) -> None:
            results[index] = [(op, *self.timed(op)) for op in ops[index::WORKERS]]

        # Daemon threads: a termination request must not wait for a stream.
        helpers = [
            threading.Thread(target=connection, args=(i,), daemon=True) for i in range(1, WORKERS)
        ]
        before = Totals.now()
        for helper in helpers:
            helper.start()
        # The main thread is one of the connections, so the stack sampler and
        # the speed probe see client work rather than a join.
        connection(0)
        for helper in helpers:
            helper.join()
        factor = since(before, 1.0)  # reference seconds per host second
        return [(op, seconds * factor, correct) for stream in results for op, seconds, correct in stream]

    def expected(self, op: tuple) -> object:
        # Called from both connections; a race only computes a value twice.
        if op not in self._expected:
            engine = self.engine
            if op[0] == "batch":
                self._expected[op] = [
                    {"app": app, "other": other, "model": model,
                     "predicted": engine.predict(app, other, model)}
                    for app, other in op[1]
                    for model in engine.model_names
                ]
            else:
                _, app, other = op
                self._expected[op] = {
                    model: engine.predict(app, other, model) for model in engine.model_names
                }
        return self._expected[op]

    def check(self, op: object, output: object) -> bool:
        if isinstance(output, BaseException) or output[0] != 200:
            with self._errors_lock:
                self.errors += 1
            return False
        return output[1]["predictions"] == self.expected(op)

    def _server_state(self) -> Tuple[dict, float]:
        """The server's ``GET /metrics`` document and its CPU seconds so far."""
        status, document = self._request(self.server.port, "GET", "/metrics")  # type: ignore[union-attr]
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return document, _server_cpu_seconds(self.server.pid)  # type: ignore[union-attr]

    def begin_trace(self) -> None:
        self._before = self._server_state()

    def end_trace(self) -> None:
        self._after = self._server_state()

    def layer_metrics(self, trace, traced, untraced, pass_walls):
        from repro.telemetry import histogram_percentile

        (before, cpu_before), (after, cpu_after) = self._before, self._after
        count, total, buckets = 0, 0.0, {}
        for key in REQUEST_HISTOGRAMS:
            old, new = before["histograms"].get(key, {}), after["histograms"][key]
            count += new["count"] - old.get("count", 0)
            total += new["sum"] - old.get("sum", 0.0)
            for label, added in histogram_delta(new["buckets"], old.get("buckets", {})).items():
                buckets[label] = buckets.get(label, 0) + added
        if count != len(traced):
            raise RuntimeError(f"server recorded {count} requests, the traced pass sent {len(traced)}")
        # Exact means from the histograms' sums; the buckets only bound the tail.
        server_mean = total / count * 1e3
        client_mean = sum(seconds for _, seconds, _ in traced) / len(traced) * 1e3
        predict_us, batch_us = [], []
        for op, _, _ in traced:
            pairs = op[1] if op[0] == "batch" else [op[1:]]
            triples = [(a, o, m) for a, o in pairs for m in self.engine.model_names]
            start = time.perf_counter()
            self.engine.predict_batch(triples)
            elapsed = (time.perf_counter() - start) * 1e6
            if op[0] == "batch":
                batch_us.append(elapsed / len(triples))
            else:
                predict_us.append(elapsed)
        return {
            "models.predict_us": summary(predict_us)[1],
            "models.batch_us_per_triple": summary(batch_us)[1],
            "serving.server_ms.mean": server_mean,
            "serving.server_ms.p99": histogram_percentile({"buckets": buckets}, 0.99) * 1e3,
            "serving.transport_ms.mean": client_mean - server_mean,
            "serving.cpu_ms_per_req": (cpu_after - cpu_before) * 1e3 / len(traced),
            "serving.errors": self.errors,
            "serving.client_ms.p99": tail([s for _, s, _ in untraced], 0.99) * 1e3,
        }

    def peak_rss_kb(self) -> int:
        """The server's own peak: the program under test runs there."""
        return self.server_peak_kb

    def close(self) -> None:
        if self.server is not None:
            if self.server.poll() is None:
                self.server_peak_kb = _server_peak_kb(self.server.pid)
            stop(self.server)
            self.server = None


WORKLOADS = {cls.name: cls for cls in (SimMPI, SimNetwork, Campaign, Serve)}
