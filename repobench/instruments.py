"""Per-layer instruments, installed from outside the program for one traced pass.

Nothing under ``src/`` is edited.  :class:`LayerTrace` patches three public
methods for the duration of a ``with`` block and restores them on exit:

* ``Machine.__init__`` records every machine built, so the pass can harvest
  each simulator's own counters (``Simulator.counters()``) after it ran;
* ``InterconnectNetwork.send`` counts MPI messages and how many stay on one
  node (``src == dst``, the shared-memory path);
* ``ShardedCache.flush`` counts shard flushes, their host time and the bytes
  each flush of a named group wrote.

A stdlib sampling thread bins the main thread's innermost frame by ``repro``
subpackage to give each layer's share of self time.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

#: Subpackages of ``repro`` reported as layers of the packet simulator.
SIM_LAYERS = ("sim", "mpi", "network", "workloads")

#: Seconds between stack samples.
SAMPLE_INTERVAL = 0.001


class StackSampler:
    """Samples the main thread's innermost frame and bins it by subpackage.

    A frame inside ``<src>/repro/<sub>/`` counts for ``<sub>``; one inside
    ``repro`` but in no listed layer counts as ``repro``; anything else
    (stdlib, NumPy, the benchmark itself) counts as ``other``.  Time spent in
    a builtin is charged to the Python frame that called it.
    """

    def __init__(self, package_dir: Path) -> None:
        self._prefix = str(package_dir) + os.sep
        self._layers: Dict[str, str] = {}
        self.samples: Counter = Counter()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="stack-sampler", daemon=True)
        self._target = threading.main_thread().ident

    def _layer(self, filename: str) -> str:
        layer = self._layers.get(filename)
        if layer is None:
            if filename.startswith(self._prefix):
                sub = filename[len(self._prefix):].split(os.sep, 1)[0]
                layer = sub if sub in SIM_LAYERS else "repro"
            else:
                layer = "other"
            self._layers[filename] = layer
        return layer

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL):
            frame = sys._current_frames().get(self._target)
            if frame is not None:
                self.samples[self._layer(frame.f_code.co_filename)] += 1

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def share(self, layer: str) -> float:
        total = sum(self.samples.values())
        return self.samples[layer] / total if total else 0.0


class LayerTrace:
    """Counts and self-time shares of one pass, measured from outside.

    Use as a context manager around exactly the work to attribute; read the
    attributes after the block exits.
    """

    def __init__(self, package_dir: Path) -> None:
        from repro.cluster import Machine
        from repro.core.experiments.cache import ShardedCache
        from repro.network.network import InterconnectNetwork

        self._targets = (
            (Machine, "__init__", self._wrap_machine_init),
            (InterconnectNetwork, "send", self._wrap_send),
            (ShardedCache, "flush", self._wrap_flush),
        )
        self._originals: List[tuple] = []
        self._machines: List[object] = []
        self.sampler = StackSampler(package_dir)
        self.messages = 0
        self.intra_node = 0
        self.flushes = 0
        self.flush_seconds = 0.0
        self.flush_bytes = 0
        self._shard_bytes: Dict[Path, int] = {}
        self.counters: Counter = Counter()

    # -- wrappers -----------------------------------------------------------
    def _wrap_machine_init(self, original):
        machines = self._machines

        def __init__(machine, *args, **kwargs):
            original(machine, *args, **kwargs)
            machines.append(machine)

        return __init__

    def _wrap_send(self, original):
        trace = self

        def send(network, src_node, dst_node, *args, **kwargs):
            trace.messages += 1
            if src_node == dst_node:
                trace.intra_node += 1
            return original(network, src_node, dst_node, *args, **kwargs)

        return send

    def _wrap_flush(self, original):
        trace = self

        def flush(cache, group=None):
            start = time.perf_counter()
            result = original(cache, group)
            trace.flush_seconds += time.perf_counter() - start
            trace.flushes += 1
            # Campaigns flush one named group per stored product; a flush of
            # every dirty group (legacy migration) is counted without bytes.
            if cache.directory is not None and group is not None:
                path = cache.shard_path(group)
                if path.is_file():
                    size = path.stat().st_size
                    trace.flush_bytes += size
                    trace._shard_bytes[path] = size
            return result

        return flush

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "LayerTrace":
        for owner, attribute, wrap in self._targets:
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, wrap(original))
        self.sampler.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.sampler.stop()
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()
        for machine in self._machines:
            self.counters.update(machine.sim.counters())
        self._machines.clear()

    # -- derived counts -----------------------------------------------------
    @property
    def events(self) -> int:
        return int(self.counters["kernel.events"])

    @property
    def final_shard_bytes(self) -> int:
        """Size of every flushed shard as its last flush left it."""
        return sum(self._shard_bytes.values())

    @property
    def packets(self) -> int:
        """Packets served by every switch of every machine built."""
        return int(
            sum(
                value
                for name, value in self.counters.items()
                if name.startswith("switch") and name.endswith(".served")
            )
        )
