"""Host-speed probe: rescales host time to the reference host's speed.

On the reference host (a 2-vCPU virtual machine shared with other tenants)
each vCPU switches, every few seconds and independently of the other,
between a fast and a slow mode 1.6-2x apart.  CPU time slows down with wall
time, so neither is steady from one run to the next: one packet-sim product
re-run for four minutes in one process had a quartile spread of 27-45% of
its median.

A process that calls :func:`install` runs :func:`probe`, a fixed pure-Python
loop of about 0.2 ms, after each :data:`PERIOD` of its own CPU time (a
``SIGPROF`` handler in its main thread), so the probe runs on whichever vCPU
is doing the process's work at that moment.  Each probe adds
``REFERENCE_S / seconds`` to its process's speed total: 1.0 in the reference
host's fast mode, about 0.55 in its slow one.  :func:`since` turns host
seconds into seconds at reference speed::

    host_seconds * (1 - probe_share) * mean_speed

Over the same kind of four-minute re-runs this left a quartile spread of
4-10% for products of 0.3 s or more (15% for one of 0.1 s, which sees few
probes).  A faster program still shows as faster:
the probe is the benchmark's code, not the program's.

The totals live in a small file-backed shared map, one slot per process:
the benchmark process, every child it forks (pool workers inherit the probe
through :func:`os.register_at_fork`), and every child it starts with
:func:`child_env` that calls :func:`install_from_env` (set-up spawns and the
prediction server, through ``python3 repobench/speed.py -m repro ...``).
"""

from __future__ import annotations

import atexit
import heapq
import mmap
import os
import runpy
import signal
import struct
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

#: CPU seconds of a process between two of its probes.
PERIOD = 0.01
#: Seconds :func:`probe` takes in the fast mode of the reference host (about
#: the 5th percentile of probes timed back to back there, 0.16-0.18 ms).
REFERENCE_S = 0.00018
#: Processes that can hold a slot; later ones share the last slot.
SLOTS = 1024
#: One slot: probes run, sum of ``REFERENCE_S / seconds``, sum of seconds.
SLOT = struct.Struct("ddd")
ALL_SLOTS = struct.Struct(f"{3 * SLOTS}d")
ENV = "REPOBENCH_SPEED"

_map: Optional[mmap.mmap] = None
_path: Optional[Path] = None
_slot = 0
_next_slot = 1
_fork_slot = 0
_active = False
_hooked = False


class _Item:
    __slots__ = ("time", "key")

    def __init__(self, time: int, key: int) -> None:
        self.time, self.key = time, key


def probe() -> Dict[int, int]:
    """A fixed event-loop-shaped workload: heap pushes and pops of small
    objects and dictionary updates, the mix the simulators run."""
    heap: List[tuple] = []
    totals: Dict[int, int] = {}
    for index in range(200):
        heapq.heappush(heap, (index * 7919 % 97, index, _Item(index, index & 31)))
    while heap:
        when, _, item = heapq.heappop(heap)
        totals[item.key] = totals.get(item.key, 0) + when
    return totals


def _on_timer(signum, frame) -> None:
    # CPU time of this thread, so a probe the scheduler preempts is not
    # mistaken for a slow host.
    start = time.thread_time()
    probe()
    seconds = time.thread_time() - start
    offset = _slot * SLOT.size
    count, speed, spent = SLOT.unpack_from(_map, offset)
    SLOT.pack_into(_map, offset, count + 1, speed + REFERENCE_S / seconds, spent + seconds)


def _start() -> None:
    signal.signal(signal.SIGPROF, _on_timer)
    signal.setitimer(signal.ITIMER_PROF, PERIOD, PERIOD)


def _before_fork() -> None:
    global _fork_slot, _next_slot
    _fork_slot = min(_next_slot, SLOTS - 1)
    _next_slot += 1


def _after_fork_in_child() -> None:
    global _slot, _next_slot
    _slot = _fork_slot
    _next_slot = SLOTS  # a grandchild shares the last slot
    if _active:
        _start()


def _attach(path: Path, slot: int) -> None:
    global _map, _path, _slot, _next_slot, _hooked
    with open(path, "r+b") as handle:
        _map = mmap.mmap(handle.fileno(), ALL_SLOTS.size)
    _path = path
    _slot = slot
    # Only the process owning slot 0 hands out slots.
    _next_slot = 1 if slot == 0 else SLOTS
    if not _hooked:
        os.register_at_fork(before=_before_fork, after_in_child=_after_fork_in_child)
        # Interpreter shutdown restores the default SIGPROF action, which
        # would kill the process: stop the timer first.
        atexit.register(pause)
        _hooked = True


def install(path: Path) -> None:
    """Create the shared totals at ``path`` and probe this process (slot 0)."""
    path.write_bytes(bytes(ALL_SLOTS.size))
    _attach(path, 0)
    resume()


def install_from_env() -> None:
    """Probe this process if its parent passed a slot through :func:`child_env`."""
    value = os.environ.pop(ENV, None)
    if value:
        path, slot = value.rsplit(":", 1)
        _attach(Path(path), int(slot))
        resume()


def child_env(env: Dict[str, str]) -> Dict[str, str]:
    """``env`` plus a fresh slot of this process's totals for a started child."""
    global _next_slot
    if _path is None:
        return env
    slot = min(_next_slot, SLOTS - 1)
    _next_slot += 1
    return dict(env, **{ENV: f"{_path}:{slot}"})


def pause() -> None:
    """Stop probing this process and the children it forks from now on."""
    global _active
    _active = False
    signal.setitimer(signal.ITIMER_PROF, 0, 0)


def resume() -> None:
    global _active
    _active = True
    _start()


class Totals:
    """Probe totals over every slot at one moment; subtract two to get an
    interval's."""

    def __init__(self, count: float = 0.0, speed: float = 0.0, spent: float = 0.0) -> None:
        self.count, self.speed, self.spent = count, speed, spent

    @classmethod
    def now(cls) -> "Totals":
        if _map is None:
            return cls()
        values = ALL_SLOTS.unpack_from(_map)
        return cls(sum(values[0::3]), sum(values[1::3]), sum(values[2::3]))

    def __sub__(self, other: "Totals") -> "Totals":
        return Totals(self.count - other.count, self.speed - other.speed, self.spent - other.spent)

    def factor(self) -> float:
        """Reference seconds per host second over this interval."""
        if self.count < 1:
            raise RuntimeError("no speed probe ran in the interval")
        probe_share = self.spent / (self.count * PERIOD)
        return (1.0 - probe_share) * (self.speed / self.count)


def since(before: Totals, host_seconds: float) -> float:
    """``host_seconds`` that ended now, begun at the totals ``before``, at the
    reference host's speed; unchanged while this process is not probed."""
    if not _active:
        return host_seconds
    return host_seconds * (Totals.now() - before).factor()


def main() -> None:
    """``python3 speed.py -m module args...``: run a module under the probe."""
    if len(sys.argv) < 3 or sys.argv[1] != "-m":
        raise SystemExit("usage: speed.py -m module [args...]")
    install_from_env()
    module = sys.argv[2]
    sys.argv = [module, *sys.argv[3:]]
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
