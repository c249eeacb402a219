"""Events-per-second microbenchmark of the kernel + switch hot path.

Measures the rates every campaign minute ultimately hangs on — raw kernel
callback throughput, packets served through the output-queued switch
(stochastic overhead draws included, i.e. the real hot path), and MPI
messages through the whole stack with the kernel events each one costs —
and writes them to ``BENCH_kernel.json`` in the artifact directory so CI
runs can be compared over time.
"""

import json
import time

from repro.cluster import Machine, PerSocketPlacement, small_test_config
from repro.mpi import MPIWorld
from repro.network import OutputQueuedSwitch
from repro.network.packet import Packet
from repro.network.service_time import default_port_overhead
from repro.sim import RandomStreams, Simulator

KERNEL_EVENTS = 200_000
SWITCH_PACKETS = 100_000
PORTS = 18
FLOWS = 64
MPI_ROUNDS = 2_000


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _kernel_rate():
    sim = Simulator()

    def chain(remaining):
        if remaining:
            sim.schedule(1e-6, chain, remaining - 1)

    sim.schedule(0.0, chain, KERNEL_EVENTS)
    executed, elapsed = _time(lambda: (sim.run(), sim.events_executed)[1])
    return executed, executed / elapsed


def _switch_rate():
    sim = Simulator()
    switch = OutputQueuedSwitch(
        sim,
        port_bandwidth=5e9,
        overhead_model=default_port_overhead(),
        rng=RandomStreams(0).stream("svc"),
        egress_latency=2.5e-7,
    )
    for port in range(PORTS):
        switch.attach_endpoint(port, lambda packet: None)
    for index in range(SWITCH_PACKETS):
        switch.arrive(
            Packet(index, 0, True, 2048, 0, index % PORTS, flow=index % FLOWS)
        )
    served, elapsed = _time(lambda: (sim.run(), switch.stats.served)[1])
    stats = {
        "busy_seconds": switch.stats.busy_time,
        "mean_wait": switch.stats.wait_sum / max(1, switch.stats.served),
        "queue_peak": switch.stats.queue_peak,
        "kernel_events": sim.events_executed,
    }
    return served, served / elapsed, stats


def _mpi_rate():
    """Ring exchange of small messages: both neighbours, every round.

    One rank per socket puts half of each rank's messages on its own node
    (the shared-memory path) and half across the fabric.
    """
    machine = Machine(small_test_config())
    world = MPIWorld.create(machine, PerSocketPlacement(1), name="ring")

    def ring(ctx):
        comm, size = ctx.comm, ctx.size
        right, left = (ctx.rank + 1) % size, (ctx.rank - 1) % size
        for step in range(MPI_ROUNDS):
            yield from comm.waitall(
                [
                    comm.irecv(left, tag=step),
                    comm.irecv(right, tag=step),
                    comm.isend(right, 1024, tag=step),
                    comm.isend(left, 1024, tag=step),
                ]
            )

    job = world.launch(ring)
    _, elapsed = _time(lambda: machine.sim.run_until_event(job.done))
    counters = machine.sim.counters()
    messages = int(counters["network.messages"])
    return {
        "messages": messages,
        "events": int(counters["kernel.events"]),
        "events_per_message": round(counters["kernel.events"] / messages, 3),
        "messages_per_second": round(messages / elapsed),
    }


def test_perf_kernel_and_switch_events_per_second(artifact_dir):
    kernel_events, kernel_rate = _kernel_rate()
    switch_served, switch_rate, stats = _switch_rate()
    mpi = _mpi_rate()

    assert kernel_events == KERNEL_EVENTS + 1
    assert switch_served == SWITCH_PACKETS
    # Loose floor: one should never dip below ~50k events/s even on a
    # loaded CI machine; the real signal is the trend in the artifact.
    assert kernel_rate > 50_000
    assert switch_rate > 10_000

    payload = {
        "kernel": {
            "events": kernel_events,
            "events_per_second": round(kernel_rate),
        },
        "switch": {
            "packets": switch_served,
            "packets_per_second": round(switch_rate),
            "ports": PORTS,
            "flows": FLOWS,
            "stats": stats,
        },
        "mpi": mpi,
    }
    path = artifact_dir / "BENCH_kernel.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nkernel {payload['kernel']['events_per_second']:,} events/s · "
        f"switch {payload['switch']['packets_per_second']:,} packets/s · "
        f"mpi {mpi['messages_per_second']:,} messages/s at "
        f"{mpi['events_per_message']} events/message\n"
        f"[artifact saved to {path}]"
    )
