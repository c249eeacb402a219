"""Exact kernel-event counts per MPI message.

The packet simulator's cost is per-message Python work, and most of it is
per kernel event.  These counts are deterministic, so a change that adds an
event to the message path fails here instead of only showing up as a slower
benchmark.
"""

import pytest

from repro.cluster import Machine, PerSocketPlacement, small_test_config
from repro.mpi import MPIWorld

#: small_test_config has 4 nodes of 2 sockets; one rank per socket puts
#: ranks 0 and 1 on node 0 and rank 2 on node 1.
RANKS = 8
INTRA_PEER = 1
INTER_PEER = 2

#: Every run: one start-up resume per rank, plus the single fire event of
#: ``Job.done`` (its children are counted as they terminate).
LAUNCH_EVENTS = RANKS + 1

#: Shared-memory message: one completion entry (send completion, then
#: delivery), the sender's resume and the receiver's resume.
INTRA_EVENTS_PER_MESSAGE = 3

#: Fabric message: NIC serialization, NIC-to-switch handoff, switch port
#: service, egress delivery, the sender's resume and the receiver's resume.
INTER_EVENTS_PER_MESSAGE = 6


def _events(workload):
    machine = Machine(small_test_config())
    world = MPIWorld.create(machine, PerSocketPlacement(1), name="count")
    assert world.size == RANKS
    assert world.node_of(INTRA_PEER) == world.node_of(0) != world.node_of(INTER_PEER)
    job = world.launch(workload)
    machine.sim.run_until_event(job.done)
    return machine.sim.counters()["kernel.events"]


def _ping_pong(peer, rounds):
    def workload(ctx):
        if ctx.rank == 0:
            for _ in range(rounds):
                yield from ctx.comm.send(peer, 1024)
                yield from ctx.comm.recv(peer)
        elif ctx.rank == peer:
            for _ in range(rounds):
                yield from ctx.comm.recv(0)
                yield from ctx.comm.send(0, 1024)
        return None
        yield

    return workload


def _waitall(peer, n):
    def workload(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.waitall(
                [ctx.comm.isend(peer, 1024, tag=i) for i in range(n)]
            )
        elif ctx.rank == peer:
            yield from ctx.comm.waitall([ctx.comm.irecv(0, tag=i) for i in range(n)])
        return None
        yield

    return workload


@pytest.mark.parametrize("rounds", [1, 10])
def test_intra_node_ping_pong_events(rounds):
    messages = 2 * rounds
    assert _events(_ping_pong(INTRA_PEER, rounds)) == (
        LAUNCH_EVENTS + INTRA_EVENTS_PER_MESSAGE * messages
    )


@pytest.mark.parametrize("rounds", [1, 10])
def test_inter_node_ping_pong_events(rounds):
    messages = 2 * rounds
    assert _events(_ping_pong(INTER_PEER, rounds)) == (
        LAUNCH_EVENTS + INTER_EVENTS_PER_MESSAGE * messages
    )


@pytest.mark.parametrize("n", [1, 8])
def test_waitall_events(n):
    # Each message's completion entry, then per side one fire event for
    # the composite and one resume: no event per completed request.
    assert _events(_waitall(INTRA_PEER, n)) == LAUNCH_EVENTS + n + 2 * 2
    # Across the fabric, the resumes folded into each message's count are
    # replaced by the two sides' fire + resume pairs.
    assert _events(_waitall(INTER_PEER, n)) == (
        LAUNCH_EVENTS + (INTER_EVENTS_PER_MESSAGE - 2) * n + 2 * 2
    )
