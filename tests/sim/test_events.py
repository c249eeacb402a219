"""Tests for SimEvent / AllOf semantics."""

import functools
import hashlib
import math
import random

import pytest

from repro.errors import SimulationError
from repro.sim import RandomStreams, SimEvent, Simulator


def test_event_initially_untriggered():
    sim = Simulator()
    event = sim.event("e")
    assert not event.triggered
    assert math.isnan(event.trigger_time)


def test_succeed_sets_value_and_time():
    sim = Simulator()
    event = sim.event("e")
    sim.schedule(3.0, event.succeed, "payload")
    sim.run()
    assert event.triggered
    assert event.value == "payload"
    assert event.trigger_time == 3.0


def test_double_succeed_raises():
    sim = Simulator()
    event = sim.event("e")
    event.succeed()
    with pytest.raises(SimulationError, match="twice"):
        event.succeed()


def test_callbacks_fire_in_registration_order():
    sim = Simulator()
    event = sim.event("e")
    hits = []
    event.on_trigger(lambda e: hits.append(1))
    event.on_trigger(lambda e: hits.append(2))
    event.succeed()
    sim.run()
    assert hits == [1, 2]


def test_callback_registered_after_trigger_still_fires():
    sim = Simulator()
    event = sim.event("e")
    event.succeed("v")
    hits = []
    event.on_trigger(lambda e: hits.append(e.value))
    sim.run()
    assert hits == ["v"]


def test_callbacks_run_asynchronously_not_inline():
    """succeed() must not call callbacks synchronously (determinism)."""
    sim = Simulator()
    event = sim.event("e")
    hits = []
    event.on_trigger(lambda e: hits.append("cb"))
    event.succeed()
    assert hits == []  # nothing until the kernel runs
    sim.run()
    assert hits == ["cb"]


def test_all_of_fires_after_every_child():
    sim = Simulator()
    kids = [sim.event(f"k{i}") for i in range(3)]
    combo = sim.all_of(kids)
    sim.schedule(1.0, kids[2].succeed, "c")
    sim.schedule(2.0, kids[0].succeed, "a")
    sim.schedule(3.0, kids[1].succeed, "b")
    sim.run()
    assert combo.triggered
    assert combo.trigger_time == 3.0
    assert combo.value == ["a", "b", "c"]  # child order, not trigger order


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    combo = sim.all_of([])
    assert combo.triggered
    assert combo.value == []


def test_all_of_with_pretriggered_children():
    sim = Simulator()
    kids = [sim.event("k0"), sim.event("k1")]
    kids[0].succeed("x")
    combo = sim.all_of(kids)
    sim.schedule(1.0, kids[1].succeed, "y")
    sim.run()
    assert combo.triggered
    assert combo.value == ["x", "y"]


# ----------------------------------------------------------------------
# Event order: AllOf counts children at dispatch, not through events
# ----------------------------------------------------------------------
class ReferenceAllOf(SimEvent):
    """The one-event-per-child AllOf: every child trigger schedules a
    callback that decrements the count, and the last one fires."""

    def __init__(self, sim, events, name=""):
        super().__init__(sim, name or "all_of")
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for child in self._children:
            child.on_trigger(self._child_done)

    def _child_done(self, _event):
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.succeed([child.value for child in self._children])


def _simulator(reference):
    sim = Simulator()
    if reference:
        sim.all_of = functools.partial(ReferenceAllOf, sim)
    return sim


def _random_scenario(seed, reference):
    """A random web of events, nested AllOfs, waiters and same-time ties.

    Returns the full callback trace ``(time, label)`` and the number of
    kernel events executed.
    """
    rng = random.Random(seed)
    sim = _simulator(reference)
    trace = []

    def note(label):
        trace.append((sim.now, label))

    def bystander(label):
        def callback(event):
            note(f"{label}:{event.value!r}")
            if rng.random() < 0.5:
                sim.schedule(0.0, note, f"{label}:follow")

        return callback

    leaves = [sim.event(f"leaf{i}") for i in range(6)]
    for index, leaf in enumerate(leaves):
        if rng.random() < 0.3:
            leaf.succeed(f"pre{index}")  # already fired when composites form
        else:
            sim.schedule(rng.choice([0.0, 1.0, 1.0, 2.0]), leaf.succeed, f"v{index}")
    pool = list(leaves)
    for index in range(5):
        children = rng.sample(pool, rng.randint(1, 3))
        composite = sim.all_of(children, name=f"all{index}")
        pool.append(composite)  # later composites may nest earlier ones
    for index, event in enumerate(pool):
        for hook in range(rng.randint(0, 2)):
            event.on_trigger(bystander(f"{event.name}.cb{hook}"))

    def waiter(number):
        for step in range(3):
            choice = rng.random()
            if choice < 0.6:
                target = rng.choice(pool)
                value = yield target
                note(f"p{number}.{step} woke on {target.name}={value!r}")
            else:
                yield rng.choice([0.0, 1.0])
                note(f"p{number}.{step} slept")

    processes = [sim.spawn(waiter(number), name=f"p{number}") for number in range(3)]

    def late():
        # Built mid-run over children that may all have fired already,
        # nesting the processes' terminated events (a Job.done shape).
        fired = [event for event in pool if event.triggered]
        combo = sim.all_of(fired + [rng.choice(pool)], name="late")
        note(f"late triggered at construction: {combo.triggered}")
        combo.on_trigger(bystander("late"))
        job = sim.all_of([p.terminated for p in processes], name="job.done")
        outer = sim.all_of([job, combo], name="outer")
        outer.on_trigger(bystander("outer"))

    sim.schedule(1.0, late)
    sim.run()
    return trace, sim.events_executed


@pytest.mark.parametrize("seed", range(40))
def test_all_of_callback_trace_matches_one_event_per_child(seed):
    trace, events = _random_scenario(seed, reference=False)
    reference_trace, reference_events = _random_scenario(seed, reference=True)
    assert trace == reference_trace
    assert events <= reference_events


def test_all_of_saves_all_but_one_event_per_child():
    counts = []
    for reference in (False, True):
        sim = _simulator(reference)
        kids = [sim.event(f"k{i}") for i in range(5)]
        sim.all_of(kids)
        for kid in kids:
            sim.schedule(1.0, kid.succeed)
        sim.run()
        counts.append(sim.events_executed)
    assert counts == [5 + 1, 5 + 5]


def test_all_of_over_fired_children_is_untriggered_at_construction():
    # Comm.waitall records a tracer "wait" interval only for an untriggered
    # composite; completed requests must still go through the kernel.
    sim = Simulator()
    kids = [sim.event("a"), sim.event("b")]
    kids[0].succeed(1)
    kids[1].succeed(2)
    sim.run()
    combo = sim.all_of(kids)
    assert not combo.triggered
    sim.run()
    assert combo.triggered
    assert combo.value == [1, 2]


def _mpi_trace(reference):
    """Two co-running jobs of intra- and inter-node point-to-point traffic,
    waitalls and collectives; every rank notes each completed operation."""
    from repro.cluster import Machine, PerSocketPlacement, small_test_config
    from repro.mpi import MPIWorld

    machine = Machine(small_test_config())
    if reference:
        machine.sim.all_of = functools.partial(ReferenceAllOf, machine.sim)
    trace = []

    def workload(ctx):
        comm, size = ctx.comm, ctx.size
        for round_ in range(3):
            right, left = (ctx.rank + 1) % size, (ctx.rank - 1) % size
            requests = [comm.irecv(left, tag=round_), comm.irecv(right, tag=round_)]
            requests += [
                comm.isend(right, 1024 * (round_ + 1), tag=round_),
                comm.isend(left, 64, tag=round_),
            ]
            yield from comm.waitall(requests)
            trace.append((ctx.now, ctx.world.name, ctx.rank, "ring", round_))
            partner = ctx.rank ^ 1
            if partner < size:
                yield from comm.sendrecv(partner, 512, partner, tag=10 + round_)
                trace.append((ctx.now, ctx.world.name, ctx.rank, "pair", round_))
            total = yield from comm.allreduce(ctx.rank, 8)
            trace.append((ctx.now, ctx.world.name, ctx.rank, "allreduce", total))
            yield from ctx.compute(1e-6 * (ctx.rank + 1))
        return ctx.rank

    jobs = []
    for name in ("a", "b"):
        world = MPIWorld.create(machine, PerSocketPlacement(1), name=name)
        jobs.append(world.launch(workload))
    done = machine.sim.all_of([job.done for job in jobs], name="measured.done")
    machine.sim.run_until_event(done)
    trace.append(tuple(job.finished_at for job in jobs))
    return trace


def test_mpi_job_trace_matches_one_event_per_child_all_of():
    assert _mpi_trace(reference=False) == _mpi_trace(reference=True)


# ----------------------------------------------------------------------
# Event order: the shared-memory path is one kernel entry
# ----------------------------------------------------------------------
def test_intra_node_sent_and_delivered_run_back_to_back():
    from repro.config import NetworkConfig
    from repro.network import InterconnectNetwork

    sim = Simulator()
    config = NetworkConfig()
    net = InterconnectNetwork.single_switch(sim, 2, config, RandomStreams(0))
    order = []
    nbytes = 4096
    delay = config.local_latency + nbytes / config.local_bandwidth

    def on_sent():
        order.append("sent")
        sim.schedule(0.0, order.append, "sent.follow-up")

    net.send(1, 1, nbytes, on_delivered=order.append, on_sent=on_sent,
             delivered_args=("delivered",))
    sim.schedule(delay, order.append, "scheduled after the send")
    sim.run()
    assert order == ["sent", "delivered", "scheduled after the send", "sent.follow-up"]
    assert sim.events_executed == 3


# ----------------------------------------------------------------------
# Event order: the full dispatch sequence of a small MPI run is pinned
# ----------------------------------------------------------------------
#: Callbacks the kernel dispatched in the run below, and the SHA-256 of
#: their sequence.  The golden products barely see same-instant ordering
#: (reversing an event's callback order, or completing a shared-memory send
#: after its delivery, leaves them unchanged), so this digest is what pins
#: it.  A change that reorders any callback must explain itself here.
DISPATCH_COUNT = 371
DISPATCH_DIGEST = "5bcd119d3227ad4e5f0f2aa1e69fb4e0df0b2c9ac6f1ecdde88bc51952250168"


def _label(fn):
    """A callable's qualified name, tagged with its owner's name or rank."""
    owner = getattr(fn, "__self__", None)
    tag = getattr(owner, "name", None) or getattr(owner, "rank", "")
    return f"{getattr(fn, '__qualname__', type(fn).__name__)}[{tag}]"


def _dispatch_sequence():
    """Two co-running jobs exchanging one-packet messages around a ring.

    With one rank per socket, ring neighbours alternate between the same
    node (shared memory) and the next node (fabric).  Each round a rank
    sends right with a blocking send and finishes the rest with a
    ``waitall``, while a second thread also waits on the receive from the
    left: a message's send completion and its delivery both wake a thread,
    and the left receive has two waiters.  Returns one line per dispatched
    callback: its time, its label, and the labels of the callables it was
    handed.
    """
    from repro.cluster import Machine, PerSocketPlacement, small_test_config
    from repro.mpi import MPIWorld

    def ring(ctx):
        comm, size = ctx.comm, ctx.size
        right, left = (ctx.rank + 1) % size, (ctx.rank - 1) % size
        for round_ in range(2):
            from_left = comm.irecv(left, tag=round_)
            watcher = comm.sim.spawn(
                comm.wait(from_left), name=f"{ctx.world.name}.w{ctx.rank}"
            )
            yield from comm.send(right, 1024, tag=round_)
            yield from comm.waitall(
                [from_left, comm.irecv(right, tag=round_), comm.isend(left, 256, tag=round_)]
            )
            yield watcher
        return ctx.rank

    machine = Machine(small_test_config())
    sim = machine.sim
    jobs = [
        MPIWorld.create(machine, PerSocketPlacement(1), name=name).launch(ring)
        for name in ("a", "b")
    ]
    done = sim.all_of([job.done for job in jobs])
    lines = []
    while not done.triggered:
        time, _seq, fn, args = sim._heap[0]
        handed = ", ".join(_label(arg) for arg in args if callable(arg))
        lines.append(f"{time!r} {_label(fn)}({handed})")
        sim.step()
    return lines


def test_mpi_dispatch_sequence_is_pinned():
    lines = _dispatch_sequence()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (DISPATCH_COUNT, DISPATCH_DIGEST)
