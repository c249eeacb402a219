"""Triggerable events for the discrete-event simulator.

A :class:`SimEvent` is a one-shot condition that simulated processes can wait
on by ``yield``-ing it.  Events are triggered exactly once via
:meth:`SimEvent.succeed`; callbacks registered before or after the trigger all
fire in deterministic order at the simulated instant of the trigger.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator

__all__ = ["SimEvent", "AllOf"]

#: A waiter: called as ``callback(event)`` at the trigger instant.  An
#: event's callback list may also hold :class:`AllOf` parents, which count
#: the trigger at dispatch time instead (see :class:`AllOf`).
Callback = Callable[["SimEvent"], None]


class SimEvent:
    """A one-shot triggerable condition bound to a simulator.

    Processes wait on an event with ``value = yield event``.  The value passed
    to :meth:`succeed` is delivered to every waiter.
    """

    __slots__ = ("sim", "name", "value", "_callbacks", "_triggered", "_trigger_time")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.value: Any = None
        self._callbacks: Optional[List[Callback]] = []
        self._triggered = False
        self._trigger_time: float = float("nan")

    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` has been called."""
        return self._triggered

    @property
    def trigger_time(self) -> float:
        """Simulated time at which the event fired (NaN if untriggered)."""
        return self._trigger_time

    def on_trigger(self, callback: Callback) -> None:
        """Register ``callback(event)``.

        If the event already fired, the callback is scheduled to run at the
        current simulated time (still asynchronously, preserving determinism).
        """
        if self._triggered:
            self.sim.schedule(0.0, callback, self)
        else:
            assert self._callbacks is not None
            self._callbacks.append(callback)

    def succeed(self, value: Any = None) -> "SimEvent":
        """Trigger the event, delivering ``value`` to all waiters.

        Raises:
            SimulationError: if the event was already triggered.
        """
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        sim = self.sim
        self._triggered = True
        self._trigger_time = sim._now
        self.value = value
        callbacks = self._callbacks
        self._callbacks = None  # break reference cycles, catch double fire
        if callbacks:
            for callback in callbacks:
                if isinstance(callback, AllOf):
                    callback._count_down()
                else:
                    sim.schedule(0.0, callback, self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<SimEvent {self.name!r} {state}>"


class AllOf(SimEvent):
    """Composite event that fires once **all** child events have fired.

    Its value is the list of child values in the order the children were
    given (not trigger order).

    A child's trigger is counted when its callbacks are dispatched — in its
    :meth:`~SimEvent.succeed`, or here if it already fired — instead of
    through a scheduled per-child callback that would only decrement the
    count.  The child that brings the count to zero schedules the single
    fire event, in the very heap slot its per-child callback would have
    taken, so every callback still runs at the same ``(time, seq)`` rank.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent], name: str = "") -> None:
        super().__init__(sim, name or "all_of")
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for child in self._children:
            if child._triggered:
                self._count_down()
            else:
                assert child._callbacks is not None
                child._callbacks.append(self)

    def _count_down(self) -> None:
        self._pending -= 1
        if self._pending == 0:
            self.sim.schedule(0.0, self._fire)

    def _fire(self) -> None:
        if not self._triggered:
            self.succeed([child.value for child in self._children])

