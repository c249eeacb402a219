"""Nonblocking-operation requests."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .datatypes import Envelope, Status

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import SimEvent

__all__ = ["Request"]


class Request:
    """Handle for a pending isend/irecv.

    A send request completes at *local* completion (the message is fully
    serialized by the NIC — the buffer could be reused); a receive request
    completes when a matching message has fully arrived.  Wait on it with
    ``yield from comm.wait(request)``.
    """

    __slots__ = ("event", "kind", "envelope")

    def __init__(self, event: "SimEvent", kind: str) -> None:
        if kind not in ("send", "recv"):
            raise ValueError(f"kind must be 'send' or 'recv', got {kind!r}")
        self.event = event
        self.kind = kind
        self.envelope: Optional[Envelope] = None

    @property
    def complete(self) -> bool:
        """Whether the operation has finished."""
        return self.event.triggered

    @property
    def status(self) -> Optional[Status]:
        """Source, tag and size of a completed receive (``None`` before)."""
        envelope = self.envelope
        return None if envelope is None else Status.from_envelope(envelope)

    def _fulfill_recv(self, envelope: Envelope) -> None:
        """Internal: deliver a matched envelope to this receive request."""
        self.envelope = envelope
        self.event.succeed(envelope)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "complete" if self.complete else "pending"
        return f"<Request {self.kind} {state}>"
