"""Packet tracing and counting.

A :class:`Tracer` can be attached to a :class:`~repro.netsim.simulator.
Simulator` (``sim.tracer = Tracer()``); every device then reports packet
events through :func:`trace`.  With no tracer attached the overhead is a
single attribute lookup.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from .packet import IPPacket


@dataclass
class TraceRecord:
    time: float
    node: str
    event: str
    packet: IPPacket

    def __str__(self) -> str:
        return f"{self.time:12.6f} {self.node:16s} {self.event:10s} {self.packet.describe()}"


class Tracer:
    """Records packet events and keeps per-event counters.

    Parameters
    ----------
    keep_records:
        When False only the counters are kept — use for long runs where
        the record list would dominate memory.
    filter:
        Optional predicate over :class:`TraceRecord`; records failing it
        are counted but not stored.

    Each event is counted both plain and per ``"{event}:{protocol}"``.
    """

    def __init__(
        self,
        keep_records: bool = True,
        filter: Optional[Callable[[TraceRecord], bool]] = None,
    ):
        self.records: list[TraceRecord] = []
        self.counters: Counter[str] = Counter()
        self.keep_records = keep_records
        self.filter = filter

    def record(self, time: float, node: str, event: str, packet: IPPacket) -> None:
        self.counters[event] += 1
        self.counters[f"{event}:{packet.protocol.name}"] += 1
        if self.keep_records:
            rec = TraceRecord(time, node, event, packet)
            if self.filter is None or self.filter(rec):
                self.records.append(rec)

    def count(self, event: str) -> int:
        return self.counters[event]

    def dump(self) -> str:
        return "\n".join(str(r) for r in self.records)

    def clear(self) -> None:
        self.records.clear()
        self.counters.clear()


def trace(sim, node: str, event: str, packet: IPPacket) -> None:
    """Report a packet event if a tracer is attached to ``sim``.

    ``Simulator`` always defines ``tracer`` (default ``None``), so this
    is a plain attribute load — but packet hot paths go one step
    further and test ``sim.tracer is None`` inline, which makes the
    untraced fast path completely call-free."""
    tracer = sim.tracer
    if tracer is not None:
        tracer.record(sim.now, node, event, packet)
