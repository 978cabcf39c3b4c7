"""The invariant monitors (DESIGN.md §11).

Each monitor receives protocol events from hook sites in the ft-TCP
stack, the acknowledgement channel, and the redirector's data path.
The monitors keep their *own* view of successor progress, recomputed
from the raw 32-bit wire values of every acknowledgement-channel
message — so a bug (or a deliberately disabled gate) in the ft-TCP
bookkeeping cannot hide a violation from them.

Monitors never schedule events and never mutate protocol state; an
armed run takes the same event schedule as an unarmed one.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.netsim.packet import IPPacket, Protocol, TCPSegment
from repro.tcp.seqnum import seq_add, seq_diff
from repro.tcp.tcb import TcpState

if TYPE_CHECKING:
    from repro.core.ft_tcp import FtConnectionState, FtPort

#: Per-connection cap on the canonical stream kept by
#: :class:`StreamIntegrityMonitor`; beyond it only the length is
#: tracked (prefix equality of the overflow cannot be checked).
STREAM_CAP = 4 * 1024 * 1024


@dataclass
class Violation:
    """One invariant violation, with enough context to triage."""

    monitor: str
    time: float
    detail: str
    conn_key: Optional[tuple] = None

    def __str__(self) -> str:
        where = f" conn={self.conn_key}" if self.conn_key else ""
        return f"[{self.monitor}] t={self.time:.6f}{where}: {self.detail}"


class InvariantViolationError(AssertionError):
    """Raised by :meth:`InvariantSet.check` when violations were seen."""


class _ConnRecord:
    """What the monitors keep per connection state, hung off
    ``state.monitor`` by the first hook that needs it: the key
    violations print (formatted once), and the monitors' independent
    record of what the connection's successor has reported, recomputed
    from raw wire values."""

    __slots__ = ("key", "sent_upto", "deposited_upto", "reports")

    def __init__(self, state: "FtConnectionState"):
        port, conn = state.port, state.conn
        self.key = (str(port.service_ip), port.port, str(conn.remote_ip), conn.remote_port)
        self.sent_upto = 0
        self.deposited_upto = 0
        self.reports = 0


def _record(state: "FtConnectionState") -> _ConnRecord:
    record = state.monitor
    if record is None:
        record = state.monitor = _ConnRecord(state)
    return record


def _client_key(state: "FtConnectionState") -> tuple:
    return _record(state).key


class _Monitor:
    """Shared plumbing: monitors report through the owning set."""

    name = "monitor"

    def __init__(self, invset: "InvariantSet"):
        self.invset = invset

    def report(self, detail: str, conn_key: Optional[tuple] = None) -> None:
        self.invset.report(self.name, detail, conn_key)


class AtomicityMonitor(_Monitor):
    """Paper §4.1: server ``Si`` deposits byte ``k`` only after
    ``S(i+1)`` acknowledged past ``k``, and the client is ACKed byte
    ``k`` only after the whole chain deposited it.  The last backup
    (an ungated connection) is exempt by construction."""

    name = "atomicity"

    def on_deposit(self, state: "FtConnectionState", start: int, data: bytes) -> None:
        if not state.gated:
            return  # last backup / ungated joiner replay: deposits freely
        view = self.invset.successor_view(state)
        end = start + len(data)
        if end > view.deposited_upto:
            self.report(
                f"deposited stream bytes [{start}, {end}) but the successor "
                f"only reported {view.deposited_upto} deposited",
                _client_key(state),
            )

    def on_client_segment(
        self, port: "FtPort", state: "FtConnectionState", segment: "TCPSegment"
    ) -> None:
        if not state.gated or not segment.has_ack:
            return
        conn = state.conn
        if conn.irs is None:
            return
        # Wire ACK → stream offset; our own deposited FIN occupies one
        # sequence position past the payload.
        acked = seq_diff(segment.ack, seq_add(conn.irs, 1))
        if conn.fin_deposited:
            acked -= 1
        view = self.invset.successor_view(state)
        if acked > view.deposited_upto:
            self.report(
                f"ACKed client offset {acked} but the successor only "
                f"reported {view.deposited_upto} deposited",
                _client_key(state),
            )


class OutputOrderingMonitor(_Monitor):
    """Paper §4.1: the primary transmits response byte ``k`` only after
    the successor reported sequence ≥ ``k``, and backup payload is
    filtered — it must never appear on the client path."""

    name = "output-ordering"

    def on_client_segment(
        self, port: "FtPort", state: "FtConnectionState", segment: "TCPSegment"
    ) -> None:
        if not state.gated or not segment.data:
            return
        conn = state.conn
        start = seq_diff(segment.seq, seq_add(conn.iss, 1))
        if start < 0:
            return  # SYN occupies the position before offset 0
        end = start + len(segment.data)
        view = self.invset.successor_view(state)
        if end > view.sent_upto:
            self.report(
                f"sent response bytes [{start}, {end}) to the client but "
                f"the successor only reported sequence {view.sent_upto}",
                _client_key(state),
            )

    def on_unstamped_service_segment(self, packet: "IPPacket", segment: "TCPSegment") -> None:
        """A client-bound segment of a fault-tolerant service crossed
        the redirector without an epoch stamp.  Only the primary's
        output path stamps epochs, so this is backup (or otherwise
        unfiltered) output leaking towards a client link."""
        self.report(
            "unstamped (non-primary) service output reached the client "
            f"path: {packet.src}:{segment.src_port} -> "
            f"{packet.dst}:{segment.dst_port} seq={segment.seq} "
            f"len={len(segment.data)}"
        )


class SinglePrimaryMonitor(_Monitor):
    """DESIGN.md §9: at most one live primary per ``(service_ip,
    port)`` *epoch*, and segments stamped with a stale epoch are
    dropped by the redirector's fence, never delivered client-ward."""

    name = "single-primary"

    def on_promotion(self, port: "FtPort") -> None:
        replicas = self.invset.service_replicas(port.service_ip, port.port)
        if replicas is None:
            return
        live_primaries = [
            h.ft_port
            for h in replicas
            if h.ft_port.is_primary
            and not h.ft_port.shut_down
            and not h.node.host_server.crashed
        ]
        by_epoch = Counter(p.epoch for p in live_primaries)
        for epoch, count in by_epoch.items():
            if count > 1:
                names = [
                    p.host_server.name for p in live_primaries if p.epoch == epoch
                ]
                self.report(
                    f"{count} live primaries share epoch {epoch} for "
                    f"{port.service_ip}:{port.port}: {names}"
                )

    def on_stale_segment_past_fence(
        self, packet: "IPPacket", segment: "TCPSegment", entry_epoch: int
    ) -> None:
        self.report(
            f"stale-epoch segment escaped the fence: epoch {segment.epoch} "
            f"< table epoch {entry_epoch}, "
            f"{packet.src}:{segment.src_port} -> "
            f"{packet.dst}:{segment.dst_port} seq={segment.seq}"
        )


class StreamIntegrityMonitor(_Monitor):
    """DESIGN.md §6 ordering: every replica deposits the *same* client
    byte stream — all deposited streams are prefixes of one canonical
    stream per connection."""

    name = "stream-integrity"

    def __init__(self, invset: "InvariantSet"):
        super().__init__(invset)
        #: client key -> canonical bytes deposited so far (capped).
        self.canonical: dict[tuple, bytearray] = {}
        #: client key -> longest deposited stream seen on any replica.
        self.lengths: dict[tuple, int] = {}

    def on_deposit(self, state: "FtConnectionState", start: int, data: bytes) -> None:
        key = _client_key(state)
        canon = self.canonical.get(key)
        if canon is None:
            canon = self.canonical[key] = bytearray()
        end = start + len(data)
        overlap_end = min(end, len(canon))
        if start < overlap_end and bytes(canon[start:overlap_end]) != data[: overlap_end - start]:
            self.report(
                f"replica {state.port.host_server.name} deposited bytes "
                f"[{start}, {end}) that differ from the canonical stream",
                key,
            )
        elif end > len(canon) and len(canon) < STREAM_CAP:
            if start > len(canon):
                # In-order TCP deposits make this unreachable unless the
                # reassembler itself is broken; record it, don't extend.
                self.report(
                    f"replica {state.port.host_server.name} deposited at "
                    f"offset {start}, past the canonical end {len(canon)}",
                    key,
                )
            else:
                canon.extend(data[len(canon) - start :])
        if end > self.lengths.get(key, 0):
            self.lengths[key] = end

    def digest(self) -> dict[str, tuple[int, str]]:
        """Per-connection ``(length, sha256)`` of the canonical streams
        — part of the scenario fingerprint."""
        out = {}
        for key, canon in sorted(self.canonical.items(), key=lambda kv: str(kv[0])):
            out["/".join(map(str, key))] = (
                self.lengths.get(key, len(canon)),
                hashlib.sha256(bytes(canon)).hexdigest(),
            )
        return out


class ProgressTruthfulnessMonitor(_Monitor):
    """DESIGN.md §14: a replica's progress report may never claim more
    deposited bytes than that replica has *actually* deposited.  The
    monitor cross-references every accepted acknowledgement-channel
    claim against its own record of the claiming replica's deposits
    (from the deposit hook on that replica) — so a lying backup, or a
    corrupted watermark that slipped past the checksum, is caught even
    when the ft-TCP plausibility check has been compiled out (the
    ``progress_check`` mutation)."""

    name = "progress-truthfulness"

    #: A consumed FIN occupies one sequence position past the payload,
    #: and the claim can race the deposit hook by a hair; anything
    #: beyond this is a fabricated watermark.
    SLACK = 64

    def __init__(self, invset: "InvariantSet"):
        super().__init__(invset)
        #: (conn key, replica ip str) -> highest deposited end seen.
        self.deposited_end: dict[tuple, int] = {}

    def on_deposit(self, state: "FtConnectionState", start: int, data: bytes) -> None:
        key = (_client_key(state), str(state.port.host_server.ip))
        end = start + len(data)
        if end > self.deposited_end.get(key, 0):
            self.deposited_end[key] = end

    def on_claim(
        self,
        state: "FtConnectionState",
        seq_next: int,
        ack: int,
        claimant=None,
    ) -> None:
        conn = state.conn
        if claimant is None:
            # Chain semantics: the report can only come from the one
            # successor.  Multi-member backends pass the actual sender
            # so a fast member's claim is never booked against the
            # straggler currently named in ``successor_ip``.
            claimant = state.successor_ip
        if conn.irs is None or claimant is None or ack == 0:
            return  # ack=0 is the no-claim sentinel of ack-less segments
        claimed = seq_diff(ack, seq_add(conn.irs, 1))
        key = (_client_key(state), str(claimant))
        actual = self.deposited_end.get(key, 0)
        if claimed > actual + self.SLACK:
            self.report(
                f"replica {claimant} claims {claimed} bytes "
                f"deposited but has only deposited {actual}",
                _client_key(state),
            )


class OutputLivenessMonitor(_Monitor):
    """DESIGN.md §14: client-visible output may not stall while the
    chain is healthy.  Observed at the ft port's liveness tick (the
    monitor schedules nothing itself): a connection continuously
    blocked on a successor for longer than ``bound`` seconds — while
    that successor is demonstrably *alive* on the acknowledgement
    channel — means graceful degradation failed to excise a
    slow-but-alive replica.  A silent successor (crash, partition) is
    exempt: that is the classic fail-stop path's job, and fail-over
    time is measured elsewhere.

    Disabled until ``bound`` is set (gray-failure scenarios and the D6
    experiment arm it); legacy scenarios take the identical schedule.
    """

    name = "output-liveness"

    def __init__(self, invset: "InvariantSet"):
        super().__init__(invset)
        #: Stall bound in seconds (think K·RTT); ``None`` disables.
        self.bound: Optional[float] = None
        #: How quiet (seconds) a successor may be and still count as
        #: alive at the moment the stall is judged.
        self.alive_quiet = 2.0
        #: id(state) -> [first blocked tick, already reported, marks].
        #: ``marks`` is the successor watermark pair when the clock last
        #: (re)started: any advance resets the episode, mirroring the
        #: port's zero-progress degradation criterion — a saturated but
        #: moving successor is congestion, not a liveness failure.
        self._stalled: dict[int, list] = {}

    def on_liveness_tick(self, port: "FtPort") -> None:
        if self.bound is None:
            return
        now = self.invset.sim.now
        for state in port.states.values():
            key = id(state)
            if state.conn.state == TcpState.CLOSED or not state.blocked_on_successor():
                self._stalled.pop(key, None)
                continue
            marks = (state.successor_sent_upto, state.successor_deposited_upto)
            entry = self._stalled.setdefault(key, [now, False, marks])
            if entry[2] != marks:
                entry[0], entry[2] = now, marks
                continue
            stalled_for = now - entry[0]
            if entry[1] or stalled_for <= self.bound:
                continue
            if state.successor_ip is None or state.successor_silence() > self.alive_quiet:
                continue  # successor not demonstrably alive
            entry[1] = True
            self.report(
                f"{port.host_server.name} output blocked {stalled_for:.3f}s "
                f"(bound {self.bound:.3f}s) on live successor "
                f"{state.successor_ip}",
                _client_key(state),
            )


class InvariantSet:
    """The armed monitors plus shared state: attach with
    :func:`attach_invariants`, read :attr:`violations` afterwards."""

    def __init__(self, sim, on_violation: Optional[Callable[[Violation], None]] = None):
        self.sim = sim
        self.on_violation = on_violation
        self.violations: list[Violation] = []
        self.stats: Counter = Counter()
        self.atomicity = AtomicityMonitor(self)
        self.output_ordering = OutputOrderingMonitor(self)
        self.single_primary = SinglePrimaryMonitor(self)
        self.stream_integrity = StreamIntegrityMonitor(self)
        self.progress_truthfulness = ProgressTruthfulnessMonitor(self)
        self.output_liveness = OutputLivenessMonitor(self)
        #: (service_ip, port) -> the service's replica list (live view).
        self._services: dict[tuple, list] = {}
        #: Set by :func:`attach_invariants` — the redirector table the
        #: packet hook consults (single-redirector deployments).
        self._redirector_table = None
        #: id(redirector) -> installed hook, one per armed redirector
        #: (mesh deployments arm every redirector; each hook closes
        #: over its own table).
        self._armed_redirectors: dict[int, Callable] = {}

    # -- wiring ----------------------------------------------------------

    def watch_service(self, service) -> None:
        self._services[(service.service_ip, service.port)] = service.replicas

    def service_replicas(self, service_ip, port: int):
        return self._services.get((service_ip, port))

    def successor_view(self, state: "FtConnectionState") -> _ConnRecord:
        return _record(state)

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19); ``violations`` and ``stats`` stay."""
        for monitor in vars(self).values():
            if isinstance(monitor, _Monitor):
                monitor.invset = None
        self._services, self._armed_redirectors, self._redirector_table = {}, {}, None

    # -- reporting ---------------------------------------------------------

    def report(self, monitor: str, detail: str, conn_key: Optional[tuple] = None) -> None:
        violation = Violation(monitor, self.sim.now, detail, conn_key)
        self.violations.append(violation)
        self.stats[f"violation:{monitor}"] += 1
        if self.on_violation is not None:
            self.on_violation(violation)

    def check(self) -> None:
        """Raise if any monitor reported a violation."""
        if self.violations:
            lines = "\n".join(str(v) for v in self.violations[:20])
            more = len(self.violations) - 20
            if more > 0:
                lines += f"\n... and {more} more"
            raise InvariantViolationError(
                f"{len(self.violations)} invariant violation(s):\n{lines}"
            )

    def violated_monitors(self) -> list[str]:
        return sorted({v.monitor for v in self.violations})

    # -- hook-site entry points (called only when armed) -------------------

    def on_deposit(self, state: "FtConnectionState", start: int, data: bytes) -> None:
        self.stats["deposits"] += 1
        self.atomicity.on_deposit(state, start, data)
        self.stream_integrity.on_deposit(state, start, data)
        self.progress_truthfulness.on_deposit(state, start, data)

    def on_successor_report(
        self, state: "FtConnectionState", seq_next: int, ack: int, claimant=None
    ) -> None:
        """Raw flow-control fields from the acknowledgement channel —
        converted to stream offsets here, independently of the ft-TCP
        bookkeeping the gates read.  Fired for *accepted* reports only
        (the ft-TCP layer drops checksum/epoch/plausibility rejects
        before they reach any gate — or this hook).  ``claimant`` is
        the reporting replica when the backend tracks several per
        connection; ``None`` means chain semantics (the single
        successor named in the state)."""
        self.stats["successor_reports"] += 1
        conn = state.conn
        if conn.irs is None:
            return
        self.progress_truthfulness.on_claim(state, seq_next, ack, claimant)
        view = self.successor_view(state)
        view.reports += 1
        sent = seq_diff(seq_next, seq_add(conn.iss, 1))
        deposited = seq_diff(ack, seq_add(conn.irs, 1))
        if sent > view.sent_upto:
            view.sent_upto = sent
        if deposited > view.deposited_upto:
            view.deposited_upto = deposited

    def on_client_segment(
        self, port: "FtPort", state: "FtConnectionState", segment: "TCPSegment"
    ) -> None:
        self.stats["client_segments"] += 1
        self.atomicity.on_client_segment(port, state, segment)
        self.output_ordering.on_client_segment(port, state, segment)

    def on_promotion(self, port: "FtPort") -> None:
        self.stats["promotions"] += 1
        self.single_primary.on_promotion(port)

    def on_ack_channel_message(self, message, src_ip) -> None:
        self.stats["ack_channel_messages"] += 1

    def on_liveness_tick(self, port: "FtPort") -> None:
        self.stats["liveness_ticks"] += 1
        self.output_liveness.on_liveness_tick(port)

    def on_fenced(self, segment_epoch: int, entry) -> None:
        self.stats["segments_fenced"] += 1

    def redirector_hook(self, packet: "IPPacket", nic) -> bool:
        """Observe-only packet hook, inserted immediately *after* the
        redirector's fence: any stale-epoch segment that reaches it
        escaped the fence.  Always returns False (never consumes)."""
        return self._observe_service_segment(packet, self._redirector_table)

    def _observe_service_segment(self, packet: "IPPacket", table) -> bool:
        if packet.protocol != Protocol.TCP or packet.is_fragment:
            return False
        segment = packet.payload
        if not isinstance(segment, TCPSegment):
            return False
        entry = table.fast.get((packet.src._value, segment.src_port))
        if entry is None or not entry.fault_tolerant:
            return False
        self.stats["service_output_segments"] += 1
        if segment.epoch is None:
            self.output_ordering.on_unstamped_service_segment(packet, segment)
        elif segment.epoch < entry.epoch:
            self.single_primary.on_stale_segment_past_fence(
                packet, segment, entry.epoch
            )
        return False

    def arm_redirector(self, redirector) -> None:
        """Splice an observe-only hook behind *this* redirector's fence.
        Mesh deployments call this once per redirector: each hook
        consults the table of the redirector it is installed on, so a
        service's output is checked against the local epoch wherever it
        crosses the mesh.  Idempotent per redirector."""
        if id(redirector) in self._armed_redirectors:
            return
        table = redirector.table

        def hook(packet, nic, _table=table):
            return self._observe_service_segment(packet, _table)

        self._armed_redirectors[id(redirector)] = hook
        redirector.kernel.add_packet_hook(hook, after=redirector._fence_hook)


def attach_invariants(
    system, on_violation: Optional[Callable[[Violation], None]] = None
) -> InvariantSet:
    """Arm the invariant monitors on a wired FT deployment.

    ``system`` is anything shaped like
    :class:`~repro.experiments.testbeds.FtSystem` (``sim``, ``service``,
    ``redirector``).  Sets ``sim.invariants``, watches the service's
    replica list, and splices an observe-only packet hook into the
    redirector right behind the epoch fence.  Idempotent per system.
    """
    sim = system.sim
    invset = sim.invariants
    if invset is None:
        invset = InvariantSet(sim, on_violation)
        sim.invariants = invset
    invset.watch_service(system.service)
    redirector = system.redirector
    invset._redirector_table = redirector.table
    kernel = redirector.kernel
    if invset.redirector_hook not in kernel.packet_hooks:
        kernel.add_packet_hook(invset.redirector_hook, after=redirector._fence_hook)
    return invset


def attach_mesh_invariants(
    sim,
    redirectors,
    services=(),
    on_violation: Optional[Callable[[Violation], None]] = None,
) -> InvariantSet:
    """Arm the invariant monitors across a redirector mesh: one
    observe-only hook per redirector (each consulting its own table)
    and one replica-list watch per service.  Idempotent; safe to call
    again as services are added."""
    invset = sim.invariants
    if invset is None:
        invset = InvariantSet(sim, on_violation)
        sim.invariants = invset
    for service in services:
        invset.watch_service(service)
    for redirector in redirectors:
        invset.arm_redirector(redirector)
    return invset
