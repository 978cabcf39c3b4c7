"""The invariant monitors (DESIGN.md §11).

Each monitor receives protocol events from hook sites in the ft-TCP
stack, its member table (accepted acknowledgement-channel reports), and
the redirector's data path.
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

from repro.tcp.seqnum import seq_add, seq_diff
from repro.tcp.tcb import TcpState

if TYPE_CHECKING:
    from repro.core.ft_tcp import FtConnectionState, FtPort
    from repro.netsim.packet import IPPacket, TCPSegment

#: Per-connection cap on the canonical stream of
#: :class:`StreamIntegrityMonitor`; beyond it only the length is
#: tracked (prefix equality of the overflow cannot be checked).  No
#: copy of the stream is kept, so the cap bounds no memory: it stays
#: so that :meth:`StreamIntegrityMonitor.digest` stays byte-identical.
#: A second limit: a replica that stops for good partway through a
#: *closed* chunk leaves what it deposited of that chunk unchecked (it
#: is checked by digest only when it completes the chunk, and an exact
#: check of a replica stalled 1 MB behind cannot be bounded).
STREAM_CAP = 4 * 1024 * 1024

#: The stream-integrity monitor's chunk: per connection it keeps the raw
#: bytes of the one open chunk, a running sha256 over the closed ones
#: and the prefix digest at each closed chunk boundary.
CHUNK = 16 * 1024


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
    violations print (formatted once), the monitors' independent
    record of what the connection's successor has reported, recomputed
    from raw wire values, this replica's place in the connection's
    client stream, and its output-liveness stall episode."""

    __slots__ = (
        "key", "sent_upto", "deposited_upto",
        "stream_at", "stream_hash", "next_replica", "replica_key", "stall",
    )

    def __init__(self, state: "FtConnectionState"):
        port, conn = state.port, state.conn
        self.key = (str(port.service_ip), port.port, str(conn.remote_ip), conn.remote_port)
        self.sent_upto = 0
        self.deposited_upto = 0
        #: How far this replica has deposited; -1 until its first
        #: deposit links it into its stream's replica chain.
        self.stream_at = -1
        #: sha256 of this replica's deposits ``[0, stream_at)``, only
        #: while it lags behind a closed chunk (see ``_Stream``).
        self.stream_hash = None
        #: The next replica record of the same stream.
        self.next_replica = None
        #: ``(key, replica ip)``, formatted by the first deposit.
        self.replica_key = None
        #: ``[first blocked tick, already reported, marks]`` while this
        #: connection is blocked on its successor (output liveness).
        self.stall = None


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


class _Stream:
    """One connection's canonical client stream, as the monitor keeps
    it: the raw bytes of the open chunk, one running sha256 over the
    closed chunks and the sha256 prefix digest at each closed chunk
    boundary.  A replica still inside a chunk when it closes gets a
    running hash of its own, seeded from this state then, and is
    checked at every boundary it crosses afterwards."""

    __slots__ = ("open", "base", "length", "hasher", "marks", "replicas")

    def __init__(self):
        #: Canonical bytes ``[base, base + len(open))``.
        self.open = bytearray()
        #: Where the open chunk starts: the closed chunks' length.
        self.base = 0
        #: Longest deposited stream seen on any replica.
        self.length = 0
        #: sha256 over ``[0, base)``; made when the first chunk closes.
        self.hasher = None
        #: The 32-byte prefix digest at each closed boundary, in order.
        self.marks = None
        #: Head of the chain of replica records (``next_replica``).
        self.replicas = None

    def close_chunks(self) -> None:
        """Close every full chunk at the front of ``open``: seed each
        replica still inside it, then fold it into the running hash."""
        open_ = self.open
        while len(open_) >= CHUNK:
            base = self.base
            hasher = self.hasher
            if hasher is None:
                hasher = self.hasher = hashlib.sha256()
                self.marks = bytearray()
            record = self.replicas
            while record is not None:
                at = record.stream_at
                if record.stream_hash is None and base <= at < base + CHUNK:
                    seeded = record.stream_hash = hasher.copy()
                    seeded.update(open_[: at - base])
                record = record.next_replica
            hasher.update(open_[:CHUNK])
            self.marks += hasher.digest()
            del open_[:CHUNK]
            self.base = base + CHUNK

    def check_closed(self, record: _ConnRecord, start: int, data: bytes) -> bool:
        """Feed the part of one deposit below ``base`` into the
        replica's running hash, comparing it with the prefix digest at
        every boundary it completes.  False on a mismatch.  Bytes that
        do not continue the replica's own hash (its first deposit lands
        past offset 0 in a closed chunk, or a mismatch already dropped
        the hash) are not checked."""
        hasher = record.stream_hash
        if hasher is None:
            if start != 0:
                return True
            hasher = hashlib.sha256()
        elif start != record.stream_at:
            record.stream_hash = None
            return True
        stop = min(start + len(data), self.base)
        pos = start
        boundary = (start // CHUNK + 1) * CHUNK
        while boundary <= stop:
            hasher.update(data[pos - start : boundary - start])
            mark = (boundary // CHUNK - 1) * 32
            if hasher.digest() != self.marks[mark : mark + 32]:
                record.stream_hash = None
                return False
            pos = boundary
            boundary += CHUNK
        if stop == self.base:
            record.stream_hash = None  # the rest is compared byte for byte
        else:
            hasher.update(data[pos - start :])
            record.stream_hash = hasher
        return True


class StreamIntegrityMonitor(_Monitor):
    """DESIGN.md §6 ordering: every replica deposits the *same* client
    byte stream — all deposited streams are prefixes of one canonical
    stream per connection.  A deposit in the open chunk is compared
    byte for byte; one in a closed chunk by digest, once that replica
    completes the chunk (``_Stream``)."""

    name = "stream-integrity"

    def __init__(self, invset: "InvariantSet"):
        super().__init__(invset)
        #: client key -> its canonical stream.
        self.streams: dict[tuple, _Stream] = {}

    def on_deposit(self, state: "FtConnectionState", start: int, data: bytes) -> None:
        record = _record(state)
        key = record.key
        stream = self.streams.get(key)
        if stream is None:
            stream = self.streams[key] = _Stream()
        if record.stream_at < 0:
            record.next_replica = stream.replicas
            stream.replicas = record
        end = start + len(data)
        base = stream.base
        open_ = stream.open
        canon_end = base + len(open_)
        if start < base:
            same = stream.check_closed(record, start, data)
            lo = base
        else:
            same = True
            lo = start
            record.stream_hash = None  # a replica that skipped ahead
        record.stream_at = end
        overlap = min(end, canon_end) - lo
        if same and overlap > 0:
            same = open_.startswith(data[lo - start : lo - start + overlap], lo - base)
        if not same:
            self.report(
                f"replica {state.port.host_server.name} deposited bytes "
                f"[{start}, {end}) that differ from the canonical stream",
                key,
            )
        elif end > canon_end and canon_end < STREAM_CAP:
            if start > canon_end:
                # In-order TCP deposits make this unreachable unless the
                # reassembler itself is broken; record it, don't extend.
                self.report(
                    f"replica {state.port.host_server.name} deposited at "
                    f"offset {start}, past the canonical end {canon_end}",
                    key,
                )
            else:
                open_ += data[canon_end - start :]
                if len(open_) >= CHUNK:
                    stream.close_chunks()
        if end > stream.length:
            stream.length = end

    def digest(self) -> dict[str, tuple[int, str]]:
        """Per-connection ``(length, sha256)`` of the canonical streams
        — part of the scenario fingerprint."""
        out = {}
        for key, stream in sorted(self.streams.items(), key=lambda kv: str(kv[0])):
            hasher = hashlib.sha256() if stream.hasher is None else stream.hasher.copy()
            hasher.update(stream.open)
            out["/".join(map(str, key))] = (stream.length, hasher.hexdigest())
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
        record = _record(state)
        key = record.replica_key
        if key is None:
            key = record.replica_key = (record.key, str(state.port.host_server.ip))
        end = start + len(data)
        if end > self.deposited_end.get(key, 0):
            self.deposited_end[key] = end

    def on_claim(
        self,
        state: "FtConnectionState",
        seq_next: int,
        ack: int,
        claimant,
    ) -> None:
        conn = state.conn
        if conn.irs is None or ack == 0:
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

    def on_liveness_tick(self, port: "FtPort") -> None:
        """A blocked connection's episode, ``[first blocked tick,
        already reported, marks]``, hangs on its own record (``stall``),
        so it goes with the state.  ``marks`` is the successor watermark
        pair when the clock last (re)started: any advance resets the
        episode, mirroring the port's zero-progress degradation
        criterion — a saturated but moving successor is congestion, not
        a liveness failure."""
        if self.bound is None:
            return
        now = self.invset.sim.now
        for state in port.states.values():
            if state.conn.state == TcpState.CLOSED or not state.blocked_on_successor():
                if state.monitor is not None:
                    state.monitor.stall = None
                continue
            members = state.members
            marks = (members.sent, members.deposited)
            record = _record(state)
            entry = record.stall
            if entry is None:
                entry = record.stall = [now, False, marks]
            if entry[2] != marks:
                entry[0], entry[2] = now, marks
                continue
            stalled_for = now - entry[0]
            if entry[1] or stalled_for <= self.bound:
                continue
            if members.straggler is None or state.successor_silence() > self.alive_quiet:
                continue  # successor not demonstrably alive
            entry[1] = True
            self.report(
                f"{port.host_server.name} output blocked {stalled_for:.3f}s "
                f"(bound {self.bound:.3f}s) on live successor "
                f"{members.straggler}",
                record.key,
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
        self, state: "FtConnectionState", seq_next: int, ack: int, claimant
    ) -> None:
        """Raw flow-control fields from the acknowledgement channel —
        converted to stream offsets here, independently of the ft-TCP
        bookkeeping the gates read.  Fired for *accepted* reports only
        (the ft-TCP layer drops checksum/epoch/plausibility rejects
        before they reach any gate — or this hook).  ``claimant`` is
        the reporting replica, so a fast member's claim is never booked
        against whichever member currently limits the gate."""
        self.stats["successor_reports"] += 1
        conn = state.conn
        if conn.irs is None:
            return
        self.progress_truthfulness.on_claim(state, seq_next, ack, claimant)
        view = self.successor_view(state)
        sent = seq_diff(seq_next, seq_add(conn.iss, 1))
        deposited = seq_diff(ack, seq_add(conn.irs, 1))
        if sent > view.sent_upto:
            view.sent_upto = sent
        if deposited > view.deposited_upto:
            view.deposited_upto = deposited

    def on_client_segment(
        self, port: "FtPort", state: "FtConnectionState", segment: "TCPSegment"
    ) -> None:
        self.atomicity.on_client_segment(port, state, segment)
        self.output_ordering.on_client_segment(port, state, segment)

    def on_promotion(self, port: "FtPort") -> None:
        self.stats["promotions"] += 1
        self.single_primary.on_promotion(port)

    def on_liveness_tick(self, port: "FtPort") -> None:
        self.output_liveness.on_liveness_tick(port)

    def redirector_hook(self, packet: "IPPacket", nic) -> None:
        """Observe one unfragmented TCP segment that passed a
        redirector's fence: any stale-epoch segment seen here escaped
        the fence.  Called by the data path of the redirector that
        received it (``nic.host``), whose table it consults, so in a
        mesh a service's output is checked against the local epoch
        wherever it crosses."""
        segment = packet.payload
        entry = nic.host.table.get((packet.src, segment.src_port))
        if entry is None or not entry.fault_tolerant:
            return
        if segment.epoch is None:
            self.output_ordering.on_unstamped_service_segment(packet, segment)
        elif segment.epoch < entry.epoch:
            self.single_primary.on_stale_segment_past_fence(
                packet, segment, entry.epoch
            )


def attach_invariants(system) -> InvariantSet:
    """Arm the invariant monitors on a wired FT deployment.

    ``system`` is anything shaped like
    :class:`~repro.experiments.testbeds.FtSystem` (``sim``, ``service``):
    the one-service case of :func:`attach_mesh_invariants`.
    """
    return attach_mesh_invariants(system.sim, (system.service,))


def attach_mesh_invariants(sim, services) -> InvariantSet:
    """Arm the invariant monitors: set ``sim.invariants`` (every
    redirector's data path then reports the segments that pass its
    fence) and watch each service's replica list.  Idempotent; safe to
    call again as services are added."""
    invset = sim.invariants
    if invset is None:
        invset = InvariantSet(sim)
        sim.invariants = invset
    for service in services:
        invset.watch_service(service)
    return invset
