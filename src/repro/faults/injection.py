"""Fault injection: crashes, partitions, loss bursts, congestion — and
the gray-failure catalogue (:class:`GrayFaultPlan`).

Everything is scheduled on the simulator, so experiments declare a
fault plan up front and stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Optional

from repro.netsim.host import Host
from repro.netsim.link import Link
from repro.netsim.packet import Protocol, UDPDatagram
from repro.netsim.simulator import Simulator


@dataclass
class FaultEvent:
    time: float
    kind: str
    target: str


class FaultPlan:
    """A declarative schedule of faults; keeps a log of what fired.

    Schedules are validated at declaration time: bad arguments, negative
    times, empty windows and overlapping windows of one kind on one
    target raise ``ValueError`` and reserve nothing, instead of
    producing a plan that does not mean what it says (two overlapping
    crash windows would un-crash the host at the *first* recovery; two
    overlapping save-and-restore windows would restore the *faulted*
    value captured by the later one, leaving the fault in place).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.log: list[FaultEvent] = []
        #: (fault kind, target name) -> [[start, end]]; an open-ended
        #: window (``crash_at``, a partition without duration) ends at
        #: ``inf`` — for crashes until a ``recover_at`` trims it.
        self._windows: dict[tuple[str, str], list[list[float]]] = {}

    def _record(self, kind: str, target: str) -> None:
        self.log.append(FaultEvent(self.sim.now, kind, target))

    @staticmethod
    def _check_time(at: float, what: str = "fault time") -> None:
        if not at >= 0:  # NaN too
            raise ValueError(f"{what} must be >= 0, got {at}")

    def _reserve(self, keys: list, start: float, end: float) -> None:
        """Reserve ``[start, end)`` under every ``(kind, target)`` key,
        all or nothing: the one window check of every fault."""
        kind, target = keys[0]
        self._check_time(start, f"{kind} start time")
        if not end > start:
            raise ValueError(f"{kind} window [{start}, {end}) for {target} is empty")
        for key in keys:
            for s, e in self._windows.get(key, ()):
                if start < e and s < end:
                    raise ValueError(
                        f"{key[0]} window [{start}, {end}) for {key[1]} overlaps "
                        f"an existing window [{s}, {e})"
                    )
        for key in keys:
            self._windows.setdefault(key, []).append([start, end])

    def _window(self, kinds, target, at, duration, apply, restore, keys=None) -> None:
        """The one path of every windowed fault: reserve ``[at, at +
        duration)`` under ``keys`` (default ``(kinds[0], target)``),
        then run ``apply`` at ``at`` and ``restore`` at the end, logging
        the start and heal kinds of ``kinds`` against ``target``.
        ``duration=None`` is open-ended: nothing heals."""
        end = float("inf") if duration is None else at + duration
        self._reserve(keys or [(kinds[0], target)], at, end)
        started, healed = kinds

        def start() -> None:
            apply()
            self._record(started, target)

        def heal() -> None:
            restore()
            self._record(healed, target)

        self.sim.schedule_at(at, start)
        if duration is not None:
            self.sim.schedule_at(end, heal)

    # -- host faults ------------------------------------------------------

    def crash_at(self, host: Host, at: float) -> None:
        """Fail-stop crash at absolute time ``at``."""
        self._window(("crash", None), host.name, at, None, host.crash, None)

    def recover_at(self, host: Host, at: float) -> None:
        self._check_time(at, "recovery time")
        # Close the newest open-ended window this recovery ends, so a
        # later crash of the same host doesn't falsely overlap it.
        windows = self._windows.get(("crash", host.name), [])
        candidates = [w for w in windows if w[1] == float("inf") and w[0] <= at]
        if candidates:
            max(candidates, key=lambda w: w[0])[1] = at

        def fire() -> None:
            host.recover()
            self._record("recover", host.name)

        self.sim.schedule_at(at, fire)

    def crash_for(self, host: Host, at: float, duration: float) -> None:
        """Transient outage (e.g. reboot): crash then recover."""
        if not duration > 0:
            raise ValueError(f"outage duration must be > 0, got {duration}")
        self.crash_at(host, at)
        self.recover_at(host, at + duration)

    def crash_cycle(
        self, host: Host, start: float, period: float, downtime: float, count: int
    ) -> None:
        """Repeated crash/recover cycles: down for ``downtime`` at the
        start of each ``period``, ``count`` times — the workload of the
        recovery experiment (and chaos tests) without hand-unrolled
        schedules."""
        if downtime >= period:
            raise ValueError(
                f"downtime ({downtime}) must be shorter than period ({period})"
            )
        for i in range(count):
            self.crash_for(host, start + i * period, downtime)

    # -- link faults --------------------------------------------------------

    def partition_at(self, link: Link, at: float, duration: Optional[float] = None) -> None:
        """Take a link down at ``at``; heal after ``duration`` if given.

        A partition holds both directions of the link, so overlapping
        partition windows (either flavour, full or one-way, sharing a
        direction) raise ``ValueError``: the earlier heal would re-raise
        the channel in the middle of the later window."""
        self._window(
            ("partition", "heal"),
            link.name,
            at,
            duration,
            lambda: link.set_up(False),
            lambda: link.set_up(True),
            keys=[("partition", f"{link.name}:{d}") for d in ("a_to_b", "b_to_a")],
        )

    def partition_oneway_at(
        self, link: Link, direction: str, at: float, duration: Optional[float] = None
    ) -> None:
        """Take ONE direction of a link down at ``at`` (heal after
        ``duration`` if given), leaving the other direction up.

        ``direction`` is ``"a_to_b"`` or ``"b_to_a"``.  Asymmetric
        partitions are the nastiest split-brain trigger: an ex-primary
        that can still *transmit* towards clients while being deaf to
        the management plane keeps acting on its stale view — the case
        the redirector's epoch fence exists for (DESIGN.md §9)."""
        channel = _channel_of(link, direction)
        where = f"{link.name}:{direction}"
        self._window(
            ("partition-oneway", "heal-oneway"),
            where,
            at,
            duration,
            lambda: setattr(channel, "up", False),
            lambda: setattr(channel, "up", True),
            keys=[("partition", where)],
        )

    def loss_burst(self, link: Link, at: float, duration: float, loss_rate: float) -> None:
        """Temporarily raise the link's loss rate (both directions)."""
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {loss_rate}")
        original = (link.a_to_b.loss_rate, link.b_to_a.loss_rate)
        self._window(
            ("loss-burst", "loss-heal"),
            link.name,
            at,
            duration,
            lambda: link.set_loss_rate(loss_rate),
            lambda: _set_both(link, "loss_rate", original),
        )

    def congest(
        self, link: Link, at: float, duration: float, bandwidth_factor: float = 0.1
    ) -> None:
        """Model congestion as a temporary bandwidth collapse — the
        "spurious unavailability" the paper wants to fail-stop."""
        if not 0.0 < bandwidth_factor <= 1.0:
            raise ValueError(
                f"bandwidth_factor must be in (0, 1], got {bandwidth_factor}"
            )
        original = (link.a_to_b.bandwidth_bps, link.b_to_a.bandwidth_bps)
        self._window(
            ("congest", "decongest"),
            link.name,
            at,
            duration,
            lambda: _set_both(
                link, "bandwidth_bps", [bw * bandwidth_factor for bw in original]
            ),
            lambda: _set_both(link, "bandwidth_bps", original),
        )

    def flap(
        self,
        link: Link,
        start: float,
        period: float,
        duty_down: float,
        cycles: int,
    ) -> None:
        """A flapping link: down for ``duty_down`` then up for the rest
        of each ``period``, repeated ``cycles`` times."""
        for i in range(cycles):
            self.partition_at(link, start + i * period, duration=duty_down)

    def events_of(self, kind: str) -> list[FaultEvent]:
        return [e for e in self.log if e.kind == kind]


def _channel_of(link: Link, direction: str):
    channels = {"a_to_b": link.a_to_b, "b_to_a": link.b_to_a}
    channel = channels.get(direction)
    if channel is None:
        raise ValueError(f"direction must be 'a_to_b' or 'b_to_a', got {direction!r}")
    return channel


def _set_both(link: Link, attr: str, values) -> None:
    """Set ``attr`` of ``link``'s two channels (a_to_b, b_to_a)."""
    setattr(link.a_to_b, attr, values[0])
    setattr(link.b_to_a, attr, values[1])


def _ack_payload(packet):
    """The :class:`AckChannelMessage` carried by ``packet`` (possibly
    wrapped in a :class:`SequencedAckMessage`), or ``None`` if the
    packet is not ack-channel traffic.  Returns ``(datagram, inner)``."""
    from repro.core.ack_channel import (
        ACK_CHANNEL_PORT,
        AckChannelMessage,
        SequencedAckMessage,
    )

    if packet.protocol != Protocol.UDP:
        return None
    dgram = packet.payload
    if not isinstance(dgram, UDPDatagram) or dgram.dst_port != ACK_CHANNEL_PORT:
        return None
    data = dgram.data
    inner = data.inner if isinstance(data, SequencedAckMessage) else data
    if not isinstance(inner, AckChannelMessage):
        return None
    return dgram, inner


class GrayFaultPlan(FaultPlan):
    """The gray-failure adversary catalogue (DESIGN.md §14).

    Fail-stop faults kill cleanly; these do not.  A gray fault leaves
    the victim *alive* — slow, lossy in one direction, corrupting or
    reordering its management traffic, or outright lying about
    replication progress — which is exactly the adversary class that
    separates an adaptive detector + validated ack channel from a
    fixed-timeout, trust-the-wire implementation.

    All randomness is drawn from ``sim.rng``, so a gray schedule is as
    deterministic as the scenario seed that declared it.
    """

    # One bit-flip well above the plausibility slack would be invisible
    # to gating; 2**16 (64 kB) lands inside a realistic window yet is
    # always caught by the ack-channel checksum.
    CORRUPT_FLIP = 1 << 16

    # -- slow-but-alive host ---------------------------------------------

    def slow_host_at(
        self, host: Host, at: float, duration: float, factor: float = 10.0
    ) -> None:
        """Multiply every CPU charge on ``host`` by ``factor`` for the
        window — the canonical gray failure: the replica still beats,
        still acks, just *late*."""
        if not factor >= 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        self._window(
            ("slow-host", "slow-heal"),
            host.name,
            at,
            duration,
            lambda: setattr(host, "cpu_multiplier", factor),
            lambda: setattr(host, "cpu_multiplier", 1.0),
        )

    # -- asymmetric loss --------------------------------------------------

    def asymmetric_loss_at(
        self, link: Link, direction: str, at: float, duration: float, loss_rate: float
    ) -> None:
        """Raise the loss rate of ONE direction of ``link`` — the other
        direction stays clean, so naive liveness checks that only watch
        the healthy direction never fire."""
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {loss_rate}")
        channel = _channel_of(link, direction)
        original = channel.loss_rate
        self._window(
            ("asym-loss", "asym-heal"),
            f"{link.name}:{direction}",
            at,
            duration,
            lambda: setattr(channel, "loss_rate", loss_rate),
            lambda: setattr(channel, "loss_rate", original),
        )

    # -- ack-channel taps -------------------------------------------------

    def _install_tap(
        self, link: Link, direction: str, kind: str, at: float, duration: float, tap
    ) -> None:
        channel = _channel_of(link, direction)
        where = f"{link.name}:{direction}"
        # One tap per channel: overlapping taps of any kind would
        # silently shadow each other, so all tap kinds share a window
        # reservation on the channel.
        self._window(
            (kind, f"{kind}-heal"),
            where,
            at,
            duration,
            lambda: setattr(channel, "tap", tap),
            lambda: setattr(channel, "tap", None),
            keys=[("ack-tap", where)],
        )

    def corrupt_ack_at(
        self, link: Link, direction: str, at: float, duration: float, rate: float = 0.5
    ) -> None:
        """Flip a high bit in the seq/ack watermarks of ack-channel
        progress reports crossing the channel (probability ``rate`` per
        report).  The corrupted copy keeps the original's checksum, so
        a validating endpoint drops it on arrival; a trusting endpoint
        would swallow a 64 kB watermark jump.  Non-ack traffic passes
        untouched."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"corruption rate must be in [0, 1], got {rate}")
        channel = _channel_of(link, direction)
        sim = self.sim
        flip = self.CORRUPT_FLIP

        def tap(packet) -> bool:
            from repro.core.ack_channel import SequencedAckMessage

            found = _ack_payload(packet)
            if found is None or sim.rng.random() >= rate:
                return False
            dgram, inner = found
            # Corrupt a *copy*: the ordered channel retransmits the
            # original object, which must stay intact.  dc_replace
            # carries the checksum field over verbatim, so it is now
            # stale — exactly what wire corruption looks like.
            bad = dc_replace(
                inner,
                seq_next=(inner.seq_next + flip) & 0xFFFFFFFF,
                ack=(inner.ack + flip) & 0xFFFFFFFF,
            )
            data = dgram.data
            if isinstance(data, SequencedAckMessage):
                bad = SequencedAckMessage(data.seq, bad)
            mutated = dc_replace(
                packet, payload=UDPDatagram(dgram.src_port, dgram.dst_port, bad)
            )
            self._record("corrupt-ack", channel.name)
            channel.destination.deliver(mutated)
            return True

        self._install_tap(link, direction, "corrupt-ack-window", at, duration, tap)

    def reorder_ack_at(
        self,
        link: Link,
        direction: str,
        at: float,
        duration: float,
        delay: float = 0.05,
        rate: float = 0.5,
    ) -> None:
        """Hold ack-channel reports crossing the channel for ``delay``
        seconds (probability ``rate`` per report), re-queueing them
        behind later traffic — stale watermarks arriving after fresher
        ones, the bounded-regression case the receiver must reject."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"reorder rate must be in [0, 1], got {rate}")
        if not delay > 0:
            raise ValueError(f"reorder delay must be > 0, got {delay}")
        channel = _channel_of(link, direction)
        sim = self.sim

        def tap(packet) -> bool:
            if _ack_payload(packet) is None or sim.rng.random() >= rate:
                return False
            self._record("reorder-ack", channel.name)
            # Re-deliver directly to the NIC after the delay: bypasses
            # the tap (no loops) and skips the queue (the packet
            # already paid for transmission once).
            sim.post(delay, channel.destination.deliver, packet)
            return True

        self._install_tap(link, direction, "reorder-ack-window", at, duration, tap)

    # -- lying replica ----------------------------------------------------

    def lie_progress_at(
        self, node, at: float, duration: float, inflate: int = 1_000_000
    ) -> None:
        """Compromise ``node`` (an ``FtNode``): progress reports it
        sends during the window claim ``inflate`` bytes more than the
        truth, re-checksummed and current-epoch — a *convincing* liar
        that only watermark-plausibility checks can unmask."""
        if not inflate > 0:
            raise ValueError(f"inflate must be > 0, got {inflate}")
        endpoint = node.ack_endpoint
        original_send = None

        def lying_send(message, dst_ip) -> None:
            from repro.core.ack_channel import AckChannelMessage

            if isinstance(message, AckChannelMessage):
                message = dc_replace(
                    message,
                    seq_next=(message.seq_next + inflate) & 0xFFFFFFFF,
                    ack=(message.ack + inflate) & 0xFFFFFFFF,
                    checksum=None,  # recomputed: the lie validates
                )
            original_send(message, dst_ip)

        def apply() -> None:
            nonlocal original_send
            original_send = endpoint.send
            endpoint.send = lying_send

        def restore() -> None:
            if endpoint.send is lying_send:
                endpoint.send = original_send

        self._window(
            ("lie-progress", "lie-heal"),
            getattr(node, "name", str(node)),
            at,
            duration,
            apply,
            restore,
        )
