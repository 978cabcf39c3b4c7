"""Heartbeat-based failure detection (ablation A7 — the classic
alternative to the paper's retransmission estimator).

The paper detects failures by observing TCP retransmissions: zero
overhead while everything works, latency coupled to client RTO backoff,
and — crucially — blind when no traffic flows.  The textbook
alternative keeps replicas sending periodic heartbeats to the
redirector, which declares a replica failed after ``tolerance`` missed
periods: constant background traffic, but bounded detection latency
even for idle services.  Both run side by side in
:mod:`repro.experiments.detector_comparison`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.netsim.addressing import IPAddress, as_address
from repro.netsim.simulator import Timer

from repro.hydranet.mgmt import MgmtMessage

if TYPE_CHECKING:
    from repro.hydranet.daemons import HostServerDaemon, RedirectorDaemon


@dataclass
class Heartbeat(MgmtMessage):
    """Replica → redirector: still alive for this service."""

    service_ip: IPAddress
    port: int
    server_ip: IPAddress
    wire_size = 24


class HeartbeatSender:
    """Periodic heartbeats from one replica for one service."""

    def __init__(
        self,
        daemon: "HostServerDaemon",
        service_ip,
        port: int,
        period: float = 1.0,
    ):
        self.daemon = daemon
        self.sim = daemon.sim
        self.service_ip = as_address(service_ip)
        self.port = port
        self.period = period
        self.sent = 0
        self._timer = Timer(self.sim, self._beat)
        self._stopped = False
        self._timer.start(period)

    def _beat(self) -> None:
        if self._stopped:
            return
        self._timer.start(self.period)
        if self.daemon.host_server.crashed:
            return  # a dead host sends nothing (fail-stop)
        self.sent += 1
        self.daemon.channel.send_unreliable(
            Heartbeat(self.service_ip, self.port, self.daemon.ip),
            self.daemon.redirector_ip,
        )

    def stop(self) -> None:
        self._stopped = True
        self._timer.stop()

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19)."""
        self._timer = None


class HeartbeatDetector:
    """Redirector-side adaptive failure detector.

    Instead of a fixed ``period * tolerance`` deadline, each replica's
    timeout adapts to its *observed* heartbeat inter-arrival
    distribution (phi-accrual style, DESIGN.md §14): a sliding window
    of samples yields a per-replica timeout of
    ``tolerance * mean + STD_FACTOR * std``, clamped to
    ``[period, CAP_FACTOR * period * tolerance]``.  Until
    ``MIN_SAMPLES`` arrivals have been seen the detector falls back to
    the classic fixed deadline, so cold-start behaviour is unchanged.

    The payoff under gray failures: a replica whose heartbeats arrive
    with growing jitter (asymmetric loss eats every other beat) widens
    its own timeout instead of flapping in and out of the replica set,
    while a clean-cadence replica keeps a tight timeout and is excised
    quickly when it truly dies.  Everything is computed from simulated
    arrival times — fully deterministic per seed.
    """

    #: Inter-arrival samples kept per replica.
    SAMPLE_WINDOW = 20
    #: Below this many samples the fixed deadline applies.
    MIN_SAMPLES = 4
    #: Standard deviations of headroom above the scaled mean.
    STD_FACTOR = 3.0
    #: Adaptive timeout never exceeds this multiple of the fixed one.
    CAP_FACTOR = 3.0

    def __init__(
        self,
        daemon: "RedirectorDaemon",
        period: float = 1.0,
        tolerance: int = 3,
    ):
        self.daemon = daemon
        self.sim = daemon.sim
        self.period = period
        self.tolerance = tolerance
        # (service key, replica ip) -> last heartbeat time.
        self._last_heard: dict[tuple, float] = {}
        # (service key, replica ip) -> recent inter-arrival samples.
        self._samples: dict[tuple, deque] = {}
        # Replicas present in the table but never heard from: when we
        # first noticed them (a replica that dies before its first
        # heartbeat must still be detected).
        self._watching: dict[tuple, float] = {}
        self.detections = 0
        self.zombie_heartbeats = 0
        self._timer = Timer(self.sim, self._sweep)
        self._timer.start(period)

    def on_heartbeat(self, message: Heartbeat) -> None:
        from repro.hydranet.redirector import ServiceKey

        service_key = ServiceKey(as_address(message.service_ip), message.port)
        sender = as_address(message.server_ip)
        entry = self.daemon.redirector.table.get(service_key)
        if (
            entry is not None
            and entry.fault_tolerant
            and sender not in entry.replicas
        ):
            # A heartbeat from outside the replica set: a replica
            # removed in an earlier view is back (a healed partition)
            # and doesn't know it.  It must not be re-armed — demote it
            # instead (acted on only if its view is provably stale,
            # DESIGN.md §9).
            self.zombie_heartbeats += 1
            self.daemon._send_demote(service_key, sender, entry.epoch)
            return
        key = (service_key, sender)
        now = self.sim.now
        prev = self._last_heard.get(key)
        if prev is not None and now > prev:
            samples = self._samples.get(key)
            if samples is None:
                samples = self._samples[key] = deque(maxlen=self.SAMPLE_WINDOW)
            samples.append(now - prev)
        self._last_heard[key] = now

    def timeout_for(self, key: tuple) -> float:
        """The silence (seconds) after which ``key`` becomes suspect."""
        samples = self._samples.get(key)
        fixed = self.period * self.tolerance
        if samples is None or len(samples) < self.MIN_SAMPLES:
            return fixed
        n = len(samples)
        mean = sum(samples) / n
        var = sum((s - mean) ** 2 for s in samples) / n
        adaptive = self.tolerance * mean + self.STD_FACTOR * math.sqrt(var)
        return min(max(adaptive, self.period), self.CAP_FACTOR * fixed)

    def suspicion(self, service_key, replica) -> float:
        """Current suspicion score: elapsed silence over the adaptive
        timeout.  > 1.0 means the next sweep will excise the replica."""
        key = (service_key, replica)
        heard = self._last_heard.get(key)
        if heard is None:
            heard = self._watching.get(key)
        if heard is None:
            return 0.0
        return (self.sim.now - heard) / self.timeout_for(key)

    def _sweep(self) -> None:
        self._timer.start(self.period)
        now = self.sim.now
        suspects: dict = {}
        current: set[tuple] = set()
        for service_key, entry in list(self.daemon.redirector.table.items()):
            if not entry.fault_tolerant:
                continue
            for replica in entry.replicas:
                key = (service_key, replica)
                current.add(key)
                heard = self._last_heard.get(key)
                if heard is None:
                    # Never heard: start the clock when first noticed.
                    heard = self._watching.setdefault(key, now)
                # Strictly greater than: a replica exactly at the
                # boundary survives one more sweep.  The elapsed time
                # is compared directly against the timeout — never via
                # a precomputed ``now - timeout`` deadline, whose
                # rounding made boundary behaviour drift across seeds.
                if now - heard > self.timeout_for(key):
                    suspects.setdefault(service_key, set()).add(replica)
        # Forget replicas no longer in the table.
        self._last_heard = {k: v for k, v in self._last_heard.items() if k in current}
        self._watching = {k: v for k, v in self._watching.items() if k in current}
        self._samples = {k: v for k, v in self._samples.items() if k in current}
        for service_key, dead in suspects.items():
            self.detections += 1
            for replica in dead:
                self._last_heard.pop((service_key, replica), None)
                self._watching.pop((service_key, replica), None)
                self._samples.pop((service_key, replica), None)
            self.daemon._remove_and_rechain(service_key, dead)

    def stop(self) -> None:
        self._timer.stop()

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19): timer; enable_heartbeats' filter."""
        self._timer = None
        vars(self.daemon).pop("_on_message", None)


def enable_heartbeats(
    redirector_daemon: "RedirectorDaemon",
    ft_nodes,
    service_ip,
    port: int,
    period: float = 1.0,
    tolerance: int = 3,
) -> tuple[HeartbeatDetector, list[HeartbeatSender]]:
    """Wire heartbeat detection for one service: a detector on the
    redirector plus a sender per replica."""
    detector = HeartbeatDetector(redirector_daemon, period, tolerance)
    original = redirector_daemon._on_message

    def with_heartbeats(message, src_ip, src_port):
        if isinstance(message, Heartbeat):
            detector.on_heartbeat(message)
            return
        original(message, src_ip, src_port)

    redirector_daemon._on_message = with_heartbeats
    redirector_daemon.channel.on_message = with_heartbeats
    senders = [
        HeartbeatSender(node.daemon, service_ip, port, period) for node in ft_nodes
    ]
    return detector, senders
