"""Counter rows of the per-layer table, read after a repetition from
the public attributes of the objects the run built (README.md
§Counters).  All of them are deterministic: they repeat exactly for
the same inputs, with and without tracing."""

from __future__ import annotations


def _total(objects, attr: str) -> int:
    return sum(getattr(obj, attr, 0) for obj in objects)


def read(instances: dict[str, list]) -> dict[str, float]:
    """``instances`` is ``Registry.instances``."""
    sims = instances["sim"]
    channels = instances["channel"]
    kernels = instances["kernel"]
    conns = instances["conn"]
    acks = instances["ack"]
    redirectors = instances["redirector"]
    rdaemons = instances["rdaemon"]
    ftports = instances["ftport"]
    invsets = instances["invset"]

    redirected = _total(redirectors, "packets_redirected")
    ack_sent = _total(acks, "messages_sent")
    return {
        "scheduler.events": _total(sims, "events_processed"),
        "scheduler.peak_queue_len": max(
            (getattr(s, "peak_queue_len", 0) for s in sims), default=0
        ),
        "link.packets_sent": _total(channels, "packets_sent"),
        "link.queue_drops": _total(channels, "packets_dropped_queue"),
        "link.packets_lost": _total(channels, "packets_lost"),
        "ip.packets_forwarded": _total(kernels, "packets_forwarded"),
        "ip.packets_dropped": _total(kernels, "packets_dropped"),
        "tcp.connections": len(conns),
        "tcp.segments_sent": _total(conns, "segments_sent"),
        "tcp.retransmitted_segments": _total(conns, "retransmitted_segments"),
        "tcp.rto_timeouts": sum(
            getattr(getattr(c, "congestion", None), "timeouts", 0) for c in conns
        ),
        "ft_tcp.suppressed_segments": _total(conns, "suppressed_segments"),
        "ack_channel.messages_sent": ack_sent,
        "ack_channel.messages_dropped": _total(acks, "messages_corrupt_dropped")
        + _total(acks, "messages_unclaimed"),
        # The N-proportional term: reports on the acknowledgement channel per
        # client packet the redirector multicast.
        "ack_channel.msgs_per_client_segment": ack_sent / redirected if redirected else 0.0,
        "redirector.packets_redirected": redirected,
        "redirector.segments_fenced": _total(redirectors, "segments_fenced"),
        "mgmt.table_syncs_forwarded": _total(rdaemons, "table_syncs_forwarded"),
        "mgmt.stale_syncs_dropped": _total(rdaemons, "stale_syncs_dropped"),
        "mgmt.promotions": _total(ftports, "promotions"),
        "invariants.violations": sum(len(getattr(s, "violations", ())) for s in invsets),
    }
