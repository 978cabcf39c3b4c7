"""Layer map and boundary table of the perf ledger (README.md §Layers).

A *layer* is a group of ``repro`` modules.  ``LAYER_MODULES`` says which
module belongs to which layer; ``BOUNDARIES`` names the calls into each
layer that the traced run wraps.  Both are data: the tracer resolves
them at install time and counts the names it cannot find
(``trace.boundaries_missing``) instead of failing, so a refactor that
renames a private hook degrades the attribution, not the benchmark.
"""

from __future__ import annotations

#: layer -> module prefixes (longest prefix wins).  The order is the
#: order of the rows in every per-layer table.
LAYER_MODULES = {
    "scheduler": ("repro.netsim.simulator",),
    "link": ("repro.netsim.link", "repro.netsim.nic"),
    "ip": ("repro.netsim",),  # host, router, tunnel, fragmentation, packet, ...
    "udp": ("repro.udp",),
    "tcp": ("repro.tcp",),
    "ft_tcp": (
        "repro.core.ft_tcp",
        "repro.core.replicated_port",
        "repro.core.failure_detector",
    ),
    "replication": ("repro.replication",),
    "ack_channel": ("repro.core.ack_channel",),
    "redirector": ("repro.hydranet.redirector",),
    "mgmt": ("repro.hydranet", "repro.core.heartbeat", "repro.core.service"),
    "recovery": ("repro.recovery",),
    "faults": ("repro.faults",),
    "invariants": ("repro.invariants",),
    "apps": ("repro.apps", "repro.workloads", "repro.sockets"),
    "metrics": ("repro.metrics",),
    "topo": ("repro.topo",),
    "runtime": ("repro.runtime",),
}

LAYERS = tuple(LAYER_MODULES)

#: Spans whose code lives outside every layer above (a lambda in a test
#: helper, the harness itself) land here and count as unattributed.
UNATTRIBUTED = "unattributed"


def layer_of_module(module: str | None) -> str:
    """The layer a module belongs to (longest matching prefix)."""
    best, best_len = UNATTRIBUTED, -1
    if module:
        for layer, prefixes in LAYER_MODULES.items():
            for prefix in prefixes:
                if (
                    module == prefix or module.startswith(prefix + ".")
                ) and len(prefix) > best_len:
                    best, best_len = layer, len(prefix)
    return best


#: (module, class or None, names).  A name may be an ``fnmatch``
#: pattern; a pattern that does not itself start with ``_`` matches
#: public functions only.  The layer of a
#: boundary is the layer of its module.  Public entry points come
#: first in each group; names starting with ``_`` are the callbacks a
#: *different* layer invokes through a registered hook (protocol
#: handler, packet hook, socket callback), which is the only way into
#: the layer on that path.
BOUNDARIES = (
    # scheduler: post/post_at/schedule_at/run are wrapped separately
    # (they also open the per-event root span).
    ("repro.netsim.simulator", "Timer", ("start", "stop")),
    # link
    ("repro.netsim.link", "Channel", ("transmit",)),
    ("repro.netsim.nic", "NIC", ("send", "deliver")),
    # ip
    ("repro.netsim.host", "Kernel", ("send_ip", "receive_from_nic")),
    ("repro.netsim.tunnel", None, ("encapsulate", "decapsulate")),
    ("repro.netsim.fragmentation", None, ("fragment_packet",)),
    ("repro.netsim.fragmentation", "Reassembler", ("push",)),
    (
        "repro.netsim.topology",
        "Topology",
        ("add_host", "add_router", "add", "connect", "add_external_network", "build_routes"),
    ),
    # udp
    ("repro.udp.udp", "UdpStack", ("send", "_receive")),
    # tcp
    (
        "repro.tcp.tcb",
        "TcpConnection",
        (
            "segment_arrived",
            "send",
            "recv",
            "close",
            "kick",
            "gates_changed",
            "open_active",
            "open_passive",
        ),
    ),
    ("repro.tcp.stack", "TcpStack", ("send_segment", "connect", "listen", "_receive")),
    # ft_tcp
    (
        "repro.core.ft_tcp",
        "FtConnectionState",
        ("apply", "record_deposit", "announce", "deposit_ceiling", "transmit_ceiling"),
    ),
    (
        "repro.core.ft_tcp",
        "FtPort",
        (
            "bind",
            "shutdown",
            "begin_catchup_feed",
            "end_catchup_feed",
            "install_base_snapshot",
            "apply_*",
            "_configure_connection",
            "_filter_output",
            "_on_ack_channel",
            "_on_retransmission",
            "_on_unknown_segment",
            "_liveness_check",
            "_keepalive_announce",
        ),
    ),
    ("repro.core.ft_tcp", "FtStack", ("listen_replicated", "decommission", "_dispatch_*")),
    ("repro.core.failure_detector", "RetransmissionDetector", ("observe_retransmission",)),
    # replication: every ReplicationStrategy subclass, resolved at
    # install time (see Tracer._install_strategies).
    # ack_channel
    ("repro.core.ack_channel", "AckChannelEndpoint", ("send", "_receive")),
    ("repro.core.ack_channel", "OrderedAckChannelEndpoint", ("send", "_receive")),
    # redirector
    (
        "repro.hydranet.redirector",
        "Redirector",
        ("__init__", "install_*", "remove_*", "entry_for", "_fence_hook", "_redirect_hook"),
    ),
    # mgmt
    (
        "repro.hydranet.daemons",
        "RedirectorDaemon",
        ("__init__", "add_peer", "set_parent", "splice_backup", "_on_message", "_on_fenced"),
    ),
    (
        "repro.hydranet.daemons",
        "HostServerDaemon",
        (
            "register",
            "unregister",
            "report_failure",
            "request_promotion",
            "send_snapshot",
            "join_ready",
            "_on_message",
        ),
    ),
    ("repro.hydranet.mgmt", "ReliableUdp", ("send", "send_unreliable", "cancel", "_receive")),
    ("repro.hydranet.host_server", "HostServer", ("__init__", "v_host", "_tunnel_endpoint")),
    ("repro.core.service", "FtNode", ("__init__",)),
    ("repro.core.heartbeat", "HeartbeatSender", ("_beat",)),
    ("repro.core.heartbeat", "HeartbeatDetector", ("on_heartbeat", "_sweep")),
    (
        "repro.core.service",
        "ReplicatedTcpService",
        ("add_primary", "add_backup", "provision_joiner", "remove_replica", "recommission"),
    ),
    # recovery
    ("repro.recovery.manager", "RecoveryManager", ("*", "_on_*", "_poll")),
    ("repro.recovery.spare_pool", "SparePool", ("add", "draft")),
    (
        "repro.recovery.state_transfer",
        None,
        ("snapshot_connections", "install_snapshot", "install_connection", "apply_delta"),
    ),
    # faults: the scheduled closures of each op run as event roots.
    ("repro.faults.injection", "FaultPlan", ("*",)),
    ("repro.faults.injection", "GrayFaultPlan", ("*",)),
    # invariants
    ("repro.invariants.monitors", "InvariantSet", ("on_*", "redirector_hook", "watch_service")),
    ("repro.invariants.monitors", None, ("attach_invariants", "attach_mesh_invariants")),
    # The fuzzer's scenario runner: what it builds through the
    # constructors above counts for their layers, the rest for this one.
    (
        "repro.invariants.fuzz",
        None,
        ("run_scenario", "build_fuzz_system", "_apply_faults", "_run_mesh_scenario"),
    ),
    # apps
    ("repro.apps.ttcp", "TtcpSender", ("start", "_pump", "_check_done", "_finish")),
    ("repro.apps.echo", "EchoClient", ("start", "_next_request", "_on_data", "_on_closed")),
    ("repro.sockets.api", "Node", ("connect", "listen", "udp_socket")),
    # metrics
    ("repro.metrics.stats", "ThroughputMeter", ("start", "record", "finish")),
    # topo
    ("repro.topo.build", None, ("compile_spec",)),
    ("repro.topo.driver", "MeshScenario", ("_spawn_clients", "_start_client", "_report")),
)

#: Classes whose instances the traced run registers (by wrapping
#: ``__init__``) so that their public counters can be read after a
#: repetition.  key -> "module:Class".
REGISTERED = {
    "sim": "repro.netsim.simulator:Simulator",
    "channel": "repro.netsim.link:Channel",
    "kernel": "repro.netsim.host:Kernel",
    "conn": "repro.tcp.tcb:TcpConnection",
    "ack": "repro.core.ack_channel:AckChannelEndpoint",
    "redirector": "repro.hydranet.redirector:Redirector",
    "rdaemon": "repro.hydranet.daemons:RedirectorDaemon",
    "ftport": "repro.core.ft_tcp:FtPort",
    "invset": "repro.invariants.monitors:InvariantSet",
}
