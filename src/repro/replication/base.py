"""Pluggable replication backends (DESIGN.md §15).

The paper's daisy chain (§4) is one point in a design space: uniform
reliable broadcast to all replicas (Hydra networking), checkpoint /
deferred-externalization replication (HyCoR), in-chain state
replication (FTC).  This package factors the replication mechanics out
of :mod:`repro.core.ft_tcp` behind one interface so each backend is a
strategy object, held to the same machine-checked contract by the
conformance matrix in ``tests/replication/``.

One strategy instance is created per :class:`~repro.core.ft_tcp.FtPort`
via :func:`create_strategy`.  The ft-TCP layer keeps ownership of the
TCB hooks, the failure detector, the catch-up log, and the epoch/fence
machinery; the strategy decides

* what a backup's filtered output turns into
  (:meth:`filter_backup_output`),
* which replicas a new connection is gated on
  (:meth:`gating_targets`),
* how membership changes re-gate existing connections
  (:meth:`on_chain_update` / :meth:`on_enter_primary`).

What the gates read is not the strategy's: every backend keeps one
:class:`~repro.replication.members.MemberTable` per connection
(``state.members``), which applies reports, answers the quiet check,
splices joiners in and pushes the gates.  Backends differ in data
(``layout``) and in when backups report.

The redirector lays replicas out per strategy: ``layout = "linear"``
is the paper's chain (each replica reports to its predecessor),
``layout = "star"`` hangs every backup directly off the primary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.core.ft_tcp import FtConnectionState, FtPort
    from repro.hydranet.mgmt import ChainUpdate
    from repro.netsim.addressing import IPAddress
    from repro.netsim.packet import TCPSegment


class ReplicationStrategy:
    """Contract every replication backend implements (DESIGN.md §15)."""

    #: Registry key; also travels in the ``Register`` message so the
    #: redirector knows which layout to push.
    name = "abstract"
    #: ``"linear"`` — the paper's daisy chain; ``"star"`` — all backups
    #: hang directly off the primary.  Also how a connection's member
    #: table admits members (:mod:`repro.replication.members`): linear —
    #: the one successor, whoever reports; star — the
    #: :meth:`gating_targets`, with the promotion fence.
    layout = "linear"
    #: Whether the backend itself reads connections' catch-up logs, so
    #: its ports retain the client stream with no recovery manager.
    reads_catchup_log = False

    def __init__(self, port: "FtPort"):
        self.port = port
        self.timer = None  # periodic, if any: FtPort.dispose() drops it

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Called once the owning port is fully constructed."""

    def on_shutdown(self) -> None:
        """Called when the owning port fail-stops."""

    # -- replica output ------------------------------------------------------

    def filter_backup_output(
        self, state: "FtConnectionState", segment: "TCPSegment"
    ) -> bool:
        """A non-primary replica produced ``segment``.  Return True to
        discard it (the backup is silent toward the client); whatever
        progress information the backend propagates leaves here."""
        raise NotImplementedError

    # -- membership --------------------------------------------------------

    def gating_targets(self) -> tuple["IPAddress", ...]:
        """The replicas a connection accepted while gated starts out
        waiting on.  The chain knows its successor only once it
        reports, so: none."""
        return ()

    def on_chain_update(
        self, update: "ChainUpdate", old_predecessor: Optional["IPAddress"]
    ) -> None:
        """Membership changed (the port already adopted the common
        fields: predecessor, has_successor, epoch bookkeeping).  With
        no successor left, every connection runs ungated — a connection
        is only ever gated while its port has a successor, so this
        changes nothing for one already ungated."""
        port = self.port
        if not port.has_successor:
            for state in port.states.values():
                state.gated = False
                state.push_gates()

    def on_enter_primary(self) -> None:
        """This replica just entered primary mode for a new epoch."""
