"""Pluggable replication backends behind one interface (DESIGN.md §15)."""

from .base import ReplicationStrategy
from .broadcast import BroadcastStrategy
from .chain import ChainStrategy
from .checkpoint import CheckpointStrategy
from .members import MemberTable

#: name -> strategy class: every name ``setportopt``, scenario specs,
#: the fuzzer's ``--backend`` and the conformance matrix accept.
STRATEGIES: dict[str, type[ReplicationStrategy]] = {
    "broadcast": BroadcastStrategy,
    "chain": ChainStrategy,
    "checkpoint": CheckpointStrategy,
}


def create_strategy(name: str, port) -> ReplicationStrategy:
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replication strategy {name!r}; "
            f"available: {', '.join(sorted(STRATEGIES))}"
        ) from None
    return cls(port)


def available_strategies() -> tuple[str, ...]:
    return tuple(sorted(STRATEGIES))


def chain_position(strategy: str, replicas, i: int) -> tuple:
    """Where replica ``i`` of ``replicas`` (primary first) sits in the
    layout the ``strategy`` backend runs: ``(predecessor, has_successor)``.
    The predecessor is whom it reports to — and, for a joiner appended
    at ``i = len(replicas) - 1``, the donor it catches up from.  Linear
    (the paper's chain): the replica before it; gated on unless last.
    Star: the primary; only the primary gates, on everyone."""
    if STRATEGIES[strategy].layout == "star":
        return (replicas[0] if i > 0 else None), (i == 0 and len(replicas) > 1)
    return (replicas[i - 1] if i > 0 else None), i < len(replicas) - 1


__all__ = [
    "STRATEGIES",
    "MemberTable",
    "ReplicationStrategy",
    "ChainStrategy",
    "BroadcastStrategy",
    "CheckpointStrategy",
    "available_strategies",
    "chain_position",
    "create_strategy",
]
