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


def strategy_layout(name: str) -> str:
    """Chain layout the redirector should push for ``name``."""
    return STRATEGIES[name].layout


__all__ = [
    "STRATEGIES",
    "MemberTable",
    "ReplicationStrategy",
    "ChainStrategy",
    "BroadcastStrategy",
    "CheckpointStrategy",
    "available_strategies",
    "create_strategy",
    "strategy_layout",
]
