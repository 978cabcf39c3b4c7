"""Pluggable replication backends behind one interface (DESIGN.md §15)."""

from .base import (
    STRATEGIES,
    ReplicationStrategy,
    available_strategies,
    create_strategy,
    register_strategy,
    strategy_layout,
)
from .broadcast import BroadcastStrategy
from .chain import ChainStrategy
from .checkpoint import CheckpointStrategy
from .members import MemberTable

__all__ = [
    "STRATEGIES",
    "MemberTable",
    "ReplicationStrategy",
    "ChainStrategy",
    "BroadcastStrategy",
    "CheckpointStrategy",
    "available_strategies",
    "create_strategy",
    "register_strategy",
    "strategy_layout",
]
