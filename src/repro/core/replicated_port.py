"""Replicated ports (paper §4.1).

The paper marks a TCP port *replicated* with::

    setportopt(port, mode, detector_parameters)

before the server program binds to it.  Here those options are
arguments of the one binding call, ``FtStack.listen_replicated``:
``mode`` says whether the replica binding to the port acts as the
primary or a backup, and the detector parameters tune the failure
estimator for the port.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


#: The successor is named as a suspect if the acknowledgement channel
#: has been quiet for this long (seconds) while connections stall.
SUCCESSOR_QUIET = 1.0


class PortMode(enum.Enum):
    PRIMARY = "primary"
    BACKUP = "backup"


@dataclass(frozen=True)
class DetectorParams:
    """Failure-detector tuning for one replicated port.

    ``threshold`` is the number of observed client retransmissions
    before a reconfiguration is initiated — the paper's trade-off
    between detection latency and false positives.  It should stay
    above TCP's own fast-retransmit trigger (3 duplicate ACKs) so the
    detector does not interfere with congestion control.
    """

    threshold: int = 4
    #: Retransmissions are counted within a sliding window this long.
    window: float = 10.0
    #: Minimum spacing between successive failure reports.
    cooldown: float = 2.0
    #: Graceful degradation (DESIGN.md §14): when set, a successor that
    #: keeps *talking* on the acknowledgement channel but leaves our
    #: output blocked for longer than this is reported as a suspect —
    #: the gray-failure case (slow-but-alive replica) the
    #: ``SUCCESSOR_QUIET`` check is blind to.  ``None`` (the default)
    #: disables the check entirely, preserving classic fail-stop-only
    #: behaviour.
    degradation_timeout: Optional[float] = None

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.window <= 0 or self.cooldown < 0:
            raise ValueError("bad detector window/cooldown")
        if self.degradation_timeout is not None and self.degradation_timeout <= 0:
            raise ValueError("degradation_timeout must be positive")
