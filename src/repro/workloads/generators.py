"""Workload generators: parameter sweeps and client populations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.apps.httpd import HttpClient, HttpResponse
from repro.netsim.simulator import Simulator
from repro.sockets.api import Node

#: The packet sizes of the paper's Figure 4.
FIGURE4_PACKET_SIZES = (16, 32, 64, 128, 256, 512, 1024)


@dataclass
class RequestRecord:
    path: str
    issued_at: float
    response: Optional[HttpResponse] = None

    @property
    def done(self) -> bool:
        return self.response is not None


class HttpWorkload:
    """A closed-loop population of HTTP clients issuing deterministic
    request sequences with exponential-ish think times drawn from the
    simulator RNG."""

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[Node],
        server_ip,
        port: int = 80,
        paths: Iterable[str] = ("/object/1000",),
        requests_per_client: int = 10,
        mean_think_time: float = 0.1,
    ):
        self.sim = sim
        self.nodes = list(nodes)
        self.server_ip = server_ip
        self.port = port
        self.paths = list(paths)
        self.requests_per_client = requests_per_client
        self.mean_think_time = mean_think_time
        self.records: list[RequestRecord] = []
        self._remaining = {i: requests_per_client for i in range(len(self.nodes))}
        self.on_complete: Optional[Callable[[], None]] = None

    def start(self) -> None:
        for i in range(len(self.nodes)):
            self._issue(i)

    def _issue(self, client_index: int) -> None:
        if self._remaining[client_index] <= 0:
            return
        self._remaining[client_index] -= 1
        node = self.nodes[client_index]
        path = self.paths[
            (client_index + self.requests_per_client - self._remaining[client_index])
            % len(self.paths)
        ]
        record = RequestRecord(path, self.sim.now)
        self.records.append(record)

        def on_response(response: HttpResponse) -> None:
            record.response = response
            if self._remaining[client_index] > 0:
                think = self.sim.rng.expovariate(1.0 / self.mean_think_time)
                self.sim.schedule(think, self._issue, client_index)
            elif self.complete and self.on_complete is not None:
                self.on_complete()

        HttpClient(node, self.server_ip, self.port).get(path, on_response)

    @property
    def complete(self) -> bool:
        return all(r.done for r in self.records) and all(
            n == 0 for n in self._remaining.values()
        )

    @property
    def successes(self) -> int:
        return sum(1 for r in self.records if r.done and r.response.ok)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if r.done and not r.response.ok)

    def latencies(self) -> list[float]:
        return [r.response.elapsed for r in self.records if r.done]
