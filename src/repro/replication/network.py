"""A simulated wide-area network for inter-site replication.

Point-to-point messages with per-pair latency, delivered as events on
the shared discrete-event simulator. Partitions buffer messages; healing
flushes them. This stands in for the paper's Netty transport and the
Google Cloud three-zone deployment of §7.1.6 — what matters for the
experiments is asynchrony and latency, both of which are preserved.

Transport behaviour is counted once, in plain instance counters
(``messages_sent`` etc., used by the cluster harness). The network's own
``registry`` mirrors them as the ``tardis_net_*`` metrics when it is
read (once it is enabled), so replication benchmarks report the
transport alongside the stores. The counters reconcile at any instant::

    sent == delivered + in_flight + buffered + dropped
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.errors import UnknownSiteError
from repro.obs.metrics import MetricsRegistry
from repro.sim.des import Simulator


class SimNetwork:
    """Latency-injecting, partitionable message fabric."""

    def __init__(self, sim: Simulator, default_latency_ms: float = 50.0):
        self._sim = sim
        self._default = default_latency_ms
        self._latency: Dict[Tuple[str, str], float] = {}
        self._handlers: Dict[str, Callable[[str, Any], None]] = {}
        self._partitioned: set = set()
        self._buffered: Dict[Tuple[str, str], List[Any]] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        #: messages parked behind a partition over the network's lifetime.
        self.messages_buffered = 0
        #: buffered messages re-scheduled by a heal.
        self.buffered_flushed = 0
        #: buffered messages discarded via :meth:`drop_buffered`.
        self.buffered_dropped = 0
        #: messages scheduled but not yet delivered.
        self._in_flight = 0
        #: off until a reader turns it on; the counts above are mirrored
        #: into it on read.
        self.registry = MetricsRegistry(enabled=False)
        self.registry.collect = self._mirror_counts

    def _mirror_counts(self) -> None:
        """Each transport count once it is nonzero (the registry's hook)."""
        registry = self.registry
        if self.messages_sent:
            registry.counter("tardis_net_messages_sent_total").mirror(self.messages_sent)
        if self.messages_delivered:
            registry.counter("tardis_net_messages_delivered_total").mirror(
                self.messages_delivered
            )
        if self.messages_buffered:
            registry.counter("tardis_net_buffered_total").mirror(self.messages_buffered)
        if self.buffered_flushed:
            registry.counter("tardis_net_buffered_flushed_total").mirror(self.buffered_flushed)
        if self.buffered_dropped:
            registry.counter("tardis_net_buffered_dropped_total").mirror(self.buffered_dropped)

    def connect(self, site: str, handler: Callable[[str, Any], None]) -> None:
        """Register ``handler(src, message)`` as ``site``'s inbox."""
        self._handlers[site] = handler

    def sites(self) -> List[str]:
        return list(self._handlers)

    def set_latency(self, src: str, dst: str, latency_ms: float) -> None:
        """One-way latency for the (src, dst) pair (set both ways for RTT)."""
        self._latency[(src, dst)] = latency_ms

    def latency(self, src: str, dst: str) -> float:
        return self._latency.get((src, dst), self._default)

    # -- partitions ----------------------------------------------------------

    def partition(self, a: str, b: str) -> None:
        """Cut both directions between ``a`` and ``b``; messages buffer."""
        self._partitioned.add((a, b))
        self._partitioned.add((b, a))

    def heal(self, a: str, b: str) -> None:
        """Restore the link and flush buffered messages, in send order."""
        for pair in ((a, b), (b, a)):
            self._partitioned.discard(pair)
            flushed = self._buffered.pop(pair, [])
            self.buffered_flushed += len(flushed)
            for message in flushed:
                self._schedule(pair[0], pair[1], message)

    def drop_buffered(self, a: str, b: str) -> int:
        """Discard messages buffered behind the ``a``/``b`` partition.

        Models a link whose outage outlived its buffers (lost gossip);
        returns the number of messages dropped.
        """
        dropped = 0
        for pair in ((a, b), (b, a)):
            dropped += len(self._buffered.pop(pair, []))
        self.buffered_dropped += dropped
        return dropped

    # -- messaging --------------------------------------------------------------

    def send(self, src: str, dst: str, message: Any) -> None:
        if dst not in self._handlers:
            raise UnknownSiteError("no site %r" % dst)
        self.messages_sent += 1
        if (src, dst) in self._partitioned:
            self._buffered.setdefault((src, dst), []).append(message)
            self.messages_buffered += 1
            return
        self._schedule(src, dst, message)

    def broadcast(self, src: str, message: Any) -> None:
        for dst in self._handlers:
            if dst != src:
                self.send(src, dst, message)

    def _schedule(self, src: str, dst: str, message: Any) -> None:
        self._in_flight += 1

        def deliver() -> None:
            self._in_flight -= 1
            self.messages_delivered += 1
            self._handlers[dst](src, message)

        self._sim.schedule(self.latency(src, dst), deliver)

    # -- introspection -----------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Messages scheduled on the simulator but not yet delivered."""
        return self._in_flight

    @property
    def buffered_count(self) -> int:
        """Messages currently parked behind partitions."""
        return sum(len(msgs) for msgs in self._buffered.values())

    def __repr__(self) -> str:
        return "<SimNetwork sites=%d sent=%d delivered=%d buffered=%d>" % (
            len(self._handlers),
            self.messages_sent,
            self.messages_delivered,
            self.buffered_count,
        )
