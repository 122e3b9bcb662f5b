"""Message transport over the mesh with latency, bandwidth and jitter.

Delivery time for a packet from ``src`` to ``dst``:

    egress wait (per-node bandwidth serialization, optional)
  + hops(src, dst) * link_latency          (Table 2 / Figure 8 knob)
  + router overhead (fixed)
  + serialization  (total_bytes / link_bytes_per_cycle, optional)
  + jitter          (deterministic pseudo-random, unordered networks only)

The network is *unordered* by default, as in the paper ("additional
mechanisms are required to accommodate ... its distributed memory and
unordered interconnection network"): two packets between the same pair of
nodes may be delivered out of send order because of jitter.  Protocol
layers must (and do) tolerate this; an ``ordered=True`` mode exists for
differential testing.

Jitter comes from an instance-owned generator, never the module-global
``random`` state: the per-interconnect ``random.Random(seed)`` Mersenne
Twister stream, drawn via a bound ``_randbelow`` — the exact value
sequence the original per-packet ``randint`` produced, minus two layers
of call overhead.
"""

from __future__ import annotations

from collections import defaultdict
from random import Random
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.network.message import HEADER_BYTES, TRAFFIC_CLASSES, Packet
from repro.network.topology import MeshTopology
from repro.sim.engine import Engine

Handler = Callable[[Packet], None]

_CLASS_INDEX = {cls: i for i, cls in enumerate(TRAFFIC_CLASSES)}
_OVERHEAD = _CLASS_INDEX["overhead"]


class TrafficStats:
    """Byte counters by class and by receiving node (Figure 9's inputs).

    Counters are fixed-index lists on the hot path; the dict views the
    analysis layer reads (:attr:`bytes_by_class`, :attr:`bytes_into_node`,
    :attr:`bytes_out_of_node`) are built on demand.
    """

    __slots__ = ("_by_class", "_into", "_out", "packets", "total_hop_cycles")

    def __init__(self, n_nodes: int = 0) -> None:
        self._by_class: List[int] = [0] * len(TRAFFIC_CLASSES)
        self._into: List[int] = [0] * n_nodes
        self._out: List[int] = [0] * n_nodes
        self.packets = 0
        self.total_hop_cycles = 0

    def _grow(self, node: int) -> None:
        pad = node + 1 - len(self._into)
        if pad > 0:
            self._into.extend([0] * pad)
            self._out.extend([0] * pad)

    def record(self, packet: Packet, hop_cycles: int) -> None:
        self.packets += 1
        by_class = self._by_class
        by_class[_CLASS_INDEX[packet.traffic_class]] += packet.payload_bytes
        by_class[_OVERHEAD] += HEADER_BYTES
        total = packet.payload_bytes + HEADER_BYTES
        if packet.dst >= len(self._into) or packet.src >= len(self._into):
            self._grow(max(packet.dst, packet.src))
        self._into[packet.dst] += total
        self._out[packet.src] += total
        self.total_hop_cycles += hop_cycles

    def record_replica(self, packet: Packet) -> None:
        """A fabric-replicated multicast copy: one route byte of overhead."""
        self.packets += 1
        self._by_class[_OVERHEAD] += 1
        if packet.dst >= len(self._into):
            self._grow(packet.dst)
        self._into[packet.dst] += 1

    @property
    def bytes_by_class(self) -> Dict[str, int]:
        return dict(zip(TRAFFIC_CLASSES, self._by_class))

    @property
    def bytes_into_node(self) -> Dict[int, int]:
        return defaultdict(
            int, {node: count for node, count in enumerate(self._into) if count}
        )

    @property
    def bytes_out_of_node(self) -> Dict[int, int]:
        return defaultdict(
            int, {node: count for node, count in enumerate(self._out) if count}
        )

    @property
    def total_bytes(self) -> int:
        return sum(self._by_class)

    def per_class_fraction(self) -> Dict[str, float]:
        total = self.total_bytes
        if not total:
            return {cls: 0.0 for cls in TRAFFIC_CLASSES}
        return {
            cls: count / total
            for cls, count in zip(TRAFFIC_CLASSES, self._by_class)
        }


class Interconnect:
    """The machine's 2-D mesh transport."""

    def __init__(
        self,
        engine: Engine,
        n_nodes: int,
        link_latency: int = 3,
        router_latency: int = 1,
        local_latency: int = 1,
        link_bytes_per_cycle: Optional[int] = 16,
        ordered: bool = False,
        jitter: int = 2,
        seed: int = 0,
        link_contention: bool = False,
    ) -> None:
        self.engine = engine
        self.topology = MeshTopology(n_nodes)
        self.link_latency = link_latency
        self.router_latency = router_latency
        self.local_latency = local_latency
        self.link_bytes_per_cycle = link_bytes_per_cycle
        self.ordered = ordered
        self.jitter = jitter if not ordered else 0
        self._rng = Random(seed)
        # randint(0, j) == _randbelow(j + 1) on the same Mersenne Twister
        # stream; binding it skips the randint/randrange wrappers while
        # producing bit-identical draws.
        self._draw = getattr(
            self._rng, "_randbelow", None
        ) or (lambda n: self._rng.randrange(n))
        self._handlers: Dict[int, Handler] = {}
        self._egress_free_at: List[int] = [0] * n_nodes
        self.link_contention = link_contention
        self._link_free_at: Dict[tuple, int] = defaultdict(int)
        self.stats = TrafficStats(n_nodes)
        #: Optional :class:`repro.faults.injector.FaultInjector`; when set
        #: it owns final delivery scheduling (drop/dup/delay/reorder).
        #: None (the default) keeps the fault-free fast path untouched.
        self.fault_injector = None

    # -- wiring -----------------------------------------------------------

    def register(self, node: int, handler: Handler) -> None:
        """Attach the node's message handler (its communication assist)."""
        if node in self._handlers:
            raise ValueError(f"node {node} already registered")
        self._handlers[node] = handler

    # -- timing -----------------------------------------------------------

    def transit_cycles(self, src: int, dst: int, total_bytes: int) -> int:
        """Pure wire time, excluding egress queueing and jitter."""
        hops = self.topology.hops(src, dst)
        if hops == 0:
            return self.local_latency
        cycles = hops * self.link_latency + self.router_latency
        if self.link_bytes_per_cycle:
            cycles += (total_bytes + self.link_bytes_per_cycle - 1) // self.link_bytes_per_cycle
        return cycles

    def _contended_transit(
        self, src: int, dst: int, total_bytes: int, start_offset: int
    ) -> int:
        """Wormhole-style XY traversal with per-link occupancy.

        The packet's head flit reserves each directed link in path order;
        a busy link stalls the packet until it frees.  Each link stays
        busy for the packet's serialization time.
        """
        serialization = 1
        if self.link_bytes_per_cycle:
            serialization = max(
                1,
                (total_bytes + self.link_bytes_per_cycle - 1)
                // self.link_bytes_per_cycle,
            )
        now = self.engine.now + start_offset
        arrival = now
        link_free = self._link_free_at
        for link in self.topology.route(src, dst):
            enter = arrival if arrival >= link_free[link] else link_free[link]
            link_free[link] = enter + serialization
            arrival = enter + self.link_latency
        arrival += self.router_latency + serialization
        return arrival - now

    # -- sending ----------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        payload_bytes: int,
        traffic_class: str,
        replica: bool = False,
    ) -> Packet:
        """Dispatch a packet; the destination handler runs at delivery time.

        ``replica`` marks in-fabric copies of a multicast: they are
        delivered normally but charged only a route byte (the routers
        replicate the flit; it is not re-injected at the source).
        """
        packet = Packet(src, dst, payload, payload_bytes, traffic_class)
        engine = self.engine
        now = engine.now
        packet.send_time = now
        total_bytes = payload_bytes + HEADER_BYTES
        bandwidth = self.link_bytes_per_cycle
        hops = self.topology.hops(src, dst)
        # Egress serialization: a node injects one packet at a time.
        if replica or not bandwidth:
            delay = 0
        else:
            free_at = self._egress_free_at[src]
            if free_at < now:
                free_at = now
            self._egress_free_at[src] = (
                free_at + (total_bytes + bandwidth - 1) // bandwidth
            )
            delay = free_at - now
        if self.link_contention and src != dst:
            delay += self._contended_transit(src, dst, total_bytes, delay)
        elif hops == 0:
            delay += self.local_latency
        else:
            delay += hops * self.link_latency + self.router_latency
            if bandwidth:
                delay += (total_bytes + bandwidth - 1) // bandwidth
        if self.jitter:
            delay += self._draw(self.jitter + 1)
        packet.deliver_time = now + delay
        if replica:
            self.stats.record_replica(packet)
        else:
            self.stats.record(packet, hops * self.link_latency)
        if self.fault_injector is None:
            engine.schedule_call(delay, self._deliver, packet)
        else:
            self.fault_injector.dispatch(engine, self._deliver, packet, delay)
        return packet

    def multicast(
        self,
        src: int,
        dsts: Iterable[int],
        payload: Any,
        payload_bytes: int,
        traffic_class: str,
    ) -> int:
        """Limited multicast (Section 2.2: "limited multicast messages are
        cheap in a high bandwidth interconnect").

        One full packet is injected and charged; the fabric replicates it
        toward the remaining destinations, each copy costing only a route
        byte of overhead.  Every destination still receives its own
        delivery with an independent latency.
        """
        count = 0
        for dst in dsts:
            self.send(src, dst, payload, payload_bytes, traffic_class,
                      replica=count > 0)
            count += 1
        return count

    def _deliver(self, packet: Packet) -> None:
        handler = self._handlers.get(packet.dst)
        if handler is None:
            raise RuntimeError(f"packet to unregistered node {packet.dst}: {packet!r}")
        handler(packet)
