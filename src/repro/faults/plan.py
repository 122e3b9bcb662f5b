"""Declarative fault plans: what the fabric and nodes get wrong, when.

A :class:`FaultPlan` is a frozen, fully-validated description of the
faults one run injects — packet faults (drop / duplicate / delay /
reorder, filtered by traffic class, endpoint, and cycle window) and
node faults (directory stall, processor pause).  The plan itself holds
no mutable state; the :class:`~repro.faults.injector.FaultInjector`
draws every probabilistic decision from a PRNG seeded by ``plan.seed``,
so a (plan, workload, config) triple always replays the exact same
faulty execution — failures found by the chaos harness reproduce from
their seed alone.

Drops only apply to messages the protocol can recover end-to-end
(``retryable = True`` on the message class: loads, TID traffic, skips,
probes, marks, commits, aborts and their acks).  A drop selected for
any other message (invalidations, write-backs, flush requests) is
downgraded to a delay: the model is a fabric with link-level
retransmission, where loss shows up as latency for protected hop-level
traffic and as true end-to-end loss only where an end-to-end retry
exists to absorb it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

PACKET_FAULT_KINDS = ("drop", "dup", "delay", "reorder")
NODE_FAULT_KINDS = ("dir_stall", "cpu_pause")


@dataclass(frozen=True)
class PacketFault:
    """One probabilistic packet-level fault rule.

    Empty filter tuples match everything.  ``delay`` is the extra
    latency for ``delay`` faults, the lag of the second copy for
    ``dup`` faults, and the release backstop for ``reorder`` faults
    (a held packet is delivered at most ``delay`` cycles late even if
    no later packet arrives to overtake it).
    """

    kind: str
    probability: float
    traffic_classes: Tuple[str, ...] = ()
    src_nodes: Tuple[int, ...] = ()
    dst_nodes: Tuple[int, ...] = ()
    start_cycle: int = 0
    end_cycle: Optional[int] = None
    delay: int = 200

    def __post_init__(self) -> None:
        if self.kind not in PACKET_FAULT_KINDS:
            raise ValueError(
                f"packet fault kind must be one of {PACKET_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.delay < 1:
            raise ValueError(f"fault delay must be >= 1 cycle, got {self.delay}")
        if self.start_cycle < 0:
            raise ValueError(f"start_cycle must be >= 0, got {self.start_cycle}")
        if self.end_cycle is not None and self.end_cycle <= self.start_cycle:
            raise ValueError(
                f"end_cycle ({self.end_cycle}) must be after "
                f"start_cycle ({self.start_cycle})"
            )

    def matches(self, src: int, dst: int, traffic_class: str, now: int) -> bool:
        if now < self.start_cycle:
            return False
        if self.end_cycle is not None and now >= self.end_cycle:
            return False
        if self.traffic_classes and traffic_class not in self.traffic_classes:
            return False
        if self.src_nodes and src not in self.src_nodes:
            return False
        if self.dst_nodes and dst not in self.dst_nodes:
            return False
        return True


@dataclass(frozen=True)
class NodeFault:
    """A node-level outage window: the component goes quiet, then resumes.

    ``dir_stall`` pauses the node's directory server for any message
    it would handle inside the window; ``cpu_pause`` freezes the node's
    processor at its next transaction-attempt boundary inside the window.
    """

    kind: str
    node: int
    start_cycle: int
    duration: int

    def __post_init__(self) -> None:
        if self.kind not in NODE_FAULT_KINDS:
            raise ValueError(
                f"node fault kind must be one of {NODE_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.node < 0:
            raise ValueError(f"node must be >= 0, got {self.node}")
        if self.start_cycle < 0:
            raise ValueError(f"start_cycle must be >= 0, got {self.start_cycle}")
        if self.duration < 1:
            raise ValueError(f"duration must be >= 1 cycle, got {self.duration}")

    @property
    def end_cycle(self) -> int:
        return self.start_cycle + self.duration


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible set of faults for one simulation run."""

    packet_faults: Tuple[PacketFault, ...] = ()
    node_faults: Tuple[NodeFault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Tolerate lists in hand-written plans; store canonical tuples so
        # the plan stays hashable and safe inside a frozen SystemConfig.
        if not isinstance(self.packet_faults, tuple):
            object.__setattr__(self, "packet_faults", tuple(self.packet_faults))
        if not isinstance(self.node_faults, tuple):
            object.__setattr__(self, "node_faults", tuple(self.node_faults))
        for rule in self.packet_faults:
            if not isinstance(rule, PacketFault):
                raise ValueError(f"packet_faults entries must be PacketFault, got {rule!r}")
        for rule in self.node_faults:
            if not isinstance(rule, NodeFault):
                raise ValueError(f"node_faults entries must be NodeFault, got {rule!r}")

    @property
    def empty(self) -> bool:
        return not self.packet_faults and not self.node_faults

    def node_windows(self, kind: str, node: int) -> Tuple[Tuple[int, int], ...]:
        """(start, end) windows of ``kind`` faults affecting ``node``."""
        return tuple(
            (f.start_cycle, f.end_cycle)
            for f in self.node_faults
            if f.kind == kind and f.node == node
        )

    def as_dict(self) -> dict:
        """JSON-able form (counterexample files pin plans explicitly)."""
        from dataclasses import asdict

        return {
            "packet_faults": [asdict(f) for f in self.packet_faults],
            "node_faults": [asdict(f) for f in self.node_faults],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            packet_faults=tuple(
                PacketFault(**{**f, "traffic_classes": tuple(f.get("traffic_classes", ())),
                               "src_nodes": tuple(f.get("src_nodes", ())),
                               "dst_nodes": tuple(f.get("dst_nodes", ()))})
                for f in data.get("packet_faults", ())
            ),
            node_faults=tuple(
                NodeFault(**f) for f in data.get("node_faults", ())
            ),
            seed=data.get("seed", 0),
        )

    def describe(self) -> str:
        """One line per rule, for chaos-harness reports."""
        lines = []
        for f in self.packet_faults:
            window = (
                f"[{f.start_cycle}, {'∞' if f.end_cycle is None else f.end_cycle})"
            )
            scope = ",".join(f.traffic_classes) or "any-class"
            lines.append(
                f"packet {f.kind:<7} p={f.probability:.2f} {scope} "
                f"src={list(f.src_nodes) or 'any'} dst={list(f.dst_nodes) or 'any'} "
                f"window={window} delay={f.delay}"
            )
        for f in self.node_faults:
            lines.append(
                f"node   {f.kind:<9} node={f.node} "
                f"cycles [{f.start_cycle}, {f.end_cycle})"
            )
        return "\n".join(lines) if lines else "(no faults)"
