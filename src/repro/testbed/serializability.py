"""Conflict-serializability checking for simulated histories.

Strict two-phase locking guarantees conflict-serializable (indeed,
strict) schedules; this module *verifies* that claim on the histories
the simulator actually produced, instead of trusting the lock manager.

The check is the textbook one: build the precedence graph over
committed transactions — an edge ``T1 -> T2`` whenever they access a
common (site, granule) in conflicting modes and ``T1``'s access
happened first — and assert acyclicity.  A cycle is a serializability
violation and is reported with the offending transactions.

Enable history recording with ``SimulationConfig(record_history=True)``
(off by default: long runs would accumulate memory).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.testbed.locks import LockMode

__all__ = ["AccessRecord", "CommittedTransaction",
           "SerializabilityReport", "PrecedenceGraph", "conflict_graph",
           "check_serializable"]


@dataclass(frozen=True)
class AccessRecord:
    """One granule access by a transaction."""

    site: str
    granule: int
    mode: LockMode
    acquired_at: float

    def conflicts_with(self, other: AccessRecord) -> bool:
        """Same item, at least one exclusive."""
        return (self.site == other.site
                and self.granule == other.granule
                and not self.mode.compatible(other.mode))


@dataclass(frozen=True)
class CommittedTransaction:
    """A committed transaction's access history."""

    txn_id: str
    committed_at: float
    accesses: tuple[AccessRecord, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class SerializabilityReport:
    """Outcome of :func:`check_serializable`."""

    serializable: bool
    transactions: int
    conflict_edges: int
    cycle: tuple[str, ...] = ()
    #: one witness serial order when serializable (topological)
    serial_order: tuple[str, ...] = ()


class PrecedenceGraph:
    """A directed graph over transaction ids.  ``nodes`` and ``edges``
    list node ids and ``(source, target)`` pairs in insertion order,
    like their networkx namesakes."""

    def __init__(self) -> None:
        self.successors: dict[str, dict[str, None]] = {}

    def add_node(self, node: str) -> None:
        self.successors.setdefault(node, {})

    def add_edge(self, source: str, target: str) -> None:
        self.add_node(target)
        self.successors.setdefault(source, {})[target] = None

    @property
    def nodes(self) -> list[str]:
        return list(self.successors)

    @property
    def edges(self) -> list[tuple[str, str]]:
        return [(u, v) for u, targets in self.successors.items()
                for v in targets]


def _order_or_cycle(graph: PrecedenceGraph
                    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(topological order, ())``, or ``((), cycle)`` with the nodes of
    the first directed cycle met, by iterative depth-first search."""
    state: dict[str, bool] = {}     # True while on the search path
    postorder: list[str] = []
    for root in graph.successors:
        if root in state:
            continue
        path, stack = [root], [iter(graph.successors[root])]
        state[root] = True
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                node = path.pop()
                state[node] = False
                postorder.append(node)
            elif state.get(nxt):
                return (), tuple(path[path.index(nxt):])
            elif nxt not in state:
                path.append(nxt)
                state[nxt] = True
                stack.append(iter(graph.successors[nxt]))
    return tuple(reversed(postorder)), ()


def conflict_graph(
        history: list[CommittedTransaction]) -> PrecedenceGraph:
    """Precedence graph over a committed history.

    Edges point from the transaction whose conflicting access came
    first to the one whose access came later, which under 2PL is also
    the lock-release order.
    """
    graph = PrecedenceGraph()
    for txn in history:
        graph.add_node(txn.txn_id)
    # Bucket accesses per item so the pairwise scan stays local.
    by_item: dict[tuple[str, int], list[tuple[AccessRecord, str]]] = {}
    for txn in history:
        for access in txn.accesses:
            by_item.setdefault((access.site, access.granule), []).append(
                (access, txn.txn_id))
    for accesses in by_item.values():
        accesses.sort(key=lambda pair: pair[0].acquired_at)
        for i, (first, first_txn) in enumerate(accesses):
            for later, later_txn in accesses[i + 1:]:
                if first_txn == later_txn:
                    continue
                if first.conflicts_with(later):
                    graph.add_edge(first_txn, later_txn)
    return graph


def check_serializable(
        history: list[CommittedTransaction]) -> SerializabilityReport:
    """Check a committed history for conflict-serializability."""
    graph = conflict_graph(history)
    order, cycle = _order_or_cycle(graph)
    return SerializabilityReport(
        serializable=not cycle,
        transactions=len(graph.nodes),
        conflict_edges=len(graph.edges),
        cycle=cycle,
        serial_order=order,
    )
