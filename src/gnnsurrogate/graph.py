"""Graph containers and constructors for mesh / surface-chain geometry."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np


class InvalidMeshError(ValueError):
    pass


class InvalidChainError(ValueError):
    pass


class IncompatibleGraphsError(ValueError):
    pass


@dataclass
class Graph:
    """A directed graph over mesh/surface nodes.

    Edges are stored as an (E, 2) int array of (sender, receiver) pairs,
    sorted by (receiver, sender) so that incoming-edge aggregation is a
    contiguous scan. Treat instances as immutable after construction.
    """

    positions: np.ndarray                     # (N, D)
    edges: np.ndarray                         # (E, 2) int, [sender, receiver]
    node_features: np.ndarray | None = None   # (N, d_v)
    edge_features: np.ndarray | None = None   # (E, d_e)
    node_targets: np.ndarray | None = None    # (N, d_y)
    graph_target: np.ndarray | None = None    # (d_G,)

    @property
    def num_nodes(self) -> int:
        return self.positions.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def senders(self) -> np.ndarray:
        return self.edges[:, 0]

    @property
    def receivers(self) -> np.ndarray:
        return self.edges[:, 1]

    # `dataclasses.replace`, kept under the name the acceptance suite calls
    with_features = replace


@dataclass
class BatchedGraph:
    """Disjoint union of member graphs plus the node ranges of each member."""

    graph: Graph
    segments: list[tuple[int, int]] = field(default_factory=list)  # (start, length)
    graph_targets: np.ndarray | None = None   # (m, d_G)

    def segment_ids(self) -> np.ndarray:
        """Per-node member index, shape (N_total,)."""
        lengths = [length for _, length in self.segments]
        return np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)


def _first_fault(cells, n: int) -> str:
    """The message for the first bad cell, checked in cell order: a cell must
    be a sequence of >= 2 entries, each an integer node index in [0, n). A
    JSON boolean is no index, though Python counts it as an integer."""
    try:
        cells = list(cells)
    except TypeError:
        return f"cells is {cells!r}, not a list of cells"
    for ci, cell in enumerate(cells):
        try:
            size = len(cell)
        except TypeError:
            return f"cell {ci} is {cell!r}, not a list of node indices"
        if size < 2:
            return f"cell {ci} has {size} nodes, need >= 2"
        for idx in cell:
            if isinstance(idx, bool) or not isinstance(idx, numbers.Integral):
                return f"cell {ci} has node index {idx!r}, not an integer"
            if not (0 <= idx < n):
                return f"cell {ci} references node {idx}, have {n} nodes"
    return "cells are not lists of node indices"


def _cell_nodes(cells, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell node counts and the cells' node indices, concatenated.

    Checks every cell at once; on a fault, raises InvalidMeshError naming
    the first bad cell (see `_first_fault`)."""
    try:
        lengths = np.fromiter(map(len, cells), np.int64)
        types = set(map(type, chain.from_iterable(cells)))
        if all(issubclass(t, numbers.Integral) and t is not bool for t in types):
            nodes = np.fromiter(chain.from_iterable(cells), np.int64,
                                count=int(lengths.sum()))
            if (lengths.min(initial=2) >= 2 and nodes.min(initial=0) >= 0
                    and nodes.max(initial=-1) < n):
                return lengths, nodes
    except (TypeError, OverflowError):
        pass
    raise InvalidMeshError(_first_fault(cells, n))


def build_from_mesh(positions, cells) -> Graph:
    """Derive the bidirectional edge set from cell connectivity.

    Each cell is an ordered tuple of node indices; consecutive pairs (plus
    the closing pair for cells of >= 3 nodes) become undirected edges,
    deduplicated across cells, then emitted in both directions. A bad cell
    raises InvalidMeshError naming the first one.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    lengths, nodes = _cell_nodes(cells, n)
    # each node pairs with the next one in its cell, the last with the first;
    # a 2-node cell's closing pair repeats its one edge, which unique drops
    successor = np.arange(1, len(nodes) + 1)
    ends = np.cumsum(lengths) - 1
    successor[ends] = ends - lengths + 1
    a, b = nodes, nodes[successor]
    distinct = a != b   # self-pairs from repeated nodes are no edge
    # undirected edges keyed lo * n + hi
    undirected = np.unique(np.minimum(a, b)[distinct] * n + np.maximum(a, b)[distinct])
    lo, hi = np.divmod(undirected, n)
    # both directions, keyed receiver * n + sender, so one sort orders them
    keys = np.sort(np.concatenate([undirected, hi * n + lo]))
    receivers, senders = np.divmod(keys, n)
    return Graph(positions=positions, edges=np.column_stack([senders, receivers]))


def build_surface_chain(positions, closed: bool = False) -> Graph:
    """Connect each node to its predecessor and successor in traversal order."""
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if n < 2:
        raise InvalidChainError(f"chain needs >= 2 nodes, got {n}")
    node = np.arange(n)
    neighbors = np.column_stack([node - 1, node + 1])   # each receiver's senders
    receivers = np.repeat(node, 2)
    if closed and n > 2:
        senders = np.sort(neighbors % n, axis=1).ravel()
    else:  # the ends have one neighbor each
        senders, receivers = neighbors.ravel()[1:-1], receivers[1:-1]
    return Graph(positions=positions, edges=np.column_stack([senders, receivers]))


def merge_batch(graphs: list[Graph]) -> BatchedGraph:
    """Merge graphs into one disconnected graph with offset edge indices."""
    if not graphs:
        raise IncompatibleGraphsError("cannot merge an empty list of graphs")

    def width(arr):
        return None if arr is None else arr.shape[1]

    ref = graphs[0]
    for g in graphs[1:]:
        if g.dim != ref.dim:
            raise IncompatibleGraphsError("member graphs have mixed position dims")
        for attr in ("node_features", "edge_features", "node_targets"):
            if width(getattr(g, attr)) != width(getattr(ref, attr)):
                raise IncompatibleGraphsError(f"member graphs disagree on {attr} width")
        if (g.graph_target is None) != (ref.graph_target is None):
            raise IncompatibleGraphsError("member graphs disagree on graph_target presence")
        if np.shape(g.graph_target) != np.shape(ref.graph_target):
            raise IncompatibleGraphsError(
                f"member graphs disagree on graph_target width: "
                f"{np.shape(ref.graph_target)} and {np.shape(g.graph_target)}")

    segments = []
    offset = 0
    edge_blocks = []
    for g in graphs:
        segments.append((offset, g.num_nodes))
        edge_blocks.append(g.edges + offset)
        offset += g.num_nodes

    def cat(attr):
        if getattr(ref, attr) is None:
            return None
        return np.concatenate([getattr(g, attr) for g in graphs], axis=0)

    merged = Graph(
        positions=np.concatenate([g.positions for g in graphs], axis=0),
        edges=np.concatenate(edge_blocks, axis=0),
        node_features=cat("node_features"),
        edge_features=cat("edge_features"),
        node_targets=cat("node_targets"),
    )
    graph_targets = None
    if ref.graph_target is not None:
        graph_targets = np.stack([g.graph_target for g in graphs], axis=0)
    return BatchedGraph(graph=merged, segments=segments, graph_targets=graph_targets)
