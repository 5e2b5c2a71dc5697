"""Node/edge feature encodings, target normalization, z-score normalizer."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .graph import Graph


class VocabularyError(ValueError):
    pass


class DegenerateFreestreamError(ValueError):
    pass


DEFAULT_CELL_TYPES = ("tet", "hex", "wedge", "pyramid")


@dataclass(frozen=True)
class FeatureDesignEncoding:
    """Mesh-feature encoding: relative coords to the per-graph median point,
    L1 norm, cell-type multi-hot, neighbor count."""

    cell_type_vocabulary: tuple[str, ...] = DEFAULT_CELL_TYPES

    @property
    def node_feature_width(self) -> int:
        return 5 + len(self.cell_type_vocabulary)


@dataclass(frozen=True)
class AirfoilEncoding:
    """Surface-chain encoding: coords relative to (0, 0), upper/lower
    one-hot, broadcast freestream (u0, v0)."""

    freestream: tuple[float, float]

    node_feature_width = 6

    def __post_init__(self):
        fs = self.freestream
        try:
            # bool is a numbers.Real, so (True, False) would pass as (1, 0)
            ok = len(fs) == 2 and all(isinstance(c, numbers.Real) and not isinstance(c, bool)
                                      and math.isfinite(c) for c in fs)
        except (TypeError, OverflowError):     # a JSON integer past float range
            ok = False
        if not ok:
            raise ValueError(f"freestream must be two finite numbers (u0, v0), got {fs!r}")


def reference_point_feature_design(positions: np.ndarray) -> np.ndarray:
    """(x_median, y_median, 0): the build direction (z) keeps a fixed origin."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape[0] < 1:
        raise ValueError("reference point of an empty graph is undefined")
    return np.array([np.median(positions[:, 0]), np.median(positions[:, 1]), 0.0])


def compute_node_degree(graph: Graph) -> np.ndarray:
    """Distinct-neighbor count per node (undirected degree)."""
    return np.bincount(graph.receivers, minlength=graph.num_nodes)


def _cell_type_columns(node_cell_types: list, vocabulary: tuple, n: int):
    """(node, vocabulary column) of every label, in node order.

    Raises ValueError unless there is one list of labels per node, and
    VocabularyError naming the first node with an unknown label."""
    vocab = {label: j for j, label in enumerate(vocabulary)}
    try:
        counts = np.fromiter(map(len, node_cell_types), np.int64)
        labels = list(chain.from_iterable(node_cell_types))
        columns = np.fromiter(map(vocab.get, labels, repeat(-1)), np.int64, count=len(labels))
    except TypeError as exc:
        raise ValueError(f"node_cell_types must be one list of labels per node: {exc}") from None
    if len(counts) != n:
        raise ValueError(f"got cell types for {len(counts)} nodes, graph has {n}")
    nodes = np.repeat(np.arange(n), counts)
    unknown = np.flatnonzero(columns < 0)
    if unknown.size:
        first = unknown[0]
        raise VocabularyError(f"node {nodes[first]}: unknown cell type {labels[first]!r}")
    return nodes, columns


def encode_nodes_feature_design(graph: Graph, encoding: FeatureDesignEncoding,
                                node_cell_types: list) -> np.ndarray:
    """Per node: [x - x_ref | L1 norm | cell-type multi-hot | degree].

    node_cell_types gives, per node, the labels of every cell type the node
    belongs to (a node shared by cells of different types gets multiple 1s).
    """
    n = graph.num_nodes
    vocabulary = encoding.cell_type_vocabulary
    nodes, columns = _cell_type_columns(node_cell_types, vocabulary, n)
    x_ref = reference_point_feature_design(graph.positions)
    rel = graph.positions - x_ref
    l1 = np.abs(rel).sum(axis=1, keepdims=True)
    onehot = np.zeros((n, len(vocabulary)))
    onehot[nodes, columns] = 1.0
    deg = compute_node_degree(graph).astype(np.float64)[:, None]
    return np.hstack([rel, l1, onehot, deg])


def encode_nodes_airfoil(graph: Graph, encoding: AirfoilEncoding,
                         upper_flags: np.ndarray) -> np.ndarray:
    """Per node: [x - (0,0) | (1,0) upper / (0,1) lower | u0, v0]."""
    upper_flags = np.asarray(upper_flags, dtype=bool)
    n = graph.num_nodes
    if upper_flags.shape != (n,):
        raise ValueError(f"got surface flags of shape {upper_flags.shape}, "
                         f"graph has {n} nodes")
    onehot = np.zeros((n, 2))
    onehot[upper_flags, 0] = 1.0
    onehot[~upper_flags, 1] = 1.0
    u0, v0 = encoding.freestream
    fs = np.tile([u0, v0], (n, 1)).astype(np.float64)
    return np.hstack([graph.positions, onehot, fs])


def encode_edges(graph: Graph) -> np.ndarray:
    """Per directed edge (j -> i): [x_j - x_i | L2 norm]."""
    disp = graph.positions[graph.senders] - graph.positions[graph.receivers]
    norm = np.linalg.norm(disp, axis=1, keepdims=True)
    return np.hstack([disp, norm])


@dataclass
class Normalizer:
    """Per-column z-score fitted on training data; zero-variance columns pass
    through unchanged."""

    shift: np.ndarray = field(default=None)
    scale: np.ndarray = field(default=None)

    @property
    def fitted(self) -> bool:
        return self.shift is not None

    def fit(self, *matrices: np.ndarray) -> "Normalizer":
        stacked = np.concatenate([np.asarray(m, dtype=np.float64) for m in matrices], axis=0)
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        constant = std == 0.0
        self.shift = np.where(constant, 0.0, mean)
        self.scale = np.where(constant, 1.0, std)
        return self

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise RuntimeError("Normalizer.apply called before fit")
        return (np.asarray(matrix, dtype=np.float64) - self.shift) / self.scale

    def invert(self, matrix: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise RuntimeError("Normalizer.invert called before fit")
        return np.asarray(matrix, dtype=np.float64) * self.scale + self.shift


def normalize_pressure_target(p: np.ndarray, u0: float, v0: float,
                              use_speed_squared: bool = True):
    """Scale pressure by the freestream velocity term, then de-mean per graph.

    Returns (normalized pressure, subtracted mean); the mean is needed to
    invert. use_speed_squared=False divides by the speed magnitude instead.
    """
    vel = u0 * u0 + v0 * v0
    if vel == 0.0:
        raise DegenerateFreestreamError("freestream (0, 0) gives no velocity scale")
    if not use_speed_squared:
        vel = np.sqrt(vel)
    scaled = np.asarray(p, dtype=np.float64) / vel
    mean = scaled.mean()
    return scaled - mean, mean


def denormalize_pressure_target(p_norm: np.ndarray, mean: float, u0: float, v0: float,
                                use_speed_squared: bool = True) -> np.ndarray:
    vel = u0 * u0 + v0 * v0
    if not use_speed_squared:
        vel = np.sqrt(vel)
    return (np.asarray(p_norm, dtype=np.float64) + mean) * vel
