"""Dataset records on disk, Selig airfoil ingestion, synthetic data, and the
featurization pipeline turning records into model-ready graphs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.spatial import Delaunay

from .graph import (Graph, InvalidChainError, InvalidMeshError, build_from_mesh,
                    build_surface_chain)
from .features import (
    DEFAULT_CELL_TYPES, AirfoilEncoding, FeatureDesignEncoding, Normalizer,
    denormalize_pressure_target, encode_edges, encode_nodes_airfoil,
    encode_nodes_feature_design, normalize_pressure_target,
)

DATASET_FORMAT = "gnn-surrogate-dataset"
DATASET_SCHEMA_VERSION = 1


class DatasetFormatError(ValueError):
    pass


class SeligParseError(ValueError):
    pass


@dataclass
class GraphRecord:
    graph_id: str
    positions: np.ndarray                     # (N, D), D = 2 or 3
    cells: list | None = None                 # mesh connectivity, OR:
    chain: bool = False
    closed: bool = False
    node_cell_types: list | None = None       # per node, labels of touching cells
    upper_flags: np.ndarray | None = None     # per node, airfoil/chain surfaces
    freestream: tuple | None = None           # (u0, v0)
    node_target: np.ndarray | None = None     # physical scale, (N,) or (N, d_y)
    graph_target: np.ndarray | None = None    # physical scale, (d_G,)

    def validate(self) -> "GraphRecord":
        """Raise DatasetFormatError naming the record if its arrays are not
        finite or node_target does not have one row per node."""
        for name in ("positions", "node_target", "graph_target"):
            values = getattr(self, name)
            if values is not None and not np.isfinite(values).all():
                raise DatasetFormatError(f"record {self.graph_id}: non-finite {name}")
        if self.positions.ndim != 2:
            raise DatasetFormatError(
                f"record {self.graph_id}: positions must be (N, D), got {self.positions.shape}")
        n = self.positions.shape[0]
        if self.node_target is not None and (self.node_target.ndim == 0
                                             or self.node_target.shape[0] != n):
            raise DatasetFormatError(
                f"record {self.graph_id}: node_target shape {self.node_target.shape}, "
                f"expected {n} rows (one per node)")
        return self

    def build_topology(self) -> Graph:
        """The record's graph; a bad mesh or chain raises DatasetFormatError
        naming the record."""
        if not self.chain and self.cells is None:
            raise DatasetFormatError(f"record {self.graph_id}: neither chain nor cells")
        try:
            if self.chain:
                return build_surface_chain(self.positions, closed=self.closed)
            return build_from_mesh(self.positions, self.cells)
        except (InvalidMeshError, InvalidChainError) as exc:
            raise DatasetFormatError(f"record {self.graph_id}: {exc}") from exc


def _record_to_json(rec: GraphRecord) -> dict:
    out = {"id": rec.graph_id, "dim": int(rec.positions.shape[1]),
           "positions": rec.positions.tolist()}
    if rec.chain:
        out["chain"] = True
        out["closed"] = bool(rec.closed)
    else:
        out["cells"] = [list(map(int, c)) for c in rec.cells]
    if rec.node_cell_types is not None:
        out["node_cell_types"] = [list(t) for t in rec.node_cell_types]
    if rec.upper_flags is not None:
        out["upper_flags"] = [bool(b) for b in rec.upper_flags]
    if rec.freestream is not None:
        out["freestream"] = [float(rec.freestream[0]), float(rec.freestream[1])]
    if rec.node_target is not None:
        out["node_target"] = rec.node_target.tolist()
    if rec.graph_target is not None:
        out["graph_target"] = np.atleast_1d(rec.graph_target).tolist()
    return out


def _flags_from_json(flags) -> np.ndarray:
    """JSON booleans only: numpy would read any non-empty string, "false"
    included, as True."""
    if not isinstance(flags, list) or not all(isinstance(f, bool) for f in flags):
        raise ValueError("upper_flags must be a list of JSON booleans (true/false)")
    return np.array(flags, dtype=bool)


def _bool_from_json(obj: dict, name: str) -> bool:
    """`obj[name]`, False if absent: a JSON boolean, as each of `upper_flags`."""
    flag = obj.get(name, False)
    if not isinstance(flag, bool):
        raise ValueError(f"{name} must be a JSON boolean (true/false), got {flag!r}")
    return flag


def _freestream_from_json(values) -> tuple:
    """JSON booleans refused: Python counts them as numbers, so [true, false]
    would read as (1, 0). Other values are checked by AirfoilEncoding."""
    freestream = tuple(values)
    if any(isinstance(c, bool) for c in freestream):
        raise ValueError(f"freestream must be numbers, not JSON booleans, got {values!r}")
    return freestream


def _floats_from_json(values, name: str) -> np.ndarray:
    """A float64 array of JSON numbers. numpy would read JSON booleans as 1.0
    and 0.0 (and numeric strings as numbers), so the scalars' types are
    checked first, all at once."""
    array = np.asarray(values, dtype=np.float64)
    scalars = [values]
    for _ in range(array.ndim):
        scalars = chain.from_iterable(scalars)
    types = set(map(type, scalars))
    if not types <= {int, float}:
        raise ValueError(f"{name} must hold JSON numbers only, got "
                         f"{', '.join(sorted(t.__name__ for t in types - {int, float}))}")
    return array


def _record_from_json(obj: dict) -> GraphRecord:
    positions = _floats_from_json(obj["positions"], "positions")
    if "dim" in obj and positions.ndim == 2 and obj["dim"] != positions.shape[1]:
        raise ValueError(f"dim {obj['dim']!r}, but positions have {positions.shape[1]} columns")
    return GraphRecord(
        graph_id=str(obj["id"]),
        positions=positions,
        cells=obj.get("cells"),
        chain=_bool_from_json(obj, "chain"),
        closed=_bool_from_json(obj, "closed"),
        node_cell_types=obj.get("node_cell_types"),
        upper_flags=None if "upper_flags" not in obj else _flags_from_json(obj["upper_flags"]),
        freestream=None if "freestream" not in obj else _freestream_from_json(obj["freestream"]),
        node_target=None if "node_target" not in obj
        else _floats_from_json(obj["node_target"], "node_target"),
        graph_target=None if "graph_target" not in obj
        else _floats_from_json(obj["graph_target"], "graph_target"),
    )


def write_dataset(records: list[GraphRecord], path):
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": DATASET_FORMAT,
                             "schema_version": DATASET_SCHEMA_VERSION}) + "\n")
        for rec in records:
            fh.write(json.dumps(_record_to_json(rec)) + "\n")


def read_dataset(path) -> list[GraphRecord]:
    with open(path) as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}: bad header line: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
            raise DatasetFormatError(f"{path}: not a {DATASET_FORMAT} file")
        if header.get("schema_version") != DATASET_SCHEMA_VERSION:
            raise DatasetFormatError(
                f"{path}: schema version {header.get('schema_version')}, "
                f"expected {DATASET_SCHEMA_VERSION}")
        records = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            obj = None
            try:
                obj = json.loads(line)
                records.append(_record_from_json(obj))
            except (ValueError, KeyError, TypeError) as exc:
                raise DatasetFormatError(_bad_line(path, lineno, obj, exc)) from exc
    return records


def _bad_line(path, lineno: int, obj, exc: Exception) -> str:
    """Names the file, the 1-based line, the record id if it was read, and
    what was wrong with the line."""
    where = f"{path}: line {lineno}"
    if isinstance(obj, dict) and "id" in obj:
        where += f" (record {obj['id']})"
    if isinstance(exc, json.JSONDecodeError):
        return f"{where}: not a JSON record ({exc.msg}, column {exc.colno})"
    if isinstance(exc, KeyError):
        return f"{where}: no {exc.args[0]!r} field"
    return f"{where}: bad record: {exc}"


# ---------------------------------------------------------------------------
# Selig-format airfoil coordinate files


def parse_selig(text: str):
    """Parse a UIUC-style coordinate file.

    Returns (name, (N, 2) points in traversal order, per-point upper flags).
    Points with index before the minimum-x (leading edge) point are the upper
    surface; the rest are lower.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise SeligParseError("empty coordinate file")
    name = lines[0].strip()
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        try:
            if len(parts) != 2:
                raise ValueError(f"{len(parts)} fields")
            x, y = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise SeligParseError(f"line {lineno}: {line.strip()!r}: {exc}") from exc
        if not (-0.01 <= x <= 1.01):
            raise SeligParseError(f"line {lineno}: x = {x} outside [-0.01, 1.01]")
        points.append((x, y))
    if len(points) < 3:
        raise SeligParseError(f"only {len(points)} points, need >= 3")
    pts = np.array(points, dtype=np.float64)
    le_index = int(np.argmin(pts[:, 0]))
    upper = np.arange(len(pts)) < le_index
    return name, pts, upper


def record_from_selig(text: str, freestream, graph_id=None, closed=False) -> GraphRecord:
    name, pts, upper = parse_selig(text)
    return GraphRecord(graph_id=graph_id or name, positions=pts, chain=True,
                       closed=closed, upper_flags=upper, freestream=tuple(freestream))


# ---------------------------------------------------------------------------
# Synthetic data with an analytic target oracle


@dataclass
class SyntheticSpec:
    seed: int = 0
    count: int = 100
    min_nodes: int = 20
    max_nodes: int = 60
    family: str = "chain"      # "chain", "patch2d", "patch3d"

    def __post_init__(self):
        if self.min_nodes > self.max_nodes or self.min_nodes < 3:
            raise ValueError(f"bad node-count range [{self.min_nodes}, {self.max_nodes}]")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.family not in ("chain", "patch2d", "patch3d"):
            raise ValueError(f"unknown geometry family {self.family!r}")


def chain_target(x, y, u0, v0):
    return np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.5 * (u0 * x + v0 * y)


def patch_target(x, y, z):
    return np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) * np.exp(-z)


def _synthetic_chain(rng, n, gid) -> GraphRecord:
    closed = bool(rng.integers(0, 2))
    if closed:
        theta = rng.uniform(0.0, 2 * np.pi) + np.linspace(0.0, 2 * np.pi, n,
                                                          endpoint=False)
        rx, ry = rng.uniform(0.2, 0.5, 2)
        pts = np.column_stack([0.5 + rx * np.cos(theta), ry * np.sin(theta)])
    else:
        # one full sine period so the arc closes smoothly in y; amplitude and
        # phase vary per graph
        t = np.linspace(0.0, 1.0, n)
        a = rng.uniform(0.1, 0.5)
        phi = rng.uniform(0.0, 2 * np.pi)
        pts = np.column_stack([t, a * np.sin(2.0 * np.pi * t + phi)])
    u0, v0 = rng.uniform(-1.0, 1.0, 2)
    y = chain_target(pts[:, 0], pts[:, 1], u0, v0)
    le_index = int(np.argmin(pts[:, 0]))
    upper = np.arange(n) < le_index
    return GraphRecord(graph_id=gid, positions=pts, chain=True, closed=closed,
                       upper_flags=upper, freestream=(float(u0), float(v0)),
                       node_target=y, graph_target=np.array([y.mean()]))


def _synthetic_patch(rng, n, gid, three_d) -> GraphRecord:
    # resample until the triangulation is non-degenerate
    for _ in range(20):
        xy = rng.uniform(0.0, 1.0, (n, 2))
        try:
            tri = Delaunay(xy)
            break
        except Exception:
            continue
    else:
        raise RuntimeError("failed to triangulate random patch")
    z = 0.25 * np.sin(np.pi * xy[:, 0]) * xy[:, 1] if three_d else np.zeros(n)
    pts = np.column_stack([xy, z])
    cells = [list(map(int, simplex)) for simplex in tri.simplices]
    labels = [DEFAULT_CELL_TYPES[int(rng.integers(0, 2))] for _ in cells]
    node_types = [set() for _ in range(n)]
    for cell, label in zip(cells, labels):
        for i in cell:
            node_types[i].add(label)
    y = patch_target(pts[:, 0], pts[:, 1], pts[:, 2])
    return GraphRecord(graph_id=gid, positions=pts, cells=cells,
                       node_cell_types=[sorted(t) for t in node_types],
                       node_target=y, graph_target=np.array([y.mean()]))


def generate_synthetic(spec: SyntheticSpec) -> list[GraphRecord]:
    rng = np.random.default_rng(spec.seed)
    records = []
    for k in range(spec.count):
        n = int(rng.integers(spec.min_nodes, spec.max_nodes + 1))
        gid = f"{spec.family}-{spec.seed}-{k:05d}"
        if spec.family == "chain":
            records.append(_synthetic_chain(rng, n, gid))
        else:
            records.append(_synthetic_patch(rng, n, gid, spec.family == "patch3d"))
    return records


# ---------------------------------------------------------------------------
# Featurization pipeline (records -> model-ready graphs)


@dataclass
class Sample:
    graph_id: str
    graph: Graph                            # featurized; node_targets normalized
    node_target_physical: np.ndarray | None
    graph_target_physical: np.ndarray | None
    pressure_mean: float | None
    freestream: tuple | None
    featurizer: "Featurizer"

    def to_physical_node(self, pred_norm: np.ndarray) -> np.ndarray:
        return self.featurizer.invert_node_prediction(self, pred_norm)


@dataclass
class Featurizer:
    """Owns the encoding choice and the normalizers fitted on the train split."""

    # the fields `fit` sets; the others are settings
    NORMALIZERS = ("node_norm", "edge_norm", "target_norm")

    encoding_kind: str                         # "airfoil" or "feature_design"
    cell_type_vocabulary: tuple = DEFAULT_CELL_TYPES
    node_target_mode: str = "zscore"           # "zscore", "pressure", "none"
    use_speed_squared: bool = True
    node_norm: Normalizer = field(default_factory=Normalizer)
    edge_norm: Normalizer = field(default_factory=Normalizer)
    target_norm: Normalizer | None = None

    def __post_init__(self):
        self.cell_type_vocabulary = tuple(self.cell_type_vocabulary)
        if self.encoding_kind not in ("airfoil", "feature_design"):
            raise ValueError(f"unknown encoding {self.encoding_kind!r}")
        if self.node_target_mode not in ("zscore", "pressure", "none"):
            raise ValueError(f"unknown target mode {self.node_target_mode!r}")
        if self.node_target_mode == "pressure" and self.encoding_kind != "airfoil":
            raise ValueError("pressure target normalization needs the airfoil encoding")

    @property
    def node_feature_width(self) -> int:
        if self.encoding_kind == "airfoil":
            return AirfoilEncoding.node_feature_width
        return FeatureDesignEncoding(self.cell_type_vocabulary).node_feature_width

    @property
    def position_width(self) -> int:
        """The positions' columns the encoding takes: 2-D surface chains for
        airfoil, 3-D meshes for feature design."""
        return 2 if self.encoding_kind == "airfoil" else 3

    @property
    def edge_feature_width(self) -> int:
        return self.position_width + 1

    def _encode(self, rec: GraphRecord):
        """(topology, raw node and edge features, physical node target as
        (n, -1) or None) of one record; input that does not fit the encoding
        raises DatasetFormatError naming the record."""
        rec.validate()
        if rec.positions.shape[1] != self.position_width:
            raise DatasetFormatError(
                f"record {rec.graph_id}: {rec.positions.shape[1]}-D positions, but the "
                f"{self.encoding_kind} encoding takes {self.position_width}-D positions")
        topo = rec.build_topology()
        try:
            if self.encoding_kind == "airfoil":
                if rec.freestream is None or rec.upper_flags is None:
                    raise ValueError("airfoil encoding needs freestream and upper_flags")
                enc = AirfoilEncoding(freestream=rec.freestream)
                nf = encode_nodes_airfoil(topo, enc, rec.upper_flags)
            else:
                if rec.node_cell_types is None:
                    raise ValueError("feature-design encoding needs node_cell_types")
                enc = FeatureDesignEncoding(cell_type_vocabulary=self.cell_type_vocabulary)
                nf = encode_nodes_feature_design(topo, enc, rec.node_cell_types)
        except ValueError as exc:
            raise DatasetFormatError(f"record {rec.graph_id}: {exc}") from exc
        target = None if rec.node_target is None else rec.node_target.reshape(topo.num_nodes, -1)
        return topo, nf, encode_edges(topo), target

    def fit(self, records: list[GraphRecord]) -> "Featurizer":
        return self._fit([self._encode(rec) for rec in records])

    def _fit(self, encoded: list) -> "Featurizer":
        """Fit the normalizers on `_encode`'s outputs."""
        self.node_norm.fit(*(nf for _, nf, _, _ in encoded))
        self.edge_norm.fit(*(ef for _, _, ef, _ in encoded))
        targets = [t for *_, t in encoded if t is not None]
        if self.node_target_mode == "zscore" and targets:
            self.target_norm = Normalizer().fit(*targets)
        return self

    def fit_transform(self, records: list[GraphRecord]) -> list[Sample]:
        """`fit(records)`, then `transform_all(records)`, with the same bits,
        but each record validated, built and encoded once."""
        encoded = [self._encode(rec) for rec in records]
        self._fit(encoded)
        return [self._normalize(rec, *enc) for rec, enc in zip(records, encoded)]

    def transform(self, rec: GraphRecord) -> Sample:
        return self._normalize(rec, *self._encode(rec))

    def _normalize(self, rec: GraphRecord, topo: Graph, nf, ef, target_phys) -> Sample:
        """The sample of `rec` from its `_encode` output and the fitted normalizers."""
        node_targets = pressure_mean = None
        if target_phys is not None:
            if self.node_target_mode == "zscore":
                if self.target_norm is None:
                    raise DatasetFormatError(
                        f"record {rec.graph_id}: has a node_target, but the featurizer "
                        f"was fitted on records without one, so it has no z-score")
                node_targets = self.target_norm.apply(target_phys)
            elif self.node_target_mode == "pressure":
                u0, v0 = rec.freestream
                normed, pressure_mean = normalize_pressure_target(
                    target_phys[:, 0], u0, v0, self.use_speed_squared)
                node_targets = normed[:, None]
            else:
                node_targets = target_phys
        graph = topo.with_features(
            node_features=self.node_norm.apply(nf),
            edge_features=self.edge_norm.apply(ef),
            node_targets=node_targets,
            graph_target=rec.graph_target,
        )
        return Sample(graph_id=rec.graph_id, graph=graph,
                      node_target_physical=target_phys,
                      graph_target_physical=rec.graph_target,
                      pressure_mean=pressure_mean, freestream=rec.freestream,
                      featurizer=self)

    def transform_all(self, records) -> list[Sample]:
        return [self.transform(r) for r in records]

    def invert_node_prediction(self, sample: Sample, pred_norm: np.ndarray) -> np.ndarray:
        pred_norm = np.asarray(pred_norm, dtype=np.float64)
        if self.node_target_mode == "zscore":
            return self.target_norm.invert(pred_norm)
        if self.node_target_mode == "pressure":
            u0, v0 = sample.freestream
            return denormalize_pressure_target(
                pred_norm[:, 0], sample.pressure_mean, u0, v0,
                self.use_speed_squared)[:, None]
        return pred_norm
