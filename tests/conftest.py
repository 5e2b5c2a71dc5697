import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import gnnsurrogate as gs
from gnnsurrogate import checkpoint, datasets
from gnnsurrogate.mlp import Mlp, forward_tape
from gnnsurrogate.model import GnnConfig, build_model


def random_chain_graphs(rng, count, min_nodes=4, max_nodes=12, dim=2):
    """Featurized random chain graphs with node and graph targets."""
    recs = []
    for k in range(count):
        n = int(rng.integers(min_nodes, max_nodes + 1))
        pts = np.sort(rng.uniform(0, 1, n))[:, None] * np.ones((1, dim))
        pts = pts + rng.normal(0, 0.05, (n, dim))
        u0, v0 = rng.uniform(-1, 1, 2)
        y = np.sin(pts[:, 0]) + 0.3 * pts[:, 1]
        recs.append(gs.GraphRecord(
            graph_id=f"g{k}", positions=pts, chain=True,
            upper_flags=rng.integers(0, 2, n).astype(bool),
            freestream=(float(u0), float(v0)),
            node_target=y, graph_target=np.array([y.mean()])))
    return recs


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def run_python(script: str, *args, env=None) -> str:
    """Run `script` in a fresh interpreter that imports this package and the
    tests' modules, with `env` added to the environment; its stdout. A child
    that hangs (a wedged thread pool, say) fails after ten minutes."""
    path = os.pathsep.join([str(Path(gs.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    env = {**os.environ, "PYTHONPATH": path, **(env or {})}
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True, timeout=600)
    return proc.stdout


def tiny_config(node_in=6, edge_in=3, latent=4, steps=2, depth=2, width=5,
                graph_out=3, node_out=1, **kw):
    return GnnConfig(node_input_size=node_in, edge_input_size=edge_in,
                     latent_size=latent, steps=steps, depth=depth, width=width,
                     graph_output_size=graph_out, node_output_size=node_out, **kw)


def mlp_forward(mlp, x):
    """An MLP's output for rows `x`, without keeping its tape."""
    y, _ = forward_tape(mlp, x)
    return y


def cast_mlp(mlp, dtype):
    """An MLP of mlp's config holding its parameters cast to `dtype`."""
    return Mlp(mlp.config, [w.astype(dtype) for w in mlp.weights],
               [b.astype(dtype) for b in mlp.biases])


def set_parameters(model, values):
    """Copy one array per parameter, in parameters() order, into
    `model.flat`; the views stay bound. A wrong count or shape raises
    ValueError naming the first parameter that differs."""
    shapes = [np.shape(a) for a in values]
    if len(shapes) != len(model.shapes):
        raise ValueError(f"expected {len(model.shapes)} parameter arrays, got {len(shapes)}")
    for i, (shape, expected) in enumerate(zip(shapes, model.shapes)):
        if shape != expected:
            raise ValueError(f"parameter {i} ({model.parameter_names()[i]}) has shape "
                             f"{shape}, expected {expected}")
    model.flat[:] = np.concatenate([np.ravel(a) for a in values])


def extract_segment(batch, k: int) -> gs.Graph:
    """Recover member k of a batch (round trip of merge_batch)."""
    start, length = batch.segments[k]
    g = batch.graph
    mask = (g.receivers >= start) & (g.receivers < start + length)

    def sl(arr):
        return None if arr is None else arr[start:start + length]

    graph_target = None
    if batch.graph_targets is not None:
        graph_target = batch.graph_targets[k]
    return gs.Graph(
        positions=g.positions[start:start + length],
        edges=g.edges[mask] - start,
        node_features=sl(g.node_features),
        edge_features=None if g.edge_features is None else g.edge_features[mask],
        node_targets=sl(g.node_targets),
        graph_target=graph_target,
    )


def validate(graph) -> list[str]:
    """Check a Graph's invariants; returns a list of violation messages.
    An O(E) Python loop, for tests only."""
    violations = []
    n = graph.num_nodes
    edges = graph.edges
    for row, (s, r) in enumerate(edges):
        if not (0 <= s < n) or not (0 <= r < n):
            violations.append(f"edge {row}: index ({s}, {r}) out of range [0, {n})")
        elif s == r:
            violations.append(f"edge {row}: self-loop at node {s}")
    seen = set()
    pairs = set(map(tuple, edges.tolist()))
    for row, (s, r) in enumerate(edges.tolist()):
        if (s, r) in seen:
            violations.append(f"edge {row}: duplicate directed edge ({s}, {r})")
        seen.add((s, r))
        if s != r and (r, s) not in pairs:
            violations.append(f"edge {row}: missing reverse edge ({r}, {s})")
    if graph.node_features is not None and graph.node_features.shape[0] != n:
        violations.append(
            f"node_features has {graph.node_features.shape[0]} rows, expected {n}")
    if graph.edge_features is not None and graph.edge_features.shape[0] != len(edges):
        violations.append(
            f"edge_features has {graph.edge_features.shape[0]} rows, expected {len(edges)}")
    if graph.node_targets is not None and graph.node_targets.shape[0] != n:
        violations.append(
            f"node_targets has {graph.node_targets.shape[0]} rows, expected {n}")
    return violations


def zero_final_layer(mlp):
    mlp.weights[-1][:] = 0.0
    mlp.biases[-1][:] = 0.0


def featurized_samples(seed, count, **spec_kw):
    spec = gs.SyntheticSpec(seed=seed, count=count, **spec_kw)
    recs = gs.generate_synthetic(spec)
    kind = "airfoil" if spec.family == "chain" else "feature_design"
    feat = gs.Featurizer(kind)
    return feat, feat.fit_transform(recs)


def untimed_log(path):
    """A training log's records without `wall_time`, the one field that is
    measured rather than computed; checks that every record has it."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        assert rec.pop("wall_time") >= 0.0
    return records


def checkpoint_parts(raw: bytes) -> tuple[dict, bytes]:
    """The meta JSON object and the raw vector bytes of checkpoint `raw`."""
    start = len(checkpoint.MAGIC) + 12          # the version and the meta length
    (length,) = struct.unpack_from("<Q", raw, start - 8)
    return json.loads(raw[start:start + length]), raw[start + length:-4]


def rewrite_checkpoint(path, edit=None, vectors=None):
    """Rewrite the checkpoint at `path` with edit(meta) applied to its meta
    JSON object and, if given, `vectors` as its raw vector bytes, as a hand
    edit of the file would, with the meta length and the CRC made to match."""
    raw = path.read_bytes()
    meta, body = checkpoint_parts(raw)
    if edit is not None:
        edit(meta)
    text = json.dumps(meta).encode()
    out = raw[:len(checkpoint.MAGIC) + 4] + struct.pack("<Q", len(text)) + text
    out += body if vectors is None else vectors
    path.write_bytes(out + struct.pack("<I", zlib.crc32(out)))


def edit_json_section(path, name, edit):
    """Rewrite the checkpoint at `path` with edit(d) applied to its meta
    (`name` 'meta') or to the meta's resume scalars ('resume_meta')."""
    rewrite_checkpoint(path, lambda meta: edit(meta if name == "meta" else meta["resume"]))


def edit_resume_meta(path, **entries):
    """Set `entries` in the resume scalars of the checkpoint at `path`."""
    edit_json_section(path, "resume_meta", lambda meta: meta.update(entries))


def count_calls(monkeypatch, owner, name, counts):
    """Wrap `owner.name` so that each call adds one to counts[name]."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def count_featurizing(monkeypatch) -> dict:
    """Counts of record validations and topology builds, by function name."""
    counts = {}
    for owner, name in ((datasets.GraphRecord, "validate"),
                        (datasets, "build_surface_chain"), (datasets, "build_from_mesh")):
        count_calls(monkeypatch, owner, name, counts)
    return counts
