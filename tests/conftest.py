import io
import json

import numpy as np
import pytest

import gnnsurrogate as gs
from gnnsurrogate import checkpoint, datasets
from gnnsurrogate.mlp import forward_tape
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


def tiny_config(node_in=6, edge_in=3, latent=4, steps=2, depth=2, width=5,
                graph_out=3, node_out=1, **kw):
    return GnnConfig(node_input_size=node_in, edge_input_size=edge_in,
                     latent_size=latent, steps=steps, depth=depth, width=width,
                     graph_output_size=graph_out, node_output_size=node_out, **kw)


def mlp_forward(mlp, x):
    """An MLP's output for rows `x`, without keeping its tape."""
    y, _ = forward_tape(mlp, x)
    return y


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


def edit_resume_meta(path, **entries):
    """Rewrite the checkpoint at `path` with `entries` set in its
    'resume_meta' section, as a hand edit of the file would."""
    raw = path.read_bytes()
    start = len(checkpoint.MAGIC) + 4
    sections = checkpoint._read_sections(raw, start)
    sections["resume_meta"] = json.dumps({**json.loads(sections["resume_meta"]),
                                          **entries}).encode()
    out = io.BytesIO()
    for name, payload in sections.items():
        checkpoint._write_section(out, name, payload)
    path.write_bytes(raw[:start] + out.getvalue())


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
