"""Property tests of the round trips and equivalences the pipeline relies on:
dataset files, batching and featurization."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import gnnsurrogate as gs
from gnnsurrogate.datasets import DEFAULT_CELL_TYPES
from gnnsurrogate.graph import extract_segment

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def same_array(a, b) -> bool:
    """Both None, or equal in dtype, shape and every bit."""
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def optional(draw, strategy):
    return draw(st.one_of(st.none(), strategy))


@st.composite
def records(draw):
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 3))
    chain = draw(st.booleans())
    target_width = draw(st.integers(0, 2))   # 0: an (n,) node target
    return gs.GraphRecord(
        graph_id=draw(st.text(max_size=8)),
        positions=draw(hnp.arrays(np.float64, (n, dim), elements=FINITE)),
        cells=None if chain else draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=4), max_size=5)),
        chain=chain,
        closed=chain and draw(st.booleans()),
        node_cell_types=optional(draw, st.lists(
            st.lists(st.sampled_from(DEFAULT_CELL_TYPES), max_size=2),
            min_size=n, max_size=n)),
        upper_flags=optional(draw, hnp.arrays(bool, (n,))),
        freestream=optional(draw, st.tuples(FINITE, FINITE)),
        node_target=optional(draw, hnp.arrays(
            np.float64, (n, target_width) if target_width else (n,), elements=FINITE)),
        graph_target=optional(draw, hnp.arrays(np.float64, (draw(st.integers(1, 3)),),
                                                elements=FINITE)),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(records(), min_size=1, max_size=4))
def test_dataset_file_round_trip_is_exact(tmp_path_factory, recs):
    path = tmp_path_factory.mktemp("data") / "d.jsonl"
    gs.write_dataset(recs, path)
    back = gs.read_dataset(path)
    assert len(back) == len(recs)
    for a, b in zip(recs, back):
        assert (a.graph_id, a.cells, a.chain, a.closed, a.node_cell_types) == (
            b.graph_id, b.cells, b.chain, b.closed, b.node_cell_types)
        for name in ("positions", "upper_flags", "node_target", "graph_target"):
            assert same_array(getattr(a, name), getattr(b, name)), name
        assert same_array(None if a.freestream is None else np.array(a.freestream),
                          None if b.freestream is None else np.array(b.freestream))


@st.composite
def graph_batches(draw):
    """Graphs that merge_batch takes: one positions width, and the same
    optional arrays, of the same widths, in every member."""
    dim = draw(st.integers(1, 3))
    widths = {name: optional(draw, st.integers(1, 3))
              for name in ("node_features", "edge_features", "node_targets", "graph_target")}
    graphs = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 6))
        e = draw(st.integers(0, 8))

        def block(name, rows):
            if widths[name] is None:
                return None
            shape = (widths[name],) if rows is None else (rows, widths[name])
            return draw(hnp.arrays(np.float64, shape, elements=FINITE))
        graphs.append(gs.Graph(
            positions=draw(hnp.arrays(np.float64, (n, dim), elements=FINITE)),
            edges=draw(hnp.arrays(np.int64, (e, 2), elements=st.integers(0, n - 1))),
            node_features=block("node_features", n),
            edge_features=block("edge_features", e),
            node_targets=block("node_targets", n),
            graph_target=block("graph_target", None)))
    return graphs


@settings(max_examples=100, deadline=None)
@given(graph_batches())
def test_merge_then_extract_returns_every_member(graphs):
    batch = gs.merge_batch(graphs)
    for k, g in enumerate(graphs):
        back = extract_segment(batch, k)
        for name in ("positions", "edges", "node_features", "edge_features",
                     "node_targets", "graph_target"):
            assert same_array(getattr(back, name), getattr(g, name)), name


# encoding -> (synthetic families, node target modes) it takes
ENCODINGS = {"airfoil": (("chain",), ("zscore", "pressure", "none")),
             "feature_design": (("patch2d", "patch3d"), ("zscore", "none"))}


@st.composite
def featurizer_inputs(draw):
    encoding = draw(st.sampled_from(sorted(ENCODINGS)))
    families, modes = ENCODINGS[encoding]
    spec = gs.SyntheticSpec(seed=draw(st.integers(0, 2**16)), count=draw(st.integers(1, 4)),
                            min_nodes=4, max_nodes=draw(st.integers(4, 12)),
                            family=draw(st.sampled_from(families)))
    recs = gs.generate_synthetic(spec)
    for rec in recs:      # some records may come without a node target
        if draw(st.booleans()):
            rec.node_target = None
    return encoding, draw(st.sampled_from(modes)), recs


@settings(max_examples=60, deadline=None)
@given(featurizer_inputs())
def test_fit_transform_equals_fit_then_transform_all(inputs):
    encoding, mode, recs = inputs
    fitted = gs.Featurizer(encoding, node_target_mode=mode).fit(recs)
    expected = fitted.transform_all(recs)
    featurizer = gs.Featurizer(encoding, node_target_mode=mode)
    got = featurizer.fit_transform(recs)
    for name in gs.Featurizer.NORMALIZERS:
        a, b = getattr(fitted, name), getattr(featurizer, name)
        assert (a is None and b is None) or (same_array(a.shift, b.shift)
                                             and same_array(a.scale, b.scale)), name
    assert len(got) == len(expected)
    for a, b in zip(expected, got):
        assert b.featurizer is featurizer
        assert (a.graph_id, a.pressure_mean, a.freestream) == (
            b.graph_id, b.pressure_mean, b.freestream)
        for name in ("positions", "edges", "node_features", "edge_features",
                     "node_targets", "graph_target"):
            assert same_array(getattr(a.graph, name), getattr(b.graph, name)), name
        assert same_array(a.node_target_physical, b.node_target_physical)
        assert same_array(a.graph_target_physical, b.graph_target_physical)
