import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gnnsurrogate as gs
from gnnsurrogate.graph import (IncompatibleGraphsError, InvalidChainError,
                                InvalidMeshError, extract_segment)


def edge_set(graph):
    return set(map(tuple, graph.edges.tolist()))


def reference_build_from_mesh(positions, cells):
    """The set-based builder that the vectorized one replaced, kept as the
    reference: same edges, dtype, shape and order; same error messages."""
    n = len(positions)
    undirected = set()
    for ci, cell in enumerate(cells):
        cell = list(cell)
        if len(cell) < 2:
            raise InvalidMeshError(f"cell {ci} has {len(cell)} nodes, need >= 2")
        for idx in cell:
            if not (0 <= idx < n):
                raise InvalidMeshError(f"cell {ci} references node {idx}, have {n} nodes")
        pairs = list(zip(cell, cell[1:]))
        if len(cell) >= 3:
            pairs.append((cell[-1], cell[0]))
        for a, b in pairs:
            if a != b:
                undirected.add((min(a, b), max(a, b)))
    directed = [(a, b) for a, b in undirected] + [(b, a) for a, b in undirected]
    return reference_sort_edges(np.array(directed, dtype=np.int64).reshape(-1, 2))


def reference_sort_edges(edges):
    if len(edges) == 0:
        return edges.reshape(0, 2).astype(np.int64)
    return edges[np.lexsort((edges[:, 0], edges[:, 1]))]


def reference_surface_chain_edges(n, closed):
    pairs = [(k, k + 1) for k in range(n - 1)]
    if closed and n > 2:
        pairs.append((n - 1, 0))
    directed = pairs + [(b, a) for a, b in pairs]
    return reference_sort_edges(np.array(directed, dtype=np.int64))


def assert_same_edges(actual, expected):
    assert actual.dtype == expected.dtype == np.int64
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)


def outcome(build, *args):
    """The edges a builder returns, or the type and message it raises."""
    try:
        return build(*args)
    except InvalidMeshError as exc:
        return type(exc), str(exc)


class TestBuildFromMesh:
    def test_single_triangle(self):
        g = gs.build_from_mesh(np.zeros((3, 2)), [(0, 1, 2)])
        assert edge_set(g) == {(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)}

    def test_two_triangles_shared_edge(self):
        # undirected edges by hand: 01, 02, 12, 13, 23
        g = gs.build_from_mesh(np.zeros((4, 2)), [(0, 1, 2), (1, 2, 3)])
        assert g.num_edges == 10
        undirected = {tuple(sorted(e)) for e in edge_set(g)}
        assert undirected == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}

    def test_two_node_cell(self):
        g = gs.build_from_mesh(np.zeros((2, 2)), [(0, 1)])
        assert edge_set(g) == {(0, 1), (1, 0)}

    def test_quad_cell_boundary_only(self):
        g = gs.build_from_mesh(np.zeros((4, 2)), [(0, 1, 2, 3)])
        undirected = {tuple(sorted(e)) for e in edge_set(g)}
        assert undirected == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_out_of_range_index(self):
        with pytest.raises(InvalidMeshError):
            gs.build_from_mesh(np.zeros((3, 2)), [(0, 1, 5)])

    def test_too_small_cell(self):
        with pytest.raises(InvalidMeshError):
            gs.build_from_mesh(np.zeros((3, 2)), [(0,)])

    def test_edges_sorted_by_receiver_then_sender(self):
        g = gs.build_from_mesh(np.zeros((4, 2)), [(0, 1, 2), (1, 2, 3)])
        keys = [(r, s) for s, r in g.edges.tolist()]
        assert keys == sorted(keys)

    def test_empty_cell_list(self):
        g = gs.build_from_mesh(np.zeros((3, 2)), [])
        assert_same_edges(g.edges, np.zeros((0, 2), dtype=np.int64))

    def test_first_bad_cell_in_cell_order_is_named(self):
        # cell 1 is short, cell 2 out of range: cell 1 is reported
        with pytest.raises(InvalidMeshError, match=r"^cell 1 has 1 nodes, need >= 2$"):
            gs.build_from_mesh(np.zeros((3, 2)), [(0, 1), (2,), (0, 7)])
        # in one cell, the length check comes before the index check
        with pytest.raises(InvalidMeshError, match=r"^cell 0 has 1 nodes"):
            gs.build_from_mesh(np.zeros((3, 2)), [(9,)])

    @pytest.mark.parametrize("cells, message", [
        ([(0, 1, 2), (0, "1", 2)], r"^cell 1 has node index '1', not an integer$"),
        ([(0, [1], 2)], r"^cell 0 has node index \[1\], not an integer$"),
        ([(0, 1.5, 2)], r"^cell 0 has node index 1.5, not an integer$"),
        ([(0, 1, 2), None], r"^cell 1 is None, not a list of node indices$"),
        ([4], r"^cell 0 is 4, not a list of node indices$"),
        (3, r"^cells is 3, not a list of cells$"),
        ([(0, 2 ** 70)], r"^cell 0 references node 1180591620717411303424, have 3 nodes$"),
    ])
    def test_malformed_cells_named(self, cells, message):
        with pytest.raises(InvalidMeshError, match=message):
            gs.build_from_mesh(np.zeros((3, 2)), cells)

    def test_numpy_integer_cells_accepted(self):
        cells = np.array([[0, 1, 2], [1, 2, 3]], dtype=np.int32)
        assert_same_edges(gs.build_from_mesh(np.zeros((4, 2)), cells).edges,
                          reference_build_from_mesh(np.zeros((4, 2)), cells.tolist()))


ragged_cell = st.lists(st.integers(0, 7), min_size=2, max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.lists(ragged_cell, max_size=12), st.data())
def test_mesh_edges_match_reference(n, cells, data):
    """Ragged cells of 2-6 nodes, repeated nodes within a cell, duplicate
    cells and the empty cell list: same edges, dtype, shape and order."""
    cells = [[idx % n for idx in cell] for cell in cells]
    cells += data.draw(st.lists(st.sampled_from(cells), max_size=3)) if cells else []
    positions = np.zeros((n, 3))
    assert_same_edges(gs.build_from_mesh(positions, cells).edges,
                      reference_build_from_mesh(positions, cells))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.lists(st.lists(st.integers(-3, 9), max_size=5), max_size=8))
def test_invalid_meshes_raise_like_reference(n, cells):
    """Short cells mixed with out-of-range indices: the same error type and
    message as the reference, or the same edges where every cell is valid."""
    positions = np.zeros((n, 2))
    actual = outcome(gs.build_from_mesh, positions, cells)
    expected = outcome(reference_build_from_mesh, positions, cells)
    if isinstance(expected, tuple):
        assert actual == expected
    else:
        assert_same_edges(actual.edges, expected)


class TestBuildSurfaceChain:
    def test_open_three_nodes(self):
        g = gs.build_surface_chain(np.zeros((3, 2)))
        assert edge_set(g) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_closed_three_nodes(self):
        g = gs.build_surface_chain(np.zeros((3, 2)), closed=True)
        assert g.num_edges == 6

    def test_two_nodes(self):
        g = gs.build_surface_chain(np.zeros((2, 2)))
        assert edge_set(g) == {(0, 1), (1, 0)}

    def test_single_node_rejected(self):
        with pytest.raises(InvalidChainError):
            gs.build_surface_chain(np.zeros((1, 2)))

    @pytest.mark.parametrize("closed", [False, True])
    def test_matches_reference(self, closed):
        for n in range(2, 81):
            assert_same_edges(gs.build_surface_chain(np.zeros((n, 2)), closed).edges,
                              reference_surface_chain_edges(n, closed))

    @pytest.mark.parametrize("n", [2, 3, 7, 20])
    def test_edge_counts(self, n):
        assert gs.build_surface_chain(np.zeros((n, 2))).num_edges == 2 * (n - 1)
        if n > 2:
            assert gs.build_surface_chain(np.zeros((n, 2)), closed=True).num_edges == 2 * n


class TestValidate:
    def test_mesh_graph_valid(self):
        g = gs.build_from_mesh(np.zeros((4, 2)), [(0, 1, 2), (1, 2, 3)])
        assert gs.validate(g) == []

    def test_missing_reverse_edge(self):
        g = gs.Graph(positions=np.zeros((2, 2)), edges=np.array([[0, 1]]))
        violations = gs.validate(g)
        assert len(violations) == 1 and "reverse" in violations[0]

    def test_self_loop(self):
        g = gs.Graph(positions=np.zeros((3, 2)),
                     edges=np.array([[2, 2]]))
        assert any("self-loop" in v for v in gs.validate(g))

    def test_out_of_range(self):
        g = gs.Graph(positions=np.zeros((2, 2)), edges=np.array([[0, 9], [9, 0]]))
        assert any("out of range" in v for v in gs.validate(g))

    def test_duplicate_edge(self):
        g = gs.Graph(positions=np.zeros((2, 2)),
                     edges=np.array([[0, 1], [0, 1], [1, 0]]))
        assert any("duplicate" in v for v in gs.validate(g))

    def test_feature_row_mismatch(self):
        g = gs.build_surface_chain(np.zeros((3, 2)))
        g = g.with_features(node_features=np.zeros((2, 4)))
        assert any("node_features" in v for v in gs.validate(g))


class TestMergeBatch:
    def make(self, n, offset=0.0, width=2):
        g = gs.build_surface_chain(np.full((n, 2), offset))
        return g.with_features(node_features=np.random.rand(n, width),
                               edge_features=np.random.rand(g.num_edges, 3))

    def test_index_offset(self):
        batch = gs.merge_batch([self.make(2), self.make(3)])
        assert batch.graph.num_nodes == 5
        assert batch.segments == [(0, 2), (2, 3)]
        assert (2, 3) in set(map(tuple, batch.graph.edges.tolist()))

    def test_single_graph_identity(self):
        g = self.make(4)
        batch = gs.merge_batch([g])
        assert batch.segments == [(0, 4)]
        np.testing.assert_array_equal(batch.graph.edges, g.edges)
        np.testing.assert_array_equal(batch.graph.node_features, g.node_features)

    def test_empty_list_rejected(self):
        with pytest.raises(IncompatibleGraphsError):
            gs.merge_batch([])

    def test_mismatched_widths_rejected(self):
        with pytest.raises(IncompatibleGraphsError):
            gs.merge_batch([self.make(2, width=2), self.make(3, width=5)])

    def test_mismatched_graph_target_widths_named(self):
        a = self.make(2).with_features(graph_target=np.zeros(1))
        b = self.make(3).with_features(graph_target=np.zeros(2))
        with pytest.raises(IncompatibleGraphsError,
                           match=r"graph_target width: \(1,\) and \(2,\)"):
            gs.merge_batch([a, b])

    def test_counts_preserved(self):
        graphs = [self.make(n) for n in (2, 5, 3)]
        batch = gs.merge_batch(graphs)
        assert batch.graph.num_nodes == sum(g.num_nodes for g in graphs)
        assert batch.graph.num_edges == sum(g.num_edges for g in graphs)

    def test_no_edge_crosses_segments(self):
        batch = gs.merge_batch([self.make(3), self.make(4), self.make(2)])
        seg_ids = batch.segment_ids()
        assert (seg_ids[batch.graph.senders] == seg_ids[batch.graph.receivers]).all()

    def test_round_trip_extraction(self):
        graphs = [self.make(3), self.make(5)]
        batch = gs.merge_batch(graphs)
        for k, g in enumerate(graphs):
            back = extract_segment(batch, k)
            np.testing.assert_array_equal(back.edges, g.edges)
            np.testing.assert_array_equal(back.positions, g.positions)
            np.testing.assert_array_equal(back.node_features, g.node_features)
            np.testing.assert_array_equal(back.edge_features, g.edge_features)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_meshes_validate_clean(data):
    n = data.draw(st.integers(3, 12))
    n_cells = data.draw(st.integers(1, 8))
    cells = [
        data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True))
        for _ in range(n_cells)
    ]
    g = gs.build_from_mesh(np.random.rand(n, 3), cells)
    assert gs.validate(g) == []
