import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gnnsurrogate as gs
from gnnsurrogate.features import (
    DegenerateFreestreamError, VocabularyError, denormalize_pressure_target,
    normalize_pressure_target, reference_point_feature_design,
)


def reference_encode_nodes_feature_design(graph, encoding, node_cell_types):
    """The per-label loop that the fancy-index fill replaced, kept as the
    reference (with the np.add.at degree it used)."""
    vocab = {label: j for j, label in enumerate(encoding.cell_type_vocabulary)}
    n = graph.num_nodes
    if len(node_cell_types) != n:
        raise ValueError(f"got cell types for {len(node_cell_types)} nodes, graph has {n}")
    rel = graph.positions - reference_point_feature_design(graph.positions)
    l1 = np.abs(rel).sum(axis=1, keepdims=True)
    onehot = np.zeros((n, len(vocab)))
    for i, labels in enumerate(node_cell_types):
        for label in labels:
            if label not in vocab:
                raise VocabularyError(f"node {i}: unknown cell type {label!r}")
            onehot[i, vocab[label]] = 1.0
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, graph.receivers, 1)
    return np.hstack([rel, l1, onehot, deg.astype(np.float64)[:, None]])


def triangle_graph_3d():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.5], [0.0, 1.0, 1.0]])
    return gs.build_from_mesh(pts, [(0, 1, 2)])


class TestReferencePoint:
    def test_odd_count_median(self):
        pts = np.array([[0, 5, 1], [1, 5, 2], [2, 5, 3]], dtype=float)
        ref = reference_point_feature_design(pts)
        np.testing.assert_allclose(ref, [1.0, 5.0, 0.0])

    def test_even_count_median_averages_middle_two(self):
        pts = np.column_stack([np.array([0.0, 1.0, 2.0, 3.0]), np.zeros(4), np.ones(4)])
        assert reference_point_feature_design(pts)[0] == 1.5

    def test_z_component_always_zero(self):
        pts = np.random.default_rng(0).normal(size=(7, 3)) + 100
        assert reference_point_feature_design(pts)[2] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reference_point_feature_design(np.zeros((0, 3)))


class TestFeatureDesignEncoding:
    def encode(self, graph, node_types, vocab=("tet", "hex", "wedge", "pyramid")):
        enc = gs.FeatureDesignEncoding(cell_type_vocabulary=vocab)
        return gs.encode_nodes_feature_design(graph, enc, node_types)

    def test_width_is_5_plus_vocab(self):
        g = triangle_graph_3d()
        out = self.encode(g, [["tet"]] * 3)
        assert out.shape == (3, 5 + 4)

    def test_node_at_reference_point(self):
        g = triangle_graph_3d()
        ref = reference_point_feature_design(g.positions)
        out = self.encode(g, [["tet"]] * 3)
        # node whose xy sits at the median
        rel = g.positions - ref
        idx = np.argmin(np.abs(rel[:, :2]).sum(axis=1))
        np.testing.assert_allclose(out[idx, :2], rel[idx, :2])

    def test_l1_norm_column(self):
        pts = np.array([[0, 0, 0], [1, -2, 3], [0, 0, 0]], dtype=float)
        g = gs.build_from_mesh(pts, [(0, 1, 2)])
        ref = reference_point_feature_design(pts)
        out = self.encode(g, [["tet"]] * 3)
        np.testing.assert_allclose(out[:, 3], np.abs(pts - ref).sum(axis=1))

    def test_multi_hot_cell_types(self):
        g = triangle_graph_3d()
        out = self.encode(g, [["hex", "tet"], ["tet"], ["hex"]])
        np.testing.assert_array_equal(out[0, 4:8], [1, 1, 0, 0])
        np.testing.assert_array_equal(out[1, 4:8], [1, 0, 0, 0])

    def test_unknown_label_rejected(self):
        with pytest.raises(VocabularyError):
            self.encode(triangle_graph_3d(), [["tet"], ["nope"], ["tet"]])

    def test_first_unknown_label_named(self):
        with pytest.raises(VocabularyError, match=r"^node 1: unknown cell type 'cube'$"):
            self.encode(triangle_graph_3d(), [["tet"], ["hex", "cube", "ball"], ["orb"]])

    @pytest.mark.parametrize("node_types", [3, [["tet"], None, ["tet"]], [["tet"], 2, ["tet"]],
                                            [["tet"], [["tet"]], ["tet"]]])
    def test_malformed_cell_types_rejected(self, node_types):
        with pytest.raises(ValueError, match="one list of labels per node"):
            self.encode(triangle_graph_3d(), node_types)

    def test_cell_type_count_must_match_nodes(self):
        with pytest.raises(ValueError, match="got cell types for 2 nodes, graph has 3"):
            self.encode(triangle_graph_3d(), [["tet"], ["tet"]])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_reference_loop(self, data):
        vocab = ("tet", "hex", "wedge", "pyramid")
        recs = gs.generate_synthetic(gs.SyntheticSpec(
            seed=data.draw(st.integers(0, 10 ** 6)), count=1, min_nodes=3, max_nodes=40,
            family=data.draw(st.sampled_from(["patch2d", "patch3d"]))))
        g = gs.build_from_mesh(recs[0].positions, recs[0].cells)
        # empty, repeated and unordered label lists, as well as the generator's
        node_types = data.draw(st.lists(st.lists(st.sampled_from(vocab), max_size=5),
                                        min_size=g.num_nodes, max_size=g.num_nodes))
        enc = gs.FeatureDesignEncoding(cell_type_vocabulary=vocab)
        for types in (recs[0].node_cell_types, node_types):
            np.testing.assert_array_equal(
                gs.encode_nodes_feature_design(g, enc, types),
                reference_encode_nodes_feature_design(g, enc, types))

    def test_degree_column(self):
        out = self.encode(triangle_graph_3d(), [["tet"]] * 3)
        np.testing.assert_array_equal(out[:, -1], [2, 2, 2])

    def test_translation_invariance_in_xy(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(9, 3))
        g = gs.build_from_mesh(pts, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 4, 8)])
        types = [["hex"]] * 9
        base = self.encode(g, types)
        shift = np.array([3.7, -1.2, 0.0])
        g2 = gs.build_from_mesh(pts + shift, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 4, 8)])
        np.testing.assert_allclose(self.encode(g2, types), base, atol=1e-9)


class TestAirfoilEncoding:
    def test_upper_node_at_origin(self):
        g = gs.build_surface_chain(np.array([[0.0, 0.0], [0.5, 0.1]]))
        enc = gs.AirfoilEncoding(freestream=(1.0, 0.0))
        out = gs.encode_nodes_airfoil(g, enc, [True, False])
        np.testing.assert_allclose(out[0], [0, 0, 1, 0, 1, 0])

    def test_lower_node_assembly(self):
        g = gs.build_surface_chain(np.array([[0.0, 0.0], [0.5, 0.1]]))
        enc = gs.AirfoilEncoding(freestream=(0.8, -0.2))
        out = gs.encode_nodes_airfoil(g, enc, [True, False])
        np.testing.assert_allclose(out[1], [0.5, 0.1, 0, 1, 0.8, -0.2])

    def test_freestream_broadcast_to_all_nodes(self):
        g = gs.build_surface_chain(np.random.rand(6, 2))
        enc = gs.AirfoilEncoding(freestream=(0.3, 0.9))
        out = gs.encode_nodes_airfoil(g, enc, [True] * 3 + [False] * 3)
        assert (out[:, 4] == 0.3).all() and (out[:, 5] == 0.9).all()
        assert out.shape[1] == 6

    @pytest.mark.parametrize("freestream", [(True, False), (0.5, True)])
    def test_boolean_freestream_rejected(self, freestream):
        with pytest.raises(ValueError, match="two finite numbers"):
            gs.AirfoilEncoding(freestream=freestream)

    def test_flag_count_mismatch(self):
        g = gs.build_surface_chain(np.random.rand(4, 2))
        with pytest.raises(ValueError):
            gs.encode_nodes_airfoil(g, gs.AirfoilEncoding(freestream=(1, 0)), [True])


class TestEdgeFeatures:
    def test_three_four_five(self):
        g = gs.Graph(positions=np.array([[0.0, 0.0], [3.0, 4.0]]),
                     edges=np.array([[1, 0], [0, 1]]))
        out = gs.encode_edges(g)
        # edge (1 -> 0): x_1 - x_0 = (3, 4); reversed edge antisymmetric
        by_edge = {tuple(e): f for e, f in zip(g.edges.tolist(), out)}
        np.testing.assert_allclose(by_edge[(1, 0)], [3, 4, 5])
        np.testing.assert_allclose(by_edge[(0, 1)], [-3, -4, 5])

    def test_coincident_nodes(self):
        g = gs.Graph(positions=np.zeros((2, 2)), edges=np.array([[0, 1], [1, 0]]))
        np.testing.assert_array_equal(gs.encode_edges(g), np.zeros((2, 3)))

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(8, 3))
        g = gs.build_from_mesh(pts, [(0, 1, 2, 3), (4, 5, 6, 7), (0, 4)])
        g2 = gs.Graph(positions=pts + rng.normal(size=3), edges=g.edges)
        np.testing.assert_allclose(gs.encode_edges(g2), gs.encode_edges(g), atol=1e-12)


class TestNormalizer:
    def test_two_point_column(self):
        norm = gs.Normalizer().fit(np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(norm.apply(np.array([[0.0], [2.0]])), [[-1], [1]])

    def test_constant_column_passes_through(self):
        norm = gs.Normalizer().fit(np.array([[5.0, 1.0], [5.0, 3.0]]))
        out = norm.apply(np.array([[5.0, 2.0]]))
        assert out[0, 0] == 5.0

    def test_fit_then_apply_centers_training_data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.0, size=(100, 4))
        norm = gs.Normalizer().fit(x)
        out = norm.apply(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)

    def test_apply_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            gs.Normalizer().apply(np.zeros((2, 2)))

    def test_invert_round_trip(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 3))
        norm = gs.Normalizer().fit(x)
        np.testing.assert_allclose(norm.invert(norm.apply(x)), x, atol=1e-12)


class TestPressureNormalization:
    def test_uniform_pressure_demeans_to_zero(self):
        out, _ = normalize_pressure_target(np.full(5, 7.0), 1.0, 2.0)
        np.testing.assert_allclose(out, 0.0)

    def test_derived_example(self):
        # vel = 1^2 + 1^2 = 2, p/vel = {1, 2}, mean 1.5
        out, mean = normalize_pressure_target(np.array([2.0, 4.0]), 1.0, 1.0)
        np.testing.assert_allclose(out, [-0.5, 0.5])
        assert mean == 1.5

    def test_round_trip(self):
        p = np.array([3.0, -1.0, 0.5])
        out, mean = normalize_pressure_target(p, 0.7, -0.3)
        np.testing.assert_allclose(denormalize_pressure_target(out, mean, 0.7, -0.3), p)

    def test_zero_freestream_rejected(self):
        with pytest.raises(DegenerateFreestreamError):
            normalize_pressure_target(np.ones(3), 0.0, 0.0)

    def test_speed_magnitude_variant(self):
        out, mean = normalize_pressure_target(np.array([3.0, 5.0]), 3.0, 4.0,
                                              use_speed_squared=False)
        np.testing.assert_allclose(out, np.array([3.0, 5.0]) / 5.0 - 0.8)


class TestNodeDegree:
    def test_open_chain(self):
        g = gs.build_surface_chain(np.zeros((3, 2)))
        np.testing.assert_array_equal(gs.compute_node_degree(g), [1, 2, 1])

    def test_triangle(self):
        np.testing.assert_array_equal(
            gs.compute_node_degree(gs.build_from_mesh(np.zeros((3, 2)), [(0, 1, 2)])),
            [2, 2, 2])

    def test_matches_add_at_reference(self):
        rng = np.random.default_rng(5)
        for n in (1, 4, 30):
            cells = [rng.choice(n + 2, 3, replace=False).tolist() for _ in range(n)]
            g = gs.build_from_mesh(np.zeros((n + 2, 3)), cells)   # some nodes in no cell
            expected = np.zeros(g.num_nodes, dtype=np.int64)
            np.add.at(expected, g.receivers, 1)
            degree = gs.compute_node_degree(g)
            assert degree.dtype == np.int64
            np.testing.assert_array_equal(degree, expected)
