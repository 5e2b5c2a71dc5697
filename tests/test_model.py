import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import gnnsurrogate as gs
from gnnsurrogate import mlp as nn
from gnnsurrogate import model as gnn
from gnnsurrogate.graph import merge_batch
from conftest import (featurized_samples, mlp_forward, run_python, set_parameters,
                      tiny_config, zero_final_layer)


def make_featurized(rng, n=5, node_in=6, edge_in=3, with_chain=True):
    if with_chain:
        g = gs.build_surface_chain(rng.uniform(0, 1, (n, 2)))
    else:
        g = gs.build_from_mesh(rng.uniform(0, 1, (n, 3)),
                               [tuple(rng.choice(n, 3, replace=False)) for _ in range(n)])
    return replace(g, node_features=rng.normal(size=(n, node_in)),
                   edge_features=rng.normal(size=(g.num_edges, edge_in)),
                   node_targets=rng.normal(size=(n, 1)),
                   graph_target=rng.normal(size=1))


def permute_graph(g, perm):
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    edges = inv[g.edges]
    order = np.lexsort((edges[:, 0], edges[:, 1]))
    return gs.Graph(positions=g.positions[perm], edges=edges[order],
                    node_features=g.node_features[perm],
                    edge_features=g.edge_features[order],
                    node_targets=None if g.node_targets is None else g.node_targets[perm],
                    graph_target=g.graph_target)


class TestEncode:
    def test_identical_inputs_identical_latents(self, rng):
        g = make_featurized(rng)
        nf = g.node_features.copy()
        nf[1] = nf[0]
        g = replace(g, node_features=nf)
        m = gnn.build_model(tiny_config(), 0)
        v, e = gnn.encode(m, g)
        np.testing.assert_array_equal(v[0], v[1])
        assert v.shape == (g.num_nodes, 4) and e.shape == (g.num_edges, 4)

    def test_zero_encoder_gives_zero_latents(self, rng):
        g = make_featurized(rng)
        m = gnn.build_model(tiny_config(), 0)
        for w in m.encoder_node.weights:
            w[:] = 0.0
        v, _ = gnn.encode(m, g)
        np.testing.assert_array_equal(v, np.zeros_like(v))

    def test_row_permutation_commutes(self, rng):
        g = make_featurized(rng, n=6)
        m = gnn.build_model(tiny_config(), 1)
        v, _ = gnn.encode(m, g)
        perm = rng.permutation(6)
        v2, _ = gnn.encode(m, permute_graph(g, perm))
        np.testing.assert_allclose(v2, v[perm], atol=1e-14)


class TestMessagePassingStep:
    def test_zero_update_is_identity(self, rng):
        g = make_featurized(rng)
        m = gnn.build_model(tiny_config(), 2)
        for k in range(m.config.steps):
            zero_final_layer(m.processor_edge[k])
            zero_final_layer(m.processor_node[k])
        v, e = gnn.encode(m, g)
        v2, e2 = gnn.message_passing_step(m, 0, g, (v, e))
        np.testing.assert_array_equal(v2, v)
        np.testing.assert_array_equal(e2, e)

    def test_no_incoming_edges_gives_zero_aggregate(self):
        # directed-only star: node 2 has no incoming edges in this raw graph
        g = gs.Graph(positions=np.zeros((3, 2)),
                     edges=np.array([[2, 0], [2, 1]]))
        m = gnn.build_model(tiny_config(), 3)
        rng = np.random.default_rng(0)
        v = rng.normal(size=(3, 4))
        e = rng.normal(size=(2, 4))
        v2, _ = gnn.message_passing_step(m, 0, g, (v, e))
        # node 2's update must equal rho^V([v_2 | zeros])
        expect = v[2] + mlp_forward(m.processor_node[0],
                                   np.hstack([v[2], np.zeros(4)])[None, :])[0]
        np.testing.assert_allclose(v2[2], expect, atol=1e-14)

    def test_matches_naive_per_edge_loop(self, rng):
        # independent oracle: literal per-edge/per-node evaluation of the
        # update equations with explicit python loops
        g = make_featurized(rng, n=6)
        m = gnn.build_model(tiny_config(steps=1), 4)
        v, e = gnn.encode(m, g)
        v_fast, e_fast = gnn.message_passing_step(m, 0, g, (v, e))

        nl = m.config.latent_size
        ue = np.zeros_like(e)
        for row, (s, r) in enumerate(g.edges):
            inp = np.concatenate([e[row], v[s], v[r]])[None, :]
            ue[row] = mlp_forward(m.processor_edge[0], inp)[0]
        uv = np.zeros_like(v)
        for i in range(g.num_nodes):
            agg = np.zeros(nl)
            for row, (s, r) in enumerate(g.edges):
                if r == i:
                    agg += ue[row]
            inp = np.concatenate([v[i], agg])[None, :]
            uv[i] = mlp_forward(m.processor_node[0], inp)[0]
        np.testing.assert_allclose(e_fast, e + ue, atol=1e-12)
        np.testing.assert_allclose(v_fast, v + uv, atol=1e-12)

    def test_step_out_of_range(self, rng):
        g = make_featurized(rng)
        m = gnn.build_model(tiny_config(steps=2), 0)
        v, e = gnn.encode(m, g)
        with pytest.raises(gnn.ConfigError):
            gnn.message_passing_step(m, 2, g, (v, e))


class TestDecoders:
    def test_identical_latents_pool_to_that_row(self, rng):
        m = gnn.build_model(tiny_config(), 5)
        row = rng.normal(size=4)
        latents = np.tile(row, (7, 1))
        out = gnn.decode_graph(m, latents, [(0, 7)])
        expect = mlp_forward(m.decoder_graph, row[None, :])
        np.testing.assert_allclose(out, expect, atol=1e-14)

    def test_duplicating_nodes_leaves_mean_unchanged(self, rng):
        m = gnn.build_model(tiny_config(), 5)
        latents = rng.normal(size=(4, 4))
        doubled = np.vstack([latents, latents])
        np.testing.assert_allclose(gnn.decode_graph(m, latents, [(0, 4)]),
                                   gnn.decode_graph(m, doubled, [(0, 8)]), atol=1e-12)

    def test_batched_segments_pool_independently(self, rng):
        m = gnn.build_model(tiny_config(), 6)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        both = gnn.decode_graph(m, np.vstack([a, b]), [(0, 3), (3, 5)])
        np.testing.assert_allclose(both[0], gnn.decode_graph(m, a, [(0, 3)])[0], atol=1e-12)
        np.testing.assert_allclose(both[1], gnn.decode_graph(m, b, [(0, 5)])[0], atol=1e-12)

    def test_empty_segment_rejected(self, rng):
        m = gnn.build_model(tiny_config(), 5)
        with pytest.raises(ValueError):
            gnn.decode_graph(m, rng.normal(size=(3, 4)), [(0, 0)])

    def test_node_decoder_sees_graph_context(self, rng):
        m = gnn.build_model(tiny_config(), 7)
        latents = np.tile(rng.normal(size=4), (2, 1))
        y_graphs = rng.normal(size=(2, 3))
        out = gnn.decode_node(m, latents, y_graphs, np.array([0, 1]))
        # identical node latents, different graph context -> different outputs
        assert np.abs(out[0] - out[1]).max() > 1e-8

    def test_missing_node_decoder_rejected(self, rng):
        m = gnn.build_model(tiny_config(node_out=None, graph_out=1), 0)
        with pytest.raises(gnn.ConfigError):
            gnn.decode_node(m, rng.normal(size=(2, 4)), rng.normal(size=(1, 1)),
                            np.zeros(2, dtype=int))

    def test_relu_node_head_nonnegative(self, rng):
        m = gnn.build_model(tiny_config(node_output_activation="relu"), 8)
        g = make_featurized(rng)
        y_node, _ = gnn.predict(m, g)
        assert (y_node >= 0).all()


class TestPredict:
    def test_zeroed_heads_output_zero(self, rng):
        m = gnn.build_model(tiny_config(), 9)
        zero_final_layer(m.decoder_graph)
        zero_final_layer(m.decoder_node)
        y_node, y_graph = gnn.predict(m, make_featurized(rng))
        np.testing.assert_array_equal(y_graph, np.zeros_like(y_graph))
        np.testing.assert_array_equal(y_node, np.zeros_like(y_node))

    def test_paper_scale_node_level_config_instantiates(self):
        cfg = gnn.GnnConfig(node_input_size=9, edge_input_size=4, latent_size=64,
                            steps=6, depth=4, width=64, graph_output_size=4,
                            node_output_size=1, node_output_activation="relu")
        m = gnn.build_model(cfg, 0)
        assert len(m.processor_edge) == 6
        assert m.decoder_graph.weights[-1].shape[1] == 4
        assert m.decoder_node.weights[-1].shape[1] == 1

    def test_graph_level_config_has_no_node_decoder(self):
        cfg = gnn.GnnConfig(node_input_size=6, edge_input_size=3, latent_size=64,
                            steps=5, depth=5, width=64, graph_output_size=1)
        m = gnn.build_model(cfg, 0)
        assert m.decoder_node is None and cfg.task == "graph_level"

    def test_permutation_equivariance(self, rng):
        m = gnn.build_model(tiny_config(), 10)
        g = make_featurized(rng, n=8)
        perm = rng.permutation(8)
        y_node, y_graph = gnn.predict(m, g)
        y_node_p, y_graph_p = gnn.predict(m, permute_graph(g, perm))
        np.testing.assert_allclose(y_graph_p, y_graph, atol=1e-10)
        np.testing.assert_allclose(y_node_p, y_node[perm], atol=1e-10)

    def test_batch_equivalence(self, rng):
        m = gnn.build_model(tiny_config(), 11)
        graphs = [make_featurized(rng, n=int(rng.integers(3, 8))) for _ in range(4)]
        batch = merge_batch(graphs)
        yn_b, yg_b = gnn.predict(m, batch)
        offset = 0
        for k, g in enumerate(graphs):
            yn, yg = gnn.predict(m, g)
            np.testing.assert_allclose(yg_b[k], yg[0], atol=1e-10)
            np.testing.assert_allclose(yn_b[offset:offset + g.num_nodes], yn, atol=1e-10)
            offset += g.num_nodes

    def test_residual_identity_across_all_steps(self, rng):
        m = gnn.build_model(tiny_config(steps=3), 12)
        for k in range(3):
            zero_final_layer(m.processor_edge[k])
            zero_final_layer(m.processor_node[k])
        g = make_featurized(rng)
        v0, e0 = gnn.encode(m, g)
        v, e = v0, e0
        for k in range(3):
            v, e = gnn.message_passing_step(m, k, g, (v, e))
        np.testing.assert_array_equal(v, v0)
        np.testing.assert_array_equal(e, e0)

    def test_locality_l_hops(self, rng):
        # path of 2L+3 nodes; with the pooled-context path silenced, the far
        # endpoint is out of reach of L message passing steps
        L = 2
        n = 2 * L + 3
        m = gnn.build_model(tiny_config(steps=L), 13)
        zero_final_layer(m.decoder_graph)
        g = make_featurized(rng, n=n)
        g = replace(gs.build_surface_chain(g.positions[:n]), node_features=g.node_features,
                    edge_features=rng.normal(size=(2 * (n - 1), 3)))
        y0, _ = gnn.predict(m, g)
        nf = g.node_features.copy()
        nf[0] += 10.0
        y1, _ = gnn.predict(m, replace(g, node_features=nf))
        assert abs(y1[-1, 0] - y0[-1, 0]) <= 1e-12
        assert abs(y1[L, 0] - y0[L, 0]) > 1e-8  # within reach it does change


class TestGradients:
    def test_end_to_end_finite_differences(self, rng):
        from gnnsurrogate import training as tr
        graphs = [make_featurized(rng, n=4), make_featurized(rng, n=5)]
        batch = merge_batch(graphs)
        m = gnn.build_model(tiny_config(latent=3, width=4), 14)
        lam = 1e-3

        def total():
            yn, _, _ = gnn.forward(m, batch)
            return tr.loss(yn, batch.graph.node_targets, m.parameters(), lam)

        _, grads, _ = tr._batch_loss_and_grads(m, batch, "node_level", lam)
        params = m.parameters()
        for p, g in zip(params, grads):
            flat_p, flat_g = p.ravel(), g.ravel()
            for idx in rng.choice(p.size, size=min(4, p.size), replace=False):
                h = 1e-6 * max(1.0, abs(flat_p[idx]))
                orig = flat_p[idx]
                flat_p[idx] = orig + h
                fp = total()
                flat_p[idx] = orig - h
                fm = total()
                flat_p[idx] = orig
                fd = (fp - fm) / (2 * h)
                assert abs(fd - flat_g[idx]) <= 1e-4 * max(1e-6, abs(fd), abs(flat_g[idx]))


def concatenated_reference(m, batch, grad_node_out, grad_graph_out):
    """Forward and adjoint with every MLP input formed by hstack and every
    scatter an np.add.at, independent of model.forward's blockwise first
    layers. Returns (node_out, graph_out, gradients in parameters() order)."""
    g = batch.graph
    s, r = g.senders, g.receivers
    nl = m.config.latent_size
    e, t_ee = nn.forward_tape(m.encoder_edge, g.edge_features)
    v, t_ev = nn.forward_tape(m.encoder_node, g.node_features)
    tapes = []
    for k in range(m.config.steps):
        ue, t_pe = nn.forward_tape(m.processor_edge[k], np.hstack([e, v[s], v[r]]))
        agg = np.zeros_like(v)
        np.add.at(agg, r, ue)
        uv, t_pn = nn.forward_tape(m.processor_node[k], np.hstack([v, agg]))
        e, v = e + ue, v + uv
        tapes.append((t_pe, t_pn))
    seg = batch.segment_ids()
    lengths = np.array([n for _, n in batch.segments])
    pooled = np.stack([v[a:a + n].mean(axis=0) for a, n in batch.segments])
    y_graph, t_dg = nn.forward_tape(m.decoder_graph, pooled)

    gy = grad_graph_out.copy()
    gv = np.zeros_like(v)
    y_node, grads_dn = None, []
    if m.decoder_node is not None:
        y_node, t_dn = nn.forward_tape(m.decoder_node, np.hstack([v, y_graph[seg]]))
        gin, grads_dn = nn.backward(m.decoder_node, t_dn, grad_node_out)
        gv += gin[:, :nl]
        np.add.at(gy, seg, gin[:, nl:])
    gp, grads_dg = nn.backward(m.decoder_graph, t_dg, gy)
    gv += (gp / lengths[:, None])[seg]
    ge = np.zeros_like(e)
    step_grads = []
    for k in range(m.config.steps - 1, -1, -1):
        t_pe, t_pn = tapes[k]
        gin, grads_pn = nn.backward(m.processor_node[k], t_pn, gv)
        gv = gv + gin[:, :nl]
        gin_e, grads_pe = nn.backward(m.processor_edge[k], t_pe, ge + gin[:, nl:][r])
        ge = ge + gin_e[:, :nl]
        np.add.at(gv, s, gin_e[:, nl:2 * nl])
        np.add.at(gv, r, gin_e[:, 2 * nl:])
        step_grads = list(grads_pe) + list(grads_pn) + step_grads
    _, grads_ee = nn.backward(m.encoder_edge, t_ee, ge)
    _, grads_ev = nn.backward(m.encoder_node, t_ev, gv)
    return y_node, y_graph, [*grads_ee, *grads_ev, *step_grads, *grads_dg, *grads_dn]


def assert_agree(actual, expected, tol=1e-12):
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    assert np.abs(actual - expected).max(initial=0.0) <= tol * scale


@st.composite
def directed_graphs(draw, node_in, edge_in):
    """A directed graph of 2-6 nodes with 1 edge or more: some nodes may have
    no incoming edge, and a single-edge graph always has one."""
    n = draw(st.integers(2, 6))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
        min_size=1, max_size=2 * n, unique=True))
    edges = np.array(sorted(pairs, key=lambda p: (p[1], p[0])), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return gs.Graph(positions=rng.uniform(0, 1, (n, 2)), edges=edges,
                    node_features=rng.normal(size=(n, node_in)),
                    edge_features=rng.normal(size=(len(edges), edge_in)),
                    node_targets=rng.normal(size=(n, 1)),
                    graph_target=rng.normal(size=2))


class TestBlockwiseFirstLayers:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_forward_backward_match_concatenated(self, data):
        latent = data.draw(st.integers(2, 5), label="latent")
        width = latent + data.draw(st.sampled_from([-1, 1, 3]), label="width - latent")
        node_level = data.draw(st.booleans(), label="node_level")
        cfg = tiny_config(node_in=3, edge_in=2, latent=latent, width=width,
                          steps=data.draw(st.integers(1, 3), label="steps"),
                          depth=data.draw(st.integers(1, 3), label="depth"),
                          graph_out=2, node_out=1 if node_level else None,
                          # the frequencies of the acceptance and benchmark configs; at
                          # 2.0 a He-initialised sine net is so sensitive that a one-ulp
                          # change of its inputs moves the reference's own gradients ~1e-8
                          sine_frequency=data.draw(st.sampled_from([0.5, 1.0])))
        graphs = data.draw(st.lists(directed_graphs(3, 2), min_size=1, max_size=3))
        batch = merge_batch(graphs)
        m = gnn.build_model(cfg, data.draw(st.integers(0, 1000), label="model seed"))
        rng = np.random.default_rng(0)
        g_node = rng.normal(size=(batch.graph.num_nodes, 1)) if node_level else None
        g_graph = rng.normal(size=(len(graphs), 2))

        y_node, y_graph, tape = gnn.forward(m, batch)
        grads = m.split(gnn.backward(m, tape, grad_node_out=g_node, grad_graph_out=g_graph))
        r_node, r_graph, r_grads = concatenated_reference(m, batch, g_node, g_graph)

        assert_agree(y_graph, r_graph)
        if node_level:
            assert_agree(y_node, r_node)
        assert len(grads) == len(r_grads)
        for got, want in zip(grads, r_grads):
            assert got.shape == want.shape
            assert_agree(got, want)

    def test_processor_edge_first_layer_blocks_match_finite_differences(self, rng):
        from gnnsurrogate import training as tr
        batch = merge_batch([make_featurized(rng, n=5), make_featurized(rng, n=4)])
        nl = 3
        m = gnn.build_model(tiny_config(latent=nl, width=5, steps=2), 15)

        def total():
            yn, _, _ = gnn.forward(m, batch)
            return tr.loss(yn, batch.graph.node_targets, m.parameters(), 0.0)

        _, grads, _ = tr._batch_loss_and_grads(m, batch, "node_level", 0.0)
        offset = 4 * m.config.depth + 4   # two encoders of depth+1 layers each
        for k, pe in enumerate(m.processor_edge):
            w = pe.weights[0]
            gw = grads[offset + k * 4 * (m.config.depth + 1)]
            assert gw.shape == w.shape == (3 * nl, 5)
            for block in range(3):             # e, v_sender, v_receiver rows
                for row in range(block * nl, (block + 1) * nl):
                    col = int(rng.integers(0, w.shape[1]))
                    orig = w[row, col]
                    h = 1e-6
                    w[row, col] = orig + h
                    fp = total()
                    w[row, col] = orig - h
                    fm = total()
                    w[row, col] = orig
                    fd = (fp - fm) / (2 * h)
                    assert abs(fd - gw[row, col]) <= 1e-6 * max(1e-3, abs(fd)), (k, row, col)


def recording(fn, log, pick):
    """`fn`, appending pick(args, result) to `log` on every call."""
    def wrapper(*args):
        out = fn(*args)
        log.append(pick(args, out))
        return out
    return wrapper


class TestSinglePath:
    """forward and predict both run the staged encode / message_passing_step
    / decode_* functions."""

    @pytest.mark.parametrize("node_out", [1, None])
    def test_predict_equals_forward_bit_for_bit(self, rng, node_out):
        m = gnn.build_model(tiny_config(node_out=node_out), 16)
        graphs = [make_featurized(rng, n=int(rng.integers(3, 8))) for _ in range(3)]
        for g in (graphs[0], merge_batch(graphs)):
            y_node, y_graph, _ = gnn.forward(m, g)
            p_node, p_graph = gnn.predict(m, g)
            assert np.array_equal(p_graph, y_graph)
            if node_out is None:
                assert y_node is None and p_node is None
            else:
                assert np.array_equal(p_node, y_node)

    def test_standalone_step_equals_the_step_inside_forward(self, rng, monkeypatch):
        m = gnn.build_model(tiny_config(steps=3), 17)
        g = make_featurized(rng, n=7)
        inside = []
        monkeypatch.setattr(gnn, "message_passing_step", recording(
            gnn.message_passing_step, inside, lambda args, out: (args[3], out)))
        gnn.forward(m, merge_batch([g]))
        monkeypatch.undo()
        assert len(inside) == 3
        for k, (state, (v, e)) in enumerate(inside):
            v_alone, e_alone = gnn.message_passing_step(m, k, g, state)  # own incidence
            assert np.array_equal(v_alone, v) and np.array_equal(e_alone, e)

    def test_one_receiver_incidence_per_call_and_no_tape_in_predict(self, rng, monkeypatch):
        m = gnn.build_model(tiny_config(steps=3), 18)
        batch = merge_batch([make_featurized(rng, n=5), make_featurized(rng, n=4)])
        built, tapes = [], []
        monkeypatch.setattr(gnn, "_incidence", recording(
            gnn._incidence, built, lambda args, _: np.array_equal(args[0], batch.graph.receivers)))
        for name in ("encode", "message_passing_step", "decode_graph", "decode_node"):
            monkeypatch.setattr(gnn, name, recording(getattr(gnn, name), tapes,
                                                     lambda args, _: args[-1]))
        _, _, tape = gnn.forward(m, batch)
        assert built == [True]
        assert len(tape) == len(tapes) == 6 and all(t is tape for t in tapes)  # 1 + 3 + 2 stages
        built.clear()
        tapes.clear()
        gnn.predict(m, batch)
        assert built == [True] and tapes == [None] * 6


class TestFlatParameters:
    def test_every_parameter_is_a_view_of_the_vector(self):
        m = gnn.build_model(tiny_config(), 0)
        params = m.parameters()
        assert m.flat.dtype == np.float64 and m.flat.flags.c_contiguous
        assert m.flat.size == sum(p.size for p in params) == m.offsets[-1]
        # 8 MLPs (2 encoders, 2 steps x 2 processors, 2 decoders) of depth + 1 layers
        assert len(params) == len(m.parameter_names()) == 8 * 2 * (m.config.depth + 1)
        for p in params:
            assert np.shares_memory(p, m.flat)
        # the MLPs hold views of the same memory, in parameters() order
        held = [a for mlp in m.mlps() for a in mlp.parameters()]
        address = lambda a: a.__array_interface__["data"][0]
        assert all(a.base is m.flat for a in held)
        assert [address(a) for a in held] == [address(p) for p in params]

    def test_in_place_edit_through_a_view_changes_forward(self, rng):
        m = gnn.build_model(tiny_config(), 1)
        g = make_featurized(rng)
        before, _ = gnn.predict(m, g)
        m.processor_edge[1].weights[0][0, 0] += 0.5
        after, _ = gnn.predict(m, g)
        assert not np.array_equal(before, after)
        m.flat[m.offsets[0]] -= 1.0      # encoder_edge W0[0, 0] through the vector
        assert m.encoder_edge.weights[0][0, 0] == m.flat[0]
        assert not np.array_equal(gnn.predict(m, g)[0], after)

    def test_set_parameters_copies_without_rebinding(self):
        a, b = gnn.build_model(tiny_config(), 2), gnn.build_model(tiny_config(), 3)
        flat, w0 = a.flat, a.encoder_edge.weights[0]
        set_parameters(a, b.parameters())
        assert a.flat is flat and a.encoder_edge.weights[0] is w0
        np.testing.assert_array_equal(a.flat, b.flat)
        assert not np.shares_memory(a.flat, b.flat)

    def test_set_parameters_names_a_wrong_shape(self):
        m = gnn.build_model(tiny_config(), 0)
        values = [p.copy() for p in m.parameters()]
        values[7] = values[7][:-1]
        with pytest.raises(ValueError, match=r"parameter 7 \(encoder_node b0\)"):
            set_parameters(m, values)
        with pytest.raises(ValueError, match="expected 48 parameter arrays, got 47"):
            set_parameters(m, values[:-1])

    def test_a_given_vector_is_the_models_own(self, rng):
        m, g = gnn.build_model(tiny_config(), 6), make_featurized(rng)
        flat = m.flat.astype(np.float32)
        m32 = gnn.GnnModel(m.config, flat)
        assert m32.flat is flat and m32.shapes == m.shapes and m32.offsets == m.offsets
        assert all(p.base is flat for mlp in m32.mlps() for p in mlp.parameters())
        np.testing.assert_allclose(gnn.predict(m32, g)[0], gnn.predict(m, g)[0], rtol=1e-4)
        copy = gnn.GnnModel(m.config, m.flat.copy())
        assert [a.tobytes() for a in gnn.predict(copy, g)] == \
            [a.tobytes() for a in gnn.predict(m, g)]

    def test_without_a_vector_every_parameter_is_a_float64_zero(self):
        m = gnn.GnnModel(tiny_config(node_out=None, graph_out=1))
        assert m.flat.dtype == np.float64 and not m.flat.any() and m.decoder_node is None
        assert m.shapes == gnn.build_model(m.config, 0).shapes

    @pytest.mark.parametrize("edit", ["shorter", "longer", "empty", "two_rows", "integers"])
    def test_a_vector_of_another_shape_or_dtype_raises(self, edit):
        cfg = tiny_config()
        size = gnn.build_model(cfg, 0).flat.size
        flat = {"shorter": np.zeros(size - 1), "longer": np.zeros(size + 1),
                "empty": np.zeros(0), "two_rows": np.zeros((2, size)),
                "integers": np.zeros(size, np.int64)}[edit]
        with pytest.raises(ValueError, match=rf"parameter vector .*expected floats of shape "
                                             rf"\({size},\)"):
            gnn.GnnModel(cfg, flat)

    def test_backward_is_laid_out_like_the_vector(self, rng):
        m = gnn.build_model(tiny_config(), 4)
        batch = merge_batch([make_featurized(rng)])
        _, _, tape = gnn.forward(m, batch)
        grad = gnn.backward(m, tape, grad_node_out=np.ones((batch.graph.num_nodes, 1)))
        assert grad.shape == m.flat.shape
        assert [g.shape for g in m.split(grad)] == [p.shape for p in m.parameters()]


def allocating_backward(m, tape, grad_node_out, grad_graph_out):
    """`gnn.backward` as it was before gradients were written in place: every
    gradient array allocated, the vector formed by one concatenate."""
    cfg, g = m.config, tape[0][0]
    gv = np.zeros((g.num_nodes, cfg.latent_size))
    ge = np.zeros((g.num_edges, cfg.latent_size))
    grads, gy_dn = [], None
    if m.decoder_node is not None:
        dn = m.decoder_node
        tape_dn, seg_ids = tape.pop()
        if grad_node_out is None:
            grads.append([np.zeros_like(p) for p in dn.parameters()])
        else:
            starts = np.flatnonzero(np.diff(seg_ids, prepend=-1))
            (gv_dn, gy_dn), grads_dn = nn.backward(
                dn, tape_dn, grad_node_out, sums=lambda gz: [np.add.reduceat(gz, starts, axis=0)])
            gv += gv_dn
            grads.append(grads_dn)
    tape_dg, segments = tape.pop()
    gy_graph = np.zeros((len(segments), cfg.graph_output_size))
    if grad_graph_out is not None:
        gy_graph = gy_graph + grad_graph_out
    if gy_dn is not None:
        gy_graph += gy_dn
    gpooled, grads_dg = nn.backward(m.decoder_graph, tape_dg, gy_graph)
    lengths = np.array([length for _, length in segments])
    gv += np.repeat(gpooled / lengths[:, None], lengths, axis=0)
    grads.append(grads_dg)
    send_mat = gnn._incidence(g.senders, g.num_nodes, m.flat.dtype)
    for k in range(cfg.steps - 1, -1, -1):
        recv_mat, tape_pe, tape_pn = tape.pop()
        pe, pn = m.processor_edge[k], m.processor_node[k]
        (gv_pn, gagg), grads_pn = nn.backward(pn, tape_pn, gv)
        gv = gv + gv_pn
        gue = np.take(gagg, g.receivers, axis=0)
        gue += ge
        (ge_pe, gv_s, gv_r), grads_pe = nn.backward(
            pe, tape_pe, gue, sums=lambda gz: [send_mat @ gz, recv_mat @ gz])
        ge += ge_pe
        gv += gv_s
        gv += gv_r
        grads.append(grads_pe + grads_pn)
    _, tape_ee, tape_ev = tape.pop()
    _, grads_ee = nn.backward(m.encoder_edge, tape_ee, ge, input_grad=False)
    _, grads_ev = nn.backward(m.encoder_node, tape_ev, gv, input_grad=False)
    grads.append(grads_ee + grads_ev)
    return np.concatenate([p.ravel() for stage in reversed(grads) for p in stage])


class TestSingleUseTape:
    """backward consumes the tape of one forward call and writes the
    gradient into one vector."""

    @pytest.mark.parametrize("node_out", [1, None])
    def test_second_backward_raises(self, rng, node_out):
        m = gnn.build_model(tiny_config(node_out=node_out), 20)
        batch = merge_batch([make_featurized(rng, n=5), make_featurized(rng, n=4)])
        _, y_graph, tape = gnn.forward(m, batch)
        grads = dict(grad_node_out=np.ones((9, 1))) if node_out else \
            dict(grad_graph_out=np.ones_like(y_graph))
        gnn.backward(m, tape, **grads)
        assert tape == []
        with pytest.raises(RuntimeError, match="consumed"):
            gnn.backward(m, tape, **grads)

    @pytest.mark.parametrize("node_act", ["linear", "relu", "sine"])
    @pytest.mark.parametrize("graph_act", ["linear", "relu", "sine"])
    def test_callers_arrays_unchanged(self, rng, monkeypatch, node_act, graph_act):
        m = gnn.build_model(tiny_config(steps=3, node_output_activation=node_act,
                                        graph_output_activation=graph_act), 21)
        batch = merge_batch([make_featurized(rng, n=6), make_featurized(rng, n=5)])
        states = []
        monkeypatch.setattr(gnn, "message_passing_step", recording(
            gnn.message_passing_step, states,
            lambda args, _: (args[3], [a.copy() for a in args[3]])))
        y_node, y_graph, tape = gnn.forward(m, batch)
        g_node = rng.normal(size=y_node.shape)
        g_graph = rng.normal(size=y_graph.shape)
        g = batch.graph
        held = [y_node, y_graph, g_node, g_graph, g.node_features, g.edge_features]
        before = [a.copy() for a in held]
        gnn.backward(m, tape, grad_node_out=g_node, grad_graph_out=g_graph)
        for now, then in zip(held, before):
            np.testing.assert_array_equal(now, then)
        assert len(states) == 3
        for state, copies in states:
            for now, then in zip(state, copies):
                np.testing.assert_array_equal(now, then)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_vector_equals_the_allocated_concatenation(self, data):
        # the draws of test_forward_backward_match_concatenated
        latent = data.draw(st.integers(2, 5), label="latent")
        node_level = data.draw(st.booleans(), label="node_level")
        cfg = tiny_config(node_in=3, edge_in=2, latent=latent,
                          width=latent + data.draw(st.sampled_from([-1, 1, 3])),
                          steps=data.draw(st.integers(1, 3), label="steps"),
                          depth=data.draw(st.integers(1, 3), label="depth"),
                          graph_out=2, node_out=1 if node_level else None,
                          sine_frequency=data.draw(st.sampled_from([0.5, 1.0])))
        graphs = data.draw(st.lists(directed_graphs(3, 2), min_size=1, max_size=3))
        batch = merge_batch(graphs)
        m = gnn.build_model(cfg, data.draw(st.integers(0, 1000), label="model seed"))
        rng = np.random.default_rng(0)
        g_node = rng.normal(size=(batch.graph.num_nodes, 1)) if node_level else None
        g_graph = rng.normal(size=(len(graphs), 2))

        want = allocating_backward(m, gnn.forward(m, batch)[2], g_node, g_graph)
        got = gnn.backward(m, gnn.forward(m, batch)[2], grad_node_out=g_node,
                           grad_graph_out=g_graph)
        assert got.shape == m.flat.shape
        np.testing.assert_array_equal(got, want)


def floating_arrays(obj):
    """Every floating ndarray or sparse matrix in nested lists and tuples."""
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from floating_arrays(item)
    elif (isinstance(obj, np.ndarray) or sparse.issparse(obj)) \
            and np.issubdtype(obj.dtype, np.floating):
        yield obj


class TestPrecisionFollowsParameters:
    """A model computes in its parameters' dtype: made from its parameter
    vector cast to float32, nothing on the training path widens to float64."""

    # Largest |float32 - float64| forward output over the largest float64
    # output. Over 10 model seeds of these configs the worst seen was 6e-7 at
    # frequency 0.5 and 1e-5 at 1.0; at 2.0 it reached 0.2, as float64 itself
    # is chaotic there.
    RTOL = 1e-4

    @pytest.mark.parametrize("freq", [0.5, 1.0])
    @pytest.mark.parametrize("family, node_out", [("chain", 1), ("patch3d", None)])
    def test_float32_model_stays_float32(self, monkeypatch, family, node_out, freq):
        from gnnsurrogate import training as tr
        feat, samples = featurized_samples(3, 6, family=family, min_nodes=10, max_nodes=20)
        batch = merge_batch([s.graph for s in samples])
        cfg = tiny_config(node_in=feat.node_feature_width, edge_in=feat.edge_feature_width,
                          latent=8, steps=3, depth=2, width=16, node_out=node_out,
                          graph_out=3 if node_out else 1, sine_frequency=freq)
        m64 = gnn.build_model(cfg, 5)
        m = gnn.GnnModel(cfg, m64.flat.astype(np.float32))
        assert m.flat.dtype == np.float32

        y_node, y_graph, tape = gnn.forward(m, batch)
        outputs = [y_graph] if node_out is None else [y_node, y_graph]
        predicted = [y for y in gnn.predict(m, batch) if y is not None]
        want = [y for y in gnn.predict(m64, batch) if y is not None]
        for y, p, w in zip(outputs, predicted, want):
            assert y.dtype == p.dtype == np.float32
            assert np.max(np.abs(p - w)) <= self.RTOL * np.max(np.abs(w))
        taped = list(floating_arrays(tape))    # at least each MLP's pre-activations
        assert len(taped) > len(m.mlps()) * (cfg.depth + 1)
        assert all(a.dtype == np.float32 for a in taped)

        adjoints, mlp_backward = [], nn.backward

        def recording_backward(mlp, tape, grad_output, **kwargs):
            grad_input, grads = mlp_backward(mlp, tape, grad_output, **kwargs)
            adjoints.append(grad_output)            # a list of blocks' gradients, or one
            adjoints.extend([] if grad_input is None else
                            grad_input if isinstance(grad_input, list) else [grad_input])
            return grad_input, grads
        monkeypatch.setattr(nn, "backward", recording_backward)
        if node_out is None:
            value, gpred = tr.mae_loss(y_graph, batch.graph_targets)
            grad = gnn.backward(m, tape, grad_graph_out=gpred)
        else:
            value, gpred = tr.mae_loss(y_node, batch.graph.node_targets)
            grad = gnn.backward(m, tape, grad_node_out=gpred)
        reg, reg_grad = tr.l1_penalty(m.flat, 1e-3, m.offsets)
        state = tr.AdamState.for_parameters(m.parameters())
        before = m.flat.copy()
        tr.adam_step(m.flat, grad + reg_grad, state, 1e-3)
        assert len(adjoints) >= 2 * len(m.mlps()) - 2     # encoders: no input gradient
        arrays = [value, gpred, *adjoints, grad, reg, reg_grad, state.m, state.v, m.flat]
        assert [a.dtype for a in arrays] == [np.float32] * len(arrays)
        assert not np.array_equal(m.flat, before)


# A batch of meshes whose edge MLP calls run in at least four 512-row
# chunks (and whose node calls split too), against the same forward and
# backward run whole on one worker. Every reduction over rows (weight
# gradients, bias sums, first-layer x.T @ g) must stay one whole call, so
# the bytes agree. A split pins OpenBLAS for the rest of the process, so
# this runs in a child interpreter.
MODEL_SPLIT_SCRIPT = """
import sys
import numpy as np
from gnnsurrogate import mlp as nn
from gnnsurrogate import model as gnn
from gnnsurrogate.graph import merge_batch
from conftest import featurized_samples, tiny_config

if not nn._pin_blas_to_one_thread():
    raise SystemExit(print("unpinned"))
nn._MIN_RANGE_ROWS = 512
sys.setswitchinterval(1e-6)
feat, samples = featurized_samples(4, 6, min_nodes=180, max_nodes=220, family="patch3d")
batch = merge_batch([s.graph for s in samples])
g = batch.graph
m = gnn.build_model(tiny_config(node_in=feat.node_feature_width,
                                edge_in=feat.edge_feature_width, latent=8, width=16,
                                node_out=2), 0)
rng = np.random.default_rng(5)
grad_node, grad_graph = rng.normal(size=(g.num_nodes, 2)), rng.normal(size=(len(samples), 3))
chunks = []
in_ranges = nn._in_ranges
nn._in_ranges = lambda task, ranges, *a, **kw: (chunks.append(len(ranges)),
                                               in_ranges(task, ranges, *a, **kw))[1]


def run(workers):
    nn._WORKERS = workers
    chunks.clear()
    y_node, y_graph, tape = gnn.forward(m, batch)
    y_node, y_graph = y_node.copy(), y_graph.copy()
    grad = gnn.backward(m, tape, grad_node, grad_graph)
    return [a.tobytes() for a in (y_node, y_graph, grad)], max(chunks, default=1)


(split, most), (whole, one) = run(3), run(1)
assert len(nn._row_ranges(g.num_edges)) == 1 and one == 1
nn._WORKERS = 3
assert len(nn._row_ranges(g.num_edges)) >= 4 and most >= 4, (g.num_edges, most)
assert len(nn._row_ranges(g.num_nodes)) >= 2
print(" ".join(name for name, a, b in zip(("node", "graph", "gradient"), split, whole)
               if a != b) or "same")
"""


def test_split_forward_and_backward_equal_the_whole_run():
    printed = run_python(MODEL_SPLIT_SCRIPT).strip()
    if printed == "unpinned":
        pytest.skip("no OpenBLAS to hold to one thread, so calls are never split")
    assert printed == "same"


# After a split the parent holds an idle row-range pool; a forked child has
# none of its threads, so it must make its own or wait forever. A split pins
# OpenBLAS for the rest of the process, so the parent is a child interpreter.
FORK_SCRIPT = """
import multiprocessing
import numpy as np
from gnnsurrogate import mlp as nn
from gnnsurrogate import model as gnn
from conftest import featurized_samples, tiny_config

if not nn._pin_blas_to_one_thread():
    raise SystemExit(print("unpinned"))
nn._WORKERS, nn._MIN_RANGE_ROWS = max(nn._WORKERS, 2), 512
feat, samples = featurized_samples(3, 1, min_nodes=240, max_nodes=250, family="patch3d")
graph = samples[0].graph
assert graph.num_edges >= 1024
m = gnn.build_model(tiny_config(node_in=feat.node_feature_width,
                                edge_in=feat.edge_feature_width, node_out=None), 0)
expected = gnn.predict(m, graph)[1]
assert nn._pool is not None
ctx = multiprocessing.get_context("fork")
receiver, sender = ctx.Pipe(duplex=False)
child = ctx.Process(target=lambda: sender.send(gnn.predict(m, graph)[1]))
child.start()
try:
    if not receiver.poll(60):
        print("the forked child's prediction did not finish in 60 s")
    else:
        print("same" if np.array_equal(receiver.recv(), expected) else "differs")
finally:
    child.kill()
    child.join()
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method")
def test_forked_child_predicts_after_the_parent_split():
    printed = run_python(FORK_SCRIPT).strip()
    if printed == "unpinned":
        pytest.skip("no OpenBLAS to hold to one thread, so calls are never split")
    assert printed == "same"
