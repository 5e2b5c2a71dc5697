"""Encode-process-decode graph network with hand-rolled adjoints."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .graph import BatchedGraph, Graph
from . import mlp as nn
from .mlp import Mlp, MlpConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class GnnConfig:
    node_input_size: int
    edge_input_size: int
    latent_size: int                    # n_l
    steps: int                          # message passing steps L
    depth: int                          # n_d for every MLP
    width: int                          # n_w for every MLP
    graph_output_size: int              # delta^G head width
    node_output_size: int | None = None # delta^V head width; None = graph-level task
    graph_output_activation: str = "linear"
    node_output_activation: str = "linear"
    sine_frequency: float = 1.0

    @property
    def task(self) -> str:
        return "graph_level" if self.node_output_size is None else "node_level"

    def mlp_configs(self):
        nl = self.latent_size
        mk = lambda i, o, act="linear": MlpConfig(
            input_size=i, depth=self.depth, width=self.width, output_size=o,
            output_activation=act, sine_frequency=self.sine_frequency)
        cfgs = {
            "encoder_edge": mk(self.edge_input_size, nl),
            "encoder_node": mk(self.node_input_size, nl),
            "processor_edge": mk(3 * nl, nl),
            "processor_node": mk(2 * nl, nl),
            "decoder_graph": mk(nl, self.graph_output_size, self.graph_output_activation),
        }
        if self.node_output_size is not None:
            cfgs["decoder_node"] = mk(nl + self.graph_output_size, self.node_output_size,
                                      self.node_output_activation)
        return cfgs


@dataclass
class GnnModel:
    """The model's MLP blocks, whose weights and biases are views into one
    contiguous float64 vector `flat` in parameters() order. Parameter i is
    flat[offsets[i]:offsets[i + 1]] reshaped to shapes[i]. Writes through a
    view or into `flat` change the model; nothing may rebind them."""

    config: GnnConfig
    encoder_edge: Mlp
    encoder_node: Mlp
    processor_edge: list[Mlp]   # one block per step
    processor_node: list[Mlp]
    decoder_graph: Mlp
    decoder_node: Mlp | None = None
    flat: np.ndarray = field(init=False, repr=False)
    offsets: list[int] = field(init=False, repr=False)
    shapes: list[tuple] = field(init=False, repr=False)

    def __post_init__(self):
        params = [p for m in self.mlps() for p in m.parameters()]
        self.shapes = [p.shape for p in params]
        self.offsets = np.cumsum([0] + [p.size for p in params]).tolist()
        self.flat = np.concatenate([p.ravel() for p in params])
        views = iter(self.split(self.flat))
        for m in self.mlps():
            for k in range(len(m.weights)):
                m.weights[k] = next(views)
                m.biases[k] = next(views)

    def named_mlps(self) -> list[tuple[str, Mlp]]:
        out = [("encoder_edge", self.encoder_edge), ("encoder_node", self.encoder_node)]
        for k, (pe, pn) in enumerate(zip(self.processor_edge, self.processor_node)):
            out += [(f"processor_edge[{k}]", pe), (f"processor_node[{k}]", pn)]
        out.append(("decoder_graph", self.decoder_graph))
        if self.decoder_node is not None:
            out.append(("decoder_node", self.decoder_node))
        return out

    def mlps(self) -> list[Mlp]:
        return [m for _, m in self.named_mlps()]

    def parameter_names(self) -> list[str]:
        """'<mlp> W<k>' and '<mlp> b<k>', in parameters() order."""
        return [f"{name} {kind}{k}" for name, m in self.named_mlps()
                for k in range(len(m.weights)) for kind in "Wb"]

    def parameters(self) -> list[np.ndarray]:
        """One view of `flat` per weight and bias."""
        return self.split(self.flat)

    def split(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out like `flat`, one per parameter."""
        return [vector[lo:hi].reshape(shape) for lo, hi, shape
                in zip(self.offsets[:-1], self.offsets[1:], self.shapes)]

    def flatten(self, values) -> np.ndarray:
        """One array per parameter, in parameters() order, as a new vector
        laid out like `flat`. A wrong count or shape raises ValueError naming
        the first parameter that differs."""
        shapes = [np.shape(a) for a in values]
        if shapes != self.shapes:
            if len(shapes) != len(self.shapes):
                raise ValueError(f"expected {len(self.shapes)} parameter arrays, "
                                 f"got {len(shapes)}")
            i = next(i for i, (a, b) in enumerate(zip(shapes, self.shapes)) if a != b)
            raise ValueError(f"parameter {i} ({self.parameter_names()[i]}) has shape "
                             f"{shapes[i]}, expected {self.shapes[i]}")
        return np.concatenate([np.ravel(a) for a in values])

    def set_parameters(self, values: list[np.ndarray]):
        """Copy one array per parameter into `flat`; the views stay bound."""
        self.flat[:] = self.flatten(values)


def build_model(config: GnnConfig, seed) -> GnnModel:
    rng = np.random.default_rng(seed)
    cfgs = config.mlp_configs()
    return GnnModel(
        config=config,
        encoder_edge=nn.he_init(cfgs["encoder_edge"], rng),
        encoder_node=nn.he_init(cfgs["encoder_node"], rng),
        processor_edge=[nn.he_init(cfgs["processor_edge"], rng) for _ in range(config.steps)],
        processor_node=[nn.he_init(cfgs["processor_node"], rng) for _ in range(config.steps)],
        decoder_graph=nn.he_init(cfgs["decoder_graph"], rng),
        decoder_node=nn.he_init(cfgs["decoder_node"], rng)
        if config.node_output_size is not None else None,
    )


def _as_batch(g) -> BatchedGraph:
    if isinstance(g, BatchedGraph):
        return g
    return BatchedGraph(graph=g, segments=[(0, g.num_nodes)])


def _segment_mean(values: np.ndarray, segments) -> np.ndarray:
    rows = []
    for start, length in segments:
        if length == 0:
            raise ValueError("cannot pool an empty segment")
        rows.append(values[start:start + length].mean(axis=0))
    return np.stack(rows, axis=0)


def _incidence(index: np.ndarray, num_nodes: int):
    """(N, E) 0/1 matrix with a one at (index[j], j): a scatter-add as a matmul."""
    num_e = len(index)
    return sparse.csr_matrix((np.ones(num_e), (index, np.arange(num_e))),
                             shape=(num_nodes, num_e))


def _first_layer(w: np.ndarray, blocks) -> np.ndarray:
    """x @ w for x the column concatenation of `blocks`, without forming x.

    A block is (array, rows) and stands for array[rows], or for the array
    itself when rows is None. Each block meets its own rows of w before any
    gather, so a node-side block costs a product over nodes, not edges.
    """
    z, lo = None, 0
    for x, rows in blocks:
        hi = lo + x.shape[1]
        p = x @ w[lo:hi]
        if rows is not None:
            p = np.take(p, rows, axis=0)
        if z is None:
            z = p
        else:
            z += p
        lo = hi
    return z


def _first_layer_adjoint(w: np.ndarray, blocks, sums, gw: np.ndarray):
    """Adjoint of `_first_layer`.

    sums[i] is the pre-activation gradient summed onto the rows of block i's
    array (the gradient itself for a block with rows None). Writes the
    gradient wrt w into `gw`; returns the gradient wrt each block's array."""
    gxs, lo = [], 0
    for (x, _), g in zip(blocks, sums):
        hi = lo + x.shape[1]
        np.matmul(x.T, g, out=gw[lo:hi])
        gxs.append(g @ w[lo:hi].T)
        lo = hi
    return gxs


def encode(model: GnnModel, graph: Graph, tape: list | None = None):
    """Row-wise latent embedding of node and edge features. Given a `tape`
    list, appends (graph, edge encoder tape, node encoder tape) to it."""
    e, tape_ee = nn.forward_tape(model.encoder_edge, graph.edge_features)
    v, tape_ev = nn.forward_tape(model.encoder_node, graph.node_features)
    if tape is not None:
        tape.append((graph, tape_ee, tape_ev))
    return v, e


def message_passing_step(model: GnnModel, k: int, graph: Graph, state,
                         recv_mat=None, tape: list | None = None):
    """One residual processor step on (latent nodes, latent edges).

    The MLPs' first layers are formed from the blocks [e | v[s] | v[r]] and
    [v | agg], with no concatenated copy. agg = recv_mat @ ue, for recv_mat
    the receiver incidence of `graph`, built here when not given. Tape entry:
    (recv_mat, edge MLP tape, its blocks, node MLP tape, its blocks)."""
    if not (0 <= k < model.config.steps):
        raise ConfigError(f"step {k} out of range, model has {model.config.steps}")
    v, e = state
    if recv_mat is None:
        recv_mat = _incidence(graph.receivers, graph.num_nodes)
    pe, pn = model.processor_edge[k], model.processor_node[k]
    edge_blocks = [(e, None), (v, graph.senders), (v, graph.receivers)]
    ue, tape_pe = nn.forward_tape(pe, None, z0=_first_layer(pe.weights[0], edge_blocks))
    node_blocks = [(v, None), (recv_mat @ ue, None)]
    uv, tape_pn = nn.forward_tape(pn, None, z0=_first_layer(pn.weights[0], node_blocks))
    if tape is not None:
        tape.append((recv_mat, tape_pe, edge_blocks, tape_pn, node_blocks))
    # in place: backward never reads the output of the MLPs' linear heads
    return np.add(v, uv, out=uv), np.add(e, ue, out=ue)


def decode_graph(model: GnnModel, latent_nodes: np.ndarray, segments,
                 tape: list | None = None):
    """Mean-pool each segment's latent nodes, then the graph decoder MLP.
    Tape entry: (decoder tape, segments)."""
    y, tape_dg = nn.forward_tape(model.decoder_graph, _segment_mean(latent_nodes, segments))
    if tape is not None:
        tape.append((tape_dg, segments))
    return y


def decode_node(model: GnnModel, latent_nodes: np.ndarray, y_graph: np.ndarray,
                seg_ids: np.ndarray, tape: list | None = None):
    """Node decoder over [latent node | y_graph[seg_ids]], its first layer
    formed block by block. seg_ids, each node's member index, is
    nondecreasing (`BatchedGraph.segment_ids()`). Tape entry: (tape, blocks)."""
    dn = model.decoder_node
    if dn is None:
        raise ConfigError("model has no node decoder (graph-level task)")
    blocks = [(latent_nodes, None), (y_graph, seg_ids)]
    y_node, tape_dn = nn.forward_tape(dn, None, z0=_first_layer(dn.weights[0], blocks))
    if tape is not None:
        tape.append((tape_dn, blocks))
    return y_node


def _run_stages(model: GnnModel, graph_or_batch, tape: list | None):
    """The stages in order, with one receiver incidence for every step."""
    batch = _as_batch(graph_or_batch)
    g = batch.graph
    recv_mat = _incidence(g.receivers, g.num_nodes)
    state = encode(model, g, tape)
    for k in range(model.config.steps):
        state = message_passing_step(model, k, g, state, recv_mat, tape)
    v = state[0]
    y_graph = decode_graph(model, v, batch.segments, tape)
    y_node = None
    if model.decoder_node is not None:
        y_node = decode_node(model, v, y_graph, batch.segment_ids(), tape)
    return y_node, y_graph


def forward(model: GnnModel, graph_or_batch):
    """Full forward pass: `encode`, every `message_passing_step`,
    `decode_graph` and, for a node-level model, `decode_node`.

    Returns (node_out or None, graph_out (m, d_G), tape). graph_out for a
    node-level task is the internal pooled context, not a supervised output.
    The tape, for one `backward` to consume, is the stack of the stages'
    entries in the order they ran; a blockwise MLP's entry holds its blocks
    (latent arrays, gather indices)."""
    tape = []
    y_node, y_graph = _run_stages(model, graph_or_batch, tape)
    return y_node, y_graph, tape


def backward(model: GnnModel, tape, grad_node_out=None, grad_graph_out=None):
    """Adjoint pass; returns the parameter gradient as one vector laid out
    like `model.flat` (`model.split` gives it per parameter), written
    through views. Consumes `forward`'s tape, popping the decoders, the steps
    from last to first and the encoders, so a second backward on it raises
    RuntimeError. A blockwise MLP's backward stops at its first
    pre-activation gradient gz0; the sender and receiver sums of gz0 (one
    incidence matmul each) then give the first-layer weight blocks and the
    node gradients."""
    cfg = model.config
    if len(tape) != 2 + cfg.steps + (model.decoder_node is not None):
        raise RuntimeError("backward needs a forward tape no backward has consumed")
    g = tape[0][0]               # encode's entry, at the bottom, holds the graph
    gv = np.zeros((g.num_nodes, cfg.latent_size))
    ge = np.zeros((g.num_edges, cfg.latent_size))
    grad = np.zeros_like(model.flat)
    views, n = model.split(grad), 2 * (cfg.depth + 1)
    outs = [views[i:i + n] for i in range(0, len(views), n)]   # per MLP, popped as the tape

    gy_dn = None
    if model.decoder_node is not None:
        dn, out_dn = model.decoder_node, outs.pop()
        tape_dn, dn_blocks = tape.pop()
        if grad_node_out is not None:
            gz, _ = nn.backward(dn, tape_dn, grad_node_out, out=out_dn)
            # segment ids are nondecreasing: a member's rows start where they change
            starts = np.flatnonzero(np.diff(dn_blocks[1][1], prepend=-1))
            gv_dn, gy_dn = _first_layer_adjoint(
                dn.weights[0], dn_blocks, [gz, np.add.reduceat(gz, starts, axis=0)], out_dn[0])
            gv += gv_dn

    tape_dg, segments = tape.pop()
    gy_graph = np.zeros((len(segments), cfg.graph_output_size))
    if grad_graph_out is not None:
        gy_graph = gy_graph + grad_graph_out
    if gy_dn is not None:
        gy_graph += gy_dn
    gpooled, _ = nn.backward(model.decoder_graph, tape_dg, gy_graph, out=outs.pop())
    lengths = np.array([length for _, length in segments])
    gv += np.repeat(gpooled / lengths[:, None], lengths, axis=0)

    r, send_mat = g.receivers, _incidence(g.senders, g.num_nodes)
    for k in range(cfg.steps - 1, -1, -1):
        recv_mat, tape_pe, edge_blocks, tape_pn, node_blocks = tape.pop()
        pe, pn = model.processor_edge[k], model.processor_node[k]
        # v_next = v + uv; e_next = e + ue; agg feeds uv, e/v feed ue
        gz, grads_pn = nn.backward(pn, tape_pn, gv, out=outs.pop())
        gv_pn, gagg = _first_layer_adjoint(pn.weights[0], node_blocks, [gz, gz], grads_pn[0])
        gv += gv_pn
        gue = np.take(gagg, r, axis=0)
        gue += ge
        gz, grads_pe = nn.backward(pe, tape_pe, gue, out=outs.pop())
        ge_pe, gv_s, gv_r = _first_layer_adjoint(
            pe.weights[0], edge_blocks, [gz, send_mat @ gz, recv_mat @ gz], grads_pe[0])
        ge += ge_pe
        gv += gv_s
        gv += gv_r

    _, tape_ee, tape_ev = tape.pop()
    nn.backward(model.encoder_node, tape_ev, gv, input_grad=False, out=outs.pop())
    nn.backward(model.encoder_edge, tape_ee, ge, input_grad=False, out=outs.pop())
    return grad


def predict(model: GnnModel, graph_or_batch):
    """(node-level matrix or None, graph-level matrix (m, d_G)): the stages
    of `forward` without a tape, so each MLP's tape is freed as it returns."""
    return _run_stages(model, graph_or_batch, None)
