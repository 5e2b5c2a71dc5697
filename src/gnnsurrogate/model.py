"""Encode-process-decode graph network with hand-rolled adjoints."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .graph import BatchedGraph, Graph
from . import mlp as nn
from .mlp import Mlp, MlpConfig


class ConfigError(ValueError):
    pass


def check_fields(obj, least, finite):
    """Raise ValueError naming the first field of `obj` that is below its
    least value (`least` holds (name, least value) pairs) or, among the
    names in `finite`, not finite. A field that is None passes."""
    for name, low in least:
        value = getattr(obj, name)
        if value is not None and value < low:
            raise ValueError(f"{name}: must be >= {low}, got {value!r}")
    for name in finite:
        value = getattr(obj, name)
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{name}: must be finite, got {value!r}")


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

    def __post_init__(self):
        """Refuse, naming the field, a value that could not build or train."""
        sizes = ("node_input_size", "edge_input_size", "latent_size", "depth", "width",
                 "graph_output_size", "node_output_size")
        check_fields(self, [(name, 1) for name in sizes] + [("steps", 0)], ["sine_frequency"])
        for name in ("graph_output_activation", "node_output_activation"):
            if getattr(self, name) not in nn.OUTPUT_ACTIVATIONS:
                raise ValueError(f"{name}: unknown output activation {getattr(self, name)!r}")

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


class GnnModel:
    """MLP blocks whose weights and biases are views into one contiguous
    vector `flat` in parameters() order (the MLPs in named_mlps() order, each
    as W0, b0, W1, b1, ...): parameter i is flat[offsets[i]:offsets[i + 1]]
    reshaped to shapes[i]. Without `flat` the parameters are float64 zeros;
    a given vector is used as it is and sets the dtype the model computes
    in, so GnnModel(m.config, m.flat.astype(np.float32)) is a float32 copy
    of m. One of another length or a non-floating dtype raises ValueError.
    Writes through a view or into `flat` change the model; nothing may
    rebind them."""

    def __init__(self, config: GnnConfig, flat: np.ndarray | None = None):
        cfgs = config.mlp_configs()
        names = ["encoder_edge", "encoder_node",
                 *[f"{role}[{k}]" for k in range(config.steps)
                   for role in ("processor_edge", "processor_node")],
                 *[role for role in ("decoder_graph", "decoder_node") if role in cfgs]]
        layout = [cfgs[name.partition("[")[0]] for name in names]
        self.config = config
        self.shapes = [shape for cfg in layout for fan_in, fan_out in cfg.layer_sizes()
                       for shape in ((fan_in, fan_out), (fan_out,))]
        self.offsets = list(itertools.accumulate(map(math.prod, self.shapes), initial=0))
        if flat is None:
            try:
                flat = np.zeros(self.offsets[-1])
            except ValueError as exc:     # past numpy's largest array: no memory holds it
                raise MemoryError(f"Unable to allocate {self.offsets[-1]} parameters") from exc
        elif np.shape(flat) != (self.offsets[-1],) or not np.issubdtype(flat.dtype, np.floating):
            raise ValueError(f"parameter vector of shape {np.shape(flat)} and dtype {flat.dtype}, "
                             f"expected floats of shape ({self.offsets[-1]},) for this config")
        self.flat = flat
        mlps = [Mlp(cfg, views[0::2], views[1::2])
                for cfg, views in zip(layout, self.mlp_views(flat))]
        self._named = list(zip(names, mlps))
        steps = 2 * config.steps
        self.encoder_edge, self.encoder_node = mlps[:2]
        self.processor_edge, self.processor_node = mlps[2:2 + steps:2], mlps[3:2 + steps:2]
        self.decoder_graph = mlps[2 + steps]
        self.decoder_node = mlps[3 + steps] if "decoder_node" in cfgs else None

    def named_mlps(self) -> list[tuple[str, Mlp]]:
        """(name, MLP) in layout order: the encoders, each step's edge and
        node MLPs, then the decoders."""
        return list(self._named)

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

    def mlp_views(self, vector: np.ndarray) -> list[list[np.ndarray]]:
        """`split(vector)` as one list per MLP, in named_mlps() order."""
        views, n = self.split(vector), 2 * (self.config.depth + 1)
        return [views[i:i + n] for i in range(0, len(views), n)]


def build_model(config: GnnConfig, seed) -> GnnModel:
    """GnnModel(config) with zero biases and He-initialized weights
    (`mlp.he_fill`), drawn straight into the weight views from one generator
    seeded with `seed`, for the encoders, every step's edge MLP, every step's
    node MLP and then the decoders."""
    rng = np.random.default_rng(seed)
    model = GnnModel(config)
    for m in [model.encoder_edge, model.encoder_node, *model.processor_edge,
              *model.processor_node, model.decoder_graph, model.decoder_node]:
        if m is not None:
            nn.he_fill(m.weights, rng)
    return model


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


def _incidence(index: np.ndarray, num_nodes: int, dtype):
    """(N, E) 0/1 matrix with a one at (index[j], j): a scatter-add as a matmul.

    Built as CSR directly: row n holds the edges j with index[j] == n in
    increasing j, the layout scipy's COO-to-CSR conversion makes, so its
    products have the same bits. The stable sort runs on the smallest
    unsigned type that holds the node ids, which numpy sorts by radix up to
    16 bits."""
    indptr = np.zeros(num_nodes + 1, np.int64)
    np.cumsum(np.bincount(index, minlength=num_nodes), out=indptr[1:])
    order = np.argsort(index.astype(np.min_scalar_type(num_nodes)), kind="stable")
    return sparse.csr_matrix((np.ones(len(index), dtype), order, indptr),
                             shape=(num_nodes, len(index)))


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

    The edge MLP reads the blocks [e | v[s] | v[r]] and the node MLP
    [v | agg] (`mlp.forward_tape`), with no concatenated copy. agg =
    recv_mat @ ue, for recv_mat the receiver incidence of `graph`, built
    here when not given. Tape entry: (recv_mat, edge MLP tape, node MLP
    tape); each MLP tape holds its blocks."""
    if not (0 <= k < model.config.steps):
        raise ConfigError(f"step {k} out of range, model has {model.config.steps}")
    v, e = state
    if recv_mat is None:
        recv_mat = _incidence(graph.receivers, graph.num_nodes, model.flat.dtype)
    ue, tape_pe = nn.forward_tape(model.processor_edge[k],
                                  [(e, None), (v, graph.senders), (v, graph.receivers)])
    uv, tape_pn = nn.forward_tape(model.processor_node[k], [(v, None), (recv_mat @ ue, None)])
    if tape is not None:
        tape.append((recv_mat, tape_pe, tape_pn))
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
    """Node decoder over the blocks [latent node | y_graph[seg_ids]]
    (`mlp.forward_tape`). seg_ids, each node's member index, is
    nondecreasing (`BatchedGraph.segment_ids()`). Tape entry: (decoder
    tape, seg_ids)."""
    if model.decoder_node is None:
        raise ConfigError("model has no node decoder (graph-level task)")
    y_node, tape_dn = nn.forward_tape(model.decoder_node,
                                      [(latent_nodes, None), (y_graph, seg_ids)])
    if tape is not None:
        tape.append((tape_dn, seg_ids))
    return y_node


def _run_stages(model: GnnModel, graph_or_batch, tape: list | None):
    """The stages in order, with one receiver incidence for every step."""
    batch = _as_batch(graph_or_batch)
    g = batch.graph
    recv_mat = _incidence(g.receivers, g.num_nodes, model.flat.dtype)
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
    entries in the order they ran; a blockwise MLP's tape holds its blocks.

    An MLP call of 1,024 rows or more runs in row chunks over the CPUs and
    holds the process's OpenBLAS to one thread for good
    (`mlp._pin_blas_to_one_thread`)."""
    tape = []
    y_node, y_graph = _run_stages(model, graph_or_batch, tape)
    return y_node, y_graph, tape


def backward(model: GnnModel, tape, grad_node_out=None, grad_graph_out=None):
    """Adjoint pass; returns the parameter gradient as one vector laid out
    like `model.flat` (`model.split` gives it per parameter), written
    through views. Consumes `forward`'s tape, popping the decoders, the steps
    from last to first and the encoders, so a second backward on it raises
    RuntimeError. A blockwise MLP's `mlp.backward` returns one gradient per
    block; a gathered block's sums the first pre-activation's gradient onto
    nodes (or graphs) through the `sums` given here: the sender and receiver
    incidence products, or the segment sums. The edge MLP's output gradient
    goes in as the blocks [gagg[receivers] | ge], added row by row inside
    `mlp.backward`, as its input blocks are in `forward`. An MLP call of
    1,024 rows or more runs its row-wise steps in row chunks, one pass from
    the top layer down, and then each reduction over rows (a weight-gradient
    product, a bias sum, x.T @ g, the incidence products) as one whole job,
    so no sum over rows changes order. As in `forward`, such a call holds
    the process's OpenBLAS to one thread for good
    (`mlp._pin_blas_to_one_thread`)."""
    cfg = model.config
    if len(tape) != 2 + cfg.steps + (model.decoder_node is not None):
        raise RuntimeError("backward needs a forward tape no backward has consumed")
    g = tape[0][0]               # encode's entry, at the bottom, holds the graph
    dtype = model.flat.dtype
    gv = np.zeros((g.num_nodes, cfg.latent_size), dtype)
    ge = np.zeros((g.num_edges, cfg.latent_size), dtype)
    grad = np.zeros_like(model.flat)
    outs = model.mlp_views(grad)    # per MLP, popped as the tape

    gy_dn = None
    if model.decoder_node is not None:
        out_dn = outs.pop()
        tape_dn, seg_ids = tape.pop()
        if grad_node_out is not None:
            # segment ids are nondecreasing: a member's rows start where they change
            starts = np.flatnonzero(np.diff(seg_ids, prepend=-1))
            (gv_dn, gy_dn), _ = nn.backward(
                model.decoder_node, tape_dn, grad_node_out, out=out_dn,
                sums=lambda gz: [np.add.reduceat(gz, starts, axis=0)])
            gv += gv_dn

    tape_dg, segments = tape.pop()
    gy_graph = np.zeros((len(segments), cfg.graph_output_size), dtype)
    if grad_graph_out is not None:
        gy_graph = gy_graph + grad_graph_out
    if gy_dn is not None:
        gy_graph += gy_dn
    gpooled, _ = nn.backward(model.decoder_graph, tape_dg, gy_graph, out=outs.pop())
    lengths = [length for _, length in segments]
    gv += np.repeat(gpooled / np.array(lengths, dtype)[:, None], lengths, axis=0)

    r, send_mat = g.receivers, _incidence(g.senders, g.num_nodes, dtype)
    for k in range(cfg.steps - 1, -1, -1):
        recv_mat, tape_pe, tape_pn = tape.pop()
        # v_next = v + uv; e_next = e + ue; agg feeds uv, e/v feed ue
        (gv_pn, gagg), _ = nn.backward(model.processor_node[k], tape_pn, gv, out=outs.pop())
        gv += gv_pn
        (ge_pe, gv_s, gv_r), _ = nn.backward(
            model.processor_edge[k], tape_pe, [(gagg, r), (ge, None)], out=outs.pop(),
            sums=lambda gz: [send_mat @ gz, recv_mat @ gz])
        ge += ge_pe
        gv += gv_s
        gv += gv_r

    _, tape_ee, tape_ev = tape.pop()
    nn.backward(model.encoder_node, tape_ev, gv, input_grad=False, out=outs.pop())
    nn.backward(model.encoder_edge, tape_ee, ge, input_grad=False, out=outs.pop())
    return grad


def predict(model: GnnModel, graph_or_batch):
    """(node-level matrix or None, graph-level matrix (m, d_G)): the stages
    of `forward` without a tape, so each MLP's tape is freed as it returns.
    As in `forward`, an MLP call of 1,024 rows or more runs in row chunks
    (two halves below 4,096 rows) and holds the process's OpenBLAS to one
    thread for good (`mlp._pin_blas_to_one_thread`): a mesh of 1,024 edges
    or more does, so a predict-only process (say, `eval` on meshes) pins at
    its first such mesh."""
    return _run_stages(model, graph_or_batch, None)
