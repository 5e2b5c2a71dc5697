"""Per-layer spans for the traced benchmark run.

The program itself carries no timers. For the length of a traced pass the
benchmark replaces each measured library function by a wrapper, installed on
the module (or class) where its caller looks the name up: `model` calls
`mlp.forward_tape` through the `mlp` module, `training` imported
`merge_batch` by name, `datasets` imported `build_from_mesh` and the
`encode_*` functions by name. Spans stay in memory; the runner writes them
out when the run ends.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from gnnsurrogate import checkpoint, datasets, evaluation, mlp, training
from gnnsurrogate import model as gnn

ROLES = ("encoder_edge", "encoder_node", "processor_edge", "processor_node",
         "decoder_graph", "decoder_node")

# (metric, unit, better, source, key): "total" sums span time, "self" sums
# span time minus child spans, "count" sums a counter. Every value is per
# traced pass.
PER_LAYER = (
    *[m for role in ROLES for m in (
        (f"mlp.{role}.fwd_ms", "ms", "lower", "total", f"mlp.{role}.fwd"),
        (f"mlp.{role}.bwd_ms", "ms", "lower", "total", f"mlp.{role}.bwd"),
        (f"mlp.{role}.rows", "count", "lower", "count", f"mlp.{role}.rows"))],
    ("model.forward.self_ms", "ms", "lower", "self", "model.forward"),
    ("model.backward.self_ms", "ms", "lower", "self", "model.backward"),
    ("model.predict.self_ms", "ms", "lower", "self", "model.predict"),
    ("model.forward.calls", "count", "lower", "count", "model.forward.calls"),
    ("training.fit.self_ms", "ms", "lower", "self", "training.fit"),
    ("training.adam_step.ms", "ms", "lower", "total", "training.adam_step"),
    ("training.adam_step.calls", "count", "lower", "count", "training.adam_step.calls"),
    ("training.l1_penalty.ms", "ms", "lower", "total", "training.l1_penalty"),
    ("training.mae_loss.ms", "ms", "lower", "total", "training.mae_loss"),
    ("graph.merge_batch.ms", "ms", "lower", "total", "graph.merge_batch"),
    ("graph.build_topology.ms", "ms", "lower", "total", "graph.build_topology"),
    ("graph.edges", "count", "lower", "count", "graph.edges"),
    ("features.encode_nodes.ms", "ms", "lower", "total", "features.encode_nodes"),
    ("features.encode_edges.ms", "ms", "lower", "total", "features.encode_edges"),
    ("datasets.read_dataset.ms", "ms", "lower", "total", "datasets.read_dataset"),
    ("datasets.read_dataset.bytes", "bytes", "lower", "count", "datasets.read_dataset.bytes"),
    ("datasets.featurizer_fit.ms", "ms", "lower", "total", "datasets.featurizer_fit"),
    ("datasets.transform.self_ms", "ms", "lower", "self", "datasets.transform"),
    ("evaluation.evaluate.self_ms", "ms", "lower", "self", "evaluation.evaluate"),
    ("evaluation.relative_l2.ms", "ms", "lower", "total", "evaluation.relative_l2"),
    ("checkpoint.save.ms", "ms", "lower", "total", "checkpoint.save"),
    ("checkpoint.load.ms", "ms", "lower", "total", "checkpoint.load"),
    ("checkpoint.bytes", "bytes", "lower", "count", "checkpoint.bytes"),
)

# span -> part of an epoch, in the terms of the ROADMAP's baseline split
SPLIT_PARTS = {
    **{f"mlp.{role}.{d}": role if role.startswith("processor") else role.split("_")[0] + "s"
       for role in ROLES for d in ("fwd", "bwd")},
    "training.adam_step": "adam",
    "graph.merge_batch": "merge_batch",
}


class Tracer:
    """Spans as [name, start, end, parent index]; counters by name."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._open = []
        self._roles = {}

    def begin(self, name: str) -> list:
        span = [name, time.perf_counter(), None, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list):
        span[2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield
        finally:
            self.end(s)

    def count(self, name: str, n: int):
        self.counts[name] = self.counts.get(name, 0) + n

    def current(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    def role(self, m) -> str:
        return self._roles.get(id(m), "unknown")

    def register(self, model):
        """Map each MLP block of a GnnModel to its role."""
        roles = self._roles
        roles[id(model.encoder_edge)] = "encoder_edge"
        roles[id(model.encoder_node)] = "encoder_node"
        roles[id(model.decoder_graph)] = "decoder_graph"
        roles.update({id(m): "processor_edge" for m in model.processor_edge})
        roles.update({id(m): "processor_node" for m in model.processor_node})
        if model.decoder_node is not None:
            roles[id(model.decoder_node)] = "decoder_node"

    def _wrap(self, fn, name, after=None, inline_under=()):
        """`name` is a span name or a function of the call's arguments;
        `after(args, result)` records counters; a call made while a span in
        `inline_under` is innermost counts as part of that span."""
        def wrapper(*args, **kwargs):
            if self.current() in inline_under:
                return fn(*args, **kwargs)
            span = self.begin(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _instruments(self):
        """(owner, attribute, span name, after, inline_under) per wrapped name."""
        c = self.count
        return (
            (mlp, "forward_tape", lambda a: f"mlp.{self.role(a[0])}.fwd",
             lambda a, r: c(f"mlp.{self.role(a[0])}.rows", len(r[0])), ()),
            (mlp, "backward", lambda a: f"mlp.{self.role(a[0])}.bwd", None, ()),
            # predict runs the training forward; count that as predict's work
            (gnn, "forward", "model.forward",
             lambda a, r: c("model.forward.calls", 1), ("model.predict",)),
            (gnn, "backward", "model.backward", None, ()),
            (gnn, "predict", "model.predict", None, ()),
            (gnn, "build_model", "model.build", lambda a, r: self.register(r), ()),
            (training, "fit", "training.fit", None, ()),
            (training, "adam_step", "training.adam_step",
             lambda a, r: c("training.adam_step.calls", 1), ()),
            (training, "l1_penalty", "training.l1_penalty", None, ()),
            (training, "mae_loss", "training.mae_loss", None, ()),
            (training, "merge_batch", "graph.merge_batch", None, ()),
            (datasets, "build_from_mesh", "graph.build_topology",
             lambda a, r: c("graph.edges", r.num_edges), ()),
            (datasets, "build_surface_chain", "graph.build_topology",
             lambda a, r: c("graph.edges", r.num_edges), ()),
            (datasets, "encode_nodes_airfoil", "features.encode_nodes", None, ()),
            (datasets, "encode_nodes_feature_design", "features.encode_nodes", None, ()),
            (datasets, "encode_edges", "features.encode_edges", None, ()),
            (datasets, "read_dataset", "datasets.read_dataset",
             lambda a, r: c("datasets.read_dataset.bytes", os.path.getsize(a[0])), ()),
            (datasets.Featurizer, "fit", "datasets.featurizer_fit", None, ()),
            (datasets.Featurizer, "transform_all", "datasets.transform", None, ()),
            (evaluation, "evaluate_node_level", "evaluation.evaluate", None, ()),
            (evaluation, "evaluate_graph_level", "evaluation.evaluate", None, ()),
            (evaluation, "relative_l2", "evaluation.relative_l2", None, ()),
            (checkpoint, "save_checkpoint", "checkpoint.save",
             lambda a, r: c("checkpoint.bytes", os.path.getsize(a[2])), ()),
            (checkpoint, "load_checkpoint", "checkpoint.load",
             lambda a, r: self.register(r[0]), ()),
        )

    @contextmanager
    def installed(self):
        """Wrap every instrumented name; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, after, inline_under in self._instruments():
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, after, inline_under))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def durations(self) -> tuple[list[float], list[float]]:
        """(duration, self time) per span, in seconds."""
        total = [s[2] - s[1] for s in self.spans]
        own = list(total)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                own[s[3]] -= total[i]
        return total, own

    def ancestor(self, index: int, name: str) -> int:
        """Index of the nearest enclosing span called `name`, or -1."""
        p = self.spans[index][3]
        while p >= 0 and self.spans[p][0] != name:
            p = self.spans[p][3]
        return p

    def per_layer(self, passes: int) -> dict:
        """Every PER_LAYER metric, summed over the trace and divided by `passes`."""
        total, own = self.durations()
        sums = {"total": {}, "self": {}}
        for s, t, o in zip(self.spans, total, own):
            sums["total"][s[0]] = sums["total"].get(s[0], 0.0) + t
            sums["self"][s[0]] = sums["self"].get(s[0], 0.0) + o
        out = {}
        for metric, unit, _, source, key in PER_LAYER:
            if source == "count":
                value = self.counts.get(key, 0) / passes
            else:
                value = sums[source].get(key, 0.0) * 1e3 / passes
            out[metric] = {"value": value, "unit": unit}
        return out

    def epoch_split(self) -> dict:
        """Share of `training.fit` time, in percent, per part of an epoch."""
        total, _ = self.durations()
        fit_time = sum(t for s, t in zip(self.spans, total) if s[0] == "training.fit")
        if fit_time == 0.0:
            return {}
        parts = {}
        for i, s in enumerate(self.spans):
            part = SPLIT_PARTS.get(s[0])
            if part is not None and self.ancestor(i, "training.fit") >= 0:
                parts[part] = parts.get(part, 0.0) + total[i]
        return {k: 100.0 * v / fit_time for k, v in parts.items()}

    def dump(self) -> list:
        """Spans relative to the first one, for writing to disk."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start_s": a - t0, "end_s": b - t0, "parent": p}
                for n, a, b, p in self.spans]
