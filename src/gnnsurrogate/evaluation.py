"""Relative L2 error metric and per-split report summaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model as gnn


class UndefinedMetricError(ValueError):
    pass


def relative_l2(y_target: np.ndarray, y_predict: np.ndarray) -> float:
    """||target - prediction||_2 / ||target||_2 * 100, in percent."""
    y_target = np.asarray(y_target, dtype=np.float64).ravel()
    y_predict = np.asarray(y_predict, dtype=np.float64).ravel()
    if y_target.shape != y_predict.shape:
        raise ValueError(f"length mismatch: {y_target.shape} vs {y_predict.shape}")
    denom = np.linalg.norm(y_target)
    if denom == 0.0:
        raise UndefinedMetricError("zero-norm target makes the relative error undefined")
    return float(np.linalg.norm(y_target - y_predict) / denom * 100.0)


@dataclass
class EvalReport:
    split: str
    per_graph: list[float] = field(default_factory=list)   # percent, one per graph
    pooled: float | None = None                            # graph-level tasks only
    graph_ids: list = field(default_factory=list)
    node_counts: list[int] = field(default_factory=list)

    @property
    def median(self) -> float:
        return float(np.median(self.per_graph))

    @property
    def min(self) -> float:
        return float(np.min(self.per_graph))

    @property
    def max(self) -> float:
        return float(np.max(self.per_graph))

    def summary_line(self) -> str:
        if self.pooled is not None:
            return f"{self.split}: {self.pooled:.2f}%"
        return f"{self.split}: {self.median:.2f}% ({self.min:.1f}, {self.max:.1f})"

    def csv_rows(self):
        header = "graph_id,num_nodes,eps_r_percent"
        rows = [header]
        for gid, n, eps in zip(self.graph_ids, self.node_counts, self.per_graph):
            rows.append(f"{gid},{n},{eps!r}")
        return rows


def _check_target(sample, name: str):
    if getattr(sample, name) is None:
        raise UndefinedMetricError(
            f"graph {sample.graph_id}: no {name.removesuffix('_physical')} to compare with")


def evaluate_node_level(mdl, samples, split: str = "test") -> EvalReport:
    """One error value per graph over all its node-wise predictions, compared
    on the physical scale; summarized as median (min., max.)."""
    report = EvalReport(split=split)
    for sample in samples:
        _check_target(sample, "node_target_physical")
        pred_norm, _ = gnn.predict(mdl, sample.graph)
        pred_phys = sample.to_physical_node(pred_norm)
        try:
            eps = relative_l2(sample.node_target_physical, pred_phys)
        except ValueError as exc:
            raise type(exc)(f"graph {sample.graph_id}: {exc}") from exc
        report.per_graph.append(eps)
        report.graph_ids.append(sample.graph_id)
        report.node_counts.append(sample.graph.num_nodes)
    return report


def evaluate_graph_level(mdl, samples, split: str = "test") -> EvalReport:
    """A single pooled error over all graph-level predictions in the split."""
    preds, targets = [], []
    report = EvalReport(split=split)
    for sample in samples:
        _check_target(sample, "graph_target_physical")
        _, y_graph = gnn.predict(mdl, sample.graph)
        preds.append(y_graph[0])
        targets.append(sample.graph_target_physical)
        report.graph_ids.append(sample.graph_id)
        report.node_counts.append(sample.graph.num_nodes)
    preds = np.concatenate(preds)
    targets = np.concatenate([np.atleast_1d(t) for t in targets])
    report.pooled = relative_l2(targets, preds)
    # per-graph values kept for the CSV; degenerate for scalar targets
    report.per_graph = [relative_l2(t, p) if np.linalg.norm(np.atleast_1d(t)) != 0 else np.nan
                        for t, p in zip(targets.reshape(len(samples), -1),
                                        preds.reshape(len(samples), -1))]
    return report


def format_report_table(reports: list[EvalReport]) -> str:
    lines = ["split  eps_R median% (min, max)  [pooled%]",
             "-----  --------------------------------"]
    for r in reports:
        if r.pooled is not None:
            lines.append(f"{r.split}  pooled {r.pooled:.2f}%")
        else:
            lines.append(f"{r.split}  {r.median:.2f}% ({r.min:.1f}, {r.max:.1f})")
    return "\n".join(lines)
