import numpy as np
import pytest

import gnnsurrogate as gs
from gnnsurrogate import model as gnn
from gnnsurrogate.evaluation import (UndefinedMetricError, format_report_table,
                                     relative_l2)
from conftest import featurized_samples, tiny_config, zero_final_layer


class TestRelativeL2:
    def test_exact_prediction(self):
        assert relative_l2(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_zero_prediction_is_100_percent(self):
        y = np.array([3.0, -1.0, 2.0])
        assert relative_l2(y, np.zeros(3)) == pytest.approx(100.0, abs=1e-12)

    def test_three_four_five_case(self):
        assert relative_l2(np.array([3.0, 4.0]),
                           np.array([3.0, 0.0])) == pytest.approx(80.0, abs=1e-12)

    def test_zero_norm_target_rejected(self):
        with pytest.raises(UndefinedMetricError):
            relative_l2(np.zeros(3), np.ones(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relative_l2(np.zeros(2), np.zeros(3))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        y, p = rng.normal(size=8), rng.normal(size=8)
        base = relative_l2(y, p)
        for c in (1e-3, 7.0, -2.5):
            assert relative_l2(c * y, c * p) == pytest.approx(base, rel=1e-12)

    def test_continuity_near_zero_error(self):
        y = np.array([1.0, 2.0])
        errs = [relative_l2(y, y + d) for d in (1e-2, 1e-4, 1e-6)]
        assert errs[0] > errs[1] > errs[2]


class TestNodeLevelEvaluation:
    def test_perfect_model_reports_zero(self):
        feat, samples = featurized_samples(20, 3, min_nodes=4, max_nodes=6)
        m = gnn.build_model(tiny_config(), 0)
        for s in samples:   # cheat: overwrite targets with the model's output
            y, _ = gnn.predict(m, s.graph)
            s.node_target_physical = s.to_physical_node(y)
        rep = gs.evaluate_node_level(m, samples, "train")
        assert rep.median == rep.min == rep.max == 0.0

    def test_summary_statistics(self):
        rep = gs.EvalReport(split="t", per_graph=[5.0, 10.0, 20.0])
        assert rep.median == 10.0 and rep.min == 5.0 and rep.max == 20.0

    def test_copies_of_one_graph_degenerate_summary(self):
        feat, samples = featurized_samples(21, 1, min_nodes=5, max_nodes=5)
        m = gnn.build_model(tiny_config(), 1)
        rep = gs.evaluate_node_level(m, samples * 4, "test")
        assert rep.median == rep.min == rep.max
        assert len(rep.per_graph) == 4

    def test_report_format_matches_table_shape(self):
        rep = gs.EvalReport(split="test1", per_graph=[5.9, 8.71, 11.8])
        line = rep.summary_line()
        assert line == "test1: 8.71% (5.9, 11.8)"

    def test_deterministic(self):
        feat, samples = featurized_samples(22, 3, min_nodes=4, max_nodes=7)
        m = gnn.build_model(tiny_config(), 2)
        a = gs.evaluate_node_level(m, samples, "x").per_graph
        b = gs.evaluate_node_level(m, samples, "x").per_graph
        assert a == b


class TestErrorsNameTheGraph:
    def test_node_level_sample_without_node_target(self):
        feat, samples = featurized_samples(27, 3, min_nodes=4, max_nodes=6)
        samples[1].node_target_physical = None
        m = gnn.build_model(tiny_config(), 0)
        with pytest.raises(UndefinedMetricError,
                           match=f"^graph {samples[1].graph_id}: no node_target to compare with$"):
            gs.evaluate_node_level(m, samples)

    def test_node_level_zero_norm_target(self):
        feat, samples = featurized_samples(28, 3, min_nodes=4, max_nodes=6)
        samples[2].node_target_physical = np.zeros_like(samples[2].node_target_physical)
        m = gnn.build_model(tiny_config(), 0)
        with pytest.raises(UndefinedMetricError,
                           match=f"^graph {samples[2].graph_id}: zero-norm target"):
            gs.evaluate_node_level(m, samples)

    def test_node_level_length_mismatch(self):
        feat, samples = featurized_samples(29, 2, min_nodes=4, max_nodes=6)
        samples[0].node_target_physical = samples[0].node_target_physical[:-1]
        m = gnn.build_model(tiny_config(), 0)
        with pytest.raises(ValueError, match=f"^graph {samples[0].graph_id}: length mismatch"):
            gs.evaluate_node_level(m, samples)

    def test_graph_level_sample_without_graph_target(self):
        feat, samples = featurized_samples(30, 3, min_nodes=4, max_nodes=6)
        samples[0].graph_target_physical = None
        m = gnn.build_model(tiny_config(node_out=None, graph_out=1), 0)
        with pytest.raises(UndefinedMetricError,
                           match=f"^graph {samples[0].graph_id}: no graph_target to compare with$"):
            gs.evaluate_graph_level(m, samples)


class TestGraphLevelEvaluation:
    def make_model(self, seed=0):
        return gnn.build_model(tiny_config(node_out=None, graph_out=1), seed)

    def test_pooled_single_value(self):
        feat, samples = featurized_samples(23, 4, min_nodes=4, max_nodes=6)
        rep = gs.evaluate_graph_level(self.make_model(), samples, "test")
        assert rep.pooled is not None and rep.pooled >= 0

    def test_exact_predictions_give_zero(self):
        feat, samples = featurized_samples(24, 3, min_nodes=4, max_nodes=6)
        m = self.make_model(1)
        for s in samples:
            _, yg = gnn.predict(m, s.graph)
            s.graph_target_physical = yg[0].copy()
        rep = gs.evaluate_graph_level(m, samples, "test")
        assert rep.pooled == pytest.approx(0.0, abs=1e-12)

    def test_derived_two_graph_case(self):
        # targets (1, 2), predictions (1, 0): ||(0,2)|| / ||(1,2)|| = 2/sqrt(5)
        feat, samples = featurized_samples(25, 2, min_nodes=4, max_nodes=4)
        m = self.make_model(2)
        zero_final_layer(m.decoder_graph)
        m.decoder_graph.biases[-1][:] = 1.0   # model predicts 1 for every graph
        samples[0].graph_target_physical = np.array([1.0])
        samples[1].graph_target_physical = np.array([2.0])
        # prediction vector (1, 1) vs target (1, 2) -> ||(0,1)||/||(1,2)||
        rep = gs.evaluate_graph_level(m, samples, "test")
        assert rep.pooled == pytest.approx(100.0 / np.sqrt(5.0), abs=1e-10)

    def test_csv_rows_shape(self):
        feat, samples = featurized_samples(26, 3, min_nodes=4, max_nodes=6)
        rep = gs.evaluate_graph_level(self.make_model(), samples, "test")
        rows = rep.csv_rows()
        assert rows[0] == "graph_id,num_nodes,eps_r_percent"
        assert len(rows) == 4


def test_format_report_table():
    reports = [gs.EvalReport(split="train", per_graph=[3.9, 9.13, 31.9]),
               gs.EvalReport(split="test", per_graph=[1.0], pooled=14.23)]
    text = format_report_table(reports)
    assert "9.13% (3.9, 31.9)" in text
    assert "pooled 14.23%" in text
