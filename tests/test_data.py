import dataclasses
import json
import re

import numpy as np
import pytest
from scipy.spatial import QhullError

import gnnsurrogate as gs
from gnnsurrogate import checkpoint, datasets
from gnnsurrogate import model as gnn
from gnnsurrogate.checkpoint import (CheckpointError, TrainResumeState,
                                     load_checkpoint, save_checkpoint)
from gnnsurrogate.datasets import (DEFAULT_CELL_TYPES, DatasetFormatError, SeligParseError,
                                   chain_target, patch_target, record_from_selig)
from gnnsurrogate.training import AdamState, PlateauSchedule
from conftest import count_featurizing, edit_resume_meta, featurized_samples, tiny_config


class TestDatasetRoundTrip:
    def test_chain_records(self, tmp_path, rng):
        recs = gs.generate_synthetic(gs.SyntheticSpec(seed=3, count=6, min_nodes=5,
                                                      max_nodes=10, family="chain"))
        path = tmp_path / "d.jsonl"
        gs.write_dataset(recs, path)
        back = gs.read_dataset(path)
        assert len(back) == 6
        for a, b in zip(recs, back):
            assert a.graph_id == b.graph_id
            np.testing.assert_array_equal(a.positions, b.positions)  # full precision
            np.testing.assert_array_equal(a.upper_flags, b.upper_flags)
            assert a.freestream == b.freestream
            np.testing.assert_array_equal(a.node_target, b.node_target)
            np.testing.assert_array_equal(
                a.build_topology().edges, b.build_topology().edges)

    def test_mesh_records(self, tmp_path):
        recs = gs.generate_synthetic(gs.SyntheticSpec(seed=4, count=3, min_nodes=6,
                                                      max_nodes=9, family="patch3d"))
        path = tmp_path / "m.jsonl"
        gs.write_dataset(recs, path)
        back = gs.read_dataset(path)
        for a, b in zip(recs, back):
            assert a.node_cell_types == b.node_cell_types
            np.testing.assert_array_equal(
                a.build_topology().edges, b.build_topology().edges)

    def test_topologies_validate(self):
        for family in ("chain", "patch2d", "patch3d"):
            recs = gs.generate_synthetic(gs.SyntheticSpec(seed=5, count=3, min_nodes=6,
                                                          max_nodes=10, family=family))
            for r in recs:
                assert gs.validate(r.build_topology()) == []

    def test_header_only_file_has_no_records(self, tmp_path):
        gs.write_dataset([], tmp_path / "empty.jsonl")
        assert gs.read_dataset(tmp_path / "empty.jsonl") == []

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else", "schema_version": 1}\n')
        with pytest.raises(DatasetFormatError):
            gs.read_dataset(path)

    def test_header_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('["gnn-surrogate-dataset", 1]\n')
        with pytest.raises(DatasetFormatError, match="not a gnn-surrogate-dataset file"):
            gs.read_dataset(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "gnn-surrogate-dataset", "schema_version": 99}\n')
        with pytest.raises(DatasetFormatError):
            gs.read_dataset(path)


class TestRecordValidation:
    def records(self):
        return gs.generate_synthetic(gs.SyntheticSpec(seed=6, count=3, min_nodes=5,
                                                      max_nodes=8, family="chain"))

    @pytest.mark.parametrize("field", ["positions", "node_target", "graph_target"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_naming_record(self, tmp_path, field, value):
        recs = self.records()
        feat = gs.Featurizer("airfoil").fit(recs)
        getattr(recs[1], field).flat[0] = value
        path = tmp_path / "d.jsonl"
        gs.write_dataset(recs, path)
        for rec in (recs[1], gs.read_dataset(path)[1]):
            with pytest.raises(DatasetFormatError, match=f"{rec.graph_id}.*{field}"):
                gs.Featurizer("airfoil").fit([recs[0], rec])
            with pytest.raises(DatasetFormatError, match=f"{rec.graph_id}.*{field}"):
                feat.transform(rec)

    @pytest.mark.filterwarnings("error")
    def test_features_that_overflow_rejected_naming_record(self):
        recs = self.records()
        feat = gs.Featurizer("airfoil").fit(recs)
        recs[1].positions[:2, 0] = [1e308, -1e308]     # finite, but not their difference
        message = f"^record {recs[1].graph_id}: features are not finite"
        for call in (feat.transform, lambda rec: gs.Featurizer("airfoil").fit([recs[0], rec]),
                     lambda rec: gs.Featurizer("airfoil").fit_transform([recs[0], rec])):
            with pytest.raises(DatasetFormatError, match=message):
                call(recs[1])

    @pytest.mark.parametrize("rows", [-1, 1])
    def test_node_target_row_count_must_match(self, rows):
        recs = self.records()
        feat = gs.Featurizer("airfoil").fit(recs)
        t = recs[0].node_target
        recs[0].node_target = t[:-1] if rows < 0 else np.append(t, 0.0)
        for call in (feat.transform, lambda rec: gs.Featurizer("airfoil").fit([rec])):
            with pytest.raises(DatasetFormatError, match=f"{recs[0].graph_id}.*node_target"):
                call(recs[0])

    # (JSONL field, edit of record 1's value, expected message)
    MESH_PROBES = {
        "string_entry": ("cells", lambda cells: [[0, "1", 2], *cells[1:]],
                         "cell 0 has node index '1'"),
        "list_entry": ("cells", lambda cells: [[0, [1], 2], *cells[1:]],
                       r"cell 0 has node index \[1\]"),
        "float_entry": ("cells", lambda cells: [*cells[:2], [0, 1.5, 2], *cells[3:]],
                        "cell 2 has node index 1.5"),
        "null_cell": ("cells", lambda cells: [cells[0], None, *cells[2:]], "cell 1 is None"),
        "integer_cell": ("cells", lambda cells: [7, *cells[1:]], "cell 0 is 7"),
        "integer_cells": ("cells", lambda cells: 5, "cells is 5"),
        "short_cell": ("cells", lambda cells: [*cells, [0]], "has 1 nodes"),
        "integer_cell_types": ("node_cell_types", lambda types: 4, "one list of labels"),
        "unknown_cell_type": ("node_cell_types", lambda types: [["cube"], *types[1:]],
                              "node 0: unknown cell type 'cube'"),
    }

    @staticmethod
    def write_with_bad_record(path, records, field, corrupt):
        """Write `records` as JSONL with `field` of record 1 edited by hand."""
        gs.write_dataset(records, path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[2])
        obj[field] = corrupt(obj[field])
        lines[2] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("probe", sorted(MESH_PROBES))
    def test_bad_mesh_rejected_naming_record(self, tmp_path, probe):
        field, corrupt, message = self.MESH_PROBES[probe]
        recs = gs.generate_synthetic(gs.SyntheticSpec(seed=8, count=3, min_nodes=6,
                                                      max_nodes=9, family="patch3d"))
        feat = gs.Featurizer("feature_design").fit(recs)
        path = tmp_path / "d.jsonl"
        self.write_with_bad_record(path, recs, field, corrupt)
        back = gs.read_dataset(path)
        expected = f"^record {recs[1].graph_id}: .*{message}"
        with pytest.raises(DatasetFormatError, match=expected):
            gs.Featurizer("feature_design").fit(back)
        with pytest.raises(DatasetFormatError, match=expected):
            feat.transform_all(back)

    # (edit of record 1's JSONL line, whether its id can still be read)
    LINE_PROBES = {
        "truncated": (lambda line: line[:len(line) // 2], False),
        "missing_id": (lambda line: _edited(line, lambda o: o.pop("id")), False),
        "missing_positions": (lambda line: _edited(line, lambda o: o.pop("positions")), True),
        "ragged_positions": (lambda line: _edited(
            line, lambda o: o["positions"][1].append(0.5)), True),
        "string_position": (lambda line: _edited(
            line, lambda o: o["positions"][1].__setitem__(0, "a")), True),
        "integer_freestream": (lambda line: _edited(
            line, lambda o: o.__setitem__("freestream", 3)), True),
    }

    @pytest.mark.parametrize("probe", sorted(LINE_PROBES))
    def test_bad_line_named_by_read_dataset(self, tmp_path, probe):
        corrupt, names_record = self.LINE_PROBES[probe]
        recs = self.records()
        path = tmp_path / "d.jsonl"
        gs.write_dataset(recs, path)
        lines = path.read_text().splitlines()
        lines[2] = corrupt(lines[2])
        path.write_text("\n".join(lines) + "\n")
        where = f"{path}: line 3" + (f" (record {recs[1].graph_id})" if names_record else "")
        with pytest.raises(DatasetFormatError, match="^" + re.escape(where + ": ")):
            gs.read_dataset(path)

    # (JSONL field, bad value for record 1, expected message)
    AIRFOIL_PROBES = {
        "short_upper_flags": ("upper_flags", [True], r"shape \(1,\), graph has \d+ nodes"),
        "one_freestream": ("freestream", [1.0], r"two finite numbers .*\(1.0,\)"),
        "string_freestream": ("freestream", ["a", "b"], r"two finite numbers .*'a', 'b'"),
    }

    @pytest.mark.parametrize("probe", sorted(AIRFOIL_PROBES))
    def test_bad_airfoil_record_rejected_naming_record(self, tmp_path, probe):
        field, value, message = self.AIRFOIL_PROBES[probe]
        recs = self.records()
        feat = gs.Featurizer("airfoil").fit(recs)
        path = tmp_path / "d.jsonl"
        self.write_with_bad_record(path, recs, field, lambda _: value)
        back = gs.read_dataset(path)
        expected = f"^record {recs[1].graph_id}: .*{message}"
        with pytest.raises(DatasetFormatError, match=expected):
            gs.Featurizer("airfoil").fit(back)
        with pytest.raises(DatasetFormatError, match=expected):
            feat.transform_all(back)

    @pytest.mark.parametrize("flags", [["false"], ["true"], [0], [None], "true"],
                             ids=["string_false", "string_true", "integer", "null",
                                  "not_a_list"])
    def test_upper_flags_must_be_json_booleans(self, tmp_path, flags):
        recs = self.records()
        path = tmp_path / "d.jsonl"
        self.write_with_bad_record(path, recs, "upper_flags",
                                   lambda old: flags * len(old) if isinstance(flags, list) else flags)
        where = f"{path}: line 3 (record {recs[1].graph_id}): "
        with pytest.raises(DatasetFormatError,
                           match="^" + re.escape(where) + ".*list of JSON booleans"):
            gs.read_dataset(path)

    @pytest.mark.parametrize("field, value", [
        ("chain", "no"), ("chain", 1), ("chain", None), ("closed", "false"),
        ("closed", 0), ("freestream", [True, False]), ("freestream", [0.5, True])])
    def test_json_booleans_only_where_meant(self, tmp_path, field, value):
        recs = self.records()
        path = tmp_path / "d.jsonl"
        self.write_with_bad_record(path, recs, field, lambda _: value)
        where = f"{path}: line 3 (record {recs[1].graph_id}): bad record: {field} must be"
        with pytest.raises(DatasetFormatError, match="^" + re.escape(where)):
            gs.read_dataset(path)

    @pytest.mark.parametrize("field, edit, got", [
        ("positions", lambda old: [[True, False]] * len(old), "bool"),
        ("positions", lambda old: [[0.5, True], *old[1:]], "bool"),
        ("positions", lambda old: [["0.5", "0.1"], *old[1:]], "str"),
        ("node_target", lambda old: [False, *old[1:]], "bool"),
        ("graph_target", lambda old: [True], "bool"),
        ("graph_target", lambda old: True, "bool")])
    def test_numeric_fields_refuse_json_booleans(self, tmp_path, field, edit, got):
        recs = self.records()
        path = tmp_path / "d.jsonl"
        self.write_with_bad_record(path, recs, field, edit)
        where = (f"{path}: line 3 (record {recs[1].graph_id}): bad record: "
                 f"{field} must hold JSON numbers only, got {got}")
        with pytest.raises(DatasetFormatError, match="^" + re.escape(where) + "$"):
            gs.read_dataset(path)

    def test_numeric_fields_keep_integers_and_floats(self, tmp_path):
        recs = self.records()
        path = tmp_path / "d.jsonl"
        self.write_with_bad_record(path, recs, "graph_target", lambda old: [3])
        back = gs.read_dataset(path)
        assert back[1].graph_target.dtype == np.float64 and back[1].graph_target.tolist() == [3.0]
        np.testing.assert_array_equal(back[2].positions, recs[2].positions)

    def test_boolean_freestream_rejected_naming_record(self):
        rec = record_from_selig(SELIG_SAMPLE, freestream=(True, False), graph_id="bool-fs")
        with pytest.raises(DatasetFormatError, match="^record bool-fs: freestream must be"):
            gs.Featurizer("airfoil").fit([rec])

    def test_bad_chain_rejected_naming_record(self):
        rec = self.records()[0]
        rec.positions = rec.positions[:1]
        rec.node_target = rec.node_target[:1]
        with pytest.raises(DatasetFormatError, match=f"^record {rec.graph_id}: chain needs"):
            gs.Featurizer("airfoil").fit([rec])

    def test_two_column_node_target_accepted(self):
        rec = self.records()[0]
        rec.node_target = np.column_stack([rec.node_target, rec.node_target])
        assert rec.validate() is rec


SELIG_SAMPLE = """EXAMPLE AIRFOIL
1.000  0.001
0.500  0.060
0.000  0.000
0.500  -0.040
1.000  -0.001
"""


def _edited(line: str, edit) -> str:
    """A JSONL record line with `edit` applied to its object."""
    obj = json.loads(line)
    edit(obj)
    return json.dumps(obj)


class TestParseSelig:
    def test_basic_parse(self):
        name, pts, upper = gs.parse_selig(SELIG_SAMPLE)
        assert name == "EXAMPLE AIRFOIL"
        assert pts.shape == (5, 2)
        # leading edge at index 2; earlier points upper, rest lower
        np.testing.assert_array_equal(upper, [True, True, False, False, False])

    def test_derived_three_point_example(self):
        name, pts, upper = gs.parse_selig("FOO\n1.0 0.0\n0.0 0.0\n1.0 -0.05\n")
        assert np.argmin(pts[:, 0]) == 1
        np.testing.assert_array_equal(upper, [True, False, False])

    def test_empty_file_rejected(self):
        with pytest.raises(SeligParseError):
            gs.parse_selig("")

    def test_malformed_line_reports_number(self):
        with pytest.raises(SeligParseError, match="line 3"):
            gs.parse_selig("NAME\n0.5 0.1\n0.5 abc\n")

    def test_x_out_of_band_rejected(self):
        with pytest.raises(SeligParseError):
            gs.parse_selig("NAME\n0.5 0.1\n2.5 0.0\n0.0 0.0\n")

    def test_x_in_band_accepted(self):
        gs.parse_selig("NAME\n0.5 0.1\n1.01 0.0\n0.0 0.0\n")

    def test_too_few_points_rejected(self):
        with pytest.raises(SeligParseError):
            gs.parse_selig("NAME\n0.5 0.1\n0.6 0.2\n")

    def test_record_builds_valid_chain(self):
        rec = record_from_selig(SELIG_SAMPLE, freestream=(0.8, 0.1))
        g = rec.build_topology()
        assert gs.validate(g) == []
        assert g.num_edges == 2 * (5 - 1)


class TestSynthetic:
    def test_chain_oracle_closed_form(self):
        # node at (0.25, 0) with no freestream contribution
        assert chain_target(0.25, 0.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_patch_oracle_closed_form(self):
        assert patch_target(0.25, 0.0, 0.0) == pytest.approx(1.0)

    def test_graph_target_is_mean(self):
        recs = gs.generate_synthetic(gs.SyntheticSpec(seed=6, count=4, min_nodes=5,
                                                      max_nodes=9, family="chain"))
        for r in recs:
            np.testing.assert_allclose(r.graph_target, [r.node_target.mean()])

    def test_deterministic_given_seed(self, tmp_path):
        spec = gs.SyntheticSpec(seed=7, count=5, min_nodes=5, max_nodes=9)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        gs.write_dataset(gs.generate_synthetic(spec), a)
        gs.write_dataset(gs.generate_synthetic(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_node_counts_in_range(self):
        recs = gs.generate_synthetic(gs.SyntheticSpec(seed=8, count=20, min_nodes=5,
                                                      max_nodes=9, family="chain"))
        assert all(5 <= r.positions.shape[0] <= 9 for r in recs)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            gs.SyntheticSpec(seed=0, count=1, min_nodes=9, max_nodes=5)

    def test_patch_retries_only_a_failed_triangulation(self, monkeypatch):
        calls, real = [], datasets.Delaunay

        def flaky(points):
            calls.append(len(points))
            if len(calls) == 1:
                raise QhullError("degenerate")
            return real(points)
        monkeypatch.setattr(datasets, "Delaunay", flaky)
        spec = gs.SyntheticSpec(seed=9, count=1, min_nodes=6, max_nodes=6, family="patch2d")
        (rec,) = gs.generate_synthetic(spec)
        assert len(calls) == 2 and rec.positions.shape == (6, 3)

        def broken(points):
            calls.append(len(points))
            raise TypeError("a program error, not a degenerate patch")
        monkeypatch.setattr(datasets, "Delaunay", broken)
        calls.clear()
        with pytest.raises(TypeError, match="program error"):
            gs.generate_synthetic(spec)
        assert len(calls) == 1


class TestFeaturizer:
    def test_airfoil_widths(self):
        feat, samples = featurized_samples(30, 3, min_nodes=5, max_nodes=8)
        s = samples[0]
        assert s.graph.node_features.shape[1] == 6
        assert s.graph.edge_features.shape[1] == 3

    def test_feature_design_widths(self):
        feat, samples = featurized_samples(31, 3, min_nodes=6, max_nodes=9,
                                           family="patch3d")
        s = samples[0]
        assert s.graph.node_features.shape[1] == 5 + 4
        assert s.graph.edge_features.shape[1] == 4

    @pytest.mark.parametrize("encoding, vocabulary", [
        ("airfoil", DEFAULT_CELL_TYPES), ("feature_design", DEFAULT_CELL_TYPES),
        ("feature_design", ("hex", "prism", "tet"))])
    def test_declared_widths_match_transform(self, encoding, vocabulary):
        family = "chain" if encoding == "airfoil" else "patch3d"
        recs = gs.generate_synthetic(gs.SyntheticSpec(seed=35, count=2, min_nodes=6,
                                                      max_nodes=9, family=family))
        feat = gs.Featurizer(encoding, cell_type_vocabulary=vocabulary).fit(recs)
        g = feat.transform(recs[0]).graph
        assert feat.node_feature_width == g.node_features.shape[1]
        assert feat.edge_feature_width == g.edge_features.shape[1]

    def test_target_round_trip_zscore(self):
        feat, samples = featurized_samples(32, 3, min_nodes=5, max_nodes=8)
        for s in samples:
            np.testing.assert_allclose(s.to_physical_node(s.graph.node_targets),
                                       s.node_target_physical, atol=1e-12)

    def test_target_round_trip_pressure(self):
        recs = gs.generate_synthetic(gs.SyntheticSpec(seed=33, count=3, min_nodes=5,
                                                      max_nodes=8, family="chain"))
        feat = gs.Featurizer("airfoil", node_target_mode="pressure").fit(recs)
        for rec in recs:
            s = feat.transform(rec)
            np.testing.assert_allclose(s.to_physical_node(s.graph.node_targets),
                                       s.node_target_physical, atol=1e-10)

    def test_pressure_mode_requires_airfoil(self):
        with pytest.raises(ValueError):
            gs.Featurizer("feature_design", node_target_mode="pressure")

    def test_zscore_fitted_without_targets_rejects_a_target_naming_record(self):
        recs = gs.generate_synthetic(gs.SyntheticSpec(seed=34, count=4, min_nodes=5,
                                                      max_nodes=8, family="chain"))
        with_target = recs[3]
        for rec in recs[:3]:
            rec.node_target = None
        feat = gs.Featurizer("airfoil").fit(recs[:3])
        assert feat.target_norm is None
        with pytest.raises(DatasetFormatError, match=with_target.graph_id):
            feat.transform(with_target)

    @pytest.mark.parametrize("refit", ["fit", "fit_transform"])
    def test_refit_without_targets_drops_the_zscore(self, refit):
        with_targets = gs.generate_synthetic(gs.SyntheticSpec(
            seed=1, count=3, min_nodes=5, max_nodes=8, family="chain"))
        without = gs.generate_synthetic(gs.SyntheticSpec(
            seed=2, count=3, min_nodes=5, max_nodes=8, family="chain"))
        for rec in without:
            rec.node_target = None
        feat = gs.Featurizer("airfoil").fit(with_targets)
        assert feat.target_norm is not None
        getattr(feat, refit)(without)
        assert feat.target_norm is None
        with pytest.raises(DatasetFormatError, match=with_targets[0].graph_id):
            feat.transform(with_targets[0])


class TestFeaturizeOnce:
    FAMILIES = {"chain": ("airfoil", "build_surface_chain"),
                "patch3d": ("feature_design", "build_from_mesh")}

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("call", ["fit", "transform_all", "fit_transform"])
    def test_each_record_validated_and_built_once(self, monkeypatch, family, call):
        encoding, builder = self.FAMILIES[family]
        recs = gs.generate_synthetic(gs.SyntheticSpec(seed=4, count=5, min_nodes=5,
                                                      max_nodes=8, family=family))
        fitted = gs.Featurizer(encoding).fit(recs)
        counts = count_featurizing(monkeypatch)
        if call == "fit":
            gs.Featurizer(encoding).fit(recs)
        elif call == "transform_all":
            fitted.transform_all(recs)
        else:
            gs.Featurizer(encoding).fit_transform(recs)
        assert counts == {"validate": 5, builder: 5}


class TestPositionsWidth:
    """Each encoding takes one positions width, airfoil 2 and feature design
    3; any other is refused naming the record, the width and the encoding."""

    @staticmethod
    def lifted(rec):
        rec.positions = np.column_stack([rec.positions, np.zeros(len(rec.positions))])
        return rec

    def chains(self):
        return gs.generate_synthetic(gs.SyntheticSpec(seed=6, count=3, min_nodes=5,
                                                      max_nodes=8))

    def test_all_3d_airfoil_records_refused(self):
        recs = [self.lifted(r) for r in self.chains()]
        for call in (gs.Featurizer("airfoil").fit, gs.Featurizer("airfoil").fit_transform):
            with pytest.raises(DatasetFormatError, match=(
                    f"^record {recs[0].graph_id}: 3-D positions, but the airfoil "
                    f"encoding takes 2-D positions$")):
                call(recs)

    def test_mixed_airfoil_record_refused(self):
        recs = self.chains()
        feat = gs.Featurizer("airfoil").fit(recs)
        self.lifted(recs[1])
        with pytest.raises(DatasetFormatError, match=f"^record {recs[1].graph_id}: 3-D"):
            gs.Featurizer("airfoil").fit(recs)
        with pytest.raises(DatasetFormatError, match=f"^record {recs[1].graph_id}: 3-D"):
            feat.transform(recs[1])

    def test_2d_mesh_refused_by_feature_design(self):
        recs = gs.generate_synthetic(gs.SyntheticSpec(seed=6, count=3, min_nodes=5,
                                                      max_nodes=8, family="patch2d"))
        recs[2].positions = recs[2].positions[:, :2]
        with pytest.raises(DatasetFormatError, match=(
                f"^record {recs[2].graph_id}: 2-D positions, but the feature_design "
                f"encoding takes 3-D positions$")):
            gs.Featurizer("feature_design").fit_transform(recs)

    def test_read_dataset_refuses_a_dim_that_disagrees(self, tmp_path):
        recs = self.chains()
        path = tmp_path / "d.jsonl"
        gs.write_dataset(recs, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        assert rec["dim"] == 2
        rec["dim"] = 3
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=re.escape(
                f"{path}: line 3 (record {recs[1].graph_id}): bad record: "
                f"dim 3, but positions have 2 columns")):
            gs.read_dataset(path)


class TestCheckpoint:
    def make(self, seed=0):
        feat, samples = featurized_samples(40, 3, min_nodes=5, max_nodes=8)
        m = gnn.build_model(tiny_config(), seed)
        return m, feat, samples

    def test_round_trip_bit_identical_predictions(self, tmp_path):
        m, feat, samples = self.make()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, feat, path)
        m2, feat2, resume = load_checkpoint(path)
        assert resume is None
        for s in samples:
            a_n, a_g = gnn.predict(m, s.graph)
            s2 = feat2.transform(gs.generate_synthetic(
                gs.SyntheticSpec(seed=40, count=3, min_nodes=5, max_nodes=8))[0])
            b_n, b_g = gnn.predict(m2, s.graph)
            np.testing.assert_array_equal(a_n, b_n)
            np.testing.assert_array_equal(a_g, b_g)

    def test_normalizer_round_trip(self, tmp_path):
        m, feat, _ = self.make()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, feat, path)
        _, feat2, _ = load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(4, 6))
        np.testing.assert_array_equal(feat.node_norm.apply(x), feat2.node_norm.apply(x))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        m, feat, _ = self.make()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, feat, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        m, feat, _ = self.make()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, feat, path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_resume_state_round_trip(self, tmp_path):
        m, feat, _ = self.make()
        params = m.parameters()
        adam = AdamState.for_parameters(params)
        adam.t = 17
        adam.m[:params[0].size] = 0.5
        sched = PlateauSchedule(lr=2.5e-4, best=0.1, bad_epochs=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, feat, path,
                        resume=TrainResumeState(adam=adam, schedule=sched, epoch=42))
        _, _, back = load_checkpoint(path)
        assert back.epoch == 42 and back.adam.t == 17
        assert back.schedule.lr == 2.5e-4 and back.schedule.bad_epochs == 3
        np.testing.assert_array_equal(back.adam.m, adam.m)

    def resumable(self, tmp_path):
        m, feat, _ = self.make()
        adam = AdamState.for_parameters(m.parameters())
        adam.m[:] = np.linspace(-1.0, 1.0, adam.m.size)
        adam.v[:] = np.linspace(0.0, 2.0, adam.v.size)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, feat, path, resume=TrainResumeState(
            adam=adam, schedule=PlateauSchedule(lr=1e-4), epoch=3))
        return m, feat, path

    def test_save_load_save_is_byte_identical(self, tmp_path):
        _, _, path = self.resumable(tmp_path)
        m2, feat2, resume2 = load_checkpoint(path)
        again = tmp_path / "again.ckpt"
        save_checkpoint(m2, feat2, again, resume=resume2)
        assert again.read_bytes() == path.read_bytes()
        assert all(np.shares_memory(p, m2.flat) for p in m2.parameters())
        assert resume2.adam.m.shape == resume2.adam.v.shape == m2.flat.shape

    def test_featurizer_settings_round_trip(self, tmp_path):
        recs = gs.generate_synthetic(gs.SyntheticSpec(seed=2, count=3, min_nodes=5,
                                                      max_nodes=8))
        feat = gs.Featurizer("airfoil", cell_type_vocabulary=["tet", "hex"],
                             node_target_mode="pressure", use_speed_squared=False).fit(recs)
        path = tmp_path / "m.ckpt"
        save_checkpoint(gnn.build_model(tiny_config(), 0), feat, path)
        _, back, _ = load_checkpoint(path)
        assert back.cell_type_vocabulary == ("tet", "hex")
        assert (back.encoding_kind, back.node_target_mode, back.use_speed_squared) == (
            "airfoil", "pressure", False)
        assert back.target_norm is None
        np.testing.assert_array_equal(back.edge_norm.scale, feat.edge_norm.scale)

    def test_meta_entries_in_field_order(self, tmp_path):
        """Normalizers, featurizer settings and resume scalars are written in
        their dataclasses' field order, the byte layout of format version 1."""
        _, feat, path = self.resumable(tmp_path)
        sections = checkpoint._read_sections(path.read_bytes(), len(checkpoint.MAGIC) + 4)
        norms = checkpoint._unpack_arrays(sections["normalizers"], "normalizers")
        for got, norm in zip(norms[::2], (feat.node_norm, feat.edge_norm, feat.target_norm)):
            np.testing.assert_array_equal(got, norm.shift)
        assert list(json.loads(sections["meta"])["featurizer"]) == [
            "encoding_kind", "cell_type_vocabulary", "node_target_mode",
            "use_speed_squared", "has_target_norm"]
        assert list(json.loads(sections["resume_meta"])) == [
            "t", "beta1", "beta2", "eps", "lr", "factor", "patience", "min_delta",
            "lr_min", "best", "bad_epochs", "epoch"]

    def test_every_truncation_raises_checkpoint_error(self, tmp_path):
        _, _, path = self.resumable(tmp_path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(cut)

    def test_missing_section_is_named(self, tmp_path):
        m, feat, _ = self.make()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, feat, path)
        raw = path.read_bytes()
        params_header = raw.index(b"params") - 4     # its name-length field
        path.write_bytes(raw[:params_header])
        with pytest.raises(CheckpointError, match="no 'params' section"):
            load_checkpoint(path)

    def test_failed_save_leaves_the_old_checkpoint_whole(self, tmp_path, monkeypatch):
        from gnnsurrogate import checkpoint
        m, feat, path = self.resumable(tmp_path)
        before = path.read_bytes()
        write_section = checkpoint._write_section

        def failing(fh, name, payload):
            if name == "normalizers":
                raise OSError("disk full")
            write_section(fh, name, payload)

        monkeypatch.setattr(checkpoint, "_write_section", failing)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(m, feat, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        monkeypatch.undo()
        _, _, resume = load_checkpoint(path)
        save_checkpoint(m, feat, path, resume=resume)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("name, value, expected", [
        ("epoch", "1", "a non-negative integer"),
        ("epoch", 1.0, "a non-negative integer"),
        ("t", -1, "a non-negative integer"),
        ("t", True, "a non-negative integer"),
        ("bad_epochs", None, "a non-negative integer"),
        ("patience", 2.5, "a non-negative integer"),
        ("lr", "1e-4", "a finite number"),
        ("lr", False, "a finite number"),
        ("beta2", float("nan"), "a finite number"),
        ("eps", float("inf"), "a finite number"),
        pytest.param("factor", 10 ** 400, "a finite number", id="factor-beyond-float64"),
        ("best", float("-inf"), "a finite number or Infinity"),
        ("best", [0.5], "a finite number or Infinity")])
    def test_bad_resume_scalar_is_named(self, tmp_path, name, value, expected):
        _, _, path = self.resumable(tmp_path)
        edit_resume_meta(path, **{name: value})
        with pytest.raises(CheckpointError, match=re.escape(
                f"section 'resume_meta': entry {name!r} is {value!r}, expected {expected}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, value", [("epoch", 0), ("t", 12), ("lr", 1),
                                             ("best", float("inf")), ("best", 0.25)])
    def test_good_resume_scalars_load(self, tmp_path, name, value):
        _, _, path = self.resumable(tmp_path)
        edit_resume_meta(path, **{name: value})
        _, _, resume = load_checkpoint(path)
        scalars = {**dataclasses.asdict(resume.schedule), "epoch": resume.epoch,
                   "t": resume.adam.t}
        assert scalars[name] == value and type(scalars[name]) is type(value)

    @pytest.mark.parametrize("section", ["params", "resume_arrays"])
    def test_array_shapes_must_match_the_config(self, tmp_path, section):
        m, feat, path = self.resumable(tmp_path)
        narrow = gnn.build_model(tiny_config(width=4), 0)
        wrong = next(i for i, (a, b) in enumerate(zip(narrow.parameters(), m.parameters()))
                     if a.shape != b.shape)
        donor = tmp_path / "narrow.ckpt"
        save_checkpoint(narrow, feat, donor, resume=TrainResumeState(
            adam=AdamState.for_parameters(narrow.parameters()),
            schedule=PlateauSchedule(lr=1e-4), epoch=3))
        path.write_bytes(splice_section(path.read_bytes(), donor.read_bytes(), section))
        with pytest.raises(CheckpointError, match=rf"'{section}.*parameter {wrong} "):
            load_checkpoint(path)


def splice_section(raw: bytes, donor: bytes, name: str) -> bytes:
    """`raw` with section `name` replaced by the same section of `donor`."""
    def span(buf):
        key = len(name).to_bytes(4, "little") + name.encode()
        start = buf.index(key)
        length = int.from_bytes(buf[start + len(key):start + len(key) + 8], "little")
        return start, start + len(key) + 8 + length
    a, b = span(raw)
    c, d = span(donor)
    return raw[:a] + donor[c:d] + raw[b:]
