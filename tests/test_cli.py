import configparser
import json
import re

import numpy as np
import pytest

import gnnsurrogate as gs
from gnnsurrogate import cli, training
from gnnsurrogate.cli import cli_main
from conftest import count_featurizing, edit_resume_meta, untimed_log

GEN_INI = """\
[synthetic]
seed = 5
count = 8
min_nodes = 5
max_nodes = 9
family = chain
"""

TRAIN_INI = """\
[model]
encoding = airfoil
task = node_level
latent_size = 4
steps = 2
depth = 2
width = 5
graph_output_size = 3
node_output_size = 1
target_mode = zscore

[training]
epochs = 3
batch_size = 4
initial_lr = 5e-4
seed = 1
"""


@pytest.fixture
def workspace(tmp_path):
    gen_cfg = tmp_path / "gen.ini"
    gen_cfg.write_text(GEN_INI)
    train_cfg = tmp_path / "train.ini"
    train_cfg.write_text(TRAIN_INI)
    data = tmp_path / "data.jsonl"
    assert cli_main(["gen", "--config", str(gen_cfg), "--out", str(data)]) == 0
    return tmp_path, train_cfg, data


def train(tmp_path, train_cfg, data, name="m.ckpt", extra=()):
    out = tmp_path / name
    rc = cli_main(["train", "--config", str(train_cfg), "--data", str(data),
                   "--out", str(out), *extra])
    assert rc == 0
    return out


class TestGen:
    def test_deterministic_files(self, tmp_path):
        cfg = tmp_path / "gen.ini"
        cfg.write_text(GEN_INI)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert cli_main(["gen", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli_main(["gen", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_config_fails(self, tmp_path):
        assert cli_main(["gen", "--config", str(tmp_path / "nope.ini"),
                         "--out", str(tmp_path / "o")]) != 0


class TestTrainEval:
    def test_train_writes_checkpoint_and_log(self, workspace):
        tmp_path, train_cfg, data = workspace
        out = train(tmp_path, train_cfg, data)
        assert out.exists()
        log_lines = (tmp_path / "m.ckpt.log").read_text().strip().splitlines()
        assert len(log_lines) == 3

    def test_eval_prints_report_and_csv(self, workspace, capsys):
        tmp_path, train_cfg, data = workspace
        out = train(tmp_path, train_cfg, data)
        csv = tmp_path / "per_graph.csv"
        assert cli_main(["eval", "--ckpt", str(out), "--data", str(data),
                         "--csv", str(csv)]) == 0
        stdout = capsys.readouterr().out
        assert "%" in stdout
        rows = csv.read_text().strip().splitlines()
        assert rows[0] == "graph_id,num_nodes,eps_r_percent"
        assert len(rows) == 9

    def test_resume_continues(self, workspace):
        tmp_path, train_cfg, data = workspace
        out = train(tmp_path, train_cfg, data)
        out2 = tmp_path / "m2.ckpt"
        assert cli_main(["train", "--config", str(train_cfg), "--data", str(data),
                         "--out", str(out2), "--resume", str(out)]) == 0
        log_lines = (tmp_path / "m2.ckpt.log").read_text().strip().splitlines()
        assert json.loads(log_lines[0])["epoch"] == 3  # continues the epoch count

    def test_determinism_across_runs(self, workspace):
        tmp_path, train_cfg, data = workspace
        a = train(tmp_path, train_cfg, data, "a.ckpt")
        b = train(tmp_path, train_cfg, data, "b.ckpt")
        assert a.read_bytes() == b.read_bytes()
        assert (untimed_log(tmp_path / "a.ckpt.log")
                == untimed_log(tmp_path / "b.ckpt.log"))

    def test_graph_level_training(self, workspace):
        tmp_path, train_cfg, data = workspace
        cfg = tmp_path / "train_g.ini"
        cfg.write_text(TRAIN_INI.replace("task = node_level", "task = graph_level")
                       .replace("graph_output_size = 3", "graph_output_size = 1"))
        out = train(tmp_path, cfg, data, "g.ckpt")
        assert cli_main(["eval", "--ckpt", str(out), "--data", str(data)]) == 0


class TestPredictInspect:
    def test_predict_node_csv(self, workspace, capsys):
        tmp_path, train_cfg, data = workspace
        out = train(tmp_path, train_cfg, data)
        capsys.readouterr()  # drop the training chatter
        assert cli_main(["predict", "--ckpt", str(out), "--data", str(data),
                         "--index", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "node,prediction"
        recs = gs.read_dataset(data)
        assert len(lines) == 1 + recs[0].positions.shape[0]
        for i, line in enumerate(lines[1:]):
            index, value = line.split(",")
            assert int(index) == i and np.isfinite(float(value))

    def test_predict_graph_csv(self, workspace, capsys):
        tmp_path, _, data = workspace
        cfg = tmp_path / "train_g.ini"
        cfg.write_text(TRAIN_INI.replace("task = node_level", "task = graph_level")
                       .replace("graph_output_size = 3", "graph_output_size = 1"))
        out = train(tmp_path, cfg, data, "g.ckpt")
        capsys.readouterr()
        assert cli_main(["predict", "--ckpt", str(out), "--data", str(data)]) == 0
        header, value = capsys.readouterr().out.strip().splitlines()
        assert header == "graph_output" and np.isfinite(float(value))

    def test_predict_bad_index_fails(self, workspace):
        tmp_path, train_cfg, data = workspace
        out = train(tmp_path, train_cfg, data)
        assert cli_main(["predict", "--ckpt", str(out), "--data", str(data),
                         "--index", "99"]) != 0

    def test_inspect_dataset_reports_node_range(self, workspace, capsys):
        tmp_path, train_cfg, data = workspace
        assert cli_main(["inspect", "--data", str(data)]) == 0
        out = capsys.readouterr().out
        recs = gs.read_dataset(data)
        counts = [r.positions.shape[0] for r in recs]
        assert f"{min(counts)}–{max(counts)} nodes" in out

    def test_inspect_checkpoint(self, workspace, capsys):
        tmp_path, train_cfg, data = workspace
        out = train(tmp_path, train_cfg, data)
        assert cli_main(["inspect", "--ckpt", str(out)]) == 0
        text = capsys.readouterr().out
        assert "node_level" in text and "latent 4" in text

    def test_inspect_without_arguments_fails(self):
        assert cli_main(["inspect"]) != 0


class TestTrainingLogAndSchedule:
    def test_log_records_wall_time(self, workspace):
        tmp_path, train_cfg, data = workspace
        train(tmp_path, train_cfg, data)
        lines = (tmp_path / "m.ckpt.log").read_text().strip().splitlines()
        times = [json.loads(line)["wall_time"] for line in lines]
        assert len(times) == 3 and times[0] > 0.0 and times == sorted(times)

    def test_lr_min_from_config_floors_the_schedule(self, workspace):
        # min_delta 0.99 makes every epoch after the first a bad one, so with
        # patience 1 the rate halves each epoch down to lr_min
        tmp_path, _, data = workspace
        cfg = tmp_path / "floor.ini"
        cfg.write_text(TRAIN_INI.replace("epochs = 3", "epochs = 5")
                       + "plateau_patience = 1\nplateau_min_delta = 0.99\nlr_min = 2e-4\n")
        out = train(tmp_path, cfg, data, "floor.ckpt")
        lines = (tmp_path / "floor.ckpt.log").read_text().strip().splitlines()
        lrs = [json.loads(line)["lr"] for line in lines]
        assert lrs == [5e-4, 5e-4, 2.5e-4, 2e-4, 2e-4]
        _, _, resume = gs.load_checkpoint(out)
        assert resume.schedule.lr_min == 2e-4

    def test_lr_min_outside_range_exits_2(self, workspace):
        tmp_path, _, data = workspace
        cfg = tmp_path / "bad.ini"
        cfg.write_text(TRAIN_INI + "lr_min = 1e-3\n")
        assert cli_main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(tmp_path / "x.ckpt")]) == 2


class TestBadRecords:
    @pytest.mark.parametrize("corrupt", ["nan_position", "inf_node_target",
                                         "nan_graph_target", "short_node_target"])
    def test_train_and_eval_exit_2(self, workspace, capsys, corrupt):
        tmp_path, train_cfg, data = workspace
        out = train(tmp_path, train_cfg, data)
        recs = gs.read_dataset(data)
        bad = recs[2]
        if corrupt == "nan_position":
            bad.positions[1, 0] = np.nan
        elif corrupt == "inf_node_target":
            bad.node_target[0] = np.inf
        elif corrupt == "nan_graph_target":
            bad.graph_target[0] = np.nan
        else:
            bad.node_target = bad.node_target[:-1]
        bad_data = tmp_path / "bad.jsonl"
        gs.write_dataset(recs, bad_data)
        capsys.readouterr()
        assert cli_main(["eval", "--ckpt", str(out), "--data", str(bad_data)]) == 2
        assert cli_main(["train", "--config", str(train_cfg), "--data", str(bad_data),
                         "--out", str(tmp_path / "bad.ckpt")]) == 2
        err = capsys.readouterr().err
        assert bad.graph_id in err and "Traceback" not in err

    @pytest.mark.parametrize("field, value", [("cells", [[0, 1], None]),
                                              ("cells", [[0, "1", 2]]),
                                              ("node_cell_types", 4)])
    def test_bad_mesh_exits_2(self, tmp_path, capsys, field, value):
        recs = gs.generate_synthetic(gs.SyntheticSpec(seed=9, count=4, min_nodes=6,
                                                      max_nodes=9, family="patch3d"))
        data = tmp_path / "mesh.jsonl"
        gs.write_dataset(recs, data)
        lines = data.read_text().splitlines()
        bad = json.loads(lines[3])   # record 2, after the header
        bad[field] = value
        lines[3] = json.dumps(bad)
        data.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "mesh.ini"
        cfg.write_text(TRAIN_INI.replace("encoding = airfoil", "encoding = feature_design"))
        capsys.readouterr()
        assert cli_main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(tmp_path / "mesh.ckpt")]) == 2
        err = capsys.readouterr().err
        assert f"record {recs[2].graph_id}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("field, value, names", [
        (None, None, "line 4"),                       # truncated line
        ("id", None, "line 4: no 'id' field"),
        ("positions", None, "line 4 (record {id}): no 'positions' field"),
        ("positions", [[0.0, 0.1], [0.2]], "line 4 (record {id}): bad record"),
        ("positions", [["a", 0.1]], "line 4 (record {id}): bad record"),
        ("freestream", 3, "line 4 (record {id}): bad record"),
        ("freestream", [1.0], "record {id}: freestream must be"),
        ("freestream", ["a", "b"], "record {id}: freestream must be"),
        ("upper_flags", [True], "record {id}: got surface flags of shape (1,)"),
    ])
    def test_bad_record_line_exits_2(self, workspace, capsys, field, value, names):
        tmp_path, train_cfg, data = workspace
        lines = data.read_text().splitlines()
        rec = json.loads(lines[3])   # record 2, after the header
        graph_id = rec["id"]
        if field is None:
            lines[3] = lines[3][:len(lines[3]) // 2]
        else:
            if value is None:
                del rec[field]
            else:
                rec[field] = value
            lines[3] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(["train", "--config", str(train_cfg), "--data", str(bad),
                         "--out", str(tmp_path / "bad.ckpt")]) == 2
        err = capsys.readouterr().err
        assert names.format(id=graph_id) in err and "Traceback" not in err

    def test_node_target_unseen_by_zscore_fit_exits_2(self, workspace, capsys):
        tmp_path, _, data = workspace
        recs = gs.read_dataset(data)
        for rec in recs:
            rec.node_target = None
        untargeted = tmp_path / "untargeted.jsonl"
        gs.write_dataset(recs, untargeted)
        cfg = tmp_path / "train_g.ini"
        cfg.write_text(TRAIN_INI.replace("task = node_level", "task = graph_level")
                       .replace("graph_output_size = 3", "graph_output_size = 1"))
        out = train(tmp_path, cfg, untargeted, "g.ckpt")
        capsys.readouterr()
        assert cli_main(["eval", "--ckpt", str(out), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert recs[0].graph_id in err and "Traceback" not in err

    @pytest.mark.parametrize("target, message", [
        (None, "no node_target to compare with"),
        (0.0, "zero-norm target makes the relative error undefined")])
    def test_eval_error_names_the_graph(self, workspace, capsys, target, message):
        tmp_path, train_cfg, data = workspace
        out = train(tmp_path, train_cfg, data)
        recs = gs.read_dataset(data)
        bad = recs[2]
        bad.node_target = None if target is None else np.full_like(bad.node_target, target)
        bad_data = tmp_path / "bad.jsonl"
        gs.write_dataset(recs, bad_data)
        capsys.readouterr()
        assert cli_main(["eval", "--ckpt", str(out), "--data", str(bad_data)]) == 2
        assert capsys.readouterr().err == f"error: graph {bad.graph_id}: {message}\n"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_positions_exit_2(self, workspace, capsys):
        # finite positions whose edge displacement and length overflow
        tmp_path, train_cfg, data = workspace
        out = train(tmp_path, train_cfg, data)
        recs = gs.read_dataset(data)
        bad = recs[2]
        bad.positions[:2, 0] = [1e308, -1e308]
        bad_data = tmp_path / "bad.jsonl"
        gs.write_dataset(recs, bad_data)
        message = (f"error: record {bad.graph_id}: features are not finite (overflow "
                   f"encountered in subtract; a coordinate or value too large to encode)\n")
        for argv in (["eval", "--ckpt", str(out)], ["predict", "--ckpt", str(out), "--index", "2"],
                     ["train", "--config", str(train_cfg), "--out", str(tmp_path / "bad.ckpt")]):
            capsys.readouterr()
            assert cli_main([*argv, "--data", str(bad_data)]) == 2
            captured = capsys.readouterr()
            assert captured.err == message and captured.out == ""

    def test_string_upper_flags_exit_2(self, workspace, capsys):
        tmp_path, train_cfg, data = workspace
        lines = data.read_text().splitlines()
        rec = json.loads(lines[3])   # record 2, after the header
        rec["upper_flags"] = ["false"] * len(rec["upper_flags"])
        lines[3] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(["train", "--config", str(train_cfg), "--data", str(bad),
                         "--out", str(tmp_path / "bad.ckpt")]) == 2
        err = capsys.readouterr().err
        assert f"line 4 (record {rec['id']}): bad record: upper_flags must be" in err
        assert "Traceback" not in err


class TestTaskTargets:
    """A record may lack the target its task never reads; one lacking the
    target its task trains on is named."""

    @pytest.mark.parametrize("field, task, batch_size, message", [
        ("node_target", "graph_level", 4, None),
        ("graph_target", "node_level", 4, None),
        ("node_target", "node_level", 1,
         "error: record {id}: has no node_target, which node_level training needs\n"),
    ], ids=["graph_level_without_node_target", "node_level_without_graph_target",
            "node_level_without_node_target"])
    def test_train(self, tmp_path, capsys, field, task, batch_size, message):
        recs = gs.generate_synthetic(gs.SyntheticSpec(seed=9, count=6, min_nodes=6,
                                                      max_nodes=9, family="patch3d"))
        data = tmp_path / "mesh.jsonl"
        gs.write_dataset(recs, data)
        lines = data.read_text().splitlines()
        rec = json.loads(lines[3])   # record 2, after the header
        del rec[field]
        lines[3] = json.dumps(rec)
        data.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "mesh.ini"
        cfg.write_text(TRAIN_INI.replace("encoding = airfoil", "encoding = feature_design")
                       .replace("task = node_level", f"task = {task}")
                       .replace("batch_size = 4", f"batch_size = {batch_size}")
                       .replace("graph_output_size = 3", "graph_output_size = 1"))
        capsys.readouterr()
        rc = cli_main(["train", "--config", str(cfg), "--data", str(data),
                       "--out", str(tmp_path / "mesh.ckpt")])
        err = capsys.readouterr().err
        assert (rc, err) == ((0, "") if message is None else (2, message.format(id=rec["id"])))


def _no_training(*args, **kwargs):
    raise AssertionError("training started before the bad input was refused")


class TestBadInvocations:
    """A path, config or data file the CLI cannot use exits 2 with one
    `error:` line and no warning, before any training."""

    CASES = {
        "train_data_is_a_directory": "train --config {cfg} --data {dir} --out {out}",
        "train_out_is_a_directory": "train --config {cfg} --data {data} --out {dir}",
        "train_log_is_a_directory": "train --config {cfg} --data {data} --out {out} --log {dir}",
        "train_ini_without_section_header": "train --config {bare} --data {data} --out {out}",
        "gen_ini_without_section_header": "gen --config {bare} --out {out}",
        "gen_out_is_a_directory": "gen --config {gen} --out {dir}",
        "eval_ckpt_is_a_directory": "eval --ckpt {dir} --data {data}",
        "predict_data_is_a_directory": "predict --ckpt {dir} --data {dir}",
        "inspect_data_is_a_directory": "inspect --data {dir}",
        "train_data_holds_no_records": "train --config {cfg} --data {empty} --out {out}",
        "eval_data_holds_no_records": "eval --ckpt {ckpt} --data {empty}",
        "predict_data_holds_no_records": "predict --ckpt {ckpt} --data {empty}",
        "inspect_data_holds_no_records": "inspect --data {empty}",
        "train_seed_below_zero": "train --config {cfg} --data {data} --out {out} --seed -1",
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_with_one_error_line(self, workspace, capsys, monkeypatch, case):
        tmp_path, train_cfg, data = workspace
        (tmp_path / "dir").mkdir()
        (tmp_path / "bare.ini").write_text("epochs = 3\n")
        gs.write_dataset([], tmp_path / "empty.jsonl")     # the header line alone
        paths = {"cfg": train_cfg, "data": data, "dir": tmp_path / "dir",
                 "out": tmp_path / "m.ckpt", "bare": tmp_path / "bare.ini",
                 "gen": tmp_path / "gen.ini", "empty": tmp_path / "empty.jsonl"}
        if "{ckpt}" in self.CASES[case]:
            paths["ckpt"] = train(tmp_path, train_cfg, data, name="trained.ckpt")
        argv = [arg.format(**{k: str(v) for k, v in paths.items()})
                for arg in self.CASES[case].split()]
        monkeypatch.setattr(training, "fit", _no_training)
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        if "{empty}" in self.CASES[case]:
            assert f"{paths['empty']}: holds no records" in err
        if case == "train_seed_below_zero":      # named by the flag, not the INI
            assert err == "error: --seed: must be >= 0, got -1\n"


    def test_a_size_past_memory_exits_2(self, workspace, capsys, monkeypatch):
        """A width of 10**12 asks for terabytes; the allocator refuses it at
        once, and the refusal is one line, not numpy's traceback."""
        tmp_path, _, data = workspace
        cfg = tmp_path / "huge.ini"
        cfg.write_text(TRAIN_INI.replace("width = 5", "width = 1000000000000"))
        monkeypatch.setattr(training, "fit", _no_training)
        capsys.readouterr()
        assert cli_main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(tmp_path / "m.ckpt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate"), err
        assert len(err.splitlines()) == 1


class TestJsonBooleans:
    """`chain`, `closed` and `upper_flags` are JSON booleans and `freestream`
    holds no JSON booleans; any other value exits 2 naming the file, the
    line and the record."""

    @pytest.mark.parametrize("field, value", [("chain", "no"), ("closed", "false"),
                                              ("closed", 0), ("freestream", [True, False])])
    def test_train_exits_2(self, workspace, capsys, monkeypatch, field, value):
        tmp_path, train_cfg, data = workspace
        lines = data.read_text().splitlines()
        rec = json.loads(lines[3])   # record 2, after the header
        rec[field] = value
        lines[3] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(training, "fit", _no_training)
        capsys.readouterr()
        assert cli_main(["train", "--config", str(train_cfg), "--data", str(bad),
                         "--out", str(tmp_path / "bad.ckpt")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: line 4 (record {rec['id']}): bad record: {field} must be" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1


    @pytest.mark.parametrize("field, edit", [
        ("positions", lambda rec: rec["positions"][1].__setitem__(0, True)),
        ("node_target", lambda rec: rec["node_target"].__setitem__(0, False)),
        ("graph_target", lambda rec: rec.__setitem__("graph_target", [True]))])
    def test_numbers_refuse_json_booleans(self, workspace, capsys, monkeypatch, field, edit):
        tmp_path, train_cfg, data = workspace
        lines = data.read_text().splitlines()
        rec = json.loads(lines[3])   # record 2, after the header
        edit(rec)
        lines[3] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(training, "fit", _no_training)
        capsys.readouterr()
        assert cli_main(["train", "--config", str(train_cfg), "--data", str(bad),
                         "--out", str(tmp_path / "bad.ckpt")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {bad}: line 4 (record {rec['id']}): bad record: "
                       f"{field} must hold JSON numbers only, got bool\n")


# the INI sections as the CLI read them before they were read through the
# dataclasses' fields, kept as the reference the reader must agree with
def _reference_spec(sec):
    return gs.SyntheticSpec(seed=sec.getint("seed", 0), count=sec.getint("count", 100),
                            min_nodes=sec.getint("min_nodes", 20),
                            max_nodes=sec.getint("max_nodes", 60),
                            family=sec.get("family", "chain"))


def _reference_featurizer(sec):
    kwargs = {"encoding_kind": sec.get("encoding", "airfoil"),
              "node_target_mode": sec.get("target_mode", "zscore"),
              "use_speed_squared": sec.getboolean("use_speed_squared", True)}
    if "cell_type_vocabulary" in sec:
        kwargs["cell_type_vocabulary"] = tuple(
            v.strip() for v in sec["cell_type_vocabulary"].split(","))
    return gs.Featurizer(**kwargs)


def _reference_model_config(sec, featurizer, task):
    node_out = sec.getint("node_output_size", 1) if task == "node_level" else None
    return gs.GnnConfig(
        node_input_size=featurizer.node_feature_width,
        edge_input_size=featurizer.edge_feature_width,
        latent_size=sec.getint("latent_size", 64), steps=sec.getint("steps", 6),
        depth=sec.getint("depth", 4), width=sec.getint("width", 64),
        graph_output_size=sec.getint("graph_output_size", 4 if task == "node_level" else 1),
        node_output_size=node_out,
        node_output_activation=sec.get("node_output_activation", "linear"),
        graph_output_activation=sec.get("graph_output_activation", "linear"),
        sine_frequency=sec.getfloat("sine_frequency", 1.0))


def _reference_train_config(sec, task, seed_override):
    return gs.TrainConfig(
        epochs=sec.getint("epochs", 2000), batch_size=sec.getint("batch_size", 16),
        initial_lr=sec.getfloat("initial_lr", 5e-4),
        l1_coefficient=sec.getfloat("l1_coefficient", 1e-5),
        plateau_patience=sec.getint("plateau_patience", 50),
        plateau_factor=sec.getfloat("plateau_factor", 0.5),
        plateau_min_delta=sec.getfloat("plateau_min_delta", 1e-5),
        lr_min=sec.getfloat("lr_min", None),
        seed=seed_override if seed_override is not None else sec.getint("seed", 0),
        task=task)


EVERY_KEY_INI = """\
[synthetic]
seed = 3
count = 7
min_nodes = 6
max_nodes = 11
family = patch3d

[model]
encoding = feature_design
task = node_level
latent_size = 5
steps = 3
depth = 2
width = 7
graph_output_size = 2
node_output_size = 2
target_mode = none
use_speed_squared = no
cell_type_vocabulary = tet , hex,wedge
node_output_activation = relu
graph_output_activation = sine
sine_frequency = 0.5

[training]
epochs = 9
batch_size = 3
initial_lr = 1e-3
l1_coefficient = 0
plateau_patience = 4
plateau_factor = 0.25
plateau_min_delta = 1e-3
lr_min = 1e-5
seed = 12
"""

EQUIVALENCE_INIS = {
    "no_optional_key": "[synthetic]\n[model]\n[training]\n",
    "graph_level_no_optional_key": "[synthetic]\n[model]\ntask = graph_level\n[training]\n",
    "every_key": EVERY_KEY_INI,
    "train_ini": GEN_INI + TRAIN_INI,
    "train_ini_graph_level": GEN_INI + TRAIN_INI.replace(
        "task = node_level", "task = graph_level").replace(
        "graph_output_size = 3", "graph_output_size = 1"),
}

FEATURIZER_SETTINGS = ("encoding_kind", "cell_type_vocabulary", "node_target_mode",
                       "use_speed_squared")


class TestIniReader:
    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_INIS))
    def test_agrees_with_reference_mappers(self, tmp_path, name, seed):
        path = tmp_path / "cfg.ini"
        path.write_text(EQUIVALENCE_INIS[name])
        ini = configparser.ConfigParser()
        ini.read(path)
        task = ini["model"].get("task", "node_level")
        ref_feat = _reference_featurizer(ini["model"])
        ref_train = _reference_train_config(ini["training"], task, seed)

        featurizer, model_cfg, train_cfg = cli.train_configs(path, seed)
        assert cli.synthetic_spec(path) == _reference_spec(ini["synthetic"])
        assert ({f: getattr(featurizer, f) for f in FEATURIZER_SETTINGS}
                == {f: getattr(ref_feat, f) for f in FEATURIZER_SETTINGS})
        assert model_cfg == _reference_model_config(ini["model"], ref_feat, task)
        assert train_cfg == ref_train
        # the seed the model is built with
        assert train_cfg.seed == (seed if seed is not None
                                  else ini["training"].getint("seed", 0))

    ACCEPTED = {
        "synthetic": {"seed", "count", "min_nodes", "max_nodes", "family"},
        "model": {"encoding", "task", "latent_size", "steps", "depth", "width",
                  "graph_output_size", "node_output_size", "target_mode",
                  "use_speed_squared", "cell_type_vocabulary", "node_output_activation",
                  "graph_output_activation", "sine_frequency"},
        "training": {"epochs", "batch_size", "initial_lr", "l1_coefficient",
                     "plateau_patience", "plateau_factor", "plateau_min_delta", "lr_min",
                     "seed"},
    }

    @pytest.mark.parametrize("section", sorted(ACCEPTED))
    def test_accepted_key_set(self, tmp_path, section):
        path = tmp_path / "cfg.ini"
        path.write_text(EVERY_KEY_INI.replace(f"[{section}]\n", f"[{section}]\nbogus = 1\n"))
        read = cli.synthetic_spec if section == "synthetic" else cli.train_configs
        with pytest.raises(cli.ConfigFileError) as info:
            read(path)
        listed = re.search(r"\(accepted: (.*)\)$", str(info.value)).group(1)
        assert set(listed.split(", ")) == self.ACCEPTED[section]
        # so the equivalence test reads every accepted key
        ini = configparser.ConfigParser()
        ini.read_string(EVERY_KEY_INI)
        assert set(ini[section]) == self.ACCEPTED[section]


class TestBadIni:
    """An INI section or key the program cannot use exits 2 with one
    `error:` line naming the file, the section and the key, before anything
    is written or trained."""

    # (command, INI text, the section and key the error names)
    CASES = {
        "synthetic_misspelt_key": ("gen", GEN_INI.replace("count", "cuont"),
                                   "[synthetic] cuont: unknown key"),
        "model_misspelt_key": ("train", TRAIN_INI.replace("encoding", "encodng"),
                               "[model] encodng: unknown key"),
        "training_misspelt_key": ("train", TRAIN_INI.replace("epochs", "epoch"),
                                  "[training] epoch: unknown key"),
        "unconvertible_int": ("train", TRAIN_INI.replace("latent_size = 4", "latent_size = big"),
                              "[model] latent_size: invalid literal for int()"),
        "unconvertible_float": ("train", TRAIN_INI.replace("5e-4", "fast"),
                                "[training] initial_lr: could not convert"),
        "unconvertible_bool": ("train", TRAIN_INI.replace(
            "target_mode = zscore", "target_mode = zscore\nuse_speed_squared = maybe"),
            "[model] use_speed_squared: Not a boolean"),
        "unknown_task": ("train", TRAIN_INI.replace("task = node_level", "task = graphlevel"),
                         "[model] task: 'graphlevel' is not one of node_level, graph_level"),
        # values that parse but could not build or train: refused before either
        "negative_steps": ("train", TRAIN_INI.replace("steps = 2", "steps = -1"),
                           "[model] steps: must be >= 0, got -1"),
        "zero_latent_size": ("train", TRAIN_INI.replace("latent_size = 4", "latent_size = 0"),
                             "[model] latent_size: must be >= 1, got 0"),
        "nan_sine_frequency": ("train", TRAIN_INI.replace(
            "target_mode = zscore", "target_mode = zscore\nsine_frequency = nan"),
            "[model] sine_frequency: must be finite, got nan"),
        "nan_initial_lr": ("train", TRAIN_INI.replace("5e-4", "nan"),
                           "[training] initial_lr: must be finite, got nan"),
        "inf_l1_coefficient": ("train", TRAIN_INI + "l1_coefficient = inf\n",
                               "[training] l1_coefficient: must be finite, got inf"),
        "missing_model_section": ("train", GEN_INI, "no [model] section"),
        "missing_training_section": ("train", TRAIN_INI.split("[training]")[0],
                                     "no [training] section"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_naming_file_section_and_key(self, workspace, capsys, monkeypatch, case):
        tmp_path, _, data = workspace
        command, text, names = self.CASES[case]
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        argv = {"gen": ["gen", "--config", str(cfg), "--out", str(out)],
                "train": ["train", "--config", str(cfg), "--data", str(data),
                          "--out", str(out)]}[command]
        monkeypatch.setattr(training, "fit", _no_training)
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {names}"), err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not out.exists() and not (tmp_path / "out.log").exists()


class TestFeaturizeOnce:
    def test_train_validates_and_builds_each_record_once(self, workspace, monkeypatch):
        tmp_path, train_cfg, data = workspace
        counts = count_featurizing(monkeypatch)
        out = train(tmp_path, train_cfg, data)
        assert counts == {"validate": 8, "build_surface_chain": 8}
        counts.clear()
        train(tmp_path, train_cfg, data, "resumed.ckpt", extra=("--resume", str(out)))
        assert counts == {"validate": 8, "build_surface_chain": 8}


class TestResumeSettings:
    """`train --resume` refuses an INI whose [model] differs from the
    checkpoint's, naming the file, the section, the first differing key and
    both values, before any training; [training] keys may differ."""

    CASES = {
        "task_and_latent": ({"task = node_level": "task = graph_level",
                             "latent_size = 4": "latent_size = 16"},
                            "task: 'graph_level', but checkpoint {ckpt} has 'node_level'"),
        "latent_size": ({"latent_size = 4": "latent_size = 16"},
                        "latent_size: 16, but checkpoint {ckpt} has 4"),
        "encoding": ({"encoding = airfoil": "encoding = feature_design"},
                     "encoding: 'feature_design', but checkpoint {ckpt} has 'airfoil'"),
        "target_mode": ({"target_mode = zscore": "target_mode = none"},
                        "target_mode: 'none', but checkpoint {ckpt} has 'zscore'"),
        "sine_frequency": ({"target_mode = zscore": "target_mode = zscore\n"
                                                    "sine_frequency = 2.0"},
                           "sine_frequency: 2.0, but checkpoint {ckpt} has 1.0"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_differing_model_section_exits_2(self, workspace, capsys, monkeypatch, case):
        tmp_path, train_cfg, data = workspace
        ckpt = train(tmp_path, train_cfg, data)
        edits, names = self.CASES[case]
        text = TRAIN_INI
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "changed.ini"
        cfg.write_text(text)
        out = tmp_path / "resumed.ckpt"
        monkeypatch.setattr(training, "fit", _no_training)
        capsys.readouterr()
        assert cli_main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(out), "--resume", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: [model] {names.format(ckpt=ckpt)}\n"
        assert not out.exists()

    def test_training_section_may_differ(self, workspace):
        tmp_path, train_cfg, data = workspace
        ckpt = train(tmp_path, train_cfg, data)
        cfg = tmp_path / "more.ini"
        cfg.write_text(TRAIN_INI.replace("epochs = 3", "epochs = 1")
                       .replace("batch_size = 4", "batch_size = 2"))
        train(tmp_path, cfg, data, "resumed.ckpt", extra=("--resume", str(ckpt)))
        log = (tmp_path / "resumed.ckpt.log").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in log] == [3]


class TestPositionsWidth:
    """A positions width the encoding does not take, or a `dim` that
    disagrees with the positions, exits 2 naming the record, before any
    training."""

    @staticmethod
    def lift(rec):
        rec["positions"] = [p + [0.0] for p in rec["positions"]]
        rec["dim"] = 3

    @staticmethod
    def flatten(rec):
        rec["positions"] = [p[:2] for p in rec["positions"]]
        rec["dim"] = 2

    @pytest.mark.parametrize("case", ["airfoil_all_3d", "airfoil_one_3d", "mesh_2d",
                                      "dim_disagrees"])
    def test_exits_2_naming_the_record(self, workspace, capsys, monkeypatch, case):
        tmp_path, train_cfg, data = workspace
        if case == "mesh_2d":
            recs = gs.generate_synthetic(gs.SyntheticSpec(seed=9, count=4, min_nodes=6,
                                                          max_nodes=9, family="patch2d"))
            data = tmp_path / "mesh.jsonl"
            gs.write_dataset(recs, data)
            train_cfg = tmp_path / "mesh.ini"
            train_cfg.write_text(TRAIN_INI.replace("encoding = airfoil",
                                                   "encoding = feature_design"))
        lines = data.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        edited = {"airfoil_all_3d": records, "airfoil_one_3d": records[2:3],
                  "mesh_2d": records[2:3], "dim_disagrees": records[2:3]}[case]
        for rec in edited:
            if case == "mesh_2d":
                self.flatten(rec)
            elif case == "dim_disagrees":
                rec["dim"] = 3
            else:
                self.lift(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n")
        monkeypatch.setattr(training, "fit", _no_training)
        capsys.readouterr()
        assert cli_main(["train", "--config", str(train_cfg), "--data", str(bad),
                         "--out", str(tmp_path / "bad.ckpt")]) == 2
        err = capsys.readouterr().err
        name = edited[0]["id"]
        expected = {
            "mesh_2d": f"record {name}: 2-D positions, but the feature_design encoding "
                       f"takes 3-D positions",
            "dim_disagrees": f"{bad}: line 4 (record {name}): bad record: dim 3, but "
                             f"positions have 2 columns"}.get(
            case, f"record {name}: 3-D positions, but the airfoil encoding takes 2-D positions")
        assert err == f"error: {expected}\n"


class TestBadResumeScalar:
    def test_inspect_and_resume_exit_2(self, workspace, capsys, monkeypatch):
        tmp_path, train_cfg, data = workspace
        ckpt = train(tmp_path, train_cfg, data)
        edit_resume_meta(ckpt, epoch="1")
        monkeypatch.setattr(training, "fit", _no_training)
        message = ("error: section 'resume_meta': entry 'epoch' is '1', "
                   "expected a non-negative integer\n")
        capsys.readouterr()
        assert cli_main(["inspect", "--ckpt", str(ckpt)]) == 2
        assert capsys.readouterr().err == message
        assert cli_main(["train", "--config", str(train_cfg), "--data", str(data),
                         "--out", str(tmp_path / "resumed.ckpt"), "--resume", str(ckpt)]) == 2
        assert capsys.readouterr().err == message
