"""Boundary fuzz of the dataset JSONL and the train INI: Hypothesis mutates
the records of a valid chain file and of a valid mesh (`patch3d`,
feature-design) file, and every mutation goes through `train`, `eval`,
`predict` and `inspect`; it also replaces, drops or adds one entry of the
train INI and runs `train`. Each command must either exit 0 with finite
outputs or exit 2 with one `error:` line; a traceback, a warning or a NaN
fails the test. It also flips one bit of, or truncates, a resumable
checkpoint, which must raise CheckpointError and nothing else."""

import configparser
import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gnnsurrogate.checkpoint import CheckpointError, load_checkpoint
from gnnsurrogate.cli import cli_main

GEN_INI = """\
[synthetic]
seed = 11
count = 4
min_nodes = 5
max_nodes = 7
family = chain
"""

TRAIN_INI = """\
[model]
encoding = airfoil
task = node_level
latent_size = 3
steps = 1
depth = 1
width = 4
graph_output_size = 2
node_output_size = 1
target_mode = zscore

[training]
epochs = 1
batch_size = 2
initial_lr = 5e-4
seed = 1
"""

MESH_GEN_INI = GEN_INI.replace("family = chain", "family = patch3d")

MESH_TRAIN_INI = """\
[model]
encoding = feature_design
task = graph_level
latent_size = 3
steps = 1
depth = 1
width = 4

[training]
epochs = 1
batch_size = 2
initial_lr = 5e-4
seed = 1
"""

HUGE = (1e308, -1e308, 1.7976931348623157e308, 10 ** 400, -(10 ** 400), 1e-320)
OTHER_VALUES = ("text", "", 0, 1.5, -3, True, False, None, [], [[]], {}, {"a": 1},
                [1, "x"], [[0.1, 0.2], [0.3]])
NON_ASCII_IDS = ("Ünïcødé", "翼型-01", "🙂", "a\u0000b", "‮right-to-left", "é" * 200)


def _leaves(value, path=()):
    """(path, leaf) for every non-list inside nested lists."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path, value


def _lists(value, path=()):
    """The path of every list inside `value`, itself included."""
    if isinstance(value, list):
        yield path
        for i, item in enumerate(value):
            yield from _lists(item, path + (i,))


def _replace(value, path, new):
    if not path:
        return new
    value[path[0]] = _replace(value[path[0]], path[1:], new)
    return value


def _get(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def mutations(draw, records):
    """One mutated copy of `records` (JSON objects), and what was done."""
    records = json.loads(json.dumps(records))
    index = draw(st.integers(0, len(records) - 1))
    rec = records[index]
    key = draw(st.sampled_from(sorted(rec)))
    kind = draw(st.sampled_from(["swap_type", "drop_key", "huge_number", "ragged_list",
                                 "non_ascii_id"]))
    if kind == "swap_type":
        rec[key] = draw(st.sampled_from(OTHER_VALUES))
    elif kind == "drop_key":
        del rec[key]
    elif kind == "huge_number":
        numeric = [p for p, v in _leaves(rec[key])
                   if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if not numeric:
            rec[key] = draw(st.sampled_from(HUGE))
        else:
            rec[key] = _replace(rec[key], draw(st.sampled_from(numeric)),
                                draw(st.sampled_from(HUGE)))
    elif kind == "ragged_list":
        lists = list(_lists(rec[key]))
        if not lists:
            rec[key] = [rec[key], [rec[key]]]
        else:
            path = draw(st.sampled_from(lists))
            target = _get(rec[key], path)
            if target and draw(st.booleans()):
                target.pop(draw(st.integers(0, len(target) - 1)))
            else:
                target.append(target[-1] if target else 0.5)
    else:
        rec["id"], key = draw(st.sampled_from(NON_ASCII_IDS)), "id"
    return records, index, f"{kind} {key!r} of record {index}"


BAD_LABELS = ("pyramid", "", "HEX", 1, None, ["hex"], {"hex": 1})
MESH_KINDS = ("bad_index", "one_node_cell", "ragged_cells", "unknown_label",
              "wrong_type_count", "labels_not_a_list")


@st.composite
def mesh_mutations(draw, records, kind):
    """One copy of `records` (mesh JSON objects) with one record's `cells` or
    `node_cell_types` made bad in the way `kind` names, and what was done."""
    records = json.loads(json.dumps(records))
    index = draw(st.integers(0, len(records) - 1))
    rec = records[index]
    n, cells, types = len(rec["positions"]), rec["cells"], rec["node_cell_types"]
    ci, ni = draw(st.integers(0, len(cells) - 1)), draw(st.integers(0, n - 1))
    if kind == "bad_index":      # out of range, or not an integer
        cells[ci][draw(st.integers(0, len(cells[ci]) - 1))] = draw(st.sampled_from(
            [n, n + 7, -1, -n - 1, 10 ** 30, 0.5, 1.0, True, "0", None, [0], 1e308]))
    elif kind == "one_node_cell":
        cells[ci] = cells[ci][:1]
    elif kind == "ragged_cells":
        cells[ci] = draw(st.sampled_from([[], cells[ci][:2], cells[ci] + [ni], [cells[ci]],
                                          cells[ci][0], [cells[ci][0], cells[ci][1:]]]))
    elif kind == "unknown_label":
        types[ni] = types[ni] + [draw(st.sampled_from(BAD_LABELS))]
    elif kind == "wrong_type_count":
        if draw(st.booleans()):
            types.pop(ni)
        else:
            types.append(types[ni])
    else:
        types[ni] = draw(st.sampled_from(["hex", None, 3, {}]))
    return records, index, f"{kind} in record {index}"


def _run(argv):
    """(exit code, stdout, stderr) of one command, with every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli_main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _check_outcome(name, code, err):
    assert code in (0, 2), (name, code, err)
    if code == 2:
        assert err.startswith("error: ") and len(err.splitlines()) == 1, (name, err)
    else:
        assert err == "", (name, err)
    return code == 0


def _valid(root, gen_ini, train_ini):
    """(directory, header line, the valid records as JSON objects, a
    checkpoint trained on them) for a gen INI and a train INI."""
    (root / "gen.ini").write_text(gen_ini)
    (root / "train.ini").write_text(train_ini)
    data = root / "data.jsonl"
    assert _run(["gen", "--config", root / "gen.ini", "--out", data])[0] == 0
    ckpt = root / "valid.ckpt"
    assert _run(["train", "--config", root / "train.ini", "--data", data,
                 "--out", ckpt])[0] == 0
    lines = data.read_text().splitlines()
    return root, lines[0], [json.loads(line) for line in lines[1:]], ckpt


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    return _valid(tmp_path_factory.mktemp("fuzz"), GEN_INI, TRAIN_INI)


@pytest.fixture(scope="module")
def valid_mesh(tmp_path_factory):
    return _valid(tmp_path_factory.mktemp("fuzz_mesh"), MESH_GEN_INI, MESH_TRAIN_INI)


def _check_commands(valid, mutation):
    """`train` on the mutated records, and `eval`, `predict` and `inspect`
    with the valid checkpoint."""
    root, header, _, ckpt = valid
    mutated, index, what = mutation
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        tmp = Path(tmp)
        data = tmp / "data.jsonl"
        data.write_text("\n".join([header, *(json.dumps(r, ensure_ascii=False)
                                             for r in mutated)]) + "\n",
                        encoding="utf-8")
        out = tmp / "m.ckpt"
        code, _, err = _run(["train", "--config", root / "train.ini",
                             "--data", data, "--out", out])
        if _check_outcome(f"train: {what}", code, err):
            log = [json.loads(line) for line in (tmp / "m.ckpt.log").read_text().splitlines()]
            assert all(math.isfinite(rec["loss"]) for rec in log), what

        csv = tmp / "eval.csv"
        code, stdout, err = _run(["eval", "--ckpt", ckpt, "--data", data, "--csv", csv])
        if _check_outcome(f"eval: {what}", code, err):
            assert "nan" not in stdout.lower() and "inf" not in stdout.lower(), what
            for row in csv.read_text().splitlines()[1:]:
                assert math.isfinite(float(row.rsplit(",", 1)[1])), (what, row)

        pred = tmp / "pred.csv"
        code, _, err = _run(["predict", "--ckpt", ckpt, "--data", data,
                             "--index", index, "--out", pred])
        if _check_outcome(f"predict: {what}", code, err):
            rows = pred.read_text().splitlines()[1:]
            assert rows and all(math.isfinite(float(r.split(",")[-1])) for r in rows), what

        code, _, err = _run(["inspect", "--data", data])
        _check_outcome(f"inspect: {what}", code, err)


def test_mutated_records_exit_0_with_finite_outputs_or_2_with_one_line(valid):
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mutations(valid[2]))
    def check(mutation):
        _check_commands(valid, mutation)

    check()


@pytest.mark.parametrize("kind", MESH_KINDS + ("any_key",))
def test_mutated_mesh_records_exit_0_with_finite_outputs_or_2_with_one_line(valid_mesh, kind):
    records = valid_mesh[2]

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(mutations(records) if kind == "any_key" else mesh_mutations(records, kind))
    def check(mutation):
        _check_commands(valid_mesh, mutation)

    check()


# The [model] and [training] keys TRAIN_INI leaves at their defaults, and one
# no section accepts: an added entry is one of these or a present key.
ABSENT_KEYS = {"model": ("sine_frequency", "graph_output_activation", "node_output_activation",
                         "cell_type_vocabulary", "use_speed_squared", "no_such_key"),
               "training": ("l1_coefficient", "plateau_patience", "plateau_factor",
                            "plateau_min_delta", "lr_min", "no_such_key")}
SIZE_KEYS = ("latent_size", "depth", "width", "graph_output_size", "node_output_size")
# values that fail or finish at once; 10**12 only for sizes, which it makes
# fail at allocation (a large epochs, steps or batch_size would run long)
INI_VALUES = ("-1", "0", "nan", "inf", "1e400", "x", "")
# dropping epochs would train its default 2000 epochs
UNDROPPABLE = ("epochs",)


def _ini_sections() -> dict:
    parser = configparser.ConfigParser()
    parser.read_string(TRAIN_INI)
    return {name: dict(parser[name]) for name in parser.sections()}


@st.composite
def ini_edits(draw):
    """(what is done, section, key, new value or None to drop the key)."""
    sections = _ini_sections()
    section = draw(st.sampled_from(sorted(sections)))
    kind = draw(st.sampled_from(["replace", "drop", "add"]))
    if kind == "drop":
        key = draw(st.sampled_from([k for k in sections[section] if k not in UNDROPPABLE]))
        return kind, section, key, None
    key = draw(st.sampled_from(sorted(sections[section]) if kind == "replace"
                               else ABSENT_KEYS[section]))
    values = INI_VALUES + (str(10 ** 12),) * (key in SIZE_KEYS)
    return kind, section, key, draw(st.sampled_from(values))


def test_edited_train_ini_exits_0_with_finite_losses_or_2_with_one_line(valid):
    root = valid[0]
    data = root / "data.jsonl"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(ini_edits())
    @example(("replace", "model", "steps", "-1"))
    @example(("replace", "model", "width", str(10 ** 12)))
    @example(("replace", "training", "initial_lr", "nan"))
    @example(("add", "training", "l1_coefficient", "inf"))
    @example(("add", "model", "sine_frequency", "nan"))
    def check(edit):
        kind, section, key, value = edit
        sections = _ini_sections()
        if value is None:
            del sections[section][key]
        else:
            sections[section][key] = value
        with tempfile.TemporaryDirectory(dir=root) as tmp:
            tmp = Path(tmp)
            ini = tmp / "train.ini"
            ini.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                                   for name, kv in sections.items()))
            code, _, err = _run(["train", "--config", ini, "--data", data,
                                 "--out", tmp / "m.ckpt"])
            if _check_outcome(f"train: {edit}", code, err):
                log = [json.loads(line) for line in (tmp / "m.ckpt.log").read_text().splitlines()]
                assert log and all(math.isfinite(rec["loss"]) for rec in log), edit

    check()


def test_a_flipped_bit_or_a_truncation_raises_checkpoint_error(valid):
    root, _, _, ckpt = valid
    raw = ckpt.read_bytes()
    bad = root / "bad.ckpt"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.tuples(st.just("flip"), st.integers(0, 8 * len(raw) - 1)),
                     st.tuples(st.just("cut"), st.integers(0, len(raw) - 1))))
    @example(("flip", 8 * len(raw) - 1))        # the CRC's top bit
    @example(("flip", 8 * 8))                   # the version's lowest bit
    @example(("cut", len(raw) - 1))
    def check(edit):
        kind, at = edit
        damaged = bytearray(raw)
        if kind == "flip":
            damaged[at // 8] ^= 1 << at % 8
        else:
            del damaged[at:]
        bad.write_bytes(bytes(damaged))
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)

    check()
