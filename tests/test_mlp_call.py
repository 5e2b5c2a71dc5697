"""`tools/mlp_call.py`: the timing of one MLP call, run at tiny sizes."""

import importlib.util
from pathlib import Path

import pytest

from gnnsurrogate import mlp as nn

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mlp_call.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("mlp_call", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_whole_call_is_timed_and_the_worker_count_restored(tool):
    workers = nn._WORKERS
    out = tool.time_call(nn, input_size=3, depth=2, width=4, output_size=2, rows=8,
                         workers=1, repeats=3, warmup=1)
    assert nn._WORKERS == workers
    assert {k: out[k] for k in ("rows", "workers", "chunks", "repeats")} == {
        "rows": 8, "workers": 1, "chunks": 1, "repeats": 3}
    for name in ("forward", "step"):
        assert out[f"{name}_wall_ms"] > 0.0 and out[f"{name}_cpu_ms"] >= 0.0


def test_bad_sizes_exit_2(tool, capsys):
    with pytest.raises(SystemExit) as exc:
        tool.main(["--rows", "0"])
    assert exc.value.code == 2
    assert "--rows" in capsys.readouterr().err
