"""`tools/hash_outputs.py --expect`: the comparison of a run's hashes
against a saved JSON line, without running anything it hashes."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "hash_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("hash_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equal_hashes_give_no_lines(tool):
    run = {"train/a/flat": "0fbf", "cli/b/train": "28b1"}
    assert tool.differences(run, dict(run)) == []


def test_each_differing_or_missing_key_is_named_once(tool):
    got = {"a": "1111", "b": "2222", "only/run": "3333"}
    expected = {"a": "1111", "b": "2aaa", "only/expected": "4444"}
    assert tool.differences(got, expected) == [
        "b: 2222, expected 2aaa",
        "only/expected: missing from this run",
        "only/run: missing from the expected file",
    ]


def test_the_one_thread_child_is_compared_with_this_run(tool):
    """The JSON line of the child run at OPENBLAS_NUM_THREADS=1 against this
    run's hashes: equal lines give nothing, and each key that differs or that
    one side lacks is named once, saying which run it is."""
    run = {"train/a/flat": "0fbf", "cli/b/train": "28b1", "only/parent": "5555"}
    assert tool.one_thread_differences(run, json.dumps(run)) == []
    child = {"train/a/flat": "0fbf", "cli/b/train": "9999", "only/child": "6666"}
    assert tool.one_thread_differences(run, json.dumps(child) + "\n") == [
        "at OPENBLAS_NUM_THREADS=1, cli/b/train: 9999, expected 28b1",
        "at OPENBLAS_NUM_THREADS=1, only/child: missing from the expected file",
        "at OPENBLAS_NUM_THREADS=1, only/parent: missing from this run",
    ]
