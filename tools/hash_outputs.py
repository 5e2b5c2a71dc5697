"""Print sha256 prefixes of what a source tree computes, to check that a
change leaves its outputs bit-identical.

    python3 tools/hash_outputs.py --root ../parent --seed 21 > parent.json
    python3 tools/hash_outputs.py --root . --seed 21 --expect parent.json

The tree's own `src/` package and `benchmarks/` modules are imported, so
running this once per tree (say, an unpacked `git archive` of the parent
commit and the working tree) gives two JSON lines to compare. With
`--expect FILE`, a JSON line saved from an earlier run, the tool also
compares: it names on stderr each key whose hash differs or that only one
side has, and exits 1 if there is any. It hashes, for each train workload W
of the benchmark:

- `featurize/W`: the featurized train samples (`Featurizer.fit`, then
  `transform_all`, through the benchmark's set-up) and the fitted
  normalizers;
- `train/W/...`: two epochs through the benchmark's set-up and fit loop:
  the losses, the parameter vector, Adam's moments, the resumable
  checkpoint's bytes and the per-graph predictions on the held-out graphs;

and, for each encoding E, `cli/E/...`: `gnnsurrogate gen`, a 2-epoch `train`
and a 1-epoch `train --resume` on a small INI: both checkpoints' bytes and
both logs without `wall_time`.

Six keys hash checkpoint bytes: `train/*/checkpoint`, `cli/*/train` and
`cli/*/resume`. A change of the checkpoint format moves exactly those six
and leaves the other ten (featurize, flat, adam, losses and predictions)
as they were. The `cli` keys hash each log together with its checkpoint,
so such a change hides whether `train --resume` still logs the same
losses; compare those logs by hand.

A tree that splits big MLP calls into row ranges holds OpenBLAS to one
thread from its first split on, so its hashes do not depend on
`OPENBLAS_NUM_THREADS`; an older tree's mesh training hashes do, and match
only when run at `OPENBLAS_NUM_THREADS=1`. An MLP call splits from 1,024
rows on, so the held-out mesh predictions include split calls too: a mesh
of 1,024 edges or more predicts its edge MLPs in row chunks. So the tool
runs itself once more, in a child process at `OPENBLAS_NUM_THREADS=1`
(unless it already runs there), and names on stderr each key whose hash
the child gives otherwise, exiting 1 if there is any; the JSON line
printed is this run's. On one CPU nothing splits and nothing pins the
BLAS, so a run there with `OPENBLAS_NUM_THREADS` above 1 may differ from
its child without a fault. Bits across CPU models are not promised either
way (OpenBLAS picks its kernels per CPU). Standard library only, besides
the tree's own code and numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PREFIX = 16           # hex digits printed per hash
TRAIN_WORKLOADS = ("chain-node-train", "mesh3d-graph-train")
EPOCHS = 2

GEN_INI = """\
[synthetic]
seed = {seed}
count = 10
min_nodes = 12
max_nodes = 20
family = {family}
"""

TRAIN_INI = """\
[model]
encoding = {encoding}
task = {task}
latent_size = 8
steps = 2
depth = 2
width = 8
sine_frequency = 0.5

[training]
epochs = {epochs}
batch_size = 4
seed = 3
"""

# encoding -> (synthetic family, task) of its CLI run
CLI_RUNS = {"airfoil": ("chain", "node_level"),
            "feature_design": ("patch3d", "graph_level")}


def digest(*items) -> str:
    """sha256 prefix over arrays, numbers, strings, None and nested
    lists/tuples of them; an array contributes its dtype, shape and bytes."""
    h = hashlib.sha256()

    def feed(item):
        if isinstance(item, (list, tuple)):
            h.update(f"[{len(item)}".encode())
            for x in item:
                feed(x)
            h.update(b"]")
        elif hasattr(item, "dtype") and hasattr(item, "tobytes"):
            h.update(f"{item.dtype.str}{item.shape}".encode())
            h.update(item.tobytes())
        elif isinstance(item, bytes):
            h.update(item)
        else:
            h.update(repr(item).encode())
    for item in items:
        feed(item)
    return h.hexdigest()[:PREFIX]


def sample_items(sample) -> tuple:
    g = sample.graph
    return (sample.graph_id, g.positions, g.edges, g.node_features, g.edge_features,
            g.node_targets, g.graph_target, sample.node_target_physical,
            sample.graph_target_physical, sample.pressure_mean, sample.freestream)


def normalizer_items(feat) -> tuple:
    norms = (feat.node_norm, feat.edge_norm, feat.target_norm)
    return tuple(None if n is None else (n.shift, n.scale) for n in norms)


def benchmark_hashes(name: str, seed: int, workdir: Path) -> dict:
    import workloads
    from gnnsurrogate import checkpoint, training
    from gnnsurrogate import model as gnn

    work = workloads.workloads()[name]
    workdir.mkdir()
    paths = work.prepare(seed, workdir)
    feat, train_samples, test_samples, mdl, _ = work.set_up(paths)
    out = {f"featurize/{name}": digest([sample_items(s) for s in train_samples],
                                       normalizer_items(feat))}

    cfg = training.TrainConfig(epochs=1, batch_size=work.batch_size,
                               initial_lr=workloads.LEARNING_RATE,
                               seed=workloads.TRAIN_SEED, task=work.task)
    adam = training.AdamState.for_parameters(mdl.parameters())
    sched = cfg.plateau_schedule()
    graphs = [s.graph for s in train_samples]
    losses = [training.fit(mdl, graphs, cfg, adam_state=adam, schedule=sched,
                           start_epoch=epoch).records[-1].mean_loss
              for epoch in range(EPOCHS)]
    checkpoint.save_checkpoint(mdl, feat, paths["ckpt"], checkpoint.TrainResumeState(
        adam=adam, schedule=sched, epoch=EPOCHS))
    out.update({
        f"train/{name}/losses": digest(losses),
        f"train/{name}/flat": digest(mdl.flat),
        f"train/{name}/adam": digest(adam.m, adam.v, adam.t),
        f"train/{name}/checkpoint": digest(paths["ckpt"].read_bytes()),
        f"train/{name}/predictions": digest([gnn.predict(mdl, s.graph) for s in test_samples]),
    })
    return out


def untimed_log(path: Path) -> list:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        rec.pop("wall_time")
    return records


def cli_hashes(encoding: str, seed: int, workdir: Path) -> dict:
    from gnnsurrogate.cli import cli_main

    family, task = CLI_RUNS[encoding]
    workdir.mkdir()
    gen_ini, data = workdir / "gen.ini", workdir / "data.jsonl"
    gen_ini.write_text(GEN_INI.format(seed=seed, family=family))
    runs = {"train": (2, ()), "resume": (1, ("--resume", str(workdir / "train.ckpt")))}
    argv = [["gen", "--config", str(gen_ini), "--out", str(data)]]
    for run, (epochs, extra) in runs.items():
        ini = workdir / f"{run}.ini"
        ini.write_text(TRAIN_INI.format(encoding=encoding, task=task, epochs=epochs))
        argv.append(["train", "--config", str(ini), "--data", str(data),
                     "--out", str(workdir / f"{run}.ckpt"), *extra])
    for args in argv:
        with contextlib.redirect_stdout(sys.stderr):   # stdout holds the one JSON line
            code = cli_main(args)
        if code != 0:
            raise SystemExit(f"gnnsurrogate {' '.join(args)} failed")
    return {f"cli/{encoding}/{run}": digest((workdir / f"{run}.ckpt").read_bytes(),
                                            repr(untimed_log(workdir / f"{run}.ckpt.log")))
            for run in runs}


def differences(got: dict, expected: dict) -> list[str]:
    """One line per key, in sorted order, whose hash differs between `got`
    and `expected` or that only one of them has."""
    lines = []
    for key in sorted(got.keys() | expected.keys()):
        if key not in got:
            lines.append(f"{key}: missing from this run")
        elif key not in expected:
            lines.append(f"{key}: missing from the expected file")
        elif got[key] != expected[key]:
            lines.append(f"{key}: {got[key]}, expected {expected[key]}")
    return lines


def one_thread_differences(hashes: dict, child_line: str) -> list[str]:
    """`differences` between this run's hashes and the JSON line its child
    printed at OPENBLAS_NUM_THREADS=1, each line saying so."""
    return [f"at OPENBLAS_NUM_THREADS=1, {line}"
            for line in differences(json.loads(child_line), hashes)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path,
                        help="source tree holding src/gnnsurrogate and benchmarks/")
    parser.add_argument("--seed", type=int, default=21, help="benchmark data seed")
    parser.add_argument("--expect", type=Path, default=None,
                        help="JSON line of an earlier run to compare against; "
                             "exit 1 naming each differing or missing key")
    args = parser.parse_args(argv)
    expected = None if args.expect is None else json.loads(args.expect.read_text())
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    import gnnsurrogate
    if not Path(gnnsurrogate.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"imported gnnsurrogate from {gnnsurrogate.__file__}, "
                         f"not from {root}")

    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in TRAIN_WORKLOADS:
            hashes.update(benchmark_hashes(name, args.seed, Path(tmp) / name))
        for encoding in CLI_RUNS:
            hashes.update(cli_hashes(encoding, args.seed, Path(tmp) / encoding))
    print(json.dumps(hashes, sort_keys=True))
    lines = [] if expected is None else differences(hashes, expected)
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        child = subprocess.run(
            [sys.executable, __file__, "--root", str(root), "--seed", str(args.seed)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, capture_output=True, text=True)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise SystemExit("the OPENBLAS_NUM_THREADS=1 run failed")
        lines += one_thread_differences(hashes, child.stdout.splitlines()[-1])
    for line in lines:
        print(line, file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
