"""Count the page faults of each training epoch of a benchmark workload.

    python3 tools/epoch_faults.py --root . --workload mesh3d-graph-train --seed 21

Runs in one process against the package and benchmark workloads of the
source tree `--root`: it generates the workload's inputs for `--seed`, sets
them up once, then trains `EPOCHS` (4) epochs, one `training.fit` call each,
as a benchmark pass does. For each epoch it reads the process's minor and
major fault counts (`getrusage` `ru_minflt`/`ru_majflt`) before and after.
The last line of output is one JSON object: faults and wall seconds per
epoch, the median over the epochs after the first (the first also faults in
the memory it is the first to touch), each epoch's loss and peak RSS. Run it
on two trees to compare them; the losses let you check that they trained
alike. Standard library plus the tree's own package only.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

EPOCHS = 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="source tree holding src/ and benchmarks/")
    parser.add_argument("--workload", required=True,
                        choices=("chain-node-train", "mesh3d-graph-train"))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    import gnnsurrogate
    if not Path(gnnsurrogate.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"imported gnnsurrogate from {gnnsurrogate.__file__}, "
                         f"not from {root}")
    import workloads
    from gnnsurrogate import training

    wl = workloads.workloads()[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        _, train_samples, _, mdl, _ = wl.set_up(wl.prepare(args.seed, Path(tmp)))
    graphs = [s.graph for s in train_samples]
    cfg = training.TrainConfig(epochs=1, batch_size=wl.batch_size,
                               initial_lr=workloads.LEARNING_RATE,
                               seed=workloads.TRAIN_SEED, task=wl.task)
    adam = training.AdamState.for_parameters(mdl.parameters())
    schedule = cfg.plateau_schedule()
    minor, major, seconds, losses = [], [], [], []
    for epoch in range(EPOCHS):
        before = resource.getrusage(resource.RUSAGE_SELF)
        t = time.perf_counter()
        log = training.fit(mdl, graphs, cfg, adam_state=adam, schedule=schedule,
                           start_epoch=epoch)
        seconds.append(time.perf_counter() - t)
        after = resource.getrusage(resource.RUSAGE_SELF)
        minor.append(after.ru_minflt - before.ru_minflt)
        major.append(after.ru_majflt - before.ru_majflt)
        losses.append(log.records[-1].mean_loss)
    steady = minor[1:] or minor
    result = {"workload": args.workload, "seed": args.seed, "epochs": EPOCHS,
              "minor_faults": minor, "major_faults": major,
              "minor_faults_per_epoch_median": statistics.median(steady),
              "epoch_s": [round(s, 4) for s in seconds], "losses": losses,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
