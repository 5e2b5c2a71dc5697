"""Time one MLP call, its forward and its forward plus backward, in wall and
CPU milliseconds.

    python3 tools/mlp_call.py --rows 38082 --workers 2
    python3 tools/mlp_call.py --root ../parent --input 96 --depth 3 --width 32 \\
        --output 32 --rows 320 --workers 1

The MLP is a He-initialised `mlp.Mlp` of the given sizes; the defaults are a
role's at the benchmark's sizes, the processor-edge MLP's (96 inputs, depth
3, width 32, 32 linear outputs). Its input, one array, and its output
gradient are normal draws of `--rows` rows, and `backward` writes its
parameter gradients into arrays made once, as the graph model's
`backward` has it write into views of one vector. `--workers` sets
`mlp._WORKERS`, the CPU count the row split assumes, so 1 runs every call
whole; a split call holds OpenBLAS to one thread for the rest of the
process. The process first takes `training.fit`'s heap policy, as a
training process does: at glibc's default trim threshold, the memory a
backward frees at its end goes back to the kernel and the next call faults
it in again (+15% on a 320-row call). After `--warmup` untimed rounds, each of `--repeats` rounds times
one `forward_tape` and then one `forward_tape` followed by `backward`. The
tool prints one JSON line with the median wall and CPU milliseconds of each
(CPU from `resource.getrusage`, summed over every thread of the process) and
the number of row chunks the call runs in.

The figures are not scaled by the benchmark's reference work, whose `ref`
unit moves with process state (the pool, the BLAS pin), so they suit the
sizing of a row-split change. They need an otherwise idle machine, and a
comparison of two trees should alternate runs of each. `--root` imports the
`gnnsurrogate` package of another source tree. Standard library only,
besides the tree's own code and numpy.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def time_call(nn, input_size: int, depth: int, width: int, output_size: int, rows: int,
              workers: int, repeats: int = 20, warmup: int = 3, seed: int = 0) -> dict:
    """Median wall and CPU ms of `nn.forward_tape` and of forward plus
    `nn.backward` on one MLP call, `nn` being a tree's `gnnsurrogate.mlp`,
    with `nn._WORKERS` set to `workers` for the calls and restored after."""
    rng = np.random.default_rng(seed)
    mlp = nn.he_init(nn.MlpConfig(input_size=input_size, depth=depth, width=width,
                                  output_size=output_size), rng)
    x, g = rng.normal(size=(rows, input_size)), rng.normal(size=(rows, output_size))
    grads = [np.empty_like(p) for p in mlp.parameters()]
    saved = nn._WORKERS
    nn._WORKERS = workers
    try:
        chunks = len(nn._row_ranges(rows))
        times = {"forward": ([], []), "step": ([], [])}
        for i in range(warmup + repeats):
            for name in times:
                wall, cpu = time.perf_counter(), _cpu_s()
                _, tape = nn.forward_tape(mlp, x)
                if name == "step":
                    nn.backward(mlp, tape, g, out=grads)
                wall, cpu = time.perf_counter() - wall, _cpu_s() - cpu
                if i >= warmup:
                    times[name][0].append(wall)
                    times[name][1].append(cpu)
    finally:
        nn._WORKERS = saved
    out = {"rows": rows, "workers": workers, "chunks": chunks, "repeats": repeats}
    for name, (wall, cpu) in times.items():
        out[f"{name}_wall_ms"] = 1e3 * statistics.median(wall)
        out[f"{name}_cpu_ms"] = 1e3 * statistics.median(cpu)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="source tree whose src/gnnsurrogate is timed")
    parser.add_argument("--input", type=int, default=96)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--width", type=int, default=32)
    parser.add_argument("--output", type=int, default=32)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--warmup", type=int, default=3)
    args = parser.parse_args(argv)
    if min(args.input, args.depth, args.width, args.output, args.rows, args.workers,
           args.repeats) < 1 or args.warmup < 0:
        parser.error("sizes, --rows, --workers and --repeats must be at least 1, "
                     "--warmup at least 0")
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from gnnsurrogate import mlp as nn
    from gnnsurrogate import training

    training._keep_step_memory_in_heap()

    print(json.dumps(time_call(nn, args.input, args.depth, args.width, args.output,
                               args.rows, args.workers, args.repeats, args.warmup)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
