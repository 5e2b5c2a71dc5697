"""Dense MLPs with sine hidden activation, He init, manual backprop."""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import threading
from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np

OUTPUT_ACTIVATIONS = ("linear", "relu", "sine")


@dataclass(frozen=True)
class MlpConfig:
    input_size: int
    depth: int                      # number of hidden layers
    width: int
    output_size: int
    output_activation: str = "linear"
    sine_frequency: float = 1.0

    def __post_init__(self):
        if self.depth < 1 or self.width < 1 or self.input_size < 1 or self.output_size < 1:
            raise ValueError(f"invalid MLP sizes: {self}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")

    def layer_sizes(self) -> list[tuple[int, int]]:
        dims = [self.input_size] + [self.width] * self.depth + [self.output_size]
        return list(zip(dims[:-1], dims[1:]))


@dataclass
class Mlp:
    config: MlpConfig
    weights: list[np.ndarray]   # each (fan_in, fan_out)
    biases: list[np.ndarray]    # each (fan_out,)

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def he_init(config: MlpConfig, seed_or_rng) -> Mlp:
    """Weights ~ N(0, 2/fan_in), biases zero; float64, which forward_tape and backward keep."""
    rng = np.random.default_rng(seed_or_rng)   # returns a Generator unaltered
    weights, biases = [], []
    for fan_in, fan_out in config.layer_sizes():
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(config=config, weights=weights, biases=biases)


# A call with at least 2 * _MIN_RANGE_ROWS rows runs its row-independent
# work (products, bias, sine chain) in contiguous chunks of at least
# _MIN_RANGE_ROWS rows, which the calling thread and the pool's workers take
# from one queue (`_in_ranges`). The hidden sine and cosine are glibc's
# scalar routines, so more cores are the one way to make float64 trig faster
# without changing its bits. A training batch of meshes (tens of thousands
# of edge rows) gains; a single mesh's predict (up to ~1,900 edge rows) did
# not, and its slowest calls got slower, so such calls run whole.
_MIN_RANGE_ROWS = 2048
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# OpenBLAS's thread-count setters, by build: plain and scipy-openblas,
# 32- and 64-bit integer interfaces
_SET_BLAS_THREADS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")
_pool = None        # the range workers, made on the first split
_pool_lock = threading.Lock()


def _forget_pool():
    """A forked child has none of its parent's threads: a pool inherited
    across fork would queue work that never runs, so the child makes its own
    (and its own lock, which a parent thread may have held at the fork)."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@functools.cache
def _pin_blas_to_one_thread() -> bool:
    """Set every OpenBLAS mapped into the process to one thread, once; True
    if one was. Found through /proc/self/maps, so False where there is none
    (another BLAS, or no /proc).

    The first split (`_row_ranges`) calls this. The setting covers the whole
    process and lasts: all of the process's later BLAS work, numpy's and
    scipy's included, runs on one thread, and nothing undoes it. Row ranges
    then never compete with BLAS threads for the CPUs, and every product, a
    long reduction such as a weight gradient over all edge rows included,
    sums in one fixed order whatever OPENBLAS_NUM_THREADS says. The result
    is cached because the setting is the process's own."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {fields[5] for fields in map(str.split, fh)
                     if len(fields) == 6 and "openblas" in fields[5]}
    except OSError:
        return False
    pinned = False
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, name) for name in _SET_BLAS_THREADS
                       if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(1)
            pinned = True
    return pinned


_WHOLE = (slice(None),)


def _row_ranges(rows: int) -> tuple[slice, ...]:
    """The contiguous row chunks a call of `rows` rows runs in: as many as
    fit with at least _MIN_RANGE_ROWS rows each, whatever the CPU count. One
    whole range below 2 * _MIN_RANGE_ROWS rows, on one CPU, or where the BLAS
    cannot be held to one thread (its threads would contend with the
    chunks'). The first split pins the BLAS (`_pin_blas_to_one_thread`)."""
    if rows < 2 * _MIN_RANGE_ROWS or _WORKERS < 2 or not _pin_blas_to_one_thread():
        return _WHOLE
    parts = rows // _MIN_RANGE_ROWS
    bounds = [rows * i // parts for i in range(parts + 1)]
    return tuple(slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))


def _in_ranges(task, ranges: tuple[slice, ...], *arrays, beside=()):
    """Every `beside` task, called with no arguments, and task(*(a[r] for a
    in arrays)) for every range r; returns when all have run. The jobs, the
    `beside` ones first, form one queue that the calling thread and up to
    _WORKERS - 1 pool workers (the pool is made here, at the first split)
    take in order. Once a job raises, no further job starts, and the first
    exception is raised after every started job has finished. One range
    runs the `beside` tasks and then task(*arrays) on the calling thread,
    with no queue and no pool: an unsplit `backward` runs every layer
    through here at the cost of a call."""
    global _pool
    if len(ranges) == 1:
        for job in beside:
            job()
        return task(*arrays)
    jobs = [*beside, *(functools.partial(task, *(a[r] for a in arrays)) for r in ranges)]
    taken, failed = itertools.count(), []     # next() on a count is atomic

    def run():
        for i in taken:
            if i >= len(jobs) or failed:
                return
            try:
                jobs[i]()
            except BaseException as exc:
                failed.append(exc)
                return

    with _pool_lock:
        if _pool is None:
            # imported here, so that a process that never splits (a chain
            # run) does not load the executor's modules (~0.2 MB)
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1),
                                       thread_name_prefix="mlp-rows")
        futures = [_pool.submit(run) for _ in range(min(_WORKERS, len(jobs)) - 1)]
    run()
    wait(futures)           # run() keeps every exception in `failed`, none in a future
    if failed:
        raise failed[0]


def forward_tape(mlp: Mlp, x):
    """Row-batched forward pass; returns (output, tape for one backward).

    `x` is an array of rows, or a list of blocks (array, rows) standing for
    the column concatenation of array[rows] (of the array when rows is
    None), never formed: each block meets its rows of W0 before any gather,
    so a gathered block's product runs once over its array (the nodes, for
    a node-side block of an edge MLP) and is then taken by its rows. The
    tape is (hs, zs): hs[k] is layer k's input (`x` for k = 0) and zs[k] its
    pre-activation, held as w0*z for sine layers so that backward takes the
    cosine of it directly. Every array takes the weights' dtype: an array
    `x` is cast to it, and blocks (the graph model's latents) are in it.

    One layer body runs every call. An unsplit call runs it once, and its
    ufuncs make each layer's arrays. A call of at least 2 * 2048 rows
    (`_row_ranges`) makes every layer's arrays first, the linear head's
    output being its z, and runs the body on each row chunk as one job of
    `_in_ranges`'s queue, writing the chunk's rows with the bits of the
    unsplit call."""
    cfg = mlp.config
    if isinstance(x, list):
        blocks = x
    else:
        x = np.atleast_2d(np.asarray(x, dtype=mlp.weights[0].dtype))
        blocks = [(x, None)]
    width = sum([a.shape[1] for a, _ in blocks])
    if width != cfg.input_size:
        raise ValueError(f"input width {width}, expected {cfg.input_size}")
    w0, last, act = cfg.sine_frequency, len(mlp.weights) - 1, cfg.output_activation
    firsts, parts, lo = [], [], 0   # per block: its rows of W0 and its product when gathered
    for a, rows in blocks:
        wb = mlp.weights[0][lo:lo + a.shape[1]]
        lo += a.shape[1]
        firsts.append((wb, None if rows is None else a @ wb))
        parts.append(a if rows is None else rows)
    unsplit = (None,) * (2 * last + 2)

    def task(*arrays):    # per block its rows (or gather indices), then each layer's z and output
        outs = arrays[len(parts):] or unsplit
        hs, zs = [x], []    # layer inputs; pre-activations (times w0 for sine layers)
        for k, b in enumerate(mlp.biases):
            if k:
                z = np.matmul(h, mlp.weights[k], out=outs[2 * k])
            else:               # the blocks' products, added up in order
                z = None
                for part, (wb, side) in zip(arrays, firsts):
                    out = outs[0] if z is None else None
                    p = (np.matmul(part, wb, out=out) if side is None
                         else np.take(side, part, axis=0, out=out))
                    if z is None:
                        z = p
                    else:
                        z += p
            z += b
            if k < last or act == "sine":
                z *= w0
                h = np.sin(z, out=outs[2 * k + 1])
            elif act == "relu":
                h = np.maximum(z, 0.0, out=outs[2 * k + 1])
            else:
                h = z
            zs.append(z)
            hs.append(h)
        return h, (hs, zs)

    ranges = _row_ranges(len(parts[0]))
    if len(ranges) == 1:
        return task(*parts)
    zs = [np.empty((ranges[-1].stop, w.shape[1]), w.dtype) for w in mlp.weights]
    hs = [x] + [z if k == last and act == "linear" else np.empty_like(z)
                for k, z in enumerate(zs)]
    _in_ranges(task, ranges, *parts, *(a for z, h in zip(zs, hs[1:]) for a in (z, h)))
    return hs[-1], (hs, zs)


def _cos_chain(z, g, w0):
    """z <- w0 * cos(z) * g, in place."""
    np.cos(z, out=z)
    z *= w0
    z *= g


def backward(mlp: Mlp, tape, grad_output: np.ndarray, input_grad: bool = True,
             out: list | None = None, sums=None):
    """Reverse pass. Returns (grad wrt input, [gW0, gb0, gW1, gb1, ...]),
    written into `out` (one array per parameter) when it is given.

    The input gradient has the input's form: an array, or one array per
    block shaped like the block's array; None with `input_grad` False. For a
    gathered block that is the first pre-activation gradient gz0 summed onto
    its array's rows, which the caller knows how to do cheaply: `sums(gz0)`,
    required when a block is gathered, returns one such sum per gathered
    block, in order.

    The tape is single-use: its layers are popped and overwritten, so a
    second backward on it raises RuntimeError; the input and grad_output
    (cast to the weights' dtype) are only read. Every layer runs through
    `_in_ranges`: its weight-gradient product and bias sum run whole, as the
    `beside` job, and its input-gradient product and the cosine chain of the
    layer below run over the row ranges of the call (`_row_ranges`: one
    below 2 * 2048 rows, else chunks beside that job), so every sum over
    rows keeps the order of the unsplit call. The first layer does so block
    by block, each block's ranges those of its own gradient's rows, and
    with `input_grad` False runs only the weight-gradient job."""
    if tape is None or len(tape[1]) != len(mlp.weights):
        raise RuntimeError("backward needs a forward tape no backward has consumed")
    hs, zs = tape
    blocks = hs[0] if isinstance(hs[0], list) else [(hs[0], None)]
    if sums is None and any(rows is not None for _, rows in blocks):
        raise ValueError("a gathered input block needs `sums`")
    cfg = mlp.config
    w0 = cfg.sine_frequency
    g = np.atleast_2d(np.asarray(grad_output, dtype=mlp.weights[0].dtype))
    param_grads = ([np.empty_like(mlp.weights[0])] + [None] * (2 * len(mlp.weights) - 1)
                   if out is None else out)
    hs.pop()                                # the output
    ranges = _row_ranges(len(g))

    def weight_grads(k, h, gz):             # layer k's, over every row at once
        param_grads[2 * k + 1] = gz.sum(axis=0, out=param_grads[2 * k + 1])
        param_grads[2 * k] = np.matmul(h.T, gz, out=param_grads[2 * k])

    z = zs.pop()
    if cfg.output_activation == "sine":
        _in_ranges(functools.partial(_cos_chain, w0=w0), ranges, z, g)
        gz = z
    elif cfg.output_activation == "relu":
        gz = g * (z > 0.0)
    else:
        gz = g
    for k in range(len(mlp.weights) - 1, 0, -1):
        h, wt, z = hs.pop(), mlp.weights[k].T, zs.pop()
        _in_ranges(lambda gz, z: _cos_chain(z, gz @ wt, w0), ranges, gz, z,
                   beside=(lambda: weight_grads(k, h, gz),))
        gz = z
    x = hs.pop()
    block_sums = iter(() if sums is None else sums(gz))
    param_grads[1] = gz.sum(axis=0, out=param_grads[1])
    gxs, lo = [], 0
    for a, rows in blocks:
        hi = lo + a.shape[1]
        wb, gwb = mlp.weights[0][lo:hi], param_grads[0][lo:hi]
        lo = hi
        gb = gz if rows is None else next(block_sums)   # gz summed onto a's rows
        gx = np.empty((len(gb), wb.shape[0]), gb.dtype) if input_grad else None
        _in_ranges(lambda gb, gx: gx is None or np.matmul(gb, wb.T, out=gx),
                   _row_ranges(len(gb)) if input_grad else _WHOLE, gb, gx,
                   beside=(lambda: np.matmul(a.T, gb, out=gwb),))
        gxs.append(gx)
    return ((gxs if isinstance(x, list) else gxs[0]) if input_grad else None), param_grads
