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


def he_fill(weights, rng) -> None:
    """Fill each (fan_in, fan_out) float64 array of `weights`, in order, with
    N(0, 2/fan_in) draws from the Generator `rng`, in place."""
    for w in weights:
        rng.standard_normal(out=w)
        w *= np.sqrt(2.0 / w.shape[0])


def he_init(config: MlpConfig, seed_or_rng) -> Mlp:
    """Weights ~ N(0, 2/fan_in) (`he_fill`), biases zero; float64, which
    forward_tape and backward keep."""
    sizes = config.layer_sizes()
    weights = [np.empty(size) for size in sizes]
    he_fill(weights, np.random.default_rng(seed_or_rng))   # a Generator is kept as it is
    return Mlp(config=config, weights=weights, biases=[np.zeros(fan_out) for _, fan_out in sizes])


# A call of at least _RANGE_ROWS // 2 = 1,024 rows runs its row-independent
# work (products, bias, sine and cosine chains) in max(2, rows // _RANGE_ROWS)
# contiguous chunks, one job each, which the calling thread and the pool's
# workers take from one queue (`_run`); its backward then hands every
# whole-row reduction to such a queue as one job each. The hidden sine and
# cosine are glibc's scalar routines, so more cores are the one way to make
# float64 trig faster without changing its bits. A training batch of meshes
# (tens of thousands of edge rows, ~2,048 a chunk) gains, and so does a
# single mesh's predict (~600 to ~1,800 edge rows), whose edge MLPs run in two
# halves from 1,024 edges on. A small batch of chains (a few hundred rows a
# call) runs whole. A predict-only process (say, `eval` on meshes) pins
# OpenBLAS to one thread at its first call of 1,024 rows or more
# (`_pin_blas_to_one_thread`).
_RANGE_ROWS = 2048
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
    """The contiguous row chunks a call of `rows` rows runs in: max(2, rows
    // _RANGE_ROWS) of them, of as equal sizes as fit, whatever the CPU
    count, so a call of 1,024 to 4,095 rows runs in two halves and one of
    38,082 rows in 18 chunks. One whole range below _RANGE_ROWS // 2 =
    1,024 rows, on one CPU, or where the BLAS cannot be held to one thread
    (its threads would contend with the chunks'). The first split pins the
    BLAS (`_pin_blas_to_one_thread`)."""
    if rows < _RANGE_ROWS // 2 or _WORKERS < 2 or not _pin_blas_to_one_thread():
        return _WHOLE
    parts = max(2, rows // _RANGE_ROWS)
    bounds = [rows * i // parts for i in range(parts + 1)]
    return tuple(slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))


def _run(jobs, split: bool):
    """Call every job of `jobs`, each with no arguments; returns when all
    have run. Not `split`: in order on the calling thread, with no queue
    and no pool. `split`: the calling thread and up to _WORKERS - 1 pool
    workers (the pool is made here, at the first split) take them in
    order from one queue. Once a job raises, no further job starts, and the
    first exception is raised after every started job has finished."""
    global _pool
    if not split:
        for job in jobs:
            job()
        return
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
    ufuncs make each layer's arrays. A call of at least 1,024 rows
    (`_row_ranges`) makes every layer's arrays first, the linear head's
    output being its z, and runs the body on each row chunk as one job of
    `_run`'s queue, writing the chunk's rows with the bits of the unsplit
    call."""
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
    firsts, lo = [], 0  # per block: array, gather indices, rows of W0, product when gathered
    for a, rows in blocks:
        wb = mlp.weights[0][lo:lo + a.shape[1]]
        lo += a.shape[1]
        firsts.append((a, rows, wb, None if rows is None else a @ wb))
    a, rows = blocks[0]
    n = len(a if rows is None else rows)
    ranges = _row_ranges(n)
    split = len(ranges) > 1
    zs = [np.empty((n, w.shape[1]), w.dtype) for w in mlp.weights] if split else []
    hs = [x] + [z if k == last and act == "linear" else np.empty_like(z)
                for k, z in enumerate(zs)]

    def task(r):        # every layer on rows r; pre-activations times w0 for sine layers
        for k, b in enumerate(mlp.biases):
            zr, hr = (zs[k][r], hs[k + 1][r]) if split else (None, None)
            if k:
                z = np.matmul(h, mlp.weights[k], out=zr)
            else:               # the blocks' products, added up in order
                for i, (a, rows, wb, side) in enumerate(firsts):
                    out = None if i else zr
                    p = (np.matmul(a[r], wb, out=out) if side is None
                         else np.take(side, rows[r], axis=0, out=out))
                    if i:
                        z += p
                    else:
                        z = p
            z += b
            if k < last or act == "sine":
                z *= w0
                h = np.sin(z, out=hr)
            elif act == "relu":
                h = np.maximum(z, 0.0, out=hr)
            else:
                h = z
            if not split:
                zs.append(z)
                hs.append(h)

    if split:
        _run([functools.partial(task, r) for r in ranges], True)
    else:       # directly: through `_run` a chain predict (a dozen small calls) took ~1% longer
        task(ranges[0])
    return hs[-1], (hs, zs)


def _weight_grads(h, gz, gw, gb):
    """gw <- h.T @ gz and gb <- gz summed over rows: a hidden layer's
    reductions, over every row at once."""
    np.matmul(h.T, gz, out=gw)
    gz.sum(axis=0, out=gb)


def _cos_chain(z, g, w0):
    """z <- w0 * cos(z) * g, in place."""
    np.cos(z, out=z)
    z *= w0
    z *= g


def backward(mlp: Mlp, tape, grad_output, input_grad: bool = True,
             out: list | None = None, sums=None):
    """Reverse pass. Returns (grad wrt input, [gW0, gb0, gW1, gb1, ...]),
    written into `out` (one array per parameter) when it is given.

    `grad_output` is an array, or a list of blocks (array, rows) standing
    for the sum of array[rows] (of the array when rows is None), added in
    order row by row, as `forward_tape` forms a gathered input. The input
    gradient has the input's form: an array, or one array per block shaped
    like the block's array; None with `input_grad` False. For a gathered
    block that is the first pre-activation gradient gz0 summed onto its
    array's rows, which the caller knows how to do cheaply: `sums(gz0)`,
    required when a block is gathered, returns one such sum per gathered
    block, in order.

    The tape is single-use: it is emptied and its pre-activations
    overwritten, so a second backward on it raises RuntimeError; the input
    and grad_output (cast to the weights' dtype) are only read. It runs
    through `_run` in three steps. The first runs every row-wise step of
    every layer, top to bottom, over the row ranges of the call
    (`_row_ranges`: one below 1,024 rows, else fixed chunks), one job per
    range: the output gradient's blocks, the output activation's chain, and
    each layer's gz @ W.T with the cosine chain of the layer below. The
    second makes each reduction over rows a whole job of its own: each
    hidden layer's h.T @ gz with its bias sum, each ungathered block's
    x.T @ gz0, the first layer's bias sum, and `sums` with the gathered
    blocks' products over their arrays' rows; the pool takes them when the
    call is split. The last runs each ungathered block's gz0 @ W0_block.T
    over the row ranges, once the layer inputs are let go, so that they and
    the input gradient are never held at once. Every sum over rows keeps
    the order of the unsplit call, and the bits do not depend on the
    split."""
    if tape is None or len(tape[1]) != len(mlp.weights):
        raise RuntimeError("backward needs a forward tape no backward has consumed")
    hs, zs = tape
    as_blocks = isinstance(hs[0], list)
    cfg, dtype = mlp.config, mlp.weights[0].dtype
    w0, act, last = cfg.sine_frequency, cfg.output_activation, len(mlp.weights) - 1
    grads = [np.empty_like(p) for p in mlp.parameters()] if out is None else out
    if isinstance(grad_output, list):
        g_blocks = grad_output
        g = np.empty((len(zs[0]), cfg.output_size), dtype)
    else:
        g_blocks = ()
        g = np.asarray(grad_output, dtype=dtype)
        if g.ndim != 2:
            g = np.atleast_2d(g)
    # each layer's pre-activation gradient, written over its z by the first
    # pass; a linear head's is g, and its z, the output, is never read
    gzs = [*zs[:last], g if act == "linear" else zs[last]]
    gz0 = gzs[0]
    # the reductions, the longest first so that both CPUs finish together;
    # outputs go in by position, which a partial passes on for less
    jobs = []
    for k in range(last, 0, -1):
        jobs.append(functools.partial(_weight_grads, hs[k], gzs[k], grads[2 * k], grads[2 * k + 1]))
    blocks = hs[0] if as_blocks else [(hs[0], None)]
    gxs, row_wbs, gathered, lo = [None] * len(blocks), [], [], 0
    for i, (a, rows) in enumerate(blocks):
        hi = lo + a.shape[1]
        wb, gwb, lo = mlp.weights[0][lo:hi], grads[0][lo:hi], hi
        if rows is not None:
            gathered.append((i, a, wb, gwb))
        else:
            jobs.append(functools.partial(np.matmul, a.T, gz0, gwb))
            if input_grad:
                row_wbs.append((i, wb))
    if gathered and sums is None:
        raise ValueError("a gathered input block needs `sums`")
    jobs.append(functools.partial(gz0.sum, 0, None, grads[1]))   # axis, dtype, out
    hs.clear()          # consumed: the first pass overwrites every z, and
    zs.clear()          # the output is let go, as no gradient reads it

    def task(r):        # the row-wise steps on rows r, from the output gradient down
        gr, gz = g[r], gzs[last][r]
        for i, (a, rows) in enumerate(g_blocks):
            p = a[r] if rows is None else np.take(a, rows[r], axis=0, out=None if i else gr)
            if i:
                gr += p
            elif p is not gr:
                np.copyto(gr, p)
        if act == "sine":
            _cos_chain(gz, gr, w0)
        elif act == "relu":
            np.multiply(gr, gz > 0.0, out=gz)
        for k in range(last, 0, -1):        # layer k's gz @ W.T into the chain below
            z = gzs[k - 1][r]
            _cos_chain(z, gz @ mlp.weights[k].T, w0)
            gz = z

    def onto_rows():    # gz0 summed onto each gathered block's array, then its products there
        for (i, a, wb, gwb), gb in zip(gathered, sums(gz0)):
            np.matmul(a.T, gb, out=gwb)
            if input_grad:
                gxs[i] = gb @ wb.T

    ranges = _row_ranges(len(gz0))
    split = len(ranges) > 1
    _run([functools.partial(task, r) for r in ranges], split)
    _run([onto_rows, *jobs] if gathered else jobs, split)
    del jobs            # the layer inputs go before the input gradients come
    for i, wb in row_wbs:
        wt, gxs[i] = wb.T, np.empty((len(gz0), wb.shape[0]), dtype)
        _run([functools.partial(np.matmul, gz0[r], wt, gxs[i][r]) for r in ranges], split)
    if not input_grad:
        return None, grads
    return (gxs if as_blocks else gxs[0]), grads
