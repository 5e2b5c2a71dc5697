"""Dense MLPs with sine hidden activation, He init, manual backprop."""

from __future__ import annotations

import ctypes
import functools
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
# work (products, bias, sine chain) as contiguous row ranges, one per usable
# CPU, at most one per _MIN_RANGE_ROWS rows. The hidden sine and cosine are
# glibc's scalar routines, so more cores are the one way to make float64
# trig faster without changing its bits. A training batch of meshes (tens of
# thousands of edge rows) gains; a single mesh's predict (up to ~1,900 edge
# rows) did not, and its slowest calls got slower, so such calls run whole.
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

    The setting covers the whole process and lasts: row ranges then never
    compete with BLAS threads for the CPUs, and every product, a long
    reduction such as a weight gradient over all edge rows included, sums in
    one fixed order whatever OPENBLAS_NUM_THREADS says. The result is cached
    because the setting is the process's own."""
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
    """The contiguous row ranges a call of `rows` rows runs in; one whole
    range below the size threshold, on one CPU, or where the BLAS cannot be
    held to one thread (its threads would contend with the ranges'). The
    first split pins the BLAS (`_pin_blas_to_one_thread`)."""
    if rows < 2 * _MIN_RANGE_ROWS or _WORKERS < 2 or not _pin_blas_to_one_thread():
        return _WHOLE
    parts = min(_WORKERS, rows // _MIN_RANGE_ROWS)
    bounds = [rows * i // parts for i in range(parts + 1)]
    return tuple(slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))


def _in_ranges(task, ranges: tuple[slice, ...], *arrays):
    """task(*(a[r] for a in arrays)) for every range r, the first on the
    calling thread and the others on the pool (made here, at the first
    split); returns when all have run. One range runs task(*arrays)."""
    global _pool
    if len(ranges) == 1:
        return task(*arrays)
    with _pool_lock:
        if _pool is None:
            # imported here, so that a process that never splits (a chain
            # run) does not load the executor's modules (~0.2 MB)
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1),
                                       thread_name_prefix="mlp-rows")
    futures = [_pool.submit(task, *(a[r] for a in arrays)) for r in ranges[1:]]
    try:
        task(*(a[ranges[0]] for a in arrays))
    finally:
        wait(futures)
    for f in futures:
        f.result()


def forward_tape(mlp: Mlp, x: np.ndarray, z0: np.ndarray | None = None):
    """Row-batched forward pass; returns (output, tape for one backward).

    The tape is (hs, zs): hs[k] is layer k's input and zs[k] its
    pre-activation, held as w0*z for sine layers so that backward takes the
    cosine of it directly. A caller that forms the first layer's product
    x @ W0 itself (the graph model does so block by block) passes it as `z0`,
    which this function adds the bias to in place; `x` is then not used and
    hs[0] is None. Every array takes the weights' dtype; `x` is cast to it.
    A call of at least 2 * 2048 rows runs in row ranges (`_row_ranges`),
    each through every layer, with the bits of the whole call.
    """
    cfg = mlp.config
    if z0 is None:
        x = np.atleast_2d(np.asarray(x, dtype=mlp.weights[0].dtype))
        if x.shape[1] != cfg.input_size:
            raise ValueError(f"input width {x.shape[1]}, expected {cfg.input_size}")
    else:
        x = None
        if z0.shape[1] != mlp.weights[0].shape[1]:
            raise ValueError(f"first pre-activation width {z0.shape[1]}, "
                             f"expected {mlp.weights[0].shape[1]}")
    ranges = _row_ranges(len(x if z0 is None else z0))
    if len(ranges) > 1:
        return _forward_in_ranges(mlp, x, z0, ranges)
    z = x @ mlp.weights[0] if z0 is None else z0
    w0 = cfg.sine_frequency
    hs, zs = [x], []    # layer inputs; pre-activations (times w0 for sine layers)
    last = len(mlp.weights) - 1
    for k, b in enumerate(mlp.biases):
        if k > 0:
            z = h @ mlp.weights[k]
        z += b
        if k < last or cfg.output_activation == "sine":
            z *= w0
            h = np.sin(z)
        elif cfg.output_activation == "relu":
            h = np.maximum(z, 0.0)
        else:
            h = z
        zs.append(z)
        hs.append(h)
    return h, (hs, zs)


def _forward_in_ranges(mlp: Mlp, x, z0, ranges):
    """`forward_tape` with every layer's arrays made whole first and each
    row range run through all layers by one task."""
    cfg = mlp.config
    w0, last = cfg.sine_frequency, len(mlp.weights) - 1
    rows = len(x if z0 is None else z0)
    sine = [k < last or cfg.output_activation == "sine" for k in range(last + 1)]
    zs = [z0 if k == 0 and z0 is not None else np.empty((rows, w.shape[1]), w.dtype)
          for k, w in enumerate(mlp.weights)]
    hs = [x] + [np.empty_like(z) if sine[k] or cfg.output_activation == "relu" else z
                for k, z in enumerate(zs)]

    def task(h, *layers):      # rows of x (or of z0), then each layer's z and output
        for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            z, out = layers[2 * k], layers[2 * k + 1]
            if k or z0 is None:
                np.matmul(h, w, out=z)
            z += b
            if sine[k]:
                z *= w0
                np.sin(z, out=out)
            elif cfg.output_activation == "relu":
                np.maximum(z, 0.0, out=out)
            h = out

    layers = [a for z, out in zip(zs, hs[1:]) for a in (z, out)]
    _in_ranges(task, ranges, x if z0 is None else z0, *layers)
    return hs[-1], (hs, zs)


def backward(mlp: Mlp, tape, grad_output: np.ndarray, input_grad: bool = True,
             out: list | None = None):
    """Reverse pass. Returns (grad wrt input, [gW0, gb0, gW1, gb1, ...]),
    written into `out` (one array per parameter) when it is given.

    The tape is single-use: its layers are popped and overwritten, so a
    second backward on it raises RuntimeError; x and grad_output (cast to
    the weights' dtype) are only read. With `input_grad` False the input
    gradient is None. For a tape recorded from `z0`, the first element is the
    gradient wrt the first pre-activation and gW0 is left to the caller.
    A call of at least 2 * 2048 rows runs its cosine chains and input-gradient
    products in row ranges (`_row_ranges`); the weight-gradient products and
    bias sums run whole."""
    if tape is None or len(tape[1]) != len(mlp.weights):
        raise RuntimeError("backward needs a forward tape no backward has consumed")
    hs, zs = tape
    cfg = mlp.config
    w0 = cfg.sine_frequency
    g = np.atleast_2d(np.asarray(grad_output, dtype=mlp.weights[0].dtype))
    last = len(mlp.weights) - 1
    param_grads = [None] * (2 * len(mlp.weights)) if out is None else out
    hs.pop()                                # the output
    ranges = _row_ranges(len(g))

    z = zs.pop()
    if cfg.output_activation == "sine":
        def task(z, g):                     # z <- w0 * cos(z) * g, in place
            np.cos(z, out=z)
            z *= w0
            z *= g

        _in_ranges(task, ranges, z, g)
        gz = z
    elif cfg.output_activation == "relu":
        gz = g * (z > 0.0)
    else:
        gz = g
    for k in range(last, -1, -1):
        h, wt = hs.pop(), mlp.weights[k].T
        param_grads[2 * k + 1] = gz.sum(axis=0, out=param_grads[2 * k + 1])
        if h is None:
            return gz, param_grads
        param_grads[2 * k] = np.matmul(h.T, gz, out=param_grads[2 * k])
        if k == 0:
            break
        z = zs.pop()

        def task(gz, h, z):                 # hs[k] is dead once gW is formed
            g = np.matmul(gz, wt, out=h)
            np.cos(z, out=z)
            z *= w0
            z *= g

        _in_ranges(task, ranges, gz, h, z)
        gz = z
    if not input_grad:
        return None, param_grads
    gx = np.empty((len(gz), wt.shape[1]), gz.dtype)     # wrt the caller's x
    _in_ranges(lambda gz, gx: np.matmul(gz, wt, out=gx), ranges, gz, gx)
    return gx, param_grads
