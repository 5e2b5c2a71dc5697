"""MAE + L1 loss, ADAM, plateau LR halving, and the training loop."""

from __future__ import annotations

import ctypes
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, merge_batch
from . import model as gnn


TASKS = ("node_level", "graph_level")


class TrainingDivergedError(RuntimeError):
    pass


def mae_loss(predictions: np.ndarray, targets: np.ndarray):
    """Mean |error| over every supervised entry; returns (value, d/dpred)."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ValueError(f"prediction shape {predictions.shape} != target {targets.shape}")
    diff = predictions - targets
    value = np.abs(diff).mean()
    grad = np.sign(diff) / diff.size
    return value, grad


def l1_penalty(theta: np.ndarray, coefficient: float, offsets):
    """lambda * sum |theta| over a flat parameter vector; returns (value,
    gradient vector).

    Block i is theta[offsets[i]:offsets[i + 1]]. The value adds the blocks'
    sums in order, which has the bits of summing each parameter array on its
    own: one sum over the whole vector would round differently.
    """
    a = np.abs(theta)
    value = coefficient * sum(a[lo:hi].sum() for lo, hi in zip(offsets[:-1], offsets[1:]))
    grad = np.sign(theta)
    grad *= coefficient
    return value, grad


def loss(predictions, targets, parameters, l1_coefficient: float):
    """MAE + L1 for a list of parameter arrays (model.parameters())."""
    data, _ = mae_loss(predictions, targets)
    theta = np.concatenate([np.ravel(p) for p in parameters]) if parameters else np.zeros(0)
    offsets = np.cumsum([0] + [np.size(p) for p in parameters])
    reg, _ = l1_penalty(theta, l1_coefficient, offsets)
    return data + reg


@dataclass
class AdamState:
    m: np.ndarray = None      # first moment, laid out like the parameter vector
    v: np.ndarray = None      # second moment
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_parameters(cls, parameters, **kwargs) -> "AdamState":
        """Zero moments for a list of parameter arrays, as flat vectors of
        their total size."""
        size = sum(np.size(p) for p in parameters)
        return cls(m=np.zeros(size), v=np.zeros(size), t=0, **kwargs)


def adam_step(theta: np.ndarray, gradient: np.ndarray, state: AdamState, lr: float):
    """Standard bias-corrected ADAM update of a flat parameter vector, in
    place; returns (theta, state).

    The update is theta -= lr * (m / c1) / (sqrt(v / c2) + eps), evaluated
    in that order in two scratch vectors rather than one temporary per
    operation.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    m, v = state.m, state.v
    m *= b1
    step = gradient * (1.0 - b1)
    m += step
    v *= b2
    np.square(gradient, out=step)
    step *= 1.0 - b2
    v += step
    denom = v / c2
    np.sqrt(denom, out=denom)
    denom += state.eps
    np.divide(m, c1, out=step)
    step *= lr
    step /= denom
    theta -= step
    return theta, state


@dataclass
class PlateauSchedule:
    """Halve the LR when the loss stops improving for `patience` epochs."""

    lr: float
    factor: float = 0.5
    patience: int = 50
    min_delta: float = 1e-5      # relative improvement threshold
    lr_min: float = 0.0
    best: float = np.inf
    bad_epochs: int = 0

    def update(self, epoch_loss: float) -> float:
        if epoch_loss < self.best * (1.0 - self.min_delta):
            self.best = epoch_loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.lr = max(self.lr * self.factor, self.lr_min)
                self.bad_epochs = 0
        return self.lr


@dataclass
class TrainConfig:
    epochs: int = 2000
    batch_size: int = 16
    initial_lr: float = 5e-4
    l1_coefficient: float = 1e-5
    plateau_patience: int = 50
    plateau_factor: float = 0.5
    plateau_min_delta: float = 1e-5
    lr_min: float | None = None       # default initial_lr / 64
    seed: int = 0
    task: str = "node_level"          # or "graph_level"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.initial_lr <= 0 or not (0.0 < self.plateau_factor < 1.0):
            raise ValueError("bad learning-rate configuration")
        if self.l1_coefficient < 0:
            raise ValueError("l1_coefficient must be >= 0")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.lr_min is not None and not (0.0 <= self.lr_min <= self.initial_lr):
            raise ValueError(f"lr_min {self.lr_min} outside [0, initial_lr]")

    def plateau_schedule(self) -> PlateauSchedule:
        """The learning-rate schedule a fresh training run starts from."""
        lr_min = self.lr_min if self.lr_min is not None else self.initial_lr / 64
        return PlateauSchedule(lr=self.initial_lr, factor=self.plateau_factor,
                               patience=self.plateau_patience,
                               min_delta=self.plateau_min_delta, lr_min=lr_min)


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    lr: float
    wall_time: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def losses(self):
        return [r.mean_loss for r in self.records]


def _batch_loss_and_gradient(mdl, batch, task, lam):
    """(loss, gradient laid out like mdl.flat, supervised entry count)."""
    y_node, y_graph, tape = gnn.forward(mdl, batch)
    if task == "node_level":
        targets = batch.graph.node_targets
        value, gpred = mae_loss(y_node, targets)
        grad = gnn.backward(mdl, tape, grad_node_out=gpred)
    else:
        targets = batch.graph_targets
        value, gpred = mae_loss(y_graph, targets)
        grad = gnn.backward(mdl, tape, grad_graph_out=gpred)
    reg, reg_grad = l1_penalty(mdl.flat, lam, mdl.offsets)
    grad += reg_grad
    return value + reg, grad, targets.size


def _batch_loss_and_grads(mdl, batch, task, lam):
    """As `_batch_loss_and_gradient`, with the gradient as one view per
    parameter in mdl.parameters() order."""
    value, grad, count = _batch_loss_and_gradient(mdl, batch, task, lam)
    return value, mdl.split(grad), count


def _non_finite_block(mdl, grad) -> str:
    """Names the first parameter holding a non-finite value or, if every
    parameter is finite, the first whose gradient has a non-finite entry.
    (Once a forward value is non-finite, every gradient block is, so the
    gradient alone would name the first block in layout order.)"""
    for kind, vector in (("parameter", mdl.flat), ("gradient", grad)):
        bad = np.flatnonzero(~np.isfinite(vector))
        if bad.size:
            block = int(np.searchsorted(mdl.offsets, bad[0], side="right")) - 1
            return f"first non-finite {kind} in {mdl.parameter_names()[block]}"
    return "every parameter and gradient entry is finite"


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# A mesh batch's tape holds ~400 MB in ~10 MB arrays. At glibc's defaults
# each array above the (at most 32 MiB, dynamic) mmap threshold is mapped on
# allocation and unmapped when backward frees it, and free heap above the
# 128 KiB trim threshold goes back to the kernel, so every step faults its
# whole tape in again. With arrays up to 64 MiB taken from the heap and the
# heap trimmed only above 512 MiB of free space, a step reuses the memory
# the previous one freed.
_HEAP_POLICY = ((_M_MMAP_THRESHOLD, 64 << 20), (_M_TRIM_THRESHOLD, 512 << 20))


@functools.cache
def _keep_step_memory_in_heap() -> bool:
    """Set glibc's mmap and trim thresholds to `_HEAP_POLICY` once; True if
    the C library took both. Where it has no `mallopt` (macOS, Windows) this
    does nothing and returns False.

    The policy covers the whole process and lasts after `fit` returns: freed
    memory stays with the process for reuse (up to 512 MiB of it) rather than
    going back to the kernel. Peak RSS, set by the largest step, does not
    change. It replaces any mmap or trim threshold already set for the
    process, through the environment (`MALLOC_MMAP_THRESHOLD_`,
    `MALLOC_TRIM_THRESHOLD_`, `GLIBC_TUNABLES`) or by earlier `mallopt`
    calls. The result is cached because the policy is the process's own."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # a list, not a generator: the trim threshold is set even if the C
    # library refuses the mmap threshold
    return all([mallopt(param, value) == 1 for param, value in _HEAP_POLICY])


def fit(mdl, graphs: list[Graph], config: TrainConfig,
        adam_state: AdamState | None = None,
        schedule: PlateauSchedule | None = None,
        start_epoch: int = 0) -> TrainLog:
    """Train in place. adam_state/schedule/start_epoch allow resumption.

    On entry, sets the process's glibc malloc policy once
    (`_keep_step_memory_in_heap`), so that each step's tape comes from the
    heap and goes back to it; the policy stays after `fit` returns."""
    if not graphs:
        raise ValueError("empty training set")
    if config.task != mdl.config.task:
        raise ValueError(f"TrainConfig task {config.task!r} does not match the "
                         f"model's task {mdl.config.task!r}")
    _keep_step_memory_in_heap()
    if adam_state is None:
        adam_state = AdamState.for_parameters(mdl.parameters())
    if schedule is None:
        schedule = config.plateau_schedule()
    log = TrainLog()
    n = len(graphs)
    t0 = time.perf_counter()
    for epoch in range(start_epoch, start_epoch + config.epochs):
        order = np.random.default_rng((config.seed, epoch)).permutation(n)
        total, weight = 0.0, 0
        for b0 in range(0, n, config.batch_size):
            members = [graphs[i] for i in order[b0:b0 + config.batch_size]]
            batch = merge_batch(members)
            value, grad, count = _batch_loss_and_gradient(
                mdl, batch, config.task, config.l1_coefficient)
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss {value} at epoch {epoch}, "
                    f"batch {b0 // config.batch_size}; {_non_finite_block(mdl, grad)}")
            adam_step(mdl.flat, grad, adam_state, schedule.lr)
            total += value * count
            weight += count
        mean_loss = total / weight
        lr_used = schedule.lr
        schedule.update(mean_loss)
        log.records.append(EpochRecord(epoch=epoch, mean_loss=mean_loss, lr=lr_used,
                                       wall_time=time.perf_counter() - t0))
    return log
