"""Dense MLPs with sine hidden activation, He init, manual backprop."""

from __future__ import annotations

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


def forward_tape(mlp: Mlp, x: np.ndarray, z0: np.ndarray | None = None):
    """Row-batched forward pass; returns (output, tape for one backward).

    The tape is (hs, zs): hs[k] is layer k's input and zs[k] its
    pre-activation, held as w0*z for sine layers so that backward takes the
    cosine of it directly. A caller that forms the first layer's product
    x @ W0 itself (the graph model does so block by block) passes it as `z0`,
    which this function adds the bias to in place; `x` is then not used and
    hs[0] is None. Every array takes the weights' dtype; `x` is cast to it.
    """
    cfg = mlp.config
    if z0 is None:
        x = np.atleast_2d(np.asarray(x, dtype=mlp.weights[0].dtype))
        if x.shape[1] != cfg.input_size:
            raise ValueError(f"input width {x.shape[1]}, expected {cfg.input_size}")
        z = x @ mlp.weights[0]
    else:
        x, z = None, z0
        if z.shape[1] != mlp.weights[0].shape[1]:
            raise ValueError(f"first pre-activation width {z.shape[1]}, "
                             f"expected {mlp.weights[0].shape[1]}")
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


def backward(mlp: Mlp, tape, grad_output: np.ndarray, input_grad: bool = True,
             out: list | None = None):
    """Reverse pass. Returns (grad wrt input, [gW0, gb0, gW1, gb1, ...]),
    written into `out` (one array per parameter) when it is given.

    The tape is single-use: its layers are popped and overwritten, so a
    second backward on it raises RuntimeError; x and grad_output (cast to
    the weights' dtype) are only read. With `input_grad` False the input
    gradient is None. For a tape recorded from `z0`, the first element is the
    gradient wrt the first pre-activation and gW0 is left to the caller."""
    if tape is None or len(tape[1]) != len(mlp.weights):
        raise RuntimeError("backward needs a forward tape no backward has consumed")
    hs, zs = tape
    cfg = mlp.config
    w0 = cfg.sine_frequency
    g = np.atleast_2d(np.asarray(grad_output, dtype=mlp.weights[0].dtype))
    last = len(mlp.weights) - 1
    param_grads = [None] * (2 * len(mlp.weights)) if out is None else out
    hs.pop()                                # the output
    for k in range(last, -1, -1):
        z, h = zs.pop(), hs.pop()
        if k < last or cfg.output_activation == "sine":
            gz = np.cos(z, out=z)
            gz *= w0
            gz *= g
        elif cfg.output_activation == "relu":
            gz = g * (z > 0.0)
        else:
            gz = g
        param_grads[2 * k + 1] = gz.sum(axis=0, out=param_grads[2 * k + 1])
        if h is None:
            return gz, param_grads
        param_grads[2 * k] = np.matmul(h.T, gz, out=param_grads[2 * k])
        # hs[k] is dead once gW is formed; hs[0] is the caller's x
        g = np.matmul(gz, mlp.weights[k].T, out=h if k else None) if k or input_grad else None
    return g, param_grads
