import numpy as np
import pytest

from gnnsurrogate.mlp import Mlp, MlpConfig, backward, forward_tape, he_init
from conftest import mlp_forward


def fd_gradient(f, arr, idx, step=1e-6):
    flat = arr.ravel()
    orig = flat[idx]
    h = step * max(1.0, abs(orig))
    flat[idx] = orig + h
    fp = f()
    flat[idx] = orig - h
    fm = f()
    flat[idx] = orig
    return (fp - fm) / (2 * h)


class TestHeInit:
    def test_variance_matches_2_over_fan_in(self):
        # fan_in 8 -> variance 0.25; check the sample statistic
        cfg = MlpConfig(input_size=8, depth=1, width=8, output_size=8)
        draws = []
        for seed in range(200):
            mlp = he_init(cfg, seed)
            draws.append(mlp.weights[0].ravel())
        var = np.concatenate(draws).var()
        assert abs(var - 0.25) / 0.25 < 0.05

    def test_deterministic_given_seed(self):
        cfg = MlpConfig(input_size=3, depth=2, width=4, output_size=2)
        a, b = he_init(cfg, 42), he_init(cfg, 42)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_biases_zero(self):
        mlp = he_init(MlpConfig(input_size=3, depth=2, width=4, output_size=2), 0)
        assert all((b == 0).all() for b in mlp.biases)

    def test_layer_shapes(self):
        mlp = he_init(MlpConfig(input_size=3, depth=2, width=7, output_size=2), 0)
        assert [w.shape for w in mlp.weights] == [(3, 7), (7, 7), (7, 2)]


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        mlp = he_init(MlpConfig(input_size=4, depth=1, width=5, output_size=2), 0)
        for w in mlp.weights:
            w[:] = 0.0
        np.testing.assert_array_equal(mlp_forward(mlp, np.random.rand(3, 4)), np.zeros((3, 2)))

    def test_single_linear_map(self):
        cfg = MlpConfig(input_size=1, depth=1, width=1, output_size=1)
        mlp = Mlp(config=cfg,
                  weights=[np.array([[np.pi / 2]]), np.array([[2.0]])],
                  biases=[np.array([0.0]), np.array([1.0])])
        # hidden: sin(pi/2 * 3)... use x chosen so sin gives 1 -> out = 2*1 + 1
        np.testing.assert_allclose(mlp_forward(mlp, np.array([[1.0]])), [[3.0]])

    def test_relu_head_clamps(self):
        cfg = MlpConfig(input_size=1, depth=1, width=1, output_size=1,
                        output_activation="relu")
        mlp = Mlp(config=cfg,
                  weights=[np.array([[0.0]]), np.array([[0.0]])],
                  biases=[np.array([0.0]), np.array([-0.5])])
        np.testing.assert_array_equal(mlp_forward(mlp, np.array([[7.0]])), [[0.0]])

    def test_hidden_activations_bounded(self):
        mlp = he_init(MlpConfig(input_size=3, depth=3, width=6, output_size=1), 9)
        _, (hs, _) = forward_tape(mlp, np.random.default_rng(0).normal(size=(20, 3)) * 10)
        for h in hs[1:-1]:
            assert (np.abs(h) <= 1.0).all()

    def test_shape_mismatch_rejected(self):
        mlp = he_init(MlpConfig(input_size=3, depth=1, width=4, output_size=1), 0)
        with pytest.raises(ValueError):
            mlp_forward(mlp, np.zeros((2, 5)))

    def test_determinism(self):
        mlp = he_init(MlpConfig(input_size=3, depth=2, width=4, output_size=2), 1)
        x = np.random.default_rng(2).normal(size=(5, 3))
        np.testing.assert_array_equal(mlp_forward(mlp, x), mlp_forward(mlp, x))


class TestBackward:
    def test_sin_derivative_at_zero(self):
        # f(x) = sin(w x + b), w=1, b=0: df/dx at 0 is cos(0) = 1
        cfg = MlpConfig(input_size=1, depth=1, width=1, output_size=1)
        mlp = Mlp(config=cfg,
                  weights=[np.array([[1.0]]), np.array([[1.0]])],
                  biases=[np.array([0.0]), np.array([0.0])])
        _, tape = forward_tape(mlp, np.array([[0.0]]))
        gx, _ = backward(mlp, tape, np.array([[1.0]]))
        np.testing.assert_allclose(gx, [[1.0]])

    def test_backward_without_tape_rejected(self):
        mlp = he_init(MlpConfig(input_size=1, depth=1, width=1, output_size=1), 0)
        with pytest.raises(RuntimeError):
            backward(mlp, None, np.ones((1, 1)))

    @pytest.mark.parametrize("act", ["linear", "relu", "sine"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_finite_differences(self, act, seed):
        rng = np.random.default_rng(seed)
        cfg = MlpConfig(input_size=3, depth=rng.integers(1, 4), width=rng.integers(2, 9),
                        output_size=2, output_activation=act)
        mlp = he_init(cfg, rng)
        x = rng.normal(size=(4, 3))
        g_out = rng.normal(size=(4, 2))

        def scalar():
            return float((mlp_forward(mlp, x) * g_out).sum())

        _, tape = forward_tape(mlp, x)
        gx, grads = backward(mlp, tape, g_out)
        params = mlp.parameters()
        for p, g in zip(params, grads):
            for idx in rng.choice(p.size, size=min(6, p.size), replace=False):
                fd = fd_gradient(scalar, p, idx)
                assert abs(fd - g.ravel()[idx]) <= 1e-6 * max(1.0, abs(fd)), (p.shape, idx)
        for idx in rng.choice(x.size, size=6, replace=False):
            fd = fd_gradient(scalar, x, idx)
            assert abs(fd - gx.ravel()[idx]) <= 1e-6 * max(1.0, abs(fd))

    def test_relu_subgradient_zero_at_kink(self):
        cfg = MlpConfig(input_size=1, depth=1, width=1, output_size=1,
                        output_activation="relu")
        mlp = Mlp(config=cfg,
                  weights=[np.array([[1.0]]), np.array([[1.0]])],
                  biases=[np.array([0.0]), np.array([0.0])])
        _, tape = forward_tape(mlp, np.array([[0.0]]))  # pre-activation exactly 0
        gx, _ = backward(mlp, tape, np.array([[1.0]]))
        assert gx[0, 0] == 0.0

    def test_sine_frequency_scales_gradient(self):
        cfg = MlpConfig(input_size=1, depth=1, width=1, output_size=1,
                        sine_frequency=3.0)
        mlp = Mlp(config=cfg,
                  weights=[np.array([[1.0]]), np.array([[1.0]])],
                  biases=[np.array([0.0]), np.array([0.0])])
        _, tape = forward_tape(mlp, np.array([[0.0]]))
        gx, _ = backward(mlp, tape, np.array([[1.0]]))
        np.testing.assert_allclose(gx, [[3.0]])  # d/dx sin(3x) at 0


def seed_formula(mlp, x, g_out):
    """Layer-by-layer forward and backward written as the closed-form
    expressions, not in place: sin(w0*(h@W + b)) forward, g*(w0*cos(w0*z))
    backward. Returns (layer inputs, output, per-layer gz, input gradient)."""
    cfg = mlp.config
    w0 = cfg.sine_frequency
    last = len(mlp.weights) - 1
    hs, zs = [x], []
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = hs[-1] @ w + b
        zs.append(z)
        if k < last or cfg.output_activation == "sine":
            hs.append(np.sin(w0 * z))
        elif cfg.output_activation == "relu":
            hs.append(np.maximum(z, 0.0))
        else:
            hs.append(z)
    gzs = [None] * (last + 1)
    g = g_out
    for k in range(last, -1, -1):
        if k < last or cfg.output_activation == "sine":
            gzs[k] = g * (w0 * np.cos(w0 * zs[k]))
        elif cfg.output_activation == "relu":
            gzs[k] = g * (zs[k] > 0.0)
        else:
            gzs[k] = g
        g = gzs[k] @ mlp.weights[k].T
    return hs, hs[-1], gzs, g


class TestInPlaceChainExact:
    @pytest.mark.parametrize("act", ["linear", "relu", "sine"])
    @pytest.mark.parametrize("w0", [1.0, 0.5, 3.0])
    def test_bit_identical_to_closed_form(self, act, w0):
        rng = np.random.default_rng(11)
        cfg = MlpConfig(input_size=4, depth=3, width=6, output_size=2,
                        output_activation=act, sine_frequency=w0)
        mlp = he_init(cfg, rng)
        for b in mlp.biases:
            b[:] = rng.normal(size=b.shape)
        x = rng.normal(size=(9, 4))
        g_out = rng.normal(size=(9, 2))
        hs_ref, y_ref, gzs, gx_ref = seed_formula(mlp, x, g_out)

        y, tape = forward_tape(mlp, x)
        np.testing.assert_array_equal(y, y_ref)
        for h, h_ref in zip(tape[0], hs_ref):
            np.testing.assert_array_equal(h, h_ref)
        gx, grads = backward(mlp, tape, g_out)
        np.testing.assert_array_equal(gx, gx_ref)
        for k, gz in enumerate(gzs):
            np.testing.assert_array_equal(grads[2 * k], hs_ref[k].T @ gz)
            np.testing.assert_array_equal(grads[2 * k + 1], gz.sum(axis=0))

        # from a caller-formed first product, backward returns layer 0's gz
        y2, tape2 = forward_tape(mlp, None, z0=x @ mlp.weights[0])
        np.testing.assert_array_equal(y2, y_ref)
        gz0, grads2 = backward(mlp, tape2, g_out)
        np.testing.assert_array_equal(gz0, gzs[0])
        assert grads2[0] is None
        for a, b in zip(grads2[1:], grads[1:]):
            np.testing.assert_array_equal(a, b)

    def test_input_gradient_skipped_on_request(self):
        mlp = he_init(MlpConfig(input_size=3, depth=2, width=4, output_size=2), 3)
        x = np.random.default_rng(4).normal(size=(5, 3))
        _, tape = forward_tape(mlp, x)
        gx, grads = backward(mlp, tape, np.ones((5, 2)), input_grad=False)
        _, tape = forward_tape(mlp, x)      # a tape is consumed by its backward
        _, full = backward(mlp, tape, np.ones((5, 2)))
        assert gx is None
        for a, b in zip(grads, full):
            np.testing.assert_array_equal(a, b)

    def test_first_product_width_checked(self):
        mlp = he_init(MlpConfig(input_size=3, depth=1, width=4, output_size=1), 0)
        with pytest.raises(ValueError):
            forward_tape(mlp, None, z0=np.zeros((2, 3)))


class TestSingleUseTape:
    @pytest.mark.parametrize("first_product", [False, True])
    def test_second_backward_raises(self, first_product):
        mlp = he_init(MlpConfig(input_size=3, depth=2, width=4, output_size=2), 5)
        x = np.random.default_rng(6).normal(size=(5, 3))
        _, tape = (forward_tape(mlp, None, z0=x @ mlp.weights[0]) if first_product
                   else forward_tape(mlp, x))
        backward(mlp, tape, np.ones((5, 2)))
        with pytest.raises(RuntimeError, match="consumed"):
            backward(mlp, tape, np.ones((5, 2)))

    @pytest.mark.parametrize("act", ["linear", "relu", "sine"])
    def test_out_is_filled_and_callers_arrays_unchanged(self, act):
        rng = np.random.default_rng(7)
        mlp = he_init(MlpConfig(input_size=3, depth=2, width=4, output_size=2,
                                output_activation=act, sine_frequency=0.5), rng)
        x, g_out = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
        x0, g0 = x.copy(), g_out.copy()
        gx_ref, grads_ref = backward(mlp, forward_tape(mlp, x)[1], g_out)

        y, tape = forward_tape(mlp, x)
        y0 = y.copy()
        out = [np.full_like(p, np.nan) for p in mlp.parameters()]
        gx, grads = backward(mlp, tape, g_out, out=out)
        assert grads is out
        np.testing.assert_array_equal(gx, gx_ref)
        for got, want in zip(out, grads_ref):
            np.testing.assert_array_equal(got, want)
        for now, before in ((x, x0), (g_out, g0), (y, y0)):
            np.testing.assert_array_equal(now, before)

        # from a caller-formed first product, gW0 is left to the caller
        out = [np.full_like(p, np.nan) for p in mlp.parameters()]
        backward(mlp, forward_tape(mlp, None, z0=x @ mlp.weights[0])[1], g_out, out=out)
        assert np.isnan(out[0]).all()
        for got, want in zip(out[1:], grads_ref[1:]):
            np.testing.assert_array_equal(got, want)
