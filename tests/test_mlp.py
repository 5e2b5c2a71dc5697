import pickle
import sys
import threading
import time

import numpy as np
import pytest
from scipy import sparse

from gnnsurrogate import mlp as nn
from gnnsurrogate.mlp import Mlp, MlpConfig, backward, forward_tape, he_init
from conftest import cast_mlp, mlp_forward, run_python


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

    @pytest.mark.parametrize("act", ["linear", "relu", "sine"])
    def test_computes_in_the_weights_dtype(self, act):
        rng = np.random.default_rng(8)
        mlp = cast_mlp(he_init(MlpConfig(input_size=3, depth=2, width=4, output_size=2,
                                         output_activation=act), rng), np.float32)
        y, tape = forward_tape(mlp, rng.normal(size=(6, 3)))     # float64 rows
        arrays = [y, *tape[0], *tape[1]]
        gx, grads = backward(mlp, tape, rng.normal(size=(6, 2)))  # a float64 gradient
        arrays += [gx, *grads]
        assert [a.dtype for a in arrays] == [np.float32] * len(arrays)

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

        # one block of every column is the array itself, bit for bit
        y2, tape2 = forward_tape(mlp, [(x, None)])
        np.testing.assert_array_equal(y2, y_ref)
        gxs, grads2 = backward(mlp, tape2, g_out)
        assert len(gxs) == 1
        np.testing.assert_array_equal(gxs[0], gx_ref)
        for a, b in zip(grads2, grads):
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

    def test_block_width_checked(self):
        mlp = he_init(MlpConfig(input_size=3, depth=1, width=4, output_size=1), 0)
        with pytest.raises(ValueError, match="input width 4, expected 3"):
            forward_tape(mlp, [(np.zeros((2, 2)), None), (np.zeros((5, 2)), np.arange(2))])
        with pytest.raises(ValueError, match="input width 2, expected 3"):
            forward_tape(mlp, [(np.zeros((2, 2)), None)])

    @pytest.mark.parametrize("act", ["linear", "relu", "sine"])
    def test_gathered_blocks_match_the_concatenated_input(self, act):
        """Blocks [e | v[s] | v[r]] against np.hstack of them: the same
        output and gradients to within rounding, with each gathered block's
        gradient the concatenated input's columns summed onto v's rows."""
        rng = np.random.default_rng(13)
        mlp = he_init(MlpConfig(input_size=8, depth=2, width=6, output_size=3,
                                output_activation=act, sine_frequency=0.8), rng)
        for b in mlp.biases:
            b[:] = rng.normal(size=b.shape)
        e, v = rng.normal(size=(9, 2)), rng.normal(size=(4, 3))
        s, r = rng.integers(0, 4, size=9), rng.integers(0, 4, size=9)
        g_out = rng.normal(size=(9, 3))
        y_ref, tape = forward_tape(mlp, np.hstack([e, v[s], v[r]]))
        y_ref = y_ref.copy()
        gx_ref, grads_ref = backward(mlp, tape, g_out)

        def onto_v(rows, g):
            out = np.zeros((4, g.shape[1]))
            np.add.at(out, rows, g)
            return out

        y, tape = forward_tape(mlp, [(e, None), (v, s), (v, r)])
        (ge, gv_s, gv_r), grads = backward(mlp, tape, g_out,
                                           sums=lambda gz: [onto_v(s, gz), onto_v(r, gz)])
        close = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(y, y_ref, **close)
        np.testing.assert_allclose(ge, gx_ref[:, :2], **close)
        np.testing.assert_allclose(gv_s, onto_v(s, gx_ref[:, 2:5]), **close)
        np.testing.assert_allclose(gv_r, onto_v(r, gx_ref[:, 5:]), **close)
        for got, want in zip(grads, grads_ref):
            np.testing.assert_allclose(got, want, **close)

    def test_gathered_block_needs_sums(self):
        mlp = he_init(MlpConfig(input_size=3, depth=1, width=4, output_size=1), 0)
        _, tape = forward_tape(mlp, [(np.ones((2, 1)), None), (np.ones((1, 2)), np.zeros(2, int))])
        with pytest.raises(ValueError, match="sums"):
            backward(mlp, tape, np.ones((2, 1)))


class TestSingleUseTape:
    @pytest.mark.parametrize("blocks", [False, True])
    def test_second_backward_raises(self, blocks):
        mlp = he_init(MlpConfig(input_size=3, depth=2, width=4, output_size=2), 5)
        x = np.random.default_rng(6).normal(size=(5, 3))
        _, tape = forward_tape(mlp, [(x[:, :1], None), (x[:, 1:], None)] if blocks else x)
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

        # from blocks, one of them gathered, every parameter is written too
        nodes, rows = x[:3, 1:].copy(), np.array([0, 1, 2, 2, 1, 0])
        blocks = [(x[:, :1], None), (nodes, rows)]
        held = [a.copy() for a in (nodes, rows)]
        out = [np.full_like(p, np.nan) for p in mlp.parameters()]
        _, tape = forward_tape(mlp, blocks)
        (gx_e, gx_nodes), grads = backward(
            mlp, tape, g_out, out=out,
            sums=lambda gz: [np.stack([gz[rows == n].sum(axis=0) for n in range(3)])])
        assert grads is out and not any(np.isnan(a).any() for a in out)
        assert gx_e.shape == (6, 1) and gx_nodes.shape == nodes.shape
        for now, before in zip((nodes, rows, x, g_out), (*held, x0, g0)):
            np.testing.assert_array_equal(now, before)


def forward_backward(mlp, x, g_out):
    """(output, input gradient, parameter gradients) of one call on `x`,
    rows or blocks; a gathered block's gradient is summed onto its array's
    rows by an incidence product, as the graph model does."""
    y, tape = forward_tape(mlp, x)
    y = y.copy()
    sums = None
    if isinstance(x, list):
        sums = lambda gz: [sparse.csr_matrix((np.ones(len(rows)), (rows, np.arange(len(rows)))),
                                             shape=(len(a), len(rows))) @ gz
                           for a, rows in x if rows is not None]
    gx, grads = backward(mlp, tape, g_out, sums=sums)
    return y, gx, grads


ROWS = 1536
NODES = 1100
ACTIVATIONS = ("linear", "relu", "sine")


def row_range_case(act):
    rng = np.random.default_rng(12)
    mlp = he_init(MlpConfig(input_size=7, depth=3, width=32, output_size=5,
                            output_activation=act, sine_frequency=0.7), rng)
    for b in mlp.biases:
        b[:] = rng.normal(size=b.shape)
    x, g_out = rng.normal(size=(ROWS, 7)), rng.normal(size=(ROWS, 5))
    nodes, gather = rng.normal(size=(NODES, 3)), rng.integers(0, NODES, size=ROWS)
    return mlp, x, nodes, gather, g_out


def call_input(x, nodes, gather, blocks, rows=slice(None)):
    """Rows `rows` of the call: x's, or blocks [x's first 4 columns | nodes[gather]]."""
    return [(x[rows, :4], None), (nodes, gather[rows])] if blocks else x[rows]


def row_range_runs() -> dict:
    """Per (output activation, input as blocks): `forward_backward` of a
    1536-row call split into three ranges ("split"), of its 384-row pieces
    ("pieces") and of the call run whole on one worker ("whole"); empty where
    no OpenBLAS can be held to one thread, so nothing splits. Three ranges
    of at least 512 rows whatever the CPU count, with frequent thread
    switches; the gathered block's 1100-row adjoint splits in two. A split
    pins OpenBLAS for the rest of the process, so this runs in a child
    interpreter (`ROW_RANGE_SCRIPT`)."""
    if not nn._pin_blas_to_one_thread():
        return {}
    nn._MIN_RANGE_ROWS = 512
    sys.setswitchinterval(1e-6)
    runs = {}
    for act in ACTIVATIONS:
        for blocks in (False, True):
            mlp, x, nodes, gather, g_out = row_range_case(act)
            nn._WORKERS = 3
            assert len(nn._row_ranges(ROWS)) == 3 and len(nn._row_ranges(NODES)) == 2
            split = forward_backward(mlp, call_input(x, nodes, gather, blocks), g_out)
            pieces = [forward_backward(mlp, call_input(x, nodes, gather, blocks,
                                                       slice(lo, lo + 384)), g_out[lo:lo + 384])
                      for lo in range(0, ROWS, 384)]
            nn._WORKERS = 1
            assert nn._row_ranges(ROWS) == (slice(None),)
            whole = forward_backward(mlp, call_input(x, nodes, gather, blocks), g_out)
            runs[act, blocks] = {"split": split, "pieces": pieces, "whole": whole}
    return runs


ROW_RANGE_SCRIPT = """
import pickle, sys
from test_mlp import row_range_runs
with open(sys.argv[1], "wb") as fh:
    pickle.dump(row_range_runs(), fh)
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    path = tmp_path_factory.mktemp("row_ranges") / "runs.pickle"
    run_python(ROW_RANGE_SCRIPT, path)
    runs = pickle.loads(path.read_bytes())
    if not runs:
        pytest.skip("no OpenBLAS to hold to one thread, so calls are never split")
    return runs


def row_gradient(gx):
    """The input gradient's rows: the array's, or the first (ungathered) block's."""
    return gx[0] if isinstance(gx, list) else gx


class TestRowRanges:
    @pytest.mark.parametrize("act", ACTIVATIONS)
    @pytest.mark.parametrize("blocks", [False, True])
    def test_rows_equal_sub_range_calls(self, runs, act, blocks):
        run = runs[act, blocks]
        y, gx, _ = run["split"]
        np.testing.assert_array_equal(y, np.concatenate([p[0] for p in run["pieces"]]))
        np.testing.assert_array_equal(row_gradient(gx), np.concatenate(
            [row_gradient(p[1]) for p in run["pieces"]]))

    @pytest.mark.parametrize("act", ACTIVATIONS)
    @pytest.mark.parametrize("blocks", [False, True])
    def test_everything_equals_the_unsplit_call(self, runs, act, blocks):
        split, whole = runs[act, blocks]["split"], runs[act, blocks]["whole"]
        np.testing.assert_array_equal(split[0], whole[0])
        gxs = [(split[1], whole[1])] if not blocks else list(zip(split[1], whole[1]))
        assert len(gxs) == (2 if blocks else 1)
        for a, b in [*gxs, *zip(split[2], whole[2])]:
            assert a.tobytes() == b.tobytes()

    def test_small_calls_and_one_cpu_never_pin(self, monkeypatch):
        pins = []
        monkeypatch.setattr(nn, "_pin_blas_to_one_thread", lambda: pins.append(1) or True)
        monkeypatch.setattr(nn, "_MIN_RANGE_ROWS", 512)
        monkeypatch.setattr(nn, "_WORKERS", 4)
        assert nn._row_ranges(1023) == (slice(None),)
        monkeypatch.setattr(nn, "_WORKERS", 1)
        assert nn._row_ranges(10 ** 6) == (slice(None),)
        assert pins == []
        monkeypatch.setattr(nn, "_WORKERS", 4)
        assert nn._row_ranges(1500) == (slice(0, 750), slice(750, 1500))
        # fixed chunks of at least 512 rows, whatever the CPU count
        chunks = tuple(slice(lo, lo + 512) for lo in range(0, 4096, 512))
        assert nn._row_ranges(4096) == chunks
        monkeypatch.setattr(nn, "_WORKERS", 2)
        assert nn._row_ranges(4096) == chunks
        assert nn._row_ranges(1535) == (slice(0, 767), slice(767, 1535))
        assert pins == [1, 1, 1, 1]
        # a BLAS whose threads cannot be held to one: calls run whole
        monkeypatch.setattr(nn, "_pin_blas_to_one_thread", lambda: False)
        assert nn._row_ranges(4096) == (slice(None),)

    def test_a_raising_job_is_raised_once_the_started_ones_finish(self, monkeypatch):
        """A chunk that raises on a worker, then a `beside` job that raises
        while a chunk runs: each time the caller gets the exception, after
        every started job has finished, and the next call still runs on the
        pool. `_in_ranges` itself never pins the BLAS."""
        monkeypatch.setattr(nn, "_WORKERS", 2)
        ranges = tuple(slice(i, i + 1) for i in range(6))
        main = threading.main_thread()
        started, finished = [], []
        on_main, on_worker = threading.Event(), threading.Event()

        def chunk_failing_on_a_worker(a):
            if threading.current_thread() is not main:
                on_worker.set()
                on_main.wait(10)
                raise ValueError("chunk on a worker")
            started.append(a[0])
            on_main.set()
            on_worker.wait(10)
            time.sleep(0.05)
            finished.append(a[0])

        with pytest.raises(ValueError, match="chunk on a worker"):
            nn._in_ranges(chunk_failing_on_a_worker, ranges, np.arange(6))
        assert started and finished == started

        started.clear(), finished.clear(), on_main.clear()

        def slow_chunk(a):
            started.append(a[0])
            on_main.set()
            time.sleep(0.05)
            finished.append(a[0])

        def failing_beside():
            on_main.wait(10)       # a chunk runs on the other thread
            raise ValueError("beside")

        with pytest.raises(ValueError, match="beside"):
            nn._in_ranges(slow_chunk, ranges, np.arange(6), beside=(failing_beside,))
        assert started and sorted(finished) == sorted(started)

        out, ran = np.zeros(6), []
        nn._in_ranges(lambda o: np.add(o, 1.0, out=o), ranges, out,
                      beside=(lambda: ran.append(1),))
        assert out.tolist() == [1.0] * 6 and ran == [1]


# Every layer of an unsplit backward runs through `_in_ranges`, whose one-range
# case must stay a plain call: a chain fit and predict, and a single mesh's
# predict below 2 * 2048 rows, make no pool, load no executor and never pin
# OpenBLAS. The CPU count is taken as two, so that only the row counts keep
# the calls whole; a child interpreter, so no earlier test's split counts.
UNSPLIT_SCRIPT = """
import sys
from gnnsurrogate import mlp as nn
from gnnsurrogate import model as gnn
from gnnsurrogate import training
from conftest import featurized_samples, tiny_config

pins, pin = [], nn._pin_blas_to_one_thread
nn._pin_blas_to_one_thread = lambda: pins.append(1) or pin()
nn._WORKERS = 2
feat, samples = featurized_samples(4, 12, family="chain")
m = gnn.build_model(tiny_config(node_in=feat.node_feature_width,
                                edge_in=feat.edge_feature_width), 0)
training.fit(m, [s.graph for s in samples], training.TrainConfig(epochs=2, batch_size=4))
for s in samples:
    gnn.predict(m, s.graph)
feat, samples = featurized_samples(5, 1, min_nodes=500, max_nodes=520, family="patch3d")
graph = samples[0].graph
assert 2048 < graph.num_edges < 4096, graph.num_edges
m = gnn.build_model(tiny_config(node_in=feat.node_feature_width,
                                edge_in=feat.edge_feature_width, node_out=None), 0)
gnn.predict(m, graph)
print(nn._pool is None, "concurrent.futures.thread" in sys.modules, len(pins))
"""


def test_an_unsplit_process_makes_no_pool_and_never_pins():
    assert run_python(UNSPLIT_SCRIPT).split() == ["True", "False", "0"]
