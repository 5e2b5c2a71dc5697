import copy
import ctypes
import platform
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import gnnsurrogate as gs
from gnnsurrogate import mlp as nn
from gnnsurrogate import model as gnn
from gnnsurrogate import training as tr
from gnnsurrogate.graph import merge_batch
from conftest import featurized_samples, run_python, tiny_config


class TestLoss:
    def test_exact_prediction_zero_loss(self):
        assert tr.loss(np.ones((3, 1)), np.ones((3, 1)), [], 0.0) == 0.0

    def test_mae_definition(self):
        value, _ = tr.mae_loss(np.array([[1.0], [3.0]]), np.zeros((2, 1)))
        assert value == 2.0

    def test_l1_term(self):
        assert tr.loss(np.zeros((1, 1)), np.zeros((1, 1)),
                       [np.array([-2.0])], 0.1) == pytest.approx(0.2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tr.mae_loss(np.zeros((2, 1)), np.zeros((3, 1)))

    def test_mae_gradient_is_scaled_sign(self):
        _, g = tr.mae_loss(np.array([[2.0], [-1.0]]), np.zeros((2, 1)))
        np.testing.assert_allclose(g, [[0.5], [-0.5]])


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = np.array([1.0, -2.0])
        state = tr.AdamState.for_parameters([p])
        tr.adam_step(p, np.zeros(2), state, 0.1)
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        # at t=1 the bias-corrected update is g/|g| for |g| >> eps
        p = np.array([0.0])
        state = tr.AdamState.for_parameters([p])
        tr.adam_step(p, np.array([5.0]), state, 1e-3)
        assert abs(abs(p[0]) - 1e-3) < 1e-9

    def test_deterministic(self):
        def run():
            p = np.linspace(-1, 1, 5)
            state = tr.AdamState.for_parameters([p])
            for k in range(10):
                tr.adam_step(p, np.sin(p + k), state, 1e-2)
            return p
        np.testing.assert_array_equal(run(), run())

    def test_l1_only_shrinks_parameter_norm(self):
        # no data term: repeated steps strictly decrease sum |theta|
        p = np.array([0.5, -0.8, 0.3])
        state = tr.AdamState.for_parameters([p])
        norms = [np.abs(p).sum()]
        for _ in range(200):
            _, grad = tr.l1_penalty(p, 1e-2, [0, p.size])
            tr.adam_step(p, grad, state, 1e-3)
            norms.append(np.abs(p).sum())
        assert all(b < a or a < 1e-6 for a, b in zip(norms, norms[1:]))


class TestPlateauSchedule:
    def test_improving_loss_keeps_lr(self):
        sched = tr.PlateauSchedule(lr=5e-4, patience=3)
        for loss in [1.0, 0.9, 0.8, 0.7, 0.6]:
            sched.update(loss)
        assert sched.lr == 5e-4

    def test_constant_loss_halves_lr(self):
        sched = tr.PlateauSchedule(lr=5e-4, patience=3)
        for _ in range(4):
            sched.update(1.0)
        assert sched.lr == 2.5e-4

    def test_floor(self):
        sched = tr.PlateauSchedule(lr=1e-4, patience=1, lr_min=1e-4)
        for _ in range(10):
            sched.update(1.0)
        assert sched.lr == 1e-4

    def test_built_from_train_config(self):
        cfg = tr.TrainConfig(initial_lr=1e-3, plateau_patience=7, plateau_factor=0.25)
        sched = cfg.plateau_schedule()
        assert (sched.lr, sched.patience, sched.factor, sched.lr_min) == (1e-3, 7, 0.25, 1e-3 / 64)
        assert tr.TrainConfig(initial_lr=1e-3, lr_min=2e-4).plateau_schedule().lr_min == 2e-4

    def test_lr_min_above_initial_lr_rejected(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(initial_lr=1e-3, lr_min=2e-3)

    def test_never_increases(self):
        rng = np.random.default_rng(0)
        sched = tr.PlateauSchedule(lr=5e-4, patience=2)
        prev = sched.lr
        for _ in range(50):
            sched.update(float(rng.uniform(0.5, 1.5)))
            assert sched.lr <= prev
            prev = sched.lr


class TestFit:
    def test_empty_dataset_rejected(self):
        m = gnn.build_model(tiny_config(), 0)
        with pytest.raises(ValueError):
            tr.fit(m, [], gs.TrainConfig(epochs=1))

    def test_loss_decreases_on_small_problem(self):
        feat, samples = featurized_samples(5, 4, min_nodes=5, max_nodes=8)
        m = gnn.build_model(tiny_config(latent=8, width=8), 0)
        log = tr.fit(m, [s.graph for s in samples],
                     gs.TrainConfig(epochs=60, batch_size=2, seed=1))
        assert log.records[-1].mean_loss < log.records[0].mean_loss

    def test_one_record_per_epoch_with_lr(self):
        feat, samples = featurized_samples(6, 3, min_nodes=4, max_nodes=6)
        m = gnn.build_model(tiny_config(), 0)
        log = tr.fit(m, [s.graph for s in samples],
                     gs.TrainConfig(epochs=7, batch_size=2, seed=1))
        assert [r.epoch for r in log.records] == list(range(7))
        assert all(r.lr > 0 for r in log.records)

    def test_seeded_determinism(self):
        feat, samples = featurized_samples(7, 5, min_nodes=4, max_nodes=7)
        graphs = [s.graph for s in samples]

        def run():
            m = gnn.build_model(tiny_config(), 3)
            log = tr.fit(m, graphs, gs.TrainConfig(epochs=10, batch_size=2, seed=9))
            return log.losses(), m.parameters()

        la, pa = run()
        lb, pb = run()
        assert la == lb
        for x, y in zip(pa, pb):
            np.testing.assert_array_equal(x, y)

    def test_final_partial_batch_kept(self):
        # 5 graphs, batch 2 -> batches of 2,2,1; loss weights must cover all nodes
        feat, samples = featurized_samples(8, 5, min_nodes=4, max_nodes=4)
        m = gnn.build_model(tiny_config(), 0)
        log = tr.fit(m, [s.graph for s in samples],
                     gs.TrainConfig(epochs=1, batch_size=2, seed=0))
        assert len(log.records) == 1

    def test_graph_level_task(self):
        feat, samples = featurized_samples(9, 6, min_nodes=4, max_nodes=8)
        cfg = tiny_config(node_out=None, graph_out=1)
        m = gnn.build_model(cfg, 0)
        log = tr.fit(m, [s.graph for s in samples],
                     gs.TrainConfig(epochs=30, batch_size=3, seed=0,
                                    task="graph_level"))
        assert log.records[-1].mean_loss < log.records[0].mean_loss

    @pytest.mark.parametrize("model_task, config_task", [("node_level", "graph_level"),
                                                         ("graph_level", "node_level")])
    def test_task_mismatch_refused(self, model_task, config_task):
        """A config whose task the model's heads do not match would train the
        wrong head; fit refuses it before any step."""
        feat, samples = featurized_samples(9, 3, min_nodes=4, max_nodes=6)
        node_level = model_task == "node_level"
        m = gnn.build_model(tiny_config(node_out=1 if node_level else None,
                                        graph_out=3 if node_level else 1), 0)
        before = m.flat.copy()
        with pytest.raises(ValueError, match=f"TrainConfig task '{config_task}' does not "
                                             f"match the model's task '{model_task}'"):
            tr.fit(m, [s.graph for s in samples],
                   gs.TrainConfig(epochs=1, batch_size=3, task=config_task))
        assert m.flat.tobytes() == before.tobytes()

    def test_divergence_reported_with_location(self):
        feat, samples = featurized_samples(10, 2, min_nodes=4, max_nodes=5)
        m = gnn.build_model(tiny_config(), 0)
        m.decoder_node.biases[-1][:] = np.nan
        with pytest.raises(tr.TrainingDivergedError, match="epoch 0"):
            tr.fit(m, [s.graph for s in samples], gs.TrainConfig(epochs=1, seed=0))

    def test_divergence_names_the_first_non_finite_block(self):
        # a NaN edge feature built directly, past the Featurizer's record checks
        feat, samples = featurized_samples(10, 3, min_nodes=4, max_nodes=5)
        graphs = [s.graph for s in samples]
        ef = graphs[1].edge_features.copy()
        ef[2, 1] = np.nan
        graphs[1] = replace(graphs[1], edge_features=ef)
        m = gnn.build_model(tiny_config(), 0)
        with pytest.raises(tr.TrainingDivergedError,
                           match=r"batch 0; first non-finite gradient in encoder_edge W0$"):
            tr.fit(m, graphs, gs.TrainConfig(epochs=1, batch_size=3, seed=0))


    def test_divergence_names_the_non_finite_parameter(self):
        # an inf weight makes every gradient block non-finite; the weight is named
        feat, samples = featurized_samples(10, 3, min_nodes=4, max_nodes=5)
        m = gnn.build_model(tiny_config(), 0)
        m.processor_edge[1].weights[0][0, 0] = np.inf
        with pytest.raises(tr.TrainingDivergedError,
                           match=r"batch 0; first non-finite parameter in processor_edge\[1\] W0$"), \
                np.errstate(invalid="ignore"):
            tr.fit(m, [s.graph for s in samples], gs.TrainConfig(epochs=1, batch_size=3, seed=0))


class TestBatchGradientConsistency:
    def test_merged_equals_weighted_per_graph(self, rng):
        feat, samples = featurized_samples(11, 3, min_nodes=4, max_nodes=8)
        graphs = [s.graph for s in samples]
        m = gnn.build_model(tiny_config(), 4)
        batch = merge_batch(graphs)
        _, grads_batch, _ = tr._batch_loss_and_grads(m, batch, "node_level", 0.0)
        n_total = sum(g.num_nodes for g in graphs)
        combined = [np.zeros_like(g) for g in grads_batch]
        for g in graphs:
            _, grads_g, _ = tr._batch_loss_and_grads(m, merge_batch([g]),
                                                     "node_level", 0.0)
            w = g.num_nodes / n_total
            for c, gg in zip(combined, grads_g):
                c += w * gg
        for a, b in zip(grads_batch, combined):
            np.testing.assert_allclose(a, b, atol=1e-8)


class TestOverfit:
    def test_single_graph_memorization(self):
        feat, samples = featurized_samples(12, 1, min_nodes=4, max_nodes=4)
        m = gnn.build_model(tiny_config(latent=16, width=16, steps=2, depth=2), 0)
        tr.fit(m, [samples[0].graph],
               gs.TrainConfig(epochs=500, batch_size=1, initial_lr=2e-3,
                              l1_coefficient=0.0, seed=0))
        report = gs.evaluate_node_level(m, samples, "train")
        assert report.median < 1.0


def per_array_l1(parameters, coefficient):
    """The L1 penalty as one sum and one gradient per parameter array."""
    value = coefficient * sum(np.abs(p).sum() for p in parameters)
    grads = [coefficient * np.sign(p) for p in parameters]
    return value, grads


def per_array_adam(parameters, gradients, state, lr):
    """Bias-corrected Adam looping over parameter arrays and per-array moments."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(parameters, gradients, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


class TestFlatOptimizerMatchesPerArrayLoop:
    def test_l1_value_has_the_bits_of_per_array_sums(self):
        m = gnn.build_model(tiny_config(), 0)
        rng = np.random.default_rng(0)
        m.flat[:] = rng.normal(size=m.flat.size) * 10.0 ** rng.uniform(-6, 2, m.flat.size)
        want, want_grads = per_array_l1(m.parameters(), 1e-3)
        # these values round differently when summed as one vector
        assert 1e-3 * np.abs(m.flat).sum() != want
        value, grad = tr.l1_penalty(m.flat, 1e-3, m.offsets)
        assert value == want
        assert grad.tobytes() == np.concatenate([g.ravel() for g in want_grads]).tobytes()
        assert tr.loss(np.zeros((1, 1)), np.zeros((1, 1)), m.parameters(), 1e-3) == want

    def test_bit_identical_parameters_moments_and_losses(self):
        # the chain benchmark config: latent 32, 4 steps, depth 3, width 32
        feat, samples = featurized_samples(13, 12, min_nodes=6, max_nodes=10)
        graphs = [s.graph for s in samples]
        cfg = gs.GnnConfig(node_input_size=6, edge_input_size=3, latent_size=32, steps=4,
                           depth=3, width=32, graph_output_size=4, node_output_size=1,
                           sine_frequency=0.5)
        lam, lr, bs, epochs = 1e-5, 5e-4, 2, 2
        flat_model, ref = gnn.build_model(cfg, 5), gnn.build_model(cfg, 5)

        state = tr.AdamState.for_parameters(flat_model.parameters())
        log = tr.fit(flat_model, graphs,
                     gs.TrainConfig(epochs=epochs, batch_size=bs, initial_lr=lr,
                                    l1_coefficient=lam, seed=3),
                     adam_state=state)

        params = ref.parameters()
        ref_state = tr.AdamState(m=[np.zeros_like(p) for p in params],
                                 v=[np.zeros_like(p) for p in params])
        losses = []
        for epoch in range(epochs):
            order = np.random.default_rng((3, epoch)).permutation(len(graphs))
            total, weight = 0.0, 0
            for b0 in range(0, len(graphs), bs):
                batch = merge_batch([graphs[i] for i in order[b0:b0 + bs]])
                y_node, _, tape = gnn.forward(ref, batch)
                value, gpred = tr.mae_loss(y_node, batch.graph.node_targets)
                grads = [g.copy() for g in ref.split(gnn.backward(ref, tape, gpred))]
                reg, reg_grads = per_array_l1(params, lam)
                for g, rg in zip(grads, reg_grads):
                    g += rg
                per_array_adam(params, grads, ref_state, lr)
                total += (value + reg) * batch.graph.node_targets.size
                weight += batch.graph.node_targets.size
            losses.append(total / weight)

        assert ref_state.t == state.t == 12
        assert log.losses() == losses
        assert flat_model.flat.tobytes() == ref.flat.tobytes()
        assert state.m.tobytes() == np.concatenate([m.ravel() for m in ref_state.m]).tobytes()
        assert state.v.tobytes() == np.concatenate([v.ravel() for v in ref_state.v]).tobytes()


GLIBC = platform.system() == "Linux" and platform.libc_ver()[0] == "glibc"


class FakeMallopt:
    """A C library's `mallopt` that records its calls and returns `result`."""

    def __init__(self, result):
        self.calls = []
        self.result = result

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


@pytest.fixture
def fresh_heap_policy():
    """Lets `_keep_step_memory_in_heap` run again, as in a new process."""
    tr._keep_step_memory_in_heap.cache_clear()
    yield
    tr._keep_step_memory_in_heap.cache_clear()


def small_fit(epochs=3):
    feat, samples = featurized_samples(5, 4, min_nodes=5, max_nodes=8)
    m = gnn.build_model(tiny_config(latent=8, width=8), 0)
    log = tr.fit(m, [s.graph for s in samples],
                 gs.TrainConfig(epochs=epochs, batch_size=2, seed=1))
    return log.losses(), m.flat.copy()


@pytest.mark.usefixtures("fresh_heap_policy")
class TestHeapPolicy:
    @pytest.mark.skipif(not GLIBC, reason="glibc malloc policy")
    def test_fit_applies_the_policy_and_reports_it(self):
        small_fit(1)
        assert tr._keep_step_memory_in_heap.cache_info().misses == 1   # called by fit
        assert tr._keep_step_memory_in_heap() is True

    def test_set_once_with_the_stated_parameters(self, monkeypatch):
        mallopt = FakeMallopt(1)
        monkeypatch.setattr(tr.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        small_fit(1)
        small_fit(1)
        assert mallopt.calls == [(-3, 64 << 20), (-1, 512 << 20)]
        assert tr._keep_step_memory_in_heap() is True

    @pytest.mark.parametrize("libc", ["raises", "no_mallopt", "refuses"])
    def test_trains_where_the_policy_cannot_be_set(self, monkeypatch, libc):
        def cdll(name):
            if libc == "raises":
                raise OSError("no C library")
            return object() if libc == "no_mallopt" else SimpleNamespace(mallopt=FakeMallopt(0))

        monkeypatch.setattr(tr.ctypes, "CDLL", cdll)
        losses, flat = small_fit()
        assert len(losses) == 3 and np.isfinite(losses).all()
        assert np.isfinite(flat).all()
        assert tr._keep_step_memory_in_heap() is False

    @pytest.mark.skipif(not (GLIBC and hasattr(ctypes.CDLL(None), "mallinfo2")),
                        reason="glibc >= 2.33 reports mmapped blocks through mallinfo2")
    def test_a_large_array_comes_from_the_heap_after_fit(self):
        # 40 MiB: above glibc's largest dynamic mmap threshold (32 MiB), below
        # the policy's 64 MiB; prints whether it was mmapped before and after fit
        script = """
import ctypes
import numpy as np
import gnnsurrogate as gs

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Mallinfo2

def mapped():
    before = libc.mallinfo2().hblks
    block = np.empty(5 << 20)
    return libc.mallinfo2().hblks - before

print(mapped())
recs = gs.generate_synthetic(gs.SyntheticSpec(seed=1, count=2, min_nodes=5, max_nodes=6))
feat = gs.Featurizer("airfoil").fit(recs)
cfg = gs.GnnConfig(node_input_size=feat.node_feature_width,
                   edge_input_size=feat.edge_feature_width, latent_size=4, steps=1,
                   depth=1, width=4, graph_output_size=1, node_output_size=1)
gs.fit(gs.build_model(cfg, 0), [s.graph for s in feat.transform_all(recs)],
       gs.TrainConfig(epochs=1, batch_size=2))
print(mapped())
"""
        assert run_python(script).split() == ["1", "0"]


# Trains 2 epochs of a small graph-level mesh config, with the heap policy
# or with the helper replaced by a no-op, and writes the losses, parameters,
# Adam moments and the resumable checkpoint. The batch's edge arrays (~6k
# rows of 8) exceed glibc's default 128 KiB mmap threshold.
MESH_TRAIN_SCRIPT = """
import sys
import numpy as np
from gnnsurrogate import checkpoint, datasets, training
from gnnsurrogate import model as gnn

policy, out = sys.argv[1], sys.argv[2]
if policy == "off":
    training._keep_step_memory_in_heap = lambda: False
recs = datasets.generate_synthetic(datasets.SyntheticSpec(
    seed=4, count=8, min_nodes=120, max_nodes=160, family="patch3d"))
feat = datasets.Featurizer("feature_design").fit(recs)
graphs = [s.graph for s in feat.transform_all(recs)]
mdl = gnn.build_model(gnn.GnnConfig(
    node_input_size=feat.node_feature_width, edge_input_size=feat.edge_feature_width,
    latent_size=8, steps=2, depth=2, width=8, graph_output_size=1,
    node_output_size=None, sine_frequency=0.5), 0)
cfg = training.TrainConfig(epochs=2, batch_size=8, seed=0, task="graph_level")
adam = training.AdamState.for_parameters(mdl.parameters())
schedule = cfg.plateau_schedule()
log = training.fit(mdl, graphs, cfg, adam_state=adam, schedule=schedule)
checkpoint.save_checkpoint(mdl, feat, out + ".ckpt",
                           checkpoint.TrainResumeState(adam=adam, schedule=schedule, epoch=2))
np.savez(out + ".npz", losses=log.losses(), flat=mdl.flat, m=adam.m, v=adam.v)
print(training._keep_step_memory_in_heap())
"""


def test_heap_policy_leaves_training_bits_unchanged(tmp_path):
    printed = {policy: run_python(MESH_TRAIN_SCRIPT, policy, tmp_path / policy).strip()
               for policy in ("on", "off")}
    assert printed == {"on": str(GLIBC), "off": "False"}
    on, off = (np.load(tmp_path / f"{policy}.npz") for policy in ("on", "off"))
    for name in ("losses", "flat", "m", "v"):
        assert on[name].tobytes() == off[name].tobytes(), name
    assert (tmp_path / "on.ckpt").read_bytes() == (tmp_path / "off.ckpt").read_bytes()


# A batch of ~10k edge rows of width 32: its edge MLP calls split into row
# ranges, and its weight gradients reduce over all the rows, which OpenBLAS
# sums differently at 1 and 2 threads unless it is held to one.
THREADS_TRAIN_SCRIPT = """
import sys
from gnnsurrogate import checkpoint, datasets, training
from gnnsurrogate import model as gnn

recs = datasets.generate_synthetic(datasets.SyntheticSpec(
    seed=3, count=8, min_nodes=150, max_nodes=250, family="patch3d"))
feat = datasets.Featurizer("feature_design")
graphs = [s.graph for s in feat.fit_transform(recs)]
mdl = gnn.build_model(gnn.GnnConfig(
    node_input_size=feat.node_feature_width, edge_input_size=feat.edge_feature_width,
    latent_size=32, steps=2, depth=2, width=32, graph_output_size=1), 0)
training.fit(mdl, graphs, training.TrainConfig(epochs=2, batch_size=8, task="graph_level"))
checkpoint.save_checkpoint(mdl, feat, sys.argv[1])
"""


@pytest.mark.skipif(nn._WORKERS < 2, reason="MLP calls split into row ranges only "
                                            "with two usable CPUs")
def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    saved = {}
    for threads in ("1", "2"):
        path = tmp_path / f"{threads}.ckpt"
        run_python(THREADS_TRAIN_SCRIPT, path, env={"OPENBLAS_NUM_THREADS": threads})
        saved[threads] = path.read_bytes()
    assert saved["1"] == saved["2"]
