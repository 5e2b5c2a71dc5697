"""The benchmark's workloads: seeded inputs and one closed-loop pass each.

A pass is one complete job as a user runs it. The train workloads read and
featurize the data, build a fresh model, train a fixed number of epochs,
save and reload the checkpoint and evaluate held-out graphs. The eval
workload creates a seeded model and its checkpoint, then repeats the
`gnnsurrogate eval` sequence. Every library call goes through its module
attribute so that the traced run can wrap it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from gnnsurrogate import checkpoint, datasets, evaluation, training
from gnnsurrogate import model as gnn

# Model init and batch order are fixed, as in the acceptance benchmark;
# only the data depends on the workload seed.
MODEL_SEED = 0
TRAIN_SEED = 0
LEARNING_RATE = 5e-4
# held-out graphs whose predictions are compared between the in-memory model
# and the reloaded checkpoint
CHECKED_GRAPHS = 8
# A set-up takes ~0.1-0.5 s of mostly pure-Python work, so one sample of it
# swings widely on a busy machine; each pass sets up this many times and the
# runner reports the median of all of them.
SETUPS_PER_PASS = 3
# per-graph evaluate calls between two timings of the reference
CALLS_PER_REFERENCE = 10


class Reference:
    """A fixed piece of work of the program's kind, timed between measured
    samples: small float64 matmuls, sine, segment sums and concatenation,
    ~15-25 ms. It uses numpy only, never the program, so it takes the same
    work on every commit. On a shared host the CPU's speed can drift by up to
    twofold in phases of seconds to minutes; a sample's time over the
    reference time around it cancels that drift and keeps a change in the
    program."""

    REPEATS = 40
    # The seconds `setup_s` is quoted at: the reference's time in the fast
    # phases of the 2-vCPU Xeon VM (OpenBLAS 0.3.31) the benchmark was
    # written on. Set-up times are divided by the reference around them and
    # multiplied by this, so a change in set-up work shows and drift does not.
    NOMINAL_S = 0.020

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((600, 32))
        self.w = rng.standard_normal((32, 32)) * 0.1
        self.starts = np.searchsorted(np.sort(rng.integers(0, 200, 600)), np.arange(200))
        self.times = []

    def time(self) -> float:
        t = time.perf_counter()
        for _ in range(self.REPEATS):
            h = np.sin(0.5 * (self.x @ self.w))
            g = np.cos(h) * h
            np.add.reduceat(g, self.starts, axis=0)
            np.concatenate([h, g], axis=1)
        self.times.append(time.perf_counter() - t)
        return self.times[-1]


def bracketed(reference: Reference, calls, per_reference: int = 1):
    """Run each of `calls` (functions of no argument), timing the reference
    before every `per_reference`-th call and after the last. Returns the
    results, the seconds of each call, and each call's seconds over the mean
    of the two reference times around its group."""
    results, seconds, ratios = [], [], []
    before = reference.time()
    for start in range(0, len(calls), per_reference):
        group = []
        for call in calls[start:start + per_reference]:
            t = time.perf_counter()
            results.append(call())
            group.append(time.perf_counter() - t)
        after = reference.time()
        seconds += group
        ratios += [g / (0.5 * (before + after)) for g in group]
        before = after
    return results, seconds, ratios


@dataclass
class Split:
    count: int
    min_nodes: int
    max_nodes: int


@dataclass
class Outcome:
    """What one pass measured and checked."""

    setup_s: list[float]          # SETUPS_PER_PASS set-ups
    setup_ref: list[float]        # the same over the reference time around them
    featurize_s: list[float]
    epoch_s: list[float]          # training epochs, or the one eval pass
    epoch_ref: list[float]        # the same over the reference time around them
    graphs: int                   # graphs trained or evaluated in epoch_s
    work_s: float                 # time those graphs took
    predict_ms: list[float]       # per-graph evaluate calls
    predict_ref: list[float]      # the same over the reference time around them
    eps_r_pct: float
    result: tuple                 # compared exactly across passes of one seed
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def generate(family: str, split: Split, seed: int, part: int) -> list:
    """`split.count` synthetic records whose node counts step evenly from
    min_nodes to max_nodes, so every seed gives the same amount of work;
    the geometry and targets of each record come from the seed."""
    records = []
    for k in range(split.count):
        n = split.min_nodes + (split.max_nodes - split.min_nodes) * k // max(split.count - 1, 1)
        rec_seed = int(np.random.SeedSequence([seed, part, k]).generate_state(1)[0])
        rec = datasets.generate_synthetic(datasets.SyntheticSpec(
            seed=rec_seed, count=1, min_nodes=n, max_nodes=n, family=family))[0]
        rec.graph_id = f"{family}-{seed}-{part}-{k:05d}"
        records.append(rec)
    order = np.random.default_rng([seed, part]).permutation(len(records))
    return [records[i] for i in order]


def _same_predictions(a, b, graphs) -> bool:
    for g in graphs:
        for x, y in zip(gnn.predict(a, g), gnn.predict(b, g)):
            if not (x is None and y is None or np.array_equal(x, y)):
                return False
    return True


def _evaluate_each(reference, evaluate, mdl, samples):
    """One evaluate call per graph, timed; returns (eps per graph, ms per
    graph, time per graph over the reference time)."""
    reports, seconds, ratios = bracketed(
        reference, [lambda s=s: evaluate(mdl, [s]) for s in samples], CALLS_PER_REFERENCE)
    eps = [r.per_graph[0] if r.pooled is None else r.pooled for r in reports]
    return eps, [t * 1e3 for t in seconds], ratios


def pooled_eps(eps, targets) -> float:
    """Pooled eps_R over graphs, from per-graph eps_R and target norms."""
    norms = np.array([np.linalg.norm(t) for t in targets])
    return float(np.linalg.norm(np.asarray(eps) * norms) / np.linalg.norm(norms))


@dataclass
class TrainWorkload:
    """Train from scratch for `epochs`, checkpoint, evaluate held-out graphs."""

    family: str
    encoding: str
    task: str
    batch_size: int
    epochs: int
    train: Split
    test: Split

    def prepare(self, seed: int, workdir) -> dict:
        paths = {"train": workdir / "train.jsonl", "test": workdir / "test.jsonl",
                 "ckpt": workdir / "model.ckpt"}
        datasets.write_dataset(generate(self.family, self.train, seed, 0), paths["train"])
        datasets.write_dataset(generate(self.family, self.test, seed, 1), paths["test"])
        return paths

    def config(self, feat) -> gnn.GnnConfig:
        node_level = self.task == "node_level"
        return gnn.GnnConfig(
            node_input_size=feat.node_feature_width, edge_input_size=feat.edge_feature_width,
            latent_size=32, steps=4, depth=3, width=32,
            graph_output_size=4 if node_level else 1,
            node_output_size=1 if node_level else None, sine_frequency=0.5)

    def set_up(self, paths: dict):
        """Read, featurize, build the model; returns those objects and the
        seconds spent reading and transforming."""
        t0 = time.perf_counter()
        train_recs = datasets.read_dataset(paths["train"])
        test_recs = datasets.read_dataset(paths["test"])
        t1 = time.perf_counter()
        feat = datasets.Featurizer(self.encoding).fit(train_recs)
        t2 = time.perf_counter()
        train_samples = feat.transform_all(train_recs)
        test_samples = feat.transform_all(test_recs)
        t3 = time.perf_counter()
        mdl = gnn.build_model(self.config(feat), MODEL_SEED)
        return feat, train_samples, test_samples, mdl, (t1 - t0) + (t3 - t2)

    def run_pass(self, paths: dict, reference: Reference) -> Outcome:
        # only the latest set-up's objects stay alive, so peak RSS holds one
        featurize_s, latest = [], []

        def set_up():
            latest[:] = [self.set_up(paths)]
            featurize_s.append(latest[0][-1])

        _, setup_s, setup_ref = bracketed(reference, [set_up] * SETUPS_PER_PASS)
        feat, train_samples, test_samples, mdl, _ = latest.pop()

        graphs = [s.graph for s in train_samples]
        cfg = training.TrainConfig(epochs=1, batch_size=self.batch_size,
                                   initial_lr=LEARNING_RATE, seed=TRAIN_SEED, task=self.task)
        adam = training.AdamState.for_parameters(mdl.parameters())
        sched = training.PlateauSchedule(
            lr=cfg.initial_lr, factor=cfg.plateau_factor, patience=cfg.plateau_patience,
            min_delta=cfg.plateau_min_delta, lr_min=cfg.initial_lr / 64)
        logs, epoch_s, epoch_ref = bracketed(reference, [
            lambda epoch=epoch: training.fit(mdl, graphs, cfg, adam_state=adam,
                                             schedule=sched, start_epoch=epoch)
            for epoch in range(self.epochs)])
        losses = [log.records[-1].mean_loss for log in logs]

        resume = checkpoint.TrainResumeState(adam=adam, schedule=sched, epoch=self.epochs)
        checkpoint.save_checkpoint(mdl, feat, paths["ckpt"], resume)
        loaded, _, _ = checkpoint.load_checkpoint(paths["ckpt"])
        evaluate = (evaluation.evaluate_node_level if self.task == "node_level"
                    else evaluation.evaluate_graph_level)
        eps, predict_ms, predict_ref = _evaluate_each(reference, evaluate, loaded,
                                                      test_samples)
        if self.task == "node_level":
            eps_r = float(np.median(eps))
        else:
            eps_r = pooled_eps(eps, [s.graph_target_physical for s in test_samples])

        out = Outcome(setup_s=setup_s, setup_ref=setup_ref, featurize_s=featurize_s,
                      epoch_s=epoch_s,
                      epoch_ref=epoch_ref, graphs=len(graphs) * self.epochs,
                      work_s=sum(epoch_s), predict_ms=predict_ms, predict_ref=predict_ref,
                      eps_r_pct=eps_r,
                      result=(tuple(losses), tuple(eps)))
        for epoch, loss in enumerate(losses):
            out.check(bool(np.isfinite(loss)), f"epoch {epoch}: loss {loss}")
        for s, e in zip(test_samples, eps):
            out.check(bool(np.isfinite(e)), f"{s.graph_id}: eps_R {e}")
        checked = [s.graph for s in test_samples[:CHECKED_GRAPHS]]
        out.check(_same_predictions(mdl, loaded, checked),
                  "reloaded checkpoint predicts differently from the trained model")
        return out


@dataclass
class EvalWorkload:
    """Save a seeded model's checkpoint, then load -> read -> featurize ->
    evaluate, as `gnnsurrogate eval` does."""

    fit: Split
    data: Split

    def prepare(self, seed: int, workdir) -> dict:
        paths = {"fit": workdir / "fit.jsonl", "eval": workdir / "eval.jsonl",
                 "ckpt": workdir / "model.ckpt"}
        datasets.write_dataset(generate("patch3d", self.fit, seed, 0), paths["fit"])
        datasets.write_dataset(generate("patch3d", self.data, seed, 1), paths["eval"])
        return paths

    def set_up(self, paths: dict):
        """Fit the featurizer, build the seeded model and save its checkpoint."""
        feat = datasets.Featurizer("feature_design").fit(datasets.read_dataset(paths["fit"]))
        mdl = gnn.build_model(gnn.GnnConfig(
            node_input_size=feat.node_feature_width, edge_input_size=feat.edge_feature_width,
            latent_size=32, steps=4, depth=3, width=32, graph_output_size=4,
            node_output_size=1, sine_frequency=0.5), MODEL_SEED)
        checkpoint.save_checkpoint(mdl, feat, paths["ckpt"])
        return mdl

    def run_pass(self, paths: dict, reference: Reference) -> Outcome:
        latest = []

        def set_up():
            latest[:] = [self.set_up(paths)]

        _, setup_s, setup_ref = bracketed(reference, [set_up] * SETUPS_PER_PASS)
        mdl = latest.pop()

        # the pass is timed without the reference runs inside it, and
        # compared with the mean of all reference times of the pass
        first = len(reference.times)
        reference.time()
        t1 = time.perf_counter()
        loaded, loaded_feat, _ = checkpoint.load_checkpoint(paths["ckpt"])
        t2 = time.perf_counter()
        samples = loaded_feat.transform_all(datasets.read_dataset(paths["eval"]))
        featurize_s = [time.perf_counter() - t2]
        eps, predict_ms, predict_ref = _evaluate_each(
            reference, evaluation.evaluate_node_level, loaded, samples)
        pass_s = time.perf_counter() - t1 - sum(reference.times[first + 1:])
        mean_reference = float(np.mean(reference.times[first:]))

        out = Outcome(setup_s=setup_s, setup_ref=setup_ref, featurize_s=featurize_s,
                      epoch_s=[pass_s],
                      epoch_ref=[pass_s / mean_reference], graphs=len(samples),
                      work_s=sum(predict_ms) / 1e3, predict_ms=predict_ms,
                      predict_ref=predict_ref, eps_r_pct=float(np.median(eps)),
                      result=tuple(eps))
        for s, e in zip(samples, eps):
            out.check(bool(np.isfinite(e)), f"{s.graph_id}: eps_R {e}")
        checked = [s.graph for s in samples[:CHECKED_GRAPHS]]
        out.check(_same_predictions(mdl, loaded, checked),
                  "loaded checkpoint predicts differently from the in-memory model")
        return out


def workloads(smoke: bool = False) -> dict:
    """Name -> workload; `smoke` shrinks every input for the smoke test."""
    if smoke:
        return {
            "chain-node-train": TrainWorkload("chain", "airfoil", "node_level", 4, 2,
                                              Split(8, 6, 10), Split(4, 6, 10)),
            "mesh3d-graph-train": TrainWorkload("patch3d", "feature_design", "graph_level",
                                                4, 1, Split(8, 12, 20), Split(4, 12, 20)),
            "mesh3d-node-eval": EvalWorkload(Split(6, 12, 20), Split(8, 12, 20)),
        }
    return {
        # criterion-10 node-level config: many small batches, 75 Adam steps an epoch
        "chain-node-train": TrainWorkload("chain", "airfoil", "node_level", 4, 4,
                                          Split(300, 20, 60), Split(50, 20, 60)),
        # ~50k edge rows per MLP call: edge MLP, sine and scatter/gather dominate
        "mesh3d-graph-train": TrainWorkload("patch3d", "feature_design", "graph_level",
                                            32, 4, Split(64, 100, 300), Split(32, 100, 300)),
        # forward only: featurize and per-graph predict
        "mesh3d-node-eval": EvalWorkload(Split(64, 50, 250), Split(200, 50, 250)),
    }
