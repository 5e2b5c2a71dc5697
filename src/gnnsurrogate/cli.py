"""Command-line entry points: gen / train / eval / predict / inspect."""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import evaluation, training
from . import model as gnn
from .datasets import (Featurizer, SyntheticSpec, generate_synthetic,
                       read_dataset, write_dataset)


def _load_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(f"config file not found: {path}")
    return parser


def cmd_gen(args) -> int:
    cfg = _load_ini(args.config)
    sec = cfg["synthetic"]
    spec = SyntheticSpec(
        seed=sec.getint("seed", 0),
        count=sec.getint("count", 100),
        min_nodes=sec.getint("min_nodes", 20),
        max_nodes=sec.getint("max_nodes", 60),
        family=sec.get("family", "chain"),
    )
    records = generate_synthetic(spec)
    write_dataset(records, args.out)
    print(f"wrote {len(records)} {spec.family} graphs to {args.out}")
    return 0


def _featurizer_from_config(sec) -> Featurizer:
    kwargs = {
        "encoding_kind": sec.get("encoding", "airfoil"),
        "node_target_mode": sec.get("target_mode", "zscore"),
        "use_speed_squared": sec.getboolean("use_speed_squared", True),
    }
    if "cell_type_vocabulary" in sec:
        kwargs["cell_type_vocabulary"] = tuple(
            v.strip() for v in sec["cell_type_vocabulary"].split(","))
    return Featurizer(**kwargs)


def _model_config(sec, featurizer: Featurizer, task: str) -> gnn.GnnConfig:
    node_out = sec.getint("node_output_size", 1) if task == "node_level" else None
    return gnn.GnnConfig(
        node_input_size=featurizer.node_feature_width,
        edge_input_size=featurizer.edge_feature_width,
        latent_size=sec.getint("latent_size", 64),
        steps=sec.getint("steps", 6),
        depth=sec.getint("depth", 4),
        width=sec.getint("width", 64),
        graph_output_size=sec.getint("graph_output_size", 4 if task == "node_level" else 1),
        node_output_size=node_out,
        node_output_activation=sec.get("node_output_activation", "linear"),
        graph_output_activation=sec.get("graph_output_activation", "linear"),
        sine_frequency=sec.getfloat("sine_frequency", 1.0),
    )


def _train_config(sec, task: str, seed_override) -> training.TrainConfig:
    return training.TrainConfig(
        epochs=sec.getint("epochs", 2000),
        batch_size=sec.getint("batch_size", 16),
        initial_lr=sec.getfloat("initial_lr", 5e-4),
        l1_coefficient=sec.getfloat("l1_coefficient", 1e-5),
        plateau_patience=sec.getint("plateau_patience", 50),
        plateau_factor=sec.getfloat("plateau_factor", 0.5),
        plateau_min_delta=sec.getfloat("plateau_min_delta", 1e-5),
        lr_min=sec.getfloat("lr_min", None),
        seed=seed_override if seed_override is not None else sec.getint("seed", 0),
        task=task,
    )


def cmd_train(args) -> int:
    log_path = args.log or (str(args.out) + ".log")
    for flag, path in (("--out", args.out), ("--log", log_path)):
        if os.path.isdir(path):      # refused now, not after every epoch has trained
            raise IsADirectoryError(f"{flag} {path} is a directory")
    cfg = _load_ini(args.config)
    task = cfg["model"].get("task", "node_level")
    records = read_dataset(args.data)

    resume = None
    if args.resume:
        model, featurizer, resume = ckpt.load_checkpoint(args.resume)
        if resume is None:
            raise ValueError(f"{args.resume} carries no training-resume state")
    else:
        featurizer = _featurizer_from_config(cfg["model"]).fit(records)
        model = gnn.build_model(_model_config(cfg["model"], featurizer, task),
                                seed=args.seed if args.seed is not None else
                                cfg["training"].getint("seed", 0))

    samples = featurizer.transform_all(records)
    graphs = [s.graph for s in samples]
    train_cfg = _train_config(cfg["training"], task, args.seed)

    if resume:
        adam, sched, start = resume.adam, resume.schedule, resume.epoch
    else:
        adam = training.AdamState.for_parameters(model.parameters())
        sched = train_cfg.plateau_schedule()
        start = 0
    log = training.fit(model, graphs, train_cfg, adam_state=adam,
                       schedule=sched, start_epoch=start)

    final_epoch = log.records[-1].epoch + 1
    resume_out = ckpt.TrainResumeState(adam=adam, schedule=sched, epoch=final_epoch)
    ckpt.save_checkpoint(model, featurizer, args.out, resume=resume_out)

    with open(log_path, "w") as fh:
        for rec in log.records:
            fh.write(json.dumps({"epoch": rec.epoch, "loss": rec.mean_loss,
                                 "lr": rec.lr, "wall_time": rec.wall_time}) + "\n")
    print(f"trained {final_epoch} epochs, final loss {log.records[-1].mean_loss:.6g}; "
          f"checkpoint at {args.out}")
    return 0


def cmd_eval(args) -> int:
    model, featurizer, _ = ckpt.load_checkpoint(args.ckpt)
    records = read_dataset(args.data)
    samples = featurizer.transform_all(records)
    if model.config.task == "node_level":
        report = evaluation.evaluate_node_level(model, samples, split=args.split)
    else:
        report = evaluation.evaluate_graph_level(model, samples, split=args.split)
    print(evaluation.format_report_table([report]))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("\n".join(report.csv_rows()) + "\n")
    return 0


def cmd_predict(args) -> int:
    model, featurizer, _ = ckpt.load_checkpoint(args.ckpt)
    records = read_dataset(args.data)
    if not (0 <= args.index < len(records)):
        raise IndexError(f"record index {args.index} out of range, have {len(records)}")
    sample = featurizer.transform(records[args.index])
    y_node, y_graph = gnn.predict(model, sample.graph)
    lines = []
    if y_node is not None:
        phys = sample.to_physical_node(y_node)
        lines.append("node,prediction")
        lines.extend(f"{i},{v!r}" for i, v in enumerate(phys[:, 0]))
    else:
        lines.append("graph_output")
        lines.extend(f"{v!r}" for v in y_graph[0])
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_inspect(args) -> int:
    if args.data:
        records = read_dataset(args.data)
        counts = [r.positions.shape[0] for r in records]
        kinds = {("chain" if r.chain else "mesh") for r in records}
        print(f"{args.data}: {len(records)} graphs ({', '.join(sorted(kinds))}), "
              f"{min(counts)}–{max(counts)} nodes")
    if args.ckpt:
        model, featurizer, resume = ckpt.load_checkpoint(args.ckpt)
        cfg = model.config
        print(f"{args.ckpt}: {cfg.task} model, encoding {featurizer.encoding_kind}, "
              f"latent {cfg.latent_size}, steps {cfg.steps}, "
              f"depth {cfg.depth}, width {cfg.width}, "
              f"node features {featurizer.node_feature_width}, "
              f"edge features {featurizer.edge_feature_width}, "
              f"{model.flat.size} parameters"
              + (", resumable" if resume else ""))
    if not args.data and not args.ckpt:
        raise ValueError("inspect needs --data and/or --ckpt")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gnnsurrogate",
                                     description="GNN surrogate models for geometry design")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resume", default=None)
    p.add_argument("--log", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--split", default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict for one dataset record")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("inspect", help="summarize a dataset or checkpoint")
    p.add_argument("--data", default=None)
    p.add_argument("--ckpt", default=None)
    p.set_defaults(func=cmd_inspect)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except training.TrainingDivergedError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, configparser.Error, IndexError, KeyError,
            RuntimeError) as exc:
        message = " ".join(str(exc).splitlines())   # configparser's span lines
        print(f"error: {message}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
