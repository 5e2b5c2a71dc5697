"""Command-line entry points: gen / train / eval / predict / inspect."""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys

from . import checkpoint as ckpt
from . import evaluation, training
from . import model as gnn
from .datasets import (DatasetFormatError, Featurizer, SyntheticSpec,
                       generate_synthetic, read_dataset, write_dataset)


class ConfigFileError(ValueError):
    """An INI section or key the program cannot use, naming file, section and key."""


# dataclass field -> its INI key, where the two differ
_INI_KEYS = {"encoding_kind": "encoding", "node_target_mode": "target_mode"}
# fields the program sets: input widths, task (from [model] task), normalizers
_DERIVED = {"node_input_size", "edge_input_size", "task", *Featurizer.NORMALIZERS}
# a field's annotation, less any "| None" -> the section method converting it
_GETTERS = {"int": "getint", "float": "getfloat", "bool": "getboolean",
            "str": "get", "tuple": "gettuple"}


def _load_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(
        converters={"tuple": lambda v: tuple(s.strip() for s in v.split(","))})
    if not parser.read(path):
        raise FileNotFoundError(f"config file not found: {path}")
    return parser


def _read_section(cfg, path, section: str, *kinds, extra=()) -> list[dict]:
    """Keyword arguments for each dataclass in `kinds`, read from INI
    `section` by the dataclass's own fields. A key sets the field it names
    (or its `_INI_KEYS` name). Keys in `extra` are left to the caller."""
    if not cfg.has_section(section):
        raise ConfigFileError(f"{path}: no [{section}] section")
    sec = cfg[section]
    out = [{} for _ in kinds]
    fields = {_INI_KEYS.get(f.name, f.name): (kwargs, f)
              for kwargs, kind in zip(out, kinds)
              for f in dataclasses.fields(kind) if f.name not in _DERIVED}
    for key in sec:
        if key in extra:
            continue
        if key not in fields:
            raise ConfigFileError(f"{path}: [{section}] {key}: unknown key (accepted: "
                                  f"{', '.join(sorted([*fields, *extra]))})")
        kwargs, f = fields[key]
        try:
            kwargs[f.name] = getattr(sec, _GETTERS[f.type.removesuffix(" | None")])(key)
        except ValueError as exc:
            raise ConfigFileError(f"{path}: [{section}] {key}: {exc}") from exc
    return out


def synthetic_spec(path) -> SyntheticSpec:
    """The [synthetic] section of a gen INI."""
    (spec,) = _read_section(_load_ini(path), path, "synthetic", SyntheticSpec)
    return SyntheticSpec(**spec)


def train_configs(path, seed=None):
    """(unfitted Featurizer, GnnConfig, TrainConfig) from a train INI's
    [model] and [training] sections; `seed` overrides [training] seed."""
    cfg = _load_ini(path)
    feat_kw, model_kw = _read_section(cfg, path, "model", Featurizer, gnn.GnnConfig,
                                      extra=("task",))
    (train_kw,) = _read_section(cfg, path, "training", training.TrainConfig)
    task = cfg["model"].get("task", "node_level")
    if task not in training.TASKS:
        raise ConfigFileError(f"{path}: [model] task: {task!r} is not one of "
                              f"{', '.join(training.TASKS)}")
    node_level = task == "node_level"
    model_kw = {"latent_size": 64, "steps": 6, "depth": 4, "width": 64,
                "graph_output_size": 4 if node_level else 1, **model_kw,
                # accepted, and unused by a graph-level model
                "node_output_size": model_kw.get("node_output_size", 1) if node_level else None}
    section = "model"           # whose values the dataclasses below refuse
    try:
        featurizer = Featurizer(**{"encoding_kind": "airfoil", **feat_kw})
        model_cfg = gnn.GnnConfig(node_input_size=featurizer.node_feature_width,
                                  edge_input_size=featurizer.edge_feature_width, **model_kw)
        section = "training"
        train_cfg = training.TrainConfig(**train_kw, task=task)
    except ValueError as exc:
        raise ConfigFileError(f"{path}: [{section}] {exc}") from exc
    if seed is not None:
        try:
            train_cfg = dataclasses.replace(train_cfg, seed=seed)
        except ValueError as exc:   # named by the flag, not by the INI
            raise ValueError(f"--seed: {str(exc).removeprefix('seed: ')}") from exc
    return featurizer, model_cfg, train_cfg


def _model_settings(featurizer: Featurizer, model_cfg: gnn.GnnConfig) -> dict:
    """The [model] settings of a featurizer and model config by INI key. The
    task comes first, so that a changed task is named rather than the head
    sizes it implies."""
    settings = {"task": model_cfg.task}
    for obj in (featurizer, model_cfg):
        settings.update({_INI_KEYS.get(f.name, f.name): getattr(obj, f.name)
                         for f in dataclasses.fields(obj) if f.name not in _DERIVED})
    return settings


def _read_records(path) -> list:
    """`read_dataset(path)`, refusing a file that holds no records."""
    records = read_dataset(path)
    if not records:
        raise DatasetFormatError(f"{path}: holds no records")
    return records


def cmd_gen(args) -> int:
    spec = synthetic_spec(args.config)
    records = generate_synthetic(spec)
    write_dataset(records, args.out)
    print(f"wrote {len(records)} {spec.family} graphs to {args.out}")
    return 0


def cmd_train(args) -> int:
    log_path = args.log or (str(args.out) + ".log")
    for flag, path in (("--out", args.out), ("--log", log_path)):
        if os.path.isdir(path):      # refused now, not after every epoch has trained
            raise IsADirectoryError(f"{flag} {path} is a directory")
    featurizer, model_cfg, train_cfg = train_configs(args.config, args.seed)
    records = _read_records(args.data)

    if args.resume:
        ini_settings = _model_settings(featurizer, model_cfg)
        model, featurizer, state = ckpt.load_checkpoint(args.resume)
        if state is None:
            raise ValueError(f"{args.resume} carries no training-resume state")
        for key, value in _model_settings(featurizer, model.config).items():
            if ini_settings[key] != value:
                raise ConfigFileError(f"{args.config}: [model] {key}: {ini_settings[key]!r}, "
                                      f"but checkpoint {args.resume} has {value!r}")
        samples = featurizer.transform_all(records)
    else:
        samples = featurizer.fit_transform(records)
        model = gnn.build_model(model_cfg, seed=train_cfg.seed)
        state = ckpt.TrainResumeState(adam=training.AdamState.for_parameters(model.parameters()),
                                      schedule=train_cfg.plateau_schedule(), epoch=0)

    target = "node_target" if train_cfg.task == "node_level" else "graph_target"
    for s in samples:
        if getattr(s, f"{target}_physical") is None:
            raise DatasetFormatError(f"record {s.graph_id}: has no {target}, which "
                                     f"{train_cfg.task} training needs")
    graphs = [s.graph for s in samples]
    log = training.fit(model, graphs, train_cfg, adam_state=state.adam,
                       schedule=state.schedule, start_epoch=state.epoch)
    state.epoch = log.records[-1].epoch + 1
    ckpt.save_checkpoint(model, featurizer, args.out, resume=state)

    with open(log_path, "w") as fh:
        for rec in log.records:
            fh.write(json.dumps({"epoch": rec.epoch, "loss": rec.mean_loss,
                                 "lr": rec.lr, "wall_time": rec.wall_time}) + "\n")
    print(f"trained {state.epoch} epochs, final loss {log.records[-1].mean_loss:.6g}; "
          f"checkpoint at {args.out}")
    return 0


def cmd_eval(args) -> int:
    model, featurizer, _ = ckpt.load_checkpoint(args.ckpt)
    records = _read_records(args.data)
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
    records = _read_records(args.data)
    if not (0 <= args.index < len(records)):
        raise IndexError(f"record index {args.index} out of range, have {len(records)}")
    sample = featurizer.transform(records[args.index])
    y_node, y_graph = gnn.predict(model, sample.graph)
    lines = []
    if y_node is not None:
        phys = sample.to_physical_node(y_node)
        lines.append("node,prediction")
        lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(phys[:, 0]))
    else:
        lines.append("graph_output")
        lines.extend(f"{float(v)!r}" for v in y_graph[0])
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_inspect(args) -> int:
    if args.data:
        records = _read_records(args.data)
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
    except MemoryError as exc:       # a size in the config the machine cannot hold
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except (ValueError, OSError, configparser.Error, IndexError, KeyError,
            RuntimeError) as exc:
        message = " ".join(str(exc).splitlines())   # configparser's span lines
        print(f"error: {message}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
