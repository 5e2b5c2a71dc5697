"""Binary model checkpoints: magic + version + length-prefixed sections."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .datasets import Featurizer
from .features import Normalizer
from .model import GnnConfig, GnnModel, build_model
from .training import AdamState, PlateauSchedule

MAGIC = b"GNNSCKPT"
VERSION = 1


class CheckpointError(ValueError):
    pass


@dataclass
class TrainResumeState:
    adam: AdamState
    schedule: PlateauSchedule
    epoch: int


def _pack_arrays(arrays) -> bytes:
    chunks = [struct.pack("<Q", len(arrays))]
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        chunks.append(struct.pack("<B", a.ndim))
        chunks.append(struct.pack(f"<{a.ndim}Q", *a.shape) if a.ndim else b"")
        chunks.append(a.tobytes())
    return b"".join(chunks)


def _unpack_arrays(buf: bytes, section: str) -> list[np.ndarray]:
    """Inverse of `_pack_arrays`; a payload that does not hold exactly the
    arrays its headers describe raises CheckpointError naming `section`."""
    offset, arrays = 8, []
    try:
        (count,) = struct.unpack_from("<Q", buf, 0)
        for _ in range(count):
            (ndim,) = struct.unpack_from("<B", buf, offset)
            shape = struct.unpack_from(f"<{ndim}Q", buf, offset + 1)
            offset += 1 + 8 * ndim
            size = math.prod(shape)
            if offset + 8 * size > len(buf):
                raise CheckpointError(f"section {section!r}: array {len(arrays)} "
                                      f"overruns the section")
            arr = np.frombuffer(buf, dtype="<f8", count=size, offset=offset).reshape(shape)
            offset += 8 * size
            arrays.append(arr.copy())
    except struct.error as exc:
        raise CheckpointError(f"section {section!r}: truncated array header") from exc
    if offset != len(buf):
        raise CheckpointError(f"section {section!r}: {len(buf) - offset} bytes "
                              f"after its last array")
    return arrays


def _write_section(fh, name: str, payload: bytes):
    raw = name.encode()
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<Q", len(payload)))
    fh.write(payload)


def _read_sections(buf: bytes, offset: int) -> dict:
    sections = {}
    end = len(buf)
    while offset < end:
        if offset + 4 > end:
            raise CheckpointError("truncated checkpoint (section header)")
        (name_len,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        if offset + name_len + 8 > end:
            raise CheckpointError("truncated checkpoint (section header)")
        name = buf[offset:offset + name_len].decode(errors="replace")
        offset += name_len
        (payload_len,) = struct.unpack_from("<Q", buf, offset)
        offset += 8
        if offset + payload_len > end:
            raise CheckpointError(f"truncated checkpoint (section {name!r})")
        sections[name] = buf[offset:offset + payload_len]
        offset += payload_len
    return sections


def _section(sections: dict, name: str) -> bytes:
    if name not in sections:
        raise CheckpointError(f"checkpoint has no {name!r} section")
    return sections[name]


def _json_section(sections: dict, name: str) -> dict:
    try:
        obj = json.loads(_section(sections, name).decode())
    except ValueError as exc:    # bad UTF-8 or JSON
        raise CheckpointError(f"section {name!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise CheckpointError(f"section {name!r} is not a JSON object")
    return obj


def _vector(model: GnnModel, arrays, section: str) -> np.ndarray:
    """Per-parameter arrays as one vector laid out like model.flat."""
    try:
        return model.flatten(arrays)
    except ValueError as exc:
        raise CheckpointError(f"section {section!r}: {exc}") from exc


def save_checkpoint(model: GnnModel, featurizer: Featurizer, path,
                    resume: TrainResumeState | None = None):
    cfg = model.config
    meta = {
        "model": dataclasses.asdict(cfg),
        "featurizer": {
            "encoding_kind": featurizer.encoding_kind,
            "cell_type_vocabulary": list(featurizer.cell_type_vocabulary),
            "node_target_mode": featurizer.node_target_mode,
            "use_speed_squared": featurizer.use_speed_squared,
            "has_target_norm": featurizer.target_norm is not None,
        },
        "has_resume": resume is not None,
    }
    norm_arrays = [featurizer.node_norm.shift, featurizer.node_norm.scale,
                   featurizer.edge_norm.shift, featurizer.edge_norm.scale]
    if featurizer.target_norm is not None:
        norm_arrays += [featurizer.target_norm.shift, featurizer.target_norm.scale]
    # written beside `path` and renamed over it, so a failed save leaves any
    # earlier checkpoint there whole
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            _write_checkpoint(fh, model, meta, norm_arrays, resume)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_checkpoint(fh, model: GnnModel, meta: dict, norm_arrays, resume):
    fh.write(MAGIC)
    fh.write(struct.pack("<I", VERSION))
    _write_section(fh, "meta", json.dumps(meta).encode())
    _write_section(fh, "params", _pack_arrays(model.parameters()))
    _write_section(fh, "normalizers", _pack_arrays(norm_arrays))
    if resume is not None:
        sched = resume.schedule
        scalars = {"t": resume.adam.t, "beta1": resume.adam.beta1,
                   "beta2": resume.adam.beta2, "eps": resume.adam.eps,
                   "lr": sched.lr, "factor": sched.factor,
                   "patience": sched.patience, "min_delta": sched.min_delta,
                   "lr_min": sched.lr_min, "best": sched.best,
                   "bad_epochs": sched.bad_epochs, "epoch": resume.epoch}
        _write_section(fh, "resume_meta", json.dumps(scalars).encode())
        _write_section(fh, "resume_arrays", _pack_arrays(
            model.split(resume.adam.m) + model.split(resume.adam.v)))


def load_checkpoint(path):
    """Returns (model, featurizer, resume_state_or_None). Bytes that are not
    a whole checkpoint of this version raise CheckpointError."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"bad magic {buf[:len(MAGIC)]!r}, expected {MAGIC!r}")
    if len(buf) < len(MAGIC) + 4:
        raise CheckpointError("truncated checkpoint (version)")
    (version,) = struct.unpack_from("<I", buf, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"checkpoint version {version}, expected {VERSION}")
    sections = _read_sections(buf, len(MAGIC) + 4)
    meta = _json_section(sections, "meta")
    required = ["params", "normalizers"]
    if meta.get("has_resume"):
        required += ["resume_meta", "resume_arrays"]
    for name in required:
        _section(sections, name)

    try:
        cfg = GnnConfig(**meta["model"])
        model = build_model(cfg, seed=0)
        fmeta = meta["featurizer"]
        featurizer = Featurizer(
            encoding_kind=fmeta["encoding_kind"],
            cell_type_vocabulary=tuple(fmeta["cell_type_vocabulary"]),
            node_target_mode=fmeta["node_target_mode"],
            use_speed_squared=fmeta["use_speed_squared"],
        )
        has_target_norm = fmeta["has_target_norm"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"section 'meta': bad model or featurizer entry: {exc!r}") from exc
    model.flat[:] = _vector(model, _unpack_arrays(sections["params"], "params"), "params")

    norm_arrays = _unpack_arrays(sections["normalizers"], "normalizers")
    expected = 6 if has_target_norm else 4
    if len(norm_arrays) != expected:
        raise CheckpointError(f"section 'normalizers': {len(norm_arrays)} arrays, "
                              f"expected {expected}")
    featurizer.node_norm = Normalizer(shift=norm_arrays[0], scale=norm_arrays[1])
    featurizer.edge_norm = Normalizer(shift=norm_arrays[2], scale=norm_arrays[3])
    if has_target_norm:
        featurizer.target_norm = Normalizer(shift=norm_arrays[4], scale=norm_arrays[5])

    resume = None
    if meta.get("has_resume"):
        scalars = _json_section(sections, "resume_meta")
        arrays = _unpack_arrays(sections["resume_arrays"], "resume_arrays")
        half = len(model.shapes)
        if len(arrays) != 2 * half:
            raise CheckpointError(f"section 'resume_arrays': {len(arrays)} arrays, "
                                  f"expected {2 * half} (Adam m and v)")
        try:
            adam = AdamState(m=_vector(model, arrays[:half], "resume_arrays (Adam m)"),
                             v=_vector(model, arrays[half:], "resume_arrays (Adam v)"),
                             t=scalars["t"], beta1=scalars["beta1"],
                             beta2=scalars["beta2"], eps=scalars["eps"])
            sched = PlateauSchedule(lr=scalars["lr"], factor=scalars["factor"],
                                    patience=scalars["patience"],
                                    min_delta=scalars["min_delta"],
                                    lr_min=scalars["lr_min"], best=scalars["best"],
                                    bad_epochs=scalars["bad_epochs"])
            resume = TrainResumeState(adam=adam, schedule=sched, epoch=scalars["epoch"])
        except KeyError as exc:
            raise CheckpointError(f"section 'resume_meta': no entry {exc}") from exc
    return model, featurizer, resume
