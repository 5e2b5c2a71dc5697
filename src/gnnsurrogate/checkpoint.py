"""Binary model checkpoints: magic + version + length-prefixed sections."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .datasets import Featurizer
from .features import Normalizer
from .model import GnnConfig, GnnModel
from .training import AdamState, PlateauSchedule

MAGIC = b"GNNSCKPT"
VERSION = 1
# Featurizer.NORMALIZERS are held in 'normalizers' as (shift, scale) pairs, in
# that order, and its settings in meta. AdamState's moments are held in
# 'resume_arrays', and its scalars in 'resume_meta'.
_MOMENTS = ("m", "v")


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


def _fields(obj, skip=()) -> dict:
    """The dataclass `obj`'s fields, less `skip`, by name in field order."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in skip}


def _entries(entries: dict, kind, skip=()) -> dict:
    """The entries naming the fields of dataclass `kind`, less `skip`."""
    return {f.name: entries[f.name] for f in dataclasses.fields(kind) if f.name not in skip}


# the fields held in 'resume_meta': AdamState's scalars, PlateauSchedule's and
# TrainResumeState's epoch
_RESUME_SCALARS = [f for kind in (AdamState, PlateauSchedule, TrainResumeState)
                   for f in dataclasses.fields(kind)
                   if f.name not in (*_MOMENTS, "adam", "schedule")]


def _check_resume_scalar(f: dataclasses.Field, value):
    """An `int` field takes a non-negative JSON integer and a `float` field a
    JSON number within float64's finite range, or Infinity for `best` (the
    schedule's best loss, which starts there). JSON booleans are refused:
    Python counts them as integers."""
    if f.type == "int":
        ok, expected = type(value) is int and value >= 0, "a non-negative integer"
    else:
        # compared rather than passed to math.isfinite, which cannot take
        # an integer beyond float64's range
        largest = sys.float_info.max
        ok = type(value) in (int, float) and (-largest <= value <= largest
                                              or f.name == "best" and value == math.inf)
        expected = "a finite number" + (" or Infinity" if f.name == "best" else "")
    if not ok:
        raise CheckpointError(f"section 'resume_meta': entry {f.name!r} is {value!r}, "
                              f"expected {expected}")


def _vector(model: GnnModel, arrays, section: str) -> np.ndarray:
    """Per-parameter arrays as one vector laid out like model.flat."""
    try:
        return model.flatten(arrays)
    except ValueError as exc:
        raise CheckpointError(f"section {section!r}: {exc}") from exc


def save_checkpoint(model: GnnModel, featurizer: Featurizer, path,
                    resume: TrainResumeState | None = None):
    meta = {
        "model": dataclasses.asdict(model.config),
        "featurizer": {**_fields(featurizer, skip=Featurizer.NORMALIZERS),
                       "has_target_norm": featurizer.target_norm is not None},
        "has_resume": resume is not None,
    }
    norms = [getattr(featurizer, name) for name in Featurizer.NORMALIZERS]
    norm_arrays = [a for n in norms if n is not None for a in (n.shift, n.scale)]
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
        scalars = {**_fields(resume.adam, skip=_MOMENTS),
                   **dataclasses.asdict(resume.schedule), "epoch": resume.epoch}
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
        model = GnnModel(GnnConfig(**meta["model"]))
        featurizer = Featurizer(**_entries(meta["featurizer"], Featurizer,
                                           skip=Featurizer.NORMALIZERS))
        has_target_norm = meta["featurizer"]["has_target_norm"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"section 'meta': bad model or featurizer entry: {exc!r}") from exc
    model.flat[:] = _vector(model, _unpack_arrays(sections["params"], "params"), "params")

    norm_arrays = _unpack_arrays(sections["normalizers"], "normalizers")
    expected = 6 if has_target_norm else 4
    if len(norm_arrays) != expected:
        raise CheckpointError(f"section 'normalizers': {len(norm_arrays)} arrays, "
                              f"expected {expected}")
    for name, shift, scale in zip(Featurizer.NORMALIZERS, norm_arrays[::2], norm_arrays[1::2]):
        setattr(featurizer, name, Normalizer(shift=shift, scale=scale))

    resume = None
    if meta.get("has_resume"):
        scalars = _json_section(sections, "resume_meta")
        arrays = _unpack_arrays(sections["resume_arrays"], "resume_arrays")
        half = len(model.shapes)
        if len(arrays) != 2 * half:
            raise CheckpointError(f"section 'resume_arrays': {len(arrays)} arrays, "
                                  f"expected {2 * half} (Adam m and v)")
        try:
            for f in _RESUME_SCALARS:
                _check_resume_scalar(f, scalars[f.name])
            adam = AdamState(m=_vector(model, arrays[:half], "resume_arrays (Adam m)"),
                             v=_vector(model, arrays[half:], "resume_arrays (Adam v)"),
                             **_entries(scalars, AdamState, skip=_MOMENTS))
            sched = PlateauSchedule(**_entries(scalars, PlateauSchedule))
            resume = TrainResumeState(adam=adam, schedule=sched, epoch=scalars["epoch"])
        except KeyError as exc:
            raise CheckpointError(f"section 'resume_meta': no entry {exc}") from exc
    return model, featurizer, resume
