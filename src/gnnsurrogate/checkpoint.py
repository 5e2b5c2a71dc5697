"""Binary model checkpoints, format 2:

    MAGIC | <u32 VERSION> <u64 meta length> | meta JSON | vectors | <u32 CRC32>

The meta JSON holds the model's `GnnConfig` fields ('model'), the dtype of
the stored vectors ('dtype'), the featurizer's settings with each normalizer
as [shift, scale] lists or null ('featurizer') and the training-resume
scalars or null ('resume'). The vectors are little-endian and back to back:
`model.flat` ('params'), then, for a resumable file, Adam's m and v. The CRC
covers every byte before it. Errors name the part at fault: 'meta', its
resume scalars ('resume_meta') or the vectors ('params')."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import sys
import zlib
from dataclasses import dataclass

import numpy as np

from .datasets import Featurizer
from .features import Normalizer
from .model import GnnConfig, GnnModel
from .training import AdamState, PlateauSchedule

MAGIC = b"GNNSCKPT"
VERSION = 2
_HEAD = struct.Struct("<IQ")          # version, meta length
_CRC = struct.Struct("<I")
_DTYPES = ("float32", "float64")
_MOMENTS = ("m", "v")


class CheckpointError(ValueError):
    pass


@dataclass
class TrainResumeState:
    adam: AdamState
    schedule: PlateauSchedule
    epoch: int


def _fields(obj, skip=()) -> dict:
    """The dataclass `obj`'s fields, less `skip`, by name in field order."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in skip}


def _entries(entries: dict, kind, skip=()) -> dict:
    """The entries naming the fields of dataclass `kind`, less `skip`."""
    return {f.name: entries[f.name] for f in dataclasses.fields(kind) if f.name not in skip}


# the meta's 'resume' entries: AdamState's scalars, PlateauSchedule's and
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


def _normalizer(name: str, entry) -> Normalizer:
    """The normalizer `name` from its [shift, scale] lists of one length."""
    try:
        shift, scale = np.array(entry, dtype=np.float64)
        if shift.ndim == 1:
            return Normalizer(shift=shift, scale=scale)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} is not [shift, scale] lists of one length")


def save_checkpoint(model: GnnModel, featurizer: Featurizer, path,
                    resume: TrainResumeState | None = None):
    vectors = [model.flat] + ([resume.adam.m, resume.adam.v] if resume is not None else [])
    dtype = model.flat.dtype
    if dtype.name not in _DTYPES or any(v.dtype != dtype or v.shape != model.flat.shape
                                        for v in vectors):
        raise ValueError(f"a checkpoint holds float32 or float64 parameters and Adam "
                         f"moments of their dtype and length, not "
                         f"{[(v.dtype.name, v.size) for v in vectors]}")
    norms = {}
    for name in Featurizer.NORMALIZERS:
        n = getattr(featurizer, name)
        if n is not None and not n.fitted:
            raise ValueError(f"the featurizer's {name} was never fitted")
        norms[name] = None if n is None else [n.shift.tolist(), n.scale.tolist()]
    meta = {
        "model": dataclasses.asdict(model.config),
        "dtype": dtype.name,
        "featurizer": {**_fields(featurizer, skip=Featurizer.NORMALIZERS), **norms},
        "resume": None if resume is None else {
            **_fields(resume.adam, skip=_MOMENTS), **dataclasses.asdict(resume.schedule),
            "epoch": resume.epoch},
    }
    text = json.dumps(meta).encode()
    # on a little-endian machine each vector is written from its own memory
    parts = [MAGIC, _HEAD.pack(VERSION, len(text)), text,
             *(np.ascontiguousarray(v, dtype.newbyteorder("<")) for v in vectors)]
    # written beside `path` and renamed over it, so a failed save leaves any
    # earlier checkpoint there whole
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            crc = 0
            for part in parts:
                fh.write(part)
                crc = zlib.crc32(part, crc)
            fh.write(_CRC.pack(crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path):
    """Returns (model, featurizer, resume_state_or_None). Bytes that are not
    a whole checkpoint of this version raise CheckpointError."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"bad magic {buf[:len(MAGIC)]!r}, expected {MAGIC!r}")
    start, end = len(MAGIC) + _HEAD.size, len(buf) - _CRC.size
    if end < start:
        raise CheckpointError("truncated checkpoint (header)")
    version, meta_len = _HEAD.unpack_from(buf, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"checkpoint version {version}, expected {VERSION}")
    if zlib.crc32(memoryview(buf)[:end]) != _CRC.unpack_from(buf, end)[0]:
        raise CheckpointError("checkpoint CRC mismatch: the file is damaged or truncated")
    if meta_len > end - start:
        raise CheckpointError(f"section 'meta': {meta_len} bytes, but the file holds "
                              f"{end - start}")
    try:
        meta = json.loads(buf[start:start + meta_len].decode())
    except ValueError as exc:    # bad UTF-8 or JSON
        raise CheckpointError(f"section 'meta': {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError("section 'meta' is not a JSON object")

    try:
        config = GnnConfig(**meta["model"])
        entries = meta["featurizer"]
        featurizer = Featurizer(**_entries(entries, Featurizer, skip=Featurizer.NORMALIZERS))
        for name in Featurizer.NORMALIZERS:
            if entries[name] is not None or name != "target_norm":
                setattr(featurizer, name, _normalizer(name, entries[name]))
        scalars = meta["resume"]
        dtype = meta["dtype"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"section 'meta': bad model or featurizer entry: {exc!r}") from exc
    if dtype not in _DTYPES:
        raise CheckpointError(f"section 'meta': dtype {dtype!r}, expected one of {_DTYPES}")
    if not isinstance(scalars, (dict, type(None))):
        raise CheckpointError("section 'resume_meta' is not a JSON object or null")
    # the encoding fixes the node and edge feature columns, which the
    # normalizers and the encoders take (no config field fixes target_norm's)
    for side in ("node", "edge"):
        width = getattr(featurizer, f"{side}_feature_width")
        for name, size in ((f"{side}_norm", getattr(featurizer, f"{side}_norm").shift.size),
                           (f"{side}_input_size", getattr(config, f"{side}_input_size"))):
            if size != width:
                raise CheckpointError(
                    f"section 'meta': entry {name!r} is {size} wide, but the "
                    f"{featurizer.encoding_kind} encoding's {side} features are {width} wide")

    # the parameter vector, then Adam's m and v for a resumable file
    count, itemsize = 1 if scalars is None else 3, np.dtype(dtype).itemsize
    size = end - start - meta_len
    if size % (count * itemsize):
        raise CheckpointError(f"section 'params': {size} bytes, not {count} whole "
                              f"{dtype} vector(s)")
    flat, *moments = [v.astype(dtype) for v in np.split(np.frombuffer(
        buf, np.dtype(dtype).newbyteorder("<"), size // itemsize, start + meta_len), count)]
    try:
        model = GnnModel(config, flat)
    except ValueError as exc:
        raise CheckpointError(f"section 'params': {exc}") from exc
    if scalars is None:
        return model, featurizer, None
    try:
        for f in _RESUME_SCALARS:
            _check_resume_scalar(f, scalars[f.name])
    except KeyError as exc:
        raise CheckpointError(f"section 'resume_meta': no entry {exc}") from exc
    m, v = moments
    adam = AdamState(m=m, v=v, **_entries(scalars, AdamState, skip=_MOMENTS))
    sched = PlateauSchedule(**_entries(scalars, PlateauSchedule))
    return model, featurizer, TrainResumeState(adam=adam, schedule=sched, epoch=scalars["epoch"])
