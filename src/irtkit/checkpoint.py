"""Language-neutral JSON checkpoints for point and variational models.

One record per parameter tensor (name, shape, row-major values) plus the
model kind, interaction dimension count, and the id tables of the
training dataset, so any language can round-trip a checkpoint and map
opaque ids back to dense indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

import numpy as np

from .data import Dataset, RawResponse, Responses
from .models import FAMILY, POINT_KINDS, VI_KINDS, Params, tensor_table
from .vi import VIParams, inv_softplus, softplus

FORMAT = "irtkit-checkpoint"
VERSION = 1


@dataclass
class Checkpoint:
    kind: str
    dims: int
    params: Params               # a VIParams for VI kinds
    student_ids: tuple
    question_ids: tuple
    class_ids: tuple
    class_of: np.ndarray

    @property
    def is_vi(self) -> bool:
        return self.kind in VI_KINDS


def _tensor_record(name: str, arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {"name": name, "shape": list(arr.shape), "values": arr.reshape(-1).tolist()}


def save_checkpoint(path: str, kind: str, params: Params, data: Dataset) -> None:
    """Write one record per tensor of the kind's tensor table, sigmas for rhos."""
    table = tensor_table(kind, params.dims, data.num_students, data.num_questions, data.num_classes)
    tensors = [_tensor_record(record, softplus(getattr(params, name)) if name.endswith("_rho")
                              else getattr(params, name))
               for name, (record, _) in table.items()]
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "kind": kind,
        "dims": params.dims,
        "num_students": data.num_students,
        "num_questions": data.num_questions,
        "num_classes": data.num_classes,
        "id_tables": {
            "students": list(data.student_ids),
            "questions": list(data.question_ids),
            "classes": list(data.class_ids),
        },
        "class_of": data.class_of.tolist(),
        "tensors": tensors,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint, checking every tensor against the kind's tensor table.

    An unknown kind, a missing tensor, a shape that disagrees with the id
    tables and dims, a non-finite value or a sigma <= 0 is a ValueError
    naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path}: not an {FORMAT} file")
    if doc.get("version") != VERSION:
        raise ValueError(f"{path}: checkpoint version {doc.get('version')!r}, expected {VERSION}")
    kind = doc.get("kind")
    if kind not in FAMILY:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    ids = doc["id_tables"]
    student_ids, question_ids, class_ids = (tuple(ids[k]) for k in ("students", "questions", "classes"))
    class_of = np.asarray(doc["class_of"], dtype=np.int64)
    if class_of.shape != (len(student_ids),) or np.any((class_of < 0) | (class_of >= len(class_ids))):
        raise ValueError(f"{path}: class_of does not match the id tables")

    dims = int(doc["dims"])
    records = {rec["name"]: rec for rec in doc["tensors"]}
    tensors = {}
    for name, (record, shape) in tensor_table(kind, dims, len(student_ids), len(question_ids),
                                              len(class_ids)).items():
        if record not in records:
            raise ValueError(f"{path}: missing tensor {record!r}")
        values = np.asarray(records[record]["values"], dtype=np.float64)
        if tuple(records[record]["shape"]) != shape or values.size != np.prod(shape):
            raise ValueError(f"{path}: tensor {record!r} has shape {records[record]['shape']}, "
                             f"expected {list(shape)} from the id tables and dims")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{path}: tensor {record!r} holds a non-finite value")
        values = values.reshape(shape)
        if name.endswith("_rho"):
            if np.any(values <= 0):
                raise ValueError(f"{path}: tensor {record!r} holds a sigma <= 0")
            values = np.asarray(inv_softplus(values))
        tensors[name] = values
    params = Params(**tensors) if kind in POINT_KINDS else VIParams(kind=kind, **tensors)
    return Checkpoint(kind=kind, dims=dims, params=params, student_ids=student_ids,
                      question_ids=question_ids, class_ids=class_ids, class_of=class_of)


def align_rows_to_checkpoint(rows: Responses | Iterable[RawResponse], ckpt: Checkpoint) -> Dataset:
    """Index loaded rows through a checkpoint's id tables.

    Every id in the rows must already exist in the checkpoint; predicting
    for ids the model never saw is a hard error naming the offender (the
    first in row order).
    """
    r = rows if isinstance(rows, Responses) else Responses.from_rows(rows)
    s_idx = _index_in(ckpt.student_ids, r.student_ids)[r.student_idx]
    q_idx = _index_in(ckpt.question_ids, r.question_ids)[r.question_idx]
    unknown = (s_idx < 0) | (q_idx < 0)
    if unknown.any():
        i = int(np.argmax(unknown))
        if s_idx[i] < 0:
            raise ValueError(f"student {r.student_ids[r.student_idx[i]]!r} is not in the checkpoint")
        raise ValueError(f"question {r.question_ids[r.question_idx[i]]!r} is not in the checkpoint")
    return Dataset(
        student_idx=s_idx,
        question_idx=q_idx,
        y=r.y,
        num_students=len(ckpt.student_ids),
        num_questions=len(ckpt.question_ids),
        num_classes=len(ckpt.class_ids),
        class_of=ckpt.class_of,
        student_ids=ckpt.student_ids,
        question_ids=ckpt.question_ids,
        class_ids=ckpt.class_ids,
    )


def _index_in(table: tuple, ids: tuple) -> np.ndarray:
    """Each id's position in the table, -1 for an id the table lacks."""
    position = {key: i for i, key in enumerate(table)}
    return np.fromiter(map(position.get, ids, repeat(-1)), np.int64, len(ids))
