"""Language-neutral JSON checkpoints for point and variational models.

One record per parameter tensor (name, shape, row-major values) plus the
model kind, interaction dimension count, and the id tables of the
training dataset, so any language can round-trip a checkpoint and map
opaque ids back to dense indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .models import (
    CLASS_INTERACTION,
    INTERACTION,
    POINT_KINDS,
    RASCH,
    ClassInteractionParams,
    InteractionParams,
    ModelSpec,
    RaschParams,
)
from .vi import CLASS_INTERACTION_VI, INTERACTION_VI, RASCH_VI, VI_KINDS, VIParams, inv_softplus, softplus

FORMAT = "irtkit-checkpoint"
VERSION = 1

_POINT_TENSORS = {
    RASCH: ("ability", "easiness"),
    INTERACTION: ("ability", "easiness", "skill", "demand"),
    CLASS_INTERACTION: ("ability", "easiness", "class_skill", "demand"),
}
# VI sigmas are serialized as standard deviations, not raw values.
_VI_TENSORS = {
    RASCH_VI: ("ability_mu", "ability_sigma", "easiness"),
    INTERACTION_VI: ("ability_mu", "ability_sigma", "easiness", "demand", "skill_mu", "skill_sigma"),
    CLASS_INTERACTION_VI: ("ability_mu", "ability_sigma", "easiness", "demand",
                           "class_skill_mu", "class_skill_sigma"),
}


@dataclass
class Checkpoint:
    kind: str
    dims: int
    params: object               # point container or VIParams
    student_ids: tuple
    question_ids: tuple
    class_ids: tuple
    class_of: np.ndarray

    @property
    def is_vi(self) -> bool:
        return self.kind in VI_KINDS

    def model_spec(self) -> Optional[ModelSpec]:
        return ModelSpec(self.kind, self.dims) if self.kind in POINT_KINDS else None


def _tensor_record(name: str, arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {"name": name, "shape": list(arr.shape), "values": arr.reshape(-1).tolist()}


def save_checkpoint(path: str, kind: str, params, data: Dataset, dims: int = 0) -> None:
    if kind in POINT_KINDS:
        names = _POINT_TENSORS[kind]
        tensors = [_tensor_record(n, getattr(params, n)) for n in names]
    elif kind in VI_KINDS:
        tensors = []
        for n in _VI_TENSORS[kind]:
            if n.endswith("_sigma"):
                tensors.append(_tensor_record(n, softplus(getattr(params, n[:-6] + "_rho"))))
            else:
                tensors.append(_tensor_record(n, getattr(params, n)))
        dims = params.dims
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "kind": kind,
        "dims": int(dims),
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
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path}: not an {FORMAT} file")
    if doc.get("version") != VERSION:
        raise ValueError(f"{path}: checkpoint version {doc.get('version')!r}, expected {VERSION}")
    kind = doc["kind"]
    dims = int(doc["dims"])
    tensors = {}
    for rec in doc["tensors"]:
        arr = np.asarray(rec["values"], dtype=np.float64).reshape(rec["shape"])
        tensors[rec["name"]] = arr

    if kind == RASCH:
        params = RaschParams(tensors["ability"], tensors["easiness"])
    elif kind == INTERACTION:
        params = InteractionParams(tensors["ability"], tensors["easiness"],
                                   tensors["skill"], tensors["demand"])
    elif kind == CLASS_INTERACTION:
        params = ClassInteractionParams(tensors["ability"], tensors["easiness"],
                                        tensors["class_skill"], tensors["demand"])
    elif kind in VI_KINDS:
        params = VIParams(
            kind,
            ability_mu=tensors["ability_mu"],
            ability_rho=np.asarray(inv_softplus(tensors["ability_sigma"])),
            easiness=tensors["easiness"],
            demand=tensors.get("demand"),
            skill_mu=tensors.get("skill_mu"),
            skill_rho=None if "skill_sigma" not in tensors else np.asarray(inv_softplus(tensors["skill_sigma"])),
            class_skill_mu=tensors.get("class_skill_mu"),
            class_skill_rho=None if "class_skill_sigma" not in tensors
            else np.asarray(inv_softplus(tensors["class_skill_sigma"])),
        )
    else:
        raise ValueError(f"{path}: unknown model kind {kind!r}")

    return Checkpoint(
        kind=kind,
        dims=dims,
        params=params,
        student_ids=tuple(doc["id_tables"]["students"]),
        question_ids=tuple(doc["id_tables"]["questions"]),
        class_ids=tuple(doc["id_tables"]["classes"]),
        class_of=np.asarray(doc["class_of"], dtype=np.int64),
    )


def align_rows_to_checkpoint(rows, ckpt: Checkpoint) -> Dataset:
    """Index loaded rows through a checkpoint's id tables.

    Every id in the rows must already exist in the checkpoint; predicting
    for ids the model never saw is a hard error naming the offender.
    """
    from .data import binarize

    s_table = {sid: i for i, sid in enumerate(ckpt.student_ids)}
    q_table = {qid: i for i, qid in enumerate(ckpt.question_ids)}
    s_idx = np.empty(len(rows), dtype=np.int64)
    q_idx = np.empty(len(rows), dtype=np.int64)
    y = np.empty(len(rows), dtype=np.int8)
    for i, r in enumerate(rows):
        if r.student_id not in s_table:
            raise ValueError(f"student {r.student_id!r} is not in the checkpoint")
        if r.question_id not in q_table:
            raise ValueError(f"question {r.question_id!r} is not in the checkpoint")
        s_idx[i] = s_table[r.student_id]
        q_idx[i] = q_table[r.question_id]
        y[i] = binarize(r)
    return Dataset(
        student_idx=s_idx,
        question_idx=q_idx,
        y=y,
        num_students=len(ckpt.student_ids),
        num_questions=len(ckpt.question_ids),
        num_classes=len(ckpt.class_ids),
        class_of=ckpt.class_of,
        student_ids=ckpt.student_ids,
        question_ids=ckpt.question_ids,
        class_ids=ckpt.class_ids,
    )
