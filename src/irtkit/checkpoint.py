"""Language-neutral JSON checkpoints for point and variational models.

One record per parameter tensor (name, shape, row-major values) plus the
model kind, interaction dimension count, and the index of the training
dataset (its id tables and class_of), so any language can round-trip a
checkpoint and map opaque ids back to dense indices. A checkpoint loads
as the params and that index: a Dataset without responses, through
which align_rows_to_checkpoint indexes the responses of a loaded
Dataset.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from itertools import repeat

import numpy as np

from .data import Dataset, dataset_from_arrays
from .models import CLASS_INTERACTION, FAMILY, RASCH, Params, check_shapes, inv_softplus, softplus, tensor_table

FORMAT = "irtkit-checkpoint"
VERSION = 1
_JSON_ITEMS = 1024   # list items a checkpoint's json.dumps calls encode at a time


def _tensor_record(name: str, arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {"name": name, "shape": list(arr.shape), "values": arr.reshape(-1).tolist()}


def _dump(value, fh) -> None:
    """Write json.dump(value, fh)'s text, each scalar or run of up to _JSON_ITEMS scalars through json.dumps.

    json.dumps's C encoder is about twice as fast as json.dump's Python
    one, but holds about 70 bytes an item until it joins them: a whole
    checkpoint in one call would hold six times its text.
    """
    if isinstance(value, dict):
        fh.write("{")
        for i, (key, item) in enumerate(value.items()):
            fh.write(f"{', ' * bool(i)}{json.dumps(key)}: ")
            _dump(item, fh)
        fh.write("}")
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        fh.write("[")
        for i, item in enumerate(value):
            fh.write(", " * bool(i))
            _dump(item, fh)
        fh.write("]")
    elif isinstance(value, list):
        fh.write("[")
        for lo in range(0, len(value), _JSON_ITEMS):
            fh.write(", " * bool(lo) + json.dumps(value[lo:lo + _JSON_ITEMS])[1:-1])
        fh.write("]")
    else:
        fh.write(json.dumps(value))


def write_json(path: str, doc) -> None:
    """Write json.dumps(doc)'s text and a newline, through _dump."""
    with open(path, "w", encoding="utf-8") as fh:
        _dump(doc, fh)
        fh.write("\n")


def save_checkpoint(path: str, params: Params, data: Dataset) -> None:
    """Write one record per tensor of the params' kind's tensor table, sigmas for rhos, once shapes match data."""
    table = tensor_table(params.kind, params.dims, data.num_students, data.num_questions, data.num_classes)
    check_shapes(params, table, "checkpoint")
    tensors = [_tensor_record(record, softplus(getattr(params, name)) if name.endswith("_rho")
                              else getattr(params, name))
               for name, (record, _) in table.items()]
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "kind": params.kind,
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
    write_json(path, doc)


def load_checkpoint(path: str) -> tuple[Params, Dataset]:
    """Read a checkpoint as its params and its index, a Dataset without responses.

    Every tensor is checked against the kind's tensor table. Text that is
    not UTF-8 JSON, a top-level value that is not an object, a missing or
    mistyped field or tensor record, an id table that is not a list of
    distinct strings, counts that disagree with the id tables, a
    non-integer class, a kind that is not a known kind's name, dims that
    disagree with the kind (0 for rasch kinds, >= 1 otherwise), a tensor
    record whose name appears twice or is not in the kind's tensor table,
    a missing tensor, a shape that disagrees with the id tables and dims,
    a non-numeric or non-finite value or a sigma <= 0 is a ValueError
    naming the file (and the tensor).
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValueError(f"{path}: not an {FORMAT} file")
    version = doc.get("version")
    if type(version) is not int or version != VERSION:  # JSON true and 1.0 also equal 1
        raise ValueError(f"{path}: checkpoint version {version!r}, expected {VERSION}")
    kind = _field(path, doc, "kind", str)
    if kind not in FAMILY:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    ids = _field(path, doc, "id_tables", dict)
    tables = [_id_table(path, ids, k) for k in ("students", "questions", "classes")]
    for key, table in zip(("num_students", "num_questions", "num_classes"), tables):
        if _field(path, doc, key, int) != len(table):
            raise ValueError(f"{path}: {key} is {doc[key]}, but the id table holds {len(table)}")
    S, Q, C = map(len, tables)
    class_of = _field(path, doc, "class_of", list)
    if any(type(c) is not int for c in class_of):
        raise ValueError(f"{path}: class_of holds a non-integer entry")
    if len(class_of) != S or not all(0 <= c < C for c in class_of):
        raise ValueError(f"{path}: class_of does not match the id tables")
    class_of = np.array(class_of, dtype=np.int64)

    dims = _field(path, doc, "dims", int)
    rasch = FAMILY[kind] == RASCH
    if (dims != 0) if rasch else (dims < 1):
        raise ValueError(f"{path}: dims is {dims}, but {kind} needs dims {'0' if rasch else '>= 1'}")
    table = tensor_table(kind, dims, S, Q, C)
    known = {record for record, _ in table.values()}
    records = {}
    for i, rec in enumerate(_field(path, doc, "tensors", list)):
        if not isinstance(rec, dict) or not isinstance(rec.get("name"), str):
            raise ValueError(f"{path}: tensor record {i} is not an object with a string 'name'")
        if rec["name"] in records:
            raise ValueError(f"{path}: tensor record {rec['name']!r} appears twice")
        if rec["name"] not in known:
            raise ValueError(f"{path}: tensor record {rec['name']!r} is not a tensor of kind {kind!r}")
        records[rec["name"]] = rec
    tensors = {}
    for name, (record, shape) in table.items():
        if record not in records:
            raise ValueError(f"{path}: missing tensor {record!r}")
        got, values = (_field(path, records[record], key, list, f"tensor {record!r} ")
                       for key in ("shape", "values"))
        try:
            values = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{path}: tensor {record!r} holds a value that is not a float") from None
        if tuple(got) != shape or values.size != np.prod(shape):
            raise ValueError(f"{path}: tensor {record!r} has shape {got}, "
                             f"expected {list(shape)} from the id tables and dims")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{path}: tensor {record!r} holds a non-finite value")
        values = values.reshape(shape)
        if name.endswith("_rho"):
            if np.any(values <= 0):
                raise ValueError(f"{path}: tensor {record!r} holds a sigma <= 0")
            values = np.asarray(inv_softplus(values))
        tensors[name] = values
    return Params(kind=kind, **tensors), dataset_from_arrays((), (), (), class_of, *tables)


_JSON_TYPES = {dict: "object", list: "array", int: "integer", str: "string"}


def _field(path: str, doc: dict, key: str, kind: type, owner: str = ""):
    """doc[key], which must be present and a JSON `kind`; else a ValueError naming the file and owner."""
    value = doc.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{path}: {owner}field {key!r} is missing or not a JSON {_JSON_TYPES[kind]}")
    return value


def _id_table(path: str, ids: dict, key: str) -> tuple:
    """The id table ids[key], which must be a JSON array of distinct strings."""
    table = tuple(_field(path, ids, key, list, "id_tables "))
    if not all(isinstance(i, str) for i in table):
        raise ValueError(f"{path}: id table {key!r} holds an id that is not a string")
    if len(set(table)) != len(table):
        twice = next(i for i, n in Counter(table).items() if n > 1)
        raise ValueError(f"{path}: id table {key!r} holds {twice!r} twice")
    return table


def align_rows_to_checkpoint(rows: Dataset, index: Dataset, kind: str) -> Dataset:
    """Index a loaded Dataset's responses through a checkpoint's id tables, for a model of the given kind.

    The rows are a Dataset, so they passed build_dataset's checks. Every
    id in the rows must already exist in the checkpoint; predicting for
    ids the model never saw is a hard error naming the offender (the
    first in row order). A class kind predicts through the checkpoint's
    class of each student, so for one the first row whose student's class
    is not its class in the index (an unknown class included) is a
    ValueError naming the student and both classes.
    """
    s_idx = _index_in(index.student_ids, rows.student_ids)[rows.student_idx]
    q_idx = _index_in(index.question_ids, rows.question_ids)[rows.question_idx]
    unknown = (s_idx < 0) | (q_idx < 0)
    if unknown.any():
        i = int(np.argmax(unknown))
        if s_idx[i] < 0:
            raise ValueError(f"student {rows.student_ids[rows.student_idx[i]]!r} is not in the checkpoint")
        raise ValueError(f"question {rows.question_ids[rows.question_idx[i]]!r} is not in the checkpoint")
    if FAMILY[kind] == CLASS_INTERACTION:
        trained = index.class_of[s_idx]
        given = rows.class_of[rows.student_idx]
        if (wrong := np.flatnonzero(_index_in(index.class_ids, rows.class_ids)[given] != trained)).size:
            i = wrong[0]
            student, had, got = (rows.student_ids[rows.student_idx[i]], index.class_ids[trained[i]],
                                 rows.class_ids[given[i]])
            raise ValueError(f"student {student!r} is in class {had!r} in the checkpoint, not {got!r}")
    return replace(index, student_idx=s_idx, question_idx=q_idx, y=rows.y)


def _index_in(table: tuple, ids: tuple) -> np.ndarray:
    """Each id's position in the table, -1 for an id the table lacks."""
    position = {key: i for i, key in enumerate(table)}
    return np.fromiter(map(position.get, ids, repeat(-1)), np.int64, len(ids))
