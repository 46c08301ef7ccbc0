"""Checkpoint serialization round-trips for point and variational models."""

import copy
import io
import json
from itertools import cycle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irtkit import checkpoint
from irtkit.checkpoint import VERSION, align_rows_to_checkpoint, load_checkpoint, save_checkpoint
from irtkit.data import build_dataset, load_binary_csv, write_binary_csv
from irtkit.optim import TrainConfig, init_params, sgd_train
from irtkit.models import VI_KINDS, Params, inv_softplus, predict_proba_array, softplus
from irtkit.synth import SynthConfig, generate_synthetic
from irtkit.vi import VIConfig, train_vi

from oracles import IDS, Row, dataset_from_arrays, responses


def _dataset():
    data, _ = generate_synthetic(SynthConfig(students=8, questions=5, dims=2, num_classes=3,
                                             class_effect_std=0.5, mean_bq=0.0, seed=0))
    return data


def _record_names(path):
    return [rec["name"] for rec in json.loads(open(path, encoding="utf-8").read())["tensors"]]


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# the on-disk record names and their order are part of the format
_RECORDS = {
    "rasch": ["ability", "easiness"],
    "interaction": ["ability", "easiness", "skill", "demand"],
    "class-interaction": ["ability", "easiness", "class_skill", "demand"],
    "rasch-vi": ["ability_mu", "ability_sigma", "easiness"],
    "interaction-vi": ["ability_mu", "ability_sigma", "easiness", "demand", "skill_mu", "skill_sigma"],
    "class-interaction-vi": ["ability_mu", "ability_sigma", "easiness", "demand",
                             "class_skill_mu", "class_skill_sigma"],
}


@pytest.mark.parametrize("kind,dims", [("rasch", 0), ("interaction", 2), ("class-interaction", 2)])
def test_point_roundtrip(tmp_path, kind, dims):
    data = _dataset()
    params = init_params(kind, dims, data.num_students, data.num_questions, data.num_classes,
                         np.random.default_rng(1), 0.5)
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, params, data)
    loaded, index = load_checkpoint(path)
    assert loaded.kind == kind and loaded.dims == dims and loaded.kind not in VI_KINDS
    assert _record_names(path) == _RECORDS[kind]
    assert loaded.tensors().keys() == params.tensors().keys()
    for name, arr in params.tensors().items():
        _assert_same_bits(getattr(loaded, name), arr)
    assert index.student_ids == data.student_ids
    assert np.array_equal(index.class_of, data.class_of)


@pytest.mark.parametrize("kind,dims", [("rasch-vi", 0), ("interaction-vi", 2),
                                       ("class-interaction-vi", 2)])
def test_vi_roundtrip(tmp_path, kind, dims):
    data = _dataset()
    params, _ = train_vi(kind, data, VIConfig(samples=2, epochs=3, learning_rate=0.01, seed=2),
                         dims=dims)
    path = str(tmp_path / "vi.json")
    save_checkpoint(path, params, data)
    loaded, _ = load_checkpoint(path)
    assert loaded.kind in VI_KINDS and loaded.dims == dims
    assert _record_names(path) == _RECORDS[kind]
    assert loaded.tensors().keys() == params.tensors().keys()
    for name, arr in params.tensors().items():
        # the file holds sigma = softplus(rho); loading inverts exactly that
        want = inv_softplus(softplus(arr)) if name.endswith("_rho") else arr
        _assert_same_bits(getattr(loaded, name), want)
    np.testing.assert_allclose(loaded.ability_sigma, params.ability_sigma, rtol=1e-12)


def test_sgd_accepts_loaded_checkpoint_as_warm_start(tmp_path):
    data = _dataset()
    params, _ = sgd_train("rasch", data, TrainConfig(epochs=3, seed=0))
    path = str(tmp_path / "warm.json")
    save_checkpoint(path, params, data)
    warm, _ = load_checkpoint(path)
    again, _ = sgd_train("rasch", data, TrainConfig(epochs=1, learning_rate=1e-12, seed=1),
                         warm_start=warm)
    np.testing.assert_allclose(again.ability, params.ability, atol=1e-9)


@st.composite
def _indexed_fits(draw):
    """Params of a drawn kind over a dataset whose id tables hold commas, quotes, CR/LF and non-ASCII ids."""
    tables = [draw(st.lists(IDS, min_size=1, max_size=n, unique=True)) for n in (6, 5, 3)]
    num_students, num_questions, num_classes = map(len, tables)
    class_of = draw(st.lists(st.integers(0, num_classes - 1), min_size=num_students, max_size=num_students))
    cells = draw(st.lists(st.tuples(st.integers(0, num_students - 1), st.integers(0, num_questions - 1)),
                          min_size=1, unique=True))
    y = draw(st.lists(st.integers(0, 1), min_size=len(cells), max_size=len(cells)))
    data = dataset_from_arrays(*zip(*cells), y, class_of, *tables)
    kind = draw(st.sampled_from(sorted(_RECORDS)))
    dims = 0 if kind.startswith("rasch") else draw(st.integers(1, 2))
    params = init_params(kind, dims, num_students, num_questions, num_classes,
                         np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 0.5, sigma_init=0.8)
    return params, data


@settings(max_examples=50, deadline=None)
@given(fit=_indexed_fits())
def test_roundtrip_keeps_id_tables_tensors_and_row_alignment(tmp_path_factory, fit):
    params, data = fit
    work = tmp_path_factory.mktemp("ckpt")
    path, rows = str(work / "ckpt.json"), str(work / "rows.csv")
    save_checkpoint(path, params, data)
    loaded, index = load_checkpoint(path)
    assert (index.student_ids, index.question_ids, index.class_ids) == \
        (data.student_ids, data.question_ids, data.class_ids)
    assert index.class_of.tolist() == data.class_of.tolist()
    assert loaded.tensors().keys() == params.tensors().keys()
    for name, arr in params.tensors().items():
        # the file holds sigma = softplus(rho); loading inverts exactly that
        _assert_same_bits(getattr(loaded, name), inv_softplus(softplus(arr)) if name.endswith("_rho") else arr)
    write_binary_csv(data, rows)
    aligned = align_rows_to_checkpoint(load_binary_csv(rows), index, params.kind)
    for name in ("student_idx", "question_idx", "y"):
        assert getattr(aligned, name).tolist() == getattr(data, name).tolist()


def test_align_rows_maps_through_checkpoint_tables(tmp_path):
    data = _dataset()
    params, _ = sgd_train("rasch", data, TrainConfig(epochs=2, seed=0))
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, params, data)
    _, index = load_checkpoint(path)
    rows = [Row("s3", "q2", "c0", 1, 1), Row("s0", "q4", "c0", 0, 1)]
    aligned = align_rows_to_checkpoint(build_dataset(*responses(rows)), index, "rasch")
    assert aligned.student_idx.tolist() == [3, 0]
    assert aligned.question_idx.tolist() == [2, 4]
    with pytest.raises(ValueError, match="not in the checkpoint"):
        align_rows_to_checkpoint(build_dataset(*responses([Row("ghost", "q0", "c0", 1, 1)])), index, "rasch")


@pytest.mark.parametrize("klass", ["c1", "c9"], ids=["relabelled", "unknown"])
def test_class_kinds_refuse_a_row_outside_its_students_class(klass):
    """A class kind predicts through the index's class of each student, so a row must give that class."""
    index = dataset_from_arrays((), (), (), [0, 1], ("s0", "s1"), ("q0",), ("c0", "c1"))
    rows = build_dataset(*responses([Row("s1", "q0", "c1", 1, 1), Row("s0", "q0", klass, 1, 1)]))
    for kind in ("class-interaction", "class-interaction-vi"):
        with pytest.raises(ValueError) as exc:
            align_rows_to_checkpoint(rows, index, kind)
        assert str(exc.value) == f"student 's0' is in class 'c0' in the checkpoint, not {klass!r}"
    for kind in ("rasch", "interaction-vi"):   # the rows' classes are not used
        aligned = align_rows_to_checkpoint(rows, index, kind)
        assert aligned.student_idx.tolist() == [1, 0] and aligned.class_of.tolist() == [0, 1]


def test_unknown_file_rejected(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(ValueError, match="not an irtkit-checkpoint"):
        load_checkpoint(str(path))


def test_other_version_rejected(tmp_path):
    data = _dataset()
    params = init_params("rasch", 0, data.num_students, data.num_questions, data.num_classes,
                         np.random.default_rng(1), 0.5)
    path = tmp_path / "future.json"
    save_checkpoint(str(path), params, data)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["version"] = VERSION + 1
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"future\.json: checkpoint version {VERSION + 1}, expected {VERSION}"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("version", [True, float(VERSION), str(VERSION)])
def test_version_that_is_not_an_integer_rejected(tmp_path, version):
    def edit(doc):
        doc["version"] = version

    with pytest.raises(ValueError, match=rf"edited\.json: checkpoint version {version!r}, expected {VERSION}$"):
        load_checkpoint(_edited_checkpoint(tmp_path, edit))


def _save_small(path, kind):
    """Save a small checkpoint of a kind (2 dims unless rasch) to path."""
    data = _dataset()
    if kind.endswith("-vi"):
        params, _ = train_vi(kind, data, VIConfig(epochs=0, seed=1), dims=2)
    else:
        params = init_params(kind, 2, data.num_students, data.num_questions,
                             data.num_classes, np.random.default_rng(1), 0.5)
    save_checkpoint(str(path), params, data)


def _edited_checkpoint(tmp_path, edit, kind="rasch"):
    """Save a small checkpoint of a kind, apply edit to its JSON document, write it back."""
    path = tmp_path / "edited.json"
    _save_small(path, kind)
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _record(doc, name):
    return next(rec for rec in doc["tensors"] if rec["name"] == name)


def test_unknown_kind_rejected_before_tensors_are_read(tmp_path):
    def edit(doc):
        doc["kind"] = "bogus"
        del doc["tensors"]
    path = _edited_checkpoint(tmp_path, edit)
    with pytest.raises(ValueError, match=r"edited\.json: unknown model kind 'bogus'"):
        load_checkpoint(path)


def test_missing_tensor_rejected(tmp_path):
    path = _edited_checkpoint(tmp_path, lambda doc: doc["tensors"].remove(_record(doc, "demand")),
                              kind="class-interaction")
    with pytest.raises(ValueError, match=r"edited\.json: missing tensor 'demand'"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind,name", [("rasch", "ability"), ("interaction", "skill"),
                                       ("class-interaction-vi", "class_skill_sigma")])
def test_shape_disagreeing_with_id_tables_rejected(tmp_path, kind, name):
    def edit(doc):
        rec = _record(doc, name)
        rec["shape"][0] -= 1
        rec["values"] = rec["values"][:int(np.prod(rec["shape"]))]
    path = _edited_checkpoint(tmp_path, edit, kind=kind)
    with pytest.raises(ValueError, match=rf"edited\.json: tensor '{name}' has shape"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind,name,value,message", [
    ("rasch", "ability", float("nan"), "non-finite"),
    ("interaction", "demand", float("inf"), "non-finite"),
    ("rasch-vi", "ability_sigma", float("-inf"), "non-finite"),
    ("interaction-vi", "skill_sigma", 0.0, "sigma <= 0"),
])
def test_out_of_range_value_rejected(tmp_path, kind, name, value, message):
    def edit(doc):
        _record(doc, name)["values"][0] = value
    path = _edited_checkpoint(tmp_path, edit, kind=kind)
    with pytest.raises(ValueError, match=rf"edited\.json: tensor '{name}' holds a {message}"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["dims", "id_tables", "class_of", "tensors"])
@pytest.mark.parametrize("edit", ["drop", "null"])
def test_missing_or_null_field_rejected(tmp_path, key, edit):
    def apply(doc):
        if edit == "drop":
            del doc[key]
        else:
            doc[key] = None
    path = _edited_checkpoint(tmp_path, apply)
    with pytest.raises(ValueError, match=rf"edited\.json: field '{key}' is missing or not a JSON"):
        load_checkpoint(path)


def test_top_level_array_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text('[{"format": "irtkit-checkpoint"}]', encoding="utf-8")
    with pytest.raises(ValueError, match=r"list\.json: not an irtkit-checkpoint file"):
        load_checkpoint(str(path))


def test_truncated_json_rejected(tmp_path):
    path = _edited_checkpoint(tmp_path, lambda doc: None)
    text = open(path, encoding="utf-8").read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[:len(text) // 2])
    with pytest.raises(ValueError, match=r"edited\.json: not valid JSON"):
        load_checkpoint(path)


def _set_record(doc, name, value):
    doc["tensors"][doc["tensors"].index(_record(doc, name))] = value


@pytest.mark.parametrize("edit,message", [
    (lambda doc: _set_record(doc, "easiness", 7), r"tensor record 1 is not an object with a string 'name'"),
    (lambda doc: _record(doc, "easiness").pop("name"), r"tensor record 1 is not an object with a string 'name'"),
    (lambda doc: _record(doc, "easiness").pop("shape"),
     r"tensor 'easiness' field 'shape' is missing or not a JSON array"),
    (lambda doc: _record(doc, "easiness").pop("values"),
     r"tensor 'easiness' field 'values' is missing or not a JSON array"),
    (lambda doc: _record(doc, "easiness").update(shape=None),
     r"tensor 'easiness' field 'shape' is missing or not a JSON array"),
    (lambda doc: _record(doc, "easiness")["values"].__setitem__(0, "x"),
     r"tensor 'easiness' holds a value that is not a float"),
    (lambda doc: _record(doc, "easiness")["values"].__setitem__(0, 10**400),
     r"tensor 'easiness' holds a value that is not a float"),
    (lambda doc: doc["tensors"].append(dict(_record(doc, "ability"), values=[9.0] * doc["num_students"])),
     r"tensor record 'ability' appears twice"),
    (lambda doc: doc["tensors"].append(dict(_record(doc, "ability"), name="class_skill")),
     r"tensor record 'class_skill' is not a tensor of kind 'rasch'"),
    (lambda doc: doc["class_of"].__setitem__(0, 0.5), r"class_of holds a non-integer entry"),
    (lambda doc: doc["class_of"].__setitem__(0, 10**30), r"class_of does not match the id tables"),
    (lambda doc: doc["class_of"].__setitem__(0, "0"), r"class_of holds a non-integer entry"),
])
def test_malformed_tensor_record_or_class_rejected(tmp_path, edit, message):
    path = _edited_checkpoint(tmp_path, edit)
    with pytest.raises(ValueError, match=rf"edited\.json: {message}"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["num_students", "num_questions", "num_classes"])
@pytest.mark.parametrize("edit", ["drop", "off by one"])
def test_counts_disagreeing_with_id_tables_rejected(tmp_path, key, edit):
    def apply(doc):
        if edit == "drop":
            del doc[key]
        else:
            doc[key] += 1
    path = _edited_checkpoint(tmp_path, apply)
    message = "field '{key}' is missing or not a JSON integer" if edit == "drop" else "{key} is \\d+, but"
    with pytest.raises(ValueError, match=rf"edited\.json: {message.format(key=key)}"):
        load_checkpoint(path)


def test_non_utf8_file_rejected(tmp_path):
    path = _edited_checkpoint(tmp_path, lambda doc: None)
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(raw.replace(b'"students": ["', b'"students": ["\xff', 1))   # a byte no UTF-8 text holds
    with pytest.raises(ValueError, match=r"edited\.json: not UTF-8 text"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind,dims", [("rasch", 1), ("rasch-vi", 2), ("interaction", 0),
                                       ("class-interaction-vi", 0)])
def test_dims_disagreeing_with_kind_rejected(tmp_path, kind, dims):
    path = _edited_checkpoint(tmp_path, lambda doc: doc.update(dims=dims), kind=kind)
    with pytest.raises(ValueError, match=rf"edited\.json: dims is {dims}, but {kind} needs dims"):
        load_checkpoint(path)


def test_params_lacking_or_holding_extra_tensors_rejected():
    """The kind lives in the params, so a checkpoint cannot be written under a kind whose tensors they lack."""
    data = _dataset()
    point = init_params("interaction", 2, data.num_students, data.num_questions, data.num_classes,
                        np.random.default_rng(1), 0.5)
    with pytest.raises(ValueError, match="^interaction params must hold exactly ability, easiness, vec, demand; "
                                         "got ability, easiness$"):
        Params(point.ability, point.easiness, kind="interaction")
    with pytest.raises(ValueError, match="^rasch params must hold exactly ability, easiness; "
                                         "got ability, easiness, vec, demand$"):
        Params(point.ability, point.easiness, point.vec, point.demand, kind="rasch")
    with pytest.raises(ValueError, match="^rasch-vi params must hold exactly ability, ability_rho, easiness; "
                                         "got ability, easiness$"):
        Params(point.ability, point.easiness, kind="rasch-vi")


@pytest.mark.parametrize("kind", ["rasch", "interaction", "class-interaction-vi"])
def test_save_against_another_index_is_refused_before_the_file_opens(tmp_path, kind):
    """A checkpoint whose tensors disagree with its id tables would not load, so it is not written."""
    data = _dataset()
    params = init_params(kind, 2, data.num_students + 1, data.num_questions, data.num_classes,
                         np.random.default_rng(1), 0.5)
    path, S = tmp_path / "ckpt.json", data.num_students
    with pytest.raises(ValueError, match=rf"^checkpoint shape mismatch for ability: expected \({S},\), "
                                         rf"got \({S + 1},\)$"):
        save_checkpoint(str(path), params, data)
    assert not path.exists()


@pytest.mark.parametrize("kind", [{"name": "rasch"}, ["rasch"]], ids=["object", "array"])
def test_kind_that_is_not_a_string_rejected(tmp_path, kind):
    path = _edited_checkpoint(tmp_path, lambda doc: doc.update(kind=kind))
    with pytest.raises(ValueError, match=r"edited\.json: field 'kind' is missing or not a JSON string"):
        load_checkpoint(path)


@pytest.mark.parametrize("table,edit,message", [
    ("students", lambda ids: ids.__setitem__(2, ids[1]), "holds 's1' twice"),
    ("questions", lambda ids: ids.append(ids[0]), "holds 'q0' twice"),
    ("classes", lambda ids: ids.__setitem__(0, ids[2]), "holds 'c2' twice"),
    ("students", lambda ids: ids.__setitem__(1, ["s1"]), "holds an id that is not a string"),
    ("students", lambda ids: ids.__setitem__(1, 1), "holds an id that is not a string"),
    ("questions", lambda ids: ids.__setitem__(0, None), "holds an id that is not a string"),
], ids=["duplicate student", "duplicate question", "duplicate class", "array id", "integer id", "null id"])
def test_id_table_that_is_not_distinct_strings_rejected(tmp_path, table, edit, message):
    """A duplicate id would align rows to the wrong index; another type would fail at alignment."""
    path = _edited_checkpoint(tmp_path, lambda doc: edit(doc["id_tables"][table]))
    with pytest.raises(ValueError, match=rf"edited\.json: id table '{table}' {message}"):
        load_checkpoint(path)


_FUZZED_KINDS = ("rasch", "class-interaction", "interaction-vi")
# stand-ins of every JSON type, for a value whose type is changed
_OTHER_VALUES = (None, True, 7, 1.5, "x", [], {}, [1, "x"], {"a": 1})


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory and the text of a valid checkpoint of each fuzzed kind."""
    directory = tmp_path_factory.mktemp("fuzz")
    texts = {}
    for kind in _FUZZED_KINDS:
        _save_small(directory / "valid.json", kind)
        texts[kind] = (directory / "valid.json").read_text(encoding="utf-8")
    return directory, texts


def _mutated(text: str, picks) -> str:
    """The text of a checkpoint with one drawn mutation: a value at any depth is dropped,
    set to null, given another type or reshaped, or the text is cut short."""
    mutation = picks.draw(st.sampled_from(["drop", "null", "retype", "reshape", "cut"]))
    if mutation == "cut":
        return text[:picks.draw(st.integers(0, len(text) - 1))]
    holder = [json.loads(text)]
    parent, key = holder, 0
    while isinstance(parent[key], (dict, list)) and parent[key] and picks.draw(st.integers(0, 3)):
        parent, key = parent[key], picks.draw(st.sampled_from(list(
            parent[key] if isinstance(parent[key], dict) else range(len(parent[key])))))
    node = parent[key]
    if mutation == "drop":
        del parent[key]
    elif mutation == "null":
        parent[key] = None
    elif mutation == "retype":
        parent[key] = picks.draw(st.sampled_from([v for v in _OTHER_VALUES if type(v) is not type(node)]))
    elif isinstance(node, list) and node:   # reshape: one more entry, a copy of a drawn one
        node.append(copy.deepcopy(node[picks.draw(st.integers(0, len(node) - 1))]))
    elif isinstance(node, dict):
        node["extra"] = 1
    else:
        parent[key] = [node]
    return json.dumps(holder[0]) if holder else ""


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(_FUZZED_KINDS), picks=st.data())
def test_mutated_checkpoint_loads_or_names_the_file(fuzz_dir, kind, picks):
    """A mutated checkpoint either loads, and its index aligns rows and predicts, or is one ValueError naming the file."""
    directory, texts = fuzz_dir
    path = directory / "mutated.json"
    path.write_text(_mutated(texts[kind], picks), encoding="utf-8")
    try:
        params, index = load_checkpoint(str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    rows = [Row(s, q, index.class_ids[c], 1, 1) for s, c, q in zip(index.student_ids, index.class_of.tolist(),
                                                                    cycle(index.question_ids))]
    aligned = align_rows_to_checkpoint(build_dataset(*responses(rows)), index, params.kind)
    assert [index.student_ids[i] for i in aligned.student_idx] == [r.student_id for r in rows]
    assert [index.question_ids[i] for i in aligned.question_idx] == [r.question_id for r in rows]
    p = predict_proba_array(params, aligned.student_idx, aligned.question_idx, aligned.class_of)
    assert p.shape == (len(rows),) and np.all((p > 0) & (p < 1))


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                     lambda inner: st.lists(inner, max_size=8) | st.dictionaries(st.text(), inner, max_size=4),
                     max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(value=_JSON)
def test_checkpoint_json_is_json_dumps_text(value):
    buf = io.StringIO()
    with mock.patch.object(checkpoint, "_JSON_ITEMS", 3):   # lists in several runs
        checkpoint._dump(value, buf)
    assert buf.getvalue() == json.dumps(value)
