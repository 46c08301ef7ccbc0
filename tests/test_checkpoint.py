"""Checkpoint serialization round-trips for point and variational models."""

import json

import numpy as np
import pytest

from irtkit.checkpoint import VERSION, align_rows_to_checkpoint, load_checkpoint, save_checkpoint
from irtkit.data import RawResponse
from irtkit.optim import TrainConfig, init_params, sgd_train
from irtkit.models import ModelSpec
from irtkit.synth import SynthConfig, generate_synthetic
from irtkit.vi import VIConfig, inv_softplus, softplus, train_vi


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
    spec = ModelSpec(kind, dims)
    params = init_params(spec, data.num_students, data.num_questions, data.num_classes,
                         np.random.default_rng(1), 0.5)
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, kind, params, data)
    ckpt = load_checkpoint(path)
    assert ckpt.kind == kind and ckpt.dims == dims and not ckpt.is_vi
    assert _record_names(path) == _RECORDS[kind]
    assert ckpt.params.tensors().keys() == params.tensors().keys()
    for name, arr in params.tensors().items():
        _assert_same_bits(getattr(ckpt.params, name), arr)
    assert ckpt.student_ids == data.student_ids
    assert np.array_equal(ckpt.class_of, data.class_of)


@pytest.mark.parametrize("kind,dims", [("rasch-vi", 0), ("interaction-vi", 2),
                                       ("class-interaction-vi", 2)])
def test_vi_roundtrip(tmp_path, kind, dims):
    data = _dataset()
    params, _ = train_vi(kind, data, VIConfig(samples=2, epochs=3, learning_rate=0.01, seed=2),
                         dims=dims)
    path = str(tmp_path / "vi.json")
    save_checkpoint(path, kind, params, data)
    ckpt = load_checkpoint(path)
    assert ckpt.is_vi and ckpt.dims == dims
    assert _record_names(path) == _RECORDS[kind]
    assert ckpt.params.tensors().keys() == params.tensors().keys()
    for name, arr in params.tensors().items():
        # the file holds sigma = softplus(rho); loading inverts exactly that
        want = inv_softplus(softplus(arr)) if name.endswith("_rho") else arr
        _assert_same_bits(getattr(ckpt.params, name), want)
    np.testing.assert_allclose(ckpt.params.ability_sigma, params.ability_sigma, rtol=1e-12)


def test_sgd_accepts_loaded_checkpoint_as_warm_start(tmp_path):
    data = _dataset()
    spec = ModelSpec("rasch")
    params, _ = sgd_train(spec, data, TrainConfig(epochs=3, seed=0))
    path = str(tmp_path / "warm.json")
    save_checkpoint(path, "rasch", params, data)
    warm = load_checkpoint(path).params
    again, _ = sgd_train(spec, data, TrainConfig(epochs=1, learning_rate=1e-12, seed=1),
                         warm_start=warm)
    np.testing.assert_allclose(again.ability, params.ability, atol=1e-9)


def test_align_rows_maps_through_checkpoint_tables(tmp_path):
    data = _dataset()
    spec = ModelSpec("rasch")
    params, _ = sgd_train(spec, data, TrainConfig(epochs=2, seed=0))
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, "rasch", params, data)
    ckpt = load_checkpoint(path)
    rows = [RawResponse("s3", "q2", "c0", 1, 1), RawResponse("s0", "q4", "c0", 0, 1)]
    aligned = align_rows_to_checkpoint(rows, ckpt)
    assert aligned.student_idx.tolist() == [3, 0]
    assert aligned.question_idx.tolist() == [2, 4]
    with pytest.raises(ValueError, match="not in the checkpoint"):
        align_rows_to_checkpoint([RawResponse("ghost", "q0", "c0", 1, 1)], ckpt)


def test_unknown_file_rejected(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(ValueError, match="not an irtkit-checkpoint"):
        load_checkpoint(str(path))


def test_other_version_rejected(tmp_path):
    data = _dataset()
    spec = ModelSpec("rasch")
    params = init_params(spec, data.num_students, data.num_questions, data.num_classes,
                         np.random.default_rng(1), 0.5)
    path = tmp_path / "future.json"
    save_checkpoint(str(path), "rasch", params, data)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["version"] = VERSION + 1
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"future\.json: checkpoint version {VERSION + 1}, expected {VERSION}"):
        load_checkpoint(str(path))


def _edited_checkpoint(tmp_path, edit, kind="rasch"):
    """Save a small checkpoint of a kind, apply edit to its JSON document, write it back."""
    data = _dataset()
    if kind.endswith("-vi"):
        params, _ = train_vi(kind, data, VIConfig(epochs=0, seed=1), dims=2)
    else:
        params = init_params(ModelSpec(kind, 2), data.num_students, data.num_questions,
                             data.num_classes, np.random.default_rng(1), 0.5)
    path = tmp_path / "edited.json"
    save_checkpoint(str(path), kind, params, data)
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
