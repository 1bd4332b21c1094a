"""A value of the wrong JSON kind in any input-file field or config leaf is named.

Property: put one value of the wrong kind into one field of one line of a
data file, into one config leaf, or into one field of a calibration
manifest, a saved model's params.json or a dataset's meta.json, and the
reader raises DataFileError naming ``file:line`` or the file and the field,
or ConfigError naming the dotted key, never another exception. The kinds of
each field and leaf are listed here by hand, apart from the program's own
tables.
"""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from mexfuse import config
from mexfuse.calibration import load_manifest
from mexfuse.config import ConfigError, DataFileError
from mexfuse.features import EmbedderConfig
from mexfuse.pipeline import (
    DatasetConfig,
    ReferringModel,
    ScoredCandidate,
    concept_map,
    generate_synthetic_dataset,
    load_dataset,
    read_scores,
    save_dataset,
    write_scores,
)

# each sample value, and the kinds it is of; every one is wrong for some kind
VALUES = [
    (None, ()),
    (True, ("bool",)),
    (0, ("int", "number")),
    (2 ** 63, ("number",)),
    (10 ** 400, ()),
    (0.5, ("number",)),
    (float("nan"), ()),
    ("7", ("str",)),
    ([], ("track ids", "strs")),
    ([0, "1"], ()),
    ({"a": 1}, ()),
    ({}, ()),
]

# the fields each data file's reader requires; concepts.jsonl's modality is
# written but read by nothing
FIELDS = {
    "trajectories.jsonl": {"track_id": "int", "frame": "int", "box": "box",
                           "entity_id": "str"},
    "tasks.jsonl": {"prompt_id": "str", "text": "str", "entity_id": "str",
                    "candidates": "track ids"},
    "labels.jsonl": {"prompt_id": "str", "track_id": "int", "match": "bool"},
    "windows.jsonl": {"track_id": "int", "prompt_id": "str", "frames": "frames",
                      "match": "bool"},
    "concepts.jsonl": {"entity_id": "str", "concept": "str"},
    "scores.jsonl": {"track_id": "int", "prompt_id": "str", "s": "number", "p": "number",
                     "s_prime": "number", "kept": "bool"},
}

# every config leaf and its kind; a leaf whose default is null may also be null
LEAVES = {
    "seed": "int", "out": "str",
    "embedder.raw_visual_dim": "size", "embedder.visual_tokens": "size",
    "embedder.raw_text_dim": "size", "embedder.text_tokens": "size",
    "embedder.truncate_to": "size?", "embedder.oracle_mode": "bool",
    "embedder.noise_scale": "number", "embedder.mlp_hidden": "size?",
    "fusion.variant": "variant", "fusion.d_k": "size", "fusion.residual_add": "bool",
    "fusion.per_pair_projections": "bool",
    "calibration.enabled": "bool", "calibration.manifest": "str?",
    "calibration.tau": "number?", "calibration.a": "number?", "calibration.b": "number?",
    "pipeline.window": "size", "pipeline.threshold": "number", "pipeline.epochs": "size",
    "pipeline.batch_size": "size", "pipeline.lr": "number", "pipeline.momentum": "number",
    "pipeline.neg_margin": "number",
    "dataset.n_concepts": "size", "dataset.n_tracks": "size", "dataset.n_prompts": "size",
    "dataset.n_frames": "size", "dataset.n_windows": "size",
}

# every calibration manifest field and its kind; [i] is any train entry and
# [j] any similarity row
MANIFEST = {"train[i].expr_id": "str", "train[i].freq": "number", "similarity[j]": "numbers",
            "tau": "number", "a": "number", "b": "number", "test_ids": "strs"}
# a manifest that sets every field
MANIFEST_DOC = {"train": [{"expr_id": "x", "freq": 0.25}, {"expr_id": "y", "freq": 0.75}],
                "similarity": [[0.5, 0.125], [0.25, 1.0]], "tau": 10.0, "a": 1.0, "b": 0.0,
                "test_ids": ["p000", "p001"]}

# every field of a saved model's params.json and its kind, by dotted key
PARAMS = {
    "embedder.seed": "int", "embedder.raw_visual_dim": "size", "embedder.visual_tokens": "size",
    "embedder.raw_text_dim": "size", "embedder.text_tokens": "size",
    "embedder.fused_dim": "size", "embedder.truncate_to": "size?",
    "embedder.oracle_mode": "bool", "embedder.noise_scale": "number",
    "embedder.concepts": "strs",
    "fusion.variant": "variant", "fusion.d_k": "size", "fusion.residual_add": "bool",
    "fusion.per_pair": "bool",
    "mlp_hidden": "size?", "params": "strs",
}
# the one field of a dataset's meta.json that a command reads
META = {"concepts": "strs"}

SETTINGS = settings(max_examples=120, deadline=None, database=None)


def fits(kind, value_kinds, value):
    return kind.rstrip("?") in value_kinds or (kind.endswith("?") and value is None)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small saved dataset, a scores file and a calibration manifest, in one directory."""
    root = tmp_path_factory.mktemp("kinds")
    cfg = DatasetConfig(seed=1, n_concepts=2, n_tracks=3, n_prompts=2, n_frames=4,
                        n_windows=4, window=2)
    save_dataset(str(root), generate_synthetic_dataset(cfg), cfg)
    (root / "cal.json").write_text(json.dumps(MANIFEST_DOC))
    write_scores(str(root / "scores.jsonl"),
                 [ScoredCandidate(t, p, 0.25 * t, 0.0, 0.25 * t, t > 0)
                  for p in ("p000", "p001") for t in range(3)])
    return root


@pytest.fixture(scope="module")
def model(tmp_path_factory, files):
    """A directory holding a small saved model of the dataset in ``files``."""
    root = tmp_path_factory.mktemp("model")
    data = load_dataset(files)
    emb = EmbedderConfig(seed=1, raw_visual_dim=6, visual_tokens=2, raw_text_dim=5,
                         text_tokens=3, fused_dim=4, oracle_mode=True,
                         concepts=tuple(data["meta"]["concepts"]))
    ReferringModel.build(emb, concept_of=concept_map(data["manifest"])).save(str(root))
    return root


def test_the_tables_cover_every_field_and_leaf(files, model):
    for name, fields in FIELDS.items():
        for line in (files / name).read_text().splitlines():
            assert set(json.loads(line)) - {"modality"} == set(fields), name

    def leaves(section, path=""):
        for key, value in section.items():
            here = f"{path}.{key}" if path else key
            yield from leaves(value, here) if isinstance(value, dict) else [here]

    assert sorted(leaves(config.defaults())) == sorted(LEAVES)
    fields = {f"train[i].{k}" for t in MANIFEST_DOC["train"] for k in t} | {"similarity[j]"}
    assert fields | (set(MANIFEST_DOC) - {"train", "similarity"}) == set(MANIFEST)
    assert load_manifest(files / "cal.json").test_ids == MANIFEST_DOC["test_ids"]
    doc = json.loads((model / "params.json").read_text())
    sections = ("embedder", "fusion")
    assert {f"{s}.{k}" for s in sections for k in doc[s]} | (set(doc) - set(sections)) \
        == set(PARAMS)
    assert set(META) <= set(json.loads((files / "meta.json").read_text()))


@SETTINGS
@given(data=st.data())
def test_wrong_kind_in_a_data_file_is_named(files, data):
    name = data.draw(st.sampled_from(sorted(FIELDS)), label="file")
    key = data.draw(st.sampled_from(sorted(FIELDS[name])), label="field")
    value, kinds = data.draw(st.sampled_from(VALUES), label="value")
    if fits(FIELDS[name][key], kinds, value):
        return
    with tempfile.TemporaryDirectory() as tmp:
        for f in os.listdir(files):
            shutil.copy(files / f, tmp)
        path = os.path.join(tmp, name)
        with open(path) as fh:
            lines = fh.read().splitlines()
        k = data.draw(st.integers(0, len(lines) - 1), label="line")
        lines[k] = json.dumps({**json.loads(lines[k]), key: value})
        with open(path, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
        with pytest.raises(DataFileError) as err:
            read_scores(path) if name == "scores.jsonl" else load_dataset(tmp)
    assert f"{path}:{k + 1}: {key} must be " in str(err.value)


@SETTINGS
@given(key=st.sampled_from(sorted(LEAVES)), sample=st.sampled_from(VALUES))
def test_wrong_kind_in_a_config_leaf_is_named(key, sample):
    value, kinds = sample
    if fits(LEAVES[key], kinds, value):
        return
    section, _, leaf = key.rpartition(".")
    with pytest.raises(ConfigError) as err:
        config.load(overrides={section: {leaf: value}} if section else {key: value})
    assert str(err.value).startswith(f"{key} must be ")


@SETTINGS
@given(field=st.sampled_from(sorted(MANIFEST)), sample=st.sampled_from(VALUES),
       k=st.integers(0, 1))
def test_wrong_kind_in_a_manifest_field_is_named(files, field, sample, k):
    value, kinds = sample
    if fits(MANIFEST[field], kinds, value):
        return
    doc = json.loads(json.dumps(MANIFEST_DOC))
    key = field.replace("[i]", f"[{k}]").replace("[j]", f"[{k}]")
    if field.startswith("train"):
        doc["train"][k][field.rpartition(".")[2]] = value
    elif field.startswith("similarity"):
        doc["similarity"][k] = value
    else:
        doc[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cal.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(DataFileError) as err:
            load_manifest(path)
    assert f"{path}: {key} must be " in str(err.value)


@SETTINGS
@given(name=st.sampled_from(["params.json", "meta.json"]), data=st.data())
def test_wrong_kind_in_params_or_meta_is_named(files, model, name, data):
    table = PARAMS if name == "params.json" else META
    key = data.draw(st.sampled_from(sorted(table)), label="field")
    value, kinds = data.draw(st.sampled_from(VALUES), label="value")
    if fits(table[key], kinds, value):
        return
    with tempfile.TemporaryDirectory() as tmp:
        # params.json alone: a kind is checked before any .mext file is read
        shutil.copytree(model if name == "params.json" else files, tmp, dirs_exist_ok=True,
                        ignore=lambda d, names: [n for n in names if n.endswith(".mext")])
        path = os.path.join(tmp, name)
        with open(path) as fh:
            doc = json.load(fh)
        section, _, leaf = key.rpartition(".")
        (doc[section] if section else doc)[leaf] = value
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(DataFileError) as err:
            ReferringModel.load(tmp, {}) if name == "params.json" else load_dataset(tmp)
    assert str(err.value).startswith(f"{path}: {key} must be ")
