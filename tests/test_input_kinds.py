"""A value of the wrong JSON kind in any data-file field or config leaf is named.

Property: put one value of the wrong kind into one field of one line of a
data file, or into one config leaf, and the reader raises DataFileError
naming ``file:line`` and the field, or ConfigError naming the dotted key,
never another exception. The kinds of each field and leaf are listed here
by hand, apart from the program's own table.
"""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from mexfuse import config
from mexfuse.config import ConfigError
from mexfuse.pipeline import (
    DataFileError,
    DatasetConfig,
    ScoredCandidate,
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
    (10 ** 400, ("int",)),
    (0.5, ("number",)),
    (float("nan"), ()),
    ("7", ("str",)),
    ([], ("track ids",)),
    ([0, "1"], ()),
    ({"a": 1}, ()),
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
    "embedder.raw_visual_dim": "int", "embedder.visual_tokens": "int",
    "embedder.raw_text_dim": "int", "embedder.text_tokens": "int",
    "embedder.truncate_to": "int?", "embedder.oracle_mode": "bool",
    "embedder.noise_scale": "number", "embedder.mlp_hidden": "int?",
    "fusion.variant": "str", "fusion.d_k": "int", "fusion.residual_add": "bool",
    "fusion.per_pair_projections": "bool",
    "calibration.enabled": "bool", "calibration.manifest": "str?",
    "calibration.tau": "number?", "calibration.a": "number?", "calibration.b": "number?",
    "pipeline.window": "int", "pipeline.threshold": "number", "pipeline.epochs": "int",
    "pipeline.batch_size": "int", "pipeline.lr": "number", "pipeline.momentum": "number",
    "pipeline.neg_margin": "number",
    "dataset.n_concepts": "int", "dataset.n_tracks": "int", "dataset.n_prompts": "int",
    "dataset.n_frames": "int", "dataset.n_windows": "int",
}

SETTINGS = settings(max_examples=120, deadline=None, database=None)


def fits(kind, value_kinds, value):
    return kind.rstrip("?") in value_kinds or (kind.endswith("?") and value is None)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small saved dataset and a scores file, in one directory."""
    root = tmp_path_factory.mktemp("kinds")
    cfg = DatasetConfig(seed=1, n_concepts=2, n_tracks=3, n_prompts=2, n_frames=4,
                        n_windows=4, window=2)
    save_dataset(str(root), generate_synthetic_dataset(cfg), cfg)
    write_scores(str(root / "scores.jsonl"),
                 [ScoredCandidate(t, p, 0.25 * t, 0.0, 0.25 * t, t > 0)
                  for p in ("p000", "p001") for t in range(3)])
    return root


def test_the_tables_cover_every_field_and_leaf(files):
    for name, fields in FIELDS.items():
        for line in (files / name).read_text().splitlines():
            assert set(json.loads(line)) - {"modality"} == set(fields), name

    def leaves(section, path=""):
        for key, value in section.items():
            here = f"{path}.{key}" if path else key
            yield from leaves(value, here) if isinstance(value, dict) else [here]

    assert sorted(leaves(config.defaults())) == sorted(LEAVES)


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
