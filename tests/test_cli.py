import errno
import functools
import importlib
import json
import mmap
import os
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mexfuse import config as config_mod
from mexfuse.cli import main

from conftest import TOY_CONFIG


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


# how a message names the int kind
INT = "an int from -2**63 to 2**63 - 1"


def read_tree(root, skip=()):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            rel = os.path.relpath(path, root)
            if rel in skip:
                continue
            out[rel] = Path(path).read_bytes()
    return out


class TestConfig:
    def test_show_defaults_round_trips(self, runner):
        result = invoke(runner, "config", "show-defaults")
        assert result.exit_code == 0
        assert json.loads(result.output) == config_mod.defaults()

    def test_unknown_key_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"fusion": {"bogus_knob": 1}}))
        result = runner.invoke(main, ["--config", str(bad), "gen"])
        assert result.exit_code == 2
        assert "bogus_knob" in result.output

    @pytest.mark.parametrize("cfg,key", [({"pipeline": {"window": "8"}}, "pipeline.window"),
                                         ({"fusion": {"d_k": 0}}, "fusion.d_k"),
                                         ({"pipeline": {"lr": 10 ** 400}}, "pipeline.lr"),
                                         ({"fusion": {"d_k": 10 ** 400}}, "fusion.d_k"),
                                         # both keys: no window of 8 fits in 4 frames
                                         ({"pipeline": {"window": 8}, "dataset": {"n_frames": 4}},
                                          "pipeline.window 8 is more than dataset.n_frames 4"),
                                         # both keys: two tracks cannot carry four concepts
                                         ({"dataset": {"n_concepts": 4, "n_tracks": 2}},
                                          "dataset.n_concepts 4 is more than dataset.n_tracks 2")])
    def test_bad_value_exits_2_naming_key(self, runner, tmp_path, cfg, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["--config", str(bad), "gen"])
        assert result.exit_code == 2
        assert key in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("cfg,named", [
        ({"fusion": {"d_k": 2**40}}, f"fusion.d_k: an array of {2**40} x {2**40} float64"),
        # the fusion block's projections are d_k x d_k, however wide the MLPs are
        ({"fusion": {"d_k": 2**31}, "embedder": {"mlp_hidden": 4}},
         f"fusion.d_k: an array of {2**31} x {2**31} float64"),
        ({"embedder": {"mlp_hidden": 2**60}},
         f"embedder.raw_visual_dim x embedder.mlp_hidden: an array of 768 x {2**60} float64"),
        ({"embedder": {"text_tokens": 2**53}},
         f"embedder.text_tokens x embedder.raw_text_dim: an array of {2**53} x 1024 float64")],
        ids=["d_k", "d_k-with-hidden", "mlp_hidden", "text_tokens"])
    @pytest.mark.parametrize("cmd", [["gen"], ["train"], ["score"], ["bench"], ["gradcheck"],
                                     ["calibrate", "--scores", "s.jsonl", "--manifest", "m.json"]],
                             ids=lambda cmd: cmd[0])
    def test_size_past_what_an_array_can_index_exits_2(self, runner, tmp_path, cfg, named,
                                                       cmd):
        # only the sizes are read: nothing is allocated before the refusal
        bad, run = tmp_path / "bad.json", tmp_path / "run"
        bad.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["--config", str(bad), "--out", str(run), *cmd])
        assert result.exit_code == 2, result.output
        assert f"{bad}: {named} values is past the {2**63 - 1} bytes" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)
        assert not run.exists()

    def test_size_past_what_an_array_can_index_as_an_override(self):
        with pytest.raises(config_mod.ConfigError,
                           match=f"^fusion.d_k: an array of {2**40} x {2**40} float64"):
            config_mod.load(overrides={"fusion": {"d_k": 2**40}})

    def test_missing_config_file_exits_2(self, runner):
        result = runner.invoke(main, ["--config", "/nope/none.json", "gen"])
        assert result.exit_code == 2


class TestGen:
    def test_reruns_are_byte_identical(self, runner, toy_config_file, tmp_path):
        out = str(tmp_path / "run")
        invoke(runner, "--config", toy_config_file, "--out", out, "gen")
        first = read_tree(out)
        invoke(runner, "--config", toy_config_file, "--out", out, "gen")
        assert read_tree(out) == first

    def test_manifest_written(self, runner, toy_config_file, tmp_path):
        out = str(tmp_path / "run")
        invoke(runner, "--config", toy_config_file, "--out", out, "gen")
        manifest = json.loads((tmp_path / "run" / "run_manifest_gen.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 7
        assert set(manifest["versions"]) == {"python", "numpy", "mexfuse"}
        assert set(manifest) == {"command", "seed", "config_hash", "versions", "outputs"}


SMALL_CFG = {
    "seed": 5,
    "embedder": {"raw_visual_dim": 16, "visual_tokens": 3, "raw_text_dim": 24,
                 "text_tokens": 4, "mlp_hidden": 16},
    "fusion": {"d_k": 8},
    "pipeline": {"window": 3, "epochs": 3, "batch_size": 4, "lr": 0.02,
                 "momentum": 0.9, "neg_margin": -0.1},
    "dataset": {"n_concepts": 2, "n_tracks": 4, "n_prompts": 2,
                "n_frames": 6, "n_windows": 8},
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A gen + train run of SMALL_CFG: (config path, run directory)."""
    root = tmp_path_factory.mktemp("trained")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_CFG))
    out = root / "run"
    for cmd in ("gen", "train"):
        result = invoke(CliRunner(), "--config", str(cfg_path), "--out", str(out), cmd)
        assert result.exit_code == 0, result.output
    return cfg_path, out


class TestTrainScore:
    def test_smoke_and_determinism(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CFG))
        out = str(tmp_path / "run")

        for cmd in ("gen", "train", "score"):
            result = invoke(runner, "--config", str(cfg_path), "--out", out, cmd)
            assert result.exit_code == 0, result.output
        # the training log holds epoch wall times
        first = read_tree(out, skip=("train_log.jsonl",))
        assert "scores.jsonl" in first and "loss_curve.json" in first
        for cmd in ("gen", "train", "score"):
            invoke(runner, "--config", str(cfg_path), "--out", out, cmd)
        assert read_tree(out, skip=("train_log.jsonl",)) == first

    def test_train_log_matches_loss_curve(self, trained):
        _, out = trained
        rows = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
        curve = json.loads((out / "loss_curve.json").read_text())["epoch_mean_loss"]
        assert len(rows) == SMALL_CFG["pipeline"]["epochs"]
        assert [r["mean_loss"] for r in rows] == curve
        assert [r["epoch"] for r in rows] == list(range(len(rows)))
        assert all(r["batches"] == 2 and r["wall_s"] > 0 for r in rows)
        manifest = json.loads((out / "run_manifest_train.json").read_text())
        assert str(out / "train_log.jsonl") in manifest["outputs"]

    def test_model_file_removed_exits_2(self, runner, trained, tmp_path):
        cfg_path, out = trained
        model = tmp_path / "model"
        shutil.copytree(out / "model", model)
        (model / "mlp_local.second.w.mext").unlink()
        result = runner.invoke(main, ["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                                      "score", "--dataset", str(out / "dataset"),
                                      "--model", str(model)])
        assert result.exit_code == 2, result.output
        assert "mlp_local.second.w.mext" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("keep,part", [
        (6, "truncated header (2 of 4 bytes)"), (12, "truncated extents (4 of 16 bytes)"),
        (30, "truncated payload (6 of 512 bytes)"),
        # bytes written over the header from its dtype code on
        (b"\x01", "unknown dtype code 1"),
        # rank 3 with extents (0, 2**40, 2**40): a 0-byte payload, which no array fits
        (b"\x00\x03" + struct.pack("<3Q", 0, 2**40, 2**40),
         "extents (0, 1099511627776, 1099511627776) shape no array")],
        ids=["header", "extents", "payload", "f32", "zero-extent"])
    def test_truncated_model_file_exits_2(self, runner, trained, tmp_path, keep, part):
        cfg_path, out = trained
        model = tmp_path / "model"
        shutil.copytree(out / "model", model)
        path = model / "fusion.proj_i.w.mext"
        raw = path.read_bytes()
        path.write_bytes(raw[:keep] if type(keep) is int else raw[:6] + keep + raw[6 + len(keep):])
        result = runner.invoke(main, ["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                                      "score", "--dataset", str(out / "dataset"),
                                      "--model", str(model)])
        assert result.exit_code == 2, result.output
        assert f"{path}: {part}" in result.output
        assert result.output.count(str(path)) == 1, result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    def test_unreadable_model_file_named_once(self, runner, trained, tmp_path):
        cfg_path, out = trained
        model = tmp_path / "model"
        shutil.copytree(out / "model", model)
        path = model / "fusion.proj_i.w.mext"
        path.unlink()
        path.mkdir()  # opening it fails with an OSError that names it too
        result = runner.invoke(main, ["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                                      "score", "--dataset", str(out / "dataset"),
                                      "--model", str(model)])
        assert result.exit_code == 2, result.output
        assert result.output.count(str(path)) == 1, result.output
        assert "Traceback" not in result.output

    def test_weights_that_cannot_be_mapped_exit_2(self, runner, trained, tmp_path,
                                                    monkeypatch):
        # each weight is mapped from its file; a failed mapping names the file once
        cfg_path, out = trained

        def refused(*args, **kw):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", refused)
        result = runner.invoke(main, ["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                                      "score", "--dataset", str(out / "dataset"),
                                      "--model", str(out / "model")])
        assert result.exit_code == 2, result.output
        first = out / "model" / "fusion.proj_i.w.mext"  # the first file load reads
        assert f"{first}: cannot read (Cannot allocate memory)" in result.output
        assert result.output.count(str(first)) == 1, result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "o").exists()

    def test_unknown_fusion_variant_exits_2(self, runner, trained, tmp_path):
        cfg_path, out = trained
        model = tmp_path / "model"
        shutil.copytree(out / "model", model)
        manifest = json.loads((model / "params.json").read_text())
        manifest["fusion"]["variant"] = "bogus"
        (model / "params.json").write_text(json.dumps(manifest))
        result = runner.invoke(main, ["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                                      "score", "--dataset", str(out / "dataset"),
                                      "--model", str(model)])
        assert result.exit_code == 2, result.output
        assert f"{model / 'params.json'}: fusion.variant must be one of" in result.output
        assert "'bogus'" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("section,key,value,named", [
        ("embedder", "noise_scale", "x", "embedder.noise_scale must be a finite number, got 'x'"),
        ("embedder", "truncate_to", 2.5,
         "embedder.truncate_to must be an int from 1 to 2**63 - 1 or null, got 2.5"),
        ("fusion", "residual_add", "no", "fusion.residual_add must be true or false, got 'no'"),
    ], ids=["str noise_scale", "float truncate_to", "str residual_add"])
    def test_bad_params_field_exits_2_naming_file_and_key(self, runner, trained, tmp_path,
                                                          section, key, value, named):
        cfg_path, out = trained
        model = tmp_path / "model"
        shutil.copytree(out / "model", model)
        doc = json.loads((model / "params.json").read_text())
        doc[section][key] = value
        (model / "params.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                                      "score", "--dataset", str(out / "dataset"),
                                      "--model", str(model)])
        assert result.exit_code == 2, result.output
        assert f"{model / 'params.json'}: {named}" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("cmd,fault,named", [
        ("train", "row without frames", "windows.jsonl:2: missing key(s) ['frames']"),
        ("train", "bad JSON line", "windows.jsonl:2: not valid JSON"),
        ("score", "file removed", "tasks.jsonl: cannot read"),
        ("train", "zero-width box", "trajectories.jsonl:3: track 0: non-positive box extent"),
        ("score", "zero-width box", "trajectories.jsonl:3: track 0: non-positive box extent"),
        ("train", "frame listed twice", "trajectories.jsonl:4: track 0: frame 1 listed twice"),
        ("score", "frame listed twice", "trajectories.jsonl:4: track 0: frame 1 listed twice"),
        ("score", "candidates not a list",
         "tasks.jsonl:2: candidates must be a list of int track ids, got 3"),
        ("score", "label match a string",
         "labels.jsonl:2: match must be true or false, got 'false'"),
        ("score", "label track_id a string",
         f"labels.jsonl:2: track_id must be {INT}, got '1'"),
        ("train", "unknown concept", "concepts.jsonl:2: concept 'bogus' is not in"),
    ])
    def test_bad_dataset_exits_2_naming_file_and_line(self, runner, trained, tmp_path,
                                                      cmd, fault, named):
        cfg_path, out = trained
        data = tmp_path / "dataset"
        shutil.copytree(out / "dataset", data)
        name = named.split(":")[0]
        lines = (data / name).read_text().splitlines()
        if fault == "row without frames":
            row = json.loads(lines[1])
            del row["frames"]
            lines[1] = json.dumps(row)
        elif fault == "bad JSON line":
            lines[1] = lines[1][:-1]
        elif fault == "zero-width box":
            row = json.loads(lines[2])
            row["box"][2] = 0
            lines[2] = json.dumps(row)
        elif fault == "frame listed twice":
            lines.insert(3, lines[1])
        elif fault == "candidates not a list":
            row = json.loads(lines[1])
            row["candidates"] = 3
            lines[1] = json.dumps(row)
        elif fault == "unknown concept":
            row = json.loads(lines[1])
            row["concept"] = "bogus"
            lines[1] = json.dumps(row)
        elif fault.startswith("label"):
            row = json.loads(lines[1])
            key = fault.split()[1]
            row[key] = str(row[key]).lower()
            lines[1] = json.dumps(row)
        (data / name).write_text("".join(l + "\n" for l in lines))
        if fault == "file removed":
            (data / "tasks.jsonl").unlink()
        result = runner.invoke(main, ["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                                      cmd, "--dataset", str(data)]
                               + (["--model", str(out / "model")] if cmd == "score" else []))
        assert result.exit_code == 2, result.output
        assert named in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("key,value,named", [
        ("frames", 3, "frames must be a non-empty list of int frame indices, got 3"),
        ("frames", [], "frames must be a non-empty list of int frame indices, got []"),
        ("frames", [1, "2"], "frames must be a non-empty list of int frame indices"),
        ("frames", [1, 99], "has no frame(s) [99]"),
        ("match", "yes", "match must be true or false, got 'yes'"),
        ("match", 1, "match must be true or false, got 1"),
    ], ids=["frames-int", "frames-empty", "frames-str", "frame-not-in-track", "match-str",
            "match-int"])
    def test_bad_window_row_exits_2_naming_file_and_line(self, runner, trained, tmp_path,
                                                         key, value, named):
        cfg_path, out = trained
        data = tmp_path / "dataset"
        shutil.copytree(out / "dataset", data)
        lines = (data / "windows.jsonl").read_text().splitlines()
        row = json.loads(lines[1])
        row[key] = value
        lines[1] = json.dumps(row)
        (data / "windows.jsonl").write_text("".join(l + "\n" for l in lines))
        result = runner.invoke(main, ["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                                      "train", "--dataset", str(data)])
        assert result.exit_code == 2, result.output
        assert "windows.jsonl:2: " in result.output and named in result.output
        if key == "frames" and value == [1, 99]:
            assert f"track {row['track_id']} has no frame(s) [99]" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("cmd,name,key,value,named", [
        ("score", "tasks.jsonl", "prompt_id", 5, "prompt_id must be a str, got 5"),
        ("train", "trajectories.jsonl", "frame", "2", f"frame must be {INT}, got '2'"),
        ("score", "trajectories.jsonl", "track_id", "1", f"track_id must be {INT}, got '1'"),
        ("train", "trajectories.jsonl", "box", [1, 2, 3],
         "box must be 4 finite numbers, got [1, 2, 3]"),
    ], ids=["int prompt_id", "str frame", "str track_id", "short box"])
    def test_bad_field_exits_2_naming_file_and_line(self, runner, trained, tmp_path, cmd,
                                                     name, key, value, named):
        cfg_path, out = trained
        data = tmp_path / "dataset"
        shutil.copytree(out / "dataset", data)
        lines = (data / name).read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), key: value})
        (data / name).write_text("".join(l + "\n" for l in lines))
        result = runner.invoke(main, ["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                                      cmd, "--dataset", str(data)]
                               + (["--model", str(out / "model")] if cmd == "score" else []))
        assert result.exit_code == 2, result.output
        assert f"{data / name}:2: {named}" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)


class TestCalibrate:
    def test_identity_calibration_bitwise(self, runner, tmp_path):
        from mexfuse.pipeline import ScoredCandidate, write_scores

        scores = tmp_path / "scores.jsonl"
        write_scores(scores, [ScoredCandidate(0, "p0", 0.123456789123, 0.0, 0.0, False),
                              ScoredCandidate(1, "p0", -0.98765432109, 0.0, 0.0, False)])
        manifest = tmp_path / "cal.json"
        manifest.write_text(json.dumps({"train": [{"expr_id": "a", "freq": 0.5}],
                                        "similarity": [[1.0]], "a": 0.0, "b": 0.0}))
        out = str(tmp_path / "run")
        result = invoke(runner, "--out", out, "calibrate", "--scores", str(scores),
                        "--manifest", str(manifest))
        assert result.exit_code == 0, result.output
        rows = [json.loads(l) for l in
                (tmp_path / "run" / "scores_calibrated.jsonl").read_text().splitlines()]
        for row in rows:
            assert row["s_prime"] == row["s"]

    def test_paper_constants_applied(self, runner, tmp_path):
        from mexfuse.pipeline import ScoredCandidate, write_scores

        scores = tmp_path / "scores.jsonl"
        write_scores(scores, [ScoredCandidate(0, "p0", 0.5, 0.0, 0.0, False)])
        manifest = tmp_path / "cal.json"
        # single train expression: pseudo frequency equals its frequency
        manifest.write_text(json.dumps({"train": [{"expr_id": "a", "freq": 0.05}],
                                        "similarity": [[1.0]]}))
        out = str(tmp_path / "run")
        invoke(runner, "--out", out, "calibrate", "--scores", str(scores),
               "--manifest", str(manifest))
        row = json.loads((tmp_path / "run" / "scores_calibrated.jsonl").read_text())
        assert row["s_prime"] == pytest.approx(0.8)
        assert row["kept"] is True

    @pytest.mark.parametrize("cmd", ["score", "calibrate"])
    @pytest.mark.parametrize("fault,named", [
        ("unknown key", "unknown calibration keys ['bogus']"),
        ("truncated JSON", "cannot read"),
        ("no train key", "missing key(s) ['train']"),
        ("prompt not in test_ids", "prompt 'p000' not in test_ids"),
        ("NaN freq", "train[0].freq must be a finite number, got nan"),
        ("infinite tau", "tau must be a finite number, got inf"),
        ("bool tau", "tau must be a finite number, got True"),
        ("str a", "a must be a finite number, got '2'"),
        ("str test_ids", "test_ids must be a list of strs, got 'p000'"),
        ("repeated test_ids", "test_ids repeat 'p000'"),
        ("rows without test_ids", "2 similarity rows and no test_ids"),
    ])
    def test_bad_manifest_exits_2_naming_file(self, runner, trained, tmp_path, cmd, fault,
                                              named):
        from mexfuse.pipeline import ScoredCandidate, write_scores

        cfg_path, out = trained
        doc = {"train": [{"expr_id": "a", "freq": 0.5}], "similarity": [[1.0], [0.5]],
               "test_ids": ["p000", "p001"]}
        if fault == "unknown key":
            doc["bogus"] = 1
        elif fault == "no train key":
            del doc["train"]
        elif fault == "prompt not in test_ids":
            doc["test_ids"] = ["p001", "p002"]
        elif fault == "NaN freq":
            doc["train"][0]["freq"] = float("nan")
        elif fault in ("infinite tau", "bool tau"):
            doc["tau"] = float("inf") if fault == "infinite tau" else True
        elif fault == "str a":
            doc["a"] = "2"
        elif fault == "str test_ids":  # four chars, as many as there are rows
            doc["test_ids"], doc["similarity"] = "p000", [[1.0]] * 4
        elif fault == "repeated test_ids":
            doc["test_ids"] = ["p000", "p000"]
        elif fault == "rows without test_ids":
            del doc["test_ids"]
        text = json.dumps(doc)
        manifest = tmp_path / "cal.json"
        manifest.write_text(text[:len(text) // 2] if fault == "truncated JSON" else text)
        run = str(tmp_path / "run")
        if cmd == "score":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**SMALL_CFG, "calibration": {
                "enabled": True, "manifest": str(manifest)}}))
            args = ["--config", str(cfg), "--out", run, "score",
                    "--dataset", str(out / "dataset"), "--model", str(out / "model")]
        else:
            scores = tmp_path / "scores.jsonl"
            write_scores(scores, [ScoredCandidate(0, "p000", 0.5, 0.0, 0.5, True)])
            args = ["--out", run, "calibrate", "--scores", str(scores),
                    "--manifest", str(manifest)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"{manifest}: {named}" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)
        assert not os.path.exists(run)

    @pytest.mark.parametrize("cmd", ["score", "calibrate"])
    def test_row_of_the_wrong_length_exits_2_naming_it(self, runner, trained, tmp_path, cmd):
        from mexfuse.pipeline import ScoredCandidate, write_scores

        cfg_path, out = trained
        manifest = tmp_path / "cal.json"
        manifest.write_text(json.dumps({"train": [{"expr_id": "a", "freq": 0.5},
                                                  {"expr_id": "b", "freq": 0.25}],
                                        "similarity": [[1.0, 0.5], [0.5]],
                                        "test_ids": ["p000", "p001"]}))
        run = tmp_path / "run"
        if cmd == "score":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**SMALL_CFG, "calibration": {
                "enabled": True, "manifest": str(manifest)}}))
            args = ["--config", str(cfg), "--out", str(run), "score",
                    "--dataset", str(out / "dataset"), "--model", str(out / "model")]
        else:
            scores = tmp_path / "scores.jsonl"
            write_scores(scores, [ScoredCandidate(0, "p000", 0.5, 0.0, 0.5, True)])
            args = ["--out", str(run), "calibrate", "--scores", str(scores),
                    "--manifest", str(manifest)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"{manifest}: similarity[1] has length 1; train has 2 entries" in result.output
        assert "Traceback" not in result.output
        assert not os.path.exists(run)

    @pytest.mark.parametrize("cmd", ["score", "calibrate"])
    def test_fewer_rows_than_prompts_without_test_ids_exits_2(self, runner, tmp_path, cmd):
        # unnamed rows cannot be matched to prompts: refused when the manifest is loaded
        manifest = tmp_path / "cal.json"
        manifest.write_text(json.dumps({"train": [{"expr_id": "a", "freq": 0.2}],
                                        "similarity": [[0.1], [0.2]]}))
        run = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CFG, "pipeline": {**SMALL_CFG["pipeline"], "epochs": 1},
                                   "dataset": {**SMALL_CFG["dataset"], "n_prompts": 4}}))
        if cmd == "score":
            for step in ("gen", "train"):
                assert invoke(runner, "--config", str(cfg), "--out", str(run), step).exit_code == 0
            cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "calibration": {
                "enabled": True, "manifest": str(manifest)}}))
            args = ["--config", str(cfg), "--out", str(run), "score"]
        else:
            from mexfuse.pipeline import ScoredCandidate, write_scores

            scores = tmp_path / "scores.jsonl"
            write_scores(scores, [ScoredCandidate(0, f"p{j:03d}", 0.5, 0.0, 0.5, True)
                                  for j in range(4)])
            args = ["--out", str(run), "calibrate", "--scores", str(scores),
                    "--manifest", str(manifest)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"{manifest}: 2 similarity rows and no test_ids" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    def test_score_and_calibrate_refine_alike(self, runner, toy_config_file, tmp_path):
        # the manifest's own tau, a and b, unlike the calibration defaults (100, 8, -0.1)
        rng = np.random.default_rng(3)
        manifest = tmp_path / "cal.json"
        manifest.write_text(json.dumps({
            "train": [{"expr_id": f"e{i}", "freq": f} for i, f in enumerate(rng.dirichlet(
                np.ones(6)).tolist())],
            "similarity": rng.uniform(0.0, 1.0, (4, 6)).tolist(),
            "test_ids": ["p000", "p001", "p002", "p003"], "tau": 1.0, "a": 1.0, "b": 0.0}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads(Path(toy_config_file).read_text()), "calibration": {
            "enabled": True, "manifest": str(manifest)}}))
        run = tmp_path / "run"
        for cmd in ("gen", "train", "score"):
            assert invoke(runner, "--config", str(cfg), "--out", str(run), cmd).exit_code == 0
        result = invoke(runner, "--config", str(cfg), "--out", str(run), "calibrate",
                        "--scores", str(run / "scores.jsonl"), "--manifest", str(manifest))
        assert result.exit_code == 0, result.output

        def rows(name):
            return [json.loads(l) for l in (run / name).read_text().splitlines()]

        scored, calibrated = rows("scores.jsonl"), rows("scores_calibrated.jsonl")
        assert len(scored) == 40
        assert scored == calibrated
        assert any(r["s_prime"] != r["s"] for r in scored)

    @pytest.mark.parametrize("cmd", ["score", "calibrate"])
    def test_config_constants_override_the_manifest(self, runner, trained, tmp_path, cmd):
        cfg_path, out = trained
        manifest = tmp_path / "cal.json"
        manifest.write_text(json.dumps({"train": [{"expr_id": "a", "freq": 0.25}],
                                        "similarity": [[1.0]], "a": 1.0, "b": 0.0}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CFG, "calibration": {
            "enabled": True, "manifest": str(manifest), "a": 2.0}}))
        run = tmp_path / "run"
        args = ["score", "--dataset", str(out / "dataset"), "--model", str(out / "model")]
        if cmd == "calibrate":
            # raw scores from an uncalibrated run
            assert invoke(runner, "--config", str(cfg_path), "--out", str(run), *args
                          ).exit_code == 0
            args = ["calibrate", "--scores", str(run / "scores.jsonl"),
                    "--manifest", str(manifest)]
        result = invoke(runner, "--config", str(cfg), "--out", str(run), *args)
        assert result.exit_code == 0, result.output
        name = "scores.jsonl" if cmd == "score" else "scores_calibrated.jsonl"
        rows = [json.loads(line) for line in (run / name).read_text().splitlines()]
        assert len(rows) == 8
        for row in rows:
            assert row["p"] == 0.25
            assert row["s_prime"] == pytest.approx(row["s"] + 2.0 * 0.25 + 0.0, abs=1e-15)

    @pytest.mark.parametrize("fault,named", [
        ({"s": "0.5"}, "s must be a finite number, got '0.5'"),
        ({"s": True}, "s must be a finite number, got True"),
        ({"s": float("nan")}, "s must be a finite number, got nan"),
        ({"s": float("-inf")}, "s must be a finite number, got -inf"),
        ({"s": 10 ** 400}, "s must be a finite number"),
        ({"prompt_id": 7}, "prompt_id must be a str, got 7"),
        ({"track_id": "1"}, f"track_id must be {INT}, got '1'"),
        ({"track_id": 1.0}, f"track_id must be {INT}, got 1.0"),
    ], ids=["str s", "bool s", "nan s", "inf s", "huge int s", "int prompt_id",
            "str track_id", "float track_id"])
    def test_bad_score_row_exits_2_naming_line(self, runner, tmp_path, fault, named):
        good = {"prompt_id": "p0", "track_id": 0, "s": 0.5, "p": 0.0, "s_prime": 0.5,
                "kept": True}
        scores = tmp_path / "scores.jsonl"
        scores.write_text(json.dumps(good) + "\n"
                          + json.dumps({**good, "track_id": 1, **fault}) + "\n")
        manifest = tmp_path / "cal.json"
        manifest.write_text(json.dumps({"train": [{"expr_id": "a", "freq": 0.5}],
                                        "similarity": [[1.0]]}))
        result = runner.invoke(main, ["--out", str(tmp_path / "run"), "calibrate",
                                      "--scores", str(scores), "--manifest", str(manifest)])
        assert result.exit_code == 2, result.output
        assert f"{scores}:2: {named}" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "run" / "scores_calibrated.jsonl").exists()


def edit_jsonl(path, line, **fields):
    """Set ``fields`` in the JSON object on ``line`` (from 1) of a JSON-lines file."""
    lines = path.read_text().splitlines()
    lines[line - 1] = json.dumps({**json.loads(lines[line - 1]), **fields})
    path.write_text("".join(l + "\n" for l in lines))


class TestInputFactsCheckedWhereRead:
    """Each input fact is checked once, by the reader of the file that holds it."""

    @pytest.mark.parametrize("case", [
        "empty candidates", "unknown candidate", "window of an unknown track",
        "window of an unknown prompt", "no dataset directory", "no model directory",
        "no manifest for score", "no manifest for calibrate", "no scores file",
        "zero visual_tokens", "zero truncate_to", "a concept the model lacks",
        "repeated candidate", "repeated prompt_id", "track under two entity_ids"])
    def test_bad_input_exits_2_naming_where(self, runner, trained, tmp_path, case):
        from mexfuse.pipeline import ScoredCandidate, write_scores

        cfg_path, out = trained
        data, model, run = tmp_path / "dataset", tmp_path / "model", tmp_path / "run"
        shutil.copytree(out / "dataset", data)
        shutil.copytree(out / "model", model)
        manifest, scores = tmp_path / "cal.json", tmp_path / "scores.jsonl"
        manifest.write_text(json.dumps({"train": [{"expr_id": "a", "freq": 0.5}],
                                        "similarity": [[1.0]]}))
        write_scores(scores, [ScoredCandidate(0, "p000", 0.5, 0.0, 0.5, True)])
        params = model / "params.json"
        cmd = "score"
        if case == "empty candidates":
            edit_jsonl(data / "tasks.jsonl", 2, candidates=[])
            named = f"{data / 'tasks.jsonl'}:2: candidates is empty"
        elif case == "unknown candidate":
            edit_jsonl(data / "tasks.jsonl", 2, candidates=[0, 999])
            named = f"{data / 'tasks.jsonl'}:2: unknown track_id 999 in candidates"
        elif case == "repeated candidate":
            edit_jsonl(data / "tasks.jsonl", 2, candidates=[0, 0, 1])
            named = f"{data / 'tasks.jsonl'}:2: track_id 0 listed twice in candidates"
        elif case == "repeated prompt_id":
            edit_jsonl(data / "tasks.jsonl", 2, prompt_id="p000")
            named = f"{data / 'tasks.jsonl'}:2: prompt_id p000 listed twice"
        elif case == "track under two entity_ids":
            edit_jsonl(data / "trajectories.jsonl", 2, entity_id="track-X")
            named = (f"{data / 'trajectories.jsonl'}:2: track 0: entity_id 'track-X', "
                     f"but an earlier row gives 'track-0'")
        elif case == "window of an unknown track":
            cmd = "train"
            edit_jsonl(data / "windows.jsonl", 2, track_id=999)
            named = f"{data / 'windows.jsonl'}:2: unknown track_id 999"
        elif case == "window of an unknown prompt":
            cmd = "train"
            edit_jsonl(data / "windows.jsonl", 2, prompt_id="nope")
            named = f"{data / 'windows.jsonl'}:2: unknown prompt_id nope"
        elif case == "no dataset directory":
            cmd = "train"
            shutil.rmtree(data)
            named = f"{data / 'trajectories.jsonl'}: cannot read (No such file or directory)"
        elif case == "no model directory":
            shutil.rmtree(model)
            named = f"{params}: cannot read (No such file or directory)"
        elif case.startswith("no manifest"):
            cmd = case.split()[-1]
            manifest.unlink()
            named = f"{manifest}: cannot read (No such file or directory)"
        elif case == "no scores file":
            cmd = "calibrate"
            scores.unlink()
            named = f"{scores}: cannot read (No such file or directory)"
        elif case.startswith("zero"):
            key = case.split()[1]
            doc = json.loads(params.read_text())
            doc["embedder"][key] = 0
            params.write_text(json.dumps(doc))
            named = (f"{params}: embedder.{key} must be an int from 1 to 2**63 - 1"
                     f"{' or null' if key == 'truncate_to' else ''}, got 0")
        else:  # the dataset names a concept the model was not trained with
            meta = json.loads((data / "meta.json").read_text())
            (data / "meta.json").write_text(json.dumps(
                {**meta, "concepts": meta["concepts"] + ["concept-9"]}))
            edit_jsonl(data / "concepts.jsonl", 2, concept="concept-9")
            named = f"{params}: embedder.concepts lacks the dataset's concept(s) ['concept-9']"
        if cmd == "calibrate":
            args = ["--out", str(run), "calibrate", "--scores", str(scores),
                    "--manifest", str(manifest)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**SMALL_CFG, "calibration": {
                "enabled": case == "no manifest for score", "manifest": str(manifest)}}))
            args = ["--config", str(cfg), "--out", str(run), cmd, "--dataset", str(data)]
            args += ["--model", str(model)] if cmd == "score" else []
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert named in result.output
        assert result.output.count(named.split(": ")[0]) == 1, result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)
        assert not os.path.exists(run)

    @pytest.mark.parametrize("variant", ["cascade", "plain"])
    @pytest.mark.parametrize("key", ["residual_add", "per_pair_projections"])
    @pytest.mark.parametrize("cmd", ["train", "bench"])
    def test_mex_only_option_for_another_variant_exits_2(self, runner, tmp_path, variant, key,
                                                         cmd):
        # only the mex block reads these options: another variant would run
        # as if they were off
        cfg, run = tmp_path / "cfg.json", tmp_path / "run"
        cfg.write_text(json.dumps({**SMALL_CFG, "fusion": {"d_k": 8, "variant": variant,
                                                           key: True}}))
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(run), cmd])
        assert result.exit_code == 2, result.output
        assert f"{cfg}: fusion.{key} applies to variant mex only, not {variant}" in result.output
        assert "Traceback" not in result.output
        assert not os.path.exists(run)

    def test_score_embeds_by_the_dataset_concept_map(self, runner, trained, tmp_path):
        # the model carries no concept map: a concepts.jsonl row edited after
        # training changes the scores of its track, and of no other
        cfg_path, out = trained
        data = tmp_path / "dataset"
        shutil.copytree(out / "dataset", data)
        rows = [json.loads(l) for l in (data / "concepts.jsonl").read_text().splitlines()]
        line = next(i for i, r in enumerate(rows, 1) if r["entity_id"] == "track-0@5")
        assert rows[line - 1]["concept"] == "concept-0"
        edit_jsonl(data / "concepts.jsonl", line, concept="concept-1")

        def scores(dataset, run):
            result = invoke(runner, "--config", str(cfg_path), "--out", str(run), "score",
                            "--dataset", str(dataset), "--model", str(out / "model"))
            assert result.exit_code == 0, result.output
            return {(r["track_id"], r["prompt_id"]): r["s"] for r in
                    map(json.loads, (run / "scores.jsonl").read_text().splitlines())}

        before, after = scores(out / "dataset", tmp_path / "a"), scores(data, tmp_path / "b")
        assert before.keys() == after.keys()
        assert {tid for (tid, pid), s in before.items() if after[tid, pid] != s} == {0}

    def test_a_model_scores_another_dataset_by_its_own_concepts(self, runner, toy_config_file,
                                                                tmp_path):
        # trained on 4 concepts, scoring a dataset of 2 whose tracks and
        # prompts share entity ids with the training set but not concepts
        a, b = tmp_path / "a", tmp_path / "b"
        for cmd in ("gen", "train"):
            assert invoke(runner, "--config", toy_config_file, "--out", str(a), cmd).exit_code == 0
        cfg_b = tmp_path / "b.json"
        doc = json.loads(Path(toy_config_file).read_text())
        cfg_b.write_text(json.dumps({**doc, "dataset": {**doc["dataset"], "n_concepts": 2}}))
        assert invoke(runner, "--config", str(cfg_b), "--out", str(b), "gen").exit_code == 0
        result = invoke(runner, "--config", str(cfg_b), "--out", str(b), "score",
                        "--model", str(a / "model"))
        assert result.exit_code == 0, result.output
        report = json.loads((b / "score_report.json").read_text())
        assert report["precision"] == report["recall"] == 1.0


class TestBench:
    def test_claim_holds_and_deterministic(self, runner, tmp_path):
        out = str(tmp_path / "bench")
        result = invoke(runner, "--out", out, "bench")
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "bench" / "bench.json").read_text())
        assert report["claim"]["params_ok"] and report["claim"]["peak_ok"]

        def strip(doc):
            for row in doc["rows"]:
                row.pop("wall_time_s", None)
            return doc

        invoke(runner, "--out", out, "bench")
        second = json.loads((tmp_path / "bench" / "bench.json").read_text())
        assert strip(report) == strip(second)

    def test_default_config_rows(self, runner, tmp_path):
        # one untrained score_all each at the default config (seed 0, paper
        # dims, 10 tracks x 4 prompts, window 8); plain's census leaves out
        # the global MLP that no pass reads
        out = str(tmp_path / "bench")
        assert invoke(runner, "--out", out, "bench").exit_code == 0
        rows = json.loads((tmp_path / "bench" / "bench.json").read_text())["rows"]
        assert [(r["variant"], r["per_pair"], r["d_k"], r["g"], r["t"], r["l"],
                 r["param_count"], r["peak_values"], r["flops"]) for r in rows] == [
            ("mex", False, 256, 16, 16, 20, 1_050_880, 2_415_480, 394_321_920),
            ("mex", True, 256, 16, 16, 20, 1_248_256, 2_567_544, 433_250_304),
            ("cascade", False, 256, 16, 16, 20, 1_248_256, 3_487_656, 511_410_176),
            ("plain", False, 256, 16, 16, 20, 1_050_880 - 262_656, 2_111_096, 338_317_312),
        ]

    def test_mex_options_stay_in_the_mex_rows(self, runner, tmp_path, monkeypatch):
        # residual_add is the config's for the mex rows; the cascade and
        # plain models run without it, as a config of theirs must
        from mexfuse import pipeline

        built = []
        score_all = pipeline.score_all

        def recorded(trajectories, tasks, model, **kw):
            fp = model.fusion_params
            built.append((fp.variant, fp.per_pair, fp.residual_add))
            return score_all(trajectories, tasks, model, **kw)

        monkeypatch.setattr(pipeline, "score_all", recorded)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CFG, "fusion": {"d_k": 8, "residual_add": True}}))
        result = invoke(runner, "--config", str(cfg), "--out", str(tmp_path / "b"), "bench")
        assert result.exit_code == 0, result.output
        assert built == [("mex", False, True), ("mex", True, True), ("cascade", False, False),
                         ("plain", False, False)]

    def test_honours_config(self, runner, tmp_path):
        # the config's dims are bench's sizes
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"fusion": {"d_k": 64},
                                   "embedder": {"visual_tokens": 4, "text_tokens": 5}}))
        reports = []
        for name, args in (("default", ()), ("small", ("--config", str(cfg)))):
            out = str(tmp_path / name)
            result = invoke(runner, *args, "--out", out, "bench")
            assert result.exit_code == 0, result.output
            reports.append(json.loads(Path(out, "bench.json").read_text()))
        default, small = reports
        assert {(r["d_k"], r["g"], r["t"], r["l"]) for r in small["rows"]} == {(64, 4, 4, 5)}
        for a, b in zip(default["rows"], small["rows"]):
            assert (a["variant"], a["per_pair"]) == (b["variant"], b["per_pair"])
            for key in ("param_count", "peak_values", "flops"):
                assert b[key] < a[key], (b["variant"], key)

    def test_concepts_the_embedder_refuses_exit_2(self, runner, tmp_path):
        # the toy config's 32-wide raw tokens cannot hold 40 orthogonal
        # concepts: bench refuses the dataset as train does
        cfg, run = tmp_path / "cfg.json", tmp_path / "run"
        cfg.write_text(json.dumps({**TOY_CONFIG, "dataset": {
            **TOY_CONFIG["dataset"], "n_concepts": 40, "n_tracks": 40}}))
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(run), "bench"])
        assert result.exit_code == 2, result.output
        assert "Error: 40 concepts exceed embedding dim 32" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)
        assert not os.path.exists(run)


class TestGradcheck:
    def test_passes_on_default_dims(self, runner):
        result = invoke(runner, "gradcheck")
        assert result.exit_code == 0
        assert "passed" in result.output
        # every configuration train can run, one line each
        checked = [line.split(":")[0] for line in result.output.splitlines()[:-1]]
        assert checked == ["mex", "mex/per_pair", "mex/residual_add",
                           "mex/per_pair/residual_add", "cascade", "plain"]

    @pytest.mark.parametrize("module,name", [("pipeline", "_loss_sum"),
                                             ("fusion", "pooled_cosine"),
                                             ("pipeline", "take"),
                                             ("features", "ProjectionMLP.__call__")])
    def test_fails_on_a_wrong_head_gradient(self, runner, monkeypatch, module, name):
        # the training loss, the scoring head, the prompt terms' gather and
        # the projection MLPs are on the checked graph: a backward pass that
        # doubles its gradient must fail the gate
        target = functools.reduce(getattr, name.split("."),
                                  importlib.import_module(f"mexfuse.{module}"))

        def doubled(*args):
            out = target(*args)
            right = out._backward
            if right is not None:
                out._backward = lambda g: right(2 * g)
            return out

        monkeypatch.setattr(f"mexfuse.{module}.{name}", doubled)
        result = runner.invoke(main, ["gradcheck"])
        assert result.exit_code == 1, result.output
        assert "gradient check FAILED" in result.output
