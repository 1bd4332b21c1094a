import importlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mexfuse import config as config_mod
from mexfuse.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


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
                                         ({"pipeline": {"lr": 10 ** 400}}, "pipeline.lr")])
    def test_bad_value_exits_2_naming_key(self, runner, tmp_path, cfg, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["--config", str(bad), "gen"])
        assert result.exit_code == 2
        assert key in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

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

    def test_unknown_candidate_track_exits_2(self, runner, trained, tmp_path):
        cfg_path, out = trained
        data = tmp_path / "dataset"
        shutil.copytree(out / "dataset", data)
        tasks = [json.loads(l) for l in (data / "tasks.jsonl").read_text().splitlines()]
        tasks[0]["candidates"].append(999)
        (data / "tasks.jsonl").write_text("".join(json.dumps(t) + "\n" for t in tasks))
        result = runner.invoke(main, ["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                                      "score", "--dataset", str(data),
                                      "--model", str(out / "model")])
        assert result.exit_code == 2, result.output
        assert "unknown track_id 999" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

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
        (30, "truncated payload (6 of 512 bytes)")], ids=["header", "extents", "payload"])
    def test_truncated_model_file_exits_2(self, runner, trained, tmp_path, keep, part):
        cfg_path, out = trained
        model = tmp_path / "model"
        shutil.copytree(out / "model", model)
        path = model / "fusion.proj_i.w.mext"
        path.write_bytes(path.read_bytes()[:keep])
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
        assert f"{model / 'params.json'}: ValueError: variant must be one of" in result.output
        assert "'bogus'" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("concept_of,named", [
        ([1, 2], "TypeError: concept_of must be an object of strings, got [1, 2]"),
        ({"prompt-0": "bogus"}, "ValueError: concept_of names concept(s) ['bogus'] not in"),
    ], ids=["not-an-object", "unknown-concept"])
    def test_bad_concept_of_exits_2(self, runner, trained, tmp_path, concept_of, named):
        cfg_path, out = trained
        model = tmp_path / "model"
        shutil.copytree(out / "model", model)
        manifest = json.loads((model / "params.json").read_text())
        if isinstance(concept_of, dict):
            concept_of = {**manifest["concept_of"], **concept_of}
        manifest["concept_of"] = concept_of
        (model / "params.json").write_text(json.dumps(manifest))
        result = runner.invoke(main, ["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                                      "score", "--dataset", str(out / "dataset"),
                                      "--model", str(model)])
        assert result.exit_code == 2, result.output
        assert f"{model / 'params.json'}: {named}" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

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
        ("score", "label track_id a string", "labels.jsonl:2: track_id must be an int, got '1'"),
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
        ("track_id", 999, "unknown track_id 999"),
        ("prompt_id", "nope", "unknown prompt_id nope"),
    ], ids=["frames-int", "frames-empty", "frames-str", "frame-not-in-track", "match-str",
            "match-int", "unknown-track", "unknown-prompt"])
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
        ("train", "trajectories.jsonl", "frame", "2", "frame must be an int, got '2'"),
        ("score", "trajectories.jsonl", "track_id", "1", "track_id must be an int, got '1'"),
        ("train", "trajectories.jsonl", "box", [1, 2, 3],
         "box must be 4 finite numbers, got [1, 2, 3]"),
        ("score", "tasks.jsonl", "candidates", [0, 999], "unknown track_id 999"),
    ], ids=["int prompt_id", "str frame", "str track_id", "short box", "unknown candidate"])
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

    def test_missing_dataset_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["--out", str(tmp_path / "empty"), "train"])
        assert result.exit_code == 2
        assert "not found" in result.output


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
        ("no train key", "missing key 'train'"),
        ("prompt not in test_ids", "prompt 'p000' not in test_ids"),
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

    @pytest.mark.parametrize("cmd", ["score", "calibrate"])
    def test_fewer_rows_than_prompts_without_test_ids_exits_2(self, runner, tmp_path, cmd):
        # rows are taken in sorted prompt order; the third and fourth prompts have none
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
        assert f"{manifest}: no similarity row for prompt 'p002'" in result.output
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
        ({"track_id": "1"}, "track_id must be an int, got '1'"),
        ({"track_id": 1.0}, "track_id must be an int, got 1.0"),
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

    def test_missing_scores_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["calibrate", "--scores", "/nope.jsonl",
                                      "--manifest", "/nope.json"])
        assert result.exit_code == 2


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


class TestGradcheck:
    def test_passes_on_default_dims(self, runner):
        result = invoke(runner, "gradcheck")
        assert result.exit_code == 0
        assert "passed" in result.output

    @pytest.mark.parametrize("module,name", [("pipeline", "_loss_sum"),
                                             ("fusion", "pooled_cosine")])
    def test_fails_on_a_wrong_head_gradient(self, runner, monkeypatch, module, name):
        # the training loss and the scoring head are on the checked chain: a
        # backward pass that doubles its gradient must fail the gate
        target = getattr(importlib.import_module(f"mexfuse.{module}"), name)

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
