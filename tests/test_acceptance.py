"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured runtime (run with -s to see them)."""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mexfuse import gradcheck
from mexfuse.calibration import normalized_weights, refine
from mexfuse.cli import main as cli_main
from mexfuse.fusion import FusionParams, fuse
from mexfuse.tensor import Tensor

from conftest import TOY_CONFIG
from test_fusion import oracle_cascade, oracle_mex, random_streams


def _report(num, desc, t0, budget_s):
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion {num}: {desc} ({elapsed:.2f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_1_row_stochasticity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    for _ in range(200):
        g, t, l = rng.integers(1, 9, size=3)
        d_k = int(rng.choice([4, 8, 16]))
        params = FusionParams("mex", d_k, rng)
        out = fuse(params, *(Tensor(s) for s in random_streams(rng, g, t, l, d_k)))
        for attn in (out.attn_it, out.attn_tp, out.attn_itp):
            assert (attn >= -1e-12).all()
            assert np.abs(attn.sum(axis=1) - 1).max() <= 1e-9
    _report(1, "all attention maps row-stochastic over 200 random configs", t0, 5)


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    for _ in range(50):
        g, t, l = rng.integers(1, 7, size=3)
        d_k = int(rng.choice([4, 8]))
        fG, fL, fP = random_streams(rng, g, t, l, d_k)
        mex = FusionParams("mex", d_k, rng)
        got = fuse(mex, Tensor(fG), Tensor(fL), Tensor(fP)).fused.data
        assert np.abs(got - oracle_mex(fG, fL, fP, mex)).max() <= 1e-10
        cas = FusionParams("cascade", d_k, rng)
        got = fuse(cas, Tensor(fG), Tensor(fL), Tensor(fP)).fused.data
        assert np.abs(got - oracle_cascade(fL, fG, fP, cas)).max() <= 1e-10
    _report(2, "mex and cascade match straight-from-formula oracles on 50 instances", t0, 5)


def test_criterion_3_gradient_check():
    t0 = time.perf_counter()
    worst = 0.0
    for variant in ("mex", "cascade"):
        err = gradcheck.max_relative_error(variant, g=2, t=3, l=4, d_k=8, step=1e-5)
        assert err <= 1e-4, f"{variant}: {err:.3e}"
        worst = max(worst, err)
    _report(3, f"fusion+pooling+cosine gradients, max rel err {worst:.2e} <= 1e-4", t0, 30)


def test_criterion_4_efficiency_direction(tmp_path):
    t0 = time.perf_counter()
    out = str(tmp_path / "bench")
    result = CliRunner().invoke(cli_main, ["--out", out, "bench"], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    claim = json.loads(Path(out, "bench.json").read_text())["claim"]
    assert claim["params_ok"] and claim["peak_ok"]
    _report(4, "at d_k=256 / 16+20 tokens: mex params+peak below cascade "
               f"(param ratio {claim['param_ratio']:.2f}; full-module reference "
               f"ratio {claim['reported_paper_params']['ratio']:.2f})", t0, 60)


def test_criterion_5_calibration_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(500)
    for _ in range(100):
        x = rng.uniform(-1, 1, size=rng.integers(1, 30))
        assert abs(normalized_weights(x, 100.0).sum() - 1) <= 1e-12
    w = normalized_weights([0.02, 0.01], 100.0)
    e = math.e
    assert abs(w[0] - e / (e + 1)) <= 1e-5 and abs(w[1] - 1 / (e + 1)) <= 1e-5
    assert refine(0.5, 0.05, 8, -0.1) == 0.8
    _report(5, "weights sum to 1, worked example matches, refine(0.5,0.05,8,-0.1)=0.8", t0, 1)


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("toy") / "run")
    cfg_path = os.path.join(out + "-cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(TOY_CONFIG, fh)
    runner = CliRunner()
    results = {}
    for cmd in ("gen", "train", "score"):
        results[cmd] = runner.invoke(cli_main, ["--config", cfg_path, "--out", out, cmd],
                                     catch_exceptions=False)
        assert results[cmd].exit_code == 0, results[cmd].output
    return {"out": out, "cfg": cfg_path, "runner": runner}


def test_criterion_6_end_to_end_toy_separation(toy_run):
    t0 = time.perf_counter()
    out = toy_run["out"]
    curve = json.loads(Path(out, "loss_curve.json").read_text())["epoch_mean_loss"]
    assert len(curve) == 100
    assert curve[-1] <= 0.5 * curve[0], f"loss {curve[0]:.4f} -> {curve[-1]:.4f}"
    report = json.loads(Path(out, "score_report.json").read_text())
    assert report["precision"] == 1.0 and report["recall"] == 1.0
    _report(6, "toy oracle dataset: precision=recall=1.0 at threshold 0, final loss "
               f"{curve[-1]:.2e} <= 0.5x initial {curve[0]:.2e}", t0, 600)


def test_criterion_7_determinism(toy_run):
    t0 = time.perf_counter()
    out, cfg, runner = toy_run["out"], toy_run["cfg"], toy_run["runner"]
    tracked = ["dataset/trajectories.jsonl", "dataset/windows.jsonl", "scores.jsonl",
               "score_report.json", "loss_curve.json", "model/params.json",
               "model/fusion.proj_i.w.mext"]
    before = {f: Path(out, f).read_bytes() for f in tracked}
    for cmd in ("gen", "train", "score"):
        result = runner.invoke(cli_main, ["--config", cfg, "--out", out, cmd],
                               catch_exceptions=False)
        assert result.exit_code == 0, result.output
    after = {f: Path(out, f).read_bytes() for f in tracked}
    assert before == after
    _report(7, "gen/train/score re-runs are byte-identical", t0, 600)
