"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The end-to-end tests copy ``src/``, ``perfbench/`` and ``BENCHMARK.json``
into a temporary checkout and run the benchmark there, as a user would.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mexfuse import kernels, tensor  # noqa: E402
from mexfuse.cli import main as cli  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _checkout(tmp_path, with_src=True):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run(checkout, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=checkout,
                          capture_output=True, text=True, timeout=180)


# ---- metric names ------------------------------------------------------------


def test_declared_metrics_match_benchmark_json():
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_METRICS
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_match_benchmark_json(tmp_path, trace):
    proc = _run(_checkout(tmp_path), "--workload", "paper-score", "--seed", "5",
                "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in declared:  # every metric is printed by name before the JSON line
        assert any(line.split()[:1] == [name] for line in proc.stdout.splitlines()[:-1])
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        # exact structural counts of one score pass at the paper dims
        assert m["features.mlp_calls"] == 5440
        assert m["fusion.fuse_calls"] == 2560
        assert m["kernels.matmul_calls"] == 31360
        assert m["tensor.madds"] == 33_064_222_720
        spans = []
        run_dir = next((tmp_path / run.RUNS_DIR).iterdir())
        with open(run_dir / "spans.jsonl") as fh:
            for line in fh:
                s = json.loads(line)
                spans.append((s["span"], s["parent"], s["name"], s["start"], s["end"]))
        assert len({s[0] for s in spans}) == len(spans)
        selfs = tracing.self_times(spans)
        assert all(0.0 <= selfs[s[0]] <= s[4] - s[3] for s in spans)


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    proc = _run(_checkout(tmp_path, with_src=False), "--workload", "rescore", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---- output checks -----------------------------------------------------------


def _run_cli(workload, command, ws):
    cli.main(workloads.cli_args(workload, command, ws), standalone_mode=False)


def _rewrite_jsonl(path, edit):
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    rows = edit(rows)
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in rows)


def _edited(rows, i, **changes):
    rows[i].update(changes)
    return rows


@pytest.fixture
def rescored(tmp_path, monkeypatch):
    """A rescore work dir at reduced size, with the program's real outputs."""
    monkeypatch.setitem(workloads.RESCORE, "prompts", 6)
    monkeypatch.setitem(workloads.RESCORE, "tracks", 30)
    wl = workloads.WORKLOADS["rescore"]
    ws = str(tmp_path / "ws")
    workloads.setup(wl, 4, ws)
    _run_cli(wl, "calibrate", ws)
    cfg = workloads.config_for(wl, 4)
    assert checks.check(wl, ws, cfg, 4) == []
    return wl, ws, cfg


@pytest.mark.parametrize("edit", [
    lambda rows: _edited(rows, 0, s_prime=rows[0]["s_prime"] + 1e-9),
    lambda rows: _edited(rows, 0, p=rows[0]["p"] * 2),
    lambda rows: _edited(rows, 3, kept=not rows[3]["kept"]),
    lambda rows: rows[1:],
    lambda rows: [rows[1], rows[0]] + rows[2:],
    lambda rows: _edited(rows, 0, track_id=rows[1]["track_id"], prompt_id=rows[1]["prompt_id"]),
], ids=["s_prime", "p", "kept", "dropped-row", "order", "duplicate"])
def test_corrupted_rescore_output_is_a_failure(rescored, edit):
    wl, ws, cfg = rescored
    _rewrite_jsonl(os.path.join(ws, "scores_calibrated.jsonl"), edit)
    errors = checks.check(wl, ws, cfg, 4)
    assert errors
    rep = {"error": None, "digest": "d", "wall_s": 1.0}
    assert run.tally([True], [rep], [], errors) == (2, 1)
    assert run.tally([True], [rep], [], []) == (2, 0)


def test_corrupted_paper_score_output_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.PAPER_CONFIG, "dataset",
                        {**workloads.PAPER_CONFIG["dataset"], "n_tracks": 4, "n_prompts": 2})
    wl = workloads.WORKLOADS["paper-score"]
    ws = str(tmp_path / "ws")
    workloads.setup(wl, 2, ws)
    _run_cli(wl, "score", ws)
    cfg = workloads.config_for(wl, 2)
    assert checks.check(wl, ws, cfg, 2) == []
    # a raw score off by more than the tolerance, with s' and kept kept consistent
    _rewrite_jsonl(os.path.join(ws, "scores.jsonl"),
                   lambda rows: [{**r, "s": r["s"] + 1e-6, "s_prime": r["s_prime"] + 1e-6}
                                 for r in rows])
    errors = checks.check(wl, ws, cfg, 2)
    assert errors and "numpy reference" in errors[0]


def test_failed_command_and_differing_repeat_count_as_failures():
    ok = {"error": None, "digest": "a", "wall_s": 1.0}
    differs = {"error": None, "digest": "b", "wall_s": 1.0}
    crashed = {"error": "exit code 1", "digest": None, "wall_s": 1.0}
    assert run.tally([True, False], [differs, ok], [], []) == (4, 2)
    assert run.tally([True], [ok], [crashed], []) == (3, 1)


# ---- host-speed reference ----------------------------------------------------


def test_reference_samples_are_taken_out_and_scale_the_time():
    previous = signal.getsignal(signal.SIGALRM)
    with reference.Sampler("python", interval=0.02) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
    rep = {"wall_s": time.perf_counter() - start, **sampler.record()}
    assert signal.getsignal(signal.SIGALRM) is previous
    assert rep["ref_samples"] >= 3
    assert 0.0 < rep["ref_total_s"] < rep["wall_s"]
    # on a host where the kernel takes twice its nominal time, the command
    # counts half of the time it took there
    slow = {**rep, "ref_mean_s": 2 * rep["ref_nominal_s"]}
    assert reference.normalised_s(slow) == pytest.approx(
        (rep["wall_s"] - rep["ref_total_s"]) / 2)


# ---- tracing -----------------------------------------------------------------


def test_self_times_subtract_the_union_of_children():
    spans = [(0, None, "a", 0.0, 10.0), (1, 0, "b", 1.0, 4.0), (2, 0, "c", 3.0, 6.0),
             (3, 0, "d", 9.0, 12.0), (4, 1, "e", 2.0, 3.0)]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 4.0, 1: 2.0, 2: 3.0, 3: 3.0, 4: 1.0}


def test_spans_nest_and_self_times_stay_within_them():
    tr = tracing.Tracer("t")
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(1000))
        with tr.span("inner"):
            with tr.span("leaf"):
                pass
    ids = {sid: (parent, name) for sid, parent, name, _, _ in tr.spans}
    assert sorted(ids) == [0, 1, 2, 3]
    assert ids[0] == (None, "outer") and ids[3] == (2, "leaf")
    selfs = tracing.self_times(tr.spans)
    assert all(0.0 <= selfs[s[0]] <= s[4] - s[3] for s in tr.spans)
    assert tr.span_stats()["inner"][0] == 2


def test_absent_wrap_target_is_named_and_never_raises(monkeypatch):
    monkeypatch.delattr(kernels, "matmul2d")
    original_init = tensor.Tensor.__dict__["__init__"]
    tr = tracing.Tracer("t")
    tr.install()
    try:
        assert not tr.wrap("mexfuse.nosuchmodule:f", lambda fn: fn)
        assert tensor.Tensor.__dict__["__init__"] is not original_init
        tensor.Tensor([1.0, 2.0])
    finally:
        tr.remove()
    assert tensor.Tensor.__dict__["__init__"] is original_init
    assert not hasattr(kernels, "matmul2d")
    assert set(tr.absent) == {"mexfuse.kernels:matmul2d", "mexfuse.nosuchmodule:f"}
    metrics = tr.metrics({name: 0.5 for name in tracing.PROFILE_METRICS})
    assert metrics["tensor.tensors_created"] == 1
    missing = tr.missing(metrics)
    assert "mexfuse.kernels:matmul2d" in missing["kernels.matmul_calls"]
    assert missing["fusion.fuse_calls"] == "layer not entered by this workload"
    assert "tensor.tensors_created" not in missing
