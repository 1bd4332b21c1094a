"""Command-line surface: gen, train, score, calibrate, bench, gradcheck, config.

Exit codes: 0 success, 1 claim/assertion failure, 2 usage or config error.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from contextlib import contextmanager

import click
import numpy as np

from . import __version__, calibration, config as config_mod, gradcheck, pipeline
from .config import ConfigError, DataFileError
from .features import MODALITIES, EmbedderConfig
from .pipeline import DatasetConfig, ReferringModel
from .tensor import DegenerateInputError, fresh_context

PAPER_MEX_PARAMS = 81_000_000
PAPER_CASCADE_PARAMS = 92_000_000
# bench's rows: (variant, per_pair); mex per_pair has the cascade block's census
BENCH_ROWS = (("mex", False), ("mex", True), ("cascade", False), ("plain", False))
# gradcheck's configs, every one ``train`` can run: (variant, mex's options)
GRADCHECK_CONFIGS = (("mex", {}), ("mex", {"per_pair": True}), ("mex", {"residual_add": True}),
                     ("mex", {"per_pair": True, "residual_add": True}), ("cascade", {}),
                     ("plain", {}))


def _load_config(ctx_obj):
    overrides = {}
    for key in ("seed", "out"):
        if ctx_obj.get(key) is not None:
            overrides[key] = ctx_obj[key]
    try:
        return config_mod.load(ctx_obj.get("config"), overrides)
    except (ConfigError, DataFileError) as exc:
        raise click.UsageError(str(exc))


def _write_manifest(cfg, command, outputs):
    os.makedirs(cfg["out"], exist_ok=True)
    pipeline._write_json(os.path.join(cfg["out"], f"run_manifest_{command}.json"),
                         {"command": command, "seed": cfg["seed"],
                          "config_hash": config_mod.config_hash(cfg),
                          "versions": {"python": platform.python_version(),
                                       "numpy": np.__version__, "mexfuse": __version__},
                          "outputs": sorted(outputs)})


def _embedder_from(cfg, concepts=()):
    e = cfg["embedder"]
    return EmbedderConfig(
        seed=cfg["seed"], raw_visual_dim=e["raw_visual_dim"],
        visual_tokens=e["visual_tokens"], raw_text_dim=e["raw_text_dim"],
        text_tokens=e["text_tokens"], fused_dim=cfg["fusion"]["d_k"],
        truncate_to=e["truncate_to"], oracle_mode=e["oracle_mode"],
        noise_scale=e["noise_scale"], concepts=tuple(concepts),
    )


def _dataset_config(cfg):
    ds = cfg["dataset"]
    return DatasetConfig(seed=cfg["seed"], n_concepts=ds["n_concepts"],
                         n_tracks=ds["n_tracks"], n_prompts=ds["n_prompts"],
                         n_frames=ds["n_frames"], n_windows=ds["n_windows"],
                         window=cfg["pipeline"]["window"])


def _build_model(cfg, concepts, manifest):
    emb = _embedder_from(cfg, concepts=concepts)
    return ReferringModel.build(
        emb, variant=cfg["fusion"]["variant"],
        residual_add=cfg["fusion"]["residual_add"],
        per_pair=cfg["fusion"]["per_pair_projections"],
        mlp_hidden=cfg["embedder"]["mlp_hidden"], seed=cfg["seed"],
        concept_of=pipeline.concept_map(manifest),
    )


def _stats_from(cfg):
    """The calibration stats ``score`` refines with, or None with calibration off."""
    cal = cfg["calibration"]
    if not cal["enabled"]:
        return None
    if cal["manifest"] is None:
        raise click.UsageError("calibration.enabled requires calibration.manifest")
    return _load_stats(cfg, cal["manifest"])


def _load_stats(cfg, manifest_path):
    """The calibration manifest at ``manifest_path``.

    Each of the config's ``calibration.tau``, ``a`` and ``b`` that is set
    replaces the manifest's value; ``score`` and ``calibrate`` both load here.
    """
    stats = calibration.load_manifest(manifest_path)
    for name in ("tau", "a", "b"):
        if cfg["calibration"][name] is not None:
            setattr(stats, name, cfg["calibration"][name])
    return stats


class InputError(click.ClickException):
    """Bad input data: reported as ``Error: <message>`` with exit code 2."""

    exit_code = 2


@contextmanager
def _input_errors():
    """Map the pipeline's bad-input errors to exit code 2 with their message."""
    try:
        yield
    except (DataFileError, DegenerateInputError) as exc:
        raise InputError(str(exc)) from None


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON config file; unknown keys are rejected.")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def main(ctx, config_path, seed, out):
    ctx.obj = {"config": config_path, "seed": seed, "out": out}


@main.group("config")
def config_group():
    pass


@config_group.command("show-defaults")
def show_defaults():
    click.echo(json.dumps(config_mod.defaults(), indent=2, sort_keys=True))


@main.command()
@click.pass_context
def gen(ctx):
    """Generate the deterministic synthetic referring dataset."""
    cfg = _load_config(ctx.obj)
    dcfg = _dataset_config(cfg)
    with _input_errors():
        data = pipeline.generate_synthetic_dataset(dcfg)
    out_dir = os.path.join(cfg["out"], "dataset")
    pipeline.save_dataset(out_dir, data, dcfg)
    _write_manifest(cfg, "gen", [out_dir])
    click.echo(f"dataset written to {out_dir}")


@main.command()
@click.option("--dataset", "dataset_dir", type=click.Path(), default=None)
@click.pass_context
def train(ctx, dataset_dir):
    """Train the fusion block and projection MLPs on the toy dataset."""
    cfg = _load_config(ctx.obj)
    dataset_dir = dataset_dir or os.path.join(cfg["out"], "dataset")
    with _input_errors():
        data = pipeline.load_dataset(dataset_dir)
    model = _build_model(cfg, data["meta"]["concepts"], data["manifest"])
    p = cfg["pipeline"]
    epoch_rows = []
    try:
        with _input_errors():
            curve = pipeline.train(data["samples"], data["trajectories"], data["tasks"],
                                   model, epochs=p["epochs"], batch_size=p["batch_size"],
                                   lr=p["lr"], momentum=p["momentum"],
                                   neg_margin=p["neg_margin"], seed=cfg["seed"],
                                   log=epoch_rows.append)
    except pipeline.TrainingError as exc:
        click.echo(f"training aborted: {exc}", err=True)
        sys.exit(1)
    model_dir = os.path.join(cfg["out"], "model")
    model.save(model_dir)
    curve_path = os.path.join(cfg["out"], "loss_curve.json")
    pipeline._write_json(curve_path, {"epoch_mean_loss": curve})
    # per-epoch signals; holds wall times, so re-runs are not byte-identical
    log_path = os.path.join(cfg["out"], "train_log.jsonl")
    pipeline._write_jsonl(log_path, epoch_rows)
    _write_manifest(cfg, "train", [model_dir, curve_path, log_path])
    click.echo(f"initial loss {curve[0]:.6f}, final loss {curve[-1]:.6f}")


@main.command()
@click.option("--dataset", "dataset_dir", type=click.Path(), default=None)
@click.option("--model", "model_dir", type=click.Path(), default=None)
@click.pass_context
def score(ctx, dataset_dir, model_dir):
    """Score every (trajectory, prompt) pair, calibrate, and filter."""
    cfg = _load_config(ctx.obj)
    dataset_dir = dataset_dir or os.path.join(cfg["out"], "dataset")
    model_dir = model_dir or os.path.join(cfg["out"], "model")
    with _input_errors():
        stats = _stats_from(cfg)
        data = pipeline.load_dataset(dataset_dir)
        # the loaded model is handed on, not kept: score_all then frees its
        # weights stage by stage
        cands = pipeline.score_all(
            data["trajectories"], data["tasks"],
            ReferringModel.load(model_dir, pipeline.concept_map(data["manifest"])),
            window=cfg["pipeline"]["window"], stats=stats, threshold=cfg["pipeline"]["threshold"])
    os.makedirs(cfg["out"], exist_ok=True)
    scores_path = os.path.join(cfg["out"], "scores.jsonl")
    pipeline.write_scores(scores_path, cands)
    outputs = [scores_path]
    if data["labels"]:
        precision, recall = pipeline.precision_recall(cands, data["labels"])
        report_path = os.path.join(cfg["out"], "score_report.json")
        pipeline._write_json(report_path, {"precision": precision, "recall": recall,
                                           "kept": sum(c.kept for c in cands),
                                           "total": len(cands)})
        outputs.append(report_path)
        click.echo(f"precision {precision:.3f} recall {recall:.3f}")
    _write_manifest(cfg, "score", outputs)
    click.echo(f"scores written to {scores_path}")


@main.command()
@click.option("--scores", "scores_path", type=click.Path(), required=True)
@click.option("--manifest", "manifest_path", type=click.Path(), required=True)
@click.pass_context
def calibrate(ctx, scores_path, manifest_path):
    """Re-refine a scores file with a calibration manifest (and the config's tau, a, b)."""
    cfg = _load_config(ctx.obj)
    with _input_errors():
        stats = _load_stats(cfg, manifest_path)
        scored = pipeline.read_scores(scores_path)
        refined = pipeline.refine_threshold_sort(
            [(c.track_id, c.prompt_id, c.raw_score) for c in scored],
            stats, cfg["pipeline"]["threshold"])
    os.makedirs(cfg["out"], exist_ok=True)
    out_path = os.path.join(cfg["out"], "scores_calibrated.jsonl")
    pipeline.write_scores(out_path, refined)
    _write_manifest(cfg, "calibrate", [out_path])
    click.echo(f"calibrated scores written to {out_path}")


@main.command()
@click.pass_context
def bench(ctx):
    """Score the configured dataset with each untrained variant; check the efficiency claim."""
    cfg = _load_config(ctx.obj)
    window = cfg["pipeline"]["window"]
    with _input_errors():
        data = pipeline.generate_synthetic_dataset(_dataset_config(cfg))
    rows = []
    for variant, per_pair in BENCH_ROWS:
        # the mex-only options are the config's for the mex rows alone
        fusion = {**cfg["fusion"], "variant": variant, "per_pair_projections": per_pair,
                  "residual_add": variant == "mex" and cfg["fusion"]["residual_add"]}
        model = _build_model({**cfg, "fusion": fusion}, data["concepts"], data["manifest"])
        t0 = time.perf_counter()
        with _input_errors(), fresh_context() as run:
            pipeline.score_all(data["trajectories"], data["tasks"], model, window=window)
        wall = time.perf_counter() - t0
        (g, _), (t, _), (l, _) = (model._raw_shape(m) for m in MODALITIES)
        rows.append({"variant": variant, "per_pair": per_pair, "d_k": model.fusion_params.d_k,
                     "g": g, "t": t, "l": l,
                     "param_count": sum(p.data.size for p in model.parameters()),
                     **run.ledger.snapshot(), "wall_time_s": wall})
    mex, cas = (rows[BENCH_ROWS.index(key)] for key in (("mex", False), ("cascade", False)))
    claim = {
        "params_ok": mex["param_count"] < cas["param_count"],
        "peak_ok": mex["peak_values"] < cas["peak_values"],
        "param_ratio": mex["param_count"] / cas["param_count"],
        "peak_ratio": mex["peak_values"] / cas["peak_values"],
        "reported_paper_params": {"mex": PAPER_MEX_PARAMS,
                                  "cascade": PAPER_CASCADE_PARAMS,
                                  "ratio": PAPER_MEX_PARAMS / PAPER_CASCADE_PARAMS},
    }
    os.makedirs(cfg["out"], exist_ok=True)
    bench_path = os.path.join(cfg["out"], "bench.json")
    pipeline._write_json(bench_path, {"rows": rows, "claim": claim})
    click.echo(f"{'variant':>13} {'d_k':>5} {'params':>10} {'peak_vals':>10} {'flops':>12} "
               f"{'wall_s':>8}")
    for r in rows:
        name = r["variant"] + ("/per_pair" if r["per_pair"] else "")
        click.echo(f"{name:>13} {r['d_k']:>5} {r['param_count']:>10} "
                   f"{r['peak_values']:>10} {r['flops']:>12} {r['wall_time_s']:>8.4f}")
    _write_manifest(cfg, "bench", [bench_path])
    click.echo(f"param ratio mex/cascade: {claim['param_ratio']:.3f} "
               f"(reported full-module ratio {claim['reported_paper_params']['ratio']:.3f})")
    click.echo(f"peak ratio mex/cascade: {claim['peak_ratio']:.3f}")
    if not (claim["params_ok"] and claim["peak_ok"]):
        click.echo("efficiency claim FAILED at the configured sizes", err=True)
        sys.exit(1)
    click.echo(f"bench report written to {bench_path}")


@main.command()
@click.pass_context
def gradcheck_cmd(ctx):
    """Verify analytic gradients against central finite differences."""
    cfg = _load_config(ctx.obj)
    worst = 0.0
    for variant, options in GRADCHECK_CONFIGS:
        err = gradcheck.max_relative_error(variant, seed=cfg["seed"], **options)
        click.echo(f"{'/'.join([variant, *options])}: max relative gradient error {err:.3e}")
        worst = max(worst, err)
    if worst > 1e-4:
        click.echo(f"gradient check FAILED: {worst:.3e} > 1e-4", err=True)
        sys.exit(1)
    click.echo(f"gradient check passed (max {worst:.3e})")


main.add_command(gradcheck_cmd, name="gradcheck")


if __name__ == "__main__":
    main()
