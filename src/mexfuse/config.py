"""Run configuration: defaults, file loading, strict key checking."""

from __future__ import annotations

import copy
import hashlib
import json


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "seed": 0,
    "out": "runs/out",
    "embedder": {
        "raw_visual_dim": 768,
        "visual_tokens": 16,
        "raw_text_dim": 1024,
        "text_tokens": 20,
        "truncate_to": None,
        "oracle_mode": True,
        "noise_scale": 0.05,
        "mlp_hidden": None,
    },
    "fusion": {
        "variant": "mex",
        "d_k": 256,
        "residual_add": False,
        "per_pair_projections": False,
    },
    "calibration": {
        "enabled": False,
        "manifest": None,
        "tau": 100.0,
        "a": 8.0,
        "b": -0.1,
    },
    "pipeline": {
        "window": 8,
        "threshold": 0.0,
        "epochs": 100,
        "batch_size": 8,
        "lr": 1e-5,
        "momentum": 1e-5,
        "neg_margin": 0.0,
    },
    "dataset": {
        "n_concepts": 4,
        "n_tracks": 10,
        "n_prompts": 4,
        "n_frames": 12,
        "n_windows": 32,
    },
    "bench": {
        "d_k_sweep": [32, 64, 256],
        "visual_tokens": 16,
        "text_tokens": 20,
        "with_backward": False,
    },
}


def defaults():
    return copy.deepcopy(DEFAULTS)


def _merge(base, override, path=""):
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here} must be a section, got {type(value).__name__}")
            _merge(base[key], value, here)
        else:
            base[key] = value
    return base


def load(path=None, overrides=None):
    cfg = defaults()
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}")
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
        _merge(cfg, raw)
    if overrides:
        _merge(cfg, overrides)
    return cfg


def config_hash(cfg):
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()
