"""Run configuration: defaults, file loading, strict key checking."""

from __future__ import annotations

import copy
import hashlib
import json
import sys


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
        # null: the manifest's own value (which defaults to 100, 8, -0.1)
        "tau": None,
        "a": None,
        "b": None,
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
}


def defaults():
    return copy.deepcopy(DEFAULTS)


def _finite(v):
    # NaN, the infinities and ints past the float range fail the bound
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _ints(v):
    return type(v) is list and all(type(i) is int for i in v)


# the kinds of JSON value a config leaf, a data-file field or a calibration
# manifest value may hold: each kind's test, and the words that name it in a message
KINDS = {
    "bool": (lambda v: type(v) is bool, "true or false"),
    "int": (lambda v: type(v) is int, "an int"),
    "str": (lambda v: type(v) is str, "a str"),
    "number": (_finite, "a finite number"),
    "track ids": (_ints, "a list of int track ids"),
    "frames": (lambda v: _ints(v) and len(v) > 0, "a non-empty list of int frame indices"),
    "box": (lambda v: type(v) is list and len(v) == 4 and all(map(_finite, v)),
            "4 finite numbers"),
    "numbers": (lambda v: type(v) is list and len(v) > 0 and all(map(_finite, v)),
                "a non-empty list of finite numbers"),
    "strs": (lambda v: type(v) is list and all(type(i) is str for i in v), "a list of strs"),
}


def check_kind(kind, value, key):
    """Raise TypeError naming ``key`` unless ``value`` is of ``kind``, a key of KINDS."""
    test, words = KINDS[kind]
    if not test(value):
        raise TypeError(f"{key} must be {words}, got {value!r}")


# the kind of the leaves whose default is None, when they are set
_NULLABLE = {"embedder.truncate_to": "int", "embedder.mlp_hidden": "int",
             "calibration.manifest": "str", "calibration.tau": "number",
             "calibration.a": "number", "calibration.b": "number"}
# ranges of numeric leaves; other numbers need only be finite
_POSITIVE = {"embedder.raw_visual_dim", "embedder.visual_tokens", "embedder.raw_text_dim",
             "embedder.text_tokens", "embedder.truncate_to", "embedder.mlp_hidden",
             "fusion.d_k", "pipeline.window", "pipeline.epochs", "pipeline.batch_size",
             "dataset.n_concepts", "dataset.n_tracks", "dataset.n_prompts",
             "dataset.n_frames", "dataset.n_windows"}
_NON_NEGATIVE = {"seed", "embedder.noise_scale", "pipeline.lr", "pipeline.momentum"}
_CHOICES = {"fusion.variant": ("mex", "cascade", "plain")}
# the kind of a leaf, named after the type of its default
_KIND_OF = {bool: "bool", int: "int", float: "number", str: "str"}


def _check_leaf(default, value, key):
    """Raise ConfigError naming the dotted ``key`` unless ``value`` fits its default."""
    if default is None and value is None:
        return
    try:
        check_kind(_NULLABLE[key] if default is None else _KIND_OF[type(default)], value, key)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    if key in _POSITIVE and value < 1:
        raise ConfigError(f"{key} must be >= 1, got {value!r}")
    if key in _NON_NEGATIVE and value < 0:
        raise ConfigError(f"{key} must be >= 0, got {value!r}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(f"{key} must be one of {', '.join(_CHOICES[key])}, got {value!r}")


def _merge(base, override, path="", spec=DEFAULTS):
    """Merge ``override`` into ``base``; keys, types and ranges are checked against ``spec``."""
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in spec:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(spec[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here} must be a section, got {type(value).__name__}")
            _merge(base[key], value, here, spec[key])
        else:
            _check_leaf(spec[key], value, here)
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
