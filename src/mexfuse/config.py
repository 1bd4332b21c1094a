"""Run configuration, and the one reader of JSON input files: kinds and field tables."""

from __future__ import annotations

import copy
import hashlib
import json
import sys


class ConfigError(ValueError):
    """A bad config value; one read from a config file raises DataFileError naming the file."""


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


def _int(v):
    # numpy and struct take sizes and seeds as int64
    return type(v) is int and -2 ** 63 <= v < 2 ** 63


def _ints(v):
    return type(v) is list and all(map(_int, v))


# the kinds of JSON value a config leaf or an input file's field may hold:
# each kind's test, and the words that name it in a message
KINDS = {
    "bool": (lambda v: type(v) is bool, "true or false"),
    "int": (_int, "an int from -2**63 to 2**63 - 1"),
    "size": (lambda v: _int(v) and v >= 1, "an int from 1 to 2**63 - 1"),
    "str": (lambda v: type(v) is str, "a str"),
    "variant": (lambda v: v in ("mex", "cascade", "plain"), "one of mex, cascade, plain"),
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
    """Raise TypeError naming ``key`` unless ``value`` is of ``kind``, a key of
    KINDS; a kind ending in "?" also takes null."""
    nullable = kind[-1] == "?"
    if nullable:
        if value is None:
            return
        kind = kind[:-1]
    test, words = KINDS[kind]
    if not test(value):
        raise TypeError(f"{key} must be {words}{' or null' if nullable else ''}, got {value!r}")


def check_fields(record, fields, path=""):
    """Raise TypeError naming the key unless the object ``record`` holds every
    key of ``fields``, each with a value of its kind.

    A field's kind is a kind for ``check_kind``, a dict of fields for an
    object, or a one-item list ``[kind]`` for a list each of whose items is
    of that kind. Keys are named by their path: ``fusion.d_k``, ``train[0].freq``.
    """
    missing = [path + key for key in fields if key not in record]
    if missing:
        raise TypeError(f"missing key(s) {missing}")
    for key, kind in fields.items():
        value = record[key]
        if type(kind) is str:
            check_kind(kind, value, path + key)
        elif type(value) is not type(kind):
            raise TypeError(f"{path}{key} must be "
                            f"{'an object' if type(kind) is dict else 'a list'}, got {value!r}")
        elif type(kind) is dict:
            check_fields(value, kind, f"{path}{key}.")
        else:  # each item, as a one-field record named by its index
            for i, item in enumerate(value):
                check_fields({"": item}, {"": kind[0]}, f"{path}{key}[{i}]")


class DataFileError(ValueError):
    """An input file that is missing, unreadable or not JSON, or that holds a
    bad field; the message names the file, and the line or key."""


def cannot_read(path, exc):
    """The DataFileError for a file that cannot be opened or decoded: an
    OSError by its strerror, since its str names the file again."""
    return DataFileError(f"{path}: cannot read ({getattr(exc, 'strerror', None) or exc})")


def check_record(where, record, fields, check=None):
    """``record``, once it is a JSON object holding ``fields`` (see ``check_fields``).

    ``check``, when given, is then called on it, and raises ValueError,
    TypeError or IndexError for a bad one. Raises DataFileError whose
    message starts with ``where``, the file or ``file:line``, for a record
    that is not an object, lacks a key, holds a field not of its kind
    (naming the key) or fails ``check``.
    """
    if type(record) is not dict:
        raise DataFileError(f"{where}: not a JSON object")
    try:
        check_fields(record, fields)
        if check is not None:
            check(record)
    except (ValueError, TypeError, IndexError) as exc:
        raise DataFileError(f"{where}: {exc}") from None
    return record


def read_json(path, fields, check=None):
    """The JSON object in the file at ``path``, through ``check_record``.

    Raises DataFileError naming the file for a missing or unreadable file too.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise cannot_read(path, exc) from None
    return check_record(path, doc, fields, check)


# the kind of a leaf, named after the type of its default: every int leaf
# but the seed is a size. _LEAF_KINDS names the others, and the kinds of
# the leaves whose default is null.
_KIND_OF = {bool: "bool", int: "size", float: "number", str: "str"}
_LEAF_KINDS = {"seed": "int", "fusion.variant": "variant",
               "embedder.truncate_to": "size?", "embedder.mlp_hidden": "size?",
               "calibration.manifest": "str?", "calibration.tau": "number?",
               "calibration.a": "number?", "calibration.b": "number?"}
_NON_NEGATIVE = {"seed", "embedder.noise_scale", "pipeline.lr", "pipeline.momentum"}


def _check_leaf(default, value, key):
    """Raise ConfigError naming the dotted ``key`` unless ``value`` fits its default."""
    try:
        check_kind(_LEAF_KINDS.get(key) or _KIND_OF[type(default)], value, key)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    if key in _NON_NEGATIVE and value < 0:
        raise ConfigError(f"{key} must be >= 0, got {value!r}")


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


# the fusion options only the mex block reads
_MEX_ONLY = ("residual_add", "per_pair_projections")


def _check_variant_options(cfg):
    """Raise ConfigError naming the key for a mex-only option set for another variant."""
    fusion = cfg["fusion"]
    for key in _MEX_ONLY:
        if fusion[key] and fusion["variant"] != "mex":
            raise ConfigError(f"fusion.{key} applies to variant mex only, "
                              f"not {fusion['variant']}")


# the arrays whose extents are sizes of the config, by the keys that give
# them: each weight of the projection MLPs and the fusion block, and each
# entity's raw tokens
_ARRAYS = (("embedder.raw_visual_dim", "embedder.mlp_hidden"),
           ("embedder.raw_text_dim", "embedder.mlp_hidden"),
           ("embedder.mlp_hidden", "fusion.d_k"),
           ("fusion.d_k", "fusion.d_k"),
           ("embedder.visual_tokens", "embedder.raw_visual_dim"),
           ("embedder.text_tokens", "embedder.raw_text_dim"))


def _size(cfg, key):
    """(value, key) of the size at the dotted ``key``; a null ``mlp_hidden`` is d_k."""
    section, leaf = key.split(".")
    value = cfg[section][leaf]
    return (value, key) if value is not None else _size(cfg, "fusion.d_k")


def _check_sizes(cfg):
    """Raise ConfigError naming the keys when one of ``_ARRAYS`` would hold more
    float64 bytes than numpy can index (``sys.maxsize``); nothing is allocated."""
    for keys in _ARRAYS:
        (a, key_a), (b, key_b) = (_size(cfg, key) for key in keys)
        if a * b * 8 > sys.maxsize:
            named = key_a if key_a == key_b else f"{key_a} x {key_b}"
            raise ConfigError(f"{named}: an array of {a} x {b} float64 values is past the "
                              f"{sys.maxsize} bytes an array can index")


def _check(cfg):
    _check_variant_options(cfg)
    _check_sizes(cfg)


def load(path=None, overrides=None):
    """The defaults, merged with the config file at ``path`` and then ``overrides``.

    A bad file raises DataFileError naming it and the key, a bad override
    ConfigError. A mex-only fusion option set true for another variant is
    bad, and so are sizes that shape an array numpy cannot index.
    """
    cfg = defaults()
    if path is not None:
        read_json(path, {}, check=lambda raw: _check(_merge(cfg, raw)))
    if overrides:
        _check(_merge(cfg, overrides))
    return cfg


def config_hash(cfg):
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()
