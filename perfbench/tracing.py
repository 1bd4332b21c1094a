"""Per-layer tracing of mexfuse, applied from outside the program at run time.

A :class:`Tracer` replaces module attributes and class methods of the
program with thin wrappers for the length of one traced run and puts the
originals back afterwards; nothing under ``src/`` is edited.  The command,
pipeline, features, fusion and calibration boundaries record spans (name,
start, end, parent span, one run id).  The hot ``tensor`` and ``kernels``
boundaries are entered hundreds of thousands of times, so they only add to
counters and accumulated time.

A wrap target the program no longer has is recorded in ``Tracer.absent``
with its name and the reason; the metrics fed by it read 0 and are named
absent in the run record.  The run never fails because of it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Every per-layer metric with its unit, in the order it is reported.
# ``trace.overhead_ratio`` is filled in by the runner, which times the
# traced and the untraced run.
LAYER_METRICS = {
    "tensor.tensors_created": "count",
    "tensor.backward_calls": "count",
    "tensor.backward_s": "s",
    "tensor.madds": "count",
    "tensor.values_charged": "count",
    "kernels.matmul_calls": "count",
    "kernels.matmul_s": "s",
    "kernels.matmul_madds_per_call": "count",
    "kernels.matmul_bytes_computed": "B",
    "kernels.softmax_calls": "count",
    "kernels.softmax_s": "s",
    "features.embed_calls": "count",
    "features.embed_s": "s",
    "features.mlp_calls": "count",
    "features.mlp_rows": "count",
    "features.mlp_s": "s",
    "features.mlp_distinct_ratio": "ratio",
    "fusion.fuse_calls": "count",
    "fusion.fuse_s": "s",
    "fusion.pool_s": "s",
    "fusion.cosine_s": "s",
    "fusion.profile_param_ratio": "ratio",
    "fusion.profile_peak_ratio": "ratio",
    "fusion.profile_madds_ratio": "ratio",
    "fusion.profile_peak_ratio_bwd": "ratio",
    "fusion.profile_madds_ratio_bwd": "ratio",
    "calibration.refine_calls": "count",
    "calibration.refine_s": "s",
    "calibration.weights_calls": "count",
    "pipeline.read_rows": "count",
    "pipeline.read_s": "s",
    "pipeline.write_rows": "count",
    "pipeline.write_s": "s",
    "pipeline.load_dataset_s": "s",
    "pipeline.forward_window_calls": "count",
    "pipeline.forward_window_s": "s",
    "pipeline.score_all_self_s": "s",
    "pipeline.train_self_s": "s",
    "pipeline.final_loss": "loss",
    "tensor_io.read_s": "s",
    "tensor_io.bytes_read": "B",
    "cli.command_self_s": "s",
    "trace.overhead_ratio": "ratio",
}

PROFILE_METRICS = ("fusion.profile_param_ratio", "fusion.profile_peak_ratio",
                   "fusion.profile_madds_ratio", "fusion.profile_peak_ratio_bwd",
                   "fusion.profile_madds_ratio_bwd")


def _resolve(target):
    """Return (owner, attribute name, current value) of a wrap target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # a class attribute is read from the class's own dict, so that a method
    # inherited from elsewhere is reported absent instead of shadowed
    value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, value


def self_times(spans):
    """Span id -> duration minus the part of it that its direct children cover."""
    children = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children[sid]):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = max(0.0, (end - start) - covered)
    return out


class Tracer:
    """Spans and counters of one traced run, and the wrappers that feed them."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # (span id, parent span id or None, name, start, end)
        self.counts = defaultdict(int)
        self.absent = {}  # wrap target -> reason
        self.feeds = {}  # wrap target -> the metrics it feeds
        self.mlp_inputs = set()
        self._stack = []
        self._undo = []

    # ---- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name):
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def span_stats(self):
        """Span name -> [count, total duration, total self time]."""
        selfs = self_times(self.spans)
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _parent, name, start, end in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += selfs[sid]
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"run_id": self.run_id, "span": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")

    # ---- wrapping ------------------------------------------------------------

    def wrap(self, target, make):
        """Replace ``target`` by ``make(original)``; record it absent if missing."""
        try:
            owner, attr, original = _resolve(target)
        except (ImportError, AttributeError, KeyError) as exc:
            self.absent[target] = f"{type(exc).__name__}: {exc}"
            return False
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))
        return True

    def remove(self):
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _spanned(self, name, observe=None, before=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                pre = before() if before is not None else None
                with self.span(name):
                    result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result, pre)
                return result
            return wrapper
        return make

    def _counted(self, calls=None, secs=None, observe=None, before=None):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                pre = before() if before is not None else None
                start = perf_counter()
                result = fn(*args, **kwargs)
                if secs is not None:
                    counts[secs] += perf_counter() - start
                if calls is not None:
                    counts[calls] += 1
                if observe is not None:
                    observe(args, result, pre)
                return result
            return wrapper
        return make

    def install(self):
        """Wrap every layer boundary of the program."""
        counts = self.counts
        ledger_before = ledger_after = None
        try:
            _, _, current_context = _resolve("mexfuse.tensor:current_context")
        except (ImportError, AttributeError, KeyError) as exc:
            self.absent["mexfuse.tensor:current_context"] = f"{type(exc).__name__}: {exc}"
        else:
            def ledger_before():
                ledger = current_context().ledger
                return ledger, ledger.snapshot()

            def ledger_after(_args, _result, pre):
                ledger, snap = pre
                now = ledger.snapshot()
                counts["tensor.madds"] += now["flops"] - snap["flops"]
                counts["tensor.values_charged"] += now["peak_values"] - snap["peak_values"]

        def matmul_seen(args, out, _pre):
            a = args[0]
            counts["kernels.matmul_madds"] += out.size * a.shape[-1]
            counts["kernels.matmul_bytes_computed"] += a.nbytes + args[1].nbytes + out.nbytes

        def mlp_seen(args, _out, _pre):
            x = getattr(args[1], "data", args[1])
            counts["features.mlp_rows"] += x.size // x.shape[-1]
            digest = hashlib.sha1(x.tobytes() if not x.flags.c_contiguous else x).digest()
            self.mlp_inputs.add((id(args[0]), x.shape, digest))

        def rows_read(_args, rows, _pre):
            counts["pipeline.read_rows"] += len(rows)

        def final_loss(_args, curve, _pre):
            counts["pipeline.final_loss"] = float(curve[-1]) if len(curve) else 0.0

        def bytes_read(args, _arr, _pre):
            counts["tensor_io.bytes_read"] += os.path.getsize(args[0])

        def write_jsonl(fn):
            def wrapper(path, records, *rest, **kwargs):
                records = records if hasattr(records, "__len__") else list(records)
                counts["pipeline.write_rows"] += len(records)
                with self.span("pipeline.write_jsonl"):
                    return fn(path, records, *rest, **kwargs)
            return wrapper

        madds = ("tensor.madds", "tensor.values_charged")
        self.feeds["mexfuse.tensor:current_context"] = madds
        plan = [
            ("mexfuse.tensor:Tensor.__init__", self._counted(calls="tensor.tensors_created"),
             ("tensor.tensors_created",)),
            ("mexfuse.tensor:Tensor.backward", self._counted(
                calls="tensor.backward_calls", secs="tensor.backward_s",
                before=ledger_before, observe=ledger_after),
             ("tensor.backward_calls", "tensor.backward_s") + madds),
            ("mexfuse.kernels:matmul2d", self._counted(
                calls="kernels.matmul_calls", secs="kernels.matmul_s", observe=matmul_seen),
             ("kernels.matmul_calls", "kernels.matmul_s", "kernels.matmul_madds_per_call",
              "kernels.matmul_bytes_computed")),
            ("mexfuse.kernels:softmax_rows2d", self._counted(
                calls="kernels.softmax_calls", secs="kernels.softmax_s"),
             ("kernels.softmax_calls", "kernels.softmax_s")),
            ("mexfuse.calibration:normalized_weights",
             self._counted(calls="calibration.weights_calls"), ("calibration.weights_calls",)),
            ("mexfuse.tensor_io:read_tensor", self._counted(
                secs="tensor_io.read_s", observe=bytes_read),
             ("tensor_io.read_s", "tensor_io.bytes_read")),
            ("mexfuse.features:embed_synthetic", self._spanned("features.embed"),
             ("features.embed_calls", "features.embed_s")),
            ("mexfuse.features:ProjectionMLP.__call__",
             self._spanned("features.mlp", observe=mlp_seen),
             ("features.mlp_calls", "features.mlp_rows", "features.mlp_s",
              "features.mlp_distinct_ratio")),
            ("mexfuse.fusion:fuse", self._spanned("fusion.fuse"),
             ("fusion.fuse_calls", "fusion.fuse_s")),
            ("mexfuse.fusion:st_pool", self._spanned("fusion.pool"), ("fusion.pool_s",)),
            ("mexfuse.fusion:score", self._spanned("fusion.cosine"), ("fusion.cosine_s",)),
            ("mexfuse.calibration:ExpressionStats.refine", self._spanned("calibration.refine"),
             ("calibration.refine_calls", "calibration.refine_s")),
            ("mexfuse.pipeline:_read_jsonl",
             self._spanned("pipeline.read_jsonl", observe=rows_read),
             ("pipeline.read_rows", "pipeline.read_s")),
            ("mexfuse.pipeline:_write_jsonl", write_jsonl,
             ("pipeline.write_rows", "pipeline.write_s")),
            ("mexfuse.pipeline:load_dataset", self._spanned("pipeline.load_dataset"),
             ("pipeline.load_dataset_s",)),
            ("mexfuse.pipeline:ReferringModel.forward_window", self._spanned(
                "pipeline.forward_window", before=ledger_before, observe=ledger_after),
             ("pipeline.forward_window_calls", "pipeline.forward_window_s") + madds),
            ("mexfuse.pipeline:score_all", self._spanned("pipeline.score_all"),
             ("pipeline.score_all_self_s",)),
            ("mexfuse.pipeline:train", self._spanned("pipeline.train", observe=final_loss),
             ("pipeline.train_self_s", "pipeline.final_loss")),
        ]
        for target, make, metrics in plan:
            self.feeds[target] = metrics
            self.wrap(target, make)

    # ---- results -------------------------------------------------------------

    def metrics(self, profile):
        """Every per-layer metric except ``trace.overhead_ratio``, as numbers."""
        c = self.counts
        spans = self.span_stats()

        def calls(name):
            return spans[name][0] if name in spans else 0

        def total(name):
            return spans[name][1] if name in spans else 0.0

        def own(name):
            return spans[name][2] if name in spans else 0.0

        mlp_calls = calls("features.mlp")
        out = {
            "tensor.tensors_created": c["tensor.tensors_created"],
            "tensor.backward_calls": c["tensor.backward_calls"],
            "tensor.backward_s": c["tensor.backward_s"],
            "tensor.madds": c["tensor.madds"],
            "tensor.values_charged": c["tensor.values_charged"],
            "kernels.matmul_calls": c["kernels.matmul_calls"],
            "kernels.matmul_s": c["kernels.matmul_s"],
            "kernels.matmul_madds_per_call": (c["kernels.matmul_madds"] / c["kernels.matmul_calls"]
                                              if c["kernels.matmul_calls"] else 0.0),
            "kernels.matmul_bytes_computed": c["kernels.matmul_bytes_computed"],
            "kernels.softmax_calls": c["kernels.softmax_calls"],
            "kernels.softmax_s": c["kernels.softmax_s"],
            "features.embed_calls": calls("features.embed"),
            "features.embed_s": total("features.embed"),
            "features.mlp_calls": mlp_calls,
            "features.mlp_rows": c["features.mlp_rows"],
            "features.mlp_s": total("features.mlp"),
            "features.mlp_distinct_ratio": (len(self.mlp_inputs) / mlp_calls
                                            if mlp_calls else 0.0),
            "fusion.fuse_calls": calls("fusion.fuse"),
            "fusion.fuse_s": total("fusion.fuse"),
            "fusion.pool_s": total("fusion.pool"),
            "fusion.cosine_s": total("fusion.cosine"),
            "calibration.refine_calls": calls("calibration.refine"),
            "calibration.refine_s": total("calibration.refine"),
            "calibration.weights_calls": c["calibration.weights_calls"],
            "pipeline.read_rows": c["pipeline.read_rows"],
            "pipeline.read_s": total("pipeline.read_jsonl"),
            "pipeline.write_rows": c["pipeline.write_rows"],
            "pipeline.write_s": total("pipeline.write_jsonl"),
            "pipeline.load_dataset_s": total("pipeline.load_dataset"),
            "pipeline.forward_window_calls": calls("pipeline.forward_window"),
            "pipeline.forward_window_s": total("pipeline.forward_window"),
            "pipeline.score_all_self_s": own("pipeline.score_all"),
            "pipeline.train_self_s": own("pipeline.train"),
            "pipeline.final_loss": c["pipeline.final_loss"],
            "tensor_io.read_s": c["tensor_io.read_s"],
            "tensor_io.bytes_read": c["tensor_io.bytes_read"],
            "cli.command_self_s": sum(row[2] for name, row in spans.items()
                                      if name.startswith("command.")),
        }
        out.update(profile)
        return out

    def missing(self, metrics, profile_error=None):
        """Metric name -> why it reads 0: an absent wrap target or a layer not entered."""
        out = {}
        for target, reason in self.absent.items():
            for name in self.feeds.get(target, ()):
                out[name] = f"wrap target {target} absent ({reason})"
        if profile_error is not None:
            for name in PROFILE_METRICS:
                out[name] = f"fusion.profile unavailable ({profile_error})"
        for name, value in metrics.items():
            if name not in out and value == 0:
                out[name] = "layer not entered by this workload"
        return out


def profile_ratios():
    """mex/cascade ratios from ``fusion.profile`` at the paper dims (16/16/20, d_k=256)."""
    from mexfuse import fusion

    out = {}
    for bwd, suffix in ((False, ""), (True, "_bwd")):
        mex = fusion.profile("mex", 16, 16, 20, 256, with_backward=bwd)
        cascade = fusion.profile("cascade", 16, 16, 20, 256, with_backward=bwd)
        if not bwd:
            out["fusion.profile_param_ratio"] = mex["param_count"] / cascade["param_count"]
        out["fusion.profile_peak_ratio" + suffix] = mex["peak_values"] / cascade["peak_values"]
        out["fusion.profile_madds_ratio" + suffix] = mex["flops"] / cascade["flops"]
    return out
