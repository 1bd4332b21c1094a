"""Benchmark of the mexfuse CLI, end to end per workload or per layer when traced.

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the program is imported from
``./src`` and nothing is installed.  The inputs are made from ``--seed``
(``workloads.py``).  Every set-up and every timed command runs in a child
process of its own (``child.py``), with BLAS pinned to one thread, and
every output is checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics: the set-up time (median of
several fresh set-ups), the workload's throughput normalised to a nominal
host speed (median over the timed commands repeated for ``--seconds``; each
command's time is scaled by a host-speed reference sampled while it runs,
``reference.py``), the largest peak RSS of the measuring children, and the
share of commands that ran and passed their checks.  The raw wall-clock
throughput is printed and recorded beside them.  ``--trace 1`` runs the timed
command once untraced and once traced (``tracing.py``) and reports the
per-layer metrics; traced numbers never feed the end-to-end ones.

Standard output names each metric with its unit, one per line, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  A
record with the provenance, every timing and the check results is written
to ``.perfbench_runs/``.  Exit code: 0 when every command ran and every
check passed, 1 when not, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid

import checks
import reference
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = ".perfbench_runs"
SETUP_REPEATS = 5
BLAS_THREADS = 1  # of at most nproc; more threads on a shared 2-core host add outliers
TIME_LIMIT_S = 150  # every child is stopped by then, so a run ends within 180 s
CHECK_RESERVE_S = 20  # time kept back for the output checks

E2E_METRICS = {
    "setup_s": "s",
    "norm_items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "commands_ok_ratio": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def run_child(request, run_dir, deadline):
    """Run child.py on ``request``; return its response, or raise ChildFailed."""
    tag = f"{request['mode']}-{uuid.uuid4().hex[:8]}"
    req_path = os.path.join(run_dir, tag + ".request.json")
    request = {**request, "response": os.path.join(run_dir, tag + ".response.json")}
    with open(req_path, "w") as fh:
        json.dump(request, fh)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
           "OMP_NUM_THREADS": str(BLAS_THREADS), "MKL_NUM_THREADS": str(BLAS_THREADS)}
    log_path = os.path.join(run_dir, tag + ".log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), req_path],
                                stdout=log, stderr=subprocess.STDOUT, env=env)
    # a timer kills the child at the deadline, so that the wait below blocks
    # instead of polling, which would round the set-up times up to 50 ms steps
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        returncode = proc.wait()
    finally:
        killer.cancel()
    if returncode != 0:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise ChildFailed(f"{tag}: exit code {returncode}:\n{tail}")
    with open(request["response"]) as fh:
        return json.load(fh)


def tally(children_ok, reps, after, check_errors):
    """(attempted, failed) over commands: a command fails when it exits non-zero,
    when its outputs differ from those checked, or when they fail the check."""
    checked = reps[-1]["digest"] if reps else None
    failed = sum(not ok for ok in children_ok)
    for rep in reps:
        failed += rep["error"] is not None or rep["digest"] != checked or bool(check_errors)
    for cmd in after:
        failed += cmd["error"] is not None or bool(check_errors)
    return len(children_ok) + len(reps) + len(after), failed


def config_digest(workload, seed):
    doc = {"config": workloads.config_for(workload, seed), "spec": workload.spec,
           "timed": workload.timed, "after": list(workload.after), "items": workload.items}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _git_commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    # a checkout nested in some other repository is not that repository's commit
    if out.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(root) else None


def provenance(root, src, seed):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(root),
        "source_sha256": workloads.tree_digest(src),
        "seed": seed,
        "config_sha256": {name: config_digest(wl, seed)
                          for name, wl in workloads.WORKLOADS.items()},
    }


def measure(workload, seed, seconds, trace, ws, run_dir, src, deadline):
    """Set up and measure one workload; returns the run record."""
    base = {"workload": workload.name, "seed": seed, "workdir": ws, "src": src,
            "trace": False, "run_id": uuid.uuid4().hex}
    record = {"setup_s": [], "errors": [], "reps": [], "after": []}
    children_ok, digests = [], set()
    for _ in range(1 if trace else SETUP_REPEATS):
        shutil.rmtree(ws, ignore_errors=True)
        start = time.perf_counter()
        try:
            digests.add(run_child({**base, "mode": "setup"}, run_dir, deadline)["digest"])
            record["setup_s"].append(time.perf_counter() - start)
            children_ok.append(True)
        except ChildFailed as exc:
            record["errors"].append(str(exc))
            children_ok.append(False)
    if len(digests) > 1:
        record["errors"].append(f"set-ups made {len(digests)} different inputs")
        children_ok[-1] = False

    # One fresh process per timed command, as a user runs the CLI, so that
    # no timed command inherits the heap or caches of an earlier one.
    passes = [{}, {"trace": True, "spans": os.path.join(run_dir, "spans.jsonl")}]
    responses = []
    start = time.monotonic()
    for extra in passes if trace else itertools.repeat({"reference": True}):
        began = time.monotonic()
        try:
            responses.append(run_child({**base, "mode": "measure", **extra}, run_dir, deadline))
        except ChildFailed as exc:
            record["errors"].append(str(exc))
            children_ok.append(False)
            break
        # stop before a timed command that would end after the measuring time
        now = time.monotonic()
        if not trace and now + (now - began) > min(start + seconds, deadline - CHECK_RESERVE_S):
            break
    for resp in responses:
        record["reps"].append(resp["rep"])
        record["after"] += resp["after"]
    cfg = workloads.config_for(workload, seed)
    record["check_errors"] = checks.check(workload, ws, cfg, seed) if any(children_ok) else [
        "no inputs"]
    attempted, failed = tally(children_ok, record["reps"], record["after"], record["check_errors"])
    record.update(attempted=attempted, failed=failed, responses=responses)
    return record


def e2e_metrics(workload, record, responses):
    ok = [r for r in record["reps"] if r["error"] is None and r["ref_samples"]]
    wall = workload.items / statistics.median(r["wall_s"] for r in ok) if ok else 0.0
    values = {
        "setup_s": statistics.median(record["setup_s"]) if record["setup_s"] else 0.0,
        "norm_items_per_s": (workload.items / statistics.median(map(reference.normalised_s, ok))
                             if ok else 0.0),
        "peak_rss_mb": max((r["peak_rss_mb"] for r in responses), default=0.0),
        "commands_ok_ratio": (record["attempted"] - record["failed"]) / record["attempted"],
    }
    notes = {
        "setup_s": f"median of {len(record['setup_s'])} fresh set-ups in new processes",
        "norm_items_per_s": (f"{workload.throughput}: {workload.items} {workload.item}s per "
                             f"`{workload.timed}`, median of {len(ok)}, at nominal "
                             f"`{workload.reference}` reference speed; {wall:.6g}/s wall clock"),
        "peak_rss_mb": "largest ru_maxrss of the measuring children",
        "commands_ok_ratio": f"{record['attempted'] - record['failed']} of "
                             f"{record['attempted']} commands ran and passed their checks",
    }
    record["wall_items_per_s"] = wall
    return values, notes


def layer_metrics(record, responses):
    if len(responses) < 2:
        return {name: 0.0 for name in tracing.LAYER_METRICS}, {}
    untraced, traced = responses
    values = dict(traced["layer"])
    plain = sum(r["wall_s"] for r in [untraced["rep"]] + untraced["after"])
    values["trace.overhead_ratio"] = (
        sum(r["wall_s"] for r in [traced["rep"]] + traced["after"]) / plain)
    return values, traced["missing"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mexfuse", "__init__.py")):
        print(f"perfbench: no mexfuse sources at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)  # the checks read the program's feature provider
    workload = workloads.WORKLOADS[args.workload]
    run_dir = os.path.join(root, RUNS_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}"
                                           f"-{os.getpid()}")
    ws = os.path.join(run_dir, "work")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    record = measure(workload, args.seed, args.seconds, bool(args.trace), ws, run_dir, src,
                     deadline)
    responses = record.pop("responses")
    if args.trace:
        values, missing = layer_metrics(record, responses)
        units, notes = tracing.LAYER_METRICS, missing
    else:
        values, notes = e2e_metrics(workload, record, responses)
        units, missing = E2E_METRICS, {}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = record["failed"] == 0
    record.update(provenance=provenance(root, src, args.seed), workload=workload.name,
                  seconds=args.seconds, trace=args.trace, metrics=metrics, missing=missing)
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(ws, ignore_errors=True)

    prov = record["provenance"]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"record={os.path.relpath(run_dir, root)}/result.json")
    print(f"  python {prov['python']}, numpy {prov['numpy']}, {prov['blas']} on "
          f"{prov['blas_threads']} thread(s) of nproc={prov['nproc']}, "
          f"commit {prov['git_commit']}, sources {prov['source_sha256'][:12]}")
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']:6s} {note}")
    for err in record["errors"] + record["check_errors"]:
        print(f"  FAILED: {err}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
