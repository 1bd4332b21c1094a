"""One child process of the benchmark: a workload's set-up or its measured commands.

    python3 perfbench/child.py REQUEST.json

``run.py`` writes the request: the mode (``setup`` or ``measure``), the
workload, the seed, the work directory, the program's source directory,
whether to trace and whether to sample the host-speed reference
(``reference.py``) during the timed command.  A set-up child makes the
workload's inputs.  A measuring child runs the timed command once, then the
untimed ones, calling the ``mexfuse`` CLI in-process as a user's fresh
``mexfuse`` process would.  The child writes what it found to the request's
``response`` path.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import reference
import tracing
import workloads


def run_command(cli, workload, command, ws, tracer, sampler=None):
    """Run one CLI command in-process; a failure is recorded, never raised."""
    args = workloads.cli_args(workload, command, ws)
    error = None
    start = time.perf_counter()
    try:
        if sampler is not None:
            with sampler:
                cli.main(args, standalone_mode=False)
        elif tracer is None:
            cli.main(args, standalone_mode=False)
        else:
            with tracer.span("command." + command):
                cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            error = f"exit code {exc.code}"
    except Exception:  # the command failed; count it and report why
        error = traceback.format_exc(limit=4)
    rep = {"command": command, "wall_s": time.perf_counter() - start, "error": error}
    if sampler is not None:
        rep.update(sampler.record())
    return rep


def measure(req):
    workload = workloads.WORKLOADS[req["workload"]]
    ws = req["workdir"]
    from mexfuse.cli import main as cli

    tracer, profile, profile_error = None, {}, None
    if req["trace"]:
        try:
            profile = tracing.profile_ratios()
        except (ImportError, AttributeError, TypeError, KeyError, ValueError) as exc:
            profile_error = f"{type(exc).__name__}: {exc}"
            profile = {name: 0.0 for name in tracing.PROFILE_METRICS}
        tracer = tracing.Tracer(req["run_id"])
        tracer.install()
    after = []
    try:
        sampler = reference.Sampler(workload.reference) if req.get("reference") else None
        rep = run_command(cli, workload, workload.timed, ws, tracer, sampler)
        rep["digest"] = None
        if rep["error"] is None:
            rep["digest"] = workloads.tree_digest(ws, workload.outputs)
            after = [run_command(cli, workload, c, ws, tracer) for c in workload.after]
    finally:
        if tracer is not None:
            tracer.remove()
    response = {"rep": rep, "after": after,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.write_spans(req["spans"])
        layer = tracer.metrics(profile)
        response.update(layer=layer, missing=tracer.missing(layer, profile_error),
                        absent=tracer.absent)
    return response


def main(request_path):
    with open(request_path) as fh:
        req = json.load(fh)
    sys.path.insert(0, req["src"])
    import mexfuse

    if not os.path.abspath(mexfuse.__file__).startswith(os.path.abspath(req["src"]) + os.sep):
        raise SystemExit(f"mexfuse imported from {mexfuse.__file__}, not from {req['src']}")
    if req["mode"] == "setup":
        workloads.setup(workloads.WORKLOADS[req["workload"]], req["seed"], req["workdir"])
        response = {"digest": workloads.tree_digest(req["workdir"])}
    else:
        response = measure(req)
    with open(req["response"], "w") as fh:
        json.dump(response, fh)


if __name__ == "__main__":
    main(sys.argv[1])
