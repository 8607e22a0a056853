"""Runs rounds of one workload in a fresh interpreter.

Started by run.py with ``PYTHONPATH`` set to the checkout's ``src``. Prints
one JSON object as its last line of output: per round the timed seconds,
games decided, operations attempted and failed, problems found by the checks
and, for traced rounds, the per-layer metrics; plus the peak resident memory
of the workload's processes. Spans of traced rounds go to ``--trace-dir``.

A workload whose module state must start clean every round (domsolve.exact
memoises) runs each round in a child forked from this interpreter, which has
imported domsolve but never called it: the child starts with the memo caches
of a fresh interpreter, without paying the import again.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def run_round(workload, seed: int, rnd: int, tracer) -> dict:
    ops = workload.build(seed, rnd)
    outputs: dict[str, object] = {}
    errors: dict[str, str] = {}
    seconds = game_seconds = 0.0
    games = 0
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            start = perf_counter()
            try:
                outputs[op.name] = op.call()
            except Exception:
                outputs[op.name] = None
                errors[op.name] = traceback.format_exc()
            elapsed = perf_counter() - start
            seconds += elapsed
            if op.games:
                games += op.games
                game_seconds += elapsed
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems: list[str] = []
    failed = 0
    for op in ops:
        if op.name in errors:
            failed += 1
            print(f"[{workload.name}] {op.name} raised:\n{errors[op.name]}", file=sys.stderr)
            continue
        try:
            found = op.check(outputs[op.name], outputs)
        except Exception:
            found = [f"{op.name}: check raised\n{traceback.format_exc()}"]
        if found:
            failed += 1
            problems += found
    for p in problems:
        print(f"[{workload.name}] round {rnd}: {p}", file=sys.stderr)
    return {
        "round": rnd,
        "traced": tracer is not None,
        "wall_s": seconds,
        "games": games,
        "game_s": game_seconds,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "layers": tracer.layer_metrics() if tracer is not None else None,
    }


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _write_trace(trace_dir, workload, seed, rnd, tracer) -> None:
    if tracer is None or trace_dir is None:
        return
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"trace-{workload}-seed{seed}-round{rnd}.json"
    path.write_text(json.dumps({"round": rnd, "spans": tracer.span_records()}))


def run_round_forked(workload, seed: int, rnd: int, traced: bool, trace_dir) -> dict:
    """run_round in a forked child; the result comes back through a pipe."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            tracer = Tracer() if traced else None
            result = run_round(workload, seed, rnd, tracer)
            _write_trace(trace_dir, workload.name, seed, rnd, tracer)
            result["peak_rss_kb"] = _maxrss_kb()
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(result, pipe)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"round {rnd} of {workload.name} failed in its child process")
    return json.loads(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)

    import domsolve

    if SRC not in Path(domsolve.__file__).resolve().parents:
        print(f"worker: imported domsolve from {domsolve.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workload.warmup()
    rounds = []
    peak_kb = 0
    start = perf_counter()
    rnd = 0
    while True:
        # A traced run runs each round twice on the same inputs, untraced
        # and then traced, so the difference is the cost of tracing.
        for traced in (False, True) if args.trace else (False,):
            if workload.fresh_process_per_round:
                result = run_round_forked(workload, args.seed, rnd, traced, args.trace_dir)
                peak_kb = max(peak_kb, result.pop("peak_rss_kb"))
            else:
                tracer = Tracer() if traced else None
                result = run_round(workload, args.seed, rnd, tracer)
                _write_trace(args.trace_dir, args.workload, args.seed, rnd, tracer)
            rounds.append(result)
        rnd += 1
        if perf_counter() - start >= args.seconds:
            break
    print(json.dumps({"rounds": rounds, "peak_rss_kb": max(peak_kb, _maxrss_kb())}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
