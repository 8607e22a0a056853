"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload small-games --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The workload runs in a fresh interpreter
(worker.py, with PYTHONPATH=src and at most two compute threads); exact-oracles
runs every round in a fresh child of it because domsolve.exact memoises.
After the workload, ``setup_s`` times fresh interpreters importing domsolve and
domsolve.cli. The last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1`` each
round runs twice on the same inputs, untraced and then traced; the run reports
the per-layer metrics of the traced rounds plus ``trace.overhead_s`` (median
traced minus median untraced wall time).
Details and spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# The keys of workloads.WORKLOADS; that module imports domsolve, which this
# process never does.
WORKLOAD_NAMES = ("small-games", "wide-games", "mixed-lp", "exact-oracles")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170  # a run must end within 180 s
SETUP_RESERVE_S = 20
SETUP_IMPORT = "import domsolve, domsolve.cli"


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # The workload's own thread pool is the only parallelism: keep BLAS and
    # OpenMP pools at one thread so a run uses at most two compute threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_workload(args, env, deadline) -> dict:
    """The worker's result: its rounds and the peak RSS (KB) of its processes.

    The worker leads its own process group, so a timeout also stops the
    round it may have forked."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-dir", str(RESULTS),
    ]
    with subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _setup_seconds(env, deadline) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_IMPORT],
            env=env, cwd=ROOT, check=True, timeout=max(1.0, deadline - monotonic()),
        )
        samples.append(perf_counter() - start)
    return samples


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds: list[dict], peak_kb: int, setup: list[float]) -> dict:
    return {
        "games_per_s": _metric(statistics.median(r["games"] / r["game_s"] for r in rounds), "games/s"),
        "wall_s": _metric(statistics.median(r["wall_s"] for r in rounds), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(peak_kb / 1024, "MB"),
    }


def per_layer(rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name == "trace.overhead_s":
            out[name] = _metric(overhead, unit)
        else:
            out[name] = _metric(statistics.median(r["layers"][name] for r in traced), unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "domsolve" / "__init__.py").is_file():
        print(f"run.py: no domsolve sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    deadline = monotonic() + TIME_LIMIT_S
    env = _env()
    try:
        out = _run_workload(args, env, deadline - SETUP_RESERVE_S)
        rounds, peak_kb = out["rounds"], out["peak_rss_kb"]
        setup = [] if args.trace else _setup_seconds(env, deadline)
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as err:
        print(f"run.py: {args.workload} did not complete: {err}", file=sys.stderr)
        return 1

    metrics = per_layer(rounds) if args.trace else end_to_end(rounds, peak_kb, setup)
    result = {
        "correct": not any(r["problems"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    detail = {**vars(args), **result, "rounds": rounds, "peak_rss_kb": peak_kb, "setup_s": setup}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
