"""Benchmark of the nangulator CLI: period scans and axiom verification.

Run from the repository root:

    python3 perfbench/run.py --workload scan|verify|rational --seed N \
        --seconds S --trace 0|1

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics (``run_s``, ``setup_s``,
``peak_rss_mb``) with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Inputs, results and traces go to ``.perfbench_out/``.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 15
RUN_LIMIT_S = 170.0   # one run must end within three minutes


def bench_env(root: str) -> dict:
    """One BLAS/OpenMP thread, a fixed hash seed, the checkout's sources."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "NANGULATOR_SEED")}
    env.update({
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
    })
    return env


def setup_seconds(env: dict, cwd: str) -> float:
    """Median wall time of a fresh interpreter importing the CLI module:
    what every command pays before the mathematics starts."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nangulator.cli"],
                       env=env, cwd=cwd, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nangulator", "cli.py")):
        print("perfbench: src/nangulator/cli.py not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    env = bench_env(root)
    setup_s = setup_seconds(env, root)

    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    remaining = RUN_LIMIT_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"perfbench: the run did not end within {RUN_LIMIT_S:.0f} s",
              file=sys.stderr)
        return 3
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}",
              file=sys.stderr)
        return 3
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
