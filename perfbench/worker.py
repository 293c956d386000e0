"""One benchmark run in a fresh process: generate the inputs, time whole
rounds of CLI commands through ``nangulator.cli.run_cli``, then check every
report.  Started by ``run.py``; prints its result as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

import checks
import inputs
import spans

# no new round starts once this much time has passed, so the run ends well
# within the three minutes one run may take
ROUND_DEADLINE_S = 120.0


def run_round(run_cli, workload, paths, tracer=None):
    """Seconds from the first ``run_cli`` call to the last report, and each
    command's (exit code, stdout, stderr)."""
    outputs = []
    gc.collect()
    t0 = time.perf_counter()
    for op in workload.ops:
        argv = [op.command, paths[op.algebra.name], *op.args]
        out, err = io.StringIO(), io.StringIO()
        idx = tracer.open("op." + op.command) if tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = run_cli(argv)
        except Exception as e:  # a crash is a failed operation, not a stop
            rc = f"raised {type(e).__name__}: {e}"
        finally:
            if tracer:
                tracer.close(idx)
        outputs.append((rc, out.getvalue(), err.getvalue()))
    return time.perf_counter() - t0, outputs


def check_rounds(workload, paths, rounds):
    """(failed operations, first failure messages, reports identical across
    rounds) over every round's outputs."""
    omega = {}
    for op in workload.ops:
        if op.command == "period" and op.algebra.name not in omega:
            omega[op.algebra.name] = checks.simple_omega_periods(
                paths[op.algebra.name])
    twins = [workload.twin(op) if op.algebra.p == inputs.Q else None
             for op in workload.ops]
    failed, messages = 0, []
    for outputs in rounds:
        parsed = [checks.parse_report(rc, text) for rc, text, _ in outputs]
        for k, op in enumerate(workload.ops):
            report, fails = parsed[k]
            expected = op.algebra.expected()
            if report is not None and op.command == "period":
                fails += checks.check_period(report, expected,
                                             omega[op.algebra.name])
            elif report is not None:
                fails += checks.check_verify(report, expected,
                                             op.multiplier, op.samples)
            if report is not None and twins[k] is not None:
                fails += checks.check_twin(op.command, report,
                                           parsed[twins[k]][0])
            elif report is not None and op.algebra.p == inputs.Q:
                fails.append("no F5 twin in the workload")
            if fails:
                failed += 1
                if len(messages) < 5:
                    messages.append(f"{op.label}: {'; '.join(fails)}; "
                                    f"stderr: {outputs[k][2].strip()[-200:]}")
    steady = all(o[1] == r[1] for outputs in rounds[1:]
                 for o, r in zip(outputs, rounds[0]))
    return failed, messages, steady


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 out_dir: str) -> dict:
    paths = inputs.write_inputs(
        workload, seed, os.path.join(out_dir, "inputs", f"{workload.name}-{seed}"))
    from nangulator.cli import run_cli

    tracer = spans.Tracer() if trace else None
    plain, traced, per_round, rounds = [], [], [], []
    start = time.perf_counter()
    while True:
        elapsed, outputs = run_round(run_cli, workload, paths)
        plain.append(elapsed)
        rounds.append(outputs)
        if tracer:
            tracer.reset()
            tracer.install()
            try:
                elapsed, outputs = run_round(run_cli, workload, paths, tracer)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            rounds.append(outputs)
            per_round.append((tracer.round_metrics(), tracer.top_level_share(),
                              tracer.summary(), tracer.spans))
        spent = time.perf_counter() - start
        longest = max(plain + traced)
        if spent >= seconds or spent + longest > ROUND_DEADLINE_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"perfbench: {workload.name} rounds (s): "
          + " ".join(f"{t:.3f}" for t in plain)
          + ("; traced: " + " ".join(f"{t:.3f}" for t in traced)
             if traced else ""), file=sys.stderr)

    failed, messages, steady = check_rounds(workload, paths, rounds)
    for line in messages:
        print(f"failed: {line}", file=sys.stderr)
    if not steady:
        print("reports differ between rounds", file=sys.stderr)
    result = {"correct": steady,
              "attempted": len(rounds) * len(workload.ops),
              "failed": failed}
    run_s = statistics.median(plain)
    if not tracer:
        result["metrics"] = {
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        return result
    metrics = {}
    for name, (unit, _) in spans.METRICS.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced) - run_s
        elif name == "trace.top_level_share":
            value = statistics.median(r[1] for r in per_round)
        else:
            value = statistics.median(r[0][name] for r in per_round)
        metrics[name] = {"value": value, "unit": unit}
    result["metrics"] = metrics
    write_trace(out_dir, workload.name, seed, per_round, metrics)
    return result


def write_trace(out_dir, name, seed, per_round, metrics) -> None:
    """Spans of every traced round as JSON lines, then one summary line."""
    path = os.path.join(out_dir, f"trace-{name}-{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for k, (_, _, _, round_spans) in enumerate(per_round):
            for idx, (span, start, end, parent, child) in enumerate(round_spans):
                fh.write(json.dumps({"round": k, "id": idx, "name": span,
                                     "start": start, "end": end,
                                     "parent": parent,
                                     "self_s": end - start - child}) + "\n")
        fh.write(json.dumps({"summary": [r[2] for r in per_round],
                             "metrics": metrics}) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    import nangulator

    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(nangulator.__file__), src]) != src:
        print(f"nangulator imported from {nangulator.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = run_workload(inputs.WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace), args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
