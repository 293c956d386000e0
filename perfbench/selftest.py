"""Quick self-test of the benchmark on tiny inputs (about a second).

    python3 perfbench/selftest.py      # from the repository root

It checks that the checks can fail: a wrong expected period makes a failed
operation, and the axiom check rejects the suite run against
``axioms.corrupted_suspension_sequence``.  It also checks that a traced run
emits every per-layer metric that BENCHMARK.json lists, and that each traced
layer was entered.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

OUT = os.path.join(ROOT, ".perfbench_out", "selftest")
TINY = inputs.nak(2, 2)


@dataclasses.dataclass(frozen=True)
class WrongPeriod(inputs.Algebra):
    def expected(self) -> dict:
        return {**super().expected(), "period": super().expected()["period"] + 1}


def test_wrong_period_is_a_failed_operation() -> None:
    wrong = WrongPeriod(**dataclasses.asdict(TINY))
    workload = inputs.Workload("selftest", (
        inputs.Op("period", TINY), inputs.Op("period", wrong)))
    result = worker.run_workload(workload, 1, 0, False, OUT)
    assert result["correct"], result
    assert (result["attempted"], result["failed"]) == (2, 1), result


def test_corrupted_suspension_fails_the_axiom_check() -> None:
    from nangulator.algebra import check_self_injective, compute_basis
    from nangulator.angulation import functor_sequence
    from nangulator.axioms import corrupted_suspension_sequence, verify_axioms
    from nangulator.homology import Homology
    from nangulator.periodicity import quasi_period_scan
    from nangulator.quiver import parse_algebra

    doc = TINY.document(random.Random(1))
    algebra = compute_basis(parse_algebra(json.dumps(doc)))
    engine = Homology(algebra, check_self_injective(algebra))
    scan = quasi_period_scan(algebra)
    m, samples = 3, 2
    seq = functor_sequence(engine, scan, m)
    expected = TINY.expected()
    extra = {"multiplier": m, "angulation_length": seq.length,
             "quasi_period": scan.quasi_period}
    good = {**verify_axioms(engine, seq, samples, 7).to_dict(), **extra}
    assert checks.check_verify(good, expected, m, samples) == [], good
    bad_seq = corrupted_suspension_sequence(seq)
    bad = {**verify_axioms(engine, bad_seq, samples, 7).to_dict(), **extra}
    assert checks.check_verify(bad, expected, m, samples), bad


def test_traced_run_emits_every_per_layer_metric() -> None:
    workload = inputs.Workload("selftest", (
        inputs.Op("period", TINY), inputs.verify_op(TINY, 3, 1)))
    result = worker.run_workload(workload, 1, 0, True, OUT)
    assert (result["attempted"], result["failed"]) == (4, 0), result
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json"),
              encoding="utf-8") as fh:
        listed = {m["name"]: (m["unit"], m["better"])
                  for m in json.load(fh)["per_layer"]}
    assert listed == spans.METRICS, set(listed) ^ set(spans.METRICS)
    metrics = result["metrics"]
    assert set(metrics) == set(listed), set(metrics) ^ set(listed)
    for name, entry in metrics.items():
        assert isinstance(entry["value"], (int, float)), name
        assert entry["unit"] == listed[name][0], name
        if name.endswith(("_calls", "_s")) and name != "trace.overhead_s":
            assert entry["value"] > 0, f"{name} was never entered"


def main() -> int:
    tests = [test_wrong_period_is_a_failed_operation,
             test_corrupted_suspension_fails_the_axiom_check,
             test_traced_run_emits_every_per_layer_metric]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as e:
            failed += 1
            print(f"FAIL {test.__name__}: {e}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
