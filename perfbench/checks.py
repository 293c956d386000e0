"""Correctness checks on the CLI's JSON reports.

Expected values come from closed forms and from properties the method must
have, never from stored output, and nothing here uses ``periodicity.py``:

* kQ_n/I_s has minimal bimodule period 2n/gcd(n, s) in characteristic
  != 2 (F5 and Q qualify); its quasi-period is 1 when s = 2 and 2 when
  s >= 3.  Pi(A3) has quasi-period 3 (Brenner-Butler-King) and period 6.
* quasi_period * twist_order is a multiple of the period, because the
  twist's order-th power is the identity.
* A bimodule period p gives Omega^p_A S = S for every simple S, so the
  one-sided Omega-period of each simple divides p.  It is found with
  ``homology.syzygy`` and ``iso_test`` only.
* The paper's theorem makes the randomized axiom suite pass: ``all_pass``,
  no uncertified angle, and every axiom passing once per sample.
* Over Q the answers agree with the closed form and with the same algebra
  over F5.
"""

from __future__ import annotations

import json

AXIOMS = ("N1a", "N1b", "N1c", "N2", "N3", "N4")


def parse_report(rc, text: str):
    """(report, failures) of one CLI call; report is None when unreadable."""
    failures = [] if rc == 0 else [f"exit code {rc}"]
    try:
        report = json.loads(text)
    except ValueError:
        return None, failures + ["stdout is not JSON"]
    if not isinstance(report, dict):
        return None, failures + ["stdout is not a JSON object"]
    return report, failures


def check_period(report: dict, expected: dict, omega_periods) -> list[str]:
    out = []
    period = report.get("period")
    qp = report.get("quasi_period")
    order = report.get("twist_order")
    if period != expected["period"]:
        out.append(f"period {period} != closed form {expected['period']}")
    if qp != expected["quasi_period"]:
        out.append(f"quasi_period {qp} != {expected['quasi_period']}")
    if not (isinstance(qp, int) and isinstance(order, int)
            and isinstance(period, int) and period > 0
            and (qp * order) % period == 0):
        out.append(f"quasi_period*twist_order {qp}*{order} is not a "
                   f"multiple of period {period}")
    for pos, k in enumerate(omega_periods):
        if k is None or not isinstance(period, int) or period % k:
            out.append(f"Omega-period {k} of simple {pos} does not divide "
                       f"period {period}")
    return out


def check_verify(report: dict, expected: dict, m: int, samples: int) -> list[str]:
    out = []
    if report.get("all_pass") is not True:
        out.append("all_pass is not true")
    if report.get("uncertified_angles") != 0:
        out.append(f"uncertified angles: {report.get('uncertified_angles')}")
    if report.get("samples") != samples:
        out.append(f"samples {report.get('samples')} != {samples}")
    axioms = report.get("axioms") or {}
    for name in AXIOMS:
        got = axioms.get(name) or {}
        if got.get("pass") != samples or got.get("fail") != 0:
            out.append(f"axiom {name}: {got} with {samples} samples")
    qp = report.get("quasi_period")
    if qp != expected["quasi_period"]:
        out.append(f"quasi_period {qp} != {expected['quasi_period']}")
    if report.get("multiplier") != m:
        out.append(f"multiplier {report.get('multiplier')} != {m}")
    if report.get("angulation_length") != m * expected["quasi_period"]:
        out.append(f"angulation_length {report.get('angulation_length')} "
                   f"!= {m} * {expected['quasi_period']}")
    return out


# the fields that must not depend on the characteristic (both are != 2)
TWIN_KEYS = {
    "period": ("quasi_period", "period"),
    "verify": ("quasi_period", "angulation_length", "multiplier", "samples",
               "axioms", "all_pass", "uncertified_angles"),
}


def check_twin(command: str, report: dict, twin: dict | None) -> list[str]:
    if twin is None:
        return ["the F5 twin has no readable report"]
    return [f"{key}: Q gives {report.get(key)}, F5 gives {twin.get(key)}"
            for key in TWIN_KEYS[command] if report.get(key) != twin.get(key)]


def simple_omega_periods(path: str) -> list:
    """One-sided Omega-period of each simple module of the algebra in
    ``path`` (None where none is found within 2 * dim steps)."""
    from nangulator.algebra import compute_basis
    from nangulator.fields import stack_rows
    from nangulator.homology import syzygy
    from nangulator.modules import iso_test, projective_module, quotient
    from nangulator.quiver import load_algebra_file

    algebra = compute_basis(load_algebra_file(path))
    out = []
    for pos in range(len(algebra.idempotents)):
        proj = projective_module(algebra, pos)
        simple, _, _ = quotient(proj, stack_rows(
            algebra.field, [proj.action[j] for j in algebra.radical]))
        m, found = simple, None
        for k in range(1, 2 * algebra.dim + 1):
            m = syzygy(m)[0]
            if iso_test(m, simple) is not None:
                found = k
                break
        out.append(found)
    return out
