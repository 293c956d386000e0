"""Machine-readable dump formats shared by the CLI and the golden tests.

All reports carry a "schema": "1" field and serialize deterministically
(sorted keys), so identical run configurations produce byte-identical output.
"""

from __future__ import annotations

import json

from .algebra import BasicAlgebra, NakayamaData
from .fields import ExactMatrix
from .modules import Module
from .angulation import AngleSequence, AngleCertificate
from .periodicity import PeriodicityReport


def matrix_dump(m: ExactMatrix):
    return m.tolist()


def module_dump(m: Module) -> dict:
    return {
        "dim": m.dim,
        "actions": [matrix_dump(a) for a in m.action],
    }


def algebra_report(algebra: BasicAlgebra, nakayama: NakayamaData | None,
                   error: str | None = None) -> dict:
    return {
        "schema": "1",
        "name": algebra.name,
        "field": algebra.field.characteristic,
        "dim": algebra.dim,
        "basis": list(algebra.labels),
        "nilpotency": algebra.nilpotency,
        "self_injective": nakayama is not None,
        "nakayama_permutation": list(nakayama.permutation) if nakayama else None,
        "error": error,
    }


def periodicity_dump(report: PeriodicityReport) -> dict:
    return {
        "schema": "1",
        "quasi_period": report.quasi_period,
        "twist_matrix": matrix_dump(report.twist.matrix),
        "twist_order": report.twist_order,
        "period": report.period,
        "witness_iso": matrix_dump(report.witness.matrix),
    }


def angle_dump(x: AngleSequence, cert: AngleCertificate | None = None) -> dict:
    out = {
        "schema": "1",
        "length": x.length,
        "objects": [module_dump(o) for o in x.objects],
        "maps": [matrix_dump(f.matrix) for f in x.maps],
        "suspension_twist": matrix_dump(x.suspension.twist.matrix),
    }
    if cert is not None:
        out["certificate"] = certificate_dump(cert)
    return out


def certificate_dump(cert: AngleCertificate) -> dict:
    return {
        "exact": cert.exact,
        "verdict": cert.verdict,
        "reason": cert.reason,
        "kernel_dim": cert.kernel.dim if cert.kernel is not None else None,
        "canonical_iso": matrix_dump(cert.canonical.matrix)
        if cert.canonical is not None else None,
        "induced_iso": matrix_dump(cert.induced.matrix)
        if cert.induced is not None else None,
    }


def to_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
