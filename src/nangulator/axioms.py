"""Randomized, seeded verification of the axioms N1-N4 on a concrete
angulated structure, with machine-readable reporting.

Every sample is deterministic in the seed; the first failing check is
serialized with full matrices so it can be replayed offline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from .algebra import BasicAlgebra
from .fields import ExactMatrix, LinearAlgebraError, left_kernel
from .homology import Homology
from .modules import (
    Module,
    cokernel_of,
    combine_all,
    hom_system,
    kernel_of,
    projective_module,
    random_hom,
    standard_projective,
)
from .angulation import (
    AngleSequence,
    FillError,
    FunctorSequence,
    certify_angle,
    complete_morphism,
    direct_sum_angles,
    fill_morphism,
    good_fill_and_cone,
    rotate,
    standard_angle,
    trivial_angle,
)

AXIOMS = ("N1a", "N1b", "N1c", "N2", "N3", "N4")


@dataclass
class AxiomReport:
    seed: int
    samples: int
    passes: dict = field(default_factory=lambda: {a: 0 for a in AXIOMS})
    failures: dict = field(default_factory=lambda: {a: 0 for a in AXIOMS})
    certified_angles: int = 0
    uncertified_angles: int = 0
    first_failure: dict | None = None

    def record(self, axiom: str, ok: bool, sample: int, detail=None) -> None:
        if ok:
            self.passes[axiom] += 1
        else:
            self.failures[axiom] += 1
            if self.first_failure is None:
                self.first_failure = {
                    "axiom": axiom,
                    "sample": sample,
                    "detail": detail or {},
                }

    def record_certificate(self, ok: bool) -> None:
        if ok:
            self.certified_angles += 1
        else:
            self.uncertified_angles += 1

    @property
    def all_pass(self) -> bool:
        return all(v == 0 for v in self.failures.values()) and \
            self.uncertified_angles == 0

    def to_dict(self) -> dict:
        return {
            "schema": "1",
            "seed": self.seed,
            "samples": self.samples,
            "axioms": {
                a: {"pass": self.passes[a], "fail": self.failures[a]}
                for a in AXIOMS
            },
            "certified_angles": self.certified_angles,
            "uncertified_angles": self.uncertified_angles,
            "all_pass": self.all_pass,
            "first_failure": self.first_failure,
        }


def random_projective(algebra: BasicAlgebra, rng: random.Random,
                      max_copies: int = 2) -> Module:
    n = len(algebra.idempotents)
    copies = []
    for pos in range(n):
        copies.extend([pos] * rng.randint(0, max_copies))
    if not copies:
        copies = [rng.randrange(n)]
    return standard_projective(algebra, copies)


def random_module(algebra: BasicAlgebra, eng: Homology,
                  rng: random.Random) -> Module:
    """A random finite-dimensional module: cokernel or kernel of a random
    map between random projectives (kept small)."""
    p = random_projective(algebra, rng)
    q = random_projective(algebra, rng)
    f = random_hom(rng, eng.hom_from_projective(p, q))
    if rng.random() < 0.5:
        m, _ = cokernel_of(f)
    else:
        m, _ = kernel_of(f)
    if m.dim == 0:
        pos = rng.randrange(len(algebra.idempotents))
        return projective_module(algebra, pos)
    return m


def sample_commuting_square(eng: Homology, x: AngleSequence, y: AngleSequence,
                            rng: random.Random):
    """A seeded random point of the linear space of commuting squares
    (phi1, phi2) with f_1 phi2 = phi1 g_1, both sides maps out of X_1."""
    bases = [eng.hom_from_projective(x.objects[0], y.objects[0]),
             eng.hom_from_projective(x.objects[1], y.objects[1])]
    fld = x.objects[0].algebra.field
    big, _ = hom_system(bases, [(
        [(0, None, y.maps[0].matrix), (1, -x.maps[0].matrix, None)],
        ExactMatrix.zeros(fld, x.objects[0].dim, y.objects[1].dim),
        x.objects[0])])
    space = left_kernel(big)
    scalars = [fld.random(rng) for _ in range(space.rows)]
    return tuple(combine_all(bases, ExactMatrix(fld, [scalars]) @ space))


def _witness(angle, cert):
    """Full-matrix counterexample payload for a failed certification."""
    from .reports import angle_dump

    return {"angle": angle_dump(angle, cert)}


def verify_axioms(eng: Homology, seq: FunctorSequence, samples: int,
                  seed: int) -> AxiomReport:
    """Run the seeded axiom suite; failures become report content, with the
    first failing instance serialized in full for offline replay."""
    rng = random.Random(seed)
    algebra = seq.algebra
    report = AxiomReport(seed=seed, samples=samples)
    for sample in range(samples):
        m1 = random_module(algebra, eng, rng)
        m2 = random_module(algebra, eng, rng)

        tm1 = standard_angle(seq, m1)
        tm2 = standard_angle(seq, m2)
        c1 = certify_angle(seq, tm1)
        c2 = certify_angle(seq, tm2)
        report.record_certificate(c1.verdict)
        report.record_certificate(c2.verdict)

        # N1a: closure of the class under direct sums and summands
        sum_angle = direct_sum_angles(tm1, tm2)
        cs = certify_angle(seq, sum_angle)
        ok = c1.verdict and c2.verdict and cs.verdict
        report.record("N1a", ok, sample,
                      None if ok else {"reason": cs.reason,
                                       **_witness(sum_angle, cs)})
        report.record_certificate(cs.verdict)

        # N1b: trivial angles belong to the class
        p = random_projective(algebra, rng)
        triv = trivial_angle(seq, p)
        ct = certify_angle(seq, triv)
        report.record("N1b", ct.verdict, sample,
                      None if ct.verdict else {"reason": ct.reason,
                                               **_witness(triv, ct)})
        report.record_certificate(ct.verdict)

        # N1c: every morphism of projectives starts a distinguished angle
        q = random_projective(algebra, rng)
        f1 = random_hom(rng, eng.hom_from_projective(p, q))
        try:
            comp = complete_morphism(seq, f1)
            cc = certify_angle(seq, comp)
            ok = cc.verdict and comp.maps[0].matrix == f1.matrix
            detail = None if ok else {"reason": cc.reason,
                                      **_witness(comp, cc)}
        except LinearAlgebraError as e:  # construction failure is a finding
            comp = None
            ok = False
            detail = {"error": str(e), "first_map": f1.matrix.tolist()}
        report.record("N1c", ok, sample, detail)
        if comp is not None:
            report.record_certificate(ok)

        # N2: rotations preserve the class in both directions
        base = comp if comp is not None and ok else tm1
        left = rotate(base, "left")
        right = rotate(base, "right")
        cl = certify_angle(seq, left)
        cr = certify_angle(seq, right)
        ok = cl.verdict and cr.verdict
        report.record("N2", ok, sample,
                      None if ok else {"left": cl.reason, "right": cr.reason,
                                       **_witness(left if not cl.verdict
                                                  else right,
                                                  cl if not cl.verdict
                                                  else cr)})
        report.record_certificate(cl.verdict)
        report.record_certificate(cr.verdict)

        # N3: commuting squares extend to morphisms of angles
        phi1, phi2 = sample_commuting_square(eng, tm1, tm2, rng)
        try:
            fill_morphism(seq, tm1, tm2, phi1, phi2)
            ok = True
            detail = None
        except FillError as e:
            ok = False
            detail = {"error": str(e),
                      "square": [phi1.matrix.tolist(), phi2.matrix.tolist()]}
        report.record("N3", ok, sample, detail)

        # N4: a fill with distinguished cone
        try:
            _, _, cone = good_fill_and_cone(seq, tm1, tm2, phi1, phi2)
            ccone = certify_angle(seq, cone)
            ok = ccone.verdict
            detail = None if ok else {"reason": ccone.reason,
                                      **_witness(cone, ccone)}
            report.record_certificate(ccone.verdict)
        except FillError as e:
            ok = False
            detail = {"error": str(e)}
        report.record("N4", ok, sample, detail)
    return report


def corrupted_suspension_sequence(seq: FunctorSequence) -> FunctorSequence:
    """Negative control: the same functor sequence with the suspension twist
    power off by one.  At least one axiom check must fail against it."""
    from .angulation import Suspension

    bad = Suspension(seq.algebra, seq.suspension.sigma,
                     seq.suspension.copies + 1)
    return replace(seq, suspension=bad)
