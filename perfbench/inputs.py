"""Seeded algebra descriptions and the three workloads.

Every input is generated here from the run's seed and written as a JSON
algebra description; the program only ever sees those files.  The seed draws
what a presentation may change without changing the algebra: the vertex and
arrow names, a non-zero multiple of each relation, and the order of the
relations and of their terms.  Names are drawn so that their sort order is
the order of the presentation below, because the engine orders its basis,
its idempotents and hence its pinned pivots by name; a seed therefore changes
the input text but not the amount of work, which keeps runs on different
seeds comparable.
"""

from __future__ import annotations

import json
import math
import os
import random
import string
from dataclasses import dataclass

F5 = 5
Q = 0  # the input format's code for the rationals


def _tokens(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct random names, returned in sorted order."""
    out: set[str] = set()
    while len(out) < count:
        head = rng.choice(string.ascii_lowercase)
        tail = "".join(rng.choice(string.ascii_lowercase + string.digits)
                       for _ in range(rng.randint(2, 5)))
        out.add(head + tail)
    return sorted(out)


def _multiplier(rng: random.Random, p: int) -> int:
    if p:
        return rng.randrange(1, p)
    return rng.choice([c for c in range(-7, 8) if c])


def _document(rng, p, vertices, arrows, relations) -> dict:
    """JSON description from index-based arrows and relations.

    ``arrows`` holds (source, target) vertex indices; each relation is a list
    of (coefficient, arrow-index path) terms.
    """
    v_names = _tokens(rng, len(vertices))
    a_names = _tokens(rng, len(arrows))
    rels = []
    for terms in relations:
        c = _multiplier(rng, p)
        rel = [{"coeff": c * coeff, "path": [a_names[i] for i in path]}
               for coeff, path in terms]
        rng.shuffle(rel)
        rels.append(rel)
    rng.shuffle(rels)
    return {
        "field": p,
        "vertices": v_names,
        "arrows": [{"name": a_names[k], "from": v_names[s], "to": v_names[t]}
                   for k, (s, t) in enumerate(arrows)],
        "relations": rels,
    }


def nakayama(rng: random.Random, n: int, s: int, p: int) -> dict:
    """kQ_n/I_s: the n-cycle a_k: k -> k+1 with every path of length s zero
    (dimension n*s, self-injective)."""
    arrows = [(k, (k + 1) % n) for k in range(n)]
    relations = [[(1, [(k + t) % n for t in range(s)])] for k in range(n)]
    return _document(rng, p, range(n), arrows, relations)


def preprojective_a3(rng: random.Random, p: int) -> dict:
    """The preprojective algebra of type A3: 1 <-> 2 <-> 3 with the mesh
    relations a1 a1* = 0, a2 a2* = a1* a1, a2* a2 = 0 (dimension 10)."""
    arrows = [(0, 1), (1, 0), (1, 2), (2, 1)]  # a1, a1*, a2, a2*
    relations = [
        [(1, [0, 1])],
        [(1, [2, 3]), (-1, [1, 0])],
        [(-1, [3, 2])],
    ]
    return _document(rng, p, range(3), arrows, relations)


@dataclass(frozen=True)
class Algebra:
    """One generated input and what theory says about it."""

    name: str
    kind: str               # "nakayama" or "preproj_a3"
    n: int = 0              # Nakayama: number of vertices
    s: int = 0              # Nakayama: Loewy length
    p: int = F5

    def document(self, rng: random.Random) -> dict:
        if self.kind == "nakayama":
            return nakayama(rng, self.n, self.s, self.p)
        return preprojective_a3(rng, self.p)

    def expected(self) -> dict:
        """Closed forms, valid in characteristic != 2.

        kQ_n/I_s: the minimal bimodule period is 2n/gcd(n, s); the first
        syzygy is a twisted regular bimodule when s = 2, otherwise the second
        is.  Pi(A3): quasi-period 3 (Brenner-Butler-King) and period 6.
        """
        if self.kind == "nakayama":
            return {"period": 2 * self.n // math.gcd(self.n, self.s),
                    "quasi_period": 1 if self.s == 2 else 2}
        return {"period": 6, "quasi_period": 3}


@dataclass(frozen=True)
class Op:
    """One CLI command on one input; ``args`` follow the input file."""

    command: str            # "period" or "verify"
    algebra: Algebra
    args: tuple = ()

    @property
    def label(self) -> str:
        return " ".join((self.command, self.algebra.name) + self.args)

    @property
    def multiplier(self) -> int:
        return int(self.args[self.args.index("--m") + 1])

    @property
    def samples(self) -> int:
        return int(self.args[self.args.index("--samples") + 1])


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple

    def twin(self, op: Op) -> int | None:
        """Index of the same command on the same algebra over F5."""
        a = op.algebra
        for k, other in enumerate(self.ops):
            b = other.algebra
            if (other.command, other.args, b.kind, b.n, b.s, b.p) == (
                    op.command, op.args, a.kind, a.n, a.s, F5):
                return k
        return None


def nak(n, s, p=F5):
    field_name = "q" if p == Q else f"f{p}"
    return Algebra(f"nakayama_{n}_{s}_{field_name}", "nakayama", n, s, p)


PREPROJ_A3 = Algebra("preproj_a3_f5", "preproj_a3")

# The sampled modules depend on verify's --seed, and the suite's cost spreads
# by a factor of 2 to 2.6 between sample seeds, so the sample seed is part of
# the workload, not of the run's seed.
VERIFY_SEED = ("--seed", "7")


def verify_op(alg, m, samples):
    return Op("verify", alg, ("--m", str(m), "--samples", str(samples))
              + VERIFY_SEED)


WORKLOADS = {
    "scan": Workload("scan", (
        Op("period", nak(5, 2)),      # s = 2 member: 4^5 twist scalings
        Op("period", nak(4, 3)),
        Op("period", nak(5, 3)),      # 4^5 scalings at dimension 15
        Op("period", nak(4, 5)),      # dimension 20: the dense A^e peaks
        Op("period", PREPROJ_A3),
        verify_op(nak(2, 2), 3, 1),   # keeps every layer's span present
    )),
    "verify": Workload("verify", (
        verify_op(nak(3, 3), 2, 4),   # angulation length 4
        verify_op(nak(2, 3), 2, 4),   # length 4; --m 1 would give 2 < 3
        verify_op(PREPROJ_A3, 1, 3),  # angulation length 3
    )),
    "rational": Workload("rational", (
        # over Q, then the same commands over F5 as the agreement reference
        Op("period", nak(2, 2, Q)),
        Op("period", nak(2, 3, Q)),
        Op("period", nak(3, 2, Q)),
        verify_op(nak(2, 2, Q), 3, 2),
        Op("period", nak(2, 2)),
        Op("period", nak(2, 3)),
        Op("period", nak(3, 2)),
        verify_op(nak(2, 2), 3, 2),
    )),
}


def write_inputs(workload: Workload, seed: int, directory: str) -> dict:
    """Write one JSON file per distinct algebra; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for op in workload.ops:
        alg = op.algebra
        if alg.name in paths:
            continue
        # one stream per algebra, so adding an op does not relabel the rest
        rng = random.Random(f"{seed}:{alg.name}")
        path = os.path.join(directory, f"{alg.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(alg.document(rng), fh, indent=1)
        paths[alg.name] = path
    return paths
