"""Suspended sequences over proj A: the suspension functor, the exact functor
sequence induced by a quasi-periodic bimodule resolution, standard angles,
the two comparison isomorphisms whose stable equality certifies membership in
the distinguished class, and the constructive completions used by the axiom
checks (N1c, N2, N3, N4).

The suspension is realized by action substitution (precomposing every action
matrix with a power of the twist), which is a strict and strictly invertible
endofunctor.  Morphism matrices are therefore literally reused under
suspension, which makes rotation a bitwise-invertible operation.

Each functor X^k = - (x)_A B_k of the sequence is evaluated directly: B_k is
a projective bimodule Q = (+) A e_u (x) e_v A whose left action is twisted by
an automorphism tau, so M (x)_A B_k = (+) M'e_u (x) e_v A with M' the right
twist of M by tau.  X^k(M) is the standard projective with one copy of e_vA
per basis row of M'e_u, and every map out of it is given by the images of
its summand generators.  No B_k is built: the sequence keeps (Q, tau) and
the resolution's matrices, which the left twist leaves unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Automorphism, BasicAlgebra
from .fields import ExactMatrix, LinearAlgebraError, place, solve_left, stack_cols
from .homology import (
    Homology,
    _compare_with_resolution,
    _ladder,
    cosyzygy_morphism,
    descend_through_epi,
    rank_exactness,
)
from .modules import (
    Module,
    ModuleMorphism,
    _coords_in,
    _terms,
    direct_sum,
    identity_morphism,
    kernel_of,
    cokernel_of,
    map_from_generators,
    pullback,
    right_twist,
    standard_projective,
    zero_morphism,
)
from .periodicity import PeriodicityReport


class FillError(ValueError):
    """The input square does not satisfy the fill hypotheses."""


@dataclass
class Suspension:
    """The suspension functor on modules: right-twist by sigma^{-m}.

    Strictly functorial and strictly invertible: objects are re-actioned,
    morphism matrices are unchanged.  Each direction returns one module per
    input content, so a suspended module keeps its idempotent images, walks
    and top.
    """

    algebra: BasicAlgebra
    sigma: Automorphism
    copies: int  # the multiplier m

    def __post_init__(self):
        self.twist = self.sigma.power(-self.copies)
        self.twist_inverse = self.sigma.power(self.copies)
        self._applied: dict[bytes, Module] = {}
        self._unapplied: dict[bytes, Module] = {}

    def apply(self, m: Module) -> Module:
        return _twist_once(self._applied, m.digest(), m, self.twist)

    def unapply(self, m: Module) -> Module:
        return _twist_once(self._unapplied, m.digest(), m, self.twist_inverse)

    def apply_morphism(self, f: ModuleMorphism) -> ModuleMorphism:
        return ModuleMorphism(self.apply(f.source), self.apply(f.target), f.matrix)

    def unapply_morphism(self, f: ModuleMorphism) -> ModuleMorphism:
        return ModuleMorphism(self.unapply(f.source), self.unapply(f.target),
                              f.matrix)

    def is_identity(self) -> bool:
        return self.twist.is_identity()


def _twist_once(cache: dict, key: bytes, m: Module, tau: Automorphism) -> Module:
    """right_twist(m, tau), built once per key and kept in cache."""
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = right_twist(m, tau)
    return hit


def _summand_generators(q: Module) -> list[tuple[int, int, int]]:
    """(u, v, row of the generator e_u (x) e_v) of each summand
    A e_u (x) e_v A of a ``proj`` bimodule, in order."""
    env = q.algebra
    A = env.base
    out, off = [], 0
    for pos in q.proj:
        u, v = divmod(pos, len(A.idempotents))
        left, right = env.projective_factors(pos)
        out.append((u, v, off + left.index(A.idempotents[u]) * len(right)
                    + right.index(A.idempotents[v])))
        off += len(left) * len(right)
    return out


def _tensor_rows(twisted: Module, q: Module, rows: ExactMatrix,
                 elem: ExactMatrix) -> ExactMatrix:
    """x (x) elem for each row x of M', with elem = sum c x_a (x) y_b an
    element of the cover Q = (+)_t A e_{u_t} (x) e_{v_t} A: the row
    sum c (x . x_a) (x) y_b of (+)_t M'e_{u_t} (x) e_{v_t} A, where x . x_a
    (the action of M') is written in the basis of M'e_{u_t}.  The rows are
    walked once along the words of the paths x_a that elem hits, for all
    summands together."""
    env = q.algebra
    fld = env.field
    nonzero = elem.a[0] != 0
    cuts, off = [], 0
    for pos in q.proj:
        left, right = env.projective_factors(pos)
        # the coefficients of x_a (x) y_b, b in right, are the a-th w of elem
        w = len(right)
        hit = nonzero[off: off + len(left) * w].reshape(len(left), w)
        cuts.append((pos, w, [(left[a], off + a * w)
                              for a in np.flatnonzero(hit.any(axis=1))]))
        off += len(left) * w
    paths = sorted({x for *_, hits in cuts for x, _ in hits})
    walked = dict(zip(paths, twisted.walk(rows, paths)))
    blocks = []
    for pos, w, hits in cuts:
        basis = twisted.idempotent_image(pos // len(env.base.idempotents))
        piv = basis.rref()[1]
        terms = [walked[x].take_cols(piv).kron(elem.take_cols(range(at, at + w)))
                 for x, at in hits]
        blocks.append(sum(terms[1:], terms[0]) if terms else
                      ExactMatrix.zeros(fld, rows.rows, basis.rows * w))
    return stack_cols(fld, blocks)


@dataclass
class TensorTerm:
    """X(M) = M (x)_A B for B the left twist of a ``proj`` bimodule Q by
    tau: ``module`` is the standard projective (+)_s M'e_{u_s} (x) e_{v_s}A,
    M' = right_twist(M, tau), and ``generators[s]`` the basis rows of
    M'e_{u_s} (vectors of M), whose tensors with e_{u_s} (x) e_{v_s} are
    the summand generators, in order."""

    module: Module
    twisted: Module
    cover: Module
    generators: list[ExactMatrix]

    def map_out(self, target: Module, images_of) -> ModuleMorphism:
        """The map to target sending the generators of summand s to the
        rows of images_of(s, generators[s])."""
        images = []
        for s, gens in enumerate(self.generators):
            rows = images_of(s, gens)
            images.extend(rows.take_rows([i]) for i in range(rows.rows))
        return map_from_generators(self.module, target, images)


@dataclass
class FunctorSequence:
    """The exact sequence of exact endofunctors 0 -> Id -> X^1 -> ... ->
    X^N -> suspension -> 0, X^i = - (x)_A B_i.

    ``covers[i]`` = (Q_i, tau_i): Q_i is a ``proj`` term of the minimal
    bimodule resolution and B_i is Q_i with its left action twisted by
    tau_i.  The bimodule maps are kept as matrices, which left twists leave
    unchanged: ``connecting[i]`` B_i -> B_{i+1}, ``unit_matrix`` from the
    regular bimodule to B_1 and ``counit_matrix`` from B_N to the regular
    bimodule right-twisted by ``end_twist``.  Terms and maps are computed
    from these alone; only the "suspended" entry of a value comes from
    ``suspension``."""

    algebra: BasicAlgebra
    engine: Homology
    suspension: Suspension
    length: int
    covers: list[tuple[Module, Automorphism]]
    end_twist: Automorphism
    connecting: list[ExactMatrix]        # B_i -> B_{i+1}
    unit_matrix: ExactMatrix             # regular bimodule -> B_1
    counit_matrix: ExactMatrix           # B_N -> twisted regular bimodule

    def __post_init__(self):
        self._summands = [_summand_generators(q) for q, _ in self.covers]
        self._value_cache: dict[bytes, dict] = {}
        self._alpha_cache: dict[bytes, ModuleMorphism] = {}

    def evaluate(self, m: Module) -> dict:
        """The sequence 0 -> M -> X_1(M) -> ... -> X_N(M) -> Suspension(M) -> 0
        evaluated at a module: returns dict with terms, maps, unit, counit
        and the ``TensorTerm`` of each X_k(M)."""
        key = m.digest()
        val = self._value_cache.get(key)
        if val is not None:
            return val
        twisted: dict[bytes, Module] = {}   # M' per twist
        tensors = []
        for (q, tau), summands in zip(self.covers, self._summands):
            mt = _twist_once(twisted, tau.matrix.digest(), m, tau)
            gens = [mt.idempotent_image(u) for u, _, _ in summands]
            copies = [v for (_, v, _), g in zip(summands, gens)
                      for _ in range(g.rows)]
            tensors.append(TensorTerm(standard_projective(self.algebra, copies),
                                      mt, q, gens))
        maps = []
        for k, d in enumerate(self.connecting):
            src, dst = tensors[k], tensors[k + 1]
            gen_rows = [row for _, _, row in self._summands[k]]
            maps.append(src.map_out(dst.module, lambda s, gens: _tensor_rows(
                dst.twisted, dst.cover, gens, d.row(gen_rows[s]))))
        first = tensors[0]
        xi = self.algebra.unit() @ self.unit_matrix  # the image of 1
        unit = ModuleMorphism(m, first.module, _tensor_rows(
            first.twisted, first.cover,
            ExactMatrix.identity(self.algebra.field, m.dim), xi))
        # m (x) y in M (x)_A (A right-twisted by end_twist) goes to m . y
        end = _twist_once(twisted, self.end_twist.matrix.digest(), m,
                          self.end_twist)
        last_rows = [row for _, _, row in self._summands[-1]]
        counit = tensors[-1].map_out(end, lambda s, gens: m.combinations(
            gens, [_terms(self.counit_matrix.row(last_rows[s]).a[0])]))
        val = {"terms": [t.module for t in tensors], "maps": maps,
               "unit": unit, "counit": counit,
               "suspended": self.suspension.apply(m), "module": m,
               "tensors": tensors}
        self._value_cache[key] = val
        return val


def suspension(algebra: BasicAlgebra, sigma: Automorphism, m: int) -> Suspension:
    """Suspension data for the m-fold twist; invertibility is strict."""
    if m < 1:
        raise ValueError("the multiplier must be a positive integer")
    return Suspension(algebra, sigma, m)


def functor_sequence(engine: Homology, report: PeriodicityReport,
                     m: int) -> FunctorSequence:
    """The exact endofunctor sequence of length N = m * n, n the
    quasi-period, read off the minimal bimodule resolution P with
    differentials d_k, the twist sigma and the inclusion iota of the
    sigma-twisted regular bimodule onto Omega^n A in P_{n-1}.

    B_i is P_{j mod n}, j = N - i, left-twisted by sigma^(j div n - m): m
    spliced copies of the length-n segment, tensored with sigma^-m.  Left
    twists keep every matrix, so the connecting map out of position j is
    d_{j mod n}, or d_0 sigma iota at a junction (j mod n = 0); the unit is
    sigma iota and the counit d_0 sigma^-m."""
    algebra = report.resolution.algebra
    n = report.quasi_period
    total = m * n
    if total < 3:
        raise ValueError(
            f"angulation length m*n = {total} must be at least 3; "
            f"increase the multiplier"
        )
    res, sigma = report.resolution, report.twist
    diffs = [d.matrix for d in res.differentials[:n]]
    unit = sigma.matrix @ report.witness.matrix @ res.inclusions[n - 1].matrix
    inv_m = sigma.power(-m)
    covers = [(res.terms[j % n], sigma.power(j // n - m))
              for j in range(total - 1, -1, -1)]
    connecting = [diffs[j % n] if j % n else diffs[0] @ unit
                  for j in range(total - 1, 0, -1)]
    return FunctorSequence(algebra, engine, suspension(algebra, sigma, m),
                           total, covers, inv_m, connecting, unit,
                           diffs[0] @ inv_m.matrix)


@dataclass
class AngleSequence:
    """A candidate n-angle: objects X_1..X_n with maps f_1..f_n, the last
    into the suspension of X_1."""

    objects: list[Module]
    maps: list[ModuleMorphism]
    suspension: Suspension

    @property
    def length(self) -> int:
        return len(self.objects)

    def suspended_first_map(self) -> ModuleMorphism:
        return self.suspension.apply_morphism(self.maps[0])

    def verify_structure(self) -> bool:
        """Every component must be an honest module morphism, the last one
        into the suspension of the first object.  This is where a corrupted
        suspension (wrong twist power) shows up: the matrices no longer
        intertwine the twisted actions."""
        n = self.length
        try:
            for i in range(n - 1):
                ModuleMorphism(self.objects[i], self.objects[i + 1],
                               self.maps[i].matrix).verify()
            ModuleMorphism(self.objects[-1],
                           self.suspension.apply(self.objects[0]),
                           self.maps[-1].matrix).verify()
        except LinearAlgebraError:
            return False
        return True


def is_exact(x: AngleSequence) -> bool:
    """Exactness of the doubly-infinite periodic extension at the n positions
    of one period, including across the suspension boundary."""
    return rank_exactness(x.maps + [x.suspended_first_map()])


def standard_angle(seq: FunctorSequence, m: Module) -> AngleSequence:
    """The standard angle at a module: evaluate the functor sequence and wrap
    around through the suspension of the unit."""
    val = seq.evaluate(m)
    n = seq.length
    maps = list(val["maps"])
    last = ModuleMorphism(
        val["terms"][-1],
        seq.suspension.apply(val["terms"][0]),
        val["counit"].matrix @ val["unit"].matrix,
    )
    maps.append(last)
    return AngleSequence(list(val["terms"]), maps, seq.suspension)


def canonical_comparison(seq: FunctorSequence, m: Module) -> ModuleMorphism:
    """The comparison isomorphism Suspension(M) -> Omega^{-N} M built by the
    ladder between the functor sequence at M and the pinned standard
    injective resolution.  Deterministic and cached; a stable isomorphism."""
    key = m.digest()
    hit = seq._alpha_cache.get(key)
    if hit is not None:
        return hit
    val = seq.evaluate(m)
    alpha = _compare_with_resolution(
        seq.engine, identity_morphism(m), val["unit"].matrix, val["terms"],
        val["maps"], (val["counit"].matrix, val["suspended"]),
        "comparison ladder", "final comparison square is inconsistent")
    seq._alpha_cache[key] = alpha
    return alpha


def angle_comparison(seq: FunctorSequence, x: AngleSequence) -> tuple:
    """Read an exact angle as the start of an injective resolution of the
    kernel of its first map; returns (kernel module, inclusion, beta) where
    beta: Suspension(kernel) -> Omega^{-N} kernel is the induced comparison."""
    m, incl = kernel_of(x.maps[0])
    # factor the last map through the suspension of the kernel
    pi_mat = solve_left(incl.matrix, x.maps[-1].matrix)
    if pi_mat is None:
        raise LinearAlgebraError("last map does not factor through the kernel")
    beta = _compare_with_resolution(
        seq.engine, identity_morphism(m), incl.matrix, x.objects, x.maps,
        (pi_mat, seq.suspension.apply(m)), "angle comparison",
        "angle comparison final square inconsistent")
    return m, incl, beta


@dataclass
class AngleCertificate:
    """Certificate for membership in the distinguished class: the two
    comparison isomorphisms on the kernel of the first map agree stably."""

    exact: bool
    kernel: Module | None
    canonical: ModuleMorphism | None
    induced: ModuleMorphism | None
    verdict: bool
    reason: str = ""


def certify_angle(seq: FunctorSequence, x: AngleSequence) -> AngleCertificate:
    if not x.verify_structure():
        return AngleCertificate(False, None, None, None, False,
                                "maps-not-module-morphisms")
    if not is_exact(x):
        return AngleCertificate(False, None, None, None, False, "not-exact")
    m, incl, beta = angle_comparison(seq, x)
    alpha = canonical_comparison(seq, m)
    ok = seq.engine.stable_equal(alpha, beta)
    return AngleCertificate(True, m, alpha, beta, ok,
                            "" if ok else "comparison-isos-differ")


def rotate(x: AngleSequence, direction: str = "left") -> AngleSequence:
    """Left rotation drops X_1 and appends (-1)^n . suspended f_1; right
    rotation is its bitwise inverse."""
    n = x.length
    sign = (-1) ** n
    sus = x.suspension
    if direction == "left":
        objects = x.objects[1:] + [sus.apply(x.objects[0])]
        last = sus.apply_morphism(x.maps[0]).scale(sign)
        maps = x.maps[1:] + [last]
        return AngleSequence(objects, maps, sus)
    if direction == "right":
        first_obj = sus.unapply(x.objects[-1])
        objects = [first_obj] + x.objects[:-1]
        first = sus.unapply_morphism(x.maps[-1]).scale(sign)
        maps = [first] + x.maps[:-1]
        return AngleSequence(objects, maps, sus)
    raise ValueError(f"unknown rotation direction {direction!r}")


def direct_sum_angles(x: AngleSequence, y: AngleSequence) -> AngleSequence:
    """Componentwise direct sum (suspension distributes blockwise)."""
    algebra = x.objects[0].algebra
    objects = []
    incs = []
    for xo, yo in zip(x.objects, y.objects):
        s, inc, _ = direct_sum(algebra, [xo, yo])
        objects.append(s)
        incs.append(inc)
    maps = []
    n = x.length
    from .fields import block_diag

    for i in range(n):
        tgt = objects[(i + 1) % n]
        if i == n - 1:
            tgt = x.suspension.apply(objects[0])
        mat = block_diag(algebra.field, [x.maps[i].matrix, y.maps[i].matrix])
        maps.append(ModuleMorphism(objects[i], tgt, mat))
    return AngleSequence(objects, maps, x.suspension)


def trivial_angle(seq: FunctorSequence, m: Module) -> AngleSequence:
    """X --id--> X -> 0 -> ... -> 0 -> Suspension(X)."""
    from .modules import zero_module

    algebra = seq.algebra
    n = seq.length
    z = zero_module(algebra)
    objects = [m, m] + [z] * (n - 2)
    sus = seq.suspension
    maps = [identity_morphism(m), zero_morphism(m, z)]
    for i in range(2, n - 1):
        maps.append(zero_morphism(z, z))
    maps.append(zero_morphism(z, sus.apply(m)))
    return AngleSequence(objects, maps, sus)


def complete_morphism(seq: FunctorSequence, f1: ModuleMorphism) -> AngleSequence:
    """Complete a morphism between projectives to a distinguished angle.

    Follows the constructive completion: splice the functor sequence of the
    cokernel behind f1, compare with the pinned resolution of the kernel,
    invert the comparison stably, and close up by a pullback against the
    hull of the end term.
    """
    eng = seq.engine
    n = seq.length
    algebra = seq.algebra
    a_ker, l = kernel_of(f1)
    b_cok, c = cokernel_of(f1)

    val_b = seq.evaluate(b_cok)
    # top row after X_2: the functor terms of the cokernel
    mid_terms = [val_b["terms"][i] for i in range(n - 3)]
    top_terms = [f1.source, f1.target] + mid_terms
    top_maps = [f1]
    if n >= 4:
        top_maps.append(c.then(val_b["unit"]))
        for i in range(n - 4):
            top_maps.append(val_b["maps"][i])
    # cokernel C of the last included map, with projection
    if n == 3:
        c_mod, pi_c = b_cok, c
    else:
        c_mod, pi_c = cokernel_of(top_maps[-1])

    # ladder to the resolution of the kernel
    g = _compare_with_resolution(
        eng, identity_morphism(a_ker), l.matrix, top_terms, top_maps,
        (pi_c.matrix, c_mod), "completion ladder",
        "completion comparison is inconsistent")

    om_g = cosyzygy_morphism(eng, g, 1)
    inv = eng.stable_inverse(om_g)
    if inv is None:
        raise LinearAlgebraError("comparison map is not a stable isomorphism")
    alpha = canonical_comparison(seq, a_ker)
    h = ModuleMorphism(alpha.source, inv.target, alpha.matrix @ inv.matrix)

    res_c = eng.resolution(c_mod, 1)
    p_c = res_c.steps[0].project
    x_n, leg_sus, leg_hull = pullback(h, p_c)
    # include C -> X_n as (0, hull inclusion)
    iota_c = res_c.steps[0].include
    fld = algebra.field
    sum_rows = stack_cols(fld, [
        ExactMatrix.zeros(fld, c_mod.dim, h.source.dim), iota_c.matrix])
    # the pullback's embedding into the ambient sum, as RREF rows
    incl_basis = stack_cols(fld, [leg_sus.matrix, leg_hull.matrix])
    coords = _coords_in(incl_basis, sum_rows)
    l_leg = ModuleMorphism(c_mod, x_n, coords)

    theta = pi_c.then(l_leg)  # last included top term -> X_n
    last = ModuleMorphism(x_n, seq.suspension.apply(f1.source),
                          leg_sus.matrix @ l.matrix)
    objects = top_terms + [x_n]
    maps = top_maps + [theta, last]
    eng.proj_structure(x_n)  # raises when the pullback is not projective
    return AngleSequence(objects, maps, seq.suspension)


def fill_morphism(seq: FunctorSequence, x: AngleSequence, y: AngleSequence,
                  phi1: ModuleMorphism, phi2: ModuleMorphism):
    """Extend a commuting square on the first two objects of two
    distinguished angles to a periodic morphism of angles.

    The final component is corrected by a factorization through the hull of
    the suspended kernel, exactly as the fill argument requires; all squares
    commute on the nose afterwards.
    """
    eng = seq.engine
    if (x.maps[0].matrix @ phi2.matrix) != (phi1.matrix @ y.maps[0].matrix):
        raise FillError("the given square does not commute")
    comps = [phi1, phi2] + _ladder(
        eng, x.objects[1], (x.maps[1].matrix, phi2.matrix @ y.maps[1].matrix),
        x.objects[2:], x.maps[2:], y.objects[2:], y.maps[2:],
        lambda j: FillError(f"no fill at position {j + 2}"))
    (m, l_m), (nn, l_n), h_mat = _kernel_restriction(x, y, phi1)
    sus = seq.suspension
    sus_m, sus_n = sus.apply(m), sus.apply(nn)
    pi_mat = solve_left(l_m.matrix, x.maps[-1].matrix)
    pi2_mat = solve_left(l_n.matrix, y.maps[-1].matrix)
    if pi_mat is None or pi2_mat is None:
        raise FillError("angles are not exact at the boundary")
    pi = ModuleMorphism(x.objects[-1], sus_m, pi_mat)
    pi2 = ModuleMorphism(y.objects[-1], sus_n, pi2_mat)
    p_mat = descend_through_epi(pi.matrix, comps[-1].matrix @ pi2.matrix)
    if p_mat is None:
        raise FillError("last component does not descend to the kernels")
    delta = ModuleMorphism(sus_m, sus_n, p_mat - h_mat)
    witness = eng.factors_through_injective(delta)
    if witness is None:
        raise FillError("kernels disagree stably (inputs not distinguished?)")
    hull, iota = eng.injective_hull(sus_m)
    c = eng.solve_from_projective(hull, y.objects[-1],
                                  [(None, pi2.matrix, witness.matrix, hull)])
    if c is None:
        raise FillError("hull correction does not lift along the epimorphism")
    corrected = comps[-1] - ModuleMorphism(
        x.objects[-1], y.objects[-1],
        pi.matrix @ iota.matrix @ c.matrix,
    )
    comps[-1] = corrected
    _verify_angle_morphism(x, y, comps)
    return comps


def _kernel_restriction(x: AngleSequence, y: AngleSequence,
                        phi1: ModuleMorphism):
    """(kernel of f_1 with its inclusion, the same for g_1, the matrix of
    the map between them that phi1 restricts to)."""
    ker_x, ker_y = kernel_of(x.maps[0]), kernel_of(y.maps[0])
    h_mat = solve_left(ker_y[1].matrix, ker_x[1].matrix @ phi1.matrix)
    if h_mat is None:
        raise FillError("the square does not restrict to the kernels")
    return ker_x, ker_y, h_mat


def _verify_angle_morphism(x: AngleSequence, y: AngleSequence, comps) -> None:
    n = x.length
    for i in range(n - 1):
        if (x.maps[i].matrix @ comps[i + 1].matrix) != (
                comps[i].matrix @ y.maps[i].matrix):
            raise FillError(f"square {i} does not commute")
    sus_phi1 = comps[0].matrix
    if (x.maps[-1].matrix @ sus_phi1) != (comps[-1].matrix @ y.maps[-1].matrix):
        raise FillError("boundary square does not commute")


def angle_functor_morphism(seq: FunctorSequence, h: ModuleMorphism):
    """The morphism of standard angles induced by a module map: on X_k it
    sends the generator x (x) e_u (x) e_v to h(x) (x) e_u (x) e_v."""
    fld = seq.algebra.field
    comps = []
    pairs = zip(seq.evaluate(h.source)["tensors"],
                seq.evaluate(h.target)["tensors"])
    for summands, (src, dst) in zip(seq._summands, pairs):
        units = ExactMatrix.identity(fld, dst.cover.dim)
        comps.append(src.map_out(dst.module, lambda s, gens: _tensor_rows(
            dst.twisted, dst.cover, gens @ h.matrix,
            units.row(summands[s][2]))))
    return comps


def good_fill_and_cone(seq: FunctorSequence, x: AngleSequence,
                       y: AngleSequence, phi1: ModuleMorphism,
                       phi2: ModuleMorphism):
    """A fill of the square whose mapping cone is again distinguished.

    Transports the induced map of kernels through the standard angles via
    homotopy equivalences, then corrects the first three components with an
    explicit homotopy; returns (components, homotopy, cone)."""
    eng = seq.engine
    n = x.length
    if (x.maps[0].matrix @ phi2.matrix) != (phi1.matrix @ y.maps[0].matrix):
        raise FillError("the given square does not commute")
    (m, l_m), (nn, l_n), h_mat = _kernel_restriction(x, y, phi1)
    h = ModuleMorphism(m, nn, h_mat)
    t_m = standard_angle(seq, m)
    t_n = standard_angle(seq, nn)
    val_m = seq.evaluate(m)
    val_n = seq.evaluate(nn)
    # homotopy equivalence a: X -> T_M extending the kernel identity
    a1, a2 = _ladder(
        eng, m, (l_m.matrix, val_m["unit"].matrix),
        x.objects[:2], x.maps, t_m.objects[:2], t_m.maps,
        lambda _: FillError("comparison to the standard angle failed"))
    a_fill = fill_morphism(seq, x, t_m, a1, a2)
    # homotopy equivalence b: T_N -> Y extending the kernel identity
    b1, b2 = _ladder(
        eng, nn, (val_n["unit"].matrix, l_n.matrix),
        t_n.objects[:2], t_n.maps, y.objects[:2], y.maps,
        lambda _: FillError("comparison from the standard angle failed"))
    b_fill = fill_morphism(seq, t_n, y, b1, b2)
    t_h = angle_functor_morphism(seq, h)
    base = [
        ModuleMorphism(
            x.objects[i], y.objects[i],
            a_fill[i].matrix @ t_h[i].matrix @ b_fill[i].matrix,
        )
        for i in range(n)
    ]
    # correct the first components to match (phi1, phi2); both sides of
    # each correction are module maps out of X_1, then X_2
    h2 = eng.solve_from_projective(
        x.objects[1], y.objects[0],
        [(x.maps[0].matrix, None, phi1.matrix - base[0].matrix,
          x.objects[0])])
    if h2 is None:
        raise FillError("first correction failed")
    rho = phi2.matrix - base[1].matrix - h2.matrix @ y.maps[0].matrix
    h3 = eng.solve_from_projective(
        x.objects[2], y.objects[1],
        [(x.maps[1].matrix, None, rho, x.objects[1])])
    if h3 is None:
        raise FillError("second correction failed")
    comps = list(base)
    comps[0] = phi1
    comps[1] = phi2
    comps[2] = base[2] + ModuleMorphism(x.objects[2], y.objects[1],
                                        h3.matrix).then(y.maps[1])
    _verify_angle_morphism(x, y, comps)
    fld = seq.algebra.field
    zero1 = ExactMatrix.zeros(fld, x.objects[0].dim, y.objects[0].dim)
    homotopy = [zero1, h2.matrix, h3.matrix] + [
        ExactMatrix.zeros(fld, x.objects[i].dim, y.objects[i - 1].dim)
        for i in range(3, n)
    ]
    cone = mapping_cone(x, y, comps)
    return comps, homotopy, cone


def mapping_cone(x: AngleSequence, y: AngleSequence, comps) -> AngleSequence:
    """The cone of a morphism of angles, with the distinguished sign pattern:
    blocks [[-f_{i+1}, phi_{i+1}], [0, g_i]] in row convention."""
    algebra = x.objects[0].algebra
    fld = algebra.field
    sus = x.suspension
    n = x.length
    shifted = x.objects[1:] + [sus.apply(x.objects[0])]
    shifted_maps = x.maps[1:] + [x.suspended_first_map()]
    shifted_comps = comps[1:] + [sus.apply_morphism(comps[0])]
    objects = []
    for i in range(n):
        s, _, _ = direct_sum(algebra, [shifted[i], y.objects[i]])
        objects.append(s)
    maps = []
    for i in range(n):
        top_f = shifted_maps[i]
        mid_phi = shifted_comps[i]
        bot_g = y.maps[i]
        r, c = shifted[i].dim, top_f.target.dim
        big = place(fld, (r + y.objects[i].dim, c + bot_g.target.dim), [
            (0, 0, -top_f.matrix), (0, c, mid_phi.matrix),
            (r, c, bot_g.matrix)])
        tgt = objects[(i + 1) % n] if i < n - 1 else sus.apply(objects[0])
        maps.append(ModuleMorphism(objects[i], tgt, big))
    return AngleSequence(objects, maps, sus)
