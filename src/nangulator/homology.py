"""Minimal projective covers, injective hulls, syzygies, standard injective
resolutions and stable-category computations for self-injective basic
algebras.

The Homology engine memoizes the pinned standard resolution per module, so
comparison isomorphisms built against it are well defined within a run.  All
caches are keyed by module contents and hold values computed from the
contents alone: maps out of a module with a ``proj`` decomposition come from
its generators and are not cached, and every other projective goes through
its projective cover.

A map phi out of P = e_{c_1}A (+) ... (+) e_{c_r}A is fixed by the images of
the summand generators, so ``solve_from_projective`` solves for the
coordinates c of phi = sum c_i H_i in the basis H of Hom(P, N) that
``hom_array`` builds as one array (H transported to pi^-1 . H along the
cover pi when P has no ``proj``).  Each constraint contributes one product
over the whole basis, C . H or H . R, and the answer is sum c_i H_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import BasicAlgebra, NakayamaData
from .fields import (
    ExactMatrix,
    LinearAlgebraError,
    block_diag,
    dot,
    linear_combination,
)
from .modules import (
    Module,
    ModuleMorphism,
    cover_from_tops,
    dual_module,
    hom_array,
    hom_space,
    iso_test,
    kernel_of,
    quotient,
    standard_projective,
    top_multiplicities,
    zero_module,
    zero_morphism,
)


def projective_cover(m: Module, variant: int = 0):
    """Minimal projective cover (P, pi: P -> M); ker pi lies in P.rad.

    ``variant`` selects an alternative (equally valid) ordering of the lifted
    top generators; used by the perturbed-choices mode.
    """
    A = m.algebra
    tops = top_multiplicities(m)
    if variant:
        tops = list(reversed(tops))
    if not tops:
        p = zero_module(A)
        return p, zero_morphism(p, m)
    pi = cover_from_tops(m, tops)
    if pi.rank() != m.dim:
        raise LinearAlgebraError("projective cover map is not onto")
    return pi.source, pi


def syzygy(m: Module):
    """Minimal first syzygy: kernel of the projective cover, with inclusion."""
    P, pi = projective_cover(m)
    k, inc = kernel_of(pi)
    return k, inc, P, pi


@dataclass
class ResolutionStep:
    term: Module                 # injective term I_k
    include: ModuleMorphism      # current cosyzygy -> I_k
    project: ModuleMorphism      # I_k -> next cosyzygy
    cosyzygy: Module             # the next cosyzygy


@dataclass
class Resolution:
    """A standard injective resolution M -> I_0 -> I_1 -> ... (fixed hulls)."""

    kind: str
    base: Module
    steps: list[ResolutionStep]

    def term(self, k: int) -> Module:
        return self.steps[k].term

    def cosyzygy(self, k: int) -> Module:
        """Omega^{-k} of the base (k >= 0)."""
        if k == 0:
            return self.base
        return self.steps[k - 1].cosyzygy

    def map_between(self, k: int) -> ModuleMorphism:
        """The differential I_k -> I_{k+1}."""
        return self.steps[k].project.then(self.steps[k + 1].include)

    def final_projection(self, length: int) -> ModuleMorphism:
        """I_{length-1} -> Omega^{-length}."""
        return self.steps[length - 1].project


class Homology:
    """Homological operations over a fixed self-injective basic algebra."""

    def __init__(self, algebra: BasicAlgebra, nakayama: NakayamaData,
                 choice_variant: int = 0):
        self.algebra = algebra
        self.nakayama = nakayama
        self.choice_variant = choice_variant
        self._resolutions: dict[bytes, Resolution] = {}
        self._dual_proj_iso: dict[int, ModuleMorphism] = {}
        self._proj_structure: dict[bytes, tuple] = {}
        self._hulls: dict[bytes, tuple] = {}

    # -- injective hulls (duality with the opposite cover) -------------------
    def _dual_projective_iso(self, pos: int) -> ModuleMorphism:
        """Iso D(e_pos A^op) -> e_{nu^{-1}(pos)} A, cached per vertex."""
        from .modules import projective_module

        if pos not in self._dual_proj_iso:
            op_proj = projective_module(self.algebra.opposite(), pos)
            d = dual_module(op_proj)  # right module over A
            target = projective_module(self.algebra, self.nakayama.nu_inverse(pos))
            iso = iso_test(d, target, seed=0xC0FFEE + self.choice_variant)
            if iso is None:
                raise LinearAlgebraError(
                    "dual of opposite projective is not the expected projective"
                )
            self._dual_proj_iso[pos] = iso
        return self._dual_proj_iso[pos]

    def injective_hull(self, m: Module):
        """Minimal injective hull (I, iota: M -> I) with I a literal direct
        sum of indecomposable projectives (projectives = injectives here).
        I and the matrix of iota are kept per module contents."""
        A = self.algebra
        if m.dim == 0:
            z = zero_module(A)
            return z, zero_morphism(m, z)
        key = m.digest()
        if key not in self._hulls:
            md = dual_module(m)
            p_op, pi_op = projective_cover(md, variant=self.choice_variant)
            iota0 = pi_op.matrix.T  # M = D(D(M)) -> D(P_op)
            # D(P_op) decomposes blockwise; normalize each block to a literal eA
            I = standard_projective(A, [self.nakayama.nu_inverse(pos)
                                        for pos in p_op.proj])
            rho = block_diag(A.field, [self._dual_projective_iso(pos).matrix
                                       for pos in p_op.proj])
            iota = iota0 @ rho
            if iota.rank() != m.dim:
                raise LinearAlgebraError("injective hull map is not mono")
            self._hulls[key] = (I, iota)
        I, iota = self._hulls[key]
        return I, ModuleMorphism(m, I, iota)

    def cosyzygy_step(self, m: Module):
        """One hull step: returns (I, iota, omega, proj)."""
        I, iota = self.injective_hull(m)
        q, proj, _ = quotient(I, iota.matrix)
        return I, iota, q, proj

    def cosyzygy(self, m: Module) -> Module:
        """Minimal first cosyzygy: cokernel of the injective hull."""
        return self.resolution(m, 1).cosyzygy(1)

    def resolution(self, m: Module, length: int) -> Resolution:
        """The pinned standard injective resolution of m, extended on demand
        and memoized by module contents."""
        key = m.digest()
        res = self._resolutions.get(key)
        if res is None:
            res = Resolution("injective", m, [])
            self._resolutions[key] = res
        cur = res.base if not res.steps else res.steps[-1].cosyzygy
        while len(res.steps) < length:
            I, iota, nxt, proj = self.cosyzygy_step(cur)
            res.steps.append(ResolutionStep(I, iota, proj, nxt))
            cur = nxt
        return res

    # -- stable category ------------------------------------------------------
    def factors_through_injective(self, f: ModuleMorphism):
        """Witness (g: I_M -> N with iota g = f) iff f is stably zero."""
        if f.source.dim == 0 or f.matrix.is_zero():
            I, iota = self.injective_hull(f.source)
            return ModuleMorphism(I, f.target,
                                  ExactMatrix.zeros(self.algebra.field, I.dim,
                                                    f.target.dim))
        I, iota = self.injective_hull(f.source)
        sol = self.solve_from_projective(
            I, f.target, [(iota.matrix, f.matrix)]
        )
        if sol is None:
            return None
        return sol

    def stable_equal(self, f: ModuleMorphism, g: ModuleMorphism) -> bool:
        return self.factors_through_injective(f - g) is not None

    def stable_inverse(self, f: ModuleMorphism):
        """A module map g with fg and gf stably equal to the identities, or
        None when f is not a stable isomorphism."""
        U, V = f.source, f.target
        fld = self.algebra.field
        homs = hom_space(V, U)
        IU, iota_u = self.injective_hull(U)
        IV, iota_v = self.injective_hull(V)
        hU = hom_space(IU, U)
        hV = hom_space(IV, V)
        cols_u = U.dim * U.dim
        cols_v = V.dim * V.dim
        z_u = np.zeros(cols_u, dtype=np.int64)
        z_v = np.zeros(cols_v, dtype=np.int64)
        rows = []
        for h in homs:
            fg = (f.matrix @ h.matrix).a.reshape(-1)
            gf = (h.matrix @ f.matrix).a.reshape(-1)
            rows.append(np.concatenate([fg, gf]))
        for s in hU:
            term = (iota_u.matrix @ s.matrix).a.reshape(-1)
            rows.append(np.concatenate([-term, z_v]))
        for s in hV:
            term = (iota_v.matrix @ s.matrix).a.reshape(-1)
            rows.append(np.concatenate([z_u, -term]))
        rhs_u = ExactMatrix.identity(fld, U.dim).a.reshape(-1)
        rhs_v = ExactMatrix.identity(fld, V.dim).a.reshape(-1)
        rhs = ExactMatrix(fld, np.concatenate([rhs_u, rhs_v])[None, :])
        if not rows:
            return zero_morphism(V, U) if rhs.is_zero() else None
        big = ExactMatrix(fld, np.stack(rows))
        sol = big.solve_left(rhs)
        if sol is None:
            return None
        return ModuleMorphism(V, U, linear_combination(
            fld, sol.a[0, : len(homs)], [h.matrix for h in homs],
            (V.dim, U.dim)))

    # -- maps out of projectives ----------------------------------------------
    def proj_structure(self, m: Module):
        """Decomposition of a projective module: (m, None, None) when m has a
        ``proj`` decomposition, else (standard projective P, iso pi: P -> m,
        inverse iso) from its projective cover, cached by module contents."""
        if m.proj is not None:
            return m, None, None
        key = m.digest()
        if key not in self._proj_structure:
            P, pi = projective_cover(m)
            if P.dim != m.dim or not pi.matrix.is_invertible():
                raise LinearAlgebraError("module is not projective")
            self._proj_structure[key] = (P, pi, pi.matrix.inv())
        return self._proj_structure[key]

    def hom_array_from_projective(self, p: Module, n: Module) -> np.ndarray:
        """Basis of Hom(P, N) as one array (basis size, dim P, dim N):
        generator images when P has a ``proj`` decomposition, else
        transported along its projective cover as pi^-1 . h."""
        P, pi, pi_inv = self.proj_structure(p)
        homs = hom_array(P, n)
        if pi is None or not len(homs):
            return homs
        return dot(self.algebra.field, pi_inv.a, homs)

    def hom_from_projective(self, p: Module, n: Module):
        """Basis of Hom(P, N) as morphisms: the slices of
        ``hom_array_from_projective``."""
        fld = self.algebra.field
        return [ModuleMorphism(p, n, ExactMatrix._wrap(fld, h))
                for h in self.hom_array_from_projective(p, n)]

    def solve_from_projective(self, p: Module, n: Module, constraints):
        """Deterministic phi: P -> N satisfying the given constraints, or
        None when infeasible.  P must be projective.  Constraints are pairs
        (C, D) meaning C @ phi = D, or triples ("right", R, D) meaning
        phi @ R = D.

        The unknowns are the coordinates c of phi = sum c_i H_i in the basis
        H of ``hom_array_from_projective``; each constraint adds the columns
        of C . H_i or H_i . R, flattened, one product per constraint over
        the whole basis.
        """
        fld = self.algebra.field
        homs = self.hom_array_from_projective(p, n)
        if not len(homs):
            if any(not c[-1].is_zero() for c in constraints):
                return None
            return zero_morphism(p, n)
        cols = [(dot(fld, c[0].a, homs) if len(c) == 2
                 else dot(fld, homs, c[1].a)).reshape(len(homs), -1)
                for c in constraints]
        big = ExactMatrix(fld, np.concatenate(cols, axis=1))
        rhs = ExactMatrix(fld, np.concatenate(
            [c[-1].a.reshape(-1) for c in constraints])[None, :])
        sol = big.solve_left(rhs)
        if sol is None:
            return None
        return ModuleMorphism(p, n, ExactMatrix._wrap(fld, dot(
            fld, sol.a[0], homs, axes=1)))


def cosyzygy_morphism(engine: Homology, f: ModuleMorphism, k: int) -> ModuleMorphism:
    """Transport f: M -> N to Omega^{-k} f along the pinned resolutions."""
    res_m = engine.resolution(f.source, k)
    res_n = engine.resolution(f.target, k)
    cur = f
    for step in range(k):
        I_m = res_m.term(step)
        I_n = res_n.term(step)
        iota_m = res_m.steps[step].include
        iota_n = res_n.steps[step].include
        proj_m = res_m.steps[step].project
        proj_n = res_n.steps[step].project
        u = engine.solve_from_projective(
            I_m, I_n, [(iota_m.matrix, (cur.matrix @ iota_n.matrix))]
        )
        if u is None:
            raise LinearAlgebraError("comparison lift failed (hull not injective?)")
        # induced map on cokernels: lift, push through u, project
        lift = _section_of(proj_m)
        mat = lift @ u.matrix @ proj_n.matrix
        cur = ModuleMorphism(res_m.cosyzygy(step + 1), res_n.cosyzygy(step + 1), mat)
    return cur


def _section_of(proj: ModuleMorphism) -> ExactMatrix:
    """A linear section of a surjective morphism: rows solve x @ P = id."""
    sec = proj.matrix.solve_left(
        ExactMatrix.identity(proj.source.algebra.field, proj.target.dim)
    )
    if sec is None:
        raise LinearAlgebraError("map has no section (not surjective)")
    return sec


def rank_exactness(maps) -> bool:
    """Exactness of the complex given by ``maps`` at every inner term:
    consecutive composites vanish and rank(f_i) + rank(f_{i+1}) is the
    dimension of the term between them.  Injectivity of the first map and
    surjectivity of the last are checked by padding the chain with zero maps
    out of and into a zero module."""
    if any(not (f.matrix @ g.matrix).is_zero() for f, g in zip(maps, maps[1:])):
        return False
    ranks = [f.rank() for f in maps]
    return all(ranks[i] + ranks[i + 1] == maps[i].target.dim
               for i in range(len(maps) - 1))
