"""Minimal projective covers, injective hulls, syzygies, standard injective
resolutions and stable-category computations for self-injective basic
algebras.

The Homology engine memoizes the pinned standard resolution per module, so
comparison isomorphisms built against it are well defined within a run.  All
caches are keyed by module contents and hold values computed from the
contents alone: maps out of a module with a ``proj`` decomposition come from
its generators and are not cached, and every other projective goes through
its projective cover.

Every map solved for is a point of a hom space, posed by one builder
(``modules.hom_system``) on its coordinates in a ``HomBasis``.  Out of
P = e_{c_1}A (+) ... (+) e_{c_r}A a map is fixed by the images of the
summand generators, so the basis is kept in vertex blocks: element i of
summand t is a row of the walk of N e_{c_t} along e_{c_t}A on the rows of t.
A projective without ``proj`` carries pi^-1 of its cover as a left factor.
An equation between module maps out of X is compared at the generators of
X only, an equivalent system; the solution is combined block by block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BasicAlgebra, NakayamaData
from .fields import ExactMatrix, LinearAlgebraError, block_diag, solve_left
from .modules import (
    HomBasis,
    Module,
    ModuleMorphism,
    cover_from_tops,
    dual_module,
    hom_space,
    iso_test,
    kernel_of,
    quotient,
    solve_homs,
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

    def resolution(self, m: Module, length: int) -> Resolution:
        """The pinned standard injective resolution of m, extended on demand
        and memoized by module contents."""
        key = m.digest()
        res = self._resolutions.get(key)
        if res is None:
            res = Resolution(m, [])
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
        I, iota = self.injective_hull(f.source)
        if f.matrix.is_zero():
            return zero_morphism(I, f.target)
        return self.solve_from_projective(
            I, f.target, [(iota.matrix, None, f.matrix, None)])

    def stable_equal(self, f: ModuleMorphism, g: ModuleMorphism) -> bool:
        return self.factors_through_injective(f - g) is not None

    def stable_inverse(self, f: ModuleMorphism):
        """A module map g: V -> U with f g - iota_U s_U = 1_U and
        g f - iota_V s_V = 1_V for some s_U, s_V out of the hulls, or None
        when f: U -> V is not a stable isomorphism."""
        U, V = f.source, f.target
        fld = self.algebra.field
        IU, iota_u = self.injective_hull(U)
        IV, iota_v = self.injective_hull(V)
        bases = [hom_space(V, U), hom_space(IU, U), hom_space(IV, V)]
        sol = solve_homs(bases, [
            ([(0, f.matrix, None), (1, -iota_u.matrix, None)],
             ExactMatrix.identity(fld, U.dim), U),
            ([(0, None, f.matrix), (2, -iota_v.matrix, None)],
             ExactMatrix.identity(fld, V.dim), V)])
        return None if sol is None else sol[0]

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

    def hom_from_projective(self, p: Module, n: Module) -> HomBasis:
        """Basis of Hom(P, N) for a projective P: the vertex blocks of
        ``hom_space`` when P has a ``proj`` decomposition, else those of its
        projective cover with the left factor pi^-1."""
        P, pi, pi_inv = self.proj_structure(p)
        homs = hom_space(P, n)
        return homs if pi is None else HomBasis(p, n, homs.blocks, pi_inv)

    def solve_from_projective(self, p: Module, n: Module, constraints):
        """Deterministic phi: P -> N, P projective, satisfying constraints
        (L, R, D, X): L @ phi @ R = D, L or R None for an identity, compared
        at the generators of X when X is a module (``modules.hom_system``);
        None when infeasible."""
        sol = solve_homs([self.hom_from_projective(p, n)],
                         [([(0, lft, rgt)], rhs, src)
                          for lft, rgt, rhs, src in constraints])
        return None if sol is None else sol[0]


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
            I_m, I_n, [(iota_m.matrix, None, cur.matrix @ iota_n.matrix, None)])
        if u is None:
            raise LinearAlgebraError("comparison lift failed (hull not injective?)")
        # induced map on cokernels: lift by a linear section of the
        # projection (x @ P = id), push through u, project
        lift = solve_left(proj_m.matrix, ExactMatrix.identity(
            proj_m.source.algebra.field, proj_m.target.dim))
        if lift is None:
            raise LinearAlgebraError("map has no section (not surjective)")
        mat = lift @ u.matrix @ proj_n.matrix
        cur = ModuleMorphism(res_m.cosyzygy(step + 1), res_n.cosyzygy(step + 1), mat)
    return cur


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
