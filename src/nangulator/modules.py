"""Finite-dimensional right modules, morphism spaces, tensor functors,
pullbacks and isomorphism testing.

A module stores one action matrix per algebra generator: per idempotent and
arrow for a module over A, and per e_i (x) e_j, a (x) e_j and e_i (x) a for
a bimodule, a right module over the enveloping algebra A^e.  The matrices
are stored once, stacked in generator order, as one ``fields.SparseStack``
of their nonzero entries (``Module.stack``), whatever algebra the module is
over: generator actions are almost all zero, over A as over A^e.
Projectives e A^e are built from the nonzeros of A's own multiplication
blocks.  Every basis element acts along its word (``BasicAlgebra.word``):
rows are walked through the stored nonzeros, one generator at a time
(``Module.times``, ``Module.walk``), and no path matrix is formed or
kept.  Constructions (submodules, quotients, direct sums, twists, duals)
and ``ModuleMorphism.verify`` act on the whole stack with one product
through its stored nonzeros.
Every matrix is an ``ExactMatrix`` and every stack, hom systems among them,
a ``SparseStack``, so the same code runs over F_p and Q, and this module
never touches the stored integers.
Elements are row vectors; a morphism matrix F sends x to x @ F, so
composition "f then g" is the matrix product F @ G.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .algebra import Automorphism, BasicAlgebra, EnvelopingAlgebra
from .fields import (
    ExactMatrix,
    LinearAlgebraError,
    SparseStack,
    check_memory,
    first_unequal_block,
    left_kernel,
    left_products,
    place,
    reduce_rows_mod,
    row_space,
    solve_left,
    stack_cols,
    stack_rows,
)


class Module:
    """A right module, stored by the action of each algebra generator.

    ``stack`` holds the generator actions once, in ``algebra.generators``
    order, as a ``SparseStack`` of ``#generators`` matrices dim x dim.
    Basis elements act on rows by walks along their words (``walk``);
    ``action[k]`` forms the matrix of any basis element k on request, as
    the walk of the identity, and keeps nothing.
    Idempotent images, their walks along e A that ``hom_space`` reads, and
    a bimodule's one-sided generator actions are kept too, one entry per
    idempotent or generator, and so are the generating rows that
    ``on_generators`` reads; the top is kept on the algebra, per
    ``digest`` (``top_multiplicities``).

    ``action`` is given either as that stack, as its dense row stack of
    shape (#generators . dim, dim), or as the generator actions, a list by
    basis index or a dict read at the generators only.

    ``proj`` lists c_1..c_r when the module is literally
    e_{c_1}A (+) ... (+) e_{c_r}A in path bases, block by block; only
    ``projective_module`` and ``direct_sum`` set it.  Maps out of such a
    module are given by the images of the summand generators
    (``map_from_generators``); any other projective is handled through its
    projective cover.  ``digest`` covers the generator actions only.
    """

    def __init__(self, algebra, dim: int, action, proj: tuple | None = None):
        self.algebra = algebra
        self.dim = dim
        self.proj = proj
        gens = algebra.generators
        if not isinstance(action, (ExactMatrix, SparseStack)):
            action = stack_rows(algebra.field, [action[g] for g in gens])
        if isinstance(action, ExactMatrix):
            action = SparseStack.from_matrix(action, len(gens))
        if action.shape != (len(gens) * dim, dim):
            raise LinearAlgebraError(
                f"generator actions of shape {action.shape} for "
                f"{len(gens)} generators on dimension {dim}")
        self.stack = action
        self._images: dict[int, ExactMatrix] = {}
        self._walks: dict[int, ExactMatrix] = {}
        self._sides: dict[tuple, ExactMatrix] = {}
        self._generating = None  # kept by ``on_generators``
        self._digest = None

    @property
    def action(self) -> "_Actions":
        return _Actions(self)

    def digest(self) -> bytes:
        if self._digest is None:
            import hashlib

            h = hashlib.blake2b(digest_size=16)
            h.update(id(self.algebra).to_bytes(8, "little", signed=False))
            h.update(self.dim.to_bytes(4, "little"))
            h.update(self.stack.digest())
            self._digest = h.digest()
        return self._digest

    def times(self, y: ExactMatrix | None, g: int) -> ExactMatrix:
        """y @ (the action of generator g), through the stored nonzeros,
        without forming the action; y None stands for the identity, whose
        product is the action, read off the stack."""
        t = self.algebra.position[g]
        if y is None:
            return self.stack.block(t)
        return self.stack.row_product(y, t)

    def walk(self, y: ExactMatrix | None, ks) -> list[ExactMatrix]:
        """y . b_k for each basis index k in ks: one walk of the rows y
        (None for the identity) along the words of the b_k
        (``walk_words``)."""
        return walk_words(y, [self.algebra.word(k) for k in ks], self.times)

    def combinations(self, y: ExactMatrix | None, terms) -> ExactMatrix:
        """y . (sum c b_k) for the pairs (k, c) of each list in ``terms``,
        stacked in that order: one walk of y (None for the identity) along
        the words of the b_k used, then one product of the coefficient
        matrix with the flattened walks."""
        rows = self.dim if y is None else y.rows
        fld, shape = self.algebra.field, (len(terms) * rows, self.dim)
        used = sorted({k for ts in terms for k, _ in ts})
        if not used:
            return ExactMatrix.zeros(fld, *shape)
        column = {k: i for i, k in enumerate(used)}
        coeffs = [[0] * len(used) for _ in terms]
        for row, ts in zip(coeffs, terms):
            for k, c in ts:
                row[column[k]] += c
        flat = stack_rows(fld, [w.reshape(1, rows * self.dim)
                                for w in self.walk(y, used)])
        return (ExactMatrix(fld, coeffs) @ flat).reshape(*shape)

    def idempotent_image(self, pos: int) -> ExactMatrix:
        """Canonical basis rows of M e for the idempotent at position pos,
        eliminated from the stored nonzeros."""
        hit = self._images.get(pos)
        if hit is None:
            e = self.algebra.idempotents[pos]
            hit = self._images[pos] = row_space(
                self.stack.take([self.algebra.position[e]]))
        return hit

    def is_zero(self) -> bool:
        return self.dim == 0


class _Actions:
    """``Module.action``: the action matrix of each basis element by index,
    formed on each request as the walk of the identity along its word."""

    __slots__ = ("module",)

    def __init__(self, module: Module):
        self.module = module

    def __len__(self) -> int:
        return self.module.algebra.dim

    def __getitem__(self, k: int) -> ExactMatrix:
        if not 0 <= k < len(self):
            raise IndexError(f"basis index {k} out of range")
        return self.module.walk(None, [k])[0]

    def __iter__(self):
        return (self[k] for k in range(len(self)))


def walk_words(y: ExactMatrix | None, words, step) -> list[ExactMatrix]:
    """y . w for each word w of generators, step(x, g) the rows x times
    generator g: one product of rows per distinct prefix, and no path
    matrix."""
    memo = {}

    def walk(w):
        if not w:
            return y
        hit = memo.get(w)
        if hit is None:
            hit = memo[w] = step(walk(w[:-1]), w[-1])
        return hit

    return [walk(w) for w in words]


@dataclass
class ModuleMorphism:
    source: Module
    target: Module
    matrix: ExactMatrix

    def then(self, other: "ModuleMorphism") -> "ModuleMorphism":
        assert self.target.dim == other.source.dim
        return ModuleMorphism(self.source, other.target, self.matrix @ other.matrix)

    def __add__(self, other: "ModuleMorphism") -> "ModuleMorphism":
        return ModuleMorphism(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other: "ModuleMorphism") -> "ModuleMorphism":
        return ModuleMorphism(self.source, self.target, self.matrix - other.matrix)

    def __neg__(self) -> "ModuleMorphism":
        return ModuleMorphism(self.source, self.target, -self.matrix)

    def scale(self, c) -> "ModuleMorphism":
        return ModuleMorphism(self.source, self.target, self.matrix.scale(c))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def verify(self) -> None:
        """Check that the matrix intertwines the actions of the generators;
        every other action is a product of theirs.  One product of the
        source's stack with the matrix and one blockwise product of the
        matrix with the target's, both through the stored nonzeros, are
        compared; the error names the first generator, in index order, that
        fails."""
        src, dst, f = self.source, self.target, self.matrix
        gens = src.algebra.generators
        bad = first_unequal_block(src.stack @ f, dst.stack.left(f))
        if bad is not None:
            raise LinearAlgebraError(
                f"morphism does not intertwine element {gens[bad]}")

    def rank(self) -> int:
        return self.matrix.rank()


def identity_morphism(m: Module) -> ModuleMorphism:
    return ModuleMorphism(m, m, ExactMatrix.identity(m.algebra.field, m.dim))


def zero_morphism(m: Module, n: Module) -> ModuleMorphism:
    return ModuleMorphism(m, n, ExactMatrix.zeros(m.algebra.field, m.dim, n.dim))


def zero_module(algebra: BasicAlgebra) -> Module:
    return Module(algebra, 0, ExactMatrix.zeros(algebra.field, 0, 0))


# -- bimodule action helpers ---------------------------------------------------


def _side(algebra: BasicAlgebra, g: int, left: bool) -> list[int]:
    """The positions, among the A^e generators, of g (x) e_j (``left``) or
    of e_i (x) g, over the vertices."""
    position = algebra.enveloping().position
    return [position[algebra.envelope_index(*((g, e) if left else (e, g)))]
            for e in algebra.idempotents]


def _one_sided(b: Module, algebra: BasicAlgebra, g: int, left: bool) -> ExactMatrix:
    """Action of g (x) 1 (``left``) or 1 (x) g on a bimodule, for a
    generator g of A: the sum of the A^e generators g (x) e_j, or e_i (x) g,
    summed over the stored nonzeros and kept on the module."""
    key = (left, g)
    hit = b._sides.get(key)
    if hit is None:
        hit = b._sides[key] = b.stack.sums([_side(algebra, g, left)]).dense()
    return hit


def bim_right_action(b: Module, algebra: BasicAlgebra, g: int) -> ExactMatrix:
    """Action of (1 (x) g) on a bimodule: right multiplication by the
    generator g."""
    return _one_sided(b, algebra, g, left=False)


def bim_left_action(b: Module, algebra: BasicAlgebra, g: int) -> ExactMatrix:
    """Action of (g (x) 1) on a bimodule: left multiplication by the
    generator g."""
    return _one_sided(b, algebra, g, left=True)


def right_action_over(m: Module, algebra: BasicAlgebra, g: int) -> ExactMatrix:
    """Right action of the base-algebra generator g, whether m is a plain
    module over ``algebra`` (its matrix of the stack) or a bimodule over
    its enveloping algebra."""
    if m.algebra is algebra:
        return m.stack.block(algebra.position[g])
    return bim_right_action(m, algebra, g)


# -- constructions -----------------------------------------------------------


def projective_module(algebra, pos: int) -> Module:
    """The indecomposable projective e A for the idempotent at position pos.

    Its basis is ``algebra.projective_rows(pos)``, so generator actions are
    restrictions of right multiplication.  Over A it is built once per
    vertex and kept on the algebra (``BasicAlgebra.projectives``), so
    repeat calls share one module and its caches.  Over A^e it is built
    afresh on every call (``_bimodule_projective``)."""
    if isinstance(algebra, EnvelopingAlgebra):
        return _bimodule_projective(algebra, [pos])
    hit = algebra.projectives.get(pos)
    if hit is None:
        rows = algebra.projective_rows(pos)
        action = {g: algebra.right_mult[g].take_rows(rows).take_cols(rows)
                  for g in algebra.generators}
        hit = algebra.projectives[pos] = Module(algebra, len(rows), action,
                                                (pos,))
    return hit


def _bimodule_projective(env: EnvelopingAlgebra, copies) -> Module:
    """The direct sum of the e A^e for the idempotents at ``copies``, in
    that order.  For e = e_u (x) e_v, e A^e = A e_u (x) e_v A and the
    generator a (x) b acts by the Kronecker product of A's left
    multiplication by a on A e_u and its right multiplication by b on e_v A
    (``EnvelopingAlgebra.factor_blocks``): the sparse stack is built from
    the nonzeros of those blocks, with no dense action formed."""
    n = len(env.base.idempotents)
    stack = SparseStack.kron_sum(env.field, env.pairs, [
        (env.factor_blocks(pos // n, True), env.factor_blocks(pos % n, False))
        for pos in copies])
    return Module(env, stack.rows, stack, tuple(copies))


def standard_projective(algebra: BasicAlgebra, copies: list[int]) -> Module:
    """Direct sum of indecomposable projectives in the given vertex order;
    its ``proj`` is ``tuple(copies)``.  Over A each vertex list is built
    once and kept on the algebra, so repeat calls share one module and its
    caches; bimodule covers over A^e are built afresh, in one piece."""
    if isinstance(algebra, EnvelopingAlgebra):
        return _bimodule_projective(algebra, copies)
    key = tuple(copies)
    hit = algebra.standard_projectives.get(key)
    if hit is None:
        parts = [projective_module(algebra, pos) for pos in copies]
        hit = algebra.standard_projectives[key] = direct_sum(algebra, parts)[0]
    return hit


def twisted_bimodule(algebra: BasicAlgebra, sigma: Automorphism) -> Module:
    """The bimodule that is regular on the left and right-twisted by sigma,
    as a right module over the enveloping algebra: the generator u (x) v
    acts by x -> u x sigma(v), the product of A's left multiplication by u
    and its right multiplication by sigma(v), formed from their nonzeros."""
    env = algebra.enveloping()
    right = stack_rows(algebra.field, [
        algebra.element_right_matrix(sigma.matrix.row(g))
        for g in algebra.generators])
    return Module(env, algebra.dim, SparseStack.products(
        env.pairs, algebra.mult_stack(True).take(algebra.generators),
        SparseStack.from_matrix(right, len(algebra.generators))))


def _substituted(m: Module, terms_of) -> Module:
    """m with each generator g acting as the combination ``terms_of(g)``:
    the identity walked along the words of the basis elements used, and
    one product of the coefficient matrix with those walks
    (``Module.combinations``)."""
    A = m.algebra
    return Module(A, m.dim, m.combinations(
        None, [terms_of(g) for g in A.generators]))


def _terms(row) -> list:
    return [(t, row[t]) for t in np.nonzero(row)[0]]


def right_twist(m: Module, tau: Automorphism) -> Module:
    """Precompose the right action with tau: the substitution model of
    m (x)_A (regular bimodule right-twisted by tau).  Morphism matrices are
    unchanged under this identification, so the construction is a strict,
    strictly invertible functor."""
    assert m.algebra is tau.algebra
    a = tau.matrix.a
    return _substituted(m, lambda g: _terms(a[g]))


def restrict_to_left_factor(m: Module, algebra: BasicAlgebra) -> Module:
    """Restrict a bimodule to its left action, as a right A^op-module."""
    assert m.algebra is algebra.enveloping()
    op = algebra.opposite()
    return Module(op, m.dim, {g: bim_left_action(m, algebra, g)
                              for g in op.generators})


def opposite_regular(algebra: BasicAlgebra) -> Module:
    """A as a right module over A^op (that is, A as a left module)."""
    op = algebra.opposite()
    return Module(op, algebra.dim, op.right_mult)


def dual_module(m: Module) -> Module:
    """k-linear dual, a right module over the opposite algebra (transposes).
    The opposite algebra lists the same generators in the same order."""
    return Module(m.algebra.opposite(), m.dim, m.stack.T)


def submodule(m: Module, rows: ExactMatrix):
    """Canonical submodule on the row space of ``rows`` (must be stable).

    Returns (S, include: S -> M).  With R the RREF basis and pivots pc,
    generator g acts on S by R M_g restricted to the columns pc: one
    blockwise product of R with the columns pc of the stack, through its
    stored nonzeros.
    """
    basis = row_space(rows)
    if basis.rows == 0:
        s = zero_module(m.algebra)
        return s, ModuleMorphism(s, m, ExactMatrix.zeros(m.algebra.field, 0, m.dim))
    s = Module(m.algebra, basis.rows, m.stack.left(basis, basis.rref()[1]))
    return s, ModuleMorphism(s, m, basis)


def quotient(m: Module, rows: ExactMatrix):
    """Canonical quotient of M by the row space of ``rows`` (must be stable).

    Returns (Q, project: M -> Q, lift: Q -> M coordinate section).  With
    RREF basis rows R_i and pivots pc_i of the space, e_j reduced modulo it
    is e_j off the pivots and e_{pc_i} - R_i at pc_i; ``project`` is its
    non-pivot columns and ``lift`` picks the non-pivot rows.  Generator g
    acts on Q by the non-pivot rows of M_g times ``project``: one product
    of those rows of the stack with it.
    """
    space = row_space(rows)
    fld = m.algebra.field
    eye = ExactMatrix.identity(fld, m.dim)
    if space.rows == 0:
        q = Module(m.algebra, m.dim, m.stack)
        return q, ModuleMorphism(m, q, eye), eye
    piv = space.rref()[1]
    pivots = set(piv)
    keep = [j for j in range(m.dim) if j not in pivots]
    proj = place(fld, (m.dim, len(keep)), [
        (keep, 0, ExactMatrix.identity(fld, len(keep))),
        (list(piv), 0, -space.take_cols(keep))])
    q = Module(m.algebra, len(keep), m.stack.take_rows(keep) @ proj)
    return q, ModuleMorphism(m, q, proj), eye.take_rows(keep)


def kernel_of(f: ModuleMorphism):
    return submodule(f.source, left_kernel(f.matrix))


def cokernel_of(f: ModuleMorphism):
    q, proj, _ = quotient(f.target, f.matrix)
    return q, proj


def direct_sum(algebra: BasicAlgebra, parts: list[Module]):
    """Direct sum with canonical inclusions and projections; the sum keeps
    the ``proj`` decomposition when every part has one.  Each part's
    stack is placed in its diagonal block of the sum's stack, and the
    inclusions and projections are row and column slices of one
    identity."""
    fld = algebra.field
    starts = list(accumulate([p.dim for p in parts], initial=0))
    total = starts[-1]
    stack = SparseStack.diagonal(fld, [p.stack for p in parts],
                                 len(algebra.generators))
    eye = ExactMatrix.identity(fld, total)
    cuts = [range(off, off + p.dim) for off, p in zip(starts, parts)]
    proj = None
    if all(p.proj is not None for p in parts):
        proj = tuple(c for p in parts for c in p.proj)
    m = Module(algebra, total, stack, proj)
    incs = [ModuleMorphism(p, m, eye.take_rows(cut))
            for p, cut in zip(parts, cuts)]
    projs = [ModuleMorphism(m, p, eye.take_cols(cut))
             for p, cut in zip(parts, cuts)]
    return m, incs, projs


def pullback(f: ModuleMorphism, g: ModuleMorphism):
    """Fibre product {(x, y) : f(x) = g(y)} with its two projections."""
    assert f.target.dim == g.target.dim
    algebra = f.source.algebra
    fld = algebra.field
    stacked = stack_rows(fld, [f.matrix, -g.matrix])
    k = left_kernel(stacked)  # rows are (x | y) pairs
    sum_mod, _, projs = direct_sum(algebra, [f.source, g.source])
    p, inc = submodule(sum_mod, k)
    p_x = ModuleMorphism(p, f.source, inc.matrix @ projs[0].matrix)
    p_y = ModuleMorphism(p, g.source, inc.matrix @ projs[1].matrix)
    return p, p_x, p_y


# -- hom spaces ---------------------------------------------------------------


@dataclass
class HomBasis:
    """A basis of Hom(M, N) in blocks (off, W), in basis order: row i of W
    is basis element i of the block, the map that sends the w rows of M
    from ``off`` on to W[i] read as a w x dim N matrix and the other rows to
    zero.  A ``proj`` module has one block per summand, W the walk of N e_c
    along e_cA shared by the summands at vertex c (``hom_space``); any other
    source has one block at offset 0 (``_hom_generic``).  With ``left`` set
    every basis map is left . H, as pi^-1 . H along a cover.  The basis reads
    as a sequence of morphisms."""

    source: Module
    target: Module
    blocks: list
    left: ExactMatrix | None = None

    def __post_init__(self):
        # the blocks by walked array: W with [(first basis row, off), ...]
        groups, self.size = {}, 0
        for off, w in self.blocks:
            groups.setdefault(id(w), (w, []))[1].append((self.size, off))
            self.size += w.rows
        self.groups = list(groups.values())

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> ModuleMorphism:
        for off, w in self.blocks:
            if 0 <= i < w.rows:
                return self._embed([([off], w.row(i))])
            i -= w.rows
        raise IndexError("hom basis index out of range")

    def combine(self, coeffs: ExactMatrix) -> ModuleMorphism:
        """sum c_i H_i for the coefficient row ``coeffs``, one product per
        walked array."""
        parts = []
        for w, places in self.groups:
            c = coeffs.take_cols([row + i for row, _ in places
                                  for i in range(w.rows)])
            parts.append(([off for _, off in places],
                          c.reshape(len(places), w.rows) @ w))
        return self._embed(parts)

    def _embed(self, parts) -> ModuleMorphism:
        """The map with the rows of block s of ``flat`` from offs[s] on, for
        (offs, flat) in parts, each row of flat a block read row by row,
        and zero elsewhere."""
        fld, cols = self.source.algebra.field, self.target.dim
        placed = []
        for offs, flat in parts:
            width = flat.cols // cols
            rows = [off + r for off in offs for r in range(width)]
            placed.append((rows, 0, flat.reshape(len(rows), cols)))
        out = place(fld, (self.source.dim, cols), placed)
        return ModuleMorphism(self.source, self.target,
                              out if self.left is None else self.left @ out)


def hom_space(m: Module, n: Module) -> HomBasis:
    """Deterministic basis of Hom(M, N).  Hom(e_{c_1}A (+) ... (+)
    e_{c_r}A, N) is N e_{c_1} (+) ... (+) N e_{c_r}: the generator of summand
    t runs through the basis rows of N e_{c_t}, the others go to zero, in one
    block per summand; any other M goes through ``_hom_generic``."""
    if m.proj is None:
        return _hom_generic(m, n)
    A = m.algebra
    blocks, off = [], 0
    for pos in m.proj:
        y = n.idempotent_image(pos)
        if y.rows:
            if pos not in n._walks:
                n._walks[pos] = _walked(A, pos, y, n)
            blocks.append((off, n._walks[pos]))
        off += len(A.projective_rows(pos))
    return HomBasis(m, n, blocks)


def _walked(A, pos: int, ys: ExactMatrix, n: Module) -> ExactMatrix:
    """ys . b for each row of ys and the basis b of e_cA (c at pos), one walk
    along the words: row i holds the images of row i of ys side by side."""
    return stack_cols(A.field, n.walk(ys, A.projective_rows(pos)))


def map_from_generators(p: Module, n: Module, images) -> ModuleMorphism:
    """The map out of a ``proj`` module P that sends the generator e_{c_t} of
    summand t to ``images[t]``, a row of N e_{c_t} (None stands for zero):
    the basis element b of e_{c_t}A goes to images[t] . b.  The images of
    the summands at one vertex are stacked and walked along the words of
    e_cA together."""
    A = p.algebra
    starts, groups, off = [], {}, 0
    for t, (pos, y) in enumerate(zip(p.proj, images)):
        starts.append(off)
        off += len(A.projective_rows(pos))
        if y is not None:
            groups.setdefault(pos, []).append(t)
    parts = []
    for pos, ts in groups.items():
        width = len(A.projective_rows(pos))
        block = _walked(A, pos, stack_rows(A.field, [images[t] for t in ts]), n)
        rows = [starts[t] + r for t in ts for r in range(width)]
        parts.append((rows, 0, block.reshape(len(rows), n.dim)))
    return ModuleMorphism(p, n, place(A.field, (p.dim, n.dim), parts))


def _hom_generic(m: Module, n: Module) -> HomBasis:
    """Hom(M, N) as the null space of the Kronecker system X a_M = a_N X
    over the generators: the canonical RREF basis of the flattened maps,
    one block at offset 0."""
    A, fld = m.algebra, m.algebra.field
    if m.dim == 0 or n.dim == 0:
        return HomBasis(m, n, [])
    size = m.dim * n.dim
    check_memory(fld, len(A.generators) * size * size,
                 f"the {len(A.generators) * size} x {size} entries of the "
                 f"Kronecker system of a hom space")
    eye_m, eye_n = (ExactMatrix.identity(fld, d) for d in (m.dim, n.dim))
    null = left_kernel(stack_cols(fld, [
        m.stack.block(t).T.kron(eye_n) - eye_m.kron(n.stack.block(t))
        for t in range(len(A.generators))]))
    return HomBasis(m, n, [(0, null)] if null.rows else [])


def hom_system(bases, equations):
    """(matrix, rhs row) of the unknown maps X_j = sum_i c_{j,i} H_{j,i},
    H_j = bases[j], under ``equations`` (terms, rhs, source): sum L X_j R =
    rhs over the terms (j, L, R), L or R None for an identity, each unknown
    in at most one term.  Rows follow the basis elements, columns the
    entries of each equation: x @ matrix = rhs row iff x is a solution.
    The matrix is a one-matrix ``SparseStack`` of the nonzeros of the block
    products, which are made one at a time.

    With a ``source`` module all terms are module maps out of it, compared
    at its generators (``on_generators``): the equations at x . a are those
    at x carried by a, so the augmented system keeps its row space, hence
    its RREF, ``solve_left`` solution and ``left_kernel``.  For a block
    (off, W), L H_i R is L[:, off:off+w] W_i R: W R once per vertex, then one
    batched product with the cuts of L at the summands sharing W."""
    fld = bases[0].source.algebra.field

    def at(src, mat):
        return mat if src is None else on_generators(src, mat)

    eqs = [([(j, at(src, ExactMatrix.identity(fld, bases[j].source.dim)
                    if lft is None else lft), rgt) for j, lft, rgt in terms],
            at(src, rhs)) for terms, rhs, src in equations]
    starts = list(accumulate([len(b) for b in bases], initial=0))
    cols = list(accumulate([rhs.rows * rhs.cols for _, rhs in eqs], initial=0))
    # a term's unknowns times its equation's entries bound its block
    # products and the nonzeros kept of them (key and value); the solve
    # writes at most min(C, U + 1) reduced rows of U + 1 entries
    u, c = starts[-1], cols[-1]
    blocks = [(starts[j + 1] - starts[j]) * (hi - lo) for (terms, _), lo, hi
              in zip(eqs, cols, cols[1:]) for j, _, _ in terms]
    stored, reduced = sum(blocks), min(c, u + 1) * (u + 1)
    check_memory(fld, 2 * stored + max(blocks, default=0) + reduced,
                 f"the {u} x {c} hom system's {stored} stored nonzeros, "
                 f"largest block product and {reduced} reduced entries")

    def parts():
        for (terms, _), col in zip(eqs, cols):
            for j, lft, rgt in terms:
                basis = bases[j]
                if basis.left is not None:
                    lft = lft @ basis.left
                for w, places in basis.groups:
                    width = w.cols // basis.target.dim
                    walked = w.reshape(w.rows * width, basis.target.dim)
                    cuts = stack_rows(fld, [
                        lft.take_cols(range(off, off + width))
                        for _, off in places])
                    prod = left_products(cuts, walked if rgt is None else
                                         walked @ rgt, w.rows)
                    # row i of block s is basis element i of the summand at s
                    rows = [starts[j] + row + i for i in range(w.rows)
                            for row, _ in places]
                    yield rows, col, prod

    return (SparseStack.placed(fld, (u, c), parts()),
            stack_cols(fld, [rhs.reshape(1, rhs.rows * rhs.cols)
                             for _, rhs in eqs]))


def solve_homs(bases, equations):
    """The X_j of the pinned solution of ``hom_system``, or None."""
    big, rhs = hom_system(bases, equations)
    if not big.rows:
        return (combine_all(bases, ExactMatrix.zeros(big.field, 1, 0))
                if rhs.is_zero() else None)
    sol = solve_left(big, rhs)
    return None if sol is None else combine_all(bases, sol)


def combine_all(bases, coeffs: ExactMatrix) -> list[ModuleMorphism]:
    """The maps sum_i c_{j,i} H_{j,i} for the coefficient row ``coeffs``,
    the coefficients of each basis in turn."""
    ends = list(accumulate([len(b) for b in bases], initial=0))
    return [b.combine(coeffs.take_cols(range(lo, hi)))
            for b, lo, hi in zip(bases, ends, ends[1:])]


def random_hom(rng: random.Random, basis: HomBasis) -> ModuleMorphism:
    """Seeded random element of a hom space: one draw per basis element, in
    basis order."""
    fld = basis.source.algebra.field
    return basis.combine(ExactMatrix(fld, [[fld.random(rng)
                                            for _ in range(len(basis))]]))


# -- isomorphism testing -------------------------------------------------------

# seeded draws tried after the hom basis; they fix which witness is reported
ISO_DRAWS = 1000


def top_multiplicities(m: Module):
    """Multiplicity of each simple in M / M.rad, with lifted generator rows.

    Returns a list of (idempotent position, row vector in M) in a fixed
    deterministic order.  It is kept on the algebra per module contents
    (``Module.digest``), so modules with equal contents share it.
    """
    kept = m.algebra.tops
    key = m.digest()
    if key not in kept:
        kept[key] = _tops(m)
    return list(kept[key])


def radical_rows(m: Module) -> ExactMatrix:
    """Basis rows of M.rad.  The word of every basis element of the radical
    ends in a generator that is not an idempotent (an arrow of A; a (x) e_j
    or e_i (x) a over A^e), so M.rad is spanned by the M.g over those
    generators: the row space of their matrices of the stack, eliminated
    from its nonzeros."""
    idempotents = set(m.algebra.idempotents)
    return row_space(m.stack.take([t for t, g in enumerate(m.algebra.generators)
                                   if g not in idempotents]))


def _tops(m: Module):
    A = m.algebra
    fld = A.field
    if m.dim == 0:
        return []
    rad = radical_rows(m)
    out = []
    for pos in range(len(A.idempotents)):
        comp = m.idempotent_image(pos)
        if comp.rows == 0:
            continue
        rad_comp = row_space(m.times(rad, A.idempotents[pos])) if rad.rows \
            else ExactMatrix.zeros(fld, 0, m.dim)
        reduced = reduce_rows_mod(rad_comp, comp) if rad_comp.rows else comp
        lifts = row_space(reduced)
        # lift back: rows of `lifts` are inside M e_pos but reduced mod rad
        for r in range(lifts.rows):
            out.append((pos, lifts.take_rows([r])))
    return out


def on_generators(m: Module, mat: ExactMatrix) -> ExactMatrix:
    """The rows of a map out of m at a generating set of m: the summand
    generators of a ``proj`` module, else the lifted top rows of
    ``top_multiplicities``, both kept on m.  Maps out of m agree iff they
    agree there."""
    gens = m._generating
    if gens is None:
        A = m.algebra
        if m.proj is not None:
            gens, off = [], 0
            for pos in m.proj:
                rows = A.projective_rows(pos)
                gens.append(off + rows.index(A.idempotents[pos]))
                off += len(rows)
        else:
            tops = top_multiplicities(m)
            gens = stack_rows(A.field, [row for _, row in tops]) if tops else []
        m._generating = gens
    return mat.take_rows(gens) if isinstance(gens, list) else gens @ mat


def cover_from_tops(m: Module, tops) -> ModuleMorphism:
    """The map P -> M, P the standard projective on the top vertices, that
    sends each summand generator to its lifted top row (onto by Nakayama)."""
    P = standard_projective(m.algebra, [pos for pos, _ in tops])
    return map_from_generators(P, m, [gen for _, gen in tops])


def _is_projective(m: Module, tops) -> bool:
    """M is projective iff its cover P -> M (onto) has dim P = dim M."""
    A = m.algebra
    return m.dim == sum(len(A.projective_rows(pos)) for pos, _ in tops)


def _hom_through_cover(m: Module, n: Module, cover: ModuleMorphism):
    """Basis of Hom(M, N) for a projective M with cover isomorphism
    cover: P -> M.  A ``proj`` module keeps the basis of ``hom_space``;
    otherwise Hom(P, N) is transported to cover^-1 . h and brought to the
    canonical RREF basis of ``_hom_generic(m, n)``: the row space of the
    hom system of X = 0, whose rows are the flattened maps."""
    if m.proj is not None:
        return hom_space(m, n)
    moved = HomBasis(m, n, hom_space(cover.source, n).blocks,
                     cover.matrix.inv())
    if not len(moved):
        return moved
    zero = ExactMatrix.zeros(m.algebra.field, m.dim, n.dim)
    flat, _ = hom_system([moved], [([(0, None, None)], zero, None)])
    return HomBasis(m, n, [(0, row_space(flat))])


def _first_invertible(homs: HomBasis, seed: int):
    """The first invertible element of the hom basis, else of ``ISO_DRAWS``
    seeded random combinations, else None."""
    for h in homs:
        if h.matrix.is_invertible():
            return h
    rng = random.Random(seed)
    for _ in range(ISO_DRAWS):
        cand = random_hom(rng, homs)
        if cand.matrix.is_invertible():
            return cand
    return None


def iso_test(m: Module, n: Module, seed: int = 0xC0FFEE):
    """An invertible intertwiner M -> N, or None when none exists.

    Decided exactly by dimensions and tops when one side is projective or
    semisimple; for a basic algebra M and N are then isomorphic iff they
    have the same dimension and the same top (Auslander-Reiten-Smalo,
    ch. I).
    - Projective side (its dimension is that of the projective cover of its
      top): the witness is the first invertible element of the hom basis or
      of the seeded draws, else the cover isomorphism pi_M^-1 . pi_N.
    - Semisimple side (M.rad A = 0, so the top rows are a basis): the
      witness maps the top rows of M onto those of N.
    Any other pair is outside the contract and raises LinearAlgebraError.
    """
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return identity_morphism(m)
    tops_m, tops_n = top_multiplicities(m), top_multiplicities(n)
    projective = _is_projective(m, tops_m) or _is_projective(n, tops_n)
    if not projective and len(tops_m) < m.dim and len(tops_n) < n.dim:
        raise LinearAlgebraError("iso_test needs a projective or semisimple side")
    if [pos for pos, _ in tops_m] != [pos for pos, _ in tops_n]:
        return None
    if projective:
        # same top and dimension: both covers are isomorphisms from one P
        cover_m = cover_from_tops(m, tops_m)
        homs = _hom_through_cover(m, n, cover_m)
        found = _first_invertible(homs, seed)
        if found is not None:
            return found
        cover_n = cover_from_tops(n, tops_n)
        return ModuleMorphism(m, n, cover_m.matrix.inv() @ cover_n.matrix)
    fld = m.algebra.field
    rows_m = stack_rows(fld, [row for _, row in tops_m])
    rows_n = stack_rows(fld, [row for _, row in tops_n])
    return ModuleMorphism(m, n, rows_m.inv() @ rows_n)


# -- tensor functor ------------------------------------------------------------


@dataclass
class TensorData:
    """M (x)_A B in idempotent-block coordinates: the quotient of
    (+)_v (M e_v (x) e_v B) by the arrow bilinearity rows."""

    module: Module
    base: BasicAlgebra
    m_rows: list[ExactMatrix]
    b_rows: list[ExactMatrix]
    offsets: list[int]
    project: ExactMatrix
    lift: ExactMatrix
    source: Module
    bimodule: Module


def _tensor_side(x: Module, algebra: BasicAlgebra, left: bool):
    """What ``tensor_module`` needs of one factor: (rows, arrows, other).

    For the right factor B (``left``): rows[v] is the canonical basis of
    e_v B, arrows[g] for g: u -> w the coordinates of g . rows[w] in rows[u],
    and other[x][v] those of rows[v] . x for each generator x.  For the left
    factor M: rows[v] is the basis of M e_v, arrows[g] the coordinates of
    rows[u] . g in rows[w], and other[x][v] those of x . rows[v] when M is a
    bimodule (None for a plain module)."""
    near, far = ((bim_left_action, bim_right_action) if left
                 else (right_action_over, bim_left_action))
    rows = [row_space(near(x, algebra, e)) for e in algebra.idempotents]
    arrows = {}
    for g in algebra.generators:
        if g not in algebra.idempotents:
            u, w = algebra.left_unit_of[g], algebra.right_unit_of[g]
            src, dst = (w, u) if left else (u, w)
            arrows[g] = _coords_in(rows[dst], rows[src] @ near(x, algebra, g))
    other = None
    if left or x.algebra is not algebra:
        other = {y: [_coords_in(r, r @ far(x, algebra, y)) for r in rows]
                 for y in algebra.generators}
    return rows, arrows, other


def tensor_module(m: Module, b: Module, algebra: BasicAlgebra) -> TensorData:
    """M (x)_A B for a right A-module (or bimodule) M and an A-bimodule B.

    When M is a bimodule the result carries the bimodule structure (left
    action from M, right action from B).
    """
    fld = algebra.field
    m_rows, m_arrows, m_other = _tensor_side(m, algebra, left=False)
    b_rows, b_arrows, b_other = _tensor_side(b, algebra, left=True)
    dims = [(rm.rows, rb.rows) for rm, rb in zip(m_rows, b_rows)]
    offsets = [0]
    for rm, rb in dims:
        offsets.append(offsets[-1] + rm * rb)
    big_dim = offsets[-1]

    # bilinearity of each arrow g: u -> w, (m . g) (x) y = m (x) (g . y):
    # kron(mg, I) in block w minus kron(I, gy) in block u, rows ordered by
    # (basis row of M e_u, basis row of e_w B)
    rel_blocks = []
    for g, mg_c in m_arrows.items():
        u, w = algebra.left_unit_of[g], algebra.right_unit_of[g]
        (rm_u, _), (_, rb_w) = dims[u], dims[w]
        if rm_u == 0 or rb_w == 0:
            continue
        eye_b, eye_m = (ExactMatrix.identity(fld, k) for k in (rb_w, rm_u))
        shape = (rm_u * rb_w, big_dim)
        rel_blocks.append(
            place(fld, shape, [(0, offsets[w], mg_c.kron(eye_b))])
            - place(fld, shape, [(0, offsets[u], eye_m.kron(b_arrows[g]))]))

    live = [v for v, (rm, rb) in enumerate(dims) if rm and rb]

    def big_matrix(block) -> ExactMatrix:
        return place(fld, (big_dim, big_dim),
                     [(offsets[v], offsets[v], block(v)) for v in live])

    big_action = {}
    if m_other is not None:
        # the generator b_i (x) b_j of A^e acts on m (x) y as b_i m (x) y b_j
        for k in m.algebra.generators:
            i, j = divmod(k, algebra.dim)
            big_action[k] = big_matrix(
                lambda v: m_other[i][v].kron(b_other[j][v]))
    else:
        eyes = [ExactMatrix.identity(fld, rm) for rm, _ in dims]
        for g in algebra.generators:
            big_action[g] = big_matrix(lambda v: eyes[v].kron(b_other[g][v]))
    big_module = Module(m.algebra if m_other is not None else algebra,
                        big_dim, big_action)

    rel = (stack_rows(fld, rel_blocks) if rel_blocks
           else ExactMatrix.zeros(fld, 0, big_dim))
    q, proj, lift = quotient(big_module, rel)
    return TensorData(q, algebra, m_rows, b_rows, offsets, proj.matrix, lift, m, b)


def _coords_in(basis: ExactMatrix, vecs: ExactMatrix) -> ExactMatrix:
    """Coordinates of rows of vecs in a basis (rows must lie in its span)."""
    coords = solve_left(basis, vecs)
    if coords is None:
        raise LinearAlgebraError("vectors not inside the designated space")
    return coords
