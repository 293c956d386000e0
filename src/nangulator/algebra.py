"""Finite-dimensional basic algebras: normal-form bases, structure constants,
self-injectivity, automorphisms, opposite and enveloping algebras.

A BasicAlgebra is stored uniformly (basis, right-multiplication matrices,
idempotent bookkeeping, and the generator word of every basis element)
whether it came from a quiver presentation or from taking the opposite.
Paths compose left to right (p.q means traverse p, then q) and all modules in
the package are right modules.  A module stores the action of the
generators only (the idempotents and the arrows); the word of a basis
element says which product of generator actions gives its action.

The enveloping algebra A^e = A^op (x) A is index bookkeeping over A
(``EnvelopingAlgebra``): it never forms its d^2 structure matrices of size
d^2 x d^2.  Its generators are e_i (x) e_j, a (x) e_j and e_i (x) a for the
vertices i, j and arrows a, and b_k (x) b_l is the word of b_k over A^op
followed by that of b_l over A.  It keeps, per vertex, the sparse blocks of
A's generators acting on A e_u and on e_v A, from which every projective
A e_u (x) e_v A is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import (
    ExactMatrix,
    FieldSpec,
    SparseStack,
    first_unequal_block,
    left_kernel,
    left_products,
    row_space,
    stack_cols,
    stack_rows,
    unequal_entries,
)
from .quiver import AlgebraDescription, Quiver, SemanticError


class NotFiniteDimensionalError(ValueError):
    pass


class NotSelfInjectiveError(ValueError):
    def __init__(self, message, witness_vertex=None):
        self.witness_vertex = witness_vertex
        super().__init__(message)


class AutomorphismError(ValueError):
    pass


@dataclass
class BasicAlgebra:
    """A finite-dimensional algebra with a distinguished idempotent-adapted basis.

    right_mult[j] is the matrix of right multiplication by basis element j:
    row i holds the coordinates of b_i * b_j.  left_unit_of / right_unit_of
    give, for each basis element, the position of the idempotent acting as
    identity on that side; for a path algebra these are source and target.
    """

    field: FieldSpec
    labels: list[str]
    right_mult: list[ExactMatrix]
    idempotents: list[int]          # basis indices of the trivial idempotents
    left_unit_of: list[int]         # idempotent position (not basis index)
    right_unit_of: list[int]
    radical: list[int]              # basis indices spanning the radical
    radical_right_generators: list[int]  # right-ideal generators of the radical
    generators: list[int]           # algebra generators (idempotents + arrows)
    name: str = ""
    quiver: Quiver | None = None
    basis_paths: list | None = None  # for quiver algebras
    nilpotency: int | None = None
    # words[k]: generators whose product, left to right, is b_k
    words: list | None = dc_field(default=None, repr=False)
    _left_mult: list | None = dc_field(default=None, repr=False)
    _opposite: object = dc_field(default=None, repr=False)
    _enveloping: object = dc_field(default=None, repr=False)
    _projective_rows: list | None = dc_field(default=None, init=False,
                                             repr=False, compare=False)
    _tables: tuple | None = dc_field(default=None, init=False, repr=False,
                                     compare=False)
    # left -> ``mult_stack(left)``
    _stacks: dict = dc_field(default_factory=dict, init=False, repr=False,
                             compare=False)
    # vertex position -> indecomposable projective, kept by
    # modules.projective_module
    projectives: dict = dc_field(default_factory=dict, init=False,
                                 repr=False, compare=False)
    # vertex lists -> standard projectives, kept by modules.standard_projective
    standard_projectives: dict = dc_field(default_factory=dict, init=False,
                                          repr=False, compare=False)
    # Module.digest() -> tops, kept by modules.top_multiplicities
    tops: dict = dc_field(default_factory=dict, init=False, repr=False,
                          compare=False)
    # generator -> its place in ``generators``, as on EnvelopingAlgebra
    position: dict = dc_field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        self.position = {g: t for t, g in enumerate(self.generators)}

    @property
    def dim(self) -> int:
        return len(self.labels)

    def unit(self) -> ExactMatrix:
        idempotents = set(self.idempotents)
        return ExactMatrix(self.field, [[int(k in idempotents)
                                         for k in range(self.dim)]])

    def mult_tables(self) -> tuple[ExactMatrix, ExactMatrix]:
        """(V, H), built once: row t of V is the right multiplication matrix
        of b_t and row i of H the left multiplication matrix of b_i, each
        flattened.  For an element x, x @ V and x @ H are its right and
        left multiplication matrices, flattened."""
        if self._tables is None:
            d = self.dim
            right = stack_rows(self.field, [m.reshape(1, d * d)
                                            for m in self.right_mult])
            self._tables = (right, _swap_blocks(right, d))
        return self._tables

    def left_mult(self, i: int) -> ExactMatrix:
        """Matrix of left multiplication by basis element i (row j = b_i b_j)."""
        if self._left_mult is None:
            left = self.mult_tables()[1]
            self._left_mult = [left.row(i).reshape(self.dim, self.dim)
                               for i in range(self.dim)]
        return self._left_mult[i]

    def word(self, k: int) -> tuple[int, ...]:
        """The generators whose product, left to right, is basis element k."""
        return self.words[k]

    def projective_rows(self, pos: int) -> list[int]:
        """The basis elements that span e A for the idempotent at pos,
        listed once per algebra; callers must not change the list."""
        if self._projective_rows is None:
            self._projective_rows = [
                [k for k in range(self.dim) if self.left_unit_of[k] == v]
                for v in range(len(self.idempotents))]
        return self._projective_rows[pos]

    def multiply(self, x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
        """Product of elements given as coordinate row vectors."""
        return x @ self.element_right_matrix(y)

    def element_right_matrix(self, x: ExactMatrix) -> ExactMatrix:
        """Right multiplication matrix of an arbitrary element x (row vector):
        row i is b_i . x = sum_j x_j b_i b_j."""
        return (x @ self.mult_tables()[0]).reshape(self.dim, self.dim)

    def element_left_matrix(self, x: ExactMatrix) -> ExactMatrix:
        """Left multiplication matrix of x: u @ L(x) = x . u; row j is
        x . b_j = sum_i x_i b_i b_j."""
        return (x @ self.mult_tables()[1]).reshape(self.dim, self.dim)

    def mult_stack(self, left: bool) -> SparseStack:
        """The left (``left``) or right multiplication matrices of all basis
        elements, in index order, as one sparse stack, kept."""
        hit = self._stacks.get(left)
        if hit is None:
            d = self.dim
            table = self.mult_tables()[1 if left else 0]
            hit = self._stacks[left] = SparseStack.from_matrix(
                table.reshape(d * d, d), d)
        return hit

    def verify_associativity(self) -> None:
        """Associativity on all basis triples, checked at the generators
        g (the idempotents and arrows): (z x) g = z (x g) for all basis
        elements z and x, that is L_z R_g = R_g L_z for the left and right
        multiplication matrices, and b_k = b_{k'} b_a for each basis
        element whose word is that of k' followed by a.  Then each b_y is
        the product along its word, and for y = y' a, by induction on the
        length of the word, z (x y) = z ((x y') a) = (z (x y')) a =
        ((z x) y') a = (z x) y.  The products run through the nonzeros of
        the generators' matrices."""
        gens, d = self.generators, self.dim
        left = self.mult_stack(True)
        right = self.mult_stack(False).take(gens)
        pairs = ([z for z in range(d) for _ in gens], list(range(len(gens))) * d)
        bad = first_unequal_block(SparseStack.products(pairs, left, right),
                                  SparseStack.products(pairs[::-1], right, left))
        if bad is not None:
            z, t = divmod(bad, len(gens))
            raise SemanticError(f"associativity fails at basis element {z} "
                                f"and generator {gens[t]}")
        index = {w: k for k, w in enumerate(self.words)}
        steps = []
        for k, w in enumerate(self.words):
            if w == (k,) and k in self.position:
                continue
            head = index.get(w[:-1])
            if len(w) == 1 or head is None or w[-1] not in self.position:
                raise SemanticError(
                    f"associativity fails at basis element {k}: its word "
                    f"{w} is not a basis word followed by a generator")
            steps.append((k, head, w[-1]))
        # row k' of R_a, read off the right table, must be e_k
        got = self.mult_tables()[0].reshape(d * d, d).take_rows(
            [a * d + head for _, head, a in steps])
        want = ExactMatrix.identity(self.field, d).take_rows(
            [k for k, _, _ in steps])
        bad = unequal_entries(got, want).any(axis=1)
        if bad.any():
            raise SemanticError(
                f"associativity fails at basis element "
                f"{steps[int(bad.argmax())][0]}: it is not the product along "
                f"its word")

    def verify_idempotents(self) -> None:
        eye = ExactMatrix.identity(self.field, self.dim)
        zero = ExactMatrix.zeros(self.field, 1, self.dim)
        for i in self.idempotents:
            for j in self.idempotents:
                expect = eye.row(i) if i == j else zero
                if self.right_mult[j].row(i) != expect:
                    raise SemanticError("trivial idempotents are not orthogonal")

    # -- derived algebras ---------------------------------------------------
    def opposite(self) -> "BasicAlgebra":
        """The opposite algebra, sharing the basis with reversed products."""
        if self._opposite is None:
            op = BasicAlgebra(
                field=self.field,
                labels=[f"{l}^op" for l in self.labels],
                right_mult=[self.left_mult(i) for i in range(self.dim)],
                idempotents=list(self.idempotents),
                left_unit_of=list(self.right_unit_of),
                right_unit_of=list(self.left_unit_of),
                radical=list(self.radical),
                radical_right_generators=list(self.radical_right_generators),
                generators=list(self.generators),
                name=f"{self.name}^op",
                words=[w[::-1] for w in self.words] if self.words else None,
            )
            op._opposite = self
            self._opposite = op
        return self._opposite

    def enveloping(self) -> "EnvelopingAlgebra":
        """A^e = A^op (x) A with (a (x) b)(a' (x) b') = (a'a) (x) (bb')."""
        if self._enveloping is None:
            self._enveloping = EnvelopingAlgebra(self)
        return self._enveloping

    def envelope_index(self, i: int, j: int) -> int:
        return i * self.dim + j


class EnvelopingAlgebra:
    """A^e = A^op (x) A as index bookkeeping over A: basis element k*d + l
    is b_k (x) b_l, and nothing of size d^2 x d^2 is stored.

    ``right_mult`` is empty: a module over A^e acts through the generators
    e_i (x) e_j, a (x) e_j and e_i (x) a, and a projective e A^e =
    A e_u (x) e_v A is built from A's own multiplication blocks
    (``factor_blocks``).  ``position`` gives the place of each generator in
    ``generators``, and ``pairs`` the places in A's generators of the two
    factors of each generator.
    """

    def __init__(self, base: BasicAlgebra):
        d = base.dim
        idem = base.idempotents
        arrows = [g for g in base.generators if g not in idem]
        self.base = base
        self.field = base.field
        self.name = f"{base.name}^e"
        self.dim = d * d
        self.right_mult = ()
        self.idempotents = [i * d + j for i in idem for j in idem]
        self.radical_right_generators = (
            [a * d + e for a in arrows for e in idem]
            + [e * d + a for e in idem for a in arrows])
        self.generators = self.idempotents + self.radical_right_generators
        self.position = {g: t for t, g in enumerate(self.generators)}
        place = {g: t for t, g in enumerate(base.generators)}
        self.pairs = tuple([place[g // d if side else g % d]
                            for g in self.generators] for side in (True, False))
        self._factors: dict[int, tuple[list[int], list[int]]] = {}
        self._blocks: dict[tuple[int, bool], SparseStack] = {}
        self._rows: dict[int, list[int]] = {}
        # Module.digest() -> tops, kept by modules.top_multiplicities
        self.tops: dict[bytes, list] = {}

    def word(self, k: int) -> tuple[int, ...]:
        """b_k (x) b_l = (b_k (x) e_v)(e_u (x) b_l) with e_u b_k = b_k and
        e_v b_l = b_l: the arrows of b_k in reverse, each tensored with
        e_v, then e_u tensored with the arrows of b_l; e_u (x) e_v itself
        when both are trivial."""
        A = self.base
        d = A.dim
        i, j = divmod(k, d)
        triv = A.idempotents
        e_u = triv[A.left_unit_of[i]]
        e_v = triv[A.left_unit_of[j]]
        left = [g * d + e_v for g in A.word(i)[::-1] if g not in triv]
        right = [e_u * d + g for g in A.word(j) if g not in triv]
        return tuple(left + right) or (k,)

    def projective_factors(self, pos: int) -> tuple[list[int], list[int]]:
        """The bases of A e_u and e_v A in A, for e = e_u (x) e_v at
        position pos = u * #vertices + v, listed once; callers must not
        change the lists."""
        hit = self._factors.get(pos)
        if hit is None:
            A = self.base
            u, v = divmod(pos, len(A.idempotents))
            hit = self._factors[pos] = (
                [k for k in range(A.dim) if A.right_unit_of[k] == u],
                A.projective_rows(v))
        return hit

    def factor_blocks(self, vertex: int, left: bool) -> SparseStack:
        """A's generators acting on A e_u by left multiplication (``left``,
        u = vertex) or on e_v A by right multiplication (v = vertex), each
        restricted to that basis (``projective_factors``): one sparse block
        per generator of A, in order, kept per vertex and side."""
        hit = self._blocks.get((vertex, left))
        if hit is None:
            A = self.base
            d, count = A.dim, len(A.generators)
            pos = vertex * len(A.idempotents) if left else vertex
            basis = self.projective_factors(pos)[0 if left else 1]
            table = A.mult_tables()[1 if left else 0]
            blocks = table.take_rows(A.generators).reshape(count * d, d)
            hit = self._blocks[(vertex, left)] = SparseStack.from_matrix(
                blocks.take_rows([g * d + k for g in range(count)
                                  for k in basis]).take_cols(basis), count)
        return hit

    def projective_nonzeros(self, pos: int) -> int:
        """The nonzero entries of the generator actions of e A^e, e at
        position pos: the products of the factor blocks' nonzeros."""
        n = len(self.base.idempotents)
        u, v = divmod(pos, n)
        left = self.factor_blocks(u, True).sizes()[self.pairs[0]]
        right = self.factor_blocks(v, False).sizes()[self.pairs[1]]
        return int((left * right).sum())

    def projective_rows(self, pos: int) -> list[int]:
        """The basis of e A^e = A e_u (x) e_v A, in index order, listed once;
        callers must not change the list."""
        hit = self._rows.get(pos)
        if hit is None:
            left, right = self.projective_factors(pos)
            hit = self._rows[pos] = [k * self.base.dim + l
                                     for k in left for l in right]
        return hit


@dataclass(frozen=True)
class NakayamaData:
    """Socle permutation of a basic self-injective algebra."""

    permutation: tuple[int, ...]   # vertex position -> vertex position
    socle_vectors: tuple           # one socle generator row per projective

    def nu_inverse(self, i: int) -> int:
        return self.permutation.index(i)


@dataclass
class Automorphism:
    """An algebra automorphism by its basis matrix (row i = image of b_i)."""

    algebra: BasicAlgebra
    matrix: ExactMatrix

    def apply(self, x: ExactMatrix) -> ExactMatrix:
        return x @ self.matrix

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self followed by other: x -> other(self(x))."""
        return Automorphism(self.algebra, self.matrix @ other.matrix)

    def inverse(self) -> "Automorphism":
        return Automorphism(self.algebra, self.matrix.inv())

    def power(self, k: int) -> "Automorphism":
        n = self.algebra.dim
        if k < 0:
            return self.inverse().power(-k)
        acc = ExactMatrix.identity(self.algebra.field, n)
        base = self.matrix
        while k:
            if k & 1:
                acc = acc @ base
            base = base @ base
            k >>= 1
        return Automorphism(self.algebra, acc)

    def is_identity(self) -> bool:
        return self.matrix == ExactMatrix.identity(
            self.algebra.field, self.algebra.dim
        )

    def matrix_order(self, bound: int = 64) -> int | None:
        acc = self
        for k in range(1, bound + 1):
            if acc.is_identity():
                return k
            acc = acc.compose(self)
        return None

    def vertex_action(self) -> list[int] | None:
        """The induced permutation of vertices: sigma(e_i) is a primitive
        idempotent congruent to exactly one e_j modulo the radical."""
        A = self.algebra
        a = self.matrix.a
        out = []
        for i in A.idempotents:
            row = a[i]
            hits = [q for q, j in enumerate(A.idempotents) if row[j] != 0]
            if len(hits) != 1 or row[A.idempotents[hits[0]]] != 1:
                return None
            out.append(hits[0])
        if sorted(out) != list(range(len(A.idempotents))):
            return None
        return out


def identity_automorphism(algebra: BasicAlgebra) -> Automorphism:
    return Automorphism(algebra, ExactMatrix.identity(algebra.field, algebra.dim))


def verify_automorphism(algebra: BasicAlgebra, matrix: ExactMatrix) -> Automorphism:
    """Accept a matrix as an automorphism iff it is invertible, unital and
    multiplicative at the generators: sigma(x g) = sigma(x) sigma(g) for
    every basis element x and generator g; errors name the failing
    property.  That is enough, as A is associative and each b_k is the
    product along its word: for y = y' g, by induction on the length of
    the word, sigma(x y) = sigma((x y') g) = sigma(x y') sigma(g) =
    sigma(x) sigma(y') sigma(g) = sigma(x) sigma(y)."""
    if matrix.shape != (algebra.dim, algebra.dim):
        raise AutomorphismError(
            f"matrix must be {algebra.dim} x {algebra.dim}, got {matrix.shape}"
        )
    if not matrix.is_invertible():
        raise AutomorphismError("not-invertible: matrix is singular")
    unit = algebra.unit()
    if unit @ matrix != unit:
        raise AutomorphismError("not-unital: sigma(1) != 1")
    # row t d + x of lhs is sigma(b_x g_t), of rhs sigma(b_x) sigma(g_t):
    # block t of rhs is matrix @ the right multiplication of sigma(g_t)
    gens, d = algebra.generators, algebra.dim
    right = algebra.mult_tables()[0]
    lhs = right.take_rows(gens).reshape(len(gens) * d, d) @ matrix
    rhs = left_products(matrix, (matrix.take_rows(gens) @ right).reshape(
        len(gens) * d, d), len(gens))
    bad = unequal_entries(lhs, rhs).any(axis=1)
    if bad.any():
        t, x = divmod(int(bad.argmax()), d)
        raise AutomorphismError(
            f"not-multiplicative on basis pair ({x}, {gens[t]})")
    return Automorphism(algebra, matrix)


# -- basis computation by degree-truncated path rewriting --------------------

# A path is a tuple of arrow indices; the trivial path at vertex v is the
# 1-tuple (("e", v),).  Helper predicates keep the two cases straight.


def _swap_blocks(m: ExactMatrix, d: int) -> ExactMatrix:
    """The d x d^2 matrix with the entry (i, k d + l) of m at (k, i d + l):
    the first two axes of m read as a d x d x d array, swapped."""
    order = [i * d + k for k in range(d) for i in range(d)]
    return m.reshape(d * d, d).take_rows(order).reshape(d, d * d)


def _is_trivial(path) -> bool:
    return len(path) == 1 and isinstance(path[0], tuple)


class _Rewriter:
    """Sparse reduced echelon of the relation ideal.  Pivots are the largest
    paths in length-lex order (on arrow names), so rewriting always replaces
    a path by strictly smaller ones."""

    def __init__(self, field: FieldSpec, name_key):
        self.field = field
        self._names = name_key
        self.rules: dict[tuple, dict] = {}  # pivot path -> tail {path: coeff}

    def key(self, path):
        return (len(path), self._names(path))

    def reduce(self, vec: dict) -> dict:
        out = {p: c for p, c in vec.items() if c != 0}
        while True:
            hit = None
            for path in sorted(out, key=self.key, reverse=True):
                if path in self.rules:
                    hit = path
                    break
            if hit is None:
                return out
            c = out.pop(hit)
            for q, cq in self.rules[hit].items():
                nv = self.field.canon(out.get(q, 0) + c * cq)
                if nv == 0:
                    out.pop(q, None)
                else:
                    out[q] = nv

    def insert(self, vec: dict) -> None:
        red = self.reduce(vec)
        if not red:
            return
        pivot = max(red, key=self.key)
        inv = self.field.inv(red[pivot])
        tail = {q: self.field.canon(-inv * c) for q, c in red.items() if q != pivot}
        self.rules[pivot] = tail
        for pv, t in self.rules.items():
            if pv != pivot and pivot in t:
                c = t.pop(pivot)
                for q, cq in tail.items():
                    nv = self.field.canon(t.get(q, 0) + c * cq)
                    if nv == 0:
                        t.pop(q, None)
                    else:
                        t[q] = nv


def compute_basis(desc: AlgebraDescription, degree_bound: int = 32) -> BasicAlgebra:
    """Normal-form path basis and structure constants of kQ/I.

    Path rewriting modulo the two-sided ideal, truncated by degree: paths are
    enumerated level by level and relation multiples are folded into a reduced
    echelon.  The first length with no surviving normal form certifies that
    the arrow ideal is nilpotent; without such a certificate up to the degree
    bound the computation aborts.
    """
    q = desc.quiver
    fld = desc.field
    n_vert = len(q.vertices)

    def path_source(path):
        head = path[0]
        return head[1] if isinstance(head, tuple) else q.arrows[head].source

    def path_target(path):
        tail = path[-1]
        return tail[1] if isinstance(tail, tuple) else q.arrows[tail].target

    def name_key(path):
        if _is_trivial(path):
            return (q.vertices[path[0][1]],)
        return tuple(q.arrows[i].name for i in path)

    rel_sparse = []
    for rel in desc.relations:
        vec = {}
        for c, path in rel.terms:
            vec[path] = fld.canon(vec.get(path, 0) + c)
        vec = {p: c for p, c in vec.items() if c != 0}
        if vec:
            rel_sparse.append(vec)

    level_paths: dict[int, list[tuple]] = {
        0: [(("e", v),) for v in range(n_vert)],
        1: [(i,) for i in range(len(q.arrows))],
    }
    rw = _Rewriter(fld, name_key)

    nilpotency = None
    L = 1
    while True:
        L += 1
        if L > degree_bound:
            raise NotFiniteDimensionalError(
                f"no nilpotency certificate up to degree bound {degree_bound}"
            )
        cur = []
        for p in level_paths[L - 1]:
            if _is_trivial(p):
                continue
            t = path_target(p)
            for ai in q.arrows_from(t):
                cur.append(p + (ai,))
        level_paths[L] = cur
        if not cur:
            nilpotency = L
            break
        for vec in rel_sparse:
            ml = max(len(p) for p in vec)
            for a in range(0, L - ml + 1):
                b = L - ml - a
                some = next(iter(vec))
                for u in level_paths[a]:
                    if path_target(u) != path_source(some):
                        continue
                    for v in level_paths[b]:
                        if path_source(v) != path_target(some):
                            continue
                        prod = {}
                        up = () if _is_trivial(u) else u
                        vp = () if _is_trivial(v) else v
                        for pth, c in vec.items():
                            prod[up + pth + vp] = c
                        rw.insert(prod)
        if all(p in rw.rules for p in cur):
            nilpotency = L
            break

    basis_paths = []
    for lvl in sorted(level_paths):
        if lvl >= nilpotency:
            continue
        lvl_nf = [p for p in level_paths[lvl] if p not in rw.rules]
        basis_paths.extend(sorted(lvl_nf, key=name_key))
    index = {p: i for i, p in enumerate(basis_paths)}
    dim = len(basis_paths)
    one = fld.canon(1)

    def reduce_arrow_path(path: tuple[int, ...]) -> dict:
        """Normal form of a pure arrow path (assumed composable)."""
        if len(path) <= nilpotency:
            return rw.reduce({path: one})
        acc = rw.reduce({path[:nilpotency]: one})
        for ai in path[nilpotency:]:
            nxt = {}
            for pth, c in acc.items():
                if _is_trivial(pth):
                    ext = (ai,) if pth[0][1] == q.arrows[ai].source else None
                else:
                    ext = pth + (ai,) if path_target(pth) == q.arrows[ai].source else None
                if ext is None:
                    continue
                for p2, c2 in reduce_arrow_path(ext).items():
                    nv = fld.canon(nxt.get(p2, 0) + c * c2)
                    if nv == 0:
                        nxt.pop(p2, None)
                    else:
                        nxt[p2] = nv
            acc = nxt
        return acc

    right_mult = []
    for j, pj in enumerate(basis_paths):
        mat = [[0] * dim for _ in range(dim)]
        for i, pi in enumerate(basis_paths):
            if path_target(pi) != path_source(pj):
                continue
            if _is_trivial(pi):
                mat[i][j] = one
                continue
            if _is_trivial(pj):
                mat[i][i] = one
                continue
            for pth, c in reduce_arrow_path(pi + pj).items():
                mat[i][index[pth]] = c
        right_mult.append(ExactMatrix(fld, mat))

    idem = [index[(("e", v),)] for v in range(n_vert)]
    lu = [path_source(p) for p in basis_paths]
    ru = [path_target(p) for p in basis_paths]
    rad = [i for i, p in enumerate(basis_paths) if not _is_trivial(p)]
    arrows_idx = [index[(ai,)] for ai in range(len(q.arrows)) if (ai,) in index]

    def label(p):
        if _is_trivial(p):
            return f"e_{q.vertices[p[0][1]]}"
        return "*".join(q.arrows[i].name for i in p)

    words = [(k,) if _is_trivial(p) else tuple(index[(ai,)] for ai in p)
             for k, p in enumerate(basis_paths)]
    alg = BasicAlgebra(
        field=fld,
        labels=[label(p) for p in basis_paths],
        right_mult=right_mult,
        idempotents=idem,
        left_unit_of=lu,
        right_unit_of=ru,
        radical=rad,
        radical_right_generators=arrows_idx,
        generators=idem + arrows_idx,
        name=desc.name,
        quiver=q,
        basis_paths=basis_paths,
        nilpotency=nilpotency,
        words=words,
    )
    alg.verify_idempotents()
    alg.verify_associativity()
    for vec in rel_sparse:
        acc = {}
        for pth, c in vec.items():
            for p2, c2 in reduce_arrow_path(pth).items():
                acc[p2] = fld.canon(acc.get(p2, 0) + c * c2)
        if any(c != 0 for c in acc.values()):
            raise SemanticError("relation does not reduce to zero (rewriting bug)")
    # certify nilpotency of the arrow ideal in the computed algebra; for
    # inhomogeneous relations the rewriting stop rule alone does not imply it
    alg.nilpotency = _verify_radical_nilpotent(alg, degree_bound)
    return alg


def _verify_radical_nilpotent(alg: BasicAlgebra, bound: int) -> int:
    """The least k with rad^k = 0, rad the arrow ideal: rad^{k+1} =
    rad^k rad = sum over the arrows a of rad^k a, since every path of
    positive length is a path times an arrow and rad^k is a right ideal."""
    if not alg.radical:
        return 1
    arrows = alg.mult_stack(False).take(alg.radical_right_generators)
    cur = row_space(ExactMatrix.identity(alg.field, alg.dim).take_rows(
        alg.radical))
    for k in range(1, bound + 2):
        if cur.rows == 0:
            return k
        nxt = row_space(arrows.left(cur))
        if nxt.rows == cur.rows:
            raise NotFiniteDimensionalError(
                "arrow ideal is not nilpotent (ideal not admissible)"
            )
        cur = nxt
    raise NotFiniteDimensionalError(
        f"no nilpotency certificate up to degree bound {bound}"
    )


def check_self_injective(algebra: BasicAlgebra) -> NakayamaData:
    """Compute soc(e_i A) for every vertex; succeed with the Nakayama
    permutation iff every socle is simple and socle types form a bijection."""
    from .modules import projective_module  # deferred: modules imports algebra

    n = len(algebra.idempotents)
    perm = []
    socle_vectors = []
    for pos in range(n):
        P = projective_module(algebra, pos)
        stacked = [P.stack.block(algebra.position[g])
                   for g in algebra.radical_right_generators]
        if stacked:
            soc = left_kernel(stack_cols(algebra.field, stacked))
        else:
            soc = ExactMatrix.identity(algebra.field, P.dim)
        if soc.rows != 1:
            raise NotSelfInjectiveError(
                f"projective at vertex {pos} has socle of dimension {soc.rows}",
                witness_vertex=pos,
            )
        vec = soc.take_rows([0])
        types = [t for t in range(n)
                 if not P.times(vec, algebra.idempotents[t]).is_zero()]
        if len(types) != 1:
            raise NotSelfInjectiveError(
                f"socle at vertex {pos} is not homogeneous", witness_vertex=pos
            )
        perm.append(types[0])
        socle_vectors.append(vec)
    if sorted(perm) != list(range(n)):
        raise NotSelfInjectiveError(f"socle assignment {perm} is not a permutation")
    return NakayamaData(permutation=tuple(perm), socle_vectors=tuple(socle_vectors))
