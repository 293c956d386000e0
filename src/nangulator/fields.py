"""Exact linear algebra over prime fields F_p and the rationals: dense
matrices, and sparse stacks of matrices.

A matrix stores one integer array ``n`` over one positive denominator ``d``.
Over F_p, ``n`` holds the canonical residues in an int64 array and d = 1;
over Q, ``n`` holds Python-int numerators in an object array and d is their
least common denominator, so (n, d) is in lowest terms and unique.  Every
operation runs one code path on (n, d) followed by one normalisation step,
reducing mod p or dividing out the gcd of d and the entries (``_new``);
a cut of the entries (rows, columns, views, reshapes) only divides out the
gcd (``_lowest``).  ``Fraction`` appears only at input (the constructor
and scalars) and output (``.a`` and ``tolist``).  Matrices are built from
other matrices by one placement primitive (``place``), of which
``stack_rows``, ``stack_cols`` and ``block_diag`` are cases.  Pivoting is
pinned (leftmost nonzero column, topmost nonzero row) so every downstream
construction is reproducible bit for bit.

Elimination is one Gauss-Jordan on sparse rows, ``{column: value}`` maps of
the nonzeros, for both fields: the matrices the program reduces are a few
hundred cells, or large and mostly zero (hom systems are 0.05-0.5 %
nonzero), read by their keys from a matrix or a sparse stack alike, and
transposed or augmented by key arithmetic, not by dense copies.  Over Q it
is fraction-free on integer rows, each divided by its content, dividing by
the pivots once at the end.  The RREF and its pivot columns are unique, so
the results are those of the pinned elimination in fraction arithmetic.

A matrix knows when it is reduced: the R that ``rref()`` returns and the
bases that ``row_space`` and ``left_kernel`` return carry their pivot
columns, and ``rref()`` on such a matrix returns it at once, with no
elimination.  Every other matrix, including one derived from a reduced
matrix (rows, transpose, products, sums, the constructor), starts
unreduced.

A ``SparseStack`` holds a stack of matrices of one shape by its nonzero
entries alone, as sorted (key, value) arrays over one denominator: the
generator actions of every module, over A or over its enveloping algebra,
which are almost all zero (0.05 % of the 89 M cells of the modules over A
that a Pi(D4) axiom suite builds, 0.05-0.8 % of a bimodule's).  It is
multiplied, summed, cut and eliminated through those entries, and formed
dense only one matrix at a time on request.  Most modules over A are small
(median dimension 5), where an operation costs its array calls more than
its arithmetic: so a stack keeps where each matrix starts and each entry's
row and column once computed (``starts``, ``cells``), and an operation
whose entries only move (a diagonal, a transpose, a cut) sorts them at
most once and skips the summing.  Hom systems are one-matrix stacks.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np


class LinearAlgebraError(ValueError):
    pass


class ResourceBoundExceeded(RuntimeError):
    pass


MEMORY_BOUND = 1 << 30     # bytes one dense array of the pipeline may take
FRACTION_BYTES = 48        # 8-byte pointer, Python int below 2^60 (<= 40 bytes)


def check_memory(field: FieldSpec, entries: int, what: str) -> None:
    """Refuse ``entries`` field entries, named by ``what``, above MEMORY_BOUND
    bytes: 8 per int64 entry, FRACTION_BYTES per rational entry."""
    estimate = entries * (8 if field.characteristic else FRACTION_BYTES)
    if estimate > MEMORY_BOUND:
        raise ResourceBoundExceeded(
            f"{what} need an estimated {estimate} bytes, above the bound of "
            f"{MEMORY_BOUND} bytes")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field: F_p for prime p < 2^16, or the rationals (p = 0).

    The bound keeps int64 arithmetic exact: (p - 1)^2 < 2^32, so an int64
    matmul could only overflow with an inner dimension above 2^31, which no
    matrix in memory reaches.  Rationals are stored as integer numerators
    over one denominator (see the module docstring).
    """

    characteristic: int = 0

    def __post_init__(self):
        if self.characteristic >= 1 << 16:
            raise LinearAlgebraError(
                f"characteristic {self.characteristic} is too large: prime "
                f"fields need p < 2^16 = 65536 so that int64 products stay exact"
            )
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise LinearAlgebraError(
                f"characteristic must be 0 or prime, got {self.characteristic}"
            )

    @property
    def kind(self) -> str:
        return "prime-field" if self.characteristic else "rationals"

    def canon(self, x):
        """Reduce a scalar to canonical form (residue in [0, p) or Fraction)."""
        if self.characteristic:
            return int(x) % self.characteristic
        return Fraction(x)

    def inv(self, x):
        if self.characteristic:
            x = int(x) % self.characteristic
            if x == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(x, self.characteristic - 2, self.characteristic)
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1, 1) / Fraction(x)

    def random(self, rng):
        """A seeded random coefficient: uniform on F_p, uniform on the
        integers -4..4 over Q (one draw of rng either way)."""
        p = self.characteristic
        return rng.randrange(p) if p else Fraction(rng.randrange(-4, 5))


def _objects(values, shape) -> np.ndarray:
    """An object array of the given shape holding ``values`` in C order."""
    return np.fromiter(values, dtype=object, count=len(values)).reshape(shape)


def _rationals(data):
    """(n, d) of rational input data: Python-int numerators over the least
    common denominator of the entries, which may be ints, ``Fraction``s or
    anything ``Fraction`` reads."""
    src = np.asarray(data, dtype=object)
    flat = [x if type(x) in (int, Fraction) else Fraction(x)
            for x in src.ravel().tolist()]
    d = math.lcm(*{x.denominator for x in flat})
    return _objects([x.numerator * (d // x.denominator) for x in flat],
                    src.shape), d


def _lowest(n: np.ndarray, d: int):
    """n / d with d the least common denominator: (n / g, d / g) for the
    gcd g of d and every entry of n.  Nothing to do when d = 1, as always
    over F_p."""
    if d > 1:
        g = math.gcd(d, *n.ravel().tolist())
        if g > 1:
            return n // g, d // g
    return n, d


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two 2-d arrays, as ``np.kron``: entry
    (i q + k, j r + l) is a[i, j] b[k, l] for b of shape (q, r).  One
    broadcast product, without ``np.kron``'s overhead on small blocks."""
    (m, n), (q, r) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * q, n * r)


class ExactMatrix:
    """Immutable dense matrix with exact entries over a FieldSpec, stored as
    integers ``n`` over one denominator ``d`` (see the module docstring).

    Row-vector conventions are used throughout the package: vectors are rows,
    maps act on the right (x @ M), and the left kernel is {x : x M = 0}.
    """

    __slots__ = ("field", "n", "d", "_digest", "_pivots", "_rank")

    def __init__(self, field: FieldSpec, data):
        if isinstance(data, ExactMatrix):
            n, d = data.n, data.d
        elif field.characteristic:
            n, d = np.asarray(data, dtype=np.int64) % field.characteristic, 1
        else:
            n, d = _rationals(data)
        if n.ndim != 2:
            raise LinearAlgebraError(f"expected 2-d data, got shape {n.shape}")
        n.setflags(write=False)
        self.field, self.n, self.d = field, n, d
        self._digest = self._pivots = self._rank = None

    # -- constructors -----------------------------------------------------
    @staticmethod
    def _wrap(field: FieldSpec, n: np.ndarray, d: int = 1) -> "ExactMatrix":
        """The matrix n / d for (n, d) already in normal form."""
        m = object.__new__(ExactMatrix)
        n.setflags(write=False)
        m.field = field
        m.n = n
        m.d = d
        m._digest = m._pivots = m._rank = None
        return m

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix._wrap(field, np.zeros((rows, cols), _dtype(field)))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "ExactMatrix":
        return ExactMatrix._wrap(field, np.identity(n, _dtype(field)))

    def _new(self, n: np.ndarray, d: int = 1) -> "ExactMatrix":
        """The result n / d of arithmetic on a fresh array n, normalised:
        over F_p the residues mod p, reduced in place, over Q in lowest
        terms."""
        p = self.field.characteristic
        if p:
            n %= p
        elif d > 1:
            n, d = _lowest(n, d)
        return ExactMatrix._wrap(self.field, n, d)

    def _cut(self, n: np.ndarray) -> "ExactMatrix":
        """A copy, view or rearrangement n of some of the entries, over the
        least common denominator of those entries."""
        d = self.d
        if d > 1:
            n, d = _lowest(n, d)
        return ExactMatrix._wrap(self.field, n, d)

    # -- shape and values -------------------------------------------------
    @property
    def rows(self) -> int:
        return self.n.shape[0]

    @property
    def cols(self) -> int:
        return self.n.shape[1]

    @property
    def shape(self):
        return self.n.shape

    @property
    def a(self) -> np.ndarray:
        """The entries as field values, read-only: the residues themselves
        over F_p; over Q a ``Fraction`` array, built on each call."""
        if self.field.characteristic:
            return self.n
        d = self.d
        a = _objects([Fraction(x, d) for x in self.n.ravel().tolist()],
                     self.shape)
        a.flags.writeable = False
        return a

    # -- arithmetic --------------------------------------------------------
    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n.shape[1] != other.n.shape[0]:
            raise LinearAlgebraError(
                f"shape mismatch for product: {self.shape} @ {other.shape}"
            )
        return self._new(self.n @ other.n, self.d * other.d)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """The Kronecker product: entry (i q + k, j r + l) is
        self[i, j] other[k, l], for other of shape (q, r)."""
        return self._new(kron(self.n, other.n), self.d * other.d)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.d == other.d:
            return self._new(self.n + other.n, self.d)
        (na, nb), d = _common([self, other])
        return self._new(na + nb, d)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.d == other.d:
            return self._new(self.n - other.n, self.d)
        (na, nb), d = _common([self, other])
        return self._new(na - nb, d)

    def __neg__(self) -> "ExactMatrix":
        return self._new(-self.n, self.d)

    def scale(self, c) -> "ExactMatrix":
        c = self.field.canon(c)
        return self._new(self.n * c.numerator, self.d * c.denominator)

    def __eq__(self, other) -> bool:
        # (n, d) is unique for the entries
        return (isinstance(other, ExactMatrix) and self.field == other.field
                and self.shape == other.shape and self.d == other.d
                and bool(np.array_equal(self.n, other.n)))

    def __hash__(self):
        return hash((self.field, self.digest()))

    def reshape(self, rows: int, cols: int) -> "ExactMatrix":
        """The same entries in C order as a rows x cols matrix."""
        return self._cut(self.n.reshape(rows, cols))

    @property
    def T(self) -> "ExactMatrix":
        return self._cut(self.n.T.copy())

    def is_zero(self) -> bool:
        return not self.n.any()

    def row(self, i: int) -> "ExactMatrix":
        return self._cut(self.n[i: i + 1])

    def take_rows(self, idx) -> "ExactMatrix":
        """The rows idx, in that order; a view for a contiguous range."""
        if type(idx) is range and idx.step == 1:
            return self._cut(self.n[idx.start: idx.stop])
        return self._cut(self.n[list(idx)])

    def take_cols(self, idx) -> "ExactMatrix":
        """The columns idx, in that order; a view for a contiguous range."""
        if type(idx) is range and idx.step == 1:
            return self._cut(self.n[:, idx.start: idx.stop])
        return self._cut(self.n[:, list(idx)])

    def digest(self) -> bytes:
        """A content key: the blake2b digest of (n, d), shape and field."""
        if self._digest is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(str(self.field.characteristic).encode())
            h.update(str(self.shape).encode())
            if self.field.characteristic:
                h.update(self.n.tobytes())
            else:
                h.update(f"{self.d}:{self.n.tolist()!r}".encode())
            self._digest = h.digest()
        return self._digest

    def tolist(self):
        if self.field.characteristic:
            return self.n.tolist()
        return [[str(x) for x in row] for row in self.a.tolist()]

    def __repr__(self):
        return f"ExactMatrix({self.shape} over {self.field.kind})\n{self.a}"

    # -- gaussian elimination ----------------------------------------------
    def rref(self):
        """Reduced row echelon form with pinned pivoting: (R, pivots), the
        pivot column of each leading row of R; trailing rows of R are zero.
        R carries its pivots, and a matrix that carries them is returned as
        it is.  The matrix keeps its rank, an int, and not R, which would
        stay alive as long as the matrix."""
        if self._pivots is not None:
            return self, self._pivots
        n, d, pivots = _eliminate(self.field.characteristic, self.shape,
                                  *_nonzeros(self))
        r = ExactMatrix._wrap(self.field, n, d)  # the RREF is canonical
        r._pivots = pivots
        self._rank = len(pivots)
        return r, pivots

    def rank(self) -> int:
        """The rank, from the first ``rref()`` on."""
        if self._rank is None:
            self._rank = len(self.rref()[1])
        return self._rank

    def inv(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise LinearAlgebraError("inverse of a non-square matrix")
        x = solve_left(self, ExactMatrix.identity(self.field, self.rows))
        if x is None:
            raise LinearAlgebraError("matrix is singular")
        # x @ self = I; for square matrices this is the two-sided inverse
        return x

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def _dtype(field: FieldSpec):
    """int64 residues over F_p, Python-int numerators over Q."""
    return np.int64 if field.characteristic else object


def _nonzeros(a):
    """(keys, values) of the nonzeros of a matrix or the row stack of a
    ``SparseStack``: entry (i, j) at key i . cols + j, ascending."""
    if isinstance(a, SparseStack):
        return a.key, a.v
    flat = a.n.ravel()
    key = flat.nonzero()[0]
    return key, flat[key]


def _eliminate(p: int, shape, key, values, basis: bool = False,
               transposed: bool = False):
    """Gauss-Jordan elimination with pinned pivoting, on sparse rows, of
    the integer matrix of the given shape with ``values`` at ``key`` (entry
    (i, j) at i . cols + j, in any order), or of its transpose: (reduced n,
    its denominator d, pivot columns), n of the nonzero rows only with
    ``basis`` set.  Over Q (p = 0) the values are numerators over a common
    denominator, which the reduced form does not depend on.

    Each row, a ``{column: value}`` map of its nonzeros, is reduced against
    the rows kept so far, lowest column first, until its leading column is
    new or it vanishes; a row that remains is kept, led by 1 over F_p and
    primitive with a positive lead over Q.  The kept rows are then reduced
    against each other, last pivot first, and written into one zero array,
    over Q each divided by its lead, over the lcm of the leads.  The reduced
    form and its pivots are unique, so this order of the work gives those
    of the pinned elimination."""
    rows, cols = shape
    sparse = {}                  # row index -> {column: value}
    for k, x in zip(key.tolist(), values.tolist()):
        i, j = divmod(k, cols)
        if transposed:
            i, j = j, i
        if i in sparse:
            sparse[i][j] = x
        else:
            sparse[i] = {j: x}
    if transposed:
        rows, cols = cols, rows
    kept = {}                    # leading column -> kept row
    for row in sparse.values():
        while row:
            c = min(row)
            pivot = kept.get(c)
            if pivot is None:
                kept[c] = _normalised(p, row, c)
                break
            row = _reduce(p, row, c, pivot)
    pivots = sorted(kept)
    for c in reversed(pivots):
        row = kept[c]
        for j in [j for j in row if j != c and j in kept]:
            row = _reduce(p, row, j, kept[j])
        kept[c] = row
    n = np.zeros((len(pivots) if basis else rows, cols), np.int64 if p else object)
    at = [i * cols + j for i, c in enumerate(pivots) for j in kept[c]]
    if p:
        n.put(at, [x for c in pivots for x in kept[c].values()])
        return n, 1, tuple(pivots)
    # each primitive row over its lead, all over the lcm d of the leads: in
    # lowest terms, as a prime power dividing d divides some lead exactly
    # and that row has an entry it does not divide
    d = math.lcm(*(kept[c][c] for c in pivots))
    n.put(at, [x * s for c in pivots for s in (d // kept[c][c],)
               for x in kept[c].values()])
    return n, d, tuple(pivots)


def _normalised(p: int, row: dict, c: int) -> dict:
    """The row led at column c, scaled to lead 1 over F_p; over Q divided
    by its content, signed to a positive lead."""
    lead = row[c]
    if p:
        inv = pow(lead, p - 2, p)
        return {j: x * inv % p for j, x in row.items()} if inv != 1 else row
    g = math.gcd(*row.values())
    if lead < 0:
        g = -g
    return {j: x // g for j, x in row.items()} if g != 1 else row


def _reduce(p: int, row: dict, c: int, pivot: dict) -> dict:
    """The row with its entry f at column c, the lead of the normalised
    ``pivot``, cleared: row - f pivot mod p over F_p, changing the row
    itself; over Q the primitive part of (pv / g) row - (f / g) pivot for
    the lead pv and g = gcd(pv, f), which keeps a positive lead positive."""
    f = row[c]
    if p:
        for j, y in pivot.items():
            x = (row.get(j, 0) - f * y) % p
            if x:
                row[j] = x
            else:
                del row[j]
        return row
    pv = pivot[c]
    g = math.gcd(pv, f)
    s, f = pv // g, f // g
    if s != 1:
        row = {j: x * s for j, x in row.items()}
    for j, y in pivot.items():
        x = row.get(j, 0) - f * y
        if x:
            row[j] = x
        else:
            del row[j]
    g = math.gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


# -- module-level operations ------------------------------------------------


def _common(mats):
    """The numerators of matrices over one denominator d, the lcm of
    theirs: ([n_1, n_2, ...], d); over F_p d = 1 and the n_i themselves."""
    ds = {m.d for m in mats}
    if len(ds) == 1:
        return [m.n for m in mats], ds.pop()
    d = math.lcm(*ds)
    return [m.n if m.d == d else m.n * (d // m.d) for m in mats], d


def place(field: FieldSpec, shape, parts) -> ExactMatrix:
    """The matrix of the given (rows, cols) shape that holds each part
    (rows, cols, m) at those rows and columns and is zero elsewhere; rows
    and cols are each a first index (an int: the block's extent from there
    on) or a sequence of indices.  Parts do not overlap.  ``parts`` is read
    once, so a part can be made just before it is placed.  Over Q the parts
    are placed over the lcm of their denominators, the entries placed so
    far rescaled when it grows, which keeps the result in lowest terms."""
    out, d = np.zeros(shape, _dtype(field)), 1
    for r, c, m in parts:
        if d % m.d:
            grow = math.lcm(d, m.d) // d
            out *= grow
            d *= grow
        if type(r) is int:
            r = slice(r, r + m.rows)
        elif type(c) is not int:
            r = np.asarray(r)[:, None]  # rows by columns, not pairs
        if type(c) is int:
            c = slice(c, c + m.cols)
        out[r, c] = m.n if m.d == d else m.n * (d // m.d)
    return ExactMatrix._wrap(field, out, d)


def stack_rows(field: FieldSpec, mats) -> ExactMatrix:
    """The matrices one below the other, of the width of the first one
    with rows: ``place`` at consecutive row offsets, done as one
    concatenation of the numerators over the lcm of the denominators."""
    return _stack(field, mats, 0)


def stack_cols(field: FieldSpec, mats) -> ExactMatrix:
    """The matrices side by side, of the height of the first one with
    columns: ``place`` at consecutive column offsets, done as one
    concatenation."""
    return _stack(field, mats, 1)


def _stack(field: FieldSpec, mats, axis: int) -> ExactMatrix:
    """The matrices that have entries along ``axis`` concatenated along it.
    A Python placement per part costs about four times one concatenation
    on the few small blocks the program stacks."""
    mats = list(mats)
    if not mats:
        raise LinearAlgebraError("stacking an empty list")
    kept = [m for m in mats if m.n.shape[axis]]
    if len(kept) < 2:
        return kept[0] if kept else ExactMatrix.zeros(
            field, *((0, mats[0].cols) if axis == 0 else (mats[0].rows, 0)))
    nums, d = _common(kept)
    return ExactMatrix._wrap(field, np.concatenate(nums, axis=axis), d)


def block_diag(field: FieldSpec, mats) -> ExactMatrix:
    """The block diagonal matrix of ``mats``."""
    mats = list(mats)
    rows = list(accumulate([m.rows for m in mats], initial=0))
    cols = list(accumulate([m.cols for m in mats], initial=0))
    return place(field, (rows[-1], cols[-1]),
                 [(r, c, m) for r, c, m in zip(rows, cols, mats)])


def left_products(x: ExactMatrix, stack: ExactMatrix,
                  blocks: int) -> ExactMatrix:
    """x @ S_i for each of the ``blocks`` row blocks S_i of the dense
    ``stack`` (each of x.cols rows), stacked in the same order: one
    broadcast product.  ``SparseStack.left`` is the same product on a
    sparse stack."""
    (k, n), c = x.shape, stack.cols
    if stack.rows != blocks * n:
        raise LinearAlgebraError(
            f"shape mismatch for blockwise product: {x.shape} @ {blocks} "
            f"blocks of {stack.shape}")
    return x._new(np.matmul(x.n, stack.n.reshape(blocks, n, c)).reshape(
        blocks * k, c), x.d * stack.d)


def first_unequal_block(x: SparseStack, y: SparseStack):
    """The index of the first matrix in which two stacks of one shape
    differ, or None when they are equal: the lowest key of x - y."""
    if x == y:
        return None
    diff = x - y
    return int(diff.key[0]) // (x.rows * x.cols) if len(diff.key) else None


def unequal_entries(x: ExactMatrix, y: ExactMatrix) -> np.ndarray:
    """The boolean array x != y, entry by entry, for matrices of one shape,
    cross-multiplied by the denominators when they differ."""
    if x.d == y.d:
        return x.n != y.n
    return x.n * y.d != y.n * x.d


def row_space(a) -> ExactMatrix:
    """Canonical RREF basis of the row space of a matrix, or of the row
    stack of a ``SparseStack``, zero rows stripped; it carries its pivots.
    Only the basis rows are formed, so a kept basis holds no larger array."""
    if isinstance(a, ExactMatrix) and a._pivots is not None \
            and a.rows == len(a._pivots):
        return a
    n, d, pivots = _eliminate(a.field.characteristic, a.shape, *_nonzeros(a),
                              basis=True)
    basis = ExactMatrix._wrap(a.field, n, d)
    basis._pivots = pivots
    return basis


def solve_left(a, rhs: ExactMatrix):
    """One solution X with X @ a = rhs, for a matrix or a one-matrix stack
    ``a``, or None if inconsistent: the back-substitution solution, free
    unknowns zero, of the pinned RREF of [a; rhs]^T, eliminated from the
    nonzeros of a and of rhs, its keys shifted below a's."""
    (unknowns, cols), field = a.shape, a.field
    if rhs.cols != cols:
        raise LinearAlgebraError(
            f"solve_left shape mismatch: {a.shape} vs rhs {rhs.shape}")
    (ka, va), (kb, vb) = _nonzeros(a), _nonzeros(rhs)
    if a.d != rhs.d:
        va, vb = va * rhs.d, vb * a.d
    r, d, piv = _eliminate(field.characteristic, (unknowns + rhs.rows, cols),
                           np.concatenate([ka, kb + unknowns * cols]),
                           np.concatenate([va, vb]), basis=True,
                           transposed=True)
    if piv and piv[-1] >= unknowns:
        return None  # pivot in augmented columns: inconsistent
    sol = np.zeros((rhs.rows, unknowns), _dtype(field))
    sol[:, list(piv)] = r[:, unknowns:].T
    return ExactMatrix._wrap(field, *_lowest(sol, d))


def left_kernel(a) -> ExactMatrix:
    """Canonical basis (rows, in RREF) of {x : x @ a = 0}, for a matrix or a
    one-matrix stack ``a``: the row space of the vectors with free unknown j
    1 and each pivot unknown minus its row of the RREF of a^T at j."""
    unknowns, field, p = a.shape[0], a.field, a.field.characteristic
    r, d, piv = _eliminate(p, a.shape, *_nonzeros(a), basis=True,
                           transposed=True)
    free = sorted(set(range(unknowns)).difference(piv))
    if not free:
        return ExactMatrix.zeros(field, 0, unknowns)
    n = np.zeros((len(free), unknowns), _dtype(field))
    n[range(len(free)), free] = d
    n[:, list(piv)] = -r[:, free].T % p if p else -r[:, free].T
    return row_space(ExactMatrix._wrap(field, *_lowest(n, d)))


def reduce_rows_mod(space: ExactMatrix, vecs: ExactMatrix) -> ExactMatrix:
    """Reduce each row of vecs modulo the RREF row space ``space``: subtract
    vecs[:, piv] . R[:len(piv)], which clears every pivot column because a
    row of R is zero at the pivots of the other rows."""
    if space.rows == 0:
        return vecs
    r, piv = space.rref()
    return vecs - vecs.take_cols(piv) @ r.take_rows(range(len(piv)))


# -- sparse stacks ----------------------------------------------------------


def _expand(lo: np.ndarray, cnt: np.ndarray):
    """(a, idx): each a repeated cnt[a] times, next to lo[a], lo[a] + 1, ...,
    lo[a] + cnt[a] - 1; the index pairs of a join, flattened."""
    a = np.repeat(np.arange(len(cnt)), cnt)
    return a, np.arange(len(a)) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)


class SparseStack:
    """Immutable stack of ``count`` matrices of shape rows x cols over a
    FieldSpec, stored by its nonzero entries: the storage of the generator
    actions of every module, which are almost all zero.

    Read as the (count . rows) x cols row stack of the matrices, entry
    (i, j) is kept as the key i . cols + j.  ``key`` is ascending, so sorted
    by matrix, row and column, and ``v`` holds the values as integers over
    one denominator ``d``, as in ``ExactMatrix``: int64 residues over F_p,
    Python ints over Q.  No value is zero and (v, d) is in lowest terms, so
    the arrays are unique for the contents.  Products run over the stored
    nonzeros only: each nonzero of the stack meets the nonzeros of the
    other factor in its row or column, and the products that land on one
    entry are summed.
    """

    __slots__ = ("field", "count", "rows", "cols", "key", "v", "d",
                 "_starts", "_cells", "_digest")

    def __init__(self, field: FieldSpec, count: int, rows: int, cols: int,
                 key: np.ndarray, v: np.ndarray, d: int = 1):
        """The stack of the given entries, already in normal form."""
        key.setflags(write=False)
        v.setflags(write=False)
        self.field, self.count, self.rows, self.cols = field, count, rows, cols
        self.key, self.v, self.d = key, v, d
        self._starts = self._cells = self._digest = None

    @staticmethod
    def _collect(field: FieldSpec, count: int, rows: int, cols: int,
                 key: np.ndarray, v: np.ndarray, d: int) -> "SparseStack":
        """The stack of the entries v / d at ``key``, in any order: values
        at one key summed, reduced mod p, zeros dropped, in lowest terms."""
        p = field.characteristic
        if len(key):
            order = np.argsort(key)
            key, v = key[order], v[order]
            new = np.empty(len(key), bool)
            new[0] = True
            np.not_equal(key[1:], key[:-1], out=new[1:])
            if not new.all():
                at = np.flatnonzero(new)
                key, v = key[at], np.add.reduceat(v, at)
            if p:
                v = v % p
            nz = v != 0
            if not nz.all():
                key, v = key[nz], v[nz]
        if not len(key):
            return SparseStack(field, count, rows, cols,
                               np.zeros(0, np.int64), np.zeros(0, _dtype(field)))
        if d > 1:
            g = math.gcd(d, *v.tolist())
            if g > 1:
                v, d = v // g, d // g
        return SparseStack(field, count, rows, cols, key, v, d)

    @staticmethod
    def from_entries(field: FieldSpec, count: int, rows: int, cols: int,
                     key, values) -> "SparseStack":
        """The stack of the field values ``values`` (ints, or ``Fraction``s
        over Q) at ``key``, in any order."""
        if field.characteristic:
            v, d = np.array(values, np.int64), 1
        else:
            v, d = _rationals(values)
        return SparseStack._collect(field, count, rows, cols,
                                    np.array(key, np.int64), v, d)

    @staticmethod
    def from_matrix(m: ExactMatrix, count: int) -> "SparseStack":
        """The row stack m read as ``count`` blocks of equal height."""
        key, v = _nonzeros(m)
        return SparseStack(m.field, count, m.rows // count if count else 0,
                           m.cols, key, v, m.d if len(key) else 1)

    @staticmethod
    def diagonal(field: FieldSpec, stacks, count: int) -> "SparseStack":
        """The stack of ``count`` blocks whose block i is the block diagonal
        matrix of the blocks i of ``stacks``, over the lcm of their
        denominators.  The entries only move: none meet or cancel, and a
        stack whose denominator has the most factors of a prime keeps an
        entry that prime does not divide, so (v, d) stays in lowest terms
        and one sort brings the keys in order."""
        rows = sum(s.rows for s in stacks)
        cols = sum(s.cols for s in stacks)
        d = math.lcm(1, *(s.d for s in stacks))
        keys, vals, r0, c0 = [np.zeros(0, np.int64)], [np.zeros(0, _dtype(field))], 0, 0
        for s in stacks:
            r, c = s.cells()
            g = s.key // (s.rows * s.cols)
            keys.append((g * rows + r + r0) * cols + c + c0)
            vals.append(s.v * (d // s.d) if s.d != d else s.v)
            r0, c0 = r0 + s.rows, c0 + s.cols
        key = np.concatenate(keys)
        order = np.argsort(key)
        return SparseStack(field, count, rows, cols, key[order],
                           np.concatenate(vals)[order], d)

    @staticmethod
    def placed(field: FieldSpec, shape, parts) -> "SparseStack":
        """``place`` for a one-matrix stack, from the nonzeros of each part
        (rows, col, m), m read in C order as len(rows) rows.  The keys are
        worked out in Python: a hom system's parts hold a few nonzeros
        each, where an array call costs more than the arithmetic."""
        keys, vals, dens = [], [np.zeros(0, _dtype(field))], []
        for r, c, m in parts:
            flat = m.n.ravel()
            at = flat.nonzero()[0]
            w = len(flat) // len(r)
            keys += [r[k // w] * shape[1] + c + k % w for k in at.tolist()]
            vals.append(flat[at])
            dens.append(m.d)
        d = math.lcm(1, *dens)
        if d > 1:
            vals[1:] = [v * (d // e) for v, e in zip(vals[1:], dens)]
        key = np.array(keys, np.int64)
        order = key.argsort()
        return SparseStack(field, 1, *shape, key[order],
                           np.concatenate(vals)[order], d)

    @staticmethod
    def kron_sum(field: FieldSpec, pairs, factors) -> "SparseStack":
        """The stack whose block t is the block diagonal matrix, over the
        factor stacks (L, R) in ``factors``, of kron(L_{l_t}, R_{r_t}) for
        the index arrays (l, r) = ``pairs``: entry (a q + c, b q + e) of a
        Kronecker block is L[a, b] R[c, e] for R of q rows.  Built from the
        nonzeros of the factors, one pair of nonzeros per entry."""
        li, rj = (np.asarray(x, np.int64) for x in pairs)
        total = sum(L.rows * R.rows for L, R in factors)
        keys, vals, dens, off = [], [], [], 0
        for L, R in factors:
            ls, rs = np.asarray(L.starts()), np.asarray(R.starts())
            nl, nr = L.sizes()[li], R.sizes()[rj]
            t, within = _expand(np.zeros(len(li), np.int64), nl * nr)
            q, m = np.divmod(within, nr[t])
            lk, rk = ls[li][t] + q, rs[rj][t] + m
            la, lb = np.divmod(L.key[lk] % (L.rows * L.cols), L.cols)
            ra, rb = np.divmod(R.key[rk] % (R.rows * R.cols), R.cols)
            keys.append((t * total + la * R.rows + ra + off) * total
                        + lb * R.cols + rb + off)
            vals.append(L.v[lk] * R.v[rk])
            dens.append(L.d * R.d)
            off += L.rows * R.rows
        d = math.lcm(1, *dens)
        vals = [v * (d // e) if e != d else v for v, e in zip(vals, dens)]
        return SparseStack._collect(field, len(li), total, total,
                                    np.concatenate(keys + [np.zeros(0, np.int64)]),
                                    np.concatenate(vals + [np.zeros(0, _dtype(field))]),
                                    d)

    @staticmethod
    def products(pairs, lefts: "SparseStack",
                 rights: "SparseStack") -> "SparseStack":
        """The stack whose block t is the product L_{l_t} @ R_{r_t} of block
        l_t of ``lefts`` and block r_t of ``rights``, for the index arrays
        (l, r) = ``pairs``: each nonzero of L_{l_t} meets the nonzeros of
        its column's row of R_{r_t}."""
        li, rj = (np.asarray(x, np.int64) for x in pairs)
        rows, inner, cols = lefts.rows, lefts.cols, rights.cols
        starts = np.asarray(lefts.starts())
        lo = starts[li]
        t, at = _expand(lo, starts[li + 1] - lo)
        r, c = np.divmod(lefts.key[at] % (rows * inner), inner)
        ptr = np.searchsorted(rights.key,
                              np.arange(rights.count * inner + 1) * cols)
        row = rj[t] * inner + c
        a, b = _expand(ptr[row], ptr[row + 1] - ptr[row])
        return SparseStack._collect(
            lefts.field, len(li), rows, cols,
            (t[a] * rows + r[a]) * cols + rights.key[b] % cols,
            lefts.v[at[a]] * rights.v[b], lefts.d * rights.d)

    # -- shape and contents -----------------------------------------------
    @property
    def shape(self):
        """The shape of the row stack."""
        return (self.count * self.rows, self.cols)

    def starts(self) -> list[int]:
        """Where the entries of each block start in ``key``, and the end,
        kept."""
        if self._starts is None:
            size = self.rows * self.cols
            self._starts = np.searchsorted(
                self.key, np.arange(self.count + 1) * size).tolist()
        return self._starts

    def sizes(self) -> np.ndarray:
        """The number of nonzeros of each block."""
        return np.diff(self.starts())

    def cells(self):
        """(rows, cols): the row and column of each entry within its
        matrix, kept."""
        if self._cells is None:
            self._cells = np.divmod(self.key % (self.rows * self.cols),
                                    self.cols)
        return self._cells

    def reshape(self, count: int, rows: int, cols: int) -> "SparseStack":
        """The same entries in C order as ``count`` matrices rows x cols, of
        as many entries in all: a key is the place in the flat array."""
        assert count * rows * cols == self.count * self.rows * self.cols
        return SparseStack(self.field, count, rows, cols, self.key, self.v,
                           self.d)

    def swapped(self) -> "SparseStack":
        """The stack of ``rows`` matrices count x cols whose entry (t, c)
        of matrix i is entry (i, c) of matrix t: the first two axes of the
        count x rows x cols array swapped.  The entries only move."""
        r, c = self.cells()
        t = self.key // (self.rows * self.cols)
        key = (r * self.count + t) * self.cols + c
        order = np.argsort(key)
        return SparseStack(self.field, self.rows, self.count, self.cols,
                           key[order], self.v[order], self.d)

    def take(self, idx) -> "SparseStack":
        """The stack of the matrices idx, in that order."""
        starts, size = self.starts(), self.rows * self.cols
        cuts = [(starts[i], starts[i + 1], (t - i) * size)
                for t, i in enumerate(idx)]
        keys = [self.key[lo:hi] + shift for lo, hi, shift in cuts]
        vals = [self.v[lo:hi] for lo, hi, _ in cuts]
        if len(cuts) != 1:  # one matrix is read in place
            keys = [np.concatenate([np.zeros(0, np.int64)] + keys)]
            vals = [np.concatenate([np.zeros(0, self.v.dtype)] + vals)]
        v, d = _lowest(vals[0], self.d)
        return SparseStack(self.field, len(idx), self.rows, self.cols, keys[0],
                           v, d if len(v) else 1)

    @property
    def T(self) -> "SparseStack":
        """The stack of the transposed matrices."""
        r, c = self.cells()
        key = self.key - r * self.cols - c + c * self.rows + r
        order = np.argsort(key)
        return SparseStack(self.field, self.count, self.cols, self.rows,
                           key[order], self.v[order], self.d)

    def __sub__(self, other: "SparseStack") -> "SparseStack":
        """The stack of the differences of the matrices, for two stacks of
        one shape."""
        return SparseStack._collect(
            self.field, self.count, self.rows, self.cols,
            np.concatenate([self.key, other.key]),
            np.concatenate([self.v * other.d, -(other.v * self.d)]),
            self.d * other.d)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseStack) and self.field == other.field
                and (self.count, self.rows, self.cols, self.d)
                == (other.count, other.rows, other.cols, other.d)
                and bool(np.array_equal(self.key, other.key))
                and bool(np.array_equal(self.v, other.v)))

    def digest(self) -> bytes:
        """A content key: the blake2b digest of the entries, shape and
        field."""
        if self._digest is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(f"{self.field.characteristic}:{self.count}x{self.rows}"
                     f"x{self.cols}:{self.d}".encode())
            h.update(self.key.tobytes())
            if self.field.characteristic:
                h.update(self.v.tobytes())
            else:
                h.update(repr(self.v.tolist()).encode())
            self._digest = h.digest()
        return self._digest

    def dense(self) -> ExactMatrix:
        """The row stack as a dense matrix."""
        n = np.zeros(self.count * self.rows * self.cols, _dtype(self.field))
        n[self.key] = self.v
        return ExactMatrix._wrap(self.field,
                                 n.reshape(self.count * self.rows, self.cols),
                                 self.d)

    def block(self, i: int) -> ExactMatrix:
        """Matrix i of the stack, dense."""
        starts = self.starts()
        lo, hi = starts[i], starts[i + 1]
        n = np.zeros(self.rows * self.cols, _dtype(self.field))
        n[self.key[lo:hi] - i * self.rows * self.cols] = self.v[lo:hi]
        return ExactMatrix._wrap(self.field,
                                 *_lowest(n.reshape(self.rows, self.cols),
                                          self.d))

    def sums(self, groups) -> "SparseStack":
        """The stack whose matrix t is the sum of the matrices of the
        indices in groups[t]."""
        members = np.array([i for g in groups for i in g], np.int64)
        owner = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        starts = np.asarray(self.starts())
        lo = starts[members]
        a, idx = _expand(lo, starts[members + 1] - lo)
        key = self.key[idx] + (owner[a] - members[a]) * (self.rows * self.cols)
        return SparseStack._collect(self.field, len(groups), self.rows,
                                    self.cols, key, self.v[idx], self.d)

    def take_rows(self, keep) -> "SparseStack":
        """The rows ``keep``, ascending, of every matrix: the entries only
        move, and keep their order."""
        where = np.full(self.rows, -1, np.int64)
        where[list(keep)] = np.arange(len(keep))
        r, c = self.cells()
        new = where[r]
        at = np.flatnonzero(new >= 0)
        key = (self.key[at] // (self.rows * self.cols) * len(keep)
               + new[at]) * self.cols + c[at]
        v, d = _lowest(self.v[at], self.d)
        return SparseStack(self.field, self.count, len(keep), self.cols, key,
                           v, d if len(v) else 1)

    # -- products -----------------------------------------------------------
    def __matmul__(self, f: ExactMatrix) -> "SparseStack":
        """S_i @ f for every matrix S_i: the product of the row stack."""
        if self.cols != f.rows:
            raise LinearAlgebraError(
                f"shape mismatch for product: {self.shape} @ {f.shape}")
        rs, c = np.divmod(self.key, self.cols)
        fr, fc = np.nonzero(f.n)
        ptr = np.searchsorted(fr, np.arange(f.rows + 1))
        lo = ptr[c]
        a, b = _expand(lo, ptr[c + 1] - lo)
        return SparseStack._collect(
            self.field, self.count, self.rows, f.cols, rs[a] * f.cols + fc[b],
            self.v[a] * f.n[fr[b], fc[b]], self.d * f.d)

    def left(self, x: ExactMatrix, cols=None) -> "SparseStack":
        """x @ S_i for every matrix S_i, cut to the columns ``cols`` when
        given (``fields.left_products``)."""
        if x.cols != self.rows:
            raise LinearAlgebraError(
                f"shape mismatch for blockwise product: {x.shape} @ "
                f"{self.count} blocks of {self.shape}")
        r, c = self.cells()
        g = self.key // (self.rows * self.cols)
        v, width = self.v, self.cols
        if cols is not None:
            width = len(cols)
            where = np.full(self.cols, -1, np.int64)
            where[list(cols)] = np.arange(width)
            c = where[c]
            keep = c >= 0
            g, r, c, v = g[keep], r[keep], c[keep], v[keep]
        inner, j = np.nonzero(x.n.T)
        ptr = np.searchsorted(inner, np.arange(self.rows + 1))
        lo = ptr[r]
        a, b = _expand(lo, ptr[r + 1] - lo)
        return SparseStack._collect(
            self.field, self.count, x.rows, width,
            (g[a] * x.rows + j[b]) * width + c[a],
            v[a] * x.n[j[b], inner[b]], self.d * x.d)

    def row_product(self, y: ExactMatrix, i: int) -> ExactMatrix:
        """y @ S_i, dense: each nonzero of S_i adds its row of y, scaled,
        to its column."""
        if y.cols != self.rows:
            raise LinearAlgebraError(
                f"shape mismatch for product: {y.shape} @ block of "
                f"{self.rows} x {self.cols}")
        starts, (r, c) = self.starts(), self.cells()
        lo, hi = starts[i], starts[i + 1]
        out = np.zeros((y.rows, self.cols), y.n.dtype)
        np.add.at(out, (slice(None), c[lo:hi]),
                  y.n.take(r[lo:hi], axis=1) * self.v[lo:hi])
        return y._new(out, y.d * self.d)
