"""Exact dense linear algebra over prime fields F_p and the rationals.

All arithmetic is exact: prime-field entries are canonical residues stored in
int64 numpy arrays, rational entries are ``fractions.Fraction`` in object
arrays.  Pivoting is pinned (leftmost nonzero column, topmost nonzero row) so
every downstream construction is reproducible bit for bit.

Over Q the arithmetic runs on Python-int numerators, not on ``Fraction``
objects: a product multiplies the integer numerators of its operands, each
taken over one common denominator (``_product``), and elimination is
fraction-free Gauss-Jordan on integer rows, each divided by its content,
dividing by the pivots once at the end.  The RREF is unique, so the stored
``Fraction`` results are the same as with fraction arithmetic.

Elimination is sized to the matrices the program makes, most of them a few
hundred cells.  Those of at most ``ROW_LOOP_CELLS`` cells, and every
matrix over Q, are reduced as Python-int rows in one loop that serves both
fields; larger F_p matrices are reduced in numpy.  Both paths update only
the rows with a nonzero entry in the pivot column.  The RREF and its pivot
columns are unique, so the two paths give the same bytes.

A matrix knows when it is reduced: the R that ``rref()`` returns and the
basis that ``row_space`` returns carry their pivot columns, and ``rref()`` on
such a matrix returns it at once, with no elimination.  Every other matrix,
including one derived from a reduced matrix (rows, transpose, products,
sums, the constructor), starts unreduced.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class LinearAlgebraError(ValueError):
    pass


class ResourceBoundExceeded(RuntimeError):
    pass


MEMORY_BOUND = 1 << 30     # bytes one dense array of the pipeline may take
FRACTION_BYTES = 112       # 8-byte pointer, 48-byte Fraction, two 28-byte ints


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
    matrix in memory reaches.  Rationals are stored as ``Fraction`` entries
    and computed on their integer numerators (see the module docstring).
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

    def elements(self):
        """All field elements; only available for prime fields."""
        if not self.characteristic:
            raise LinearAlgebraError("cannot enumerate the rationals")
        return range(self.characteristic)


def _empty(field: FieldSpec, rows: int, cols: int) -> np.ndarray:
    if field.characteristic:
        return np.zeros((rows, cols), dtype=np.int64)
    a = np.empty((rows, cols), dtype=object)
    a[...] = Fraction(0)
    return a


def _objects(values, shape) -> np.ndarray:
    """An object array of the given shape holding ``values`` in C order."""
    return np.fromiter(values, dtype=object, count=len(values)).reshape(shape)


def _numerators(a: np.ndarray):
    """(N, d) with a = N / d: N an object array of Python ints and d the lcm
    of the denominators of the rational (or integer) entries of a."""
    flat = a.ravel().tolist()
    d = math.lcm(*{x.denominator for x in flat})
    if d == 1:
        return _objects([x.numerator for x in flat], a.shape), 1
    return _objects([x.numerator * (d // x.denominator) for x in flat],
                    a.shape), d


def _fractions(n: np.ndarray, d: int) -> np.ndarray:
    """The ``Fraction`` array n / d for an array n of Python ints, with one
    ``Fraction`` built per distinct numerator."""
    flat = n.ravel().tolist()
    made = {x: _fraction(x, d) for x in set(flat)}
    return _objects([made[x] for x in flat], n.shape)


@functools.lru_cache(maxsize=4096)
def _fraction(n: int, d: int) -> Fraction:
    """Fraction(n, d), shared: the values a matrix holds repeat across
    matrices, and a Fraction is immutable."""
    return Fraction(n, d)


def _lowest(n: np.ndarray, d: int):
    """n / d with d the least common denominator: (n / g, d / g) for the
    gcd g of d and every entry of n."""
    if d > 1:
        g = math.gcd(d, np.gcd.reduce(n, axis=None))
        if g > 1:
            return n // g, d // g
    return n, d


def _product(x, y):
    """(N, d) of the product of x = (N_x, d_x) and y = (N_y, d_y): N_x @ N_y
    on Python ints over d_x d_y, in lowest terms."""
    return _lowest(x[0] @ y[0], x[1] * y[1])


def _transposed(a: np.ndarray) -> np.ndarray:
    return a.T.copy()


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two 2-d arrays, as ``np.kron``: entry
    (i q + k, j r + l) is a[i, j] b[k, l] for b of shape (q, r).  One
    broadcast product, without ``np.kron``'s overhead on small blocks."""
    (m, n), (q, r) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * q, n * r)


class ExactMatrix:
    """Immutable dense matrix with exact entries over a FieldSpec.

    Row-vector conventions are used throughout the package: vectors are rows,
    maps act on the right (x @ M), and the left kernel is {x : x M = 0}.
    """

    __slots__ = ("field", "a", "_digest", "_pivots", "_num")

    def __init__(self, field: FieldSpec, data):
        self.field = field
        if isinstance(data, ExactMatrix):
            data = data.a
        if field.characteristic:
            a = np.asarray(data, dtype=np.int64) % field.characteristic
        else:
            src = np.asarray(data, dtype=object)
            flat = src.ravel().tolist()
            if all(type(x) is Fraction for x in flat):
                a = src.copy()
            else:
                a = _objects([Fraction(x) for x in flat], src.shape)
        if a.ndim != 2:
            raise LinearAlgebraError(f"expected 2-d data, got shape {a.shape}")
        a.flags.writeable = False
        self.a = a
        self._digest = None
        self._pivots = None
        self._num = None

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix._wrap(field, _empty(field, rows, cols))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "ExactMatrix":
        if not field.characteristic:
            return ExactMatrix._from_numerators(
                field, np.identity(n, dtype=object), 1)
        return ExactMatrix._wrap(field, np.identity(n, dtype=np.int64))

    @staticmethod
    def _from_numerators(field: FieldSpec, n: np.ndarray, d: int):
        """The rational matrix n / d, keeping (n, d) as its numerators; d
        must be the least common denominator of the entries."""
        m = ExactMatrix._wrap(field, _fractions(n, d))
        n.flags.writeable = False
        m._num = (n, d)
        return m

    @staticmethod
    def _wrap(field: FieldSpec, a: np.ndarray) -> "ExactMatrix":
        m = object.__new__(ExactMatrix)
        m.field = field
        a.flags.writeable = False
        m.a = a
        m._digest = None
        m._pivots = None
        m._num = None
        return m

    def _new(self, a: np.ndarray) -> "ExactMatrix":
        if self.field.characteristic:
            a = a % self.field.characteristic
        return ExactMatrix._wrap(self.field, a)

    # -- shape ------------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self):
        return self.a.shape

    # -- arithmetic --------------------------------------------------------
    def numerators(self):
        """Over Q, (N, d) with self.a = N / d: read-only Python-int
        numerators over the least common denominator, kept."""
        if self._num is None:
            n, d = _numerators(self.a)
            n.flags.writeable = False
            self._num = (n, d)
        return self._num

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise LinearAlgebraError(
                f"shape mismatch for product: {self.shape} @ {other.shape}"
            )
        if self.field.characteristic:
            return self._new(self.a @ other.a)
        return ExactMatrix._from_numerators(
            self.field, *_product(self.numerators(), other.numerators()))

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """The Kronecker product: entry (i q + k, j r + l) is
        self[i, j] other[k, l], for other of shape (q, r)."""
        if self.field.characteristic:
            return self._new(kron(self.a, other.a))
        (na, da), (nb, db) = self.numerators(), other.numerators()
        return ExactMatrix._from_numerators(
            self.field, *_lowest(kron(na, nb), da * db))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.field.characteristic:
            return self._new(self.a + other.a)
        (na, nb), d = _common([self, other])
        return ExactMatrix._from_numerators(self.field, *_lowest(na + nb, d))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.field.characteristic:
            return self._new(self.a - other.a)
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        if self.field.characteristic:
            return self._new(-self.a)
        n, d = self.numerators()
        return ExactMatrix._from_numerators(self.field, -n, d)

    def scale(self, c) -> "ExactMatrix":
        c = self.field.canon(c)
        if self.field.characteristic:
            return self._new(self.a * c)
        n, d = self.numerators()
        return ExactMatrix._from_numerators(
            self.field, *_lowest(n * c.numerator, d * c.denominator))

    def __eq__(self, other) -> bool:
        if not (isinstance(other, ExactMatrix) and self.field == other.field
                and self.shape == other.shape):
            return False
        if self.field.characteristic:
            return bool(np.all(self.a == other.a))
        # numerators over the least common denominator are unique
        (na, da), (nb, db) = self.numerators(), other.numerators()
        return da == db and bool(np.all(na == nb))

    def __hash__(self):
        return hash((self.field, self.digest()))

    def _select(self, part, *args) -> "ExactMatrix":
        """The matrix part(a, *args) for a copy, view or rearrangement
        ``part`` of the entries.  Kept integer numerators (denominator 1)
        are carried along as part(N, *args); other numerators are read again
        when needed, as a cut may have a smaller least common denominator."""
        out = ExactMatrix._wrap(self.field, part(self.a, *args))
        if self._num is not None and self._num[1] == 1:
            n = part(self._num[0], *args)
            n.flags.writeable = False
            out._num = (n, 1)
        return out

    def reshape(self, rows: int, cols: int) -> "ExactMatrix":
        """The same entries in C order as a rows x cols matrix."""
        return self._select(np.ndarray.reshape, (rows, cols))

    @property
    def T(self) -> "ExactMatrix":
        return self._select(_transposed)

    def is_zero(self) -> bool:
        return not self.a.any()

    def row(self, i: int) -> "ExactMatrix":
        return self._select(operator.getitem, slice(i, i + 1))

    def take_rows(self, idx) -> "ExactMatrix":
        return self._select(operator.getitem, list(idx))

    def take_cols(self, idx) -> "ExactMatrix":
        return self._select(operator.getitem, (slice(None), list(idx)))

    def split_rows(self, parts: int) -> list["ExactMatrix"]:
        """The matrix as ``parts`` blocks of equal height, top to bottom:
        views of its rows, sharing its entries."""
        size = self.rows // parts
        return [self._select(operator.getitem, slice(i * size, (i + 1) * size))
                for i in range(parts)]

    def digest(self) -> bytes:
        if self._digest is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(str(self.field.characteristic).encode())
            h.update(str(self.shape).encode())
            if self.field.characteristic:
                h.update(self.a.tobytes())
            else:
                h.update(repr(self.a.tolist()).encode())
            self._digest = h.digest()
        return self._digest

    def tolist(self):
        if self.field.characteristic:
            return [[int(x) for x in row] for row in self.a]
        return [[str(x) for x in row] for row in self.a]

    def __repr__(self):
        return f"ExactMatrix({self.shape} over {self.field.kind})\n{self.a}"

    # -- gaussian elimination ----------------------------------------------
    def rref(self):
        """Reduced row echelon form with pinned pivoting.

        Returns (R, pivots) where pivots lists the pivot column of each of
        the leading rows of R; trailing rows of R are zero.  R carries its
        pivots, and a matrix that carries them is returned as it is.
        """
        if self._pivots is not None:
            return self, self._pivots
        p = self.field.characteristic
        a, pivots = _eliminate(p, self.a if p else self.numerators()[0])
        r = ExactMatrix._wrap(self.field, a)  # the RREF is canonical
        r._pivots = pivots
        return r, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def left_kernel(self) -> "ExactMatrix":
        """Canonical basis (rows, in RREF) of {x : x @ self = 0}."""
        r, piv = self.T.rref()
        piv_set = set(piv)
        free = [j for j in range(self.rows) if j not in piv_set]
        if not free:
            return ExactMatrix.zeros(self.field, 0, self.rows)
        # free variable j set to 1, each pivot variable to minus its row at j
        basis = _empty(self.field, len(free), self.rows)
        basis[range(len(free)), free] = 1 if self.field.characteristic \
            else Fraction(1)
        basis[:, list(piv)] = -r.a[: len(piv), free].T
        out = self._new(basis)
        # canonical form: reduce the kernel basis itself
        return out.rref()[0].take_rows(range(out.rows))._strip_zero_rows()

    def _strip_zero_rows(self) -> "ExactMatrix":
        nz = [i for i in range(self.rows) if np.any(self.a[i] != 0)]
        if len(nz) == self.rows:
            return self
        return self.take_rows(nz)

    def solve_left(self, rhs: "ExactMatrix"):
        """One solution X with X @ self = rhs, or None if inconsistent.

        The particular solution is the back-substitution solution of the
        fixed-pivot RREF (free variables set to zero).
        """
        if rhs.cols != self.cols:
            raise LinearAlgebraError(
                f"solve_left shape mismatch: {self.shape} vs rhs {rhs.shape}"
            )
        # Solve self.T @ X.T = rhs.T by eliminating the augmented matrix
        # [self.T | rhs.T].
        r, piv = stack_rows(self.field, [self, rhs]).T.rref()
        n_unknowns = self.rows
        if piv and piv[-1] >= n_unknowns:
            return None  # pivot in augmented columns: inconsistent
        sol = _empty(self.field, rhs.rows, n_unknowns)
        sol[:, list(piv)] = r.a[: len(piv), n_unknowns:].T
        return ExactMatrix._wrap(self.field, sol)

    def inv(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise LinearAlgebraError("inverse of a non-square matrix")
        x = self.solve_left(ExactMatrix.identity(self.field, self.rows))
        if x is None:
            raise LinearAlgebraError("matrix is singular")
        # x @ self = I; for square matrices this is the two-sided inverse
        return x

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


# Eliminations of at most this many cells run on Python-int rows; larger
# ones over F_p run on numpy arrays.  Most matrices the pipeline reduces
# have a few hundred cells, where a numpy call costs more than the
# arithmetic it does; a cut anywhere from 2048 to 8192 cells measured the
# same (scripts/eliminate_sites.py prints the calls per cell bucket).
ROW_LOOP_CELLS = 4096


def _eliminate(p: int, a: np.ndarray):
    """Gauss-Jordan elimination of a copy of ``a`` with pinned pivoting:
    (reduced array, pivot columns).  Over Q (p = 0) ``a`` holds the integer
    numerators of the matrix over a common denominator, which the reduced
    form does not depend on, and the result holds ``Fraction`` entries.

    Over Q, and over F_p up to ``ROW_LOOP_CELLS`` cells, the rows are
    reduced as Python lists (``_eliminate_rows``); larger F_p matrices are
    reduced in numpy (``_eliminate_array``).  The reduced form and its
    pivots are unique, so both give the same result."""
    rows, cols = a.shape
    if p and a.size > ROW_LOOP_CELLS:
        return _eliminate_array(p, a)
    m, pivots = _eliminate_rows(p, a.tolist(), cols)
    if p:
        return np.array(m, dtype=np.int64).reshape(rows, cols), pivots
    # primitive pivot rows: divide each by its pivot
    zero = Fraction(0)
    flat = [_fraction(x, m[i][c]) if x else zero
            for i, c in enumerate(pivots) for x in m[i]]
    flat += [zero] * ((rows - len(pivots)) * cols)
    return _objects(flat, (rows, cols)), pivots


def _eliminate_rows(p: int, m: list, cols: int):
    """Gauss-Jordan elimination of the rows ``m`` (lists of Python ints) in
    place with pinned pivoting: (rows, pivot columns).

    At a pivot in row r and column c, only the rows j with m_jc != 0 change.
    Over F_p the pivot row is scaled to pivot 1 and row_j becomes
    row_j - m_jc . row_r mod p; row r is zero left of c, so only columns c..
    are computed.  Over Q (p = 0) the elimination is fraction-free: every
    row is kept primitive (divided by its content), row_j becomes
    row_j . pv - row_r . m_jc for the pivot pv, divided by its content, and
    the pivot rows are left for the caller to divide by their pivots.  The
    rows stay nonzero multiples of those of the fraction elimination, so
    the pivots and the reduced form are the same."""
    rows = len(m)
    if not p:
        m = [_primitive(row) for row in m]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for i in range(r, rows):
            if m[i][c]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
        pivot = m[r]
        pv = pivot[c]
        if p:
            if pv != 1:
                inv = pow(pv, p - 2, p)
                pivot[c:] = [x * inv % p for x in pivot[c:]]
            tail = pivot[c:]
        for j in range(rows):
            row = m[j]
            f = row[c]
            if not f or j == r:
                continue
            if p:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
            else:
                m[j] = _primitive([x * pv - f * y for x, y in zip(row, pivot)])
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def _primitive(row: list) -> list:
    """An integer row divided by its content (a zero row stays zero)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate_array(p: int, a: np.ndarray):
    """``_eliminate`` over F_p on a copy of the int64 array ``a``: each step
    jumps to the next column with a nonzero entry at or below row r, and
    only the rows with a nonzero entry in the pivot column are updated,
    from the pivot column on."""
    a = a.copy()
    a.flags.writeable = True
    rows, cols = a.shape
    pivots = []
    r = c = 0
    while r < rows and c < cols:
        live = a[r:, c:] != 0
        hit_cols = live.any(axis=0)
        k = int(hit_cols.argmax())
        if not hit_cols[k]:
            break
        c += k
        i = r + int(live[:, k].argmax())
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, c:] = (a[r, c:] * pow(int(a[r, c]), p - 2, p)) % p
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != r]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(a[hit, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
        c += 1
    return a, tuple(pivots)


# -- module-level operations ------------------------------------------------


def _common(mats):
    """The numerators of rational matrices over one denominator d, the lcm
    of theirs: ([N_1, N_2, ...], d)."""
    nums = [m.numerators() for m in mats]
    d = math.lcm(*(dm for _, dm in nums))
    return [n if dm == d else n * (d // dm) for n, dm in nums], d


def stack_rows(field: FieldSpec, mats) -> ExactMatrix:
    mats = list(mats)
    if not mats:
        raise LinearAlgebraError("stack_rows of empty list")
    cols = mats[0].cols
    mats = [m for m in mats if m.rows > 0]
    if not mats:
        return ExactMatrix.zeros(field, 0, cols)
    if field.characteristic:
        return ExactMatrix._wrap(field, np.concatenate([m.a for m in mats]))
    nums, d = _common(mats)
    return ExactMatrix._from_numerators(field, np.concatenate(nums), d)


# Column cuts of a stack are taken for groups of blocks of at most this many
# cells (512 KB over F_p), each multiplied into its slice of the result, so
# a submodule of a large bimodule never holds a cut of its whole stack.
# Such a cut, a few MB freed next to the live result, fragments the heap:
# whole cuts raised the peak RSS of the scan benchmark by about 5 % over one
# product per generator, and groups by nothing measurable.
CUT_CELLS = 1 << 16


def left_products(x: ExactMatrix, stack: ExactMatrix, blocks: int,
                  cols=None) -> ExactMatrix:
    """x @ S_i for each of the ``blocks`` row blocks S_i of ``stack`` (each
    of x.cols rows), cut to the columns ``cols`` when given, stacked in the
    same order: a batched product, over Q on the kept numerators of x and
    stack.  Over F_p the result is allocated first and the cut is taken
    for groups of blocks of at most ``CUT_CELLS`` cells, each multiplied
    into its slice of the result."""
    (k, n), c = x.shape, stack.cols
    if stack.rows != blocks * n:
        raise LinearAlgebraError(
            f"shape mismatch for blockwise product: {x.shape} @ {blocks} "
            f"blocks of {stack.shape}")
    field, p = x.field, x.field.characteristic
    if cols is not None:
        cols, c = list(cols), len(cols)
    if p:
        out = np.empty((blocks, k, c), dtype=np.int64)
        s = stack.a.reshape(blocks, n, stack.cols)
        if cols is None:
            np.matmul(x.a, s, out=out)
        else:
            step = max(1, CUT_CELLS // max(n * c, 1))
            for lo in range(0, blocks, step):
                np.matmul(x.a, s[lo: lo + step][:, :, cols],
                          out=out[lo: lo + step])
        out %= p
        return ExactMatrix._wrap(field, out.reshape(blocks * k, c))
    (nx, dx), (ns, ds) = x.numerators(), stack.numerators()
    ns = ns.reshape(blocks, n, stack.cols)
    num, d = _product((nx, dx), (ns if cols is None else ns[:, :, cols], ds))
    return ExactMatrix._from_numerators(field, num.reshape(blocks * k, c), d)


def unequal_entries(x: ExactMatrix, y: ExactMatrix) -> np.ndarray:
    """The boolean array x != y, entry by entry, for matrices of one shape;
    over Q on their kept numerators, cross-multiplied by the
    denominators."""
    if x.field.characteristic:
        return x.a != y.a
    (nx, dx), (ny, dy) = x.numerators(), y.numerators()
    if dx == dy:
        return nx != ny
    return nx * dy != ny * dx


def block_diag(field: FieldSpec, mats) -> ExactMatrix:
    """The block diagonal matrix of ``mats``; over Q it is assembled on
    numerators over the lcm of their denominators."""
    mats = list(mats)
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    p = field.characteristic
    if p:
        blocks, d = [m.a for m in mats], 1
    else:
        blocks, d = _common(mats)
    out = np.zeros((rows, cols), dtype=np.int64 if p else object)
    r = c = 0
    for m, block in zip(mats, blocks):
        out[r : r + m.rows, c : c + m.cols] = block
        r += m.rows
        c += m.cols
    if p:
        return ExactMatrix._wrap(field, out)
    return ExactMatrix._from_numerators(field, out, d)


def linear_combination(field: FieldSpec, coeffs, mats, shape) -> ExactMatrix:
    """sum_i coeffs[i] mats[i] for matrices of the given shape (zero when
    there are none): one product of the coefficient row with the flattened
    matrices."""
    rows, cols = shape
    if not len(mats):
        return ExactMatrix.zeros(field, rows, cols)
    flat = stack_rows(field, [m.reshape(1, rows * cols) for m in mats])
    return (ExactMatrix(field, [list(coeffs)]) @ flat).reshape(rows, cols)


def row_space(m: ExactMatrix) -> ExactMatrix:
    """Canonical RREF basis of the row space, zero rows stripped; it carries
    its pivots."""
    r, piv = m.rref()
    if r.rows == len(piv):
        return r
    basis = r.take_rows(range(len(piv)))
    basis._pivots = piv
    return basis


def reduce_rows_mod(space: ExactMatrix, vecs: ExactMatrix) -> ExactMatrix:
    """Reduce each row of vecs modulo the RREF row space ``space``: subtract
    vecs[:, piv] . R[:len(piv)], which clears every pivot column because a
    row of R is zero at the pivots of the other rows."""
    if space.rows == 0:
        return vecs
    r, piv = space.rref()
    return vecs - vecs.take_cols(piv) @ r.take_rows(range(len(piv)))
