"""Exact dense linear algebra over prime fields F_p and the rationals.

All arithmetic is exact: prime-field entries are canonical residues stored in
int64 numpy arrays, rational entries are ``fractions.Fraction`` in object
arrays.  Pivoting is pinned (leftmost nonzero column, topmost nonzero row) so
every downstream construction is reproducible bit for bit.

A matrix knows when it is reduced: the R that ``rref()`` returns and the
basis that ``row_space`` returns carry their pivot columns, and ``rref()`` on
such a matrix returns it at once, with no elimination.  Every other matrix,
including one derived from a reduced matrix (rows, transpose, products,
sums, the constructor), starts unreduced.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class LinearAlgebraError(ValueError):
    pass


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
    matrix in memory reaches.
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


def canonical(field: FieldSpec, a: np.ndarray) -> np.ndarray:
    """An array of products and sums of canonical entries, of any shape, in
    canonical form: residues mod p over F_p; over Q it already is."""
    return a % field.characteristic if field.characteristic else a


class ExactMatrix:
    """Immutable dense matrix with exact entries over a FieldSpec.

    Row-vector conventions are used throughout the package: vectors are rows,
    maps act on the right (x @ M), and the left kernel is {x : x M = 0}.
    """

    __slots__ = ("field", "a", "_digest", "_pivots")

    def __init__(self, field: FieldSpec, data):
        self.field = field
        if isinstance(data, ExactMatrix):
            data = data.a
        if field.characteristic:
            a = np.asarray(data, dtype=np.int64) % field.characteristic
        else:
            src = np.asarray(data, dtype=object)
            a = np.empty(src.shape, dtype=object)
            for idx in np.ndindex(src.shape):
                a[idx] = Fraction(src[idx])
        if a.ndim != 2:
            raise LinearAlgebraError(f"expected 2-d data, got shape {a.shape}")
        a.flags.writeable = False
        self.a = a
        self._digest = None
        self._pivots = None

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix._wrap(field, _empty(field, rows, cols))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "ExactMatrix":
        a = _empty(field, n, n)
        one = 1 if field.characteristic else Fraction(1)
        for i in range(n):
            a[i, i] = one
        return ExactMatrix._wrap(field, a)

    @staticmethod
    def _wrap(field: FieldSpec, a: np.ndarray) -> "ExactMatrix":
        m = object.__new__(ExactMatrix)
        m.field = field
        a.flags.writeable = False
        m.a = a
        m._digest = None
        m._pivots = None
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
    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise LinearAlgebraError(
                f"shape mismatch for product: {self.shape} @ {other.shape}"
            )
        if self.rows == 0 or other.cols == 0:
            return ExactMatrix.zeros(self.field, self.rows, other.cols)
        return self._new(self.a @ other.a)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._new(self.a + other.a)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._new(self.a - other.a)

    def __neg__(self) -> "ExactMatrix":
        return self._new(-self.a)

    def scale(self, c) -> "ExactMatrix":
        c = self.field.canon(c)
        return self._new(self.a * c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.shape == other.shape
            and bool(np.all(self.a == other.a))
        )

    def __hash__(self):
        return hash((self.field, self.digest()))

    @property
    def T(self) -> "ExactMatrix":
        return ExactMatrix._wrap(self.field, self.a.T.copy())

    def is_zero(self) -> bool:
        return bool(np.all(self.a == 0))

    def row(self, i: int) -> "ExactMatrix":
        return ExactMatrix._wrap(self.field, self.a[i : i + 1].copy())

    def take_rows(self, idx) -> "ExactMatrix":
        return ExactMatrix._wrap(self.field, self.a[list(idx)].copy())

    def take_cols(self, idx) -> "ExactMatrix":
        return ExactMatrix._wrap(self.field, self.a[:, list(idx)].copy())

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
        a, pivots = _eliminate(self.field.characteristic, self.a)
        r = self._new(a)
        r._pivots = pivots
        return r, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def left_kernel(self) -> "ExactMatrix":
        """Canonical basis (rows, in RREF) of {x : x @ self = 0}."""
        r, piv = self.T.rref()
        piv = set(piv)
        free = [j for j in range(self.rows) if j not in piv]
        if not free:
            return ExactMatrix.zeros(self.field, 0, self.rows)
        basis = _empty(self.field, len(free), self.rows)
        one = 1 if self.field.characteristic else Fraction(1)
        piv_list = sorted(piv)
        for k, j in enumerate(free):
            basis[k, j] = one
            for row_idx, pc in enumerate(piv_list):
                basis[k, pc] = -r.a[row_idx, j]
        out = ExactMatrix._wrap(self.field, basis % self.field.characteristic if self.field.characteristic else basis)
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
        # Solve self.T @ X.T = rhs.T by eliminating the augmented matrix.
        at = self.T
        aug_a = np.concatenate([at.a, rhs.T.a], axis=1)
        aug = ExactMatrix(self.field, aug_a)
        r, piv = aug.rref()
        n_unknowns = self.rows
        sol = _empty(self.field, rhs.rows, n_unknowns)
        for row_idx, pc in enumerate(piv):
            if pc >= n_unknowns:
                return None  # pivot in augmented columns: inconsistent
            for j in range(rhs.rows):
                sol[j, pc] = r.a[row_idx, n_unknowns + j]
        return ExactMatrix(self.field, sol)

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


def _eliminate(p: int, a: np.ndarray):
    """Gauss-Jordan elimination of a copy of ``a`` with pinned pivoting:
    (reduced array, pivot columns)."""
    a = a.copy()
    a.flags.writeable = True
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        # rows r.. are zero left of column c, so only columns c.. change
        if p:
            a[r, c:] = (a[r, c:] * pow(int(a[r, c]), p - 2, p)) % p
            col = a[:, c].copy()
            col[r] = 0
            a[:, c:] = (a[:, c:] - np.outer(col, a[r, c:])) % p
        else:
            a[r, c:] = a[r, c:] * (Fraction(1) / a[r, c])
            col = a[:, c].copy()
            col[r] = Fraction(0)
            a[:, c:] = a[:, c:] - np.outer(col, a[r, c:])
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


# -- module-level operations ------------------------------------------------


def stack_rows(field: FieldSpec, mats) -> ExactMatrix:
    mats = [m for m in mats]
    if not mats:
        raise LinearAlgebraError("stack_rows of empty list")
    cols = mats[0].cols
    arrs = [m.a for m in mats if m.rows > 0]
    if not arrs:
        return ExactMatrix.zeros(field, 0, cols)
    return ExactMatrix(field, np.concatenate(arrs, axis=0))


def block_diag(field: FieldSpec, mats) -> ExactMatrix:
    mats = list(mats)
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = _empty(field, rows, cols)
    r = c = 0
    for m in mats:
        if m.rows and m.cols:
            out[r : r + m.rows, c : c + m.cols] = m.a
        r += m.rows
        c += m.cols
    return ExactMatrix(field, out)


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
    """Reduce each row of vecs modulo the RREF row space ``space``."""
    if space.rows == 0:
        return vecs
    r, piv = space.rref()
    out = vecs.a.copy()
    out.flags.writeable = True
    p = space.field.characteristic
    for row_idx, pc in enumerate(piv):
        coeff = out[:, pc].copy()
        if p:
            out = (out - np.outer(coeff, r.a[row_idx])) % p
        else:
            out = out - np.outer(coeff, r.a[row_idx])
    return ExactMatrix(space.field, out)
