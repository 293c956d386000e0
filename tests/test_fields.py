"""Exact linear algebra: pinned-pivot elimination, kernels, solving."""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from conftest import (
    dense_blocks,
    first_unequal_block_oracle,
    fraction_eliminate,
    fraction_matmul,
    reduce_rows_mod_loop,
)
from hypothesis import given
from hypothesis import strategies as st

from nangulator import fields
from nangulator.fields import (
    ExactMatrix,
    FieldSpec,
    LinearAlgebraError,
    SparseStack,
    block_diag,
    first_unequal_block,
    kron,
    left_kernel,
    left_products,
    reduce_rows_mod,
    row_space,
    solve_left,
    stack_rows,
    unequal_entries,
)

F3 = FieldSpec(3)
F5 = FieldSpec(5)
QQ = FieldSpec(0)


def mat(field, rows):
    return ExactMatrix(field, rows)


def test_field_spec_rejects_composite_characteristic():
    with pytest.raises(LinearAlgebraError):
        FieldSpec(6)
    assert FieldSpec(2).kind == "prime-field"
    assert QQ.kind == "rationals"


def test_field_spec_refuses_primes_that_could_overflow_int64():
    # (p - 1)^2 < 2^32 keeps int64 products exact; 2^31 - 1 wrapped silently
    for p in (2**31 - 1, 2**61 - 1, 2**16 + 1):
        with pytest.raises(LinearAlgebraError, match="too large"):
            FieldSpec(p)
    big = FieldSpec(65521)  # the largest prime below 2^16
    m = ExactMatrix(big, [[-1] * 4] * 4)
    assert (m @ m).a.tolist() == [[4] * 4] * 4


def test_kernel_of_identity_is_empty():
    assert left_kernel(ExactMatrix.identity(F3, 3)).rows == 0


def test_kernel_of_zero_is_identity():
    k = left_kernel(ExactMatrix.zeros(F3, 2, 2))
    assert k == ExactMatrix.identity(F3, 2)


def test_kernel_f3_matches_exhaustive_enumeration():
    # oracle: brute force over all 9 vectors of F_3^2
    m = mat(F3, [[1, 2], [2, 1]])
    brute = [v for v in product(range(3), repeat=2)
             if all((v[0] * m.a[0][c] + v[1] * m.a[1][c]) % 3 == 0
                    for c in range(2))
             and any(v)]
    k = left_kernel(m)
    # the enumeration finds the span of (1, 1): det = 1 - 4 = 0 in F_3
    assert len(brute) == 2  # (1,1) and (2,2)
    assert k.rows == 1
    assert k.tolist() == [[1, 1]]


def test_solve_identity_returns_rhs():
    b = mat(F5, [[1, 2, 3]])
    assert solve_left(ExactMatrix.identity(F5, 3), b) == b


def test_solve_zero_with_nonzero_rhs_is_inconsistent():
    zero = ExactMatrix.zeros(F5, 2, 2)
    assert solve_left(zero, mat(F5, [[1, 0]])) is None
    assert left_kernel(zero).rows == 2


def test_solve_random_4x3_cross_checked_against_exhaustive_search():
    # oracle: exhaustive search over F_5^4
    rng = np.random.RandomState(11)
    a = mat(F5, rng.randint(0, 5, size=(4, 3)))
    b = mat(F5, [[1, 4, 2]])
    sol = solve_left(a, b)
    brute = [v for v in product(range(5), repeat=4)
             if all(sum(v[r] * int(a.a[r][c]) for r in range(4)) % 5
                    == int(b.a[0][c]) for c in range(3))]
    if sol is None:
        assert brute == []
    else:
        assert (sol @ a) == b
        assert tuple(int(x) for x in sol.a[0]) in brute


def test_rationals_are_exact():
    a = mat(QQ, [[1, 2], [3, 4]])
    inv = a.inv()
    assert (inv @ a) == ExactMatrix.identity(QQ, 2)
    assert inv.a[0, 0] == Fraction(-2)


def test_inverse_roundtrip_f5():
    a = mat(F5, [[1, 2, 0], [0, 1, 3], [2, 0, 1]])
    assert (a.inv() @ a) == ExactMatrix.identity(F5, 3)
    assert (a @ a.inv()) == ExactMatrix.identity(F5, 3)


def test_singular_matrix_has_no_inverse():
    with pytest.raises(LinearAlgebraError):
        mat(F3, [[1, 2], [2, 1]]).inv()


small_entries = st.integers(min_value=0, max_value=4)


@st.composite
def f5_matrix(draw, max_dim=5):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(small_entries, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return mat(F5, rows)


@given(f5_matrix())
def test_rank_nullity(m):
    assert m.rank() + left_kernel(m).rows == m.rows


@given(f5_matrix())
def test_kernel_annihilates(m):
    k = left_kernel(m)
    if k.rows:
        assert (k @ m).is_zero()


@given(f5_matrix())
def test_rref_is_idempotent(m):
    r, piv = m.rref()
    r2, piv2 = r.rref()
    assert r == r2 and piv == piv2


@given(f5_matrix(), st.lists(small_entries, min_size=1, max_size=5))
def test_solutions_verify_by_substitution(m, xs):
    x = mat(F5, [xs[: m.rows] + [0] * max(0, m.rows - len(xs))])
    b = x @ m
    sol = solve_left(m, b)
    assert sol is not None
    assert (sol @ m) == b


def test_determinism_same_bits():
    a = mat(F5, [[1, 2, 3], [4, 0, 1], [2, 2, 2], [0, 1, 0]])
    r1 = a.rref()
    r2 = ExactMatrix(F5, a.a.copy()).rref()
    assert r1[0] == r2[0] and r1[1] == r2[1]
    assert a.digest() == ExactMatrix(F5, a.a.copy()).digest()


@given(st.lists(st.lists(small_entries, min_size=2, max_size=2),
                min_size=3, max_size=3),
       st.lists(small_entries, min_size=2, max_size=2))
def test_no_solution_confirmed_by_exhaustive_search(rows, rhs):
    # when the solver reports no solution, brute force over F_5^3 agrees
    m = mat(F5, rows)
    b = mat(F5, [rhs])
    sol = solve_left(m, b)
    brute = [v for v in product(range(5), repeat=3)
             if all(sum(v[r] * int(m.a[r][c]) for r in range(3)) % 5
                    == int(b.a[0][c]) for c in range(2))]
    if sol is None:
        assert brute == []
    else:
        assert brute != []


def _random_matrices(field, rng):
    """Seeded random matrices over ``field``: dense and sparse ones, some with
    zero or repeated rows, the zero matrix, and 0 x n and n x 0 shapes."""
    p = field.characteristic

    def entry(density):
        if rng.random() > density:
            return 0
        return rng.randrange(p) if p else Fraction(rng.randrange(-4, 5),
                                                    rng.randrange(1, 4))

    out = [ExactMatrix.zeros(field, 0, 4), ExactMatrix.zeros(field, 3, 0),
           ExactMatrix.zeros(field, 0, 0), ExactMatrix.zeros(field, 4, 5)]
    for _ in range(40):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        density = rng.choice((0.3, 0.7, 1.0))
        a = [[entry(density) for _ in range(cols)] for _ in range(rows)]
        if rows > 2 and rng.random() < 0.5:
            a[rng.randrange(rows)] = [0] * cols
            a[rng.randrange(rows)] = list(a[0])
        out.append(ExactMatrix(field, a))
    return out


@pytest.mark.parametrize("p", [5, 0])
def test_row_space_keeps_only_its_basis_rows(p):
    # a kept basis holds no larger array: on rank-deficient inputs its rows
    # are an array of their own, not a view of the whole reduced matrix
    field = FieldSpec(p)
    inputs = _random_matrices(field, random.Random(p))
    inputs += [stack_rows(field, [x, x]) for x in inputs if x.rows]
    deficient = [x for x in inputs if x.rank() < x.rows]
    assert len(deficient) > 10
    for x in deficient:
        basis = row_space(x)
        assert basis.rows == x.rank() and basis == row_space(basis)
        assert basis.n.base is None or basis.n.base.shape == basis.shape


@pytest.mark.parametrize("p", [2, 3, 5, 7, 0])
def test_reduced_matrices_match_a_fresh_elimination(p, monkeypatch):
    import random

    from nangulator import fields
    from nangulator.fields import row_space

    field = FieldSpec(p)
    for x in _random_matrices(field, random.Random(p)):
        fresh, fresh_piv = ExactMatrix(field, x.a).rref()
        r, piv = x.rref()
        basis = row_space(x)
        assert piv == fresh_piv and r == fresh
        assert basis == fresh.take_rows(range(len(fresh_piv)))
        # the reduced matrices answer rref() themselves, with no elimination
        with monkeypatch.context() as patched:
            patched.setattr(fields, "_eliminate", None)
            assert r.rref() == (r, fresh_piv)
            assert basis.rref() == (basis, fresh_piv)
            assert r.rank() == basis.rank() == len(fresh_piv)
        # anything derived from them is eliminated afresh
        derived = [ExactMatrix(field, r), basis.take_rows(range(basis.rows)),
                   basis.T, r + r, r @ ExactMatrix.identity(field, r.cols)]
        for d in derived:
            assert d._pivots is None
            assert d.rref() == ExactMatrix(field, d.a).rref()


def _nonzeros(a):
    """The input of ``fields._eliminate`` for the 2-d array a: the keys
    i . cols + j of its nonzeros and their values, ascending, or column by
    column (keys not ascending) when a is a transposed view."""
    if a.flags.c_contiguous:
        i, j = np.nonzero(a)
    else:
        j, i = np.nonzero(a.T)
    return i * a.shape[1] + j, a[i, j]


def _full_width_eliminate(p, a):
    """Gauss-Jordan elimination that updates every column at each pivot:
    the elimination ``fields._eliminate`` did before it skipped the columns
    left of the pivot, kept as an oracle."""
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
        if p:
            a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
            col = a[:, c].copy()
            col[r] = 0
            a = (a - np.outer(col, a[r])) % p
        else:
            a[r] = a[r] * (Fraction(1) / a[r, c])
            col = a[:, c].copy()
            col[r] = Fraction(0)
            a = a - np.outer(col, a[r])
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 0])
def test_rref_matches_full_width_elimination(p):
    import random

    field = FieldSpec(p)
    for x in _random_matrices(field, random.Random(100 + p)):
        want, want_piv = _full_width_eliminate(p, x.a)
        r, piv = x.rref()
        assert piv == want_piv
        assert r == ExactMatrix(field, want)


def _sized_array(p, rows, cols, kind, rng):
    """A seeded rows x cols array over F_p (int64) or Q (p = 0, Fraction
    objects).  "dense": entries near p - 1 over F_p, numerators above 2^63
    over Q; "sparse": 3 % of the entries nonzero and a third of the columns
    zero; "low rank": a product through 3 columns."""
    def entry():
        if p:
            return rng.choice((p - 1, p - 2, rng.randrange(p)))
        return Fraction(rng.randrange(-(1 << 70), 1 << 70),
                        rng.choice((1, 3, 1 << 65)))

    zero = 0 if p else Fraction(0)
    if kind == "low rank":
        left = _sized_array(p, rows, 3, "dense", rng)
        right = _sized_array(p, 3, cols, "dense", rng)
        return (left @ right) % p if p else left @ right
    if kind == "dense":
        a = [[entry() for _ in range(cols)] for _ in range(rows)]
    else:
        dead = set(rng.sample(range(cols), cols // 3))
        a = [[entry() if j not in dead and rng.random() < 0.03 else zero
              for j in range(cols)] for _ in range(rows)]
    return np.array(a, dtype=np.int64 if p else object).reshape(rows, cols)


# wide matrices of a few rows and square ones, of 1,600 to 6,000 cells
_SIZED = [(3, 1000), (40, 40), (3, 2000), (70, 70)]


@pytest.mark.parametrize("kind", ["dense", "sparse", "low rank"])
@pytest.mark.parametrize("shape", _SIZED)
@pytest.mark.parametrize("p", [2, 65521])
def test_both_prime_field_paths_match_full_width_elimination(p, shape, kind):
    # the oracle's reduced form and pivots, as int64 residues over d = 1,
    # with the input left alone
    a = _sized_array(p, *shape, kind, random.Random(f"{p}{shape}{kind}"))
    before = a.copy()
    want, want_piv = _full_width_eliminate(p, a)
    assert kind != "low rank" or len(want_piv) <= 3
    got, d, piv = fields._eliminate(p, a.shape, *_nonzeros(a))
    assert d == 1
    assert piv == want_piv
    assert got.dtype == np.int64 and got.shape == a.shape
    assert np.array_equal(got, want)
    assert np.array_equal(a, before)
    r, piv = ExactMatrix(FieldSpec(p), a).rref()
    assert piv == want_piv and np.array_equal(r.a, want)


@st.composite
def eliminate_inputs(draw):
    """(p, integer array) for ``fields._eliminate`` over F2, F5, F65521 or
    Q (p = 0, Python ints, some above 2^63): up to 6 x 6 with 0 x n and
    n x 0, drawn random, zero, of rank at most 2 below more rows (every row
    dependent on the others), or with duplicate rows; half of them a
    transposed, non-contiguous view, whose nonzeros ``_nonzeros`` gives
    column by column."""
    p = draw(st.sampled_from([2, 5, 65521, 0]))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    value = (st.integers(1, p - 1) if p else
             st.integers(-3, 3) | st.integers(-(1 << 70), 1 << 70))
    entry = st.just(0) | value
    line = st.lists(entry, min_size=cols, max_size=cols)
    kind = draw(st.sampled_from(["random", "zero", "dependent", "duplicate"]))
    if kind == "zero":
        a = [[0] * cols for _ in range(rows)]
    elif kind == "dependent":
        base = [draw(line), draw(line)]
        a = []
        for _ in range(rows):
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            a.append([s * x + t * y for x, y in zip(*base)])
    else:
        a = draw(st.lists(line, min_size=rows, max_size=rows))
        if kind == "duplicate" and rows > 1:
            a = [a[draw(st.integers(0, i))] for i in range(rows)]
    if p:
        a = [[x % p for x in row] for row in a]
    dtype = np.int64 if p else object
    if draw(st.booleans()):
        flat = [a[i][j] for j in range(cols) for i in range(rows)]
        return p, np.array(flat, dtype).reshape(cols, rows).T
    flat = [x for row in a for x in row]
    return p, np.array(flat, dtype).reshape(rows, cols)


@given(eliminate_inputs())
def test_eliminate_matches_full_width_elimination(case):
    p, a = case
    before = a.copy()
    want, want_piv = _full_width_eliminate(p, a)
    want = ExactMatrix(FieldSpec(p), want)  # in lowest terms over Q
    key, values = _nonzeros(a)
    got, d, piv = fields._eliminate(p, a.shape, key, values)
    assert piv == want_piv
    assert got.shape == a.shape and got.dtype == want.n.dtype
    assert d == want.d and got.tolist() == want.n.tolist()
    assert all(type(x) is int for x in got.ravel().tolist())
    assert [key.tolist(), values.tolist()] == [x.tolist() for x in _nonzeros(a)]
    assert np.array_equal(a, before)
    # the nonzero rows only, and the transpose read off the same keys
    basis, _, _ = fields._eliminate(p, a.shape, key, values, basis=True)
    assert basis.tolist() == got[: len(piv)].tolist()
    want_t, want_piv_t = _full_width_eliminate(p, a.T)
    want_t = ExactMatrix(FieldSpec(p), want_t)
    got_t, d_t, piv_t = fields._eliminate(p, a.shape, key, values,
                                          transposed=True)
    assert piv_t == want_piv_t and d_t == want_t.d
    assert got_t.tolist() == want_t.n.tolist()


@pytest.mark.parametrize("p", [2, 5, 65521, 0])
def test_solve_left_matches_the_oracle_on_sparse_systems(p):
    # X m = rhs for sparse m with a third of its columns zero, so that a
    # dense random right-hand side is inconsistent and x m is not
    field = FieldSpec(p)
    rng = random.Random(500 + p)

    def matrix(rows, cols, kind):
        return ExactMatrix(field, _sized_array(p, rows, cols, kind, rng))

    outcomes = []
    for _ in range(12):
        m = matrix(rng.randrange(1, 40), rng.randrange(1, 40), "sparse")
        x = matrix(2, m.rows, "dense")
        for rhs in (x @ m, matrix(2, m.cols, "dense")):
            want = _oracle_solve_left(m.a, rhs.a, p)
            got = solve_left(m, rhs)
            outcomes.append(want is None)
            if want is None:
                assert got is None
            else:
                assert got == ExactMatrix(field, want) and got @ m == rhs
    assert True in outcomes and False in outcomes


@pytest.mark.parametrize("p", [2, 5, 65521, 0])
def test_solve_left_and_left_kernel_read_one_matrix_stacks(p):
    # hom systems reach both as one-matrix stacks: the answers are those of
    # the dense matrix, and hold against a fresh elimination, the oracle
    # and substitution; on 0 x n, n x 0 and zero matrices, zero rows, and
    # right-hand sides that x m gives, that are zero and that are random
    # (inconsistent where m has fewer independent columns)
    field = FieldSpec(p)
    rng = random.Random(900 + p)
    outcomes = set()
    for m in _random_matrices(field, rng):
        s = SparseStack.from_matrix(m, 1)
        kernel = left_kernel(s)
        assert kernel == left_kernel(m)
        assert kernel.rows == m.rows - m.rank() and kernel.cols == m.rows
        assert (kernel @ m).is_zero()
        fresh, piv = ExactMatrix(field, kernel.a).rref()
        assert kernel == fresh.take_rows(range(len(piv)))

        def rows(count, cols):
            return ExactMatrix(field, np.array(
                [[field.random(rng) for _ in range(cols)]
                 for _ in range(count)], dtype=object).reshape(count, cols))

        for rhs in (rows(2, m.rows) @ m, ExactMatrix.zeros(field, 1, m.cols),
                    rows(2, m.cols)):
            want = _oracle_solve_left(m.a, rhs.a, p)
            got = solve_left(s, rhs)
            assert got == solve_left(m, rhs)
            outcomes.add(want is None)
            if want is None:
                assert got is None
            else:
                assert got == ExactMatrix(field, want) and got @ m == rhs
    assert outcomes == {True, False}


def test_rational_memory_charge_covers_what_is_stored(monkeypatch):
    # numerators outside CPython's small-int cache are ints of their own:
    # the guard's charge for the matrix is at least the bytes its storage
    # is traced at, and less than twice them
    import re
    import tracemalloc

    data = [[Fraction(1000 + 61 * i + j, 3) for j in range(60)]
            for i in range(50)]
    tracemalloc.start()
    try:
        m = ExactMatrix(QQ, data)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert m.d == 3 and min(m.n.ravel().tolist()) > 256
    monkeypatch.setattr(fields, "MEMORY_BOUND", 0)
    with pytest.raises(fields.ResourceBoundExceeded) as raised:
        fields.check_memory(QQ, m.rows * m.cols, "the entries")
    charge = int(re.search(r"estimated (\d+) bytes", str(raised.value))[1])
    assert traced <= charge < 2 * traced


def test_sparse_elimination_holds_less_than_the_dense_input():
    # a seeded F5 matrix of the shape and density of the largest hom system
    # of a Pi(A4) verify (3,360 x 1,424, 0.05 % nonzero), given by its
    # nonzeros: what elimination holds besides its dense result, the sparse
    # rows above all, stays below the bytes of the dense matrix
    import tracemalloc

    rng = np.random.default_rng(5)
    a = np.zeros((3360, 1424), np.int64)
    at = rng.choice(a.size, size=round(a.size * 0.0005), replace=False)
    a.ravel()[at] = rng.integers(1, 5, size=at.size)
    key, values = _nonzeros(a)
    tracemalloc.start()
    try:
        n, _, _ = fields._eliminate(5, a.shape, key, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - n.nbytes < a.nbytes, f"peak {peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("shape, kind", [
    ((3, 1000), "dense"), ((3, 2000), "dense"), ((40, 40), "sparse"),
    ((70, 70), "sparse"), ((70, 70), "low rank")])
def test_rational_elimination_of_large_matrices_matches_the_fraction_oracle(
        shape, kind):
    a = _sized_array(0, *shape, kind, random.Random(f"{shape}{kind}"))
    want, want_piv = fraction_eliminate(a)
    r, piv = ExactMatrix(QQ, a).rref()
    assert piv == want_piv
    _same_fractions(r, want)


@pytest.mark.parametrize("p", [7, 0])
def test_kron_matches_numpy_kron(p):
    rng = random.Random(300 + p)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 4), (2, 3), (3, 3), (10, 10)]
    field = FieldSpec(p)
    for sa, sb in product(shapes, repeat=2):
        a, b = (_sized_array(p, *s, "dense", rng) for s in (sa, sb))
        got, want = kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tolist() == want.tolist()
        m = ExactMatrix(field, a).kron(ExactMatrix(field, b))
        assert m == ExactMatrix(field, want)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 0])
def test_reduce_rows_mod_matches_one_subtraction_per_pivot(p):
    field = FieldSpec(p)
    rng = random.Random(200 + p)
    mats = _random_matrices(field, rng)
    for space, vecs in zip(mats, mats[1:]):
        if space.cols != vecs.cols:
            vecs = ExactMatrix(field, [[rng.randrange(p or 9) for _ in range(space.cols)]
                                       for _ in range(3)])
        basis = row_space(space)
        got = reduce_rows_mod(basis, vecs)
        assert got == reduce_rows_mod_loop(basis, vecs)
        assert got.take_cols(basis.rref()[1]).is_zero()


# -- rationals on integer numerators ------------------------------------------

_BIG = 1 << 70
q_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, 1 << 66)),
)


@st.composite
def q_matrix(draw, rows=None, cols=None, max_dim=4):
    """A rational matrix: small fractions with non-unit denominators,
    numerators and denominators above 2^63, zero entries, a repeated row;
    sometimes the zero matrix, and 0 x n or n x 0 when drawn so."""
    rows = draw(st.integers(0, max_dim)) if rows is None else rows
    cols = draw(st.integers(0, max_dim)) if cols is None else cols
    if rows == 0 or cols == 0 or draw(st.integers(0, 7)) == 0:
        return ExactMatrix.zeros(QQ, rows, cols)
    a = draw(st.lists(st.lists(q_entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if rows > 1 and draw(st.booleans()):
        a[-1] = [x * 3 for x in a[0]]
    return mat(QQ, a)


def _same_fractions(got: ExactMatrix, want):
    """got holds Fraction entries equal to want's, with the same digest."""
    want = np.asarray(want, dtype=object).reshape(got.shape)
    assert all(type(x) is Fraction for x in got.a.flat)
    assert got.a.tolist() == want.tolist()
    assert got.digest() == ExactMatrix(QQ, want).digest()


def _oracle_solve_left(m, rhs, p=0):
    """The back-substitution solution of X m = rhs from the elimination of
    the augmented matrix, by ``fraction_eliminate`` over Q and by
    ``_full_width_eliminate`` over F_p, or None if inconsistent."""
    n = m.shape[0]
    aug = np.concatenate([m.T, rhs.T], axis=1)
    r, piv = _full_width_eliminate(p, aug) if p else fraction_eliminate(aug)
    if piv and piv[-1] >= n:
        return None
    sol = np.empty((rhs.shape[0], n), dtype=object)
    sol[...] = Fraction(0) if not p else 0
    for row_idx, pc in enumerate(piv):
        sol[:, pc] = r[row_idx, n:]
    return sol


@given(q_matrix())
def test_rational_rref_matches_fraction_elimination(m):
    want, want_piv = fraction_eliminate(m.a)
    r, piv = ExactMatrix(QQ, m.a).rref()
    assert piv == want_piv
    _same_fractions(r, want)


@given(st.data())
def test_rational_product_matches_object_product(data):
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b = data.draw(q_matrix(r, k)), data.draw(q_matrix(k, c))
    _same_fractions(a @ b, fraction_matmul(a.a, b.a))
    # a second product on the stored numerators of the first
    _same_fractions((a @ b) @ b.T, fraction_matmul(fraction_matmul(a.a, b.a), b.a.T))


@given(st.data())
def test_kept_numerators_are_over_the_least_common_denominator(data):
    # equality and digests compare the stored (n, d), so every operation,
    # cut and placement must store them in their one lowest form
    from conftest import numerators

    from nangulator.fields import block_diag, place, stack_cols, stack_rows

    r, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a, b = data.draw(q_matrix(r, c)), data.draw(q_matrix(r, c))
    c_ = data.draw(q_entries)
    results = [a @ b.T, a + b, a - b, -a, a.scale(c_), a.kron(b), a.T,
               a.reshape(c, r), a.row(0), a.take_rows([r - 1]),
               a.take_rows(range(r - 1, r)), a.take_cols([0]),
               a.take_cols(range(c - 1)), (a @ b.T).take_cols([0]),
               *(a.row(i) for i in range(r)), stack_rows(QQ, [a, b]),
               stack_cols(QQ, [a, b]), block_diag(QQ, [a, b]),
               place(QQ, (r + 2, 2 * c), [([r + 1, 0][:r], c, a.take_rows(
                   range(min(r, 2)))), (0, [0][:c], b.take_cols([0][:c]))]),
               ExactMatrix.identity(QQ, r)]
    for m in results:
        fresh_n, fresh_d = numerators(m.a)
        assert m.d == fresh_d and m.n.tolist() == fresh_n.tolist()
        assert m == ExactMatrix(QQ, m.a)
        assert m.digest() == ExactMatrix(QQ, m.a).digest()


def test_module_stacks_over_q_are_in_lowest_terms():
    # the stacks that direct_sum, dual_module and twisted_bimodule build
    # from other stacks without arithmetic, on a module with fractions: the
    # stored (v, d) of each, its dense row stack and every matrix of it
    from conftest import nakayama_text, numerators

    from nangulator.algebra import compute_basis, verify_automorphism
    from nangulator.modules import (
        Module, direct_sum, dual_module, projective_module, twisted_bimodule)
    from nangulator.quiver import parse_algebra

    A = compute_basis(parse_algebra(nakayama_text(2, 2, 0)))
    P = projective_module(A, 0)
    halves = Module(A, P.dim, {g: P.action[g].scale(Fraction(1, 2))
                               for g in A.generators})
    # the automorphism that halves one arrow (kQ_2/I_2 has no longer paths)
    arrow = A.radical_right_generators[0]
    sigma = verify_automorphism(A, ExactMatrix(QQ, [
        [Fraction(1, 2 if i == j == arrow else 1) if i == j else 0
         for j in range(A.dim)] for i in range(A.dim)]))
    twisted = twisted_bimodule(A, sigma).stack
    stacks = [direct_sum(A, [halves, P, halves])[0].stack,
              dual_module(halves).stack, twisted, halves.stack]
    assert halves.stack.d == twisted.d == 2
    for s in stacks:
        assert isinstance(s, SparseStack) and len(s.v)
        assert math.gcd(s.d, *s.v.tolist()) == 1 and all(s.v != 0)
        for m in [s.dense(), *(s.block(i) for i in range(s.count))]:
            fresh_n, fresh_d = numerators(m.a)
            assert m.d == fresh_d and m.n.tolist() == fresh_n.tolist()


@given(st.data())
def test_rational_solve_left_and_inv_match_the_fraction_oracle(data):
    m = data.draw(q_matrix())
    rhs = data.draw(q_matrix(data.draw(st.integers(0, 3)), m.cols))
    want = _oracle_solve_left(m.a, rhs.a)
    got = solve_left(m, rhs)
    if want is None:
        assert got is None
    else:
        _same_fractions(got, want)
        assert got @ m == rhs
    if m.rows == m.cols:
        want_inv = _oracle_solve_left(m.a, ExactMatrix.identity(QQ, m.rows).a)
        if want_inv is None:
            with pytest.raises(LinearAlgebraError):
                m.inv()
        else:
            _same_fractions(m.inv(), want_inv)


def test_rational_products_past_the_int64_bound_stay_exact():
    # entries that fit int64 whose products or sums do not
    for x in (1 << 31, 1 << 32, 3037000500, (1 << 62) + 1):
        a = mat(QQ, [[x, x], [x, -x]])
        b = mat(QQ, [[x, 1], [x, Fraction(1, 3)]])
        _same_fractions(a @ b, fraction_matmul(a.a, b.a))
        _same_fractions(a.kron(b), np.kron(a.a, b.a))
        want, _ = fraction_eliminate(np.concatenate([a.a, b.a], axis=1))
        _same_fractions(ExactMatrix(QQ, np.concatenate([a.a, b.a], axis=1))
                        .rref()[0], want)


def test_integer_valued_rationals_need_no_fraction_arithmetic(monkeypatch):
    rng = random.Random(13)
    rows = [[rng.randrange(-3, 4) for _ in range(6)] for _ in range(5)]
    rows[4] = [2 * x - y for x, y in zip(rows[0], rows[1])]
    a = mat(QQ, rows)
    b = mat(QQ, [[rng.randrange(-3, 4) for _ in range(4)] for _ in range(6)])
    want_product = fraction_matmul(a.a, b.a)
    want_rref, want_piv = fraction_eliminate(a.a)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic")

    with monkeypatch.context() as patched:
        patched.setattr(Fraction, "__mul__", refuse)
        patched.setattr(Fraction, "__add__", refuse)
        with pytest.raises(AssertionError):
            Fraction(1, 2) * Fraction(2, 3)
        product_ = ExactMatrix(QQ, a.a) @ ExactMatrix(QQ, b.a)
        r, piv = ExactMatrix(QQ, a.a).rref()
    _same_fractions(product_, want_product)
    assert piv == want_piv
    _same_fractions(r, want_rref)


def test_matrices_cut_from_larger_ones_compare_and_multiply_exactly():
    # kept numerators are over the least common denominator, also on a cut
    # that needs a smaller one than the matrix it is cut from
    m = mat(QQ, [[Fraction(1, 2), Fraction(1, 3)], [1, -1]])
    assert m.d == 6
    cuts = [m.take_rows([1]), m.row(1), m.T.T.take_rows([1]),
            m.T.take_cols([1]).T, m.reshape(1, 4).take_cols([2, 3])]
    fresh = mat(QQ, [[1, -1]])
    for cut in cuts:
        assert cut.d == 1
        assert cut == fresh and fresh == cut
        assert cut != mat(QQ, [[1, 1]])
        _same_fractions(cut @ m, fraction_matmul(fresh.a, m.a))
        _same_fractions(cut - fresh, np.zeros((1, 2), dtype=int) + Fraction(0))
        _same_fractions(cut.scale(Fraction(3, 4)) + m.row(0),
                        [[Fraction(3, 4) + Fraction(1, 2),
                          Fraction(-3, 4) + Fraction(1, 3)]])
    # integer numerators are carried into cuts
    z = mat(QQ, [[1, 2], [3, -4]])
    assert z.d == 1
    assert z.T.take_cols([1]).n.tolist() == [[3], [-4]]
    assert z.reshape(4, 1).row(3).n.tolist() == [[-4]]


@pytest.mark.parametrize("seed", [1, 17, 65536])
@pytest.mark.parametrize("p", [5, 65521, 0])
def test_left_products_match_one_product_per_block(p, seed):
    # the batched product of a dense stack, and that of the same stack
    # stored sparse with and without a column cut, against one product per
    # block, cut afterwards
    field = FieldSpec(p)
    rng = random.Random(p + seed)

    def entry():
        if p:
            return rng.randrange(p)
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))

    def random_matrix(rows, cols):
        entries = [entry() for _ in range(rows * cols)]
        return ExactMatrix(field, np.array(entries, dtype=object).reshape(
            rows, cols))

    for k, n, c, blocks in [(3, 4, 6, 5), (1, 2, 2, 7), (0, 3, 2, 2),
                            (2, 0, 3, 4)]:
        x, stack = random_matrix(k, n), random_matrix(blocks * n, c)
        parts = dense_blocks(stack, blocks)
        sparse = SparseStack.from_matrix(stack, blocks)
        cols = [c - 1, 0] if c > 1 else []
        want = stack_rows(field, [x @ b for b in parts])
        assert left_products(x, stack, blocks) == want
        assert sparse.left(x).dense() == want
        want = stack_rows(field, [(x @ b).take_cols(cols) for b in parts])
        got = sparse.left(x, cols)
        assert got.dense() == want and got.shape == (blocks * k, len(cols))
    with pytest.raises(LinearAlgebraError, match="blockwise"):
        left_products(random_matrix(2, 3), random_matrix(7, 2), 2)


@pytest.mark.parametrize("p", [7, 0])
def test_unequal_entries_match_entrywise_comparison(p):
    # over Q also on numerators over different least common denominators
    field = FieldSpec(p)
    for x in _random_matrices(field, random.Random(p)):
        bump = np.zeros(x.shape, dtype=int)
        bump[:1, :1] = 1
        for y in (x, x.scale(2), x.scale(Fraction(1, 3) if not p else 3),
                  x + ExactMatrix(field, bump)):
            want = np.array([a != b for a, b in zip(x.a.ravel().tolist(),
                                                    y.a.ravel().tolist())],
                            dtype=bool).reshape(x.shape)
            assert np.array_equal(unequal_entries(x, y), want)


def test_only_fields_knows_the_storage_of_a_matrix():
    # the integer entries over one denominator stay behind ``fields``: no
    # other module of the package imports ``fractions`` or an underscore
    # name of ``fields``
    import ast
    import pathlib

    package = pathlib.Path(fields.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                offenders += [(path.name, a.name) for a in node.names
                              if a.name.split(".")[0] == "fractions"]
            elif isinstance(node, ast.ImportFrom):
                if node.module == "fractions":
                    offenders.append((path.name, "fractions"))
                elif node.module in ("fields", "nangulator.fields"):
                    offenders += [(path.name, a.name) for a in node.names
                                  if a.name.startswith("_")]
    assert offenders == []


# -- sparse stacks --------------------------------------------------------------

@st.composite
def sparse_case(draw):
    """(field, count, dense row stack) for a sparse stack: F2, F5 or Q, up
    to four blocks of up to 3 x 3, zero rows and columns among them, blocks
    left empty, mostly zero entries and, over Q, fractions with non-unit
    denominators."""
    p = draw(st.sampled_from([2, 5, 0]))
    field = FieldSpec(p)
    count, rows, cols = (draw(st.integers(0, n)) for n in (4, 3, 3))
    value = (st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
             if not p else st.integers(0, p - 1))
    entry = st.one_of(st.just(0), st.just(0), value)
    blocks = [[[draw(entry) for _ in range(cols)] for _ in range(rows)]
              if draw(st.booleans()) else [[0] * cols for _ in range(rows)]
              for _ in range(count)]
    flat = [row for b in blocks for row in b]
    dense = ExactMatrix(field, np.array(flat, dtype=object).reshape(
        count * rows, cols))
    return field, count, dense


def _random_over(field, rng, rows, cols):
    p = field.characteristic
    return ExactMatrix(field, np.array(
        [rng.choice([0, rng.randrange(p) if p else
                     Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))])
         for _ in range(rows * cols)], dtype=object).reshape(rows, cols))


@given(sparse_case(), st.integers(0, 1 << 16))
def test_sparse_stack_operations_match_dense(case, seed):
    # every operation of a sparse stack against the same operation on its
    # dense row stack
    field, count, big = case
    rng = random.Random(seed)
    s = SparseStack.from_matrix(big, count)
    rows, cols = s.rows, s.cols
    assert s.shape == big.shape and s.dense() == big
    assert len(s.key) == int(np.count_nonzero(big.n))
    blocks = dense_blocks(big, count)
    assert [s.block(i) for i in range(count)] == blocks
    assert list(s.sizes()) == [int(np.count_nonzero(b.n)) for b in blocks]
    # one content, one digest; other content, other digest
    again = SparseStack.from_matrix(ExactMatrix(field, big.a), count)
    assert again == s and again.digest() == s.digest()
    scaled = SparseStack.from_matrix(big.scale(2 if field.characteristic != 2
                                               else 0), count)
    assert (scaled == s) == (scaled.dense() == big)
    assert (scaled.digest() == s.digest()) == (scaled == s)
    # sums of groups, some empty or repeating a block
    groups = [rng.choices(range(count), k=rng.randrange(3)) if count else []
              for _ in range(rng.randrange(4))]
    want = [sum((blocks[i] for i in g), ExactMatrix.zeros(field, rows, cols))
            for g in groups]
    got = s.sums(groups)
    assert got.count == len(groups)
    assert [got.block(t) for t in range(len(groups))] == want
    # some of the matrices, in any order, some repeated or none
    picked = rng.choices(range(count), k=rng.randrange(4)) if count else []
    got = s.take(picked)
    assert got.count == len(picked)
    assert [got.block(t) for t in range(len(picked))] == [blocks[i]
                                                          for i in picked]
    # the transposed matrices
    flipped = s.T
    assert (flipped.count, flipped.rows, flipped.cols) == (count, cols, rows)
    assert [flipped.block(i) for i in range(count)] == [b.T for b in blocks]
    # the same rows of every block
    keep = sorted(rng.sample(range(rows), rng.randrange(rows + 1)))
    idx = [i * rows + r for i in range(count) for r in keep]
    kept = s.take_rows(keep)
    assert kept.rows == len(keep) and kept.dense() == big.take_rows(idx)
    # all three in normal form: keys ascending, no zero values, in lowest
    # terms
    for got in (got, flipped, kept):
        assert all(np.diff(got.key) > 0) and all(got.v != 0)
        assert math.gcd(got.d, *got.v.tolist()) == 1
    # products: S.F, x.S with and without a column cut, y.S_i
    f = _random_over(field, rng, cols, rng.randrange(4))
    assert (s @ f).dense() == big @ f
    x = _random_over(field, rng, rng.randrange(4), rows)
    cut = rng.sample(range(cols), rng.randrange(cols + 1))
    assert s.left(x).dense() == left_products(x, big, count)
    assert s.left(x, cut).dense() == \
        left_products(x, big, count).take_cols(cut)
    for i in range(count):
        assert s.row_product(x, i) == x @ blocks[i]
    # the first unequal block, of stacks over different denominators
    other = SparseStack.from_matrix(big + _random_over(field, rng, *big.shape),
                                    count)
    assert first_unequal_block(s, other) == first_unequal_block_oracle(
        big, other.dense(), count)
    assert first_unequal_block(s, s) is None
    if count and rows and cols:
        # only the last block differs, and over Q the denominators do too
        bump = ExactMatrix(field, [[Fraction(1, 7) if not field.characteristic
                                    else 1] * cols] * rows)
        last = SparseStack.from_matrix(
            stack_rows(field, blocks[:-1] + [blocks[-1] + bump]), count)
        assert first_unequal_block(s, last) == count - 1
    # block diagonals, Kronecker sums, products of pairs and the row space
    t = SparseStack.from_matrix(other.dense(), count)
    diag = SparseStack.diagonal(field, [s, t], count)
    assert [diag.block(i) for i in range(count)] == [
        block_diag(field, [blocks[i], t.block(i)]) for i in range(count)]
    if rows == cols:
        pairs = ([rng.randrange(count) for _ in range(3)],
                 [rng.randrange(count) for _ in range(3)]) if count else ([], [])
        ks = SparseStack.kron_sum(field, pairs, [(s, t), (t, s)])
        assert [ks.block(k) for k in range(len(pairs[0]))] == [
            block_diag(field, [blocks[a].kron(t.block(b)),
                               t.block(a).kron(blocks[b])])
            for a, b in zip(*pairs)]
        prods = SparseStack.products(pairs, s, t)
        assert [prods.block(k) for k in range(len(pairs[0]))] == [
            blocks[a] @ t.block(b) for a, b in zip(*pairs)]
    basis = row_space(s)
    assert basis == row_space(big) and basis.rref()[1] == row_space(big).rref()[1]


def test_first_unequal_block_compares_over_different_denominators():
    # block 0 is the same in both stacks, whose denominators are 1 and 7
    a = mat(QQ, [[1, 0], [0, 2], [3, 0], [0, 0]])
    b = mat(QQ, [[1, 0], [0, 2], [3, Fraction(1, 7)], [0, 0]])
    sa, sb = SparseStack.from_matrix(a, 2), SparseStack.from_matrix(b, 2)
    assert (sa.d, sb.d) == (1, 7)
    assert first_unequal_block(sa, sb) == first_unequal_block_oracle(a, b, 2) == 1
    assert first_unequal_block(sb, sb) is first_unequal_block_oracle(b, b, 2) is None
