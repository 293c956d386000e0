"""Exact linear algebra: pinned-pivot elimination, kernels, solving."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nangulator.fields import ExactMatrix, FieldSpec, LinearAlgebraError

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
    assert ExactMatrix.identity(F3, 3).left_kernel().rows == 0


def test_kernel_of_zero_is_identity():
    k = ExactMatrix.zeros(F3, 2, 2).left_kernel()
    assert k == ExactMatrix.identity(F3, 2)


def test_kernel_f3_matches_exhaustive_enumeration():
    # oracle: brute force over all 9 vectors of F_3^2
    m = mat(F3, [[1, 2], [2, 1]])
    brute = [v for v in product(range(3), repeat=2)
             if all((v[0] * m.a[0][c] + v[1] * m.a[1][c]) % 3 == 0
                    for c in range(2))
             and any(v)]
    k = m.left_kernel()
    # the enumeration finds the span of (1, 1): det = 1 - 4 = 0 in F_3
    assert len(brute) == 2  # (1,1) and (2,2)
    assert k.rows == 1
    assert k.tolist() == [[1, 1]]


def test_solve_identity_returns_rhs():
    b = mat(F5, [[1, 2, 3]])
    assert ExactMatrix.identity(F5, 3).solve_left(b) == b


def test_solve_zero_with_nonzero_rhs_is_inconsistent():
    zero = ExactMatrix.zeros(F5, 2, 2)
    assert zero.solve_left(mat(F5, [[1, 0]])) is None
    assert zero.left_kernel().rows == 2


def test_solve_random_4x3_cross_checked_against_exhaustive_search():
    # oracle: exhaustive search over F_5^4
    rng = np.random.RandomState(11)
    a = mat(F5, rng.randint(0, 5, size=(4, 3)))
    b = mat(F5, [[1, 4, 2]])
    sol = a.solve_left(b)
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
    assert m.rank() + m.left_kernel().rows == m.rows


@given(f5_matrix())
def test_kernel_annihilates(m):
    k = m.left_kernel()
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
    sol = m.solve_left(b)
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
    sol = m.solve_left(b)
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
