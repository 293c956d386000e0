"""Basis computation, structure constants, self-injectivity, automorphisms,
opposite and enveloping algebras."""

import json

import numpy as np
import pytest

from conftest import dense_enveloping, load_fixture

from nangulator.algebra import (
    AutomorphismError,
    NotFiniteDimensionalError,
    NotSelfInjectiveError,
    check_self_injective,
    compute_basis,
    verify_automorphism,
)
from nangulator.fields import ExactMatrix, left_kernel
from nangulator.quiver import parse_algebra


def make(text):
    return compute_basis(parse_algebra(text))


def test_truncated_polynomial_dimension():
    A, _ = load_fixture("loop_p3")
    assert A.dim == 2
    assert A.labels == ["e_1", "x"]


def test_nakayama_2_2_basis():
    A, _ = load_fixture("nakayama_2_2")
    assert A.dim == 4
    assert set(A.labels) == {"e_1", "e_2", "a1", "a2"}


@pytest.mark.parametrize("n,s", [(1, 2), (2, 2), (2, 3), (3, 4)])
def test_nakayama_dimension_is_n_times_s(n, s):
    A, _ = load_fixture(f"nakayama_{n}_{s}")
    assert A.dim == n * s
    # oracle: paths of length < s from each of the n vertices
    assert A.nilpotency == s


def test_free_loop_is_not_finite_dimensional():
    text = json.dumps({
        "field": 3,
        "vertices": ["1"],
        "arrows": [{"name": "x", "from": "1", "to": "1"}],
        "relations": [],
    })
    with pytest.raises(NotFiniteDimensionalError):
        make(text)


def test_associativity_exhaustive_on_fixtures():
    for name in ("loop_p3", "nakayama_2_2", "preproj_a3"):
        A, _ = load_fixture(name)
        A.verify_associativity()
        A.verify_idempotents()


def test_unit_is_sum_of_orthogonal_idempotents():
    A, _ = load_fixture("preproj_a3")
    u = A.unit()
    assert A.multiply(u, u) == u
    for i in A.idempotents:
        ei = ExactMatrix.zeros(A.field, 1, A.dim).a.copy()
        ei[0, i] = 1
        ei = ExactMatrix(A.field, ei)
        assert A.multiply(u, ei) == ei
        assert A.multiply(ei, u) == ei


def test_enveloping_dimension_and_associativity():
    A, _ = load_fixture("nakayama_2_2")
    env = dense_enveloping(A)
    assert env.dim == A.dim ** 2 == 16
    env.verify_associativity()  # all 16^3 triples
    env.verify_idempotents()
    assert len(env.idempotents) == 4


def test_enveloping_of_one_dimensional_algebra_is_the_field():
    A = make('{"field": 5, "vertices": ["1"], "arrows": [], "relations": []}')
    assert A.dim == 1
    assert A.enveloping().dim == 1


def test_enveloping_of_loop_has_dimension_four():
    A, _ = load_fixture("loop_p3")
    assert A.enveloping().dim == 4


def test_opposite_reverses_products():
    A, _ = load_fixture("preproj_a2")
    op = A.opposite()
    for i in range(A.dim):
        for j in range(A.dim):
            # b_i *op b_j equals b_j b_i computed in A
            assert op.right_mult[j].row(i) == A.left_mult(j).row(i)
    op.verify_associativity()


def test_identity_automorphism_accepted():
    A, _ = load_fixture("loop_p3")
    sigma = verify_automorphism(A, ExactMatrix.identity(A.field, A.dim))
    assert sigma.is_identity()


def test_loop_negation_automorphism_accepted():
    A, _ = load_fixture("loop_p3")
    # x -> -x: check (-x)^2 = x^2 = 0 and unitality
    mat = ExactMatrix(A.field, [[1, 0], [0, -1]])
    sigma = verify_automorphism(A, mat)
    assert sigma.matrix_order() == 2


def test_loop_unit_image_rejected_not_multiplicative():
    A, _ = load_fixture("loop_p3")
    # x -> e is not multiplicative: sigma(x^2) = 0 but sigma(x)^2 = e
    mat = ExactMatrix(A.field, [[1, 0], [1, 0]])
    with pytest.raises(AutomorphismError, match="singular|multiplicative"):
        verify_automorphism(A, mat)


def test_singular_matrix_rejected():
    A, _ = load_fixture("loop_p3")
    with pytest.raises(AutomorphismError, match="singular"):
        verify_automorphism(A, ExactMatrix.zeros(A.field, 2, 2))


def test_semisimple_nakayama_is_identity():
    A = make('{"field": 5, "vertices": ["1"], "arrows": [], "relations": []}')
    nk = check_self_injective(A)
    assert nk.permutation == (0,)


def test_nakayama_2_2_permutation_is_transposition():
    A, nk = load_fixture("nakayama_2_2")
    assert nk.permutation == (1, 0)


def test_hereditary_a2_not_self_injective():
    A, nk = load_fixture("a2_hereditary")
    assert nk is None
    with pytest.raises(NotSelfInjectiveError):
        check_self_injective(A)
    # oracle: direct injectivity test of the regular module fails, since the
    # socle types of the two projectives collide
    from nangulator.modules import projective_module
    socle_types = []
    for pos in range(2):
        P = projective_module(A, pos)
        stacked = [P.action[g].a for g in A.radical_right_generators]
        soc = left_kernel(ExactMatrix(A.field, np.concatenate(stacked, axis=1))) \
            if stacked else ExactMatrix.identity(A.field, P.dim)
        types = [t for t in range(2)
                 if not (soc @ P.action[A.idempotents[t]]).is_zero()]
        socle_types.append(tuple(types))
    assert socle_types[0] == socle_types[1] == (1,)


def test_preprojective_a3_nakayama_reverses():
    A, nk = load_fixture("preproj_a3")
    assert nk.permutation == (2, 1, 0)


def test_socles_of_self_injective_fixtures_are_one_dimensional():
    for name in ("loop_p5", "nakayama_3_3", "preproj_a2"):
        A, nk = load_fixture(name)
        assert nk is not None
        assert sorted(nk.permutation) == list(range(len(A.idempotents)))


def test_inadmissible_mixed_length_relation_rejected():
    # x^2 = x^3 makes the arrow ideal non-nilpotent (x^2 is a nonzero
    # idempotent-adjacent element); the nilpotency certificate reports it
    text = json.dumps({
        "field": 5,
        "vertices": ["1"],
        "arrows": [{"name": "x", "from": "1", "to": "1"}],
        "relations": [[{"coeff": 1, "path": ["x", "x"]},
                       {"coeff": -1, "path": ["x", "x", "x"]}]],
    })
    with pytest.raises(NotFiniteDimensionalError):
        compute_basis(parse_algebra(text), degree_bound=12)
