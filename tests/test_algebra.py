"""Basis computation, structure constants, self-injectivity, automorphisms,
opposite and enveloping algebras."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from conftest import (
    FIXTURES,
    associativity_oracle,
    dense_enveloping,
    load_fixture,
    nilpotency_oracle,
    preprojective_text,
)

from nangulator.algebra import (
    AutomorphismError,
    NotFiniteDimensionalError,
    NotSelfInjectiveError,
    check_self_injective,
    compute_basis,
    verify_automorphism,
)
from nangulator.cli import run_cli
from nangulator.fields import ExactMatrix, left_kernel
from nangulator.quiver import SemanticError, load_algebra_file, parse_algebra

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


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


def _checked_algebras():
    """The 15 fixtures, the five golden algebras, and Pi(A4) and Pi(D4)
    over F2, F5 and Q."""
    cases = [pytest.param(path, id=path.stem)
             for path in sorted(FIXTURES.glob("*.json"))]
    cases += [pytest.param(path, id=f"golden-{path.stem}")
              for path in sorted(GOLDEN.glob("*.algebra.json"))]
    cases += [pytest.param((kind, p), id=f"Pi({kind}4)-F{p}")
              for kind in "AD" for p in (2, 5, 0)]
    return cases


@pytest.mark.parametrize("source", _checked_algebras())
def test_generator_checks_agree_with_the_exhaustive_oracles(source):
    # compute_basis runs the generator checks; the oracles run the loops
    # over every basis triple, pair and radical element
    if isinstance(source, tuple):
        A = make(preprojective_text(source[0], 4, source[1]))
    else:
        A = compute_basis(load_algebra_file(source))
    associativity_oracle(A)
    A.verify_associativity()
    assert A.nilpotency == nilpotency_oracle(A)
    identity = ExactMatrix.identity(A.field, A.dim)
    assert verify_automorphism(A, identity).is_identity()


def _corrupted(A, entries):
    """A with the structure constants b_i b_j = value for (i, j, value) in
    ``entries``, everything derived from the table built afresh."""
    right = [m.a.copy() for m in A.right_mult]
    for i, j, value in entries:
        right[j][i] = value
    return dataclasses.replace(
        A, right_mult=[ExactMatrix(A.field, m) for m in right],
        _left_mult=None, _opposite=None, _enveloping=None)


def _off_generator_corruption(A):
    # in k[x]/(x^4) with basis 1, x, x^2, x^3: x . x^2 = 2 x^3, a product
    # with the non-generator x^2 (so (x x) x != x (x x))
    return _corrupted(A, [(1, 2, [0, 0, 0, 2])])


def _word_corruption(A):
    # in k[x]/(x^3) with basis 1, x, y = x^2: x . x = 0 and x . y = y.  Left
    # and right multiplications commute at the generators 1 and x, but y
    # is not x . x, its word, and (x x) y = 0 != y = x (x y)
    return _corrupted(A, [(1, 1, [0, 0, 0]), (1, 2, [0, 0, 1])])


@pytest.mark.parametrize("name, corrupt, failure", [
    ("nakayama_1_4", _off_generator_corruption, "and generator"),
    # the generator condition alone accepts this table
    ("nakayama_1_3", _word_corruption, "not the product along its word"),
], ids=["off-generator-triple", "word"])
def test_corrupted_tables_are_rejected_by_the_check_and_the_oracle(
        name, corrupt, failure):
    bad = corrupt(load_fixture(name)[0])
    with pytest.raises(SemanticError, match="associativity fails"):
        associativity_oracle(bad)
    with pytest.raises(SemanticError, match=f"associativity fails.*{failure}"):
        bad.verify_associativity()


@pytest.mark.parametrize("name, corrupt", [
    ("nakayama_1_4", _off_generator_corruption),
    ("nakayama_1_3", _word_corruption),
], ids=["off-generator-triple", "word"])
def test_cli_exits_two_on_a_corrupted_table(name, corrupt, monkeypatch,
                                            capsys):
    # compute_basis checks the idempotents, then associativity: corrupt the
    # table in between
    from nangulator.algebra import BasicAlgebra

    check = BasicAlgebra.verify_idempotents

    def corrupting(self):
        self.right_mult = corrupt(self).right_mult
        check(self)

    monkeypatch.setattr(BasicAlgebra, "verify_idempotents", corrupting)
    assert run_cli(["algebra", str(FIXTURES / f"{name}.json")]) == 2
    assert "associativity fails" in capsys.readouterr().err


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
    env.verify_associativity()  # at generators, along the words of A^e
    associativity_oracle(env)  # all 16^3 triples
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
