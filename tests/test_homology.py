"""Covers, hulls, resolutions, stable category operations."""

import random

import pytest
from conftest import (
    FIXTURES,
    commuting_square_oracle,
    hom_oracle,
    load_fixture,
    load_pipeline,
    member_of_row_space,
    nakayama_text,
    padded,
    resolution_chain,
    solve_from_projective_oracle,
    stable_inverse_oracle,
    stable_zero,
    verify_loop,
)

from nangulator.fields import ExactMatrix, left_kernel, row_space, stack_rows
from nangulator.homology import (
    Homology,
    cosyzygy_morphism,
    projective_cover,
    rank_exactness,
    syzygy,
)
from nangulator.modules import (
    cokernel_of,
    hom_space,
    identity_morphism,
    iso_test,
    projective_module,
    quotient,
    random_hom,
    standard_projective,
    zero_module,
    zero_morphism,
)


def simple_module(A, pos):
    P = projective_module(A, pos)
    rad = stack_rows(A.field, [P.action[j] for j in A.radical])
    S, _, _ = quotient(P, rad)
    return S


def engine(name):
    _, _, eng, _ = load_pipeline(name)
    return eng


def test_cover_of_projective_is_isomorphism():
    A, _ = load_fixture("nakayama_2_2")
    P = projective_module(A, 0)
    cover, pi = projective_cover(P)
    assert cover.dim == P.dim
    assert pi.matrix.is_invertible()


def test_cover_of_simple():
    A, _ = load_fixture("nakayama_2_2")
    S = simple_module(A, 0)
    cover, pi = projective_cover(S)
    assert cover.proj == (0,)
    k, inc, P, _ = syzygy(S)
    assert k.dim == 1


def test_cover_of_zero_module():
    A, _ = load_fixture("loop_p3")
    cover, pi = projective_cover(zero_module(A))
    assert cover.dim == 0


def test_cover_minimality_kernel_inside_radical():
    A, _ = load_fixture("preproj_a3")
    for pos in range(3):
        S = simple_module(A, pos)
        k, inc, P, pi = syzygy(S)
        rad = row_space(stack_rows(A.field,
                                   [P.action[j] for j in A.radical]))
        assert member_of_row_space(rad, inc.matrix)


def test_loop_syzygy_of_simple_is_simple():
    A, _ = load_fixture("loop_p3")
    S = simple_module(A, 0)
    k, _, P, _ = syzygy(S)
    assert P.dim == 2 and k.dim == 1
    assert iso_test(k, S) is not None


def test_hull_of_injective_is_isomorphism():
    eng = engine("nakayama_2_2")
    P = projective_module(eng.algebra, 0)  # projective = injective here
    I, iota = eng.injective_hull(P)
    assert I.dim == P.dim
    assert iota.matrix.is_invertible()


def test_hull_of_simple_uses_nakayama_permutation():
    eng = engine("nakayama_2_2")
    S2 = simple_module(eng.algebra, 1)
    I, iota = eng.injective_hull(S2)
    # soc(e_1 A) has type S_2, so the hull of S_2 is e_1 A
    assert I.proj == (0,)
    assert iota.rank() == iota.source.dim
    verify_loop(iota, exhaustive=True)


def test_hom_from_projective_does_not_depend_on_call_order():
    # P carries its decomposition; Q has the same contents without it, so the
    # two share a digest but reach Hom(-, N) by different routes
    A, nakayama = load_fixture("nakayama_2_2")
    P = standard_projective(A, [1, 0])
    Q = cokernel_of(zero_morphism(zero_module(A), P))[0]
    N = standard_projective(A, [0, 1, 1])
    assert Q.proj is None and Q.digest() == P.digest()
    results = []
    for order in ((P, Q), (Q, P)):
        eng = Homology(A, nakayama)
        homs = {id(m): eng.hom_from_projective(m, N) for m in order}
        results.append([[h.matrix for h in homs[id(m)]] for m in (P, Q)])
    assert results[0] == results[1]
    for basis in results[0]:
        assert basis


def test_hull_is_kept_per_module_contents(monkeypatch):
    # a second module with the same contents gets the kept hull: no dual
    # module is built again, and the map starts at the caller's module
    from nangulator import homology
    from nangulator.modules import Module

    A, nakayama = load_fixture("preproj_a3")
    eng = Homology(A, nakayama)
    S = simple_module(A, 1)
    I, iota = eng.injective_hull(S)
    twin = Module(A, S.dim, {g: S.action[g] for g in A.generators})
    assert twin is not S and twin.digest() == S.digest()

    def refuse(m):
        raise AssertionError("dual_module called again")

    monkeypatch.setattr(homology, "dual_module", refuse)
    I2, iota2 = eng.injective_hull(twin)
    assert I2 is I and iota2.source is twin and iota2.target is I
    assert iota2.matrix == iota.matrix
    verify_loop(iota2, exhaustive=True)
    # a module with other contents is not answered from the kept hull
    with pytest.raises(AssertionError, match="dual_module"):
        eng.injective_hull(simple_module(A, 0))


def test_hull_of_zero():
    eng = engine("loop_p3")
    I, iota = eng.injective_hull(zero_module(eng.algebra))
    assert I.dim == 0


def test_hull_is_essential_on_socles():
    eng = engine("preproj_a3")
    A = eng.algebra
    for pos in range(3):
        S = simple_module(A, pos)
        I, iota = eng.injective_hull(S)
        soc_stack = [I.action[g].a for g in A.radical_right_generators]
        import numpy as np

        soc_i = left_kernel(ExactMatrix(A.field,
                                        np.concatenate(soc_stack, axis=1)))
        # the socle of the hull is exactly the image of the socle of S
        assert soc_i.rows == 1
        assert member_of_row_space(row_space(iota.matrix), soc_i)


def test_resolution_exactness_and_determinism():
    eng = engine("nakayama_2_2")
    S = simple_module(eng.algebra, 0)
    res = eng.resolution(S, 4)
    assert rank_exactness(padded(resolution_chain(res, 4)))
    # the cache pins the resolution: same module content, same object
    S2 = simple_module(eng.algebra, 0)
    assert eng.resolution(S2, 4) is res


def test_rank_exactness_sees_a_non_mono_first_map_only_when_padded():
    eng = engine("nakayama_2_2")
    S = simple_module(eng.algebra, 0)
    P, pi = projective_cover(S)
    assert pi.rank() < pi.source.dim
    z = zero_module(eng.algebra)
    unpadded = [pi, zero_morphism(S, z)]
    assert rank_exactness(unpadded)
    assert not rank_exactness(padded(unpadded))


def test_loop_resolution_terms_are_regular():
    eng = engine("loop_p3")
    S = simple_module(eng.algebra, 0)
    res = eng.resolution(S, 4)
    for k in range(4):
        assert res.term(k).dim == 2
        assert iso_test(res.term(k), projective_module(eng.algebra, 0)) is not None


def test_periodic_euler_characteristic_vanishes():
    # alternating dim sum over one period of the resolution of a periodic
    # module is zero
    eng = engine("loop_p3")
    S = simple_module(eng.algebra, 0)
    res = eng.resolution(S, 2)
    assert res.cosyzygy(2).dim == S.dim
    assert S.dim - res.term(0).dim + res.term(1).dim - res.cosyzygy(2).dim == 0


def test_cosyzygy_inverts_syzygy_stably():
    eng = engine("nakayama_2_2")
    S = simple_module(eng.algebra, 0)
    k, _, _, _ = syzygy(S)
    I, iota, om, proj = eng.cosyzygy_step(k)
    assert iso_test(om, S) is not None


def test_factors_through_injective_examples():
    eng = engine("nakayama_2_2")
    A = eng.algebra
    S = simple_module(A, 0)
    P = projective_module(A, 0)
    assert stable_zero(eng, zero_morphism(S, S))
    # a map through the hull is stably zero by construction
    I, iota = eng.injective_hull(S)
    for h in hom_space(I, S):
        assert stable_zero(eng, iota.then(h))
    # the identity of a non-injective simple is not stably zero
    assert not stable_zero(eng, identity_morphism(S))
    # everything through a projective-injective is stably zero
    assert stable_zero(eng, identity_morphism(P))


def test_stable_equality_is_compatible_with_composition():
    eng = engine("nakayama_2_2")
    A = eng.algebra
    rng = random.Random(5)
    S = simple_module(A, 0)
    P = projective_module(A, 0)
    homs_ps = hom_space(P, S)
    homs_sp = hom_space(S, P)
    for _ in range(10):
        f = random_hom(rng, homs_ps)
        f2 = random_hom(rng, homs_ps)
        g = random_hom(rng, homs_sp)
        if eng.stable_equal(f, f2):
            assert eng.stable_equal(g.then(f), g.then(f2))


def test_stable_inverse_of_identity():
    eng = engine("nakayama_2_2")
    S = simple_module(eng.algebra, 0)
    g = eng.stable_inverse(identity_morphism(S))
    assert g is not None
    assert eng.stable_equal(g, identity_morphism(S))


def test_stable_inverse_rejects_zero_on_nonprojective():
    eng = engine("nakayama_2_2")
    S = simple_module(eng.algebra, 0)
    assert eng.stable_inverse(zero_morphism(S, S)) is None


def test_cosyzygy_morphism_of_identity_is_stable_identity():
    eng = engine("nakayama_2_2")
    S = simple_module(eng.algebra, 0)
    om_id = cosyzygy_morphism(eng, identity_morphism(S), 2)
    target = eng.resolution(S, 2).cosyzygy(2)
    assert om_id.source.dim == target.dim
    assert eng.stable_equal(om_id, identity_morphism(target))


def test_syzygy_of_projective_vanishes():
    A, _ = load_fixture("nakayama_2_2")
    k, _, _, _ = syzygy(projective_module(A, 0))
    assert k.dim == 0


def test_cosyzygy_method_matches_resolution():
    eng = engine("nakayama_2_2")
    S = simple_module(eng.algebra, 0)
    om = eng.resolution(S, 1).cosyzygy(1)
    assert om.dim == 1
    # the projective syzygy undoes it, up to isomorphism
    assert iso_test(syzygy(om)[0], S) is not None


@pytest.mark.parametrize("name, m", [
    ("preproj_a3", None),
    ("nakayama_3_3", 2),
    ("nakayama_2_3", 2),
    ("kq2_i2_q", 3),     # kQ_2/I_2 over Q
])
def test_solve_from_projective_matches_oracle_on_every_verify_call(
        name, m, monkeypatch, capsys, tmp_path):
    # every hom system of a verify run, with the arguments the ladder, fills,
    # stable checks and square draws pass, against the per-element hom bases
    # and the system expanded on all rows
    import nangulator.axioms
    from nangulator.cli import run_cli

    calls, mismatches = [], []
    solve = Homology.solve_from_projective
    inverse = Homology.stable_inverse
    square = nangulator.axioms.sample_commuting_square

    def check(kind, got, want):
        if (got is None) != (want is None) or (
                got is not None and got != want):
            mismatches.append((kind, len(calls)))
        calls.append(kind)

    def checking_solve(engine, p, n, constraints):
        got = solve(engine, p, n, constraints)
        want = solve_from_projective_oracle(engine, p, n, constraints)
        check("solve", got and got.matrix, want and want.matrix)
        check("basis", [h.matrix for h in engine.hom_from_projective(p, n)],
              [h.matrix for h in hom_oracle(engine, p, n)])
        return got

    def checking_inverse(engine, f):
        got = inverse(engine, f)
        want = stable_inverse_oracle(engine, f)
        check("stable_inverse", got and got.matrix, want and want.matrix)
        return got

    def checking_square(engine, x, y, rng):
        twin = random.Random()
        twin.setstate(rng.getstate())
        got = square(engine, x, y, rng)
        want = commuting_square_oracle(engine, x, y, twin)
        check("square", [phi.matrix for phi in got], want)
        check("draws", rng.getstate(), twin.getstate())
        return got

    monkeypatch.setattr(Homology, "solve_from_projective", checking_solve)
    monkeypatch.setattr(Homology, "stable_inverse", checking_inverse)
    monkeypatch.setattr(nangulator.axioms, "sample_commuting_square",
                        checking_square)
    path = FIXTURES / f"{name}.json"
    if name == "kq2_i2_q":
        path = tmp_path / f"{name}.json"
        path.write_text(nakayama_text(2, 2, 0))
    argv = ["verify", str(path), "--samples", "3", "--seed", "5"]
    assert run_cli(argv + (["--m", str(m)] if m else [])) == 0
    assert calls.count("solve") > 20
    assert calls.count("stable_inverse") and calls.count("square") == 3
    assert mismatches == []
