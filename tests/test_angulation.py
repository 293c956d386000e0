"""The suspended-sequence machinery: suspension, functor sequences, standard
angles, comparison isomorphisms, rotations, completions, fills, cones and
contractibility."""

import random
from dataclasses import replace

import pytest

from conftest import (
    bimodule_chain,
    contractible_test,
    load_pipeline,
    load_sequence,
    multiply_out_of_tensor,
    oracle_sequence,
    padded,
    periodic_homotopy,
    quotient_to_direct,
    stable_zero,
    verify_loop,
)

from nangulator.angulation import (
    AngleSequence,
    certify_angle,
    canonical_comparison,
    complete_morphism,
    direct_sum_angles,
    fill_morphism,
    good_fill_and_cone,
    is_exact,
    mapping_cone,
    angle_functor_morphism,
    rotate,
    standard_angle,
    suspension,
    trivial_angle,
)
from nangulator.fields import ExactMatrix, left_kernel, solve_left, stack_rows
from nangulator.homology import cosyzygy_morphism, rank_exactness
from nangulator.modules import (
    ModuleMorphism,
    hom_space,
    identity_morphism,
    iso_test,
    kernel_of,
    projective_module,
    quotient,
    random_hom,
    twisted_bimodule,
    zero_module,
    zero_morphism,
)


def simple_module(A, pos):
    P = projective_module(A, pos)
    rad = stack_rows(A.field, [P.action[j] for j in A.radical])
    S, _, _ = quotient(P, rad)
    return S


# -- suspension ----------------------------------------------------------------


def test_identity_twist_gives_identity_suspension():
    A, _, eng, rep = load_pipeline("preproj_a3")
    sus = suspension(A, rep.twist, rep.twist_order)
    assert sus.is_identity()
    P = projective_module(A, 0)
    assert sus.apply(P).action[3] == P.action[3]


def test_suspension_swaps_projectives_over_nakayama_2_2():
    A, _, eng, rep = load_pipeline("nakayama_2_2")
    sus = suspension(A, rep.twist, 1)
    P1, P2 = projective_module(A, 0), projective_module(A, 1)
    assert iso_test(sus.apply(P1), P2) is not None
    assert iso_test(sus.apply(P2), P1) is not None


def test_suspension_strictly_invertible():
    A, _, eng, rep = load_pipeline("nakayama_2_2")
    sus = suspension(A, rep.twist, 1)
    for pos in range(2):
        P = projective_module(A, pos)
        back = sus.unapply(sus.apply(P))
        assert back.dim == P.dim
        assert back.stack == P.stack


def test_suspension_agrees_with_twisted_tensor():
    # the substitution model is isomorphic to - (x) (twisted bimodule)
    from nangulator.modules import tensor_module

    A, _, eng, rep = load_pipeline("nakayama_2_2")
    sus = suspension(A, rep.twist, 1)
    B = twisted_bimodule(A, sus.twist)
    for m in (projective_module(A, 0), simple_module(A, 1)):
        td = tensor_module(m, B, A)
        kappa = multiply_out_of_tensor(td, sus.apply(m))
        assert kappa.matrix.is_invertible()
        verify_loop(kappa, exhaustive=True)


# -- functor sequence ------------------------------------------------------------


def test_functor_sequence_requires_length_three():
    from nangulator.angulation import functor_sequence

    A, _, eng, rep = load_pipeline("loop_p3")
    with pytest.raises(ValueError, match="at least 3"):
        functor_sequence(eng, rep, 1)


def test_pointwise_exactness_on_all_projectives_and_samples():
    for name, m in (("loop_p3", 3), ("nakayama_2_2", 4)):
        seq = load_sequence(name, m)
        A = seq.algebra
        modules = [projective_module(A, pos)
                   for pos in range(len(A.idempotents))]
        for m in modules + [simple_module(A, 0)]:
            val = seq.evaluate(m)
            assert val["unit"].source.dim == m.dim
            chain = [val["unit"]] + val["maps"] + [val["counit"]]
            assert rank_exactness(padded(chain))


def test_functor_values_are_projective():
    seq = load_sequence("nakayama_2_2", 4)
    A = seq.algebra
    S = simple_module(A, 0)
    val = seq.evaluate(S)
    for term in val["terms"]:
        seq.engine.proj_structure(term)  # raises when not projective


def test_functor_sequence_bimodule_maps_intertwine():
    seq = load_sequence("nakayama_2_2", 4)
    env = seq.algebra.enveloping()
    for d in bimodule_chain(seq):
        for g in env.generators:
            assert d.source.action[g] @ d.matrix == d.matrix @ d.target.action[g]


def test_functor_sequence_builds_no_bimodule(monkeypatch):
    # the sequence is read off the resolution: its (Q, tau) pairs and
    # matrices; no module over the enveloping algebra is constructed
    from nangulator.angulation import functor_sequence
    from nangulator.modules import Module

    built = []
    real = Module.__init__

    def recording(self, algebra, *args, **kwargs):
        built.append(algebra)
        real(self, algebra, *args, **kwargs)

    for name, m in (("loop_p3", 3), ("nakayama_3_4", 2), ("preproj_a3", 2)):
        A, _, engine, report = load_pipeline(name)
        with monkeypatch.context() as patch:
            patch.setattr(Module, "__init__", recording)
            seq = functor_sequence(engine, report, m)
        assert seq.length == m * report.quasi_period
        assert not any(alg is A.enveloping() for alg in built)


def test_functor_values_need_no_quotient_and_no_cover(monkeypatch):
    # every X^k(M) is a standard projective read off the bimodule data: no
    # tensor quotient is formed and no cover is built for it
    from nangulator import homology, modules

    for name, m in (("nakayama_2_2", 4), ("preproj_a3", 1), ("loop_p3", 3)):
        seq = replace(load_sequence(name, m))   # no value cached yet
        A = seq.algebra
        fresh = [simple_module(A, pos) for pos in range(len(A.idempotents))]

        def forbidden(*args, **kwargs):
            raise AssertionError("tensor quotient or cover on the angle path")

        with monkeypatch.context() as patch:
            for owner, attr in ((modules, "quotient"), (homology, "quotient"),
                                (homology, "projective_cover")):
                patch.setattr(owner, attr, forbidden)
            for mod in fresh:
                t = standard_angle(seq, mod)
                assert all(o.proj is not None for o in t.objects)
                for o in t.objects:
                    assert seq.engine.proj_structure(o) == (o, None, None)


def test_corrupted_suspension_changes_only_the_suspension():
    from nangulator.axioms import corrupted_suspension_sequence

    seq = load_sequence("nakayama_2_2", 4)
    bad = corrupted_suspension_sequence(seq)
    A = seq.algebra
    for mod in (simple_module(A, 0), projective_module(A, 1)):
        good_val, bad_val = seq.evaluate(mod), bad.evaluate(mod)
        assert [t.digest() for t in bad_val["terms"]] == \
            [t.digest() for t in good_val["terms"]]
        for key in ("maps",):
            assert [f.matrix for f in bad_val[key]] == \
                [f.matrix for f in good_val[key]]
        for key in ("unit", "counit"):
            assert bad_val[key].matrix == good_val[key].matrix
            assert bad_val[key].source.digest() == good_val[key].source.digest()
            assert bad_val[key].target.digest() == good_val[key].target.digest()
        assert bad_val["suspended"].digest() != good_val["suspended"].digest()
        assert bad_val["suspended"].digest() == \
            bad.suspension.apply(mod).digest()


def _cli_simple(A):
    """The module ``angulate standard`` starts from: the top of e_0 A."""
    return simple_module(A, 0) if A.radical else projective_module(A, 0)


@pytest.mark.parametrize("name, m, seed", [
    ("loop_p3", 3, None),        # the three golden angle dumps
    ("nakayama_2_3", 2, None),
    ("preproj_a3", 1, None),
    ("preproj_a3", 1, 1),        # random modules, where the bases differ
    ("nakayama_3_3", 2, 1),
    ("nakayama_3_4", 2, 1),      # a twist of order 3
])
def test_standard_angles_are_the_oracle_angles_transported(name, m, seed):
    # the tensor-quotient angle, mapped by the canonical isomorphisms
    # phi_k: M (x)_A B_k -> X^k(M), is the direct angle, and both certify
    # alike: same verdict and kernel dimension, and comparison isomorphisms
    # that agree stably once the kernels are identified
    from nangulator.axioms import random_module

    seq = load_sequence(name, m)
    old_seq = oracle_sequence(seq)
    eng = seq.engine
    n = seq.length
    if seed is None:
        mods = [_cli_simple(seq.algebra)]
    else:
        rng = random.Random(seed)
        mods = [random_module(seq.algebra, eng, rng) for _ in range(3)]
    moved = 0
    for mod in mods:
        new, old = standard_angle(seq, mod), standard_angle(old_seq, mod)
        phis = []
        for (q, tau), td, term in zip(seq.covers,
                                      old_seq.evaluate(mod)["tensors"],
                                      new.objects):
            phi, _ = quotient_to_direct(td, q, tau, term)
            assert phi.source is old.objects[len(phis)]
            assert phi.matrix.is_invertible()
            phi.verify()
            phis.append(phi)
            moved += phi.matrix != ExactMatrix.identity(seq.algebra.field,
                                                        term.dim)
        for k in range(n):
            assert old.maps[k].matrix @ phis[(k + 1) % n].matrix == \
                phis[k].matrix @ new.maps[k].matrix
        c_new, c_old = certify_angle(seq, new), certify_angle(old_seq, old)
        assert (c_new.exact, c_new.verdict) == (c_old.exact, c_old.verdict)
        assert c_new.kernel.dim == c_old.kernel.dim
        k_old, incl_old = kernel_of(old.maps[0])
        k_new, incl_new = kernel_of(new.maps[0])
        psi = ModuleMorphism(k_old, k_new, solve_left(
            incl_new.matrix, incl_old.matrix @ phis[0].matrix))
        psi.verify()
        om_psi = cosyzygy_morphism(eng, psi, n)
        sus_psi = seq.suspension.apply_morphism(psi)
        for iso_old, iso_new in ((c_old.canonical, c_new.canonical),
                                 (c_old.induced, c_new.induced)):
            lhs = ModuleMorphism(sus_psi.source, om_psi.target,
                                 iso_old.matrix @ om_psi.matrix)
            rhs = ModuleMorphism(sus_psi.source, om_psi.target,
                                 sus_psi.matrix @ iso_new.matrix)
            assert eng.stable_equal(lhs, rhs)
    if seed is not None:
        assert moved     # some phi_k is not the identity


# -- standard angles and certification -------------------------------------------
# -- standard angles and certification -------------------------------------------


def test_standard_angle_kernel_recovers_module():
    # the kernel of the first map of a standard angle is the module itself
    for name, m in (("loop_p3", 3), ("nakayama_2_2", 4)):
        seq = load_sequence(name, m)
        A = seq.algebra
        rng = random.Random(2)
        from nangulator.axioms import random_module

        for _ in range(5):
            mod = random_module(A, seq.engine, rng)
            t = standard_angle(seq, mod)
            k, _ = kernel_of(t.maps[0])
            assert iso_test(k, mod) is not None


def test_standard_angles_certify():
    for name, m in (("loop_p3", 3), ("nakayama_2_2", 4)):
        seq = load_sequence(name, m)
        A = seq.algebra
        for pos in range(len(A.idempotents)):
            t = standard_angle(seq, projective_module(A, pos))
            assert certify_angle(seq, t).verdict
        t = standard_angle(seq, simple_module(A, 0))
        assert certify_angle(seq, t).verdict


def test_trivial_angle_certifies_and_contracts():
    seq = load_sequence("nakayama_2_2", 4)
    P = projective_module(seq.algebra, 0)
    triv = trivial_angle(seq, P)
    assert is_exact(triv)
    assert certify_angle(seq, triv).verdict
    assert contractible_test(triv, seq.engine) is not None


def test_standard_angle_of_zero_module_is_all_zero():
    seq = load_sequence("loop_p3", 3)
    t = standard_angle(seq, zero_module(seq.algebra))
    assert all(o.dim == 0 for o in t.objects)
    assert certify_angle(seq, t).verdict


def test_standard_angle_not_contractible_for_stably_nonzero_kernel():
    seq = load_sequence("nakayama_2_2", 4)
    t = standard_angle(seq, simple_module(seq.algebra, 0))
    assert contractible_test(t, seq.engine) is None


def test_negating_last_map_flips_certification():
    # sign sensitivity over fields of characteristic other than two
    for name, m in (("loop_p3", 3), ("nakayama_2_2", 4)):
        seq = load_sequence(name, m)
        t = standard_angle(seq, simple_module(seq.algebra, 0))
        bad_maps = t.maps[:-1] + [-t.maps[-1]]
        bad = AngleSequence(t.objects, bad_maps, t.suspension)
        assert is_exact(bad)
        cert = certify_angle(seq, bad)
        assert not cert.verdict
        assert cert.reason == "comparison-isos-differ"


def test_zeroed_map_breaks_exactness():
    seq = load_sequence("nakayama_2_2", 4)
    t = standard_angle(seq, simple_module(seq.algebra, 0))
    bad_maps = list(t.maps)
    bad_maps[1] = zero_morphism(t.objects[1], t.objects[2])
    bad = AngleSequence(t.objects, bad_maps, t.suspension)
    assert not is_exact(bad)
    assert not certify_angle(seq, bad).verdict


def test_alpha_is_stable_isomorphism():
    seq = load_sequence("loop_p3", 3)
    S = simple_module(seq.algebra, 0)
    alpha = canonical_comparison(seq, S)
    assert seq.engine.stable_inverse(alpha) is not None


def test_alpha_on_injective_module_is_stably_zero():
    seq = load_sequence("nakayama_2_2", 4)
    P = projective_module(seq.algebra, 0)
    alpha = canonical_comparison(seq, P)
    assert stable_zero(seq.engine, alpha)


def test_alpha_naturality():
    # the comparison square commutes stably for random morphisms
    seq = load_sequence("nakayama_2_2", 4)
    eng = seq.engine
    A = seq.algebra
    rng = random.Random(13)
    from nangulator.axioms import random_module

    n = seq.length
    for _ in range(6):
        m1 = random_module(A, eng, rng)
        m2 = random_module(A, eng, rng)
        homs = hom_space(m1, m2)
        if not homs:
            continue
        f = random_hom(rng, homs)
        alpha1 = canonical_comparison(seq, m1)
        alpha2 = canonical_comparison(seq, m2)
        om_f = cosyzygy_morphism(eng, f, n)
        sus_f = seq.suspension.apply_morphism(f)
        lhs = ModuleMorphism(alpha1.source, om_f.target,
                             alpha1.matrix @ om_f.matrix)
        rhs = ModuleMorphism(alpha1.source, om_f.target,
                             sus_f.matrix @ alpha2.matrix)
        assert eng.stable_equal(lhs, rhs)


# -- rotation ---------------------------------------------------------------------


def test_rotation_roundtrip_is_bitwise_identity():
    seq = load_sequence("nakayama_2_2", 4)
    t = standard_angle(seq, simple_module(seq.algebra, 0))
    back = rotate(rotate(t, "left"), "right")
    for i in range(t.length):
        assert back.maps[i].matrix == t.maps[i].matrix
    back2 = rotate(rotate(t, "right"), "left")
    for i in range(t.length):
        assert back2.maps[i].matrix == t.maps[i].matrix


def test_all_rotations_stay_certified():
    seq = load_sequence("nakayama_2_2", 4)
    t = standard_angle(seq, simple_module(seq.algebra, 0))
    cur = t
    for _ in range(t.length):
        cur = rotate(cur, "left")
        assert certify_angle(seq, cur).verdict
    cur = t
    for _ in range(t.length):
        cur = rotate(cur, "right")
        assert certify_angle(seq, cur).verdict


def test_full_rotation_of_even_angle_is_suspension_bitwise():
    # for even length the n-fold left rotation is the suspended angle
    seq = load_sequence("nakayama_2_2", 4)
    t = standard_angle(seq, simple_module(seq.algebra, 0))
    cur = t
    for _ in range(t.length):
        cur = rotate(cur, "left")
    for i in range(t.length):
        assert cur.maps[i].matrix == t.maps[i].matrix  # signs cancel: (-1)^4
    assert cur.objects[0].action[2] == seq.suspension.apply(
        t.objects[0]).action[2]


def test_direct_sum_of_certified_angles_certifies():
    seq = load_sequence("nakayama_2_2", 4)
    t1 = standard_angle(seq, simple_module(seq.algebra, 0))
    t2 = standard_angle(seq, projective_module(seq.algebra, 1))
    s = direct_sum_angles(t1, t2)
    assert certify_angle(seq, s).verdict


# -- completion (N1c) --------------------------------------------------------------


def test_complete_identity_gives_contractible_angle():
    seq = load_sequence("nakayama_2_2", 4)
    P = projective_module(seq.algebra, 0)
    x = complete_morphism(seq, identity_morphism(P))
    assert x.maps[0].matrix == identity_morphism(P).matrix
    assert certify_angle(seq, x).verdict
    assert contractible_test(x, seq.engine) is not None


def test_complete_zero_morphism():
    seq = load_sequence("nakayama_2_2", 4)
    P, Q = projective_module(seq.algebra, 0), projective_module(seq.algebra, 1)
    x = complete_morphism(seq, zero_morphism(P, Q))
    assert certify_angle(seq, x).verdict


def test_complete_arrow_map_over_nakayama_2_2():
    seq = load_sequence("nakayama_2_2", 4)
    eng = seq.engine
    A = seq.algebra
    P1, P2 = projective_module(A, 0), projective_module(A, 1)
    f1 = eng.hom_from_projective(P1, P2)[0]  # left multiplication by arrow
    x = complete_morphism(seq, f1)
    assert x.length == 4
    assert is_exact(x)
    cert = certify_angle(seq, x)
    assert cert.verdict
    for o in x.objects:
        eng.proj_structure(o)  # all terms projective


# -- fills (N3) and cones (N4) ------------------------------------------------------


def _sampled_square(seq, x, y, seed):
    from nangulator.axioms import sample_commuting_square

    rng = random.Random(seed)
    return sample_commuting_square(seq.engine, x, y, rng)


def test_fill_identity_square_is_homotopic_to_identity():
    seq = load_sequence("nakayama_2_2", 4)
    t = standard_angle(seq, simple_module(seq.algebra, 0))
    comps = fill_morphism(seq, t, t, identity_morphism(t.objects[0]),
                          identity_morphism(t.objects[1]))
    deltas = [comps[i].matrix - ExactMatrix.identity(
        seq.algebra.field, t.objects[i].dim) for i in range(t.length)]
    assert periodic_homotopy(t, t, deltas, seq.engine) is not None


def test_fill_zero_square_accepts_zero_fill():
    seq = load_sequence("nakayama_2_2", 4)
    t1 = standard_angle(seq, simple_module(seq.algebra, 0))
    t2 = standard_angle(seq, simple_module(seq.algebra, 1))
    comps = fill_morphism(seq, t1, t2,
                          zero_morphism(t1.objects[0], t2.objects[0]),
                          zero_morphism(t1.objects[1], t2.objects[1]))
    assert all(c.matrix.rank() == 0 or True for c in comps)


def test_fill_random_commuting_squares():
    seq = load_sequence("nakayama_2_2", 4)
    t1 = standard_angle(seq, simple_module(seq.algebra, 0))
    t2 = standard_angle(seq, projective_module(seq.algebra, 0))
    for seed in range(5):
        phi1, phi2 = _sampled_square(seq, t1, t2, seed)
        fill_morphism(seq, t1, t2, phi1, phi2)  # verifies all squares


def test_fill_rejects_non_commuting_square():
    from nangulator.angulation import FillError

    seq = load_sequence("nakayama_2_2", 4)
    t = standard_angle(seq, simple_module(seq.algebra, 0))
    homs = seq.engine.hom_from_projective(t.objects[0], t.objects[0])
    bad1 = identity_morphism(t.objects[0])
    bad2 = zero_morphism(t.objects[1], t.objects[1])
    with pytest.raises(FillError, match="commute"):
        fill_morphism(seq, t, t, bad1, bad2)


def test_cone_of_identity_is_contractible_and_certified():
    seq = load_sequence("nakayama_2_2", 4)
    t = standard_angle(seq, simple_module(seq.algebra, 0))
    comps, homotopy, cone = good_fill_and_cone(
        seq, t, t, identity_morphism(t.objects[0]),
        identity_morphism(t.objects[1]))
    assert certify_angle(seq, cone).verdict
    assert contractible_test(cone, seq.engine) is not None


def test_cone_of_zero_fill_between_standard_angles():
    seq = load_sequence("nakayama_2_2", 4)
    t1 = standard_angle(seq, simple_module(seq.algebra, 0))
    t2 = standard_angle(seq, simple_module(seq.algebra, 1))
    comps, homotopy, cone = good_fill_and_cone(
        seq, t1, t2, zero_morphism(t1.objects[0], t2.objects[0]),
        zero_morphism(t1.objects[1], t2.objects[1]))
    assert certify_angle(seq, cone).verdict


def test_cone_of_random_good_fill_certifies():
    seq = load_sequence("nakayama_2_2", 4)
    t1 = standard_angle(seq, simple_module(seq.algebra, 0))
    t2 = standard_angle(seq, projective_module(seq.algebra, 1))
    phi1, phi2 = _sampled_square(seq, t1, t2, 23)
    comps, homotopy, cone = good_fill_and_cone(seq, t1, t2, phi1, phi2)
    assert comps[0].matrix == phi1.matrix
    assert comps[1].matrix == phi2.matrix
    assert certify_angle(seq, cone).verdict


def test_every_certified_angle_is_homotopy_equivalent_to_standard():
    # fill toward the standard angle of the kernel, then contract the cone
    seq = load_sequence("nakayama_2_2", 4)
    eng = seq.engine
    P1, P2 = projective_module(seq.algebra, 0), projective_module(seq.algebra, 1)
    f1 = eng.hom_from_projective(P1, P2)[0]
    x = complete_morphism(seq, f1)
    m, l_m = kernel_of(x.maps[0])
    t_m = standard_angle(seq, m)
    val = seq.evaluate(m)
    a1 = eng.solve_from_projective(
        x.objects[0], t_m.objects[0],
        [(l_m.matrix, None, val["unit"].matrix, None)])
    a2 = eng.solve_from_projective(
        x.objects[1], t_m.objects[1],
        [(x.maps[0].matrix, None, a1.matrix @ t_m.maps[0].matrix, None)])
    comps = fill_morphism(seq, x, t_m, a1, a2)
    cone = mapping_cone(x, t_m, comps)
    assert contractible_test(cone, eng) is not None


def test_fill_kernel_ideal_squares_to_zero():
    # two fills of the same square differ by a morphism killed on kernels;
    # the composite of two such differences is null-homotopic
    seq = load_sequence("nakayama_2_2", 4)
    eng = seq.engine
    t = standard_angle(seq, simple_module(seq.algebra, 0))
    ident = [identity_morphism(o) for o in t.objects]
    fill = fill_morphism(seq, t, t, ident[0], ident[1])
    delta = [fill[i] - ident[i] for i in range(t.length)]
    square = [ModuleMorphism(t.objects[i], t.objects[i],
                             delta[i].matrix @ delta[i].matrix)
              for i in range(t.length)]
    assert periodic_homotopy(t, t, [s.matrix for s in square],
                             eng) is not None


def test_functor_morphism_is_angle_morphism():
    seq = load_sequence("nakayama_2_2", 4)
    A = seq.algebra
    S1, S2 = simple_module(A, 0), simple_module(A, 1)
    homs = hom_space(S1, S1)
    h = homs[0]
    comps = angle_functor_morphism(seq, h)
    t1 = standard_angle(seq, S1)
    from nangulator.angulation import _verify_angle_morphism

    _verify_angle_morphism(t1, t1, comps)


def test_preproj_a2_identity_suspension_six_angulation():
    # the type-A2 preprojective algebra carries a 6-angulation with identity
    # suspension (twist order 2, six copies of the length-1 segment), even
    # though its quasi-period is 1
    from nangulator.axioms import verify_axioms

    seq = load_sequence("preproj_a2", 6)
    assert seq.length == 6
    assert seq.suspension.is_identity()
    report = verify_axioms(seq.engine, seq, samples=4, seed=3)
    assert report.all_pass


def test_fill_rejects_a_non_module_map_that_passes_the_generator_rungs():
    # the ladder solves each rung on the generator rows of its source only
    # (an equation given with its source module), which is exact for module
    # maps; phi2 below vanishes on the generators
    # of X_2 and kills the image of f_1 (so the first square commutes) but
    # is no module map, so the first rung passes on the generators although
    # it has no solution on all rows; the final square check still refuses
    from nangulator.angulation import FillError
    from nangulator.fields import LinearAlgebraError
    from nangulator.modules import on_generators

    seq = load_sequence("preproj_a3", 1)
    eng, fld = seq.engine, seq.algebra.field
    x = standard_angle(seq, simple_module(seq.algebra, 0))
    x2, y2 = x.objects[1], x.objects[1]
    gens = on_generators(x2, ExactMatrix.identity(fld, x2.dim))
    ker = left_kernel(x.maps[0].matrix.T)          # rows v with f_1 v^T = 0
    v = next(ker.row(r) for r in range(ker.rows)
             if (gens @ ker.row(r).T).is_zero() and not ker.row(r).is_zero())
    unit = ExactMatrix.identity(fld, y2.dim)
    w = next(unit.row(j) for j in range(y2.dim)
             if not (unit.row(j) @ x.maps[1].matrix).is_zero())
    phi1 = zero_morphism(x.objects[0], x.objects[0])
    phi2 = ModuleMorphism(x2, y2, v.T @ w)
    with pytest.raises(LinearAlgebraError):
        phi2.verify()
    c, d = x.maps[1].matrix, phi2.matrix @ x.maps[1].matrix
    x3 = x.objects[2]
    assert eng.solve_from_projective(x3, x3, [(c, None, d, None)]) is None
    assert eng.solve_from_projective(x3, x3, [(c, None, d, x2)]) is not None
    with pytest.raises(FillError, match="does not commute"):
        fill_morphism(seq, x, x, phi1, phi2)
