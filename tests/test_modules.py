"""Module category: projectives, twisted bimodules, hom spaces, tensor
functors, pullbacks, isomorphism testing."""

import pathlib
import random

import numpy as np
import pytest

from conftest import (
    FIXTURES,
    bimodule_chain,
    bimodule_projective_oracle,
    dense_action,
    first_unequal_block_oracle,
    fixture_over,
    direct_sum_loop,
    evaluate_oracle,
    load_fixture,
    multiply_out_of_tensor,
    mult_matrix,
    nakayama_text,
    quotient_oracle,
    quotient_to_direct,
    regular_module,
    search_iso,
    submodule_loop,
    substituted_loop,
    quotient_loop,
    tensor_module_oracle,
    tensor_morphism_left,
    tops_oracle,
    unit_into_tensor,
    verify_loop,
    verify_module_axioms,
    syzygies_up_to,
)

import nangulator
from nangulator import fields, homology, modules, periodicity

from nangulator.algebra import (
    EnvelopingAlgebra,
    compute_basis,
    identity_automorphism,
    verify_automorphism,
)
from nangulator.fields import (
    ExactMatrix,
    LinearAlgebraError,
    SparseStack,
    block_diag,
    first_unequal_block,
    left_products,
    row_space,
    stack_rows,
)
from nangulator.modules import (
    Module,
    bim_right_action,
    hom_space,
    identity_morphism,
    iso_test,
    kernel_of,
    projective_module,
    pullback,
    quotient,
    random_hom,
    right_twist,
    submodule,
    tensor_module,
    twisted_bimodule,
    zero_module,
    zero_morphism,
)
from nangulator.quiver import parse_algebra


def simple_module(A, pos):
    P = projective_module(A, pos)
    if not A.radical:
        return P
    rad = stack_rows(A.field, [P.action[j] for j in A.radical])
    S, _, _ = quotient(P, rad)
    return S


def test_projective_dimensions():
    A, _ = load_fixture("nakayama_2_2")
    assert projective_module(A, 0).dim == 2
    one_vertex, _ = load_fixture("loop_p3")
    assert projective_module(one_vertex, 0).dim == 2  # the regular module


def test_modules_satisfy_axioms_exhaustively():
    A, _ = load_fixture("nakayama_2_2")
    for pos in range(2):
        verify_module_axioms(projective_module(A, pos), exhaustive=True)
    verify_module_axioms(regular_module(A), exhaustive=True)
    verify_module_axioms(twisted_bimodule(A, identity_automorphism(A)),
                         exhaustive=False)


def test_regular_twisted_bimodule_actions_are_left_right_composites():
    A, _ = load_fixture("nakayama_2_2")
    bim = twisted_bimodule(A, identity_automorphism(A))
    for i in range(A.dim):
        for j in range(A.dim):
            expect = mult_matrix(A, i, left=True) @ mult_matrix(A, j)
            assert bim.action[A.envelope_index(i, j)] == expect


def test_loop_twisted_right_action_is_negated():
    A, _ = load_fixture("loop_p3")
    sigma = verify_automorphism(A, ExactMatrix(A.field, [[1, 0], [0, -1]]))
    tw = twisted_bimodule(A, sigma)
    reg = twisted_bimodule(A, identity_automorphism(A))
    x = 1  # basis index of the loop arrow
    assert bim_right_action(tw, A, x) == -bim_right_action(reg, A, x)
    assert tw.action[A.envelope_index(x, 0)] == reg.action[A.envelope_index(x, 0)]


def test_twist_composition_coherence():
    # the tensor of two twisted bimodules is the bimodule of the composite
    A, _ = load_fixture("loop_p3")
    sigma = verify_automorphism(A, ExactMatrix(A.field, [[1, 0], [0, -1]]))
    tau = identity_automorphism(A)
    for s, t in [(sigma, tau), (sigma, sigma), (tau, tau)]:
        left = twisted_bimodule(A, s)
        right = twisted_bimodule(A, t)
        td = tensor_module(left, right, A)
        composed = twisted_bimodule(A, t.compose(s))
        assert td.module.dim == composed.dim
        assert search_iso(td.module, composed) is not None


def test_twist_composition_coherence_noncommutative():
    A, _, _, rep = __import__("conftest").load_pipeline("nakayama_2_2")
    sigma = rep.twist
    tau = sigma.power(2)
    left = twisted_bimodule(A, sigma)
    right = twisted_bimodule(A, tau)
    td = tensor_module(left, right, A)
    composed = twisted_bimodule(A, tau.compose(sigma))
    assert search_iso(td.module, composed) is not None


def test_hom_space_dimensions():
    A, _ = load_fixture("nakayama_2_2")
    S = simple_module(A, 0)
    assert len(hom_space(S, S)) == 1          # Schur
    assert len(hom_space(S, zero_module(A))) == 0
    P1, P2 = projective_module(A, 0), projective_module(A, 1)
    h = hom_space(P1, P2)
    assert len(h) == 1
    # spanned by left multiplication by the arrow into vertex 1
    assert h[0].rank() == 1
    verify_loop(h[0], exhaustive=True)


def test_hom_space_generic_matches_projective_fast_path():
    A, _ = load_fixture("preproj_a2")
    P = projective_module(A, 0)
    N = simple_module(A, 1)
    fast = hom_space(P, N)
    generic = Module(A, P.dim, P.action)  # same content, no fast-path tags
    slow = hom_space(generic, N)
    assert len(fast) == len(slow)


def test_tensor_with_regular_bimodule_is_identity():
    for name in ("loop_p3", "nakayama_2_2", "preproj_a2"):
        A, _ = load_fixture(name)
        reg = twisted_bimodule(A, identity_automorphism(A))
        for m in (projective_module(A, 0), simple_module(A, 0)):
            td = tensor_module(m, reg, A)
            unit = unit_into_tensor(td)
            assert td.module.dim == m.dim
            assert unit.matrix.is_invertible()
            verify_loop(unit, exhaustive=True)


def test_tensor_unit_is_natural():
    A, _ = load_fixture("nakayama_2_2")
    reg = twisted_bimodule(A, identity_automorphism(A))
    P = projective_module(A, 0)
    S = simple_module(A, 0)
    f = hom_space(P, S)[0]
    td_p = tensor_module(P, reg, A)
    td_s = tensor_module(S, reg, A)
    lhs = unit_into_tensor(td_p).then(tensor_morphism_left(td_p, td_s, f))
    rhs = f.then(unit_into_tensor(td_s))
    assert lhs.matrix == rhs.matrix


def test_tensor_dimension_matches_bruteforce_bilinear_quotient():
    A, _ = load_fixture("nakayama_2_2")
    sigma = __import__("conftest").load_pipeline("nakayama_2_2")[3].twist
    B = twisted_bimodule(A, sigma)
    for m in (projective_module(A, 0), simple_module(A, 1)):
        td = tensor_module(m, B, A)
        assert td.module.dim == _brute_tensor_dim(m, B, A)


def _brute_tensor_dim(m, b, A):
    """Independent oracle: dim of (M (x)_k B) / bilinearity over all basis
    pairs and all algebra basis elements."""
    fld = A.field
    rows = []
    d_m, d_b = m.dim, b.dim
    for g in range(A.dim):
        mg, gb = dense_action(m, g), dense_action(b, g, A, left=True)
        for i in range(d_m):
            for j in range(d_b):
                vec = np.zeros(d_m * d_b, dtype=np.int64)
                row = np.outer(mg.a[i], _unit(d_b, j)).reshape(-1)
                vec = vec + row
                row2 = np.outer(_unit(d_m, i), gb.a[j]).reshape(-1)
                vec = vec - row2
                rows.append(vec)
    big = ExactMatrix(fld, np.stack(rows))
    return d_m * d_b - big.rank()


def _unit(n, i):
    v = np.zeros(n, dtype=np.int64)
    v[i] = 1
    return v


def test_right_twist_models_tensor_by_twisted_bimodule():
    # the substitution model used by the suspension agrees with the tensor
    A, _, _, rep = __import__("conftest").load_pipeline("nakayama_2_2")
    sigma = rep.twist
    B = twisted_bimodule(A, sigma)
    for m in (projective_module(A, 0), simple_module(A, 0)):
        td = tensor_module(m, B, A)
        tw = right_twist(m, sigma)
        kappa = multiply_out_of_tensor(td, tw)
        assert kappa.matrix.is_invertible()
        verify_loop(kappa, exhaustive=True)


def test_pullback_along_identity_is_isomorphism():
    A, _ = load_fixture("nakayama_2_2")
    P = projective_module(A, 0)
    S = simple_module(A, 0)
    f = hom_space(P, S)[0]
    p, p_x, p_y = pullback(f, identity_morphism(S))
    assert p.dim == P.dim
    assert p_x.matrix.is_invertible()


def test_pullback_of_zero_maps_is_direct_sum():
    A, _ = load_fixture("nakayama_2_2")
    P, Q = projective_module(A, 0), projective_module(A, 1)
    S = simple_module(A, 0)
    p, _, _ = pullback(zero_morphism(P, S), zero_morphism(Q, S))
    assert p.dim == P.dim + Q.dim


def test_pullback_square_commutes_and_preserves_epis():
    A, _ = load_fixture("nakayama_2_2")
    rng = random.Random(3)
    P, Q = projective_module(A, 0), projective_module(A, 1)
    S = simple_module(A, 1)
    f = random_hom(rng, hom_space(P, S))
    g = random_hom(rng, hom_space(Q, S))
    while g.rank() < S.dim:  # make g epi for the second assertion
        g = random_hom(rng, hom_space(Q, S))
    p, p_x, p_y = pullback(f, g)
    assert (p_x.matrix @ f.matrix) == (p_y.matrix @ g.matrix)
    assert p_x.rank() == p_x.target.dim  # pullback of an epi along any map is epi


def test_iso_test_accepts_identity_and_rejects_dimension_mismatch():
    A, _ = load_fixture("nakayama_2_2")
    P = projective_module(A, 0)
    assert iso_test(P, P) is not None
    assert iso_test(P, zero_module(A)) is None


def test_distinct_projectives_are_not_isomorphic():
    A, _ = load_fixture("nakayama_2_2")
    P1, P2 = projective_module(A, 0), projective_module(A, 1)
    assert iso_test(P1, P2) is None  # distinct tops


def test_hom_dimension_stable_under_isomorphic_replacement():
    A, _ = load_fixture("nakayama_2_2")
    P = projective_module(A, 0)
    S = simple_module(A, 1)
    # an isomorphic copy of P with permuted coordinates
    perm = ExactMatrix(A.field, [[0, 1], [1, 0]])
    action = [perm.inv() @ a @ perm for a in P.action]
    P2 = Module(A, P.dim, action)
    assert iso_test(P, P2) is not None
    assert len(hom_space(P, S)) == len(hom_space(P2, S))


def test_kernel_and_submodule_roundtrip():
    A, _ = load_fixture("preproj_a2")
    P = projective_module(A, 0)
    S = simple_module(A, 0)
    f = hom_space(P, S)[0]
    k, inc = kernel_of(f)
    assert k.dim == P.dim - S.dim
    verify_loop(inc, exhaustive=True)
    assert (inc.matrix @ f.matrix).is_zero()


def test_tensor_by_twist_swaps_projectives():
    # e_1 A tensored with the Nakayama-twisted bimodule over kQ_2/I_2 is the
    # other indecomposable projective
    A, _, _, rep = __import__("conftest").load_pipeline("nakayama_2_2")
    B = twisted_bimodule(A, rep.twist.inverse())
    P1, P2 = projective_module(A, 0), projective_module(A, 1)
    td = tensor_module(P1, B, A)
    assert iso_test(td.module, P2) is not None
    td2 = tensor_module(P2, B, A)
    assert iso_test(td2.module, P1) is not None


# -- projective pairs: decided by tops and dimensions ------------------------

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def load_golden(name):
    from nangulator.algebra import compute_basis
    from nangulator.quiver import load_algebra_file

    return compute_basis(load_algebra_file(GOLDEN / f"{name}.algebra.json"))


def search_witness(m, n, seed=0xC0FFEE, draws=1000):
    """The witness choice of the search path, kept as an oracle: the first
    invertible element of the hom basis (generator images for a ``proj``
    module, the dense kernel of ``_hom_generic`` otherwise), then of the
    seeded draws."""
    homs = hom_space(m, n) if m.proj is not None else modules._hom_generic(m, n)
    for h in homs:
        if h.matrix.is_invertible():
            return h
    rng = random.Random(seed)
    for _ in range(draws):
        cand = random_hom(rng, homs)
        if cand.matrix.is_invertible():
            return cand
    return None


def recorded_iso_calls(monkeypatch, run):
    """Every (M, N, keyword arguments, result) of the production iso_test
    calls (twist detection and dual projectives) made by ``run()``."""
    calls = []

    def recording(m, n, **kwargs):
        out = iso_test(m, n, **kwargs)
        calls.append((m, n, kwargs, out))
        return out

    monkeypatch.setattr(periodicity, "iso_test", recording)
    monkeypatch.setattr(homology, "iso_test", recording)
    run()
    return calls


def scan_fixture(name):
    return lambda: periodicity.quasi_period_scan(load_fixture(name)[0])


def scan_golden(name):
    return lambda: periodicity.quasi_period_scan(load_golden(name))


def dual_projectives(name):
    def run():
        A, nak = load_fixture(name)
        eng = homology.Homology(A, nak)
        for pos in range(len(A.idempotents)):
            eng._dual_projective_iso(pos)
    return run


SELF_INJECTIVE = [p.stem for p in sorted(FIXTURES.glob("*.json"))
                  if load_fixture(p.stem)[1] is not None]


@pytest.mark.parametrize("run", [
    pytest.param(scan_fixture("preproj_a3"), id="period-preproj_a3"),
    pytest.param(scan_fixture("nakayama_3_3"), id="period-nakayama_3_3"),
] + [pytest.param(scan_golden(name), id=f"period-golden-{name}")
     for name in ("nakayama_4_3", "nakayama_5_2", "nakayama_5_3")
] + [pytest.param(dual_projectives(name), id=f"dual-projectives-{name}")
     for name in SELF_INJECTIVE])
def test_projective_pairs_match_the_search_oracle(monkeypatch, run):
    calls = recorded_iso_calls(monkeypatch, run)
    assert calls
    for m, n, kwargs, out in calls:
        tops_m = modules.top_multiplicities(m)
        m_projective = modules._is_projective(m, tops_m)
        assert m_projective or modules._is_projective(n, modules.top_multiplicities(n))
        if m_projective and m.proj is None:
            cover = modules.cover_from_tops(m, tops_m)
            fast = modules._hom_through_cover(m, n, cover)
            slow = modules._hom_generic(m, n)
            assert [h.matrix for h in fast] == [h.matrix for h in slow]
        old = search_witness(m, n, **kwargs)
        if old is not None:
            assert out is not None and out.matrix == old.matrix
        elif out is not None:  # every draw missed: the cover isomorphism
            assert out.matrix.is_invertible()
            verify_loop(out, exhaustive=True)


def test_hom_through_cover_is_the_canonical_basis():
    # a projective in scrambled coordinates: the transported generator
    # images are not in RREF until row_space brings them there
    rng = random.Random(11)
    for name in ("nakayama_2_3", "preproj_a2", "loop_p3"):
        A, _ = load_fixture(name)
        P = modules.standard_projective(A, list(range(len(A.idempotents))))
        while True:
            T = ExactMatrix(A.field, [[rng.randrange(A.field.characteristic)
                                       for _ in range(P.dim)]
                                      for _ in range(P.dim)])
            if T.is_invertible():
                break
        M = Module(A, P.dim, [T.inv() @ a @ T for a in P.action])
        cover = modules.cover_from_tops(M, modules.top_multiplicities(M))
        for N in (regular_module(A), simple_module(A, 0), M):
            fast = modules._hom_through_cover(M, N, cover)
            slow = modules._hom_generic(M, N)
            assert [h.matrix for h in fast] == [h.matrix for h in slow]


def test_projective_pairs_are_decided_without_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense hom kernel used on a projective pair")

    monkeypatch.setattr(modules, "_hom_generic", forbidden)
    A = load_golden("nakayama_5_3")               # quasi-period 2
    omega = syzygies_up_to(A, 2)[-1]
    left = modules.restrict_to_left_factor(omega, A)
    phi = iso_test(modules.opposite_regular(A), left)
    assert phi is not None and phi.matrix.is_invertible()
    verify_loop(phi, exhaustive=True)
    B, _ = load_fixture("nakayama_2_2")
    P00 = modules.standard_projective(B, [0, 0])
    P01 = modules.standard_projective(B, [0, 1])
    assert P00.dim == P01.dim
    assert iso_test(P00, P01) is None             # same dimension, other top


def test_detect_twist_builds_no_dense_hom_system(monkeypatch):
    A = load_golden("nakayama_5_3")
    omega = syzygies_up_to(A, 2)[-1]
    calls = []
    real = modules._hom_generic

    def counting(m, n):
        calls.append((m.dim, n.dim))
        return real(m, n)

    monkeypatch.setattr(modules, "_hom_generic", counting)
    assert periodicity.detect_twist(A, omega) is not None
    assert calls == []


# -- semisimple pairs: decided by tops and dimensions -------------------------


def scrambled(m, rng):
    """An isomorphic copy of m in random coordinates."""
    fld = m.algebra.field
    while True:
        T = ExactMatrix(fld, [[rng.randrange(fld.characteristic)
                               for _ in range(m.dim)] for _ in range(m.dim)])
        if T.is_invertible():
            return Module(m.algebra, m.dim, [T.inv() @ a @ T for a in m.action])


@pytest.mark.parametrize("name", ["nakayama_2_2", "nakayama_3_3", "loop_p3",
                                  "preproj_a3", "a2_hereditary"])
def test_semisimple_pairs_match_the_search_oracle(name):
    A, _ = load_fixture(name)
    rng = random.Random(5)
    simples = [simple_module(A, pos) for pos in range(len(A.idempotents))]
    mods = list(simples)
    mods.append(modules.direct_sum(A, simples)[0])
    mods.append(scrambled(modules.direct_sum(A, simples[::-1])[0], rng))
    mods.append(scrambled(modules.direct_sum(A, [simples[0]] * 2)[0], rng))
    for S in simples:          # Omega^k S: one-dimensional on Nakayama algebras
        m = S
        for _ in range(3):
            m = homology.syzygy(m)[0]
            mods.append(m)

    def semisimple(m):
        return all(m.action[j].is_zero() for j in A.radical)

    pairs = 0
    for m in mods:
        for n in mods:
            if not (semisimple(m) or semisimple(n)):
                continue
            got, want = iso_test(m, n), search_iso(m, n)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.matrix.is_invertible()
                verify_loop(got, exhaustive=True)
                pairs += 1
    assert pairs > len(simples)


def test_iso_test_refuses_pairs_without_projective_or_semisimple_side():
    A, _ = load_fixture("loop_p3")
    reg = twisted_bimodule(A, identity_automorphism(A))
    with pytest.raises(LinearAlgebraError):
        iso_test(reg, reg)
    assert search_iso(reg, reg) is not None


def _assert_same_tensor_data(td, ref):
    assert td.offsets == ref.offsets
    assert td.m_rows == ref.m_rows and td.b_rows == ref.b_rows
    assert td.project == ref.project and td.lift == ref.lift
    assert td.module.algebra is ref.module.algebra
    assert td.module.dim == ref.module.dim
    assert td.module.stack == ref.module.stack


def assert_direct_model_matches_oracle(seq, m, val):
    """The direct value of the functor sequence at m against the tensor
    quotients of ``evaluate_oracle``: for each k the canonical map
    phi_k: M (x)_A B_k -> X^k(M), the class of m (x) (x (x) y) to
    (m . x) (x) y, is a well-defined module isomorphism, and it carries
    every map, the unit and the counit of the oracle to the direct ones.
    The sequence's matrices must be bimodule maps between the
    B_k = left_twist(Q_k, tau_k) of its covers, so the twist of M' is the
    one the bimodule carries."""
    for d in bimodule_chain(seq):
        d.verify()
    ref = evaluate_oracle(seq, m)
    phis = []
    for (q, tau), td, term in zip(seq.covers, ref["tensors"], val["terms"]):
        assert q.proj is not None and term.proj is not None
        phi, big = quotient_to_direct(td, q, tau, term)
        assert td.project @ phi.matrix == big   # kills the relations
        assert phi.matrix.is_invertible()
        phi.verify()
        phis.append(phi)
    for k, f in enumerate(val["maps"]):
        assert ref["maps"][k].matrix @ phis[k + 1].matrix == \
            phis[k].matrix @ f.matrix
    assert ref["unit"].matrix @ phis[0].matrix == val["unit"].matrix
    assert ref["counit"].matrix == phis[-1].matrix @ val["counit"].matrix


@pytest.mark.parametrize("name, m", [
    ("nakayama_2_2", None),
    ("nakayama_2_3", 2),
    ("nakayama_3_3", 2),
    ("preproj_a3", None),
    ("loop_p3", None),
    ("kq2_i2_q", 3),     # kQ_2/I_2 over Q
])
def test_tensor_module_matches_oracle_on_every_verify_call(
        name, m, monkeypatch, capsys, tmp_path):
    from nangulator.angulation import FunctorSequence
    from nangulator.cli import run_cli

    calls = []
    real = FunctorSequence.evaluate

    def recording(seq, x):
        val = real(seq, x)
        calls.append((seq, x, val))
        return val

    monkeypatch.setattr(FunctorSequence, "evaluate", recording)
    path = FIXTURES / f"{name}.json"
    if name == "kq2_i2_q":
        path = tmp_path / f"{name}.json"
        path.write_text(nakayama_text(2, 2, 0))
    argv = ["verify", str(path), "--samples", "2", "--seed", "5"]
    assert run_cli(argv + (["--m", str(m)] if m else [])) == 0
    assert len(calls) > 4
    seen = set()
    for seq, x, val in calls:
        if (id(seq), x.digest()) not in seen:
            seen.add((id(seq), x.digest()))
            assert_direct_model_matches_oracle(seq, x, val)


def test_direct_model_fixes_the_twist_convention():
    # every fixture above has a twist of order at most 2, where tau and its
    # inverse agree; kQ_3/I_4 has one of order 3, so M' = right_twist(M,
    # tau^-1) would give other maps (often of the same dimensions)
    from conftest import load_sequence

    from nangulator.axioms import random_module

    seq = load_sequence("nakayama_3_4", 2)
    assert any(tau.matrix != tau.inverse().matrix for _, tau in seq.covers)
    A = seq.algebra
    rng = random.Random(2)
    mods = [simple_module(A, pos) for pos in range(len(A.idempotents))]
    mods += [random_module(A, seq.engine, rng) for _ in range(4)]
    for m in mods:
        assert_direct_model_matches_oracle(seq, m, seq.evaluate(m))


@pytest.mark.parametrize("name", ["nakayama_2_2", "preproj_a2"])
def test_tensor_of_bimodules_matches_oracle(name):
    # M a bimodule: the result is a bimodule built from both sides' actions
    A, _ = load_fixture(name)
    reg = twisted_bimodule(A, identity_automorphism(A))
    om = syzygies_up_to(A, 1)[0]
    for m, b in ((reg, reg), (om, reg), (reg, om), (om, om)):
        td = tensor_module(m, b, A)
        assert td.module.algebra is A.enveloping()
        _assert_same_tensor_data(td, tensor_module_oracle(m, b, A))


@pytest.mark.parametrize("p", [2, 3, 5, 0])
def test_quotient_closed_form_matches_oracle(p):
    A = compute_basis(parse_algebra(nakayama_text(2, 3, p)))
    fld = A.field
    rng = random.Random(p)
    P0 = projective_module(A, 0)
    mods = [regular_module(A), modules.direct_sum(A, [P0, regular_module(A)])[0]]

    def entry():
        return rng.randrange(p) if p else rng.randrange(-3, 4)

    cases = 0
    for M in mods:
        # the zero space (no rows, a zero row), the whole space, and the
        # submodules generated by 1 to 3 random vectors
        spaces = [ExactMatrix.zeros(fld, 0, M.dim),
                  ExactMatrix.zeros(fld, 1, M.dim),
                  ExactMatrix.identity(fld, M.dim)]
        for _ in range(12):
            gens = ExactMatrix(fld, [[entry() for _ in range(M.dim)]
                                     for _ in range(rng.randrange(1, 4))])
            spaces.append(stack_rows(fld, [gens @ M.action[j]
                                           for j in range(A.dim)]))
        for rows in spaces:
            q, proj, lift = quotient(M, rows)
            q_ref, proj_ref, lift_ref = quotient_oracle(M, rows)
            assert q.dim == q_ref.dim and q.stack == q_ref.stack
            assert proj.matrix == proj_ref.matrix and lift == lift_ref
            assert (lift @ proj.matrix) == ExactMatrix.identity(fld, q.dim)
            cases += 1
    assert cases == 2 * 15


@pytest.mark.parametrize("name", ["nakayama_5_3", "nakayama_5_4"])
def test_bimodule_top_from_one_sided_actions_matches_all_generators(name):
    A = load_golden(name)
    bims = [twisted_bimodule(A, identity_automorphism(A))]
    bims += syzygies_up_to(A, 2)
    for m in bims:
        got = modules.top_multiplicities(m)
        want = tops_oracle(m)
        assert [pos for pos, _ in got] == [pos for pos, _ in want]
        assert [row for _, row in got] == [row for _, row in want]


def test_standard_projectives_are_kept_over_the_algebra_only():
    A, _ = load_fixture("nakayama_2_3")
    P = modules.standard_projective(A, [1, 0, 1])
    assert modules.standard_projective(A, (1, 0, 1)) is P
    assert modules.standard_projective(A, [0, 1, 1]) is not P
    assert A.projective_rows(1) is A.projective_rows(1)
    env = A.enveloping()
    Q = modules.standard_projective(env, [0, 3])
    assert modules.standard_projective(env, [0, 3]) is not Q
    assert env.projective_factors(3) is env.projective_factors(3)


@pytest.mark.parametrize("over_envelope", [False, True])
def test_tops_are_kept_per_module_contents(over_envelope, monkeypatch):
    # a second module with the same contents gets the kept tops, over A and
    # over A^e: _tops does not run again, and other contents are not
    # answered from the kept tops; the algebra is built afresh, so no other
    # test has kept tops on it
    from nangulator.quiver import load_algebra_file

    A = compute_basis(load_algebra_file(FIXTURES / "preproj_a3.json"))
    if over_envelope:
        m = twisted_bimodule(A, identity_automorphism(A))
        other = modules.standard_projective(A.enveloping(), [0])
    else:
        m = regular_module(A)
        other = modules.projective_module(A, 0)
    tops = modules.top_multiplicities(m)
    gens = m.algebra.generators
    twin = Module(m.algebra, m.dim, {g: m.action[g] for g in gens})
    assert twin is not m and twin.digest() == m.digest()

    def refuse(module):
        raise AssertionError("_tops called again")

    monkeypatch.setattr(modules, "_tops", refuse)
    assert modules.top_multiplicities(twin) == tops
    assert modules.top_multiplicities(m) == tops
    with pytest.raises(AssertionError, match="_tops"):
        modules.top_multiplicities(other)


def _same_results(got, want) -> bool:
    """Whether two construction results agree: modules by ``digest`` and
    ``proj``, morphisms by matrix, tuples and lists entry by entry."""
    if isinstance(got, (tuple, list)):
        return len(got) == len(want) and all(
            _same_results(a, b) for a, b in zip(got, want))
    if isinstance(got, Module):
        return (got.digest(), got.proj) == (want.digest(), want.proj)
    if isinstance(got, modules.ModuleMorphism):
        return got.matrix == want.matrix
    return got == want


@pytest.mark.parametrize("name, m", [
    ("preproj_a3", None),
    ("nakayama_3_3", 2),
    ("kq2_i2_q", 3),     # kQ_2/I_2 over Q
])
def test_stacked_constructions_match_loops_on_every_verify_call(
        name, m, monkeypatch, tmp_path):
    # every call the axiom suite makes, against the per-generator loops:
    # the same generator actions (digest), the same maps, and verify fails
    # exactly when the loop does, naming the same element
    from nangulator.cli import run_cli

    oracles = {"submodule": submodule_loop, "quotient": quotient_loop,
               "direct_sum": direct_sum_loop, "_substituted": substituted_loop}
    calls = dict.fromkeys(list(oracles) + ["verify"], 0)
    mismatches = []

    def checking(attr, real):
        def run(*args):
            got = real(*args)
            calls[attr] += 1
            if not _same_results(got, oracles[attr](*args)):
                mismatches.append((attr, calls[attr]))
            return got
        return run

    packages = [mod for key, mod in vars(nangulator).items()
                if key in ("algebra", "angulation", "axioms", "cli",
                           "homology", "modules", "periodicity")]
    for attr in oracles:
        real = getattr(modules, attr)
        for mod in packages:
            if getattr(mod, attr, None) is real:
                monkeypatch.setattr(mod, attr, checking(attr, real))

    real_verify = modules.ModuleMorphism.verify

    def verify(f):
        calls["verify"] += 1
        got = _verify_outcome(real_verify, f)
        if got != _verify_outcome(verify_loop, f):
            mismatches.append(("verify", calls["verify"]))
        if got is not None:
            raise LinearAlgebraError(got)

    monkeypatch.setattr(modules.ModuleMorphism, "verify", verify)
    path = FIXTURES / f"{name}.json"
    if name == "kq2_i2_q":
        path = tmp_path / f"{name}.json"
        path.write_text(nakayama_text(2, 2, 0))
    argv = ["verify", str(path), "--samples", "3", "--seed", "5"]
    assert run_cli(argv + (["--m", str(m)] if m else [])) == 0
    assert mismatches == []
    assert all(calls.values()), calls


def _verify_outcome(run, f):
    try:
        run(f)
    except LinearAlgebraError as e:
        return str(e)
    return None


@pytest.mark.parametrize("p", [5, 0])
def test_verify_names_the_first_failing_element_as_the_loop_does(p):
    # I + (action of e_1) commutes with every idempotent action but not with
    # the arrows at vertex 1: the first failure is an arrow, not the first
    # generator, and the batched check names the one the loop names
    A = compute_basis(parse_algebra(nakayama_text(3, 3, p)))
    M = regular_module(A)
    e = A.idempotents[0]
    f = modules.ModuleMorphism(
        M, M, ExactMatrix.identity(A.field, M.dim) + M.action[e])
    got = _verify_outcome(modules.ModuleMorphism.verify, f)
    assert got is not None
    assert got == _verify_outcome(verify_loop, f)
    first = int(got.rsplit(" ", 1)[1])
    assert first not in A.idempotents


@pytest.mark.parametrize("p", [5, 0])
def test_verify_names_the_first_failing_generator_in_index_order(p):
    # I + (action of the first generator) fails at several later generators,
    # over A and over A^e: verify names the first of them in the order of
    # ``generators``, as the loop does
    A = compute_basis(parse_algebra(nakayama_text(3, 3, p)))
    for M in (regular_module(A), twisted_bimodule(A, identity_automorphism(A))):
        gens = M.algebra.generators
        f = modules.ModuleMorphism(M, M, ExactMatrix.identity(A.field, M.dim)
                                   + M.action[gens[0]])
        failing = [g for g in gens
                   if M.action[g] @ f.matrix != f.matrix @ M.action[g]]
        assert len(failing) > 1 and failing[0] != gens[0]
        got = _verify_outcome(modules.ModuleMorphism.verify, f)
        assert got == f"morphism does not intertwine element {failing[0]}"
        assert got == _verify_outcome(verify_loop, f)


@pytest.mark.parametrize("p", [5, 0])
def test_exhaustive_verify_checks_every_basis_element(p):
    # a source whose action of one path, read through ``action``, disagrees
    # with its target's: the generators intertwine, so verify passes, and
    # only the oracle's check of every basis element sees the path
    A = compute_basis(parse_algebra(nakayama_text(3, 3, p)))
    N = regular_module(A)
    k = next(k for k in range(A.dim) if len(A.word(k)) > 1)

    class Corrupted(Module):
        @property
        def action(self):
            acts = list(super().action)
            acts[k] = acts[k] + ExactMatrix.identity(A.field, self.dim)
            return acts

    M = Corrupted(A, N.dim, N.stack)
    f = modules.ModuleMorphism(M, N, ExactMatrix.identity(A.field, M.dim))
    f.verify()
    with pytest.raises(LinearAlgebraError, match=f"element {k}$"):
        verify_loop(f, exhaustive=True)


@pytest.mark.parametrize("p", [5, 0])
def test_verify_passes_for_zero_dimensional_ends(p):
    A = compute_basis(parse_algebra(nakayama_text(3, 3, p)))
    M, Z = regular_module(A), zero_module(A)
    for f in (zero_morphism(Z, M), zero_morphism(M, Z), identity_morphism(Z)):
        f.verify()
        verify_loop(f, exhaustive=True)


def test_indecomposable_projectives_are_kept_over_the_algebra_only():
    A, _ = load_fixture("nakayama_2_3")
    assert projective_module(A, 1) is projective_module(A, 1)
    assert projective_module(A, 0) is not projective_module(A, 1)
    env = A.enveloping()
    P = projective_module(env, 3)
    assert projective_module(env, 3) is not P
    assert projective_module(env, 3).digest() == P.digest()


# -- module stacks against dense oracles ---------------------------------------

FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.json"))


def _random_dense(fld, rng, rows, cols):
    """A seeded matrix over fld, about half of its entries zero; over Q with
    denominators up to 3."""
    from fractions import Fraction

    p = fld.characteristic

    def entry():
        if rng.random() < 0.5:
            return 0
        return rng.randrange(p) if p else Fraction(rng.randrange(-3, 4),
                                                    rng.randrange(1, 4))

    return ExactMatrix(fld, np.array([entry() for _ in range(rows * cols)],
                                     dtype=object).reshape(rows, cols))


def _check_stack(m, dense, rng):
    """Every operation of m's sparse stack against the dense generator
    actions ``dense`` (in generator order): densifying each generator, the
    digest, the batched products with and without a column cut, S.F and
    F.S, the row products of the walks, the idempotent images and, over
    A^e, the one-sided sums."""
    alg = m.algebra
    fld, gens, n = alg.field, alg.generators, m.dim
    s, big = m.stack, stack_rows(fld, dense)
    assert isinstance(s, SparseStack)
    assert s.dense() == big
    for t, g in enumerate(gens):
        assert s.block(t) == dense[t] and m.action[g] == dense[t]
    for pos, e in enumerate(alg.idempotents):
        assert m.idempotent_image(pos) == row_space(dense[gens.index(e)])
    # the digest is equal exactly when the contents are equal
    same = SparseStack.from_matrix(big, len(gens))
    assert same == s and same.digest() == s.digest()
    if n:
        bump = ExactMatrix.zeros(fld, *big.shape).n.copy()
        bump[rng.randrange(big.rows), rng.randrange(n)] = 1
        other = SparseStack.from_matrix(big + ExactMatrix(fld, bump), len(gens))
        assert other != s and other.digest() != s.digest()
    x = _random_dense(fld, rng, rng.randrange(4), n)
    cols = rng.sample(range(n), rng.randrange(n + 1))
    assert s.left(x).dense() == left_products(x, big, len(gens))
    assert s.left(x, cols).dense() == \
        left_products(x, big, len(gens)).take_cols(cols)
    f = _random_dense(fld, rng, n, n)
    fs = s.left(f)
    assert (s @ f).dense() == big @ f
    assert fs.dense() == left_products(f, big, len(gens))
    assert first_unequal_block(s @ f, fs) == first_unequal_block_oracle(
        big @ f, left_products(f, big, len(gens)), len(gens))
    for t in rng.sample(range(len(gens)), min(3, len(gens))):
        assert m.times(x, gens[t]) == x @ dense[t]
    if not isinstance(alg, EnvelopingAlgebra):
        return
    A, position = alg.base, {g: t for t, g in enumerate(gens)}
    for g in A.generators:
        for left in (True, False):
            terms = [dense[position[A.envelope_index(*((g, e) if left
                                                      else (e, g)))]]
                     for e in A.idempotents]
            assert modules._one_sided(m, A, g, left) == sum(terms[1:],
                                                             terms[0])


@pytest.mark.parametrize("p", [2, 5, 0])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_bimodule_stacks_match_dense_oracles(name, p):
    # every e A^e against the Kronecker products of A's blocks; then the
    # regular bimodule and the first three covers and syzygies, each
    # against its dense generator actions: a cover is the block diagonal of
    # the oracle e A^e, it maps onto the module it covers, and the syzygy
    # acts by the kernel basis times the cover's actions, cut to its pivots
    from nangulator.homology import syzygy

    A = fixture_over(name, p)
    env, fld = A.enveloping(), A.field
    gens = env.generators
    oracle = [bimodule_projective_oracle(env, pos)
              for pos in range(len(env.idempotents))]
    for pos, want in enumerate(oracle):
        got = projective_module(env, pos)
        assert got.proj == (pos,)
        assert got.stack.dense() == stack_rows(fld, [want[g] for g in gens])
    rng = random.Random(f"{name}-{p}")
    m = twisted_bimodule(A, identity_automorphism(A))
    dense = [mult_matrix(A, i, left=True) @ mult_matrix(A, j)
             for i, j in (divmod(g, A.dim) for g in gens)]
    for _ in range(3):
        _check_stack(m, dense, rng)
        omega, inc, P, pi = syzygy(m)
        cover = [block_diag(fld, [oracle[pos][g] for pos in P.proj or ()])
                 for g in gens]
        _check_stack(P, cover, rng)
        assert all(c @ pi.matrix == pi.matrix @ d
                   for c, d in zip(cover, dense))
        assert pi.rank() == m.dim and inc.matrix.rows == P.dim - m.dim
        assert (inc.matrix @ pi.matrix).is_zero()
        piv = inc.matrix.rref()[1]
        dense = [(inc.matrix @ c).take_cols(piv) for c in cover]
        m = omega
    _check_stack(m, dense, rng)


@pytest.mark.parametrize("p", [2, 5, 0])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_module_stacks_match_dense_oracles(name, p):
    # the same checks on modules over A: the regular module against A's
    # right multiplications, then its radical and the first three covers
    # and syzygies from there, the cover the block diagonal of the oracle
    # e A (right multiplication cut to the basis of e A), mapping onto the
    # module it covers, the submodules acting by their basis times the
    # dense actions, cut to its pivots
    from nangulator.homology import syzygy

    A = fixture_over(name, p)
    fld, gens = A.field, A.generators
    oracle = [[mult_matrix(A, g).take_rows(rows).take_cols(rows) for g in gens]
              for rows in map(A.projective_rows, range(len(A.idempotents)))]
    rng = random.Random(f"{name}-{p}")
    regular = regular_module(A)
    dense = [mult_matrix(A, g) for g in gens]
    _check_stack(regular, dense, rng)
    m, inc = submodule(regular, ExactMatrix.identity(fld, A.dim).take_rows(
        A.radical))
    piv = inc.matrix.rref()[1]
    dense = [(inc.matrix @ a).take_cols(piv) for a in dense]
    for _ in range(3):
        _check_stack(m, dense, rng)
        omega, inc, P, pi = syzygy(m)
        cover = [block_diag(fld, [oracle[pos][t] for pos in P.proj or ()])
                 for t in range(len(gens))]
        _check_stack(P, cover, rng)
        assert all(c @ pi.matrix == pi.matrix @ d
                   for c, d in zip(cover, dense))
        assert pi.rank() == m.dim and inc.matrix.rows == P.dim - m.dim
        piv = inc.matrix.rref()[1]
        dense = [(inc.matrix @ c).take_cols(piv) for c in cover]
        m = omega
    _check_stack(m, dense, rng)
