"""Acceptance criteria, one check per stated requirement.

Each criterion prints a PASS/FAIL line (visible with pytest -s).  The
Nakayama periodicity grid asserts the closed-form minimal bimodule period
exactly; the derivation is next to criterion 1.
"""

import math
import pathlib
import random
import subprocess
import sys
import time

import pytest

from conftest import load_pipeline, load_sequence, search_iso

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

GRID = [(n, s) for n in (1, 2, 3) for s in (2, 3, 4)]


def _line(cid, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid}: {status} {detail}".rstrip())
    return ok


# -- criterion 1: Nakayama periodicity formula --------------------------------


@pytest.mark.parametrize("n,s", GRID)
def test_criterion_1_nakayama_periodicity_formula(n, s):
    t0 = time.time()
    _, _, _, rep = load_pipeline(f"nakayama_{n}_{s}")
    # kQ_n/I_s is the n-cycle a_k: k -> k+1 with all paths of length s zero.
    # Its minimal bimodule period is 2n/gcd(n, s) when char k != 2 (all
    # fixtures are over F_5):
    # * s >= 3: dim Omega^1 A = ns^2 - ns != ns, so no odd syzygy is a twisted
    #   A.  Omega^2 A is generated by r_i = sum_j p (x) a_{i+j} (x) p' with
    #   a_{i-1} r_i = r_{i-1} a_{i-1+s}, so Omega^2 A = 1_A_sigma with
    #   sigma(a_k) = a_{k+s} and no scalars.  A non-trivial vertex permutation
    #   is never inner, so the period is 2 * n/gcd(n, s).
    # * s = 2: delta_k = a_k (x) 1 - 1 (x) a_k satisfies
    #   a_{k-1} delta_k = -delta_{k-1} a_k, so Omega^1 A = 1_A_tau with
    #   tau(a_k) = -a_{k+1}.  tau^n scales every arrow by (-1)^n, with
    #   holonomy (-1)^n around the cycle: inner iff n is even.  The period is
    #   n for even n and 2n for odd n, i.e. 2n/gcd(n, 2).
    # * n = 1: the classical 2-periodic resolution of k[x]/(x^s).
    closed_form = 2 * n // math.gcd(n, s)
    ok = rep.period == closed_form
    _line(f"1 (n={n}, s={s})", ok,
          f"reported period {rep.period}, closed form {closed_form}, "
          f"{time.time() - t0:.1f}s")
    assert ok, (
        f"period reported for kQ_{n}/I_{s} over F_5 is {rep.period}; the "
        f"closed form gives {closed_form}"
    )


# -- criterion 2: loop-algebra twist -------------------------------------------


def test_criterion_2_loop_twists():
    _, _, _, rep3 = load_pipeline("loop_p3")
    ok = (rep3.quasi_period == 1 and rep3.twist_order == 2
          and rep3.period == 2
          and rep3.twist.matrix.tolist() == [[1, 0], [0, 2]])  # x -> -x
    _, _, _, rep2 = load_pipeline("loop_p2")
    ok = ok and rep2.twist.is_identity() and rep2.quasi_period == 1
    summary = {"quasi_period": rep3.quasi_period,
               "twist_order": rep3.twist_order, "period": rep3.period}
    _line("2", ok, f"F_3: {summary}; F_2 twist identity: "
                   f"{rep2.twist.is_identity()}")
    assert ok


# -- criterion 3: preprojective fixtures ----------------------------------------


# Omega^3 Pi = Pi_{nu} with nu acting on the vertices as the Nakayama
# permutation (Brenner-Butler-King).  Pi(A2) has the relations of kQ_2/I_2,
# whose first syzygy is already a twisted Pi, so its minimal quasi-period is 1
# and 3 is only the degree of the nu-twist.
PREPROJ_QUASI_PERIOD = {"preproj_a2": 1, "preproj_a3": 3}


@pytest.mark.parametrize("name", ["preproj_a2", "preproj_a3"])
def test_criterion_3_preprojective_scan_finds_three(name):
    _, nk, _, rep = load_pipeline(name)
    expected = PREPROJ_QUASI_PERIOD[name]
    ok = rep.quasi_period == expected and 3 % rep.quasi_period == 0
    nu_action = rep.twist.power(3 // rep.quasi_period).vertex_action()
    ok = ok and nu_action == list(nk.permutation)
    _line(f"3 scan ({name})", ok,
          f"quasi_period {rep.quasi_period}, degree-3 twist vertex action "
          f"{nu_action}, nakayama {list(nk.permutation)}")
    assert ok, (
        f"{name}: quasi-period scan found n = {rep.quasi_period} (expected "
        f"{expected}); vertex action of the degree-3 twist {nu_action}, "
        f"Nakayama permutation {list(nk.permutation)}"
    )


def test_criterion_3_preproj_a3_identity_suspension_verify():
    from nangulator.axioms import verify_axioms

    t0 = time.time()
    _, _, eng, rep = load_pipeline("preproj_a3")
    seq = load_sequence("preproj_a3", rep.twist_order)
    assert seq.suspension.is_identity()
    report = verify_axioms(eng, seq, samples=12, seed=7)
    ok = report.all_pass and seq.length == 3 * rep.twist_order
    _line("3 verify (preproj_a3)", ok,
          f"{seq.length}-angulation, 12 samples, "
          f"{time.time() - t0:.0f}s")
    assert ok, report.to_dict()


# -- criterion 4: axiom suite at 100 samples ------------------------------------


def test_criterion_4_nakayama_2_2_four_angulation():
    from nangulator.axioms import verify_axioms

    t0 = time.time()
    seq = load_sequence("nakayama_2_2", 4)
    report = verify_axioms(seq.engine, seq, samples=100, seed=7)
    ok = report.all_pass and all(report.passes[a] == 100
                                 for a in report.passes)
    _line("4 (kQ_2/I_2, 4-angulation)", ok,
          f"100 samples in {time.time() - t0:.0f}s, "
          f"certified {report.certified_angles}")
    assert ok, report.to_dict()


def test_criterion_4_loop_three_angulation():
    from nangulator.axioms import verify_axioms

    t0 = time.time()
    seq = load_sequence("loop_p3", 3)
    report = verify_axioms(seq.engine, seq, samples=100, seed=7)
    ok = report.all_pass and all(report.passes[a] == 100
                                 for a in report.passes)
    _line("4 (loop F_3, 3-angulation, m=3)", ok,
          f"100 samples in {time.time() - t0:.0f}s")
    assert ok, report.to_dict()


# -- criterion 5: negative controls ----------------------------------------------


def test_criterion_5a_corrupted_suspension_fails():
    from nangulator.axioms import corrupted_suspension_sequence, verify_axioms

    seq = load_sequence("nakayama_2_2", 4)
    bad = corrupted_suspension_sequence(seq)
    report = verify_axioms(bad.engine, bad, samples=3, seed=7)
    ok = not report.all_pass
    _line("5a", ok, f"first failure: "
                    f"{report.first_failure['axiom'] if report.first_failure else None}")
    assert ok


def test_criterion_5b_negated_last_map_flips_certificate():
    from nangulator.angulation import AngleSequence, certify_angle, standard_angle
    from nangulator.fields import stack_rows
    from nangulator.modules import projective_module, quotient

    ok = True
    for name, m in (("nakayama_2_2", 4), ("loop_p3", 3)):
        seq = load_sequence(name, m)
        A = seq.algebra
        P = projective_module(A, 0)
        S, _, _ = quotient(P, stack_rows(A.field,
                                         [P.action[j] for j in A.radical]))
        t = standard_angle(seq, S)
        bad = AngleSequence(t.objects, t.maps[:-1] + [-t.maps[-1]],
                            t.suspension)
        ok = ok and certify_angle(seq, t).verdict \
            and not certify_angle(seq, bad).verdict
    _line("5b", ok)
    assert ok


def test_criterion_5c_non_self_injective_exits_one():
    r = subprocess.run(
        [sys.executable, "-m", "nangulator.cli", "algebra",
         str(FIXTURES / "a2_hereditary.json")],
        capture_output=True, text=True, cwd=ROOT,
    )
    ok = r.returncode == 1
    _line("5c", ok, f"exit code {r.returncode}")
    assert ok


# -- criterion 6: structural invariants -------------------------------------------


def test_criterion_6_kernel_functor_recovers_modules():
    from nangulator.angulation import standard_angle
    from nangulator.axioms import random_module
    from nangulator.modules import iso_test, kernel_of

    ok = True
    for name, m in (("loop_p3", 3), ("nakayama_2_2", 4)):
        seq = load_sequence(name, m)
        rng = random.Random(61)
        for _ in range(20):
            mod = random_module(seq.algebra, seq.engine, rng)
            t = standard_angle(seq, mod)
            k, _ = kernel_of(t.maps[0])
            ok = ok and iso_test(k, mod) is not None
    _line("6 (kernel of standard angle)", ok, "20 modules per fixture")
    assert ok


def test_criterion_6_alpha_naturality():
    from nangulator.angulation import canonical_comparison
    from nangulator.axioms import random_module
    from nangulator.homology import cosyzygy_morphism
    from nangulator.modules import ModuleMorphism, hom_space, random_hom

    seq = load_sequence("nakayama_2_2", 4)
    eng = seq.engine
    rng = random.Random(17)
    checked = 0
    ok = True
    while checked < 20:
        m1 = random_module(seq.algebra, eng, rng)
        m2 = random_module(seq.algebra, eng, rng)
        homs = hom_space(m1, m2)
        if not homs:
            continue
        f = random_hom(rng, homs)
        a1 = canonical_comparison(seq, m1)
        a2 = canonical_comparison(seq, m2)
        om_f = cosyzygy_morphism(eng, f, seq.length)
        sus_f = seq.suspension.apply_morphism(f)
        lhs = ModuleMorphism(a1.source, om_f.target, a1.matrix @ om_f.matrix)
        rhs = ModuleMorphism(a1.source, om_f.target, sus_f.matrix @ a2.matrix)
        ok = ok and eng.stable_equal(lhs, rhs)
        checked += 1
    _line("6 (naturality of the comparison iso)", ok, "20 morphisms")
    assert ok


def test_criterion_6_resolution_rank_exactness():
    from conftest import padded, resolution_chain
    from nangulator.fields import stack_rows
    from nangulator.homology import rank_exactness
    from nangulator.modules import projective_module, quotient

    ok = True
    for name in ("loop_p3", "nakayama_2_2", "preproj_a3"):
        _, _, eng, _ = load_pipeline(name)
        A = eng.algebra
        P = projective_module(A, 0)
        S, _, _ = quotient(P, stack_rows(A.field,
                                         [P.action[j] for j in A.radical]))
        res = eng.resolution(S, 4)
        ok = ok and rank_exactness(padded(resolution_chain(res, 4)))
    _line("6 (resolution rank bookkeeping)", ok)
    assert ok


def test_criterion_6_twist_tensor_coherence():
    from nangulator.modules import tensor_module, twisted_bimodule

    ok = True
    for name in ("loop_p3", "nakayama_2_2", "preproj_a3"):
        A, _, _, rep = load_pipeline(name)
        twists = [rep.twist, rep.twist.power(2)]
        for s in twists:
            for t in twists:
                td = tensor_module(twisted_bimodule(A, s),
                                   twisted_bimodule(A, t), A)
                composed = twisted_bimodule(A, t.compose(s))
                ok = ok and search_iso(td.module, composed) is not None
    _line("6 (twisted tensor coherence)", ok, "all computed twist pairs")
    assert ok


def test_criterion_6_determinism_byte_identical_reports():
    args = [sys.executable, "-m", "nangulator.cli", "verify",
            str(FIXTURES / "nakayama_2_2.json"), "--m", "4",
            "--samples", "5", "--seed", "7"]
    r1 = subprocess.run(args, capture_output=True, text=True, cwd=ROOT)
    r2 = subprocess.run(args, capture_output=True, text=True, cwd=ROOT)
    ok = r1.stdout == r2.stdout and r1.returncode == r2.returncode == 0
    _line("6 (determinism)", ok, "byte-identical verify reports")
    assert ok
