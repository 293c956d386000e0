"""The randomized axiom suite and its negative controls."""

import random

import pytest
from conftest import load_pipeline, load_sequence

from nangulator.angulation import AngleSequence, certify_angle, standard_angle
import nangulator.axioms
from nangulator.axioms import (
    corrupted_suspension_sequence,
    random_module,
    sample_commuting_square,
    verify_axioms,
)
from nangulator.modules import projective_module


def test_loop_suite_all_pass():
    seq = load_sequence("loop_p3", 3)
    report = verify_axioms(seq.engine, seq, samples=8, seed=41)
    assert report.all_pass
    for axiom, count in report.passes.items():
        assert count == 8, axiom


def test_nakayama_suite_all_pass():
    seq = load_sequence("nakayama_2_2", 4)
    report = verify_axioms(seq.engine, seq, samples=8, seed=42)
    assert report.all_pass
    assert report.uncertified_angles == 0
    assert report.certified_angles > 0


def test_report_serialization_shape():
    seq = load_sequence("loop_p3", 3)
    report = verify_axioms(seq.engine, seq, samples=2, seed=0)
    d = report.to_dict()
    assert d["schema"] == "1"
    assert set(d["axioms"]) == {"N1a", "N1b", "N1c", "N2", "N3", "N4"}
    assert d["first_failure"] is None


def test_same_seed_same_report():
    seq = load_sequence("loop_p3", 3)
    r1 = verify_axioms(seq.engine, seq, samples=4, seed=9)
    r2 = verify_axioms(seq.engine, seq, samples=4, seed=9)
    assert r1.to_dict() == r2.to_dict()


def test_corrupted_suspension_fails_checks():
    seq = load_sequence("nakayama_2_2", 4)
    bad = corrupted_suspension_sequence(seq)
    t = standard_angle(seq, projective_module(seq.algebra, 0))
    t_bad = AngleSequence(t.objects, t.maps, bad.suspension)
    cert = certify_angle(bad, t_bad)
    assert not cert.verdict
    assert cert.reason == "maps-not-module-morphisms"
    report = verify_axioms(bad.engine, bad, samples=2, seed=7)
    assert not report.all_pass
    assert report.first_failure is not None


def test_random_module_generator_is_seeded():
    algebra, _, eng, _ = load_pipeline("nakayama_2_2")
    m1 = random_module(algebra, eng, random.Random(3))
    m2 = random_module(algebra, eng, random.Random(3))
    assert m1.dim == m2.dim
    assert m1.stack == m2.stack


def test_sampled_squares_commute():
    seq = load_sequence("nakayama_2_2", 4)
    t1 = standard_angle(seq, projective_module(seq.algebra, 0))
    t2 = standard_angle(seq, projective_module(seq.algebra, 1))
    for seed in range(4):
        phi1, phi2 = sample_commuting_square(seq.engine, t1, t2,
                                             random.Random(seed))
        assert (t1.maps[0].matrix @ phi2.matrix) == (
            phi1.matrix @ t2.maps[0].matrix)


def test_n1c_records_only_construction_failures(monkeypatch):
    # a programming error in the completion is not an axiom finding
    def broken(seq, f1):
        raise TypeError("broken completion")

    monkeypatch.setattr(nangulator.axioms, "complete_morphism", broken)
    seq = load_sequence("loop_p3", 3)
    with pytest.raises(TypeError, match="broken completion"):
        verify_axioms(seq.engine, seq, samples=1, seed=0)


def test_preprojective_a4_suite_stays_within_its_memory_bound(tmp_path, capsys):
    # the peak of the allocations traced during `verify --samples 3 --seed
    # 7` on Pi(A4) over F5, whose modules over A reach dimension 828:
    # 80.2 MiB with every hom system solved from its nonzeros, 161.9 MiB
    # when each was built dense and transposed to be solved; the bound is
    # the former plus 25 %
    import tracemalloc

    from conftest import preprojective_text

    from nangulator.cli import run_cli

    path = tmp_path / "preproj_a4.json"
    path.write_text(preprojective_text("A", 4, 5))
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        assert run_cli(["verify", str(path), "--samples", "3", "--seed",
                        "7"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 100 * 2 ** 20, peak / 2 ** 20


def test_verify_of_kq8_i5_stays_within_its_memory_bound(tmp_path, capsys):
    # the peak of the allocations traced during `verify --samples 3 --seed
    # 7` on kQ_8/I_5 over F5 (dimension 40): 27.8 MiB with every path
    # acting on rows by walks along its word, 53.1 MiB when each module kept
    # the dense matrix of every path it was asked for; the bound is the
    # former plus 25 %
    import tracemalloc

    from conftest import nakayama_text

    from nangulator.cli import run_cli

    path = tmp_path / "kq8_i5.json"
    path.write_text(nakayama_text(8, 5, 5))
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        assert run_cli(["verify", str(path), "--samples", "3", "--seed",
                        "7"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 34.8 * 2 ** 20, peak / 2 ** 20
