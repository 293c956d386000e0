"""CLI behavior: exit codes, JSON output streams, determinism, emit files."""

import json
import subprocess
import sys
import pathlib

import pytest
from conftest import disjoint_loops_text, preprojective_text

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "nangulator.cli", *args],
        capture_output=True, text=True, cwd=ROOT,
    )


def test_algebra_self_injective_exit_zero():
    r = run("algebra", str(FIXTURES / "loop_p3.json"))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["self_injective"] is True
    assert payload["dim"] == 2


def test_algebra_hereditary_exit_one():
    r = run("algebra", str(FIXTURES / "a2_hereditary.json"))
    assert r.returncode == 1
    payload = json.loads(r.stdout)
    assert payload["self_injective"] is False
    assert payload["error"]


def test_period_loop_p3():
    r = run("period", str(FIXTURES / "loop_p3.json"), "--max", "12")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["quasi_period"] == 1
    assert payload["twist_order"] == 2
    assert payload["period"] == 2


def test_period_not_self_injective_exit_one():
    r = run("period", str(FIXTURES / "a2_hereditary.json"))
    assert r.returncode == 1


def test_missing_file_exit_two():
    r = run("algebra", "no-such-file.json")
    assert r.returncode == 2


def test_bad_syntax_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": 3,')
    r = run("algebra", str(bad))
    assert r.returncode == 2
    assert "error" in r.stderr


def test_large_prime_field_exit_two(tmp_path):
    big = tmp_path / "big.json"
    big.write_text('{"field": 2147483647, "vertices": ["1"], "arrows": [], '
                   '"relations": []}')
    r = run("algebra", str(big))
    assert r.returncode == 2
    assert "too large" in r.stderr


def test_angulation_too_short_exit_two():
    r = run("verify", str(FIXTURES / "loop_p3.json"), "--m", "1")
    assert r.returncode == 2


def test_verify_small_run_passes_and_is_deterministic():
    args = ("verify", str(FIXTURES / "loop_p3.json"), "--m", "3",
            "--samples", "3", "--seed", "11")
    r1, r2 = run(*args), run(*args)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout  # byte-identical reports
    payload = json.loads(r1.stdout)
    assert payload["all_pass"] is True
    assert payload["angulation_length"] == 3


def test_verbose_diagnostics_on_stderr():
    r = run("verify", str(FIXTURES / "loop_p3.json"), "--m", "3",
            "--samples", "2", "--seed", "1", "--verbose")
    assert "axioms all pass" in r.stderr
    json.loads(r.stdout)  # stdout is pure JSON


# the options each subcommand's handler reads, and nothing else
OPTIONS = {
    "algebra": {"--max", "--emit", "--verbose"},
    "period": {"--max", "--emit", "--verbose"},
    "angulate": {"--max", "--emit", "--verbose", "--m", "--n", "--seed"},
    "verify": {"--max", "--emit", "--verbose", "--m", "--n", "--seed",
               "--samples", "--perturb-choices"},
}


def test_each_subcommand_accepts_only_the_options_it_reads():
    import argparse

    from nangulator.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(OPTIONS)
    for name, parser in sub.choices.items():
        options = {s for a in parser._actions for s in a.option_strings}
        assert options - {"-h", "--help"} == OPTIONS[name], name
        bound = "degree bound" if name == "algebra" else "syzygy bound"
        assert bound in " ".join(parser.format_help().split()), name
    assert sum(map(len, OPTIONS.values())) == 20


@pytest.mark.parametrize("argv", [
    ["period", "--samples", "-2", "--m", "-5"],
    ["algebra", "--seed", "1"],
    ["angulate", "--samples", "2"],
    ["angulate", "--perturb-choices"],
    # no prefix of a remaining option stands for it
    ["period", "--m", "3"],
    ["algebra", "--m", "5"],
    ["angulate", "--s", "3"],
    ["verify", "--perturb"],
    # before the command: the top level accepts only -h
    ["--bogus", "algebra"],
])
def test_foreign_options_are_usage_errors(argv, capsys):
    from nangulator.cli import run_cli

    loop = str(FIXTURES / "loop_p3.json")
    at = next(i for i, a in enumerate(argv) if not a.startswith("-"))
    assert run_cli(argv[:at + 1] + [loop] + argv[at + 1:]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    # the usage line and the error are those of the parser the option was
    # given to: the subcommand's own, or the top level's before it
    prog = "nangulator" if at else f"nangulator {argv[at]}"
    assert err.startswith(f"usage: {prog} [-h] ")
    assert f"{prog}: error: unrecognized arguments: " in err
    if at:
        assert err.endswith(f"unrecognized arguments: {' '.join(argv[:at])}\n")


@pytest.mark.parametrize("command", ["algebra", "period", "verify"])
def test_max_below_one_is_refused(command, capsys):
    from nangulator.cli import run_cli

    loop = str(FIXTURES / "loop_p3.json")
    assert run_cli([command, loop, "--max", "0"]) == 2
    assert run_cli([command, loop, "--max", "-3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: --max must be at least 1, got 0\n"
                   "error: --max must be at least 1, got -3\n")


def test_emit_writes_payload(tmp_path):
    out = tmp_path / "report.json"
    r = run("period", str(FIXTURES / "loop_p3.json"), "--emit", str(out))
    assert r.returncode == 0
    assert out.read_text() == r.stdout


def test_angulate_standard_and_complete():
    r = run("angulate", str(FIXTURES / "nakayama_2_2.json"), "standard",
            "--m", "4")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["length"] == 4
    assert payload["certificate"]["verdict"] is True
    r2 = run("angulate", str(FIXTURES / "loop_p3.json"), "complete",
             "--m", "3", "--seed", "5")
    assert r2.returncode == 0
    payload2 = json.loads(r2.stdout)
    assert payload2["certificate"]["verdict"] is True


def test_n_assertion_mismatch_exit_two():
    r = run("verify", str(FIXTURES / "loop_p3.json"), "--m", "3", "--n", "4")
    assert r.returncode == 2


def test_perturb_choices_reports_agreement():
    r = run("verify", str(FIXTURES / "loop_p3.json"), "--m", "3",
            "--samples", "2", "--seed", "3", "--perturb-choices")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert "perturbed_agrees" in payload
    assert payload["perturbed"]["samples"] == 2


@pytest.mark.parametrize("name, m", [
    ("loop_p3", 3),        # length 3, one vertex, objects of dimension 2
    ("nakayama_2_3", 2),   # length 4, two vertices
    ("preproj_a3", 1),     # length 3, three vertices
])
def test_angulate_emit_matches_golden_dump(name, m):
    # freezes the angle dump format and the basis of each X^k(M) bit for bit
    r = run("angulate", str(FIXTURES / f"{name}.json"), "standard",
            "--m", str(m), "--seed", "0")
    assert r.returncode == 0
    golden = (pathlib.Path(__file__).parent / "golden" /
              f"{name}.angle.json").read_text()
    assert r.stdout == golden


@pytest.mark.parametrize("name", [
    "nakayama_5_2",   # 40 inner tests, none accepted: the twist is kept
    "nakayama_5_3",   # no candidate of lower order: nothing is tested
    "nakayama_4_3",   # a lower-order candidate replaces the twist
    "preproj_a3",     # the same on the fixture, with commutativity relations
    "nakayama_5_4",   # dim 20: the twist is a vertex permutation
    "nakayama_6_4",   # dim 24: a cyclic twist of order 3, period 6
])
def test_period_payload_matches_golden_dump(name):
    # freezes which representative of the twist's inner class is reported
    golden = pathlib.Path(__file__).parent / "golden"
    algebra = golden / f"{name}.algebra.json"
    if not algebra.exists():
        algebra = FIXTURES / f"{name}.json"
    r = run("period", str(algebra))
    assert r.returncode == 0
    assert r.stdout == (golden / f"{name}.period.json").read_text()


def test_undecided_search_exits_one(monkeypatch, capsys, tmp_path):
    # over F2, p <= #vertices and no basis row of the identity's conjugation
    # space is a unit, so is_inner enumerates
    from nangulator import periodicity
    from nangulator.cli import run_cli

    path = tmp_path / "loops.json"
    path.write_text(disjoint_loops_text(2))
    assert run_cli(["period", str(path)]) == 0
    monkeypatch.setattr(periodicity, "ENUMERATION_BOUND", 4)
    assert run_cli(["period", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "undecided" in err


def test_internal_faults_are_not_reported_as_usage_errors(monkeypatch, capsys):
    from nangulator import cli
    from nangulator.fields import LinearAlgebraError

    loop = str(FIXTURES / "loop_p3.json")

    def broken(*args, **kwargs):
        raise LinearAlgebraError("comparison ladder start failed")

    monkeypatch.setattr(cli, "certify_angle", broken)
    with pytest.raises(LinearAlgebraError):
        cli.run_cli(["angulate", loop])
    # bad parameters still exit 2
    assert cli.run_cli(["verify", loop, "--m", "1"]) == 2
    assert cli.run_cli(["verify", loop, "--m", "0"]) == 2
    assert cli.run_cli(["angulate", loop, "--seed", "seven"]) == 2
    err = capsys.readouterr().err
    assert "must be at least 3" in err and "invalid int value" in err
    # --samples below 1 is refused, not replaced by the default
    assert cli.run_cli(["verify", loop, "--samples", "0"]) == 2
    assert cli.run_cli(["verify", loop, "--samples", "-2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: --samples must be at least 1, got 0\n"
                   "error: --samples must be at least 1, got -2\n")


def test_internal_fault_exits_70_from_main(monkeypatch, capsys):
    from nangulator import cli
    from nangulator.fields import LinearAlgebraError

    def broken(*args, **kwargs):
        raise LinearAlgebraError("comparison ladder start failed")

    monkeypatch.setattr(cli, "certify_angle", broken)
    monkeypatch.setattr(sys, "argv",
                        ["nangulator", "angulate", str(FIXTURES / "loop_p3.json")])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 70
    err = capsys.readouterr().err
    assert "Traceback" in err and "comparison ladder start failed" in err


def test_memory_guard_exits_one_naming_the_estimate(monkeypatch, capsys):
    from nangulator import fields
    from nangulator.cli import run_cli

    path = str(FIXTURES / "nakayama_2_2.json")
    assert run_cli(["period", path]) == 0
    monkeypatch.setattr(fields, "MEMORY_BOUND", 1000)
    assert run_cli(["period", path]) == 1
    err = capsys.readouterr().err
    # the first cover P = A e_1 (x) e_1 A (+) A e_2 (x) e_2 A of the regular
    # bimodule (dimension 4) has dimension 2 * 2 * 2 = 8.  Each summand has
    # 8 nonzero generator entries: one for each of the 4 e_i (x) e_j, and
    # one for each of the 2 + 2 arrow generators a (x) e_j, e_i (x) a with
    # a ending at, or starting from, its vertex.  The guard charges the
    # 16 stored nonzeros twice (key and value), the cover map and one RREF
    # of 8 x 4 each and the 4 x 8 kernel basis; the first step has no
    # differential: 2 * 16 + 8 * (4 + 8 + 0) = 128 entries, 8 bytes each
    assert err.startswith("error: ") and "1024 bytes" in err


def test_hom_system_guard_exits_one_naming_the_estimate(monkeypatch, capsys):
    from nangulator import fields
    from nangulator.cli import run_cli

    path = str(FIXTURES / "loop_p3.json")
    argv = ["verify", path, "--samples", "1", "--seed", "5"]
    assert run_cli(argv) == 0
    capsys.readouterr()
    # the one step of loop_p3's bimodule resolution that the scan takes is
    # charged 320 bytes (``periodicity._check_cover_memory``: 2 * 8 stored
    # nonzeros and 4 * (2 + 4 + 0) dense entries), so the scan passes and
    # the first hom system above the bound stops the run: a map out of
    # P = e A (+) e A (+) e A (dimension 6) into a module of dimension 4,
    # with 4 unknowns per summand and 2 generator rows of 4 entries to
    # match.  Its one block product, 12 x 8 entries, bounds the 96 stored
    # nonzeros, charged twice (key and value), and the solve writes at
    # most min(8, 12 + 1) reduced rows of 12 + 1 entries:
    # 2 * 96 + 96 + 8 * 13 = 392 entries, 8 bytes each
    monkeypatch.setattr(fields, "MEMORY_BOUND", 500)
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "hom system" in err
    assert "12 x 8 hom system" in err and "3136 bytes" in err


def test_preprojective_a4_verify_matches_golden(tmp_path):
    # Pi(A4), dim 20: the hom systems of its angles have thousands of
    # unknowns, kept in vertex blocks
    path = tmp_path / "preproj_a4.json"
    path.write_text(preprojective_text("A", 4, 5))
    r = run("verify", str(path), "--samples", "1", "--seed", "7")
    assert r.returncode == 0
    golden = pathlib.Path(__file__).parent / "golden" / "preproj_a4.verify.json"
    assert r.stdout == golden.read_text()


def test_period_on_dimension_20_stays_small_in_memory(capsys):
    import tracemalloc

    from nangulator.cli import run_cli

    path = pathlib.Path(__file__).parent / "golden" / "nakayama_5_4.algebra.json"
    tracemalloc.start()
    try:
        assert run_cli(["period", str(path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_report_digests_match_golden():
    # byte-identical reports are the contract of every refactor: the 151
    # lines of scripts/report_digests.py, recomputed in-process
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "scripts" / "report_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    golden = ROOT / "tests" / "golden" / "report_digests.txt"
    assert list(script.digest_lines()) == golden.read_text().splitlines()


@pytest.mark.parametrize("name", ["nakayama_3_3", "preproj_a3", "kq2_i2_q"])
def test_period_and_verify_form_no_path_matrix(name, tmp_path, monkeypatch,
                                               capsys):
    # paths act on rows by walks along their words: with the matrix of
    # every basis element of word length > 1 refused, `period` and `verify`
    # exit 0 and print what they print unrefused (kQ_2/I_2 over Q)
    from conftest import nakayama_text

    from nangulator import modules
    from nangulator.cli import run_cli

    path = FIXTURES / f"{name}.json"
    if name == "kq2_i2_q":
        path = tmp_path / "kq2_i2_q.json"
        path.write_text(nakayama_text(2, 2, 0))
    commands = [["period", str(path)],
                ["verify", str(path), "--samples", "2", "--seed", "7"]]

    def outputs():
        out = []
        for args in commands:
            assert run_cli(args) == 0, args
            out.append(capsys.readouterr().out)
        return out

    plain = outputs()
    real = modules._Actions.__getitem__

    def refusing(actions, k):
        if len(actions.module.algebra.word(k)) > 1:
            raise AssertionError(f"the matrix of basis element {k} was formed")
        return real(actions, k)

    monkeypatch.setattr(modules._Actions, "__getitem__", refusing)
    assert outputs() == plain


@pytest.mark.parametrize("mode", [[], ["--products"]])
def test_eliminate_sites_runs_in_both_modes(mode):
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "eliminate_sites.py"), *mode,
         str(FIXTURES / "loop_p3.json"), "period"],
        capture_output=True, text=True, cwd=ROOT)
    assert r.returncode == 0, r.stderr
    what = "products" if mode else "eliminations"
    assert ": exit 0, " in r.stdout and f" {what}, " in r.stdout
