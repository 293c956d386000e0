#!/usr/bin/env python3
"""Print one digest line per CLI report over the fixture corpus, so two
checkouts can be compared for byte-identical output.

    python scripts/report_digests.py > digests.txt

Each command runs in-process through ``nangulator.cli.run_cli``; each line is
``label exit sha256(stdout)[:16]``.  On all 15 fixtures it runs ``period``,
``angulate standard``, ``angulate complete --seed 1..3`` and
``verify --samples 3 --seed 5``, and on loop_p3, nakayama_2_2 and
nakayama_2_3 also ``verify --samples 3 --seed 5 --m 2`` and
``angulate standard --m 2``; it also runs ``period`` on the five
``tests/golden/*.algebra.json`` algebras (labelled ``golden/<name>``) and on
the Nakayama algebras kQ_n/I_s over F101, F65521 and F2 that
``test_period_scan_over_large_prime_fields`` scans, and ``period`` and
``angulate standard --m 3, 2, 3`` on kQ_2/I_2, kQ_2/I_3 and kQ_3/I_2 over Q,
with ``verify --m 3 --samples 2 --seed 5`` on kQ_2/I_2 over Q, and
``period`` on kQ_3/I_3 and kQ_4/I_3 over Q (labelled ``kQ<n>/I<s>/F<p>``, F0
for Q, written to a temporary directory), then ``verify --samples 1 --seed
7`` on the preprojective algebra Pi(A4) and ``period`` on Pi(D4) over F5
(labelled ``Pi(A4)/F5`` and ``Pi(D4)/F5``), and ``verify --samples 3 --seed
7`` on both, where the modules over A reach dimension 2,044, and
``angulate standard`` and ``angulate complete --seed 7`` on both, whose
dumps hold matrices of the solved hom systems and so tell the two algebras
apart; last ``algebra`` on the 15 fixtures and the five golden algebras,
whose reports hold the basis, the nilpotency index and the Nakayama
permutation (or, for a2_hereditary, the exit-1 refusal), and ``period`` and
``verify --samples 3 --seed 7`` on kQ_8/I_5 over F5 (dim 40), and
``period`` on Pi(A6) and Pi(D5) over F5 (dims 56 and 60), whose twist
detection tests isomorphisms of projective modules: 151 lines.
Diff the output of two checkouts to see which reports changed.
``tests/golden/report_digests.txt`` holds the expected lines, and
``tests/test_cli.py`` recomputes them through ``digest_lines``.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nangulator.cli import run_cli

FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"
VERIFY = ["verify", "--samples", "3", "--seed", "5"]
EXTRA_M2 = ("loop_p3", "nakayama_2_2", "nakayama_2_3")
NAKAYAMA = [(3, 2, 101), (3, 3, 101), (2, 2, 65521), (2, 2, 2), (3, 2, 2),
            (4, 2, 2), (5, 2, 2), (3, 3, 2), (4, 3, 2)]
# (n, s, multiplier of angulate standard) over Q
RATIONAL = [(2, 2, 3), (2, 3, 2), (3, 2, 3)]
# (n, s) over Q, period only
RATIONAL_PERIOD = [(3, 3), (4, 3)]
# (Dynkin type, rank, command) over F5
PREPROJECTIVE = [("A", 4, ["verify", "--samples", "1", "--seed", "7"]),
                 ("D", 4, ["period"]),
                 ("A", 4, ["verify", "--samples", "3", "--seed", "7"]),
                 ("D", 4, ["verify", "--samples", "3", "--seed", "7"]),
                 ("A", 4, ["angulate", "standard"]),
                 ("D", 4, ["angulate", "standard"]),
                 ("A", 4, ["angulate", "complete", "--seed", "7"]),
                 ("D", 4, ["angulate", "complete", "--seed", "7"])]


def nakayama_text(n, s, p):
    """kQ_n/I_s over F_p: the n-cycle a_k: k -> k+1, paths of length s zero."""
    arrows = [{"name": f"a{k + 1}", "from": str(k + 1),
               "to": str((k + 1) % n + 1)} for k in range(n)]
    relations = [[{"coeff": 1,
                   "path": [f"a{(k + t) % n + 1}" for t in range(s)]}]
                 for k in range(n)]
    return json.dumps({"field": p, "vertices": [str(k + 1) for k in range(n)],
                       "arrows": arrows, "relations": relations})


def preprojective_text(kind, n, p):
    """The preprojective algebra of A_n or D_n over F_p: the double of a
    tree with edges i -> j, arrow a_k along edge k and a_ks back, and at each
    vertex v the sum of a a* over the edges leaving v minus a* a over those
    entering it."""
    edges = [(k, k + 1) for k in range(1, n - 1 if kind == "D" else n)]
    if kind == "D":
        edges.append((n - 2, n))
    arrows, relations = [], []
    for k, (i, j) in enumerate(edges, 1):
        arrows += [{"name": f"a{k}", "from": str(i), "to": str(j)},
                   {"name": f"a{k}s", "from": str(j), "to": str(i)}]
    for v in range(1, n + 1):
        relations.append(
            [{"coeff": 1, "path": [f"a{k}", f"a{k}s"]}
             for k, (i, _) in enumerate(edges, 1) if i == v]
            + [{"coeff": -1, "path": [f"a{k}s", f"a{k}"]}
               for k, (_, j) in enumerate(edges, 1) if j == v])
    return json.dumps({"field": p, "vertices": [str(v) for v in range(1, n + 1)],
                       "arrows": arrows, "relations": relations})


def commands(tmp):
    for path in sorted(FIXTURES.glob("*.json")):
        name = path.stem
        yield name, path, ["period"]
        yield name, path, ["angulate", "standard"]
        for seed in (1, 2, 3):
            yield name, path, ["angulate", "complete", "--seed", str(seed)]
        yield name, path, VERIFY
        if name in EXTRA_M2:
            yield name, path, VERIFY + ["--m", "2"]
            yield name, path, ["angulate", "standard", "--m", "2"]
    for path in sorted(GOLDEN.glob("*.algebra.json")):
        name = path.name[: -len(".algebra.json")]
        yield f"golden/{name}", path, ["period"]
    for n, s, p in NAKAYAMA:
        path = tmp / f"kq{n}_i{s}_f{p}.json"
        path.write_text(nakayama_text(n, s, p))
        yield f"kQ{n}/I{s}/F{p}", path, ["period"]
    for n, s, m in RATIONAL:
        path = tmp / f"kq{n}_i{s}_f0.json"
        path.write_text(nakayama_text(n, s, 0))
        yield f"kQ{n}/I{s}/F0", path, ["period"]
        yield f"kQ{n}/I{s}/F0", path, ["angulate", "standard", "--m", str(m)]
        if (n, s) == (2, 2):
            yield f"kQ{n}/I{s}/F0", path, ["verify", "--m", "3", "--samples",
                                           "2", "--seed", "5"]
    for n, s in RATIONAL_PERIOD:
        path = tmp / f"kq{n}_i{s}_f0.json"
        path.write_text(nakayama_text(n, s, 0))
        yield f"kQ{n}/I{s}/F0", path, ["period"]
    for kind, n, args in PREPROJECTIVE:
        path = tmp / f"preproj_{kind.lower()}{n}_f5.json"
        path.write_text(preprojective_text(kind, n, 5))
        yield f"Pi({kind}{n})/F5", path, args
    for path in sorted(FIXTURES.glob("*.json")):
        yield path.stem, path, ["algebra"]
    for path in sorted(GOLDEN.glob("*.algebra.json")):
        yield f"golden/{path.name[: -len('.algebra.json')]}", path, ["algebra"]
    path = tmp / "kq8_i5_f5.json"
    path.write_text(nakayama_text(8, 5, 5))
    yield "kQ8/I5/F5", path, ["period"]
    yield "kQ8/I5/F5", path, ["verify", "--samples", "3", "--seed", "7"]
    for kind, n in (("A", 6), ("D", 5)):
        path = tmp / f"preproj_{kind.lower()}{n}_f5.json"
        path.write_text(preprojective_text(kind, n, 5))
        yield f"Pi({kind}{n})/F5", path, ["period"]


def digest_lines():
    """Yield the digest line of each command, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, path, args in commands(pathlib.Path(tmp)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli([args[0], str(path)] + args[1:])
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            yield f"{name}:{','.join(args)} {code} {digest[:16]}"


def main() -> None:
    for line in digest_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
