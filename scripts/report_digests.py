#!/usr/bin/env python3
"""Print one digest line per CLI report over the fixture corpus, so two
checkouts can be compared for byte-identical output.

    python scripts/report_digests.py > digests.txt

Each command runs in-process through ``nangulator.cli.run_cli``; each line is
``label exit sha256(stdout)[:16]``.  On all 15 fixtures it runs ``period``,
``angulate standard``, ``angulate complete --seed 1..3`` and
``verify --samples 3 --seed 5``, and on loop_p3, nakayama_2_2 and
nakayama_2_3 also ``verify --samples 3 --seed 5 --m 2``; it also runs
``period`` on the four ``tests/golden/*.algebra.json`` algebras (labelled
``golden/<name>``): 97 lines.  Diff the output of two checkouts to see which
reports changed.
"""

import contextlib
import hashlib
import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nangulator.cli import run_cli

FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"
VERIFY = ["verify", "--samples", "3", "--seed", "5"]
EXTRA_M2 = ("loop_p3", "nakayama_2_2", "nakayama_2_3")


def commands():
    for path in sorted(FIXTURES.glob("*.json")):
        name = path.stem
        yield name, path, ["period"]
        yield name, path, ["angulate", "standard"]
        for seed in (1, 2, 3):
            yield name, path, ["angulate", "complete", "--seed", str(seed)]
        yield name, path, VERIFY
        if name in EXTRA_M2:
            yield name, path, VERIFY + ["--m", "2"]
    for path in sorted(GOLDEN.glob("*.algebra.json")):
        name = path.name[: -len(".algebra.json")]
        yield f"golden/{name}", path, ["period"]


def main() -> None:
    for name, path, args in commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli([args[0], str(path)] + args[1:])
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:16]
        print(f"{name}:{','.join(args)} {code} {digest}", flush=True)


if __name__ == "__main__":
    main()
