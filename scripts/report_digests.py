#!/usr/bin/env python3
"""Print one digest line per CLI report over the fixture corpus, so two
checkouts can be compared for byte-identical output.

    python scripts/report_digests.py > digests.txt

Each command runs in-process through ``nangulator.cli.run_cli``; each line is
``label exit sha256(stdout)[:16]``.  On all 15 fixtures it runs ``period``,
``angulate standard``, ``angulate complete --seed 1..3`` and
``verify --samples 3 --seed 5``, and on loop_p3, nakayama_2_2 and
nakayama_2_3 also ``verify --samples 3 --seed 5 --m 2``: 93 lines.  Diff the
output of two checkouts to see which reports changed.
"""

import contextlib
import hashlib
import io
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from nangulator.cli import run_cli

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
VERIFY = ["verify", "--samples", "3", "--seed", "5"]
EXTRA_M2 = ("loop_p3", "nakayama_2_2", "nakayama_2_3")


def commands():
    for path in sorted(FIXTURES.glob("*.json")):
        name = path.stem
        yield name, ["period"]
        yield name, ["angulate", "standard"]
        for seed in (1, 2, 3):
            yield name, ["angulate", "complete", "--seed", str(seed)]
        yield name, VERIFY
        if name in EXTRA_M2:
            yield name, VERIFY + ["--m", "2"]


def main() -> None:
    for name, args in commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli([args[0], str(FIXTURES / f"{name}.json")] + args[1:])
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:16]
        print(f"{name}:{','.join(args)} {code} {digest}", flush=True)


if __name__ == "__main__":
    main()
