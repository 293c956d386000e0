#!/usr/bin/env python3
"""Where the eliminations of one CLI command come from.

    python scripts/eliminate_sites.py FILE CMD [OPTION ...]
    python scripts/eliminate_sites.py fixtures/preproj_a3.json verify --seed 1

Runs ``CMD FILE OPTION ...`` in-process through ``nangulator.cli.run_cli``
with its report discarded, and times every call of ``fields._eliminate``,
the Gauss-Jordan elimination behind ``ExactMatrix.rref``.  Calls are grouped
by their nearest four callers inside the package, leaving out
``ExactMatrix.rref`` itself and comprehensions.  One line per group gives
the calls, the seconds and the mean number of cells (rows x columns)
eliminated, largest time first.  The wrapper's own cost is not in the
seconds, but the command runs slower than without it.
"""

import contextlib
import io
import pathlib
import sys
import time
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nangulator import fields  # noqa: E402
from nangulator.cli import run_cli  # noqa: E402

PACKAGE = str(ROOT / "src" / "nangulator")
DEPTH = 4
SKIPPED = ("ExactMatrix.rref", "<listcomp>", "<dictcomp>", "<setcomp>",
           "<genexpr>")


def callers(frame) -> tuple:
    """The nearest DEPTH package functions above ``frame``, as
    ``module.function`` names, skipping ``ExactMatrix.rref`` and
    comprehensions."""
    out = []
    while frame is not None and len(out) < DEPTH:
        code = frame.f_code
        if (code.co_filename.startswith(PACKAGE)
                and not code.co_qualname.endswith(SKIPPED)):
            module = pathlib.Path(code.co_filename).stem
            out.append(f"{module}.{code.co_qualname}")
        frame = frame.f_back
    return tuple(out)


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    path, cmd, *options = argv
    stats = defaultdict(lambda: [0, 0.0, 0])     # calls, seconds, cells
    real = fields._eliminate

    def timed(p, a):
        site = callers(sys._getframe(1))
        t0 = time.perf_counter()
        out = real(p, a)
        entry = stats[site]
        entry[0] += 1
        entry[1] += time.perf_counter() - t0
        entry[2] += a.size
        return out

    fields._eliminate = timed
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_cli([cmd, path, *options])
    finally:
        fields._eliminate = real
    wall = time.perf_counter() - t0
    rows = sorted(stats.items(), key=lambda kv: -kv[1][1])
    calls = sum(v[0] for v in stats.values())
    seconds = sum(v[1] for v in stats.values())
    print(f"{cmd} {path} {' '.join(options)}: exit {code}, {wall:.2f} s; "
          f"{calls} eliminations, {seconds:.2f} s")
    print(f"{'calls':>8} {'seconds':>8} {'mean cells':>11}  "
          "callers, nearest first")
    for site, (n, s, cells) in rows:
        print(f"{n:>8} {s:>8.3f} {cells / n:>11.0f}  {' < '.join(site)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
