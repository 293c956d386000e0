#!/usr/bin/env python3
"""Where the eliminations, or the products, of one CLI command come from.

    python scripts/eliminate_sites.py [--products] FILE CMD [OPTION ...]
    python scripts/eliminate_sites.py fixtures/preproj_a3.json verify --seed 1

Runs ``CMD FILE OPTION ...`` in-process through ``nangulator.cli.run_cli``
with its report discarded, and times every call of ``fields._eliminate``,
the Gauss-Jordan elimination behind ``ExactMatrix.rref``,
``fields.row_space``, ``fields.solve_left`` and ``fields.left_kernel``,
which it reads from the nonzeros of a matrix of a given shape.  Calls are
grouped by their nearest four callers inside the package, leaving out
``ExactMatrix.rref`` and ``fields.row_space`` themselves and
comprehensions.  One line per group gives the calls, the seconds and the
mean number of cells (rows x columns) eliminated, largest time first.

With ``--products`` it times the products instead, grouped the same way
and labelled by kind:
- ``@``: ``ExactMatrix.__matmul__``;
- ``left``: ``fields.left_products``, the blockwise product of a dense
  stack: the block products of ``modules.hom_system``, whose nonzeros
  ``SparseStack.placed`` places in the sparse system;
- ``sparse left``, ``sparse @`` and ``sparse row``: the products of a
  ``SparseStack``, the generator actions of every module, over A or over
  A^e, through its stored nonzeros: ``SparseStack.left`` (x @ S_i for
  every block), ``SparseStack.__matmul__`` (S_i @ f for every block) and
  ``SparseStack.row_product`` (y @ S_i for one block, the word walks).

The mean cells are those of the result; for a sparse stack, its stored
nonzeros.  The benchmark's ``fields.matmul_calls`` counts ``@`` only, so
this table also shows the products that moved into batched and sparse
ones.

The wrapper's own cost is not in the seconds, but the command runs slower
than without it.
"""

import contextlib
import io
import math
import os
import pathlib
import sys
import time
import types
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nangulator  # noqa: E402
from nangulator import fields  # noqa: E402
from nangulator.cli import run_cli  # noqa: E402

PACKAGE = str(ROOT / "src" / "nangulator")
DEPTH = 4
SKIPPED = ("ExactMatrix.rref", "row_space", "<listcomp>", "<dictcomp>", "<setcomp>",
           "<genexpr>")


def callers(frame) -> tuple:
    """The nearest DEPTH package functions above ``frame``, as
    ``module.function`` names, skipping ``ExactMatrix.rref``,
    ``fields.row_space`` and comprehensions."""
    out = []
    while frame is not None and len(out) < DEPTH:
        code = frame.f_code
        if (code.co_filename.startswith(PACKAGE)
                and not code.co_qualname.endswith(SKIPPED)):
            module = pathlib.Path(code.co_filename).stem
            out.append(f"{module}.{code.co_qualname}")
        frame = frame.f_back
    return tuple(out)


def patch(owners, name, make) -> list:
    """Replace attribute ``name`` of each owner that holds the same object
    as the first owner by ``make(original)``; the (owner, name, original)
    triples to restore."""
    real = getattr(owners[0], name)
    wrapper = make(real)
    done = []
    for owner in owners:
        if getattr(owner, name, None) is real:
            setattr(owner, name, wrapper)
            done.append((owner, name, real))
    return done


def main(argv) -> int:
    products = argv[:1] == ["--products"]
    if products:
        argv = argv[1:]
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    path, cmd, *options = argv
    stats = defaultdict(lambda: [0, 0.0, 0])     # calls, seconds, cells

    def timing(kind, cells_of):
        def make(real):
            def timed(*args, **kwargs):
                site = callers(sys._getframe(1))
                t0 = time.perf_counter()
                out = real(*args, **kwargs)
                seconds = time.perf_counter() - t0
                cells = cells_of(args, out)
                label = kind(args) if callable(kind) else kind
                entry = stats[(label,) + site if label else site]
                entry[0] += 1
                entry[1] += seconds
                entry[2] += cells
                return out
            return timed
        return make

    if products:
        package = [m for m in vars(nangulator).values()
                   if isinstance(m, types.ModuleType)]
        def cells(args, out):
            if isinstance(out, fields.SparseStack):
                return len(out.key)
            return out.rows * out.cols

        restore = patch([fields.ExactMatrix], "__matmul__", timing("@", cells))
        restore += patch([fields] + package, "left_products",
                         timing("left", cells))
        restore += patch([fields.SparseStack], "left",
                         timing("sparse left", cells))
        restore += patch([fields.SparseStack], "__matmul__",
                         timing("sparse @", cells))
        restore += patch([fields.SparseStack], "row_product",
                         timing("sparse row", cells))
        what = "products"
    else:
        restore = patch([fields], "_eliminate",
                        timing(None, lambda args, out: math.prod(args[1])))
        what = "eliminations"
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_cli([cmd, path, *options])
    finally:
        for owner, name, real in restore:
            setattr(owner, name, real)
    wall = time.perf_counter() - t0
    rows = sorted(stats.items(), key=lambda kv: -kv[1][1])
    calls = sum(v[0] for v in stats.values())
    seconds = sum(v[1] for v in stats.values())
    print(f"{cmd} {path} {' '.join(options)}: exit {code}, {wall:.2f} s; "
          f"{calls} {what}, {seconds:.2f} s")
    print(f"{'calls':>8} {'seconds':>8} {'mean cells':>11}  "
          + ("kind: " if products else "") + "callers, nearest first")
    for site, (n, s, c) in rows:
        label = (f"{site[0]}: {' < '.join(site[1:])}" if products
                 else ' < '.join(site))
        print(f"{n:>8} {s:>8.3f} {c / n:>11.0f}  {label}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:
        # the reader went away (``| head``): point stdout at devnull so the
        # interpreter's final flush is quiet, and stop
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
