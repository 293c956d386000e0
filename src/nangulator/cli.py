"""Command line front end.

    nangulator {algebra|period|angulate|verify} FILE [options]

All data goes to stdout as JSON; human-readable diagnostics go to stderr
under --verbose.  Exit codes: 0 success / all checks pass, 1 mathematical
failure (not self-injective, no quasi-period, axiom violation), 2 input or
usage error, 70 internal fault.  ``run_cli`` lets internal faults
(``LinearAlgebraError``, ``AutomorphismError``, ``FillError``) propagate
instead of passing them for bad input; ``main`` prints their traceback to
stderr and exits 70 (EX_SOFTWARE).  The default seed may be overridden with
NANGULATOR_SEED.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import (
    AutomorphismError,
    NotFiniteDimensionalError,
    NotSelfInjectiveError,
    check_self_injective,
    compute_basis,
)
from .angulation import (
    FillError,
    certify_angle,
    complete_morphism,
    functor_sequence,
    standard_angle,
)
from .axioms import random_projective, verify_axioms
from .fields import LinearAlgebraError
from .homology import Homology
from .modules import random_hom, projective_module
from .periodicity import (
    ResourceBoundExceeded,
    UndecidedIsomorphismError,
    quasi_period_scan,
)
from .quiver import ParseError, SemanticError, load_algebra_file
from .reports import (
    algebra_report,
    angle_dump,
    periodicity_dump,
    to_json,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_SOFTWARE = 70


def _log(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _load(args):
    return load_algebra_file(args.file)


def _emit(args, payload: str) -> None:
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("NANGULATOR_SEED")
    return int(env) if env else 0


def cmd_algebra(args) -> int:
    desc = _load(args)
    algebra = compute_basis(desc, degree_bound=args.max or 32)
    try:
        nakayama = check_self_injective(algebra)
        error = None
    except NotSelfInjectiveError as e:
        nakayama, error = None, str(e)
    report = algebra_report(algebra, nakayama, error)
    out = to_json(report)
    sys.stdout.write(out)
    _emit(args, out)
    _log(args, f"dim {algebra.dim}, self-injective: {nakayama is not None}")
    return EXIT_OK if nakayama is not None else EXIT_MATH


def _scan(args):
    desc = _load(args)
    algebra = compute_basis(desc, degree_bound=32)
    nakayama = check_self_injective(algebra)
    report = quasi_period_scan(algebra, max_n=args.max or 12)
    return algebra, nakayama, report


def cmd_period(args) -> int:
    try:
        algebra, nakayama, report = _scan(args)
    except NotSelfInjectiveError as e:
        sys.stdout.write(to_json({"schema": "1", "error": str(e)}))
        return EXIT_MATH
    if report is None:
        sys.stdout.write(to_json(
            {"schema": "1", "error": "no-quasi-period-within-bound"}))
        return EXIT_MATH
    out = to_json(periodicity_dump(report))
    sys.stdout.write(out)
    _emit(args, out)
    _log(args, f"quasi-period {report.quasi_period}, period {report.period}")
    return EXIT_OK


def _pick_multiplier(args, quasi_period: int) -> int:
    if args.m is not None:
        return args.m
    m = 1
    while m * quasi_period < 3:
        m += 1
    return m


def cmd_angulate(args) -> int:
    try:
        algebra, nakayama, report = _scan(args)
    except NotSelfInjectiveError as e:
        sys.stdout.write(to_json({"schema": "1", "error": str(e)}))
        return EXIT_MATH
    if report is None:
        sys.stdout.write(to_json(
            {"schema": "1", "error": "no-quasi-period-within-bound"}))
        return EXIT_MATH
    if args.n is not None and args.n != report.quasi_period:
        raise SemanticError(
            f"--n {args.n} does not match the detected quasi-period "
            f"{report.quasi_period}"
        )
    engine = Homology(algebra, nakayama)
    m = _pick_multiplier(args, report.quasi_period)
    seq = functor_sequence(engine, report, m)
    import random

    rng = random.Random(_seed(args))
    if args.mode == "standard":
        # standard angle of the first simple module
        from .fields import stack_rows
        from .modules import quotient

        p0 = projective_module(algebra, 0)
        if algebra.radical:
            simple, _, _ = quotient(
                p0, stack_rows(algebra.field,
                               [p0.action[j] for j in algebra.radical]))
        else:
            simple = p0
        angle = standard_angle(seq, simple)
    else:
        src = random_projective(algebra, rng)
        dst = random_projective(algebra, rng)
        f1 = random_hom(rng, engine.hom_from_projective(src, dst))
        angle = complete_morphism(seq, f1)
    cert = certify_angle(seq, angle)
    out = to_json(angle_dump(angle, cert))
    sys.stdout.write(out)
    _emit(args, out)
    _log(args, f"{args.mode} angle of length {angle.length}, "
               f"certified: {cert.verdict}")
    return EXIT_OK if cert.verdict else EXIT_MATH


def cmd_verify(args) -> int:
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    try:
        algebra, nakayama, report = _scan(args)
    except NotSelfInjectiveError as e:
        sys.stdout.write(to_json({"schema": "1", "error": str(e)}))
        return EXIT_MATH
    if report is None:
        sys.stdout.write(to_json(
            {"schema": "1", "error": "no-quasi-period-within-bound"}))
        return EXIT_MATH
    if args.n is not None and args.n != report.quasi_period:
        raise SemanticError(
            f"--n {args.n} does not match the detected quasi-period "
            f"{report.quasi_period}"
        )
    seed = _seed(args)
    samples = 20 if args.samples is None else args.samples
    m = _pick_multiplier(args, report.quasi_period)
    engine = Homology(algebra, nakayama)
    seq = functor_sequence(engine, report, m)
    ax_report = verify_axioms(engine, seq, samples, seed)
    payload = ax_report.to_dict()
    payload["angulation_length"] = seq.length
    payload["multiplier"] = m
    payload["quasi_period"] = report.quasi_period
    if args.perturb_choices:
        engine2 = Homology(algebra, nakayama, choice_variant=1)
        seq2 = functor_sequence(engine2, report, m)
        report2 = verify_axioms(engine2, seq2, samples, seed)
        payload["perturbed"] = report2.to_dict()
        payload["perturbed_agrees"] = (
            report2.passes == ax_report.passes
            and report2.failures == ax_report.failures
            and report2.certified_angles == ax_report.certified_angles
        )
    out = to_json(payload)
    sys.stdout.write(out)
    _emit(args, out)
    _log(args, f"axioms all pass: {ax_report.all_pass} "
               f"({samples} samples, seed {seed})")
    return EXIT_OK if ax_report.all_pass else EXIT_MATH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nangulator",
        description="Detect bimodule quasi-periodicity of a quiver algebra "
                    "and build/verify the induced higher-angulated structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="algebra description (JSON)")
        p.add_argument("--m", type=int, default=None,
                       help="multiplier for the angulation length")
        p.add_argument("--n", type=int, default=None,
                       help="assert the detected quasi-period equals this")
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max", type=int, default=None,
                       help="search bound (degree bound / syzygy bound)")
        p.add_argument("--emit", type=str, default=None,
                       help="also write the JSON payload to this path")
        p.add_argument("--perturb-choices", action="store_true",
                       dest="perturb_choices")
        p.add_argument("--verbose", action="store_true")

    common(sub.add_parser("algebra", help="basis + self-injectivity report"))
    common(sub.add_parser("period", help="quasi-periodicity report"))
    p_ang = sub.add_parser("angulate", help="build one angle and certify it")
    common(p_ang)
    p_ang.add_argument("mode", choices=["standard", "complete"],
                       nargs="?", default="standard")
    common(sub.add_parser("verify", help="randomized axiom suite"))
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    handlers = {
        "algebra": cmd_algebra,
        "period": cmd_period,
        "angulate": cmd_angulate,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, SemanticError, NotFiniteDimensionalError,
            FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (LinearAlgebraError, AutomorphismError, FillError):
        # internal faults: these subclass ValueError but are not bad input
        raise
    except ValueError as e:
        # bad parameter combinations (such as an angulation length below 3)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceBoundExceeded, UndecidedIsomorphismError) as e:
        # resource bounds, not usage errors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MATH


def main() -> None:
    try:
        code = run_cli()
    except Exception:
        # an internal fault: neither a mathematical answer nor bad input
        import traceback

        traceback.print_exc()
        code = EXIT_SOFTWARE
    sys.exit(code)


if __name__ == "__main__":
    main()
