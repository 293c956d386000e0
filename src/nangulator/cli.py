"""Command line front end.

    nangulator algebra FILE [--max DEGREES] [--emit PATH] [--verbose]
    nangulator period FILE [--max SYZYGIES] [--emit PATH] [--verbose]
    nangulator angulate FILE [standard|complete] [--max SYZYGIES] [--m M]
                        [--n N] [--seed S] [--emit PATH] [--verbose]
    nangulator verify FILE [--max SYZYGIES] [--m M] [--n N] [--seed S]
                      [--samples K] [--perturb-choices] [--emit PATH]
                      [--verbose]

Each command accepts only the options it reads, unabbreviated; any other
is a usage error.  ``--max`` bounds the path basis degree under ``algebra``
(default 32) and the scan's syzygies elsewhere (default 12); values below 1
are refused.  The seed is ``--seed`` alone (default 0).

All data goes to stdout as JSON; human-readable diagnostics go to stderr
under --verbose.  Exit codes: 0 success / all checks pass, 1 mathematical
failure (not self-injective, no quasi-period, axiom violation), 2 input or
usage error, 70 internal fault.  ``run_cli`` lets internal faults
(``LinearAlgebraError``, ``AutomorphismError``, ``FillError``) propagate
instead of passing them for bad input; ``main`` prints their traceback to
stderr and exits 70 (EX_SOFTWARE).
"""

from __future__ import annotations

import argparse
import random
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
from .fields import LinearAlgebraError, ResourceBoundExceeded
from .homology import Homology
from .modules import projective_module, quotient, radical_rows, random_hom
from .periodicity import UndecidedIsomorphismError, quasi_period_scan
from .quiver import ParseError, SemanticError, load_algebra_file
from .reports import algebra_report, angle_dump, periodicity_dump, to_json

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_SOFTWARE = 70


class Refusal(Exception):
    """A mathematical answer that ends a command before its report:
    ``run_cli`` prints it as the JSON error report and exits 1."""


def _log(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _report(args, payload: dict) -> None:
    out = to_json(payload)
    sys.stdout.write(out)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(out)


def cmd_algebra(args) -> int:
    algebra = compute_basis(load_algebra_file(args.file),
                            degree_bound=args.max)
    try:
        nakayama = check_self_injective(algebra)
        error = None
    except NotSelfInjectiveError as e:
        nakayama, error = None, str(e)
    _report(args, algebra_report(algebra, nakayama, error))
    _log(args, f"dim {algebra.dim}, self-injective: {nakayama is not None}")
    return EXIT_OK if nakayama is not None else EXIT_MATH


def _scan(args):
    """The algebra, its Nakayama data and its quasi-period report; refuses
    an algebra that is not self-injective or has no quasi-period within
    ``--max`` syzygies."""
    algebra = compute_basis(load_algebra_file(args.file), degree_bound=32)
    nakayama = check_self_injective(algebra)
    report = quasi_period_scan(algebra, max_n=args.max)
    if report is None:
        raise Refusal("no-quasi-period-within-bound")
    return algebra, nakayama, report


def _sequence(args):
    """The scan, its homology engine, the multiplier m (``--m``, or the
    least with m·n ≥ 3) and the functor sequence of length m·n."""
    algebra, nakayama, report = _scan(args)
    n = report.quasi_period
    if args.n is not None and args.n != n:
        raise SemanticError(
            f"--n {args.n} does not match the detected quasi-period {n}")
    m = args.m if args.m is not None else -(-3 // n)
    engine = Homology(algebra, nakayama)
    return report, engine, m, functor_sequence(engine, report, m)


def cmd_period(args) -> int:
    _, _, report = _scan(args)
    _report(args, periodicity_dump(report))
    _log(args, f"quasi-period {report.quasi_period}, period {report.period}")
    return EXIT_OK


def cmd_angulate(args) -> int:
    _, engine, _, seq = _sequence(args)
    algebra = engine.algebra
    rng = random.Random(args.seed)
    if args.mode == "standard":
        # standard angle of the first simple module P_0 / P_0 . rad
        p0 = projective_module(algebra, 0)
        rad = radical_rows(p0)
        simple = quotient(p0, rad)[0] if rad.rows else p0
        angle = standard_angle(seq, simple)
    else:
        src = random_projective(algebra, rng)
        dst = random_projective(algebra, rng)
        f1 = random_hom(rng, engine.hom_from_projective(src, dst))
        angle = complete_morphism(seq, f1)
    cert = certify_angle(seq, angle)
    _report(args, angle_dump(angle, cert))
    _log(args, f"{args.mode} angle of length {angle.length}, "
               f"certified: {cert.verdict}")
    return EXIT_OK if cert.verdict else EXIT_MATH


def cmd_verify(args) -> int:
    report, engine, m, seq = _sequence(args)
    ax_report = verify_axioms(engine, seq, args.samples, args.seed)
    payload = ax_report.to_dict()
    payload["angulation_length"] = seq.length
    payload["multiplier"] = m
    payload["quasi_period"] = report.quasi_period
    if args.perturb_choices:
        engine2 = Homology(engine.algebra, engine.nakayama, choice_variant=1)
        seq2 = functor_sequence(engine2, report, m)
        report2 = verify_axioms(engine2, seq2, args.samples, args.seed)
        payload["perturbed"] = report2.to_dict()
        payload["perturbed_agrees"] = (
            report2.passes == ax_report.passes
            and report2.failures == ax_report.failures
            and report2.certified_angles == ax_report.certified_angles
        )
    _report(args, payload)
    _log(args, f"axioms all pass: {ax_report.all_pass} "
               f"({args.samples} samples, seed {args.seed})")
    return EXIT_OK if ax_report.all_pass else EXIT_MATH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nangulator", allow_abbrev=False,
        description="Detect bimodule quasi-periodicity of a quiver algebra "
                    "and build/verify the induced higher-angulated structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, max_help, max_default):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(handler=handler, parser=p)
        p.add_argument("file", help="algebra description (JSON)")
        p.add_argument("--max", type=int, default=max_default,
                       help=f"{max_help} (default {max_default})")
        p.add_argument("--emit", type=str, default=None,
                       help="also write the JSON payload to this path")
        p.add_argument("--verbose", action="store_true")
        return p

    scan_bound = "syzygy bound of the quasi-period scan"
    command("algebra", cmd_algebra, "basis + self-injectivity report",
            "degree bound of the path basis", 32)
    command("period", cmd_period, "quasi-periodicity report", scan_bound, 12)
    p_ang = command("angulate", cmd_angulate,
                    "build one angle and certify it", scan_bound, 12)
    p_ang.add_argument("mode", choices=["standard", "complete"],
                       nargs="?", default="standard")
    p_ver = command("verify", cmd_verify, "randomized axiom suite",
                    scan_bound, 12)
    for p in (p_ang, p_ver):
        p.add_argument("--m", type=int, default=None,
                       help="multiplier for the angulation length")
        p.add_argument("--n", type=int, default=None,
                       help="assert the detected quasi-period equals this")
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the random draws (default 0)")
    p_ver.add_argument("--samples", type=int, default=20,
                       help="samples per axiom (default 20)")
    p_ver.add_argument("--perturb-choices", action="store_true",
                       dest="perturb_choices",
                       help="rerun under other pinned injective hulls")
    return parser


def run_cli(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        # argparse leaves every unknown option to the top parser; one given
        # before the subcommand is reported by the top parser, any other by
        # the subcommand's, whose usage line says what it accepts
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            head = argv[:argv.index(args.command)]
            top = [u for u in unknown if u in head]
            (parser if top else args.parser).error(
                f"unrecognized arguments: {' '.join(top or unknown)}")
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        for name in ("max", "samples"):
            value = getattr(args, name, 1)
            if value < 1:
                raise ValueError(f"--{name} must be at least 1, got {value}")
        return args.handler(args)
    except (NotSelfInjectiveError, Refusal) as e:
        sys.stdout.write(to_json({"schema": "1", "error": str(e)}))
        return EXIT_MATH
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
