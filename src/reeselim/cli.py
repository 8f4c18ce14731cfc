"""Command-line driver.

All commands read the algebra file format

    ring: F2[Y,Z]
    gen: Z^2+Y^5 w 2

from a path (or stdin as "-") and print text reports ending in
machine-readable lines prefixed with "#!".

Exit codes: 0 all good, 1 assertion/agreement failure, 2 usage or input
error, 3 a limit of reeselim.budget refused the work.

ord, e0 and tau are one command read from a table.  The parser is built on
the first `main` call and reused by later calls in the process; each call
parses into a fresh Namespace.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .budget import ResourceCapError
from .groebner import rational_zero_set
from .poly import _INTEGER, RationalPoint, RingError
from .rees import (ReesError, diff_saturate, e0_invariant, format_algebra,
                   normalize_generators, ord_at_point, parse_algebra,
                   singular_ideal, tau_estimate, weighted_transform)
from .elim import eliminate, format_elimination
from .ramify import MonicInput, verify_thm_1_16
from .scenarios import SCENARIO_NAMES, run_scenario

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_algebra(path, field=None):
    return parse_algebra(_read_text(path), field)


def _parse_point(ring, text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != ring.nvars:
        raise RingError("expected %d coordinates, got %d"
                        % (ring.nvars, len(parts)))
    coords = []
    for position, part in enumerate(parts, start=1):
        if not part:
            raise RingError("coordinate %d is empty" % position)
        value = ring.parse(part)
        if not value.is_constant():
            raise RingError("coordinate %r is not a constant" % part)
        coords.append(value.constant_value())
    return RationalPoint(ring, coords)


def _integer(text):
    """argparse type: the file format's integers, ASCII digits only."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    return int(text)


def _names(text):
    """argparse type: comma-separated names, stripped, none empty."""
    names = [v.strip() for v in text.split(",")]
    if not all(names):
        raise argparse.ArgumentTypeError("empty name in %r" % text)
    return names


def _emit_algebra(G, out):
    out.write(format_algebra(G))
    out.write("#! generators: %d max-weight: %d\n"
              % (len(G.generators), G.max_weight))


def _cmd_saturate(args, out):
    G = _load_algebra(args.file)
    sat = diff_saturate(G, args.active)
    if args.normalize:
        sat = normalize_generators(sat)
    _emit_algebra(sat, out)
    return EXIT_OK


def _cmd_sing(args, out):
    G = _load_algebra(args.file)
    ideal = singular_ideal(G)
    # scan and format before the first write, so a failure prints only its
    # error line
    points = None
    if G.ring.field.p > 0:
        points = sorted(rational_zero_set(ideal),
                        key=lambda p: [str(c) for c in p.coords])
    lines = ["gen: %s\n" % g for g in ideal.generators]
    lines += ["point: %s\n" % ",".join(str(c) for c in p.coords)
              for p in points or ()]
    count = "n/a" if points is None else len(points)
    lines.append("#! ideal-generators: %d points: %s\n"
                 % (len(ideal.generators), count))
    out.write("".join(lines))
    return EXIT_OK


# the --at commands: the invariant, whether it reads the saturation of the
# file's algebra, and the report line
_POINT_INVARIANTS = {
    "ord": (ord_at_point, False, "ord: %s\n"),
    "e0": (e0_invariant, True, "e0: %s\n"),
    "tau": (tau_estimate, True, "tau: %s  (lower bound)\n"),
}


def _cmd_point_invariant(args, out):
    invariant, saturate, report = _POINT_INVARIANTS[args.command]
    G = _load_algebra(args.file)
    at = _parse_point(G.ring, args.at)
    value = invariant(diff_saturate(G) if saturate else G, at)
    out.write(report % value)
    out.write("#! %s: %s\n" % (args.command, value))
    return EXIT_OK


def _cmd_eliminate(args, out):
    G = _load_algebra(args.file)
    if not 0 <= args.monic < len(G.generators):
        raise ReesError("generator index %d out of range (%d generators)"
                        % (args.monic, len(G.generators)))
    f = G.generators[args.monic]
    result = eliminate(G, f, args.var,
                       check_transversal=not args.no_transversal_check)
    out.write(format_elimination(result))
    algebra = result.algebra
    if algebra.is_empty():
        out.write("# warning: zero elimination algebra "
                  "(all coefficients vanished)\n")
    out.write("#! generators: %d max-weight: %d\n"
              % (len(algebra.generators), algebra.max_weight))
    return EXIT_OK


def _cmd_blowup(args, out):
    G = _load_algebra(args.file)
    transformed, chart = weighted_transform(G, args.center, args.chart)
    if args.normalize:
        transformed = normalize_generators(transformed)
    out.write("# chart: %s, center: %s\n" % (chart.exceptional,
                                             ",".join(chart.center)))
    _emit_algebra(transformed, out)
    return EXIT_OK


def _cmd_ramify_verify(args, out):
    G = _load_algebra(args.file, args.field)
    inp = MonicInput(G.ring, args.var, [g.poly for g in G.generators])
    report = verify_thm_1_16(inp)
    out.write(report.format_text())
    out.write("#! agreement: %s points: %d mismatches: %d\n"
              % ("true" if report.agree else "false",
                 report.points_scanned, len(report.counterexamples)))
    return EXIT_OK if report.agree else EXIT_FAIL


def _cmd_scenario(args, out):
    report = run_scenario(args.name, seed=args.seed)
    out.write(report.format_text())
    return EXIT_OK if report.ok() else EXIT_FAIL


@functools.cache
def build_parser():
    """The argparse parser, built once per process on the first call."""
    parser = argparse.ArgumentParser(
        prog="reeselim",
        description="Exact Rees-algebra computations for hypersurface "
                    "singularities in positive characteristic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("saturate", help="differential saturation")
    p.add_argument("file")
    p.add_argument("--active", type=_names,
                   help="comma-separated active variables (default: all)")
    p.add_argument("--normalize", action="store_true",
                   help="scale generators by leading-coefficient inverses")
    p.set_defaults(func=_cmd_saturate)

    p = sub.add_parser("sing", help="singular ideal and rational points")
    p.add_argument("file")
    p.set_defaults(func=_cmd_sing)

    for name in _POINT_INVARIANTS:
        p = sub.add_parser(name, help="%s at a rational point" % name)
        p.add_argument("file")
        p.add_argument("--at", required=True,
                       help="comma-separated coordinates, e.g. 0,0")
        p.set_defaults(func=_cmd_point_invariant)

    p = sub.add_parser("eliminate", help="eliminate the distinguished variable")
    p.add_argument("file")
    p.add_argument("--monic", type=_integer, required=True,
                   help="index of the monic generator, 0-based, counting "
                   "the distinct nonzero generators in file order; a zero "
                   "or repeated gen: line takes no index")
    p.add_argument("--var", required=True, help="variable to eliminate")
    p.add_argument("--no-transversal-check", action="store_true")
    p.set_defaults(func=_cmd_eliminate)

    p = sub.add_parser("blowup", help="weighted transform at a coordinate "
                                      "center")
    p.add_argument("file")
    p.add_argument("--center", type=_names, required=True, help="e.g. Y,Z")
    p.add_argument("--chart", required=True, help="chart variable")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("ramify-verify",
                       help="compare pure ramification with discriminant "
                            "vanishing at every rational point")
    p.add_argument("file", help="algebra file whose generators are the "
                                "monic factors")
    p.add_argument("--field", help="override the ring header field, e.g. F5")
    p.add_argument("--var", default="Z", help="distinguished variable")
    p.set_defaults(func=_cmd_ramify_verify)

    p = sub.add_parser("scenario", help="run a built-in scenario")
    p.add_argument("name", choices=SCENARIO_NAMES)
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(func=_cmd_scenario)

    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args, out)
    except ResourceCapError as exc:
        out.write("error: %s\n" % exc)
        return EXIT_CAP
    except (ValueError, OSError) as exc:   # Field/Ring/ReesError among them
        out.write("error: %s\n" % exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
