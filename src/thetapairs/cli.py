"""Command line entry point.

    theta-pairs report <pair-spec> [--json] [--seed N] [--no-timing]
    theta-pairs verify <suite> [--seed N]

JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure or a report stage that raised, 2 spec parse
failure, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .gaussian import SplittingFieldTooLarge
from .checks import CHECKS, SUITES as CHECK_SUITES, run_checks
from .pairs import CatalogError, FULL_CATALOG, PairSpec

SUITES = CHECK_SUITES + ("all",)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="theta-pairs",
        description="exact structure computations for quasi-split symmetric pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="run all computations for one pair")
    rep.add_argument("pair_spec",
                     help="splitA:n=<k> | glgl:n=<k> | diag:<sl2|sl3> | g2split | e6qs")
    rep.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    rep.add_argument("--seed", type=int, default=0,
                     help="seed for sampled witnesses (never changes verdicts)")
    rep.add_argument("--no-timing", action="store_true",
                     help="omit the timing section (byte-stable output)")

    ver = sub.add_parser("verify", help="run the table of named checks")
    ver.add_argument("suite", help="|".join(SUITES))
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--pairs", default=None,
                     help="comma-separated catalog pair specs to restrict the "
                          "catalog; an empty selection passes vacuously")

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_verify(args)
    except CatalogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SplittingFieldTooLarge as exc:
        print(f"domain error in computation: {exc}", file=sys.stderr)
        return 3


def _cmd_report(args) -> int:
    from .report import SectionError, build_report, render_tables

    try:
        PairSpec.parse(args.pair_spec)
    except CatalogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("usage: theta-pairs report "
              "(splitA:n=<k> | glgl:n=<k> | diag:<sl2|sl3> | g2split | e6qs)",
              file=sys.stderr)
        return 2
    try:
        doc = build_report(args.pair_spec, seed=args.seed,
                           with_timing=not args.no_timing)
    except SplittingFieldTooLarge as exc:
        print(f"domain error (exact field too small): {exc}", file=sys.stderr)
        return 3
    except SectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        sys.stdout.write(render_tables(doc))
    return 0


def _cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}",
              file=sys.stderr)
        return 2
    if args.pairs is None:
        selected = set(FULL_CATALOG)
    else:
        # CatalogError -> exit 2 in main
        selected = {PairSpec.parse(s).render() for s in args.pairs.split(",") if s}
        outside = sorted(selected - set(FULL_CATALOG))
        if outside:
            print(f"error: not in the verify catalog: {', '.join(outside)} "
                  f"(choose from {', '.join(FULL_CATALOG)})", file=sys.stderr)
            return 2
    suites = SUITES[:-1] if args.suite == "all" else (args.suite,)
    count = passed = 0
    for out in run_checks([c for c in CHECKS if c.suite in suites], selected, args.seed):
        count += 1
        passed += out.ok
        if out.error is None:
            print(f"{out.label}: {'PASS' if out.ok else 'FAIL'}")
        else:
            print(f"{out.spec}: {out.check.id}: FAIL")
            print(f"{out.spec}: {out.check.id}: {type(out.error).__name__}: {out.error}",
                  file=sys.stderr)
    print(f"{passed}/{count} checks passed")
    return 0 if passed == count else 1


if __name__ == "__main__":
    sys.exit(main())
