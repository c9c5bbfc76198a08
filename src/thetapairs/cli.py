"""Command line entry point.

    theta-pairs report <pair-spec> [--json] [--seed N] [--no-timing]
    theta-pairs verify <suite> [--seed N]

JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 spec parse failure, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .gaussian import SplittingFieldTooLarge
from .pairs import CatalogError, FULL_CATALOG, MATRIX_CATALOG, PairSpec, realize

SUITES = ("weyl", "borels", "nilcone", "slice", "fibers", "stabilizers", "all")


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

    ver = sub.add_parser("verify", help="re-derive the checkable claims")
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
    except (SplittingFieldTooLarge,) as exc:
        print(f"domain error in computation: {exc}", file=sys.stderr)
        return 3


def _cmd_report(args) -> int:
    from .report import build_report, render_tables

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
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        sys.stdout.write(render_tables(doc))
    return 0


class _Checker:
    def __init__(self):
        self.failures = 0
        self.count = 0

    def check(self, label: str, ok: bool):
        self.count += 1
        print(f"{label}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            self.failures += 1

    def run(self, label: str, fn):
        try:
            ok = bool(fn())
        except Exception as exc:  # noqa: BLE001 - verification must report
            print(f"{label}: FAIL ({type(exc).__name__}: {exc})", file=sys.stderr)
            ok = False
        self.check(label, ok)


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
    checker = _Checker()
    suites = SUITES[:-1] if args.suite == "all" else (args.suite,)
    for suite in suites:
        _SUITE_RUNNERS[suite](checker, args.seed, selected)
    print(f"{checker.count - checker.failures}/{checker.count} checks passed")
    return 1 if checker.failures else 0


def _suite_weyl(c: _Checker, seed: int, selected):
    from .involutions import compute_subgroups
    from .rootsystem import (build_root_datum, enumerate_weyl, recognize_type,
                             restricted_reflection_norms)

    if "e6qs" in selected:
        pair = realize("e6qs")
        rep = compute_subgroups(pair)
        c.check("E6: |W| = 51840", rep.W_order == 51840)
        c.check("E6: |W^theta| = 1152", rep.W_theta_order == 1152)
        c.check("E6: [W:W^theta] = 45", rep.indices[1] == 45)
        c.check("E6: [W^theta:W0] = 3 with |W0| = 384",
                rep.indices[0] == 3 and rep.W0_order == 384)
        fixed = [(1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0),
                 (0, 0, 0, 1, 0, 0)]
        norms = restricted_reflection_norms(pair.comb.datum, rep.W_theta_perms,
                                            fixed)
        c.check("E6: W^theta acts on the fixed lattice as type F4",
                recognize_type(rep.W_theta_order, norms) == "F4")
        c.check("C4: order formula 384",
                enumerate_weyl(build_root_datum("C4")).order == 384)
    if "g2split" in selected:
        rep2 = compute_subgroups(realize("g2split"))
        c.check("G2: [W^theta:W0] = 3", rep2.indices[0] == 3)


def _suite_nilcone(c: _Checker, seed: int, selected):
    from .involutions import detect_regular_borels

    if "g2split" in selected:
        classes = detect_regular_borels(realize("g2split"))
        c.check("G2 split: three theta-stable Borel classes", len(classes) == 3)
        c.check("G2 split: exactly one regular class (irreducible nilpotent cone)",
                sum(1 for cl in classes if cl.regular) == 1)
    expected = {"splitA:n=1": 2, "splitA:n=2": 1, "glgl:n=1": 2,
                "diag:sl2": 1, "diag:sl3": 1}
    for spec, want in expected.items():
        if spec not in selected:
            continue
        classes = detect_regular_borels(realize(spec))
        nreg = sum(1 for cl in classes if cl.regular)
        c.check(f"{spec}: {want} regular class(es), shortcut agrees with the "
                "semantic test", nreg == want and
                all(cl.shortcut_regular == cl.regular for cl in classes))


def _suite_borels(c: _Checker, seed: int, selected):
    from .involutions import (canonical_involution, compute_subgroups,
                              enumerate_split_borels)

    for spec in MATRIX_CATALOG:
        if spec not in selected:
            continue
        pair = realize(spec)
        rep = compute_subgroups(pair)
        borels = enumerate_split_borels(pair)
        c.check(f"{spec}: theta-split Borels form a W_a-torsor "
                f"({len(borels)} = |W_a|)", len(borels) == rep.Wa_order)
        try:
            theta_can = canonical_involution(pair)
            ok = (theta_can.is_involution
                  and theta_can.fixed_dim + pair.rank_r1 == pair.rank_g)
        except CatalogError:
            ok = False
        c.check(f"{spec}: canonical involution independent of the Borel choice", ok)


def _suite_slice(c: _Checker, seed: int, selected):
    from .slices import kw_audit

    for spec in MATRIX_CATALOG:
        if spec not in selected:
            continue
        audit = kw_audit(realize(spec), seed=seed)
        c.check(f"{spec}: 50 slice samples regular, quotient injective, "
                "20 round trips", audit["samples_regular"] == 50
                and audit["round_trips"] == 20)
        c.check(f"{spec}: section at 0 is the regular nilpotent (e, 0), not (0, 0)",
                audit["kappa_at_zero_is_e"] and audit["kappa_at_zero_nonzero"])


def _suite_fibers(c: _Checker, seed: int, selected):
    from .diagonal import diagonal_isomorphism_check
    from .fibers import (component_census, fiber_component_dimensions,
                         fiber_over_regular, mixed_degenerate_element,
                         regular_ss_element)
    from .gaussian import ZERO
    from .slices import ElementOfG1, build_kw_section, conjugate_ss_into_a

    for spec in MATRIX_CATALOG:
        if spec not in selected:
            continue
        pair = realize(spec)
        rss = regular_ss_element(pair)
        rep = fiber_over_regular(pair, rss)
        c.check(f"{spec}: regular semisimple fiber has |W_a| = {rep.wa_order} points",
                rep.cardinality == rep.wa_order == rep.orbit_size_formula)
        section = build_kw_section(pair)
        nil = ElementOfG1.from_coords(pair, section.e)
        rep_n = fiber_over_regular(pair, nil)
        c.check(f"{spec}: regular nilpotent fiber is a single point",
                rep_n.cardinality == 1)
        deg = mixed_degenerate_element(pair)
        rep_d = fiber_over_regular(pair, deg)
        c.check(f"{spec}: degenerate fiber matches |W_a|/|Stab| "
                f"= {rep_d.orbit_size_formula}",
                rep_d.cardinality == rep_d.orbit_size_formula)
        census = component_census(pair, rss)
        c.check(f"{spec}: census {census.total_points} points in "
                f"{census.group_count} groups of {census.wa_order}",
                census.total_points == census.group_count * census.wa_order)
        audit0 = fiber_component_dimensions(pair, [ZERO] * pair.dim_g)
        c.check(f"{spec}: dimension audit at 0 "
                f"({audit0.component_count} components)", audit0.passes())
        ss, _ = deg.jordan_parts()
        ss1 = conjugate_ss_into_a(pair, ss).apply(ss)
        audit_d = fiber_component_dimensions(pair, ss1)
        c.check(f"{spec}: dimension audit at a degenerate point", audit_d.passes())
        if spec == "splitA:n=1":
            c.check("sl2/so2: two components over 0",
                    audit0.component_count == 2)
    for spec in ("diag:sl2", "diag:sl3"):
        if spec not in selected:
            continue
        audit = diagonal_isomorphism_check(realize(spec), seed=seed, n_samples=20)
        c.check(f"{spec}: diagonal-pair comparison, 20 exact round trips",
                audit == (20, 0))


def _suite_stabilizers(c: _Checker, seed: int, selected):
    import random

    from .gaussian import GaussRat, ZERO
    from .slices import build_kw_section, is_regular
    from .stabilizers import (admissible_elements, centralizer_plane,
                              lattice_model, stabilizer_fiber,
                              tangent_space_solver)

    if "splitA:n=1" in selected:
        p = realize("splitA:n=1")
        section = build_kw_section(p)
        plane = centralizer_plane(p, section.e)
        fiber = stabilizer_fiber(p, plane)
        c.check("SL2: nilpotent-plane stabilizer = {+-1}",
                fiber.component_count == 2 and fiber.identity_component_dim == 0)
        c.check("SL2: alpha(+-1) = 1, both elements admissible",
                all(v == 1 for row in fiber.character_values for v in row))
        rep_sl, adm_sl = admissible_elements(lattice_model("sl2_split"))
        c.check("SL2 lattice: fixed torus of order 2, both admissible",
                rep_sl.component_order == 2 and len(adm_sl) == 2)
        rep_pgl, adm_pgl = admissible_elements(lattice_model("pgl2_split"))
        c.check("PGL2 lattice: fixed torus of order 2, exactly one admissible",
                rep_pgl.component_order == 2 and len(adm_pgl) == 1)
    for spec in MATRIX_CATALOG:
        if spec not in selected:
            continue
        pair = realize(spec)
        rng = random.Random(1000 + seed)
        ok = True
        count = 0
        tries = 0
        while count < 10 and tries < 200:
            tries += 1
            acc = [ZERO] * pair.dim_g
            for v in pair.a_basis:
                co = GaussRat(rng.randint(-6, 6))
                acc = [a + co * b for a, b in zip(acc, v)]
            if not is_regular(pair, acc):
                continue
            plane = centralizer_plane(pair, acc)
            rep = tangent_space_solver(pair, plane)
            if not rep.passes:
                ok = False
                break
            count += 1
        c.check(f"{spec}: tangent solver dimension = dim g1 - r1 with bijective "
                f"evaluation at {count} regular planes", ok and count == 10)


_SUITE_RUNNERS = {
    "weyl": _suite_weyl,
    "borels": _suite_borels,
    "nilcone": _suite_nilcone,
    "slice": _suite_slice,
    "fibers": _suite_fibers,
    "stabilizers": _suite_stabilizers,
}


if __name__ == "__main__":
    sys.exit(main())
