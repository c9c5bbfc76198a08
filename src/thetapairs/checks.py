"""The table of named checks behind `theta-pairs verify`.

Each entry of `CHECKS` is one finite claim at the catalog pairs it applies
to.  Its section computes the data at a pair (a report section, or a
verify-only computation below); its verdict reads the data and returns the
printed label, witness numbers included, with a computed boolean.
`run_checks` walks the table suite by suite, block by block and pair by
pair, computing each section once per pair and block.
"""

from __future__ import annotations

import random
from itertools import groupby
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional, Tuple

from .gaussian import GaussRat
from .involutions import compute_subgroups
from .liealg import _combine
from .pairs import MATRIX_CATALOG, SymmetricPairRealization, realize
from .report import (
    borel_section,
    canonical_involution_section,
    dimension_audit_section,
    diagonal_section,
    fiber_section,
    regular_class_section,
    subgroup_section,
    torus_section,
)
from .rootsystem import (build_root_datum, enumerate_weyl, recognize_type,
                         restricted_reflection_norms)
from .slices import build_kw_section, is_regular, kw_audit
from .stabilizers import centralizer_plane, stabilizer_fiber, tangent_space_solver

class Check(NamedTuple):
    id: str
    suite: str
    pairs: Tuple[str, ...]
    section: Callable[[SymmetricPairRealization, int], object]
    verdict: Callable[[SymmetricPairRealization, object], Tuple[str, bool]]
    block: int = 0   # a suite runs its blocks in turn, each one pair by pair


class Outcome(NamedTuple):
    check: Check
    spec: str
    label: str                    # empty when the check raised
    ok: bool
    error: Optional[Exception]


# -- verify-only sections ----------------------------------------------------------

# a basis of the theta-fixed part of the E6 root lattice, in simple-root coordinates
_E6_FIXED_LATTICE = [(1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0),
                     (0, 0, 0, 1, 0, 0)]


def _w_theta_type(pair, seed):
    """Coxeter type of W^theta acting on the theta-fixed lattice."""
    sub = compute_subgroups(pair)
    norms = restricted_reflection_norms(pair.comb.datum, sub.W_theta_perms,
                                        _E6_FIXED_LATTICE)
    return recognize_type(sub.W_theta_order, norms)


def _c4_order(pair, seed):
    return enumerate_weyl(build_root_datum("C4")).order


def _nilpotent_plane_fiber(pair, seed):
    return stabilizer_fiber(pair, centralizer_plane(pair, build_kw_section(pair).e))


def _tangent_planes(pair, seed):
    """The tangent solver at the first 10 regular points of a drawn from
    the seed, in at most 200 draws; returns (planes solved, whether every
    one passed)."""
    rng = random.Random(1000 + seed)
    count = 0
    for _ in range(200):
        if count == 10:
            break
        x = _combine(pair.a_basis, [GaussRat(rng.randint(-6, 6)) for _ in pair.a_basis])
        if not is_regular(pair, x):
            continue
        if not tangent_space_solver(pair, centralizer_plane(pair, x)).passes:
            return count, False
        count += 1
    return count, True


# -- verdicts that read more than one field ---------------------------------------------

_REGULAR_CLASSES = {"splitA:n=1": 2, "splitA:n=2": 1, "glgl:n=1": 2,
                    "diag:sl2": 1, "diag:sl3": 1}


def _regular_classes(pair, d):
    want = _REGULAR_CLASSES[pair.pair_id]
    return (f"{pair.pair_id}: {want} regular class(es), shortcut agrees with the "
            "semantic test",
            d["regular_count"] == want and all(c["shortcut_agrees"] for c in d["classes"]))


def _regular_semisimple_fiber(pair, d):
    wa = compute_subgroups(pair).Wa_order
    rss = d["regular_semisimple"]
    return (f"{pair.pair_id}: regular semisimple fiber has |W_a| = {wa} points",
            rss["cardinality"] == wa == rss["formula"])


def _census(pair, d):
    wa = compute_subgroups(pair).Wa_order
    c = d["component_census"]
    return (f"{pair.pair_id}: census {c['total_points']} points in {c['groups']} "
            f"groups of {c['group_size']}",
            c["group_size"] == wa and c["total_points"] == c["groups"] * wa)


# -- the table ---------------------------------------------------------------------------

E6, G2, SL2 = ("e6qs",), ("g2split",), ("splitA:n=1",)

CHECKS: Tuple[Check, ...] = (
    # weyl: the subgroup chain W0 <= W^theta <= W
    Check("e6.W_order", "weyl", E6, subgroup_section,
          lambda p, d: ("E6: |W| = 51840", d["W_order"] == 51840)),
    Check("e6.W_theta_order", "weyl", E6, subgroup_section,
          lambda p, d: ("E6: |W^theta| = 1152", d["W_theta_order"] == 1152)),
    Check("e6.index_W_over_W_theta", "weyl", E6, subgroup_section,
          lambda p, d: ("E6: [W:W^theta] = 45", d["index_W_over_W_theta"] == 45)),
    Check("e6.index_W_theta_over_W0", "weyl", E6, subgroup_section,
          lambda p, d: ("E6: [W^theta:W0] = 3 with |W0| = 384",
                        d["index_W_theta_over_W0"] == 3 and d["W0_order"] == 384)),
    Check("e6.W_theta_type_F4", "weyl", E6, _w_theta_type,
          lambda p, t: ("E6: W^theta acts on the fixed lattice as type F4", t == "F4")),
    Check("c4.W_order", "weyl", E6, _c4_order,
          lambda p, n: ("C4: order formula 384", n == 384)),
    Check("g2.index_W_theta_over_W0", "weyl", G2, subgroup_section,
          lambda p, d: ("G2: [W^theta:W0] = 3", d["index_W_theta_over_W0"] == 3)),
    # borels: the W_a-torsor of theta-split Borels and the canonical involution
    Check("borels.torsor", "borels", MATRIX_CATALOG, borel_section,
          lambda p, d: (f"{p.pair_id}: theta-split Borels form a W_a-torsor "
                        f"({d['split_borel_count']} = |W_a|)", d["torsor"])),
    Check("borels.canonical_involution", "borels", MATRIX_CATALOG,
          canonical_involution_section,
          lambda p, d: (f"{p.pair_id}: canonical involution independent of the Borel "
                        "choice",
                        d["well_defined"] and d["fixed_dim_plus_r1_equals_rank"])),
    # nilcone: regular theta-stable Borel classes
    Check("g2.borel_classes", "nilcone", G2, regular_class_section,
          lambda p, d: ("G2 split: three theta-stable Borel classes",
                        d["class_count"] == 3)),
    Check("g2.one_regular_class", "nilcone", G2, regular_class_section,
          lambda p, d: ("G2 split: exactly one regular class (irreducible nilpotent "
                        "cone)", d["regular_count"] == 1)),
    Check("nilcone.regular_classes", "nilcone", tuple(_REGULAR_CLASSES),
          regular_class_section, _regular_classes),
    # slice: the Kostant-Weierstrass section
    Check("slice.samples", "slice", MATRIX_CATALOG, kw_audit,
          lambda p, d: (f"{p.pair_id}: 50 slice samples regular, quotient injective, "
                        "20 round trips",
                        d["samples_regular"] == d["chi1_injective_on"] == 50
                        and d["round_trips"] == 20)),
    Check("slice.section_at_zero", "slice", MATRIX_CATALOG, kw_audit,
          lambda p, d: (f"{p.pair_id}: section at 0 is the regular nilpotent (e, 0), "
                        "not (0, 0)",
                        d["kappa_at_zero_is_e"] and d["kappa_at_zero_nonzero"])),
    # fibers: cardinalities, the census and the dimension audits
    Check("fibers.regular_semisimple", "fibers", MATRIX_CATALOG, fiber_section,
          _regular_semisimple_fiber),
    Check("fibers.regular_nilpotent", "fibers", MATRIX_CATALOG, fiber_section,
          lambda p, d: (f"{p.pair_id}: regular nilpotent fiber is a single point",
                        d["regular_nilpotent"]["cardinality"] == 1)),
    Check("fibers.degenerate", "fibers", MATRIX_CATALOG, fiber_section,
          lambda p, d: (f"{p.pair_id}: degenerate fiber matches |W_a|/|Stab| "
                        f"= {d['degenerate']['formula']}",
                        d["degenerate"]["cardinality"] == d["degenerate"]["formula"])),
    Check("fibers.census", "fibers", MATRIX_CATALOG, fiber_section, _census),
    Check("fibers.dimension_audit_at_zero", "fibers", MATRIX_CATALOG,
          dimension_audit_section,
          lambda p, d: (f"{p.pair_id}: dimension audit at 0 "
                        f"({d['at_zero']['components']} components)",
                        d["at_zero"]["all_equal_dim_g1_minus_r1"])),
    Check("fibers.dimension_audit_at_degenerate", "fibers", MATRIX_CATALOG,
          dimension_audit_section,
          lambda p, d: (f"{p.pair_id}: dimension audit at a degenerate point",
                        d["at_degenerate"]["all_equal_dim_g1_minus_r1"])),
    Check("fibers.sl2_two_components", "fibers", SL2, dimension_audit_section,
          lambda p, d: ("sl2/so2: two components over 0",
                        d["at_zero"]["components"] == 2)),
    Check("fibers.diagonal_round_trips", "fibers", ("diag:sl2", "diag:sl3"),
          diagonal_section,
          lambda p, d: (f"{p.pair_id}: diagonal-pair comparison, 20 exact round trips",
                        d["round_trips"] == 20 and d["passes"]),
          block=1),
    # stabilizers: the SL2 / PGL2 contrast and the tangent solver
    Check("sl2.nilpotent_plane_stabilizer", "stabilizers", SL2, _nilpotent_plane_fiber,
          lambda p, f: ("SL2: nilpotent-plane stabilizer = {+-1}",
                        f.component_count == 2 and f.identity_component_dim == 0)),
    Check("sl2.admissible", "stabilizers", SL2, _nilpotent_plane_fiber,
          lambda p, f: ("SL2: alpha(+-1) = 1, both elements admissible",
                        all(v == 1 for row in f.character_values for v in row))),
    Check("sl2.lattice", "stabilizers", SL2, torus_section,
          lambda p, d: ("SL2 lattice: fixed torus of order 2, both admissible",
                        d["sl2_split"]["component_order"] == 2
                        and d["sl2_split"]["admissible_count"] == 2)),
    Check("pgl2.lattice", "stabilizers", SL2, torus_section,
          lambda p, d: ("PGL2 lattice: fixed torus of order 2, exactly one admissible",
                        d["pgl2_split"]["component_order"] == 2
                        and d["pgl2_split"]["admissible_count"] == 1)),
    Check("stabilizers.tangent_solver", "stabilizers", MATRIX_CATALOG, _tangent_planes,
          lambda p, d: (f"{p.pair_id}: tangent solver dimension = dim g1 - r1 with "
                        f"bijective evaluation at {d[0]} regular planes",
                        d[1] and d[0] == 10)),
)

SUITES = tuple(dict.fromkeys(c.suite for c in CHECKS))


def run_checks(checks: Iterable[Check], selected: Collection[str],
               seed: int = 0) -> Iterator[Outcome]:
    """Evaluate the checks at the selected pairs, in table order; a check
    that raises yields a failed outcome carrying the exception."""
    for _, block in groupby(checks, key=lambda c: (c.suite, c.block)):
        block = list(block)
        specs = dict.fromkeys(s for c in block for s in c.pairs if s in selected)
        for spec in specs:
            data = {}
            for check in block:
                if spec not in check.pairs:
                    continue
                try:
                    pair = realize(spec)
                    if check.section not in data:
                        data[check.section] = check.section(pair, seed)
                    label, ok = check.verdict(pair, data[check.section])
                except Exception as exc:  # noqa: BLE001 - a raising check fails
                    yield Outcome(check, spec, "", False, exc)
                else:
                    yield Outcome(check, spec, label, bool(ok), None)
