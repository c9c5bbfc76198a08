"""Report documents: one JSON-serializable summary per catalog pair.

Each section is a module-level function of (pair, seed), shared with the
check table in `checks`.  Field order is fixed at construction so two runs
with the same flags produce byte-identical JSON (timing is informational
and can be dropped for the strict determinism contract).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .diagonal import diagonal_isomorphism_check
from .gaussian import SplittingFieldTooLarge, ZERO
from .involutions import (
    canonical_involution,
    compute_subgroups,
    detect_regular_borels,
    enumerate_split_borels,
)
from .pairs import PairSpec, SymmetricPairRealization, realize
from .slices import ElementOfG1, build_kw_section, conjugate_ss_into_a, kw_audit
from .fibers import (
    component_census,
    fiber_component_dimensions,
    fiber_over_regular,
    mixed_degenerate_element,
    regular_ss_element,
)
from .stabilizers import (
    admissible_elements,
    centralizer_plane,
    lattice_model,
    stabilizer_fiber,
    tangent_space_solver,
)

SCHEMA_VERSION = 1


class SectionError(Exception):
    """An exception raised inside a report section; the message names the
    pair, the stage and the original exception, which is the cause."""


def _str_matrix(m) -> List[List[str]]:
    return [[str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def subgroup_section(pair: SymmetricPairRealization, seed: int = 0) -> Dict:
    sub = compute_subgroups(pair)
    return {
        "W_order": sub.W_order,
        "W_theta_order": sub.W_theta_order,
        "W0_order": sub.W0_order,
        "Wa_order": sub.Wa_order,
        "index_W_theta_over_W0": sub.indices[0],
        "index_W_over_W_theta": sub.indices[1],
    }


def regular_class_section(pair: SymmetricPairRealization, seed: int = 0) -> Dict:
    classes = detect_regular_borels(pair)
    return {
        "class_count": len(classes),
        "regular_count": sum(1 for c in classes if c.regular),
        "classes": [
            {
                "size": c.class_size,
                "regular": c.regular,
                "shortcut_agrees": c.shortcut_regular == c.regular,
            }
            for c in classes
        ],
    }


def borel_section(pair: SymmetricPairRealization, seed: int = 0) -> Dict:
    borels = enumerate_split_borels(pair)
    wa_order = compute_subgroups(pair).Wa_order
    return {
        "split_borel_count": len(borels),
        "Wa_order": wa_order,
        "torsor": len(borels) == wa_order,
    }


def canonical_involution_section(pair: SymmetricPairRealization, seed: int = 0) -> Dict:
    theta_can = canonical_involution(pair)
    return {
        "well_defined": theta_can.is_involution,
        "matrix": _str_matrix(theta_can.matrix),
        "fixed_dim_plus_r1_equals_rank":
            theta_can.fixed_dim + pair.rank_r1 == pair.rank_g,
    }


def fiber_section(pair: SymmetricPairRealization, seed: int = 0) -> Dict:
    """Fibers over the regular semisimple sample, the regular nilpotent and
    the degenerate sample, and the component census over the first;
    `group_size` is the common size of the census groups (None if they
    differ)."""
    rss = regular_ss_element(pair)
    rep = fiber_over_regular(pair, rss)
    nil = ElementOfG1.from_coords(pair, build_kw_section(pair).e)
    rep_n = fiber_over_regular(pair, nil)
    rep_d = fiber_over_regular(pair, mixed_degenerate_element(pair))
    census = component_census(pair, rss)
    sizes = {len(g) for g in census.groups}
    return {
        "regular_semisimple": {
            "cardinality": rep.cardinality,
            "formula": rep.orbit_size_formula,
            "stabilizer_order": rep.stabilizer_order,
        },
        "regular_nilpotent": {
            "cardinality": rep_n.cardinality,
            "formula": rep_n.orbit_size_formula,
        },
        "degenerate": {
            "cardinality": rep_d.cardinality,
            "formula": rep_d.orbit_size_formula,
            "stabilizer_order": rep_d.stabilizer_order,
        },
        "component_census": {
            "total_points": census.total_points,
            "groups": census.group_count,
            "group_size": sizes.pop() if len(sizes) == 1 else None,
        },
    }


def dimension_audit_section(pair: SymmetricPairRealization, seed: int = 0) -> Dict:
    """The dimension audit at 0 and at the Cartan-subspace image of the
    degenerate sample's semisimple part."""
    at_zero = fiber_component_dimensions(pair, [ZERO] * pair.dim_g)
    ss, _ = mixed_degenerate_element(pair).jordan_parts()
    at_deg = fiber_component_dimensions(pair, conjugate_ss_into_a(pair, ss).apply(ss))
    return {
        "at_zero": {
            "components": at_zero.component_count,
            "all_equal_dim_g1_minus_r1": at_zero.passes(),
        },
        "at_degenerate": {
            "components": at_deg.component_count,
            "all_equal_dim_g1_minus_r1": at_deg.passes(),
        },
    }


def diagonal_section(pair: SymmetricPairRealization, seed: int = 0) -> Dict:
    diag = diagonal_isomorphism_check(pair, seed=seed)
    return {"round_trips": diag.round_trips, "passes": diag.failures == 0}


def stabilizer_section(pair: SymmetricPairRealization, seed: int = 0) -> Optional[Dict]:
    """The nilpotent-plane stabilizer and tangent solver; rank-one pairs
    splitA:n=1 and glgl:n=1 only (None otherwise)."""
    if (pair.spec.family, pair.spec.n) not in (("splitA", 1), ("glgl", 1)):
        return None
    plane = centralizer_plane(pair, build_kw_section(pair).e)
    fiber = stabilizer_fiber(pair, plane)
    tangent = tangent_space_solver(pair, plane)
    return {
        "nilpotent_plane_components": fiber.component_count,
        "identity_component_dim": fiber.identity_component_dim,
        "tangent_dimension": tangent.solution_dimension,
        "tangent_expected": tangent.expected_dimension,
        "evaluation_bijective": tangent.evaluation_bijective,
    }


def torus_section(pair: SymmetricPairRealization, seed: int = 0) -> Optional[Dict]:
    """The character-lattice models of the fixed torus attached to the
    rank-one pairs (None for the others)."""
    models = []
    if pair.spec.family == "splitA" and pair.spec.n == 1:
        models = ["sl2_split", "pgl2_split"]
    elif pair.spec.family == "glgl" and pair.spec.n == 1:
        models = ["glgl1"]
    elif pair.spec.family == "diag" and pair.spec.base == "sl2":
        models = ["diag_sl2"]
    out = {}
    for name in models:
        report, admissible = admissible_elements(lattice_model(name))
        out[name] = {
            "identity_component_dim": report.free_rank,
            "component_order": report.component_order,
            "invariant_factors": list(report.torsion),
            "admissible_count": len(admissible),
        }
    return out or None


def build_report(spec: str, seed: int = 0, with_timing: bool = True) -> Dict:
    """Realize the pair and run every applicable section, assembling the
    document; sampling uses the seed, verdict fields never depend on it.
    A spec that does not parse raises CatalogError.  A stage that raises,
    `realize` included, is reported with the pair and stage: as
    SplittingFieldTooLarge when it left the exact domain, as SectionError
    otherwise."""
    parsed = PairSpec.parse(spec)
    pair_id = parsed.render()
    timing: Dict[str, float] = {}

    def stage(name, compute):
        start = time.perf_counter()
        try:
            value = compute()
        except SplittingFieldTooLarge as exc:
            raise SplittingFieldTooLarge(
                f"{pair_id}: {name}: {type(exc).__name__}: {exc}") from exc
        except Exception as exc:
            raise SectionError(
                f"{pair_id}: {name}: {type(exc).__name__}: {exc}") from exc
        timing[name] = round((time.perf_counter() - start) * 1000, 3)
        return value

    pair = stage("realize", lambda: realize(parsed))
    doc: Dict = {"schema_version": SCHEMA_VERSION, "pair_id": pair_id}

    def put(key, name, section):
        value = stage(name, lambda: section(pair, seed))
        if value is not None:
            doc[key] = value

    put("subgroup_report", "subgroups", subgroup_section)
    if pair.matrix_level or pair.comb.compactness is not None:
        put("regular_class_census", "regular_classes", regular_class_section)
    if pair.matrix_level:
        put("borel_census", "split_borels", borel_section)
        put("canonical_involution", "canonical_involution", canonical_involution_section)
        put("kw_audit", "kw_audit", kw_audit)
        put("fiber_reports", "fibers", fiber_section)
        put("dimension_audit", "dimension_audit", dimension_audit_section)
        if pair.spec.family == "diag":
            put("diagonal_isomorphism", "diagonal_isomorphism", diagonal_section)
        put("stabilizer_reports", "stabilizers", stabilizer_section)
        put("torus_reports", "torus_models", torus_section)

    if with_timing:
        doc["timing_ms"] = timing
    return doc


def render_tables(doc: Dict) -> str:
    """Aligned text rendering of a report document."""
    lines = [f"pair: {doc['pair_id']}  (schema v{doc['schema_version']})"]

    def table(title, rows):
        lines.append("")
        lines.append(title)
        width = max(len(k) for k, _ in rows) if rows else 0
        for k, v in rows:
            lines.append(f"  {k.ljust(width)}  {v}")

    sub = doc["subgroup_report"]
    table("weyl groups", [
        ("|W|", sub["W_order"]),
        ("|W^theta|", sub["W_theta_order"]),
        ("|W0|", sub["W0_order"]),
        ("|W_a|", sub["Wa_order"]),
        ("[W^theta : W0]", sub["index_W_theta_over_W0"]),
        ("[W : W^theta]", sub["index_W_over_W_theta"]),
    ])
    if "regular_class_census" in doc:
        rc = doc["regular_class_census"]
        table("theta-stable Borel classes", [
            ("classes (W0\\W^theta)", rc["class_count"]),
            ("regular classes", rc["regular_count"]),
        ])
    if "borel_census" in doc:
        bc = doc["borel_census"]
        table("theta-split Borels", [
            ("count", bc["split_borel_count"]),
            ("W_a torsor", "yes" if bc["torsor"] else "NO"),
        ])
    if "canonical_involution" in doc:
        ci = doc["canonical_involution"]
        table("canonical involution", [
            ("well defined", "yes" if ci["well_defined"] else "NO"),
            ("matrix", "; ".join(" ".join(r) for r in ci["matrix"])),
        ])
    if "kw_audit" in doc:
        kw = doc["kw_audit"]
        table("slice audit", [(k, v) for k, v in kw.items()])
    if "fiber_reports" in doc:
        fr = doc["fiber_reports"]
        rows = []
        for key, val in fr.items():
            if key == "component_census":
                rows.append(("census", f"{val['total_points']} points = "
                            f"{val['groups']} x {val['group_size']}"))
            else:
                rows.append((key, f"{val['cardinality']} (formula {val['formula']})"))
        table("fibers", rows)
    if "dimension_audit" in doc:
        da = doc["dimension_audit"]
        table("dimension audit", [
            ("components at 0", da["at_zero"]["components"]),
            ("audit at 0", "pass" if da["at_zero"]["all_equal_dim_g1_minus_r1"] else "FAIL"),
            ("components at degenerate", da["at_degenerate"]["components"]),
            ("audit at degenerate",
             "pass" if da["at_degenerate"]["all_equal_dim_g1_minus_r1"] else "FAIL"),
        ])
    if "diagonal_isomorphism" in doc:
        table("diagonal-pair comparison", [
            ("round trips", doc["diagonal_isomorphism"]["round_trips"]),
            ("both composites identity",
             "yes" if doc["diagonal_isomorphism"]["passes"] else "NO"),
        ])
    if "stabilizer_reports" in doc:
        st = doc["stabilizer_reports"]
        table("stabilizers", [(k, v) for k, v in st.items()])
    if "torus_reports" in doc:
        for name, val in doc["torus_reports"].items():
            table(f"fixed torus [{name}]", [(k, v) for k, v in val.items()])
    if "timing_ms" in doc:
        table("timing (ms)", [(k, v) for k, v in doc["timing_ms"].items()])
    return "\n".join(lines) + "\n"
