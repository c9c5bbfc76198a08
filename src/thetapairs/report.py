"""Report documents: one JSON-serializable summary per catalog pair.

Field order is fixed at construction so two runs with the same flags
produce byte-identical JSON (timing is informational and can be dropped
for the strict determinism contract).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .gaussian import ZERO
from .involutions import (
    canonical_involution,
    compute_subgroups,
    detect_regular_borels,
    enumerate_split_borels,
)
from .pairs import realize
from .slices import build_kw_section, kw_audit
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


def _str_matrix(m) -> List[List[str]]:
    return [[str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def build_report(spec: str, seed: int = 0, with_timing: bool = True) -> Dict:
    """Run every applicable computation for the pair and assemble the
    document; sampling uses the seed, verdict fields never depend on it."""
    pair = realize(spec)
    doc: Dict = {"schema_version": SCHEMA_VERSION, "pair_id": pair.pair_id}
    timing: Dict[str, float] = {}

    def timed(name, fn):
        from .gaussian import SplittingFieldTooLarge

        start = time.perf_counter()
        try:
            value = fn()
        except SplittingFieldTooLarge as exc:
            raise SplittingFieldTooLarge(f"{name}: {exc}") from exc
        timing[name] = round((time.perf_counter() - start) * 1000, 3)
        return value

    sub = timed("subgroups", lambda: compute_subgroups(pair))
    doc["subgroup_report"] = {
        "W_order": sub.W_order,
        "W_theta_order": sub.W_theta_order,
        "W0_order": sub.W0_order,
        "Wa_order": sub.Wa_order,
        "index_W_theta_over_W0": sub.indices[0],
        "index_W_over_W_theta": sub.indices[1],
    }

    if pair.matrix_level or pair.comb.compactness is not None:
        classes = timed("regular_classes", lambda: detect_regular_borels(pair))
        doc["regular_class_census"] = {
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

    if pair.matrix_level:
        borels = timed("split_borels", lambda: enumerate_split_borels(pair))
        doc["borel_census"] = {
            "split_borel_count": len(borels),
            "Wa_order": sub.Wa_order,
            "torsor": len(borels) == sub.Wa_order,
        }
        theta_can = timed("canonical_involution", lambda: canonical_involution(pair))
        doc["canonical_involution"] = {
            "well_defined": theta_can.is_involution,
            "matrix": _str_matrix(theta_can.matrix),
            "fixed_dim_plus_r1_equals_rank":
                theta_can.fixed_dim + pair.rank_r1 == pair.rank_g,
        }
        audit = timed("kw_audit", lambda: kw_audit(pair, seed=seed))
        doc["kw_audit"] = audit

        def fibers():
            out = {}
            rss = regular_ss_element(pair)
            rep = fiber_over_regular(pair, rss)
            out["regular_semisimple"] = {
                "cardinality": rep.cardinality,
                "formula": rep.orbit_size_formula,
                "stabilizer_order": rep.stabilizer_order,
            }
            section = build_kw_section(pair)
            from .slices import ElementOfG1

            nil = ElementOfG1.from_coords(pair, section.e)
            rep_n = fiber_over_regular(pair, nil)
            out["regular_nilpotent"] = {
                "cardinality": rep_n.cardinality,
                "formula": rep_n.orbit_size_formula,
            }
            deg = mixed_degenerate_element(pair)
            rep_d = fiber_over_regular(pair, deg)
            out["degenerate"] = {
                "cardinality": rep_d.cardinality,
                "formula": rep_d.orbit_size_formula,
                "stabilizer_order": rep_d.stabilizer_order,
            }
            census = component_census(pair, rss)
            out["component_census"] = {
                "total_points": census.total_points,
                "groups": census.group_count,
                "group_size": census.wa_order,
            }
            return out

        doc["fiber_reports"] = timed("fibers", fibers)

        def dimension_audits():
            zero = [ZERO] * pair.dim_g
            at_zero = fiber_component_dimensions(pair, zero)
            deg = mixed_degenerate_element(pair)
            ss, _ = deg.jordan_parts()
            from .slices import conjugate_ss_into_a

            ss1 = conjugate_ss_into_a(pair, ss).apply(ss)
            at_deg = fiber_component_dimensions(pair, ss1)
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

        doc["dimension_audit"] = timed("dimension_audit", dimension_audits)

        if pair.spec.family == "diag":
            from .diagonal import diagonal_isomorphism_check

            diag = timed("diagonal_isomorphism",
                         lambda: diagonal_isomorphism_check(pair, seed=seed))
            doc["diagonal_isomorphism"] = {"round_trips": diag.round_trips,
                                           "passes": diag.failures == 0}

        def stabilizer_section() -> Optional[Dict]:
            fam = pair.spec.family
            if (fam, pair.spec.n) not in (("splitA", 1), ("glgl", 1)):
                return None
            section = build_kw_section(pair)
            plane = centralizer_plane(pair, section.e)
            fiber = stabilizer_fiber(pair, plane)
            tangent = tangent_space_solver(pair, plane)
            return {
                "nilpotent_plane_components": fiber.component_count,
                "identity_component_dim": fiber.identity_component_dim,
                "tangent_dimension": tangent.solution_dimension,
                "tangent_expected": tangent.expected_dimension,
                "evaluation_bijective": tangent.evaluation_bijective,
            }

        stab = timed("stabilizers", stabilizer_section)
        if stab is not None:
            doc["stabilizer_reports"] = stab

        def torus_section() -> Optional[Dict]:
            models = []
            if pair.spec.family == "splitA" and pair.spec.n == 1:
                models = ["sl2_split", "pgl2_split"]
            elif pair.spec.family == "glgl" and pair.spec.n == 1:
                models = ["glgl1"]
            elif pair.spec.family == "diag" and pair.spec.base == "sl2":
                models = ["diag_sl2"]
            if not models:
                return None
            out = {}
            for name in models:
                model = lattice_model(name)
                report, admissible = admissible_elements(model)
                out[name] = {
                    "identity_component_dim": report.free_rank,
                    "component_order": report.component_order,
                    "invariant_factors": list(report.torsion),
                    "admissible_count": len(admissible),
                }
            return out

        torus = timed("torus_models", torus_section)
        if torus is not None:
            doc["torus_reports"] = torus

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
