"""Acceptance criteria: every finitely checkable claim at its stated
tolerance, one pass/fail line per criterion.

All verdicts are exact (integer/rational equalities); the only tolerances
are the runtime budgets, asserted with wall-clock measurements.
"""

import time

from thetapairs.gaussian import GaussRat, ZERO
from thetapairs.pairs import MATRIX_CATALOG, realize


def _announce(name, ok, note=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {note}")
    assert ok, note


def test_criterion_01_weyl_indices_e6():
    from thetapairs.involutions import compute_subgroups
    from thetapairs.rootsystem import recognize_type, restricted_reflection_norms

    start = time.perf_counter()
    pair = realize("e6qs")
    rep = compute_subgroups(pair)
    ok = (rep.W_order == 51840 and rep.W_theta_order == 1152
          and rep.W0_order == 384
          and rep.indices == (3, 45))
    fixed = [(1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0),
             (0, 0, 0, 1, 0, 0)]
    norms = restricted_reflection_norms(pair.comb.datum, rep.W_theta_perms, fixed)
    ok = ok and recognize_type(rep.W_theta_order, norms) == "F4"
    elapsed = time.perf_counter() - start
    _announce("1 (E6 indices 45 and 3, W^theta of type F4, W0 order 384)",
              ok and elapsed < 60, f"elapsed {elapsed:.1f}s")


def test_criterion_02_g2_split():
    from thetapairs.involutions import compute_subgroups, detect_regular_borels

    start = time.perf_counter()
    pair = realize("g2split")
    rep = compute_subgroups(pair)
    classes = detect_regular_borels(pair)
    nreg = sum(1 for c in classes if c.regular)
    elapsed = time.perf_counter() - start
    _announce("2 (G2 split: index 3 with exactly one regular class)",
              rep.indices[0] == 3 and len(classes) == 3 and nreg == 1
              and elapsed < 1.0, f"elapsed {elapsed:.2f}s")


def test_criterion_03_split_borel_torsor():
    from thetapairs.involutions import compute_subgroups, enumerate_split_borels

    pairs = [realize(s) for s in MATRIX_CATALOG]  # construction outside the budget
    start = time.perf_counter()
    ok = True
    for pair in pairs:
        rep = compute_subgroups(pair)
        borels = enumerate_split_borels(pair)  # raises unless simply transitive
        ok = ok and len(borels) == rep.Wa_order
    elapsed = time.perf_counter() - start
    _announce("3 (theta-split Borels form a W_a-torsor for all matrix pairs)",
              ok and elapsed < 30, f"elapsed {elapsed:.1f}s")


def test_criterion_04_canonical_involution_well_defined():
    from thetapairs.involutions import canonical_involution

    ok = True
    for spec in MATRIX_CATALOG:
        pair = realize(spec)
        try:
            theta_can = canonical_involution(pair)  # bitwise equality asserted inside
            ok = (ok and theta_can.is_involution
                  and theta_can.fixed_dim + pair.rank_r1 == pair.rank_g)
        except Exception:
            ok = False
    _announce("4 (canonical involution identical from every split Borel)", ok)


def test_criterion_05_kw_slice():
    from thetapairs.slices import kw_audit

    start = time.perf_counter()
    ok = True
    for spec in MATRIX_CATALOG:
        audit = kw_audit(realize(spec), n_samples=50, n_round_trips=20)
        ok = ok and audit["samples_regular"] == 50 and audit["round_trips"] == 20
    elapsed = time.perf_counter() - start
    _announce("5 (50 regular slice samples, injective quotient, 20 round trips)",
              ok and elapsed < 60, f"elapsed {elapsed:.1f}s")


def test_criterion_06_fiber_cardinalities():
    from thetapairs.fibers import (fiber_over_regular, mixed_degenerate_element,
                                   regular_ss_element)
    from thetapairs.slices import ElementOfG1, build_kw_section

    ok = True
    notes = []
    for spec in MATRIX_CATALOG:
        pair = realize(spec)
        rep = fiber_over_regular(pair, regular_ss_element(pair))
        ok = ok and rep.cardinality == rep.wa_order == rep.orbit_size_formula
        section = build_kw_section(pair)
        rep_n = fiber_over_regular(pair, ElementOfG1.from_coords(pair, section.e))
        ok = ok and rep_n.cardinality == 1
        rep_d = fiber_over_regular(pair, mixed_degenerate_element(pair))
        ok = ok and rep_d.cardinality == rep_d.orbit_size_formula
        notes.append(f"{spec}:{rep.cardinality}/{rep_n.cardinality}/{rep_d.cardinality}")
    _announce("6 (fiber sizes |W_a|, 1, |W_a|/|Stab|)", ok, " ".join(notes))


def test_criterion_07_component_census():
    from thetapairs.fibers import component_census, regular_ss_element

    ok = True
    for spec in MATRIX_CATALOG:
        pair = realize(spec)
        census = component_census(pair, regular_ss_element(pair))
        ok = (ok and census.total_points == census.group_count * census.wa_order
              and all(len(g) == census.wa_order for g in census.groups))
    _announce("7 (census: |W| points in |W/W_a| groups of size |W_a|)", ok)


def test_criterion_08_dimension_audit():
    from thetapairs.fibers import (fiber_component_dimensions,
                                   mixed_degenerate_element)
    from thetapairs.slices import conjugate_ss_into_a

    ok = True
    sl2_components = None
    for spec in MATRIX_CATALOG:
        pair = realize(spec)
        audit0 = fiber_component_dimensions(pair, [ZERO] * pair.dim_g)
        ok = ok and audit0.passes()
        if spec == "splitA:n=1":
            sl2_components = audit0.component_count
        deg = mixed_degenerate_element(pair)
        ss, _ = deg.jordan_parts()
        ss1 = conjugate_ss_into_a(pair, ss).apply(ss)
        audit_d = fiber_component_dimensions(pair, ss1)
        ok = ok and audit_d.passes()
    _announce("8 (dimension audit at 0 and a degenerate point; sl2/so2 has "
              "two components over 0)", ok and sl2_components == 2)


def test_criterion_09_diagonal_isomorphism():
    from thetapairs.diagonal import diagonal_isomorphism_check

    ok = True
    for spec in ("diag:sl2", "diag:sl3"):
        ok = ok and diagonal_isomorphism_check(realize(spec), n_samples=20) == (20, 0)
    _announce("9 (diagonal pair: both composites identity on 20 samples)", ok)


def test_criterion_10_stabilizer_contrast():
    from thetapairs.slices import build_kw_section
    from thetapairs.stabilizers import (admissible_elements, centralizer_plane,
                                        lattice_model, stabilizer_fiber)

    pair = realize("splitA:n=1")
    section = build_kw_section(pair)
    fiber = stabilizer_fiber(pair, centralizer_plane(pair, section.e))
    sl2_ok = (fiber.component_count == 2 and fiber.identity_component_dim == 0
              and all(v == 1 for row in fiber.character_values for v in row))
    rep_sl, adm_sl = admissible_elements(lattice_model("sl2_split"))
    rep_pgl, adm_pgl = admissible_elements(lattice_model("pgl2_split"))
    lattice_ok = (rep_sl.component_order == 2 and len(adm_sl) == 2
                  and rep_pgl.component_order == 2 and len(adm_pgl) == 1)
    _announce("10 (SL2 fiber {+-1} both admissible; PGL2 order 2 with one "
              "admissible)", sl2_ok and lattice_ok)


def test_criterion_11_tangent_solver():
    import random

    from thetapairs.slices import is_regular
    from thetapairs.stabilizers import centralizer_plane, tangent_space_solver

    ok = True
    for spec in MATRIX_CATALOG:
        pair = realize(spec)
        rng = random.Random(42)
        checked = 0
        tries = 0
        while checked < 10 and tries < 400:
            tries += 1
            coeffs = [rng.randint(-7, 7) for _ in range(pair.rank_r1)]
            acc = [ZERO] * pair.dim_g
            for c, v in zip(coeffs, pair.a_basis):
                acc = [a + GaussRat(c) * b for a, b in zip(acc, v)]
            if not is_regular(pair, acc):
                continue
            rep = tangent_space_solver(pair, centralizer_plane(pair, acc))
            ok = ok and rep.passes
            checked += 1
        ok = ok and checked == 10
    _announce("11 (tangent dimension dim g1 - r1 with bijective evaluation, "
              "10 regular planes per pair)", ok)


def test_criterion_12_section_value_at_zero():
    from thetapairs.slices import build_kw_section, is_regular, kw_solve

    ok = True
    for spec in MATRIX_CATALOG:
        pair = realize(spec)
        section = build_kw_section(pair)
        coeffs = kw_solve(section, [ZERO] * pair.rank_r1)
        kappa0 = section.slice_point(coeffs)
        ok = (ok and kappa0 == section.e
              and any(not c.is_zero() for c in kappa0)
              and pair.from_coords(kappa0).is_nilpotent()
              and is_regular(pair, kappa0))
    _announce("12 (section at 0 is (e, 0) with e a nonzero regular nilpotent)", ok)
