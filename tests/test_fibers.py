"""Fibers, census, dimension audits, and the diagonal comparison."""

import random
from collections import Counter

import pytest
from conftest import exhibit_fiber_conjugators, recursive_invariant_flags, split_weyl_table

from thetapairs.gaussian import GaussRat, ZERO
from thetapairs.pairs import MATRIX_CATALOG, realize
from thetapairs.slices import (
    ElementOfG1,
    NotRegular,
    build_kw_section,
    conjugate_ss_into_a,
    is_regular,
)
from thetapairs.fibers import (
    _centralizer_classes,
    _class_audit,
    _defining_slots,
    _flag_filtrations,
    _flag_witness,
    _verify_fiber_point,
    component_census,
    fiber_component_dimensions,
    fiber_over_regular,
    g0_weyl_lifts,
    mixed_degenerate_element,
    regular_ss_element,
)
from thetapairs.diagonal import diagonal_isomorphism_check
from thetapairs.involutions import SplitWeylLifts, compute_subgroups
from thetapairs.liealg import LinearAlgebraFrame, gvec, weight_value
from thetapairs.matrix import (
    ExactMatrix,
    coordinates_in_basis,
    intersect_spans,
    restrict_action,
    span_eq,
    span_rank,
)
from thetapairs.rootsystem import enumerate_weyl


def a_combo(pair, coeffs):
    acc = [ZERO] * pair.dim_g
    for c, v in zip(coeffs, pair.a_basis):
        acc = [a + GaussRat(c) * b for a, b in zip(acc, v)]
    return acc


def test_fiber_rejects_non_regular():
    p = realize("splitA:n=2")
    with pytest.raises(NotRegular):
        fiber_over_regular(p, ElementOfG1.from_coords(p, [ZERO] * p.dim_g))


@pytest.mark.parametrize("spec", MATRIX_CATALOG)
def test_fiber_cardinalities(spec):
    pair = realize(spec)
    rss = regular_ss_element(pair)
    rep = fiber_over_regular(pair, rss)
    assert rep.cardinality == rep.wa_order  # trivial stabilizer
    assert rep.cardinality == rep.orbit_size_formula
    assert all(pt.split_characterization for pt in rep.fiber_points)

    section = build_kw_section(pair)
    nil = ElementOfG1.from_coords(pair, section.e)
    rep_n = fiber_over_regular(pair, nil)
    assert rep_n.cardinality == 1 == rep_n.orbit_size_formula

    deg = mixed_degenerate_element(pair)
    rep_d = fiber_over_regular(pair, deg)
    assert rep_d.cardinality == rep_d.orbit_size_formula


@pytest.mark.parametrize("spec", ["splitA:n=2", "glgl:n=2"])
def test_fibers_without_the_modular_certificate(spec, monkeypatch):
    # with no rank mod PRIME available, the exact kernels decide the same fibers
    pair = realize(spec)
    elements = [ElementOfG1.from_coords(pair, build_kw_section(pair).e),
                mixed_degenerate_element(pair)]
    certified = [fiber_over_regular(pair, x) for x in elements]
    monkeypatch.setattr(ExactMatrix, "rank_mod_p", lambda self: None)
    monkeypatch.setattr(LinearAlgebraFrame, "ad_rank_mod_p", lambda self, coords: None)
    assert [fiber_over_regular(pair, x) for x in elements] == certified


def random_regular_a_points(pair, count):
    """count regular elements of a with small random integer coordinates,
    drawn from a generator seeded by the pair's spec."""
    rng = random.Random(pair.pair_id)
    points = []
    while len(points) < count:
        coeffs = [rng.randint(-5, 5) for _ in pair.a_basis]
        x = ElementOfG1.from_coords(pair, a_combo(pair, coeffs))
        if is_regular(pair, x):
            points.append(x)
    return points


@pytest.mark.parametrize("spec", MATRIX_CATALOG)
def test_block_rank_forms_match_the_dense_theta_span_forms(spec, dense_theta):
    # at the fiber points over random regular elements of a and over the
    # degenerate sample, the coordinate-block ranks that `_verify_fiber_point`
    # and `_class_audit` read agree with the span forms of a dense theta
    pair = realize(spec)
    theta = dense_theta(pair)
    for x in [mixed_degenerate_element(pair)] + random_regular_a_points(pair, 2):
        ss, _ = x.jordan_parts()
        z = pair.frame.centralizer([conjugate_ss_into_a(pair, ss).apply(ss)])
        for point in fiber_over_regular(pair, x).fiber_points:
            w = point.witness_borel
            images = [theta.apply(v) for v in w]
            assert images == [pair.theta_apply(v) for v in w]
            g0 = [[(a + b) / 2 for a, b in zip(v, t)] for v, t in zip(w, images)]
            g1 = [[(a - b) / 2 for a, b in zip(v, t)] for v, t in zip(w, images)]
            assert (pair.g0_rank(w), pair.g1_rank(w)) == (span_rank(g0), span_rank(g1))
            b_theta = intersect_spans(w, images)
            assert 2 * len(w) - pair.g0_rank(w) - pair.g1_rank(w) == len(b_theta)
            z_b = intersect_spans(w, z)
            assert span_eq(z_b, [theta.apply(v) for v in z_b])
            assert pair.g0_rank(z_b) + pair.g1_rank(z_b) == len(z_b)
            assert point.split_characterization == span_eq(b_theta, z_b)


@pytest.mark.parametrize("spec", MATRIX_CATALOG + ("splitA:n=4", "glgl:n=3"))
def test_root_set_points_match_the_walked_flag_witnesses(spec):
    # over a regular semisimple y, the point of each root-value key spans the
    # flag witness of the walked image M_w y with those root values, and
    # its literal flag is the one `_verify_fiber_point` reads off that witness
    pair = realize(spec)
    elements = [regular_ss_element(pair)]
    if spec in MATRIX_CATALOG:
        elements += random_regular_a_points(pair, 2)
    split = pair.split_roots
    slots = _defining_slots(pair)
    zero = [ZERO] * pair.dim_g
    for x in elements:
        ss, nil = x.jordan_parts()
        assert nil == zero
        ss1 = conjugate_ss_into_a(pair, ss).apply(ss)
        y = coordinates_in_basis(split.torus, ss1)
        walk = SplitWeylLifts.of(pair).orbit(y)
        z = pair.frame.centralizer([ss1])
        filtrations = _flag_filtrations(pair, slots, y, ss1, zero)
        expected = {}
        for w in compute_subgroups(pair).Wa_perms:
            key = tuple(weight_value(wt, walk[w]) for wt in split.weights)
            witness = _flag_witness(pair, slots, filtrations, walk[w])
            expected[key] = (witness, _verify_fiber_point(pair, z, ss1, zero, witness))
        points = fiber_over_regular(pair, x).fiber_points
        keys = sorted(expected, key=lambda t: tuple(v.sort_key() for v in t))
        assert len(points) == len(keys)
        for key, point in zip(keys, points):
            witness, literal = expected[key]
            assert span_eq(point.witness_borel, witness), key
            assert point.split_characterization == literal


@pytest.mark.parametrize("spec", ["splitA:n=2", "glgl:n=2", "diag:sl3"])
def test_regular_semisimple_fiber_walks_and_eliminates_nothing(spec, monkeypatch):
    # the regular semisimple fiber is read off root permutations alone; the
    # degenerate sample still takes the flag path through every step
    from thetapairs import fibers

    pair = realize(spec)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("flag_stabilizer", "intersect_spans", "_flag_witness", "_verify_fiber_point")
    for name in names:
        monkeypatch.setattr(fibers, name, counted(name, getattr(fibers, name)))
    monkeypatch.setattr(SplitWeylLifts, "orbit", counted("orbit", SplitWeylLifts.orbit))
    rep = fiber_over_regular(pair, regular_ss_element(pair))
    assert rep.cardinality == rep.wa_order
    assert calls == Counter()
    fiber_over_regular(pair, mixed_degenerate_element(pair))
    assert set(calls) == set(names) | {"orbit"}


def test_degenerate_sample_is_decomposed_once_per_report(monkeypatch):
    # the fiber and dimension-audit sections share one degenerate element,
    # whose Jordan parts are computed once
    from thetapairs import slices
    from thetapairs.report import dimension_audit_section, fiber_section

    pair = realize("glgl:n=2")
    monkeypatch.delitem(pair.derived, "mixed_degenerate_element", raising=False)
    calls = []
    jordan = slices.jordan_semisimple_part
    monkeypatch.setattr(slices, "jordan_semisimple_part", lambda m: calls.append(m) or jordan(m))
    fiber_section(pair)
    dimension_audit_section(pair)
    deg = mixed_degenerate_element(pair).matrix
    assert sum(1 for m in calls if m == deg) == 1


def test_glgl2_degenerate_fiber_is_four():
    # hyperoctahedral stabilizer of a repeated coordinate has order 2: 8/2 = 4
    pair = realize("glgl:n=2")
    deg = mixed_degenerate_element(pair)
    rep = fiber_over_regular(pair, deg)
    assert rep.wa_order == 8
    assert rep.stabilizer_order == 2
    assert rep.cardinality == 4
    # the component fiber strictly exceeds the literal split characterization
    literal = sum(1 for pt in rep.fiber_points if pt.split_characterization)
    assert literal == 2


def test_g0_lifts_cover_little_weyl_group(dense_theta):
    for spec in MATRIX_CATALOG:
        pair = realize(spec)
        lifts = g0_weyl_lifts(pair)
        assert set(lifts) == set(compute_subgroups(pair).Wa_perms)
        theta = dense_theta(pair)
        for m in lifts.values():
            assert theta @ m @ theta == m  # honest G0 elements


@pytest.mark.parametrize("spec", ["splitA:n=1", "splitA:n=2", "glgl:n=1",
                                  "glgl:n=2", "diag:sl2", "diag:sl3"])
def test_fiber_conjugators_single_orbit(spec):
    pair = realize(spec)
    rep = fiber_over_regular(pair, regular_ss_element(pair))
    conj = exhibit_fiber_conjugators(pair, rep)
    assert conj is not None
    assert len(conj) == rep.cardinality - 1
    section = build_kw_section(pair)
    rep_n = fiber_over_regular(pair, ElementOfG1.from_coords(pair, section.e))
    assert exhibit_fiber_conjugators(pair, rep_n) == []


@pytest.mark.parametrize("spec,points,groups,size", [
    ("splitA:n=1", 2, 1, 2),
    ("diag:sl2", 4, 2, 2),
    ("glgl:n=2", 24, 3, 8),
    ("diag:sl3", 36, 6, 6),
])
def test_component_census(spec, points, groups, size):
    pair = realize(spec)
    census = component_census(pair, regular_ss_element(pair))
    assert census.total_points == points
    assert census.group_count == groups
    assert census.wa_order == size
    assert all(len(g) == size for g in census.groups)


@pytest.mark.parametrize("spec", ["glgl:n=2", "diag:sl3"])
def test_census_groups_match_the_pairwise_solve_labels(spec):
    pair = realize(spec)
    x = regular_ss_element(pair)
    census = component_census(pair, x)
    # the reference: w.x is labelled by every v with v^{-1} w.x in a,
    # one solve per pair (v, w)
    split = pair.split_roots
    ss, _ = x.jordan_parts()
    x_t = coordinates_in_basis(split.torus, conjugate_ss_into_a(pair, ss).apply(gvec(x.coords)))
    a_cols = [coordinates_in_basis(split.torus, a) for a in pair.a_basis]
    table = split_weyl_table(pair)
    mats = [table[w] for w in enumerate_weyl(split.datum).elements]
    inverses = [m.inverse() for m in mats]
    labels = {}
    for idx, m in enumerate(mats):
        point = m.apply(x_t)
        label = frozenset(v for v, inv in enumerate(inverses)
                          if coordinates_in_basis(a_cols, inv.apply(point)) is not None)
        labels.setdefault(label, []).append(idx)
    assert sorted(census.groups) == sorted(labels.values())


def test_census_rejects_mixed_elements():
    pair = realize("glgl:n=2")
    with pytest.raises(NotRegular):
        component_census(pair, mixed_degenerate_element(pair))


def test_dimension_audit_sl2_at_zero():
    # two components, each of dimension 1 - 1 + 1 = 1 = dim g1 - r1
    pair = realize("splitA:n=1")
    audit = fiber_component_dimensions(pair, [ZERO] * pair.dim_g)
    assert audit.component_count == 2
    for cls in audit.classes:
        assert cls.regular
        assert cls.audit_value == 1 == cls.expected


def test_dimension_audit_regular_point_single_component():
    pair = realize("splitA:n=2")
    x = a_combo(pair, [1, 3])
    audit = fiber_component_dimensions(pair, x)
    assert audit.component_count == 1
    assert audit.passes()


@pytest.mark.parametrize("spec", MATRIX_CATALOG)
def test_dimension_audit_zero_and_degenerate(spec):
    pair = realize(spec)
    audit0 = fiber_component_dimensions(pair, [ZERO] * pair.dim_g)
    assert audit0.passes()
    # component count at 0 equals the number of regular Borel classes
    from thetapairs.involutions import detect_regular_borels

    nreg = sum(1 for c in detect_regular_borels(pair) if c.regular)
    assert audit0.component_count == nreg
    deg = mixed_degenerate_element(pair)
    ss, _ = deg.jordan_parts()
    ss1 = conjugate_ss_into_a(pair, ss).apply(ss)
    audit_d = fiber_component_dimensions(pair, ss1)
    assert audit_d.passes()
    assert audit_d.component_count >= 1


@pytest.mark.parametrize("spec", ["splitA:n=2", "glgl:n=2", "diag:sl3"])
def test_regular_classes_without_the_modular_certificate(spec, monkeypatch):
    # with no rank mod PRIME available, the exact kernels mark the same
    # classes regular, on g and on the centralizer of a degenerate point
    pair = realize(spec)
    ss, _ = mixed_degenerate_element(pair).jordan_parts()
    z = pair.frame.centralizer([conjugate_ss_into_a(pair, ss).apply(ss)])
    certified = [_centralizer_classes(pair, view) for view in (None, z)]
    monkeypatch.setattr(ExactMatrix, "rank_mod_p", lambda self: None)
    monkeypatch.setattr(LinearAlgebraFrame, "ad_rank_mod_p", lambda self, coords: None)
    assert [_centralizer_classes(pair, view) for view in (None, z)] == certified


@pytest.mark.parametrize("spec", MATRIX_CATALOG + ("splitA:n=4",))
def test_dimension_audit_at_zero_matches_the_cayley_route(spec):
    # at 0 the audit reads the pair's fundamental torus and regular Borel
    # classes; the Cayley route from the split torus, which every other base
    # point takes, must find the same components and class audits
    pair = realize(spec)
    zero = [ZERO] * pair.dim_g
    audit = fiber_component_dimensions(pair, zero)
    cayley = _class_audit(pair, zero, *_centralizer_classes(pair, None))

    def audits(a):
        return sorted((c.regular, c.audit_value, c.expected) for c in a.classes)

    assert cayley.component_count == audit.component_count
    assert audits(cayley) == audits(audit)


def test_glgl2_degenerate_centralizer_factor():
    # centralizer at a point with one vanishing coordinate contains a
    # glgl:n=1-type factor; the audit still passes
    pair = realize("glgl:n=2")
    x = a_combo(pair, [1, 0])
    audit = fiber_component_dimensions(pair, x)
    assert audit.passes()
    assert audit.component_count == 2


@pytest.mark.parametrize("spec", ["diag:sl2", "diag:sl3"])
def test_diagonal_isomorphism(spec):
    pair = realize(spec)
    assert diagonal_isomorphism_check(pair, n_samples=10) == (10, 0)


JORDAN_EXAMPLE = ExactMatrix.from_rows([[2, 1, 0], [0, 2, 0], [0, 0, 3]])


def test_invariant_flags_read_the_spectrum_once(monkeypatch):
    from thetapairs import diagonal
    from thetapairs.gaussian import I
    from thetapairs.jordan import eigenvalues
    from thetapairs.pairs import CatalogError

    calls = []
    monkeypatch.setattr("thetapairs.jordan.eigenvalues",
                        lambda m: calls.append(m) or eigenvalues(m))
    # distinct eigenvalues: every order of the eigenlines; a Jordan block
    # of size 2 and one more eigenvalue: the block's one flag, with the
    # other eigenline in any of three places
    four = ExactMatrix.diagonal([1, 2, I, -1])
    assert len(diagonal.invariant_flags(four, four)) == 24
    flags = diagonal.invariant_flags(JORDAN_EXAMPLE, ExactMatrix.diagonal([2, 2, 3]))
    assert len(flags) == 3 and len(calls) == 2
    for flag in flags:
        vectors = [list(v) for v in flag]
        assert span_rank(vectors) == 3
        assert all(restrict_action(JORDAN_EXAMPLE, vectors[:j]) is not None for j in (1, 2))
    with pytest.raises(CatalogError, match="not regular"):
        diagonal.invariant_flags(ExactMatrix.identity(2), ExactMatrix.identity(2))
    # a spectrum that is not the matrix's: the guard, not a wrong flag
    monkeypatch.setattr("thetapairs.jordan.eigenvalues", lambda m: [GaussRat(1), GaussRat(3)])
    two = ExactMatrix.diagonal([1, 2])
    with pytest.raises(CatalogError, match="do not span the whole space"):
        diagonal.invariant_flags(two, two)


def test_invariant_flags_match_the_quotient_recursion():
    # the flags read along the kernel filtrations are the recursion's, in
    # its order, as spans at every step: on seeded chart points at k = 2, 3
    # and 4 and on a conjugated Jordan block
    from thetapairs.diagonal import _sample_chart_point, invariant_flags

    g = ExactMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    cases = [(g @ JORDAN_EXAMPLE @ g.inverse(), g @ ExactMatrix.diagonal([2, 2, 3]) @ g.inverse())]
    for k in (2, 3, 4):
        rng = random.Random(k)
        while len(cases) < 1 + 10 * (k - 1):
            x, ss, _ = _sample_chart_point(None, k, rng)
            if x is not None:
                cases.append((x, ss))
    for x, ss in cases:
        flags, expected = invariant_flags(x, ss), recursive_invariant_flags(x)
        assert len(flags) == len(expected)
        for flag, oracle in zip(flags, expected):
            assert all(span_eq(flag[:j], oracle[:j]) for j in range(1, x.rows + 1))


def test_flag_reading_guards():
    # a word that takes a letter more often than its filtration is long,
    # and a nilpotent part that moves an eigenspace of ss off itself
    from thetapairs.fibers import flag_of_word, kernel_filtration
    from thetapairs.jordan import eigenspaces
    from thetapairs.pairs import CatalogError

    two, three = GaussRat(2), GaussRat(3)
    ss = ExactMatrix.diagonal([2, 2, 3])
    spaces = dict(eigenspaces(ss))
    filtrations = {lam: kernel_filtration(JORDAN_EXAMPLE - ss, space)
                   for lam, space in spaces.items()}
    assert len(flag_of_word(filtrations, [two, three, two])) == 3
    with pytest.raises(CatalogError, match="slot pattern exceeds the eigenspace filtration"):
        flag_of_word(filtrations, [three, three])
    # e1 -> e3 does not commute with ss
    off = ExactMatrix(3, 3, [GaussRat(int((i, j) == (2, 0))) for i in range(3) for j in range(3)])
    with pytest.raises(CatalogError, match="does not preserve the eigenspace"):
        kernel_filtration(off, spaces[two])


def test_diagonal_failed_round_trips_are_counted(monkeypatch, capsys):
    from thetapairs import diagonal
    from thetapairs.cli import main
    from thetapairs.report import build_report

    # a wrong completion: B2 = B1 is a pair point only when X_ss is central;
    # its spans are those of B2 = B1 (B1 cap B2 = B1, Z_B2(X_ss) = Z_B1(X_ss))
    psi = diagonal.psi_complete

    def wrong_completion(frame, x, ss, b1_flag):
        completion = psi(frame, x, ss, b1_flag)
        return completion._replace(flag=b1_flag, b2=completion.b1,
                                   inter=completion.b1, z_b2=completion.z_b1)

    monkeypatch.setattr(diagonal, "psi_complete", wrong_completion)
    audit = diagonal_isomorphism_check(realize("diag:sl2"), n_samples=10)
    assert audit.round_trips == 10 and audit.failures > 0
    doc = build_report("diag:sl2", with_timing=False)
    assert doc["diagonal_isomorphism"] == {"round_trips": 20, "passes": False}
    assert main(["verify", "fibers", "--pairs", "diag:sl2"]) == 1
    assert ("diag:sl2: diagonal-pair comparison, 20 exact round trips: FAIL"
            in capsys.readouterr().out)
