"""Catalog realizations: dimensions, decompositions, eager validation."""

import json
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetapairs.gaussian import ZERO, GaussRat
from thetapairs.liealg import (
    LinearAlgebraFrame,
    _combine,
    build_concrete_root_data,
    vec_is_zero,
)
from thetapairs.matrix import ExactMatrix, coordinates_in_basis
from thetapairs.pairs import (
    MATRIX_CATALOG,
    CatalogError,
    PairSpec,
    _check_adapted_basis,
    _sl_basis,
    _unit,
    _validate_matrix_pair,
    realize,
)


def test_pair_spec_grammar():
    assert PairSpec.parse("splitA:n=2") == PairSpec("splitA", n=2)
    assert PairSpec.parse("glgl:n=1") == PairSpec("glgl", n=1)
    assert PairSpec.parse("diag:sl3") == PairSpec("diag", base="sl3")
    assert PairSpec.parse("g2split") == PairSpec("g2split")
    assert PairSpec.parse("e6qs").render() == "e6qs"
    for bad in ("splitA:n=0", "diag:so5", "x7", "glgl:n=x"):
        with pytest.raises(CatalogError):
            PairSpec.parse(bad)


def test_splitA_n2_dimensions():
    # (sl(3), so(3)): dim g = 8, dim g0 = 3, dim g1 = 5, r1 = 2
    p = realize("splitA:n=2")
    assert p.dim_g == 8
    assert p.dim_g0 == 3
    assert p.dim_g1 == 5
    assert p.rank_r1 == 2


def test_glgl_n1_dimensions():
    # gl(2) with off-diagonal g1 of dimension 2, r1 = 1
    p = realize("glgl:n=1")
    assert p.dim_g == 4
    assert p.dim_g1 == 2
    assert p.rank_r1 == 1


def test_diag_sl2_identification():
    # g1 = {(X, -X)} is a copy of sl2, r1 = 1
    p = realize("diag:sl2")
    assert p.dim_g1 == 3
    assert p.rank_r1 == 1
    # the swap exchanges the factors: theta of (X, X) is itself
    for v in p.g0_basis_coords():
        assert p.theta_apply(v) == v


def test_diag_sl2_roots_all_complex():
    p = realize("diag:sl2")
    fund = p.fund_roots
    assert fund.nroots == 2 * 2
    assert all(fund.classify(k) == "complex" for k in range(fund.nroots))


def test_sl2_so2_roots_imaginary_noncompact():
    # relative to the theta-fixed torus both roots are imaginary noncompact
    p = realize("splitA:n=1")
    fund = p.fund_roots
    assert fund.nroots == 2
    assert all(fund.classify(k) == "imaginary" for k in range(2))
    assert set(fund.compactness.values()) == {"noncompact"}


def test_glgl_n1_compactness_pattern():
    p = realize("glgl:n=1")
    fund = p.fund_roots
    assert fund.nroots == 2
    assert all(fund.classify(k) == "imaginary" for k in range(2))
    # both root spaces are the off-diagonal units, hence in g1
    assert set(fund.compactness.values()) == {"noncompact"}


def test_glgl_n2_compactness_split_by_blocks():
    p = realize("glgl:n=2")
    fund = p.fund_roots
    counts = Counter(fund.compactness.values())
    assert counts == {"noncompact": 8, "compact": 4}


def test_torus_decomposition_bookkeeping():
    for spec in ("splitA:n=2", "glgl:n=1", "diag:sl2"):
        p = realize(spec)
        t = p.t_split_basis
        t0 = sum(1 for v in t if p.in_g0(v))
        # t = t0 + a with the g1 part exactly the Cartan subspace
        assert t0 + p.rank_r1 == p.rank_g
        split = p.split_roots
        assert split.nroots + p.rank_g == p.dim_g


def sample_a_element(pair, rng):
    """A random point of a, with integer coordinates in [-9, 9] on a_basis."""
    return _combine(pair.a_basis, [GaussRat(rng.randint(-9, 9)) for _ in pair.a_basis])


def test_quasi_split_witness_regular_element():
    for spec in ("splitA:n=2", "glgl:n=2", "diag:sl3"):
        p = realize(spec)
        rng = random.Random(7)
        found = False
        for _ in range(8):
            x = sample_a_element(p, rng)
            if vec_is_zero(x):
                continue
            if p.is_regular(x):
                assert len(p.ad(x).kernel_basis()) == p.rank_g
                found = True
                break
        assert found


@pytest.mark.parametrize("spec", MATRIX_CATALOG)
def test_pinned_split_positivity_is_a_regular_element_of_a(spec):
    # realize checks only that h_a lies in a; its regularity rests on the
    # split root data, so the exact kernel of ad(h_a) confirms it here
    p = realize(spec)
    h_a = p.split_positivity
    assert coordinates_in_basis(p.a_basis, h_a) is not None
    assert len(p.ad(h_a).kernel_basis()) == p.rank_g


def test_bracket_theta_automorphism_spot():
    p = realize("splitA:n=2")
    rng = random.Random(3)
    for _ in range(10):
        x = [GaussRat(rng.randint(-4, 4)) for _ in range(p.dim_g)]
        y = [GaussRat(rng.randint(-4, 4)) for _ in range(p.dim_g)]
        lhs = p.theta_apply(p.bracket(x, y))
        rhs = p.bracket(p.theta_apply(x), p.theta_apply(y))
        assert lhs == rhs


def structure_matrices(frame):
    """The dense C_i with bracket(x, y) = (sum_i x_i C_i) @ y in
    coordinates, from the frame's sparse structure constants."""
    mats = [[ZERO] * (frame.dim * frame.dim) for _ in range(frame.dim)]
    for i, f, c in frame._structure_terms():
        mats[i][f] = c
    return [ExactMatrix(frame.dim, frame.dim, flat) for flat in mats]


@pytest.mark.parametrize("spec", MATRIX_CATALOG)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_ad_and_bracket_match_dense_structure_sum(spec, data):
    frame = realize(spec).frame
    entry = st.builds(GaussRat, st.integers(-3, 3), st.integers(-1, 1))
    vec = st.lists(entry, min_size=frame.dim, max_size=frame.dim)
    x, y = data.draw(vec), data.draw(vec)
    dense = ExactMatrix.zero(frame.dim, frame.dim)
    for c, structure in zip(x, structure_matrices(frame)):
        dense = dense + structure.scale(c)
    ad = frame.ad(x)
    assert ad == dense
    assert frame.bracket(x, y) == ad.apply(y)


gauss_ints = st.builds(GaussRat, st.integers(-2, 2), st.integers(-2, 2))


@given(spec=st.sampled_from(("splitA:n=3", "glgl:n=2", "diag:sl3")), data=st.data())
@settings(max_examples=30, deadline=None)
def test_adjoint_of_root_exponentials_is_an_automorphism(spec, data, dense_exp):
    pair = realize(spec)
    frame, roots = pair.frame, pair.split_roots.root_vectors
    factors = data.draw(st.lists(st.tuples(st.sampled_from(roots), gauss_ints),
                                 min_size=1, max_size=3))
    # g = exp(c_1 E_1) ... exp(c_k E_k) in GL(N), with its inverse
    g = g_inv = ExactMatrix.identity(frame.n_def)
    exps = []
    for root, c in factors:
        x = frame.from_coords([c * v for v in root])
        exps.append((x.exp_nilpotent(), (-x).exp_nilpotent()))
        g, g_inv = g @ exps[-1][0], exps[-1][1] @ g_inv
    ad, ad_inv = frame.adjoint(g, g_inv), frame.adjoint(g_inv, g)
    vec = st.lists(st.builds(GaussRat, st.integers(-3, 3), st.integers(-1, 1)),
                   min_size=frame.dim, max_size=frame.dim)
    x, y = data.draw(vec), data.draw(vec)
    assert ad(frame.bracket(x, y)) == frame.bracket(ad(x), ad(y))
    assert ad(ad_inv(x)) == x and ad_inv(ad(y)) == y
    # one factor: Ad(exp(c E)) is the dense exp(ad(c e))
    root, c = factors[0]
    single = frame.adjoint(*exps[0])
    units = ExactMatrix.identity(frame.dim).row_lists()
    assert (ExactMatrix.from_columns([single(u) for u in units])
            == dense_exp(pair, [c * v for v in root]))


def test_combinatorial_entries():
    g2 = realize("g2split")
    assert not g2.matrix_level
    assert g2.comb.datum.label == "G2"
    counts = Counter(g2.comb.compactness.values())
    assert counts == {"noncompact": 8, "compact": 4}
    e6 = realize("e6qs")
    assert e6.comb.compactness is None
    assert e6.comb.w0_input_order == 384
    with pytest.raises(CatalogError):
        e6.require_matrix_level()


def test_report_twice_on_one_pair_is_byte_identical():
    from thetapairs.report import build_report

    first = json.dumps(build_report("splitA:n=2", with_timing=False), indent=2)
    second = json.dumps(build_report("splitA:n=2", with_timing=False), indent=2)
    assert first == second


def test_derived_invariants_are_computed_once_per_pair():
    from thetapairs.involutions import (SplitWeylLifts, compute_subgroups,
                                        detect_regular_borels)
    from thetapairs.slices import build_kw_section

    pair = realize("glgl:n=1")
    for derive in (compute_subgroups, detect_regular_borels, build_kw_section,
                   SplitWeylLifts.of):
        assert derive(pair) is derive(pair)
    assert build_kw_section(pair, seed=7) is build_kw_section(pair)


def test_a_fresh_pair_gets_fresh_derived_state():
    from thetapairs import pairs
    from thetapairs.involutions import compute_subgroups, detect_regular_borels

    old = realize("splitA:n=1")
    old_sub, old_classes = compute_subgroups(old), detect_regular_borels(old)
    pairs._realize_cached.cache_clear()
    new = realize("splitA:n=1")
    assert new is not old and not new.derived
    sub, classes = compute_subgroups(new), detect_regular_borels(new)
    assert sub is not old_sub and classes is not old_classes
    assert sub.W0_perms == old_sub.W0_perms
    assert [c.rep_perm for c in classes] == [c.rep_perm for c in old_classes]
    assert set(new.derived) == {"compute_subgroups", "detect_regular_borels"}


# -- the structure table and the realize checks read from it ------------------
#
# `LinearAlgebraFrame.structure_table` builds each bracket [b_i, b_j], i < j,
# from the matrix commutator, checks that its coordinates rebuild it, and
# negates it for table[j][i]; `realize` then checks theta on the table.  The
# dense forms below are the independent oracle: brackets as matrix
# commutators read back with `to_coords`, antisymmetry and Jacobi as
# ad_i @ ad_j - ad_j @ ad_i == ad([b_i, b_j]) on every entry, and theta as
# theta C_i theta == ad(theta b_i).

ORACLE_PAIRS = MATRIX_CATALOG + ("splitA:n=4", "glgl:n=3")


def dense_structure(frame):
    return [ExactMatrix.from_columns([frame.to_coords(bi.commutator(bj))
                                      for bj in frame.basis])
            for bi in frame.basis]


@pytest.mark.parametrize("spec", ORACLE_PAIRS)
def test_structure_table_matches_dense_commutators(spec):
    frame = realize(spec).frame
    dense = dense_structure(frame)
    assert structure_matrices(frame) == dense
    for i, row in enumerate(frame.structure_table()):
        for j, col in enumerate(row):
            assert col == {k: c for k, c in enumerate(dense[i].column(j)) if c}


@pytest.mark.parametrize("spec", ORACLE_PAIRS)
def test_dense_bracket_checks_hold_where_realize_passes(spec, dense_theta):
    pair = realize(spec)
    frame, theta = pair.frame, dense_theta(pair)
    structure = dense_structure(frame)
    for i, ad_i in enumerate(structure):
        for j in range(i + 1, frame.dim):
            ad_j = structure[j]
            assert ad_i.column(j) == [-x for x in ad_j.column(i)]
            assert frame.ad(ad_i.column(j)) == ad_i @ ad_j - ad_j @ ad_i
        assert theta @ ad_i @ theta == frame.ad(theta.column(i))


def test_basis_not_closed_under_bracket_raises():
    # [E_01, E_10] = E_00 - E_11 is not in span(E_01, E_10)
    frame = LinearAlgebraFrame([_unit(2, 0, 1), _unit(2, 1, 0)])
    with pytest.raises(ValueError, match="not in the algebra's span"):
        frame.structure_table()


def test_corrupted_coordinates_fail_the_rebuild_check():
    # a closed basis, so only the corrupted pseudo-inverse entry can make a
    # bracket's coordinates miss its commutator: one unit added where
    # coordinate 0 reads the first nonzero entry of [b_0, b_1]
    basis = realize("splitA:n=2").frame.basis
    frame = LinearAlgebraFrame(basis)
    f = next(f for f, c in enumerate(basis[0].commutator(basis[1]).entries) if c)
    entries = list(frame._solver.entries)
    entries[f] = entries[f] + 1
    frame._solver = ExactMatrix(frame._solver.rows, frame._solver.cols, entries)
    with pytest.raises(ValueError, match="not in the algebra's span"):
        frame.structure_table()


def test_split_positivity_off_a_is_caught():
    # glgl:n=1: h_a plus the t0 basis vector, a multiple of the identity, is
    # still regular in gl(2) but no longer in a
    pair = realize("glgl:n=1")
    t0 = next(v for v in pair.t_split_basis if pair.in_g0(v))
    moved = [x + y for x, y in zip(pair.split_positivity, t0)]
    bad = replace(pair, split_positivity=moved, derived={})
    assert bad.is_regular(moved)
    with pytest.raises(CatalogError, match="split positivity element is not in a"):
        _validate_matrix_pair(bad)


def test_torus_that_does_not_act_semisimply_is_caught():
    # in sl(2), ad(E_01) is nilpotent: its kernel span(E_01) has the torus's
    # dimension, but no weight space besides it
    frame = LinearAlgebraFrame(_sl_basis(2))
    e = frame.to_coords(_unit(2, 0, 1))
    with pytest.raises(ValueError, match="torus does not act semisimply"):
        build_concrete_root_data(frame, [e], lambda v: v, e)


def test_theta_that_is_not_an_automorphism_is_caught():
    # gl(2) on (E_00, E_11, E_01, E_10) with the sign vector of dim_g0 = 3,
    # theta = diag(1, 1, 1, -1): an involution adapted to the basis, but
    # [E_01, E_10] = E_00 - E_11 has theta-signs 1 * -1 * 1
    pair = realize("glgl:n=1")
    bad = replace(pair, dim_g0=3, dim_g1=1, derived={})
    units = ExactMatrix.identity(4).row_lists()
    theta = ExactMatrix.diagonal([1, 1, 1, -1])
    assert [bad.theta_apply(u) for u in units] == theta.row_lists()
    structure = structure_matrices(pair.frame)
    assert any(bad.theta_conjugate(c_i) != pair.frame.ad(bad.theta_apply(u))
               for u, c_i in zip(units, structure))
    with pytest.raises(CatalogError, match="theta is not an automorphism"):
        _validate_matrix_pair(bad)


def test_basis_not_adapted_to_theta_is_caught():
    # glgl:n=1's theta negates E_01, which a sign vector with dim_g0 = 3
    # would keep
    pair = realize("glgl:n=1")
    eps = ExactMatrix.diagonal([1, -1])
    theta = lambda m: eps @ m @ eps  # noqa: E731
    _check_adapted_basis("glgl:n=1", pair.frame, 2, theta)
    with pytest.raises(CatalogError, match="basis not adapted to theta at index 2"):
        _check_adapted_basis("glgl:n=1", pair.frame, 3, theta)


@pytest.mark.parametrize("spec", MATRIX_CATALOG)
def test_sign_vector_matches_the_defining_involution(spec, dense_theta):
    pair = realize(spec)
    theta = dense_theta(pair)
    units = ExactMatrix.identity(pair.dim_g).row_lists()
    assert [pair.theta_apply(u) for u in units] == theta.row_lists()
    for u in units:
        assert pair.g0_part(u) == [(a + b) / 2 for a, b in zip(u, theta.apply(u))]
        assert pair.g1_part(u) == [(a - b) / 2 for a, b in zip(u, theta.apply(u))]
    m = pair.ad(pair.a_basis[0])
    assert pair.theta_conjugate(m) == theta @ m @ theta


@pytest.mark.parametrize("spec", MATRIX_CATALOG)
def test_centralizer_in_g_matches_the_explicit_ambient(spec):
    # inside g the first kernel is read off ad(v) itself; the explicit
    # ambient g (the unit vectors) must give the same basis: at 0, at a
    # basis vector of a, at random points of a and of g (dense and sparse),
    # and for several vectors at once
    pair = realize(spec)
    frame = pair.frame
    rng = random.Random(spec)
    units = ExactMatrix.identity(frame.dim).row_lists()

    def g_point(density):
        return [GaussRat(rng.randint(-3, 3), rng.randint(-2, 2))
                if rng.random() < density else ZERO for _ in range(frame.dim)]

    def a_point():
        coeffs = [rng.randint(-4, 4) for _ in pair.a_basis]
        return [sum((c * x for c, x in zip(coeffs, col)), ZERO) for col in zip(*pair.a_basis)]

    cases = [[], [[ZERO] * frame.dim], [pair.a_basis[0]], list(pair.a_basis), [a_point()],
             [g_point(1)], [g_point(0.3)], [g_point(0.3), a_point()]]
    for vectors in cases:
        assert frame.centralizer(vectors) == frame.centralizer(vectors, ambient=units)


def test_a_theta_that_does_not_permute_the_roots_is_caught():
    # 2 id preserves the split torus, but alpha -> 2 alpha is no map of the roots
    pair = realize("splitA:n=2")
    doubling = lambda v: [GaussRat(2) * x for x in v]  # noqa: E731
    with pytest.raises(ValueError, match="theta does not permute the roots"):
        build_concrete_root_data(pair.frame, pair.t_split_basis, doubling,
                                 pair.split_positivity)
