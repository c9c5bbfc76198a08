"""Catalog realizations: dimensions, decompositions, eager validation."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetapairs.gaussian import GaussRat
from thetapairs.liealg import vec_is_zero
from thetapairs.matrix import ExactMatrix
from thetapairs.pairs import (
    MATRIX_CATALOG,
    CatalogError,
    PairSpec,
    realize,
    root_decomposition,
    split_root_decomposition,
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
    fund = root_decomposition(p)
    assert fund.nroots == 2 * 2
    assert all(fund.classify(k) == "complex" for k in range(fund.nroots))


def test_sl2_so2_roots_imaginary_noncompact():
    # relative to the theta-fixed torus both roots are imaginary noncompact
    p = realize("splitA:n=1")
    fund = root_decomposition(p)
    assert fund.nroots == 2
    assert all(fund.classify(k) == "imaginary" for k in range(2))
    assert set(fund.compactness.values()) == {"noncompact"}


def test_glgl_n1_compactness_pattern():
    p = realize("glgl:n=1")
    fund = root_decomposition(p)
    assert fund.nroots == 2
    assert all(fund.classify(k) == "imaginary" for k in range(2))
    # both root spaces are the off-diagonal units, hence in g1
    assert set(fund.compactness.values()) == {"noncompact"}


def test_glgl_n2_compactness_split_by_blocks():
    p = realize("glgl:n=2")
    fund = root_decomposition(p)
    counts = Counter(fund.compactness.values())
    assert counts == {"noncompact": 8, "compact": 4}


def test_torus_decomposition_bookkeeping():
    for spec in ("splitA:n=2", "glgl:n=1", "diag:sl2"):
        p = realize(spec)
        t = p.t_split_basis
        t0 = sum(1 for v in t if p.in_g0(v))
        # t = t0 + a with the g1 part exactly the Cartan subspace
        assert t0 + p.rank_r1 == p.rank_g
        split = split_root_decomposition(p)
        assert split.nroots + p.rank_g == p.dim_g


def test_quasi_split_witness_regular_element():
    import random

    for spec in ("splitA:n=2", "glgl:n=2", "diag:sl3"):
        p = realize(spec)
        rng = random.Random(7)
        found = False
        for _ in range(8):
            x = p.sample_a_element(rng)
            if vec_is_zero(x):
                continue
            if p.centralizer_dim(x) == p.rank_g:
                found = True
                break
        assert found


def test_bracket_theta_automorphism_spot():
    p = realize("splitA:n=2")
    import random

    rng = random.Random(3)
    for _ in range(10):
        x = [GaussRat(rng.randint(-4, 4)) for _ in range(p.dim_g)]
        y = [GaussRat(rng.randint(-4, 4)) for _ in range(p.dim_g)]
        lhs = p.theta_apply(p.bracket(x, y))
        rhs = p.bracket(p.theta_apply(x), p.theta_apply(y))
        assert lhs == rhs


@pytest.mark.parametrize("spec", MATRIX_CATALOG)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_ad_and_bracket_match_dense_structure_sum(spec, data):
    frame = realize(spec).frame
    entry = st.builds(GaussRat, st.integers(-3, 3), st.integers(-1, 1))
    vec = st.lists(entry, min_size=frame.dim, max_size=frame.dim)
    x, y = data.draw(vec), data.draw(vec)
    dense = ExactMatrix.zero(frame.dim, frame.dim)
    for c, structure in zip(x, frame.structure_matrices()):
        dense = dense + structure.scale(c)
    ad = frame.ad(x)
    assert ad == dense
    assert frame.bracket(x, y) == ad.apply(y)


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
