"""Subgroup chains, split-Borel torsors, regular classes, canonical involution."""

import pytest
from conftest import negation_perm, split_weyl_table

from thetapairs import fibers, involutions
from thetapairs.fibers import g0_weyl_lifts, regular_ss_element
from thetapairs.involutions import (
    BorelChoice,
    MissingCompactness,
    SplitWeylLifts,
    canonical_involution,
    compute_subgroups,
    detect_regular_borels,
    enumerate_split_borels,
    reflection_lift,
    root_value,
    split_simple_lift,
    torus_action_perm,
    weyl_group_of_g0,
)
from thetapairs.liealg import gvec, weight_value
from thetapairs.matrix import ExactMatrix, coordinates_in_basis, restrict_action
from thetapairs.pairs import MATRIX_CATALOG, CatalogError, realize
from thetapairs.rootsystem import compose, enumerate_weyl, identity_perm
from thetapairs.slices import conjugate_ss_into_a


def classify_roots(rdi):
    """Root indices by kind: real / imaginary compact / imaginary
    noncompact / complex, for a ConcreteRootData or CombinatorialData whose
    imaginary roots carry compactness tags."""
    compactness = getattr(rdi, "compactness", None)
    neg = negation_perm(rdi.datum)
    out = {"real": [], "imaginary_compact": [], "imaginary_noncompact": [], "complex": []}
    for k in range(len(rdi.datum.all_roots)):
        img = rdi.theta_perm[k]
        if img == k:
            if compactness is None or k not in compactness:
                raise MissingCompactness(f"imaginary root {k} lacks a compactness tag")
            out[f"imaginary_{compactness[k]}"].append(k)
        elif img == neg[k]:
            out["real"].append(k)
        else:
            out["complex"].append(k)
    # theta pairs the complex roots
    assert len(out["complex"]) % 2 == 0
    assert all(rdi.theta_perm[rdi.theta_perm[k]] == k for k in out["complex"])
    return out


def test_classify_roots_examples():
    diag = classify_roots(realize("diag:sl2").fund_roots)
    assert len(diag["complex"]) == 4 and not diag["real"]
    sl2 = classify_roots(realize("splitA:n=1").fund_roots)
    assert len(sl2["imaginary_noncompact"]) == 2
    g2 = classify_roots(realize("g2split").comb)
    assert len(g2["imaginary_noncompact"]) == 8
    assert len(g2["imaginary_compact"]) == 4


def test_classify_complex_is_fixed_point_free_involution():
    for spec in ("diag:sl3", "splitA:n=3"):
        rdi = realize(spec).fund_roots
        parts = classify_roots(rdi)
        assert len(parts["complex"]) % 2 == 0
        for k in parts["complex"]:
            img = rdi.theta_perm[k]
            assert img != k and rdi.theta_perm[img] == k


def test_classify_requires_compactness():
    e6 = realize("e6qs")
    with pytest.raises(MissingCompactness):
        classify_roots(e6.comb)


@pytest.mark.parametrize("spec,w,wt,w0,wa", [
    ("splitA:n=1", 2, 2, 1, 2),
    ("splitA:n=2", 6, 2, 2, 6),
    ("splitA:n=3", 24, 8, 4, 24),
    ("glgl:n=1", 2, 2, 1, 2),
    ("glgl:n=2", 24, 24, 4, 8),
    ("diag:sl2", 4, 2, 2, 2),
    ("diag:sl3", 36, 6, 6, 6),
])
def test_subgroup_orders(spec, w, wt, w0, wa):
    rep = compute_subgroups(realize(spec))
    assert (rep.W_order, rep.W_theta_order, rep.W0_order, rep.Wa_order) == (w, wt, w0, wa)


def test_e6_subgroup_orders_and_indices():
    rep = compute_subgroups(realize("e6qs"))
    assert rep.W_order == 51840
    assert rep.W_theta_order == 1152
    assert rep.W0_order == 384
    assert rep.indices == (3, 45)


def test_g2_subgroups():
    rep = compute_subgroups(realize("g2split"))
    assert (rep.W_order, rep.W_theta_order, rep.W0_order) == (12, 12, 4)
    assert rep.indices[0] == 3


def test_w0_lies_in_theta_fixed_subgroup():
    for spec in ("splitA:n=2", "glgl:n=2", "diag:sl3"):
        pair = realize(spec)
        rep = compute_subgroups(pair)
        fixed = set(rep.W_theta_perms)
        assert all(p in fixed for p in rep.W0_perms)


@pytest.mark.parametrize("spec,total,split", [
    ("splitA:n=1", 2, 2),
    ("diag:sl2", 4, 2),
    ("glgl:n=2", 24, 8),
])
def test_split_borel_counts(spec, total, split):
    pair = realize(spec)
    rep = compute_subgroups(pair)
    assert rep.W_order == total
    borels = enumerate_split_borels(pair)
    assert len(borels) == split == rep.Wa_order


def test_split_borel_torsor_whole_catalog():
    for spec in MATRIX_CATALOG:
        enumerate_split_borels(realize(spec))  # raises if not a torsor


@pytest.mark.parametrize("spec,classes,regular", [
    ("g2split", 3, 1),
    ("splitA:n=1", 2, 2),
    ("splitA:n=2", 1, 1),
    ("splitA:n=3", 2, 2),
    ("glgl:n=1", 2, 2),
    ("glgl:n=2", 6, 2),
    ("diag:sl2", 1, 1),
    ("diag:sl3", 1, 1),
])
def test_regular_borel_classes(spec, classes, regular):
    out = detect_regular_borels(realize(spec))
    assert len(out) == classes
    assert sum(1 for c in out if c.regular) == regular
    # the compact-simple-root shortcut always agrees with the semantic test
    assert all(c.shortcut_regular == c.regular for c in out)
    # negative classes carry an exact certificate
    for c in out:
        if not c.regular:
            assert c.simple_compact_witness is not None


def test_regular_class_count_bounds():
    for spec in MATRIX_CATALOG + ("g2split",):
        pair = realize(spec)
        rep = compute_subgroups(pair)
        out = detect_regular_borels(pair)
        nreg = sum(1 for c in out if c.regular)
        assert 1 <= nreg <= rep.indices[0]


def test_canonical_involution_sl2_is_minus_one():
    theta_can = canonical_involution(realize("splitA:n=1")).matrix
    assert theta_can == ExactMatrix.from_rows([[-1]])


def test_canonical_involution_diag_is_swap_type():
    p = realize("diag:sl2")
    theta_can = canonical_involution(p).matrix
    # eigenvalue +1 space has dimension rank - r1 = 1
    fixed = (theta_can - ExactMatrix.identity(2)).kernel_basis()
    anti = (theta_can + ExactMatrix.identity(2)).kernel_basis()
    assert len(fixed) == 1 and len(anti) == 1


def test_canonical_involution_glgl_eigenspaces():
    p = realize("glgl:n=1")
    theta_can = canonical_involution(p).matrix
    anti = (theta_can + ExactMatrix.identity(p.rank_g)).kernel_basis()
    assert len(anti) == p.rank_r1 == 1


def test_canonical_involution_well_defined_everywhere():
    for spec in MATRIX_CATALOG:
        pair = realize(spec)
        theta_can = canonical_involution(pair)  # raises unless every split Borel agrees
        assert theta_can.is_involution
        assert theta_can.fixed_dim + pair.rank_r1 == pair.rank_g


def reduced_word(datum, w):
    """Simple-reflection indices i_1, ..., i_k with w = s_{i_k} ... s_{i_1},
    read off right descents: w sends the i-th simple root negative exactly
    when w o s_i is shorter."""
    word = []
    while w != identity_perm(len(w)):
        i = next(i for i, s in enumerate(datum.simple_indices)
                 if sum(datum.all_roots[w[s]]) < 0)
        word.append(i)
        w = compose(w, datum.simple_reflection_perm(i))
    return word


@pytest.mark.parametrize("spec", MATRIX_CATALOG)
def test_reflection_lifts_match_the_dense_oracle(spec, monkeypatch, dense_lift):
    # every lift, as N x N conjugation, against exp(ad e) exp(-ad f) exp(ad e)
    pair = realize(spec)
    calls = []

    def recording(*args):
        lift = reflection_lift(*args)
        calls.append((args, lift))
        return lift

    monkeypatch.setattr(involutions, "reflection_lift", recording)
    weyl_group_of_g0(pair)
    w0_calls = len(calls)
    rank = pair.split_roots.datum.rank
    for i in range(rank):
        split_simple_lift(pair, i)
    assert len(calls) == w0_calls + rank
    # the W0 generators on the fundamental torus, the simple lifts on the split torus
    for k, (args, lift) in enumerate(calls):
        torus = (pair.fund_roots if k < w0_calls else pair.split_roots).torus
        assert restrict_action(lift, torus) == restrict_action(dense_lift(*args), torus)
    # the full matrices of the G0 lifts, rebuilt from dense generators
    table = g0_weyl_lifts(pair)
    monkeypatch.setattr(fibers, "reflection_lift", lambda *args: dense_lift(*args).apply)
    assert g0_weyl_lifts(pair) == table


# glgl has a center that the roots do not see; diag:sl3 has none
@pytest.mark.parametrize("spec", ["glgl:n=2", "diag:sl3"])
def test_torus_matrix_is_the_restricted_product_of_simple_lifts(spec, monkeypatch, dense_lift):
    pair = realize(spec)
    split = pair.split_roots
    table = split_weyl_table(pair)
    # the reference lifts: full matrices from the dense oracle
    monkeypatch.setattr(involutions, "reflection_lift", dense_lift)
    simple = [split_simple_lift(pair, i) for i in range(split.datum.rank)]
    for w in enumerate_weyl(split.datum).elements:
        # the reference: Ad(n_w) on all of g, restricted to the torus
        n_ad = ExactMatrix.identity(pair.dim_g)
        for i in reduced_word(split.datum, w):
            n_ad = simple[i] @ n_ad
        assert table[w] == restrict_action(n_ad, split.torus)


def test_a_simple_lift_of_the_wrong_reflection_is_caught(monkeypatch):
    # "realizes its Weyl element" is checked on the simple lifts only;
    # their products inherit it, so a wrong generator must be refused here
    pair = realize("splitA:n=2")
    rank = pair.split_roots.datum.rank
    monkeypatch.setattr(involutions, "split_simple_lift",
                        lambda p, i: split_simple_lift(p, (i + 1) % rank))
    with pytest.raises(CatalogError, match="does not realize its Weyl element"):
        SplitWeylLifts(pair)


@pytest.mark.parametrize("spec", MATRIX_CATALOG)
def test_lift_table_lists_the_weyl_group_in_enumeration_order(spec):
    # component_census labels index enumerate_weyl's element list
    pair = realize(spec)
    table = split_weyl_table(pair)
    assert list(table) == enumerate_weyl(pair.split_roots.datum).elements


@pytest.mark.parametrize("spec", ["glgl:n=2", "diag:sl3"])
def test_torus_matrix_is_a_representation(spec):
    pair = realize(spec)
    table = split_weyl_table(pair)
    elements = enumerate_weyl(pair.split_roots.datum).elements
    for v in elements:
        for w in elements:
            assert table[compose(v, w)] == table[v] @ table[w]


@pytest.mark.parametrize("spec", MATRIX_CATALOG + ("splitA:n=4", "glgl:n=3"))
def test_the_permutation_readings_match_the_weyl_table(spec, dense_theta):
    # the canonical involution, the census points with their a-membership
    # and `SplitWeylLifts.orbit`, each against the torus matrices M_w
    pair = realize(spec)
    split = pair.split_roots
    table = split_weyl_table(pair)
    theta_t = restrict_action(dense_theta(pair), split.torus)
    theta_can = canonical_involution(pair).matrix
    for b in enumerate_split_borels(pair):
        assert theta_can == table[b.perm].inverse() @ theta_t @ table[b.perm]
    x = regular_ss_element(pair)
    ss, _ = x.jordan_parts()
    x_t = coordinates_in_basis(split.torus, conjugate_ss_into_a(pair, ss).apply(gvec(x.coords)))
    a_cols = [coordinates_in_basis(split.torus, a) for a in pair.a_basis]
    points = fibers._weyl_root_values(split, x_t, enumerate_weyl(split.datum).elements)
    assert list(points) == list(table)
    theta = split.theta_perm
    for w, pt in points.items():
        image = table[w].apply(x_t)
        assert pt == tuple(weight_value(wt, image) for wt in split.weights)
        in_a = all(pt[theta[k]] == -v for k, v in enumerate(pt))
        assert in_a == (coordinates_in_basis(a_cols, image) is not None)
    orbit = SplitWeylLifts.of(pair).orbit(x_t)
    assert list(orbit) == list(table)
    assert orbit == {w: m.apply(x_t) for w, m in table.items()}


def test_a_borel_choice_that_moves_theta_is_caught(monkeypatch):
    # at glgl:n=2 W_a != W: translating every split Borel by a simple
    # reflection that does not commute with theta changes w^{-1} theta w
    pair = realize("glgl:n=2")
    split = pair.split_roots
    theta = split.theta_perm
    s = next(p for p in map(split.datum.simple_reflection_perm, range(split.datum.rank))
             if compose(p, theta) != compose(theta, p))
    borels = enumerate_split_borels(pair)
    monkeypatch.setattr(involutions, "enumerate_split_borels",
                        lambda p: [BorelChoice(compose(s, b.perm)) for b in borels])
    with pytest.raises(CatalogError, match="depends on the Borel choice"):
        canonical_involution(pair)


def test_root_value_rejects_h_outside_the_torus():
    pair = realize("splitA:n=2")
    split = pair.split_roots
    k = split.positive[0]
    h = pair.bracket(split.root_vectors[k], split.root_vectors[split.negation()[k]])
    assert not root_value(split.torus, split.weights[k], h).is_zero()
    with pytest.raises(CatalogError):
        root_value(split.torus, split.weights[k], split.root_vectors[k])


def test_an_automorphism_that_does_not_permute_the_roots_is_caught():
    # 2 id normalizes every torus, but alpha -> 2 alpha is no map of the roots
    pair = realize("splitA:n=2")
    doubling = ExactMatrix.identity(pair.dim_g).scale(2)
    with pytest.raises(CatalogError, match="does not permute the roots"):
        torus_action_perm(pair.fund_roots, doubling)
