"""Elements of g1, the quotient map, and Kostant-Weierstrass slices."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from thetapairs.gaussian import GaussRat, I, ONE, ZERO
from thetapairs import slices
from thetapairs.involutions import SplitWeylLifts, compute_subgroups
from thetapairs.matrix import PRIME, ExactMatrix, coordinates_in_basis, from_residue, residue
from thetapairs.pairs import MATRIX_CATALOG, CatalogError, realize
from thetapairs.slices import (
    ConjugationOutsideField,
    ElementOfG1,
    NotInG1,
    TripleNotFound,
    build_kw_section,
    chi1,
    conjugate_ss_into_a,
    is_regular,
    kw_audit,
    kw_solve,
)


def a_combo(pair, coeffs):
    acc = [ZERO] * pair.dim_g
    for c, v in zip(coeffs, pair.a_basis):
        acc = [a + GaussRat(c) * b for a, b in zip(acc, v)]
    return acc


def test_membership_validation():
    p = realize("splitA:n=1")
    with pytest.raises(NotInG1):
        ElementOfG1.from_matrix(p, ExactMatrix.from_rows([[0, 1], [-1, 0]]))
    x = ElementOfG1.from_matrix(p, ExactMatrix.from_rows([[1, 0], [0, -1]]))
    assert p.in_g1(x.coords)


def test_chi1_blowup_coordinates():
    # x = (c d; d -c) at c=1, d=0: the invariant is -det = c^2 + d^2 = 1,
    # i.e. the product xy in the coordinates x = c + id, y = c - id
    p = realize("splitA:n=1")
    x = ElementOfG1.from_matrix(p, ExactMatrix.from_rows([[1, 0], [0, -1]]))
    assert chi1(p, x) == (GaussRat(-1),)
    x2 = ElementOfG1.from_matrix(p, ExactMatrix.from_rows([[1, 2], [2, -1]]))
    assert chi1(p, x2) == (GaussRat(-5),)  # -(c^2+d^2) with c=1, d=2


def test_chi1_zero():
    for spec in ("splitA:n=2", "glgl:n=2", "diag:sl3"):
        p = realize(spec)
        zero = ElementOfG1.from_coords(p, [ZERO] * p.dim_g)
        assert chi1(p, zero) == tuple([GaussRat(0)] * p.rank_r1)


def test_chi1_glgl_block_product():
    # X = I2, Y = diag(2,3): char poly of XY has coefficients (-5, 6)
    p = realize("glgl:n=2")
    entries = {(0, 2): 2, (1, 3): 3, (2, 0): 1, (3, 1): 1}
    m = ExactMatrix(4, 4, [GaussRat(entries.get((i, j), 0))
                           for i in range(4) for j in range(4)])
    x = ElementOfG1.from_matrix(p, m)
    assert chi1(p, x) == (GaussRat(-5), GaussRat(6))


def test_is_regular_examples():
    p = realize("splitA:n=2")
    assert not is_regular(p, [ZERO] * p.dim_g)
    assert is_regular(p, a_combo(p, [1, 3]))  # distinct eigenvalue coordinates
    section = build_kw_section(p)
    assert is_regular(p, section.e)


def _exact_regular(pair, x):
    return len(pair.ad(x).kernel_basis()) == pair.rank_g


small_gauss = st.builds(GaussRat, st.integers(-3, 3), st.integers(-1, 1))
sparse_gauss = st.one_of(st.just(ZERO), st.just(ZERO), small_gauss)


@st.composite
def g1_points(draw):
    """A catalog pair and a point of its g1: a random g1 point, an a-point
    (small coordinates put many on walls), 0, a multiple of the slice's e, a
    random nilpotent (g1 parts of positive roots of the theta-stable Borel)
    or a slice point."""
    p = realize(draw(st.sampled_from(MATRIX_CATALOG)))
    kind = draw(st.sampled_from(["g1", "a", "zero", "e", "nilpotent", "slice"]))
    if kind == "g1":
        x = [ZERO] * p.dim_g0 + draw(st.lists(sparse_gauss, min_size=p.dim_g1,
                                              max_size=p.dim_g1))
    elif kind == "a":
        x = a_combo(p, draw(st.lists(st.integers(-2, 2), min_size=p.rank_r1,
                                     max_size=p.rank_r1)))
    elif kind == "zero":
        x = [ZERO] * p.dim_g
    elif kind == "e":
        c = draw(st.builds(GaussRat, st.integers(1, 3), st.integers(-1, 1)))
        x = [c * v for v in build_kw_section(p).e]
    elif kind == "nilpotent":
        fund = p.fund_roots
        x = [ZERO] * p.dim_g
        for k in fund.positive:
            c = draw(st.sampled_from([ZERO, ONE, -ONE, I]))
            x = [a + c * b for a, b in zip(x, p.g1_part(fund.root_vectors[k]))]
    else:
        coeffs = draw(st.lists(sparse_gauss, min_size=p.rank_r1, max_size=p.rank_r1))
        x = build_kw_section(p).slice_point(coeffs)
    return p, x


@given(g1_points())
@settings(max_examples=120, deadline=None)
def test_is_regular_matches_the_exact_kernel(case):
    p, x = case
    assert p.in_g1(x)
    expected = _exact_regular(p, x)
    event("regular" if expected else "not regular")
    assert is_regular(p, x) == expected
    # the certificate is a lower bound on the exact rank
    assert p.frame.ad_rank_mod_p(x) <= p.ad(x).rank()


def test_coordinates_without_a_useful_residue_take_the_exact_path(monkeypatch):
    p = realize("splitA:n=2")
    regular = a_combo(p, [1, 3])
    wall = a_combo(p, [1, 2])   # two equal eigenvalues
    assert _exact_regular(p, regular) and not _exact_regular(p, wall)
    exact_calls = []
    ad = p.ad
    monkeypatch.setattr(p, "ad", lambda coords: exact_calls.append(1) or ad(coords))
    # a denominator divisible by PRIME: no residue, no bound
    no_residue = GaussRat(Fraction(1, PRIME))
    assert p.frame.ad_rank_mod_p([no_residue * c for c in regular]) is None
    assert is_regular(p, [no_residue * c for c in regular])
    assert not is_regular(p, [no_residue * c for c in wall])
    # a multiple of PRIME: ad x vanishes mod PRIME, so the bound is too low
    unlucky = [GaussRat(PRIME) * c for c in regular]
    assert p.frame.ad_rank_mod_p(unlucky) == 0
    assert is_regular(p, unlucky)
    assert len(exact_calls) == 3
    # the certificate alone decides a regular point with residues
    assert is_regular(p, regular) and len(exact_calls) == 3


@pytest.mark.parametrize("spec", MATRIX_CATALOG)
def test_slice_samples_are_certified_regular(spec):
    # kw_audit's samples need no exact kernel: ad x has rank dim g - rank g mod PRIME
    p = realize(spec)
    section = build_kw_section(p)
    rng = random.Random(5)
    for _ in range(10):
        x = section.slice_point([GaussRat(rng.randint(-40, 40), rng.randint(-3, 3))
                                 for _ in range(p.rank_r1)])
        assert p.frame.ad_rank_mod_p(x) == p.dim_g - p.rank_g


def test_jordan_parts_stay_in_g1():
    p = realize("splitA:n=2")
    from thetapairs.fibers import mixed_degenerate_element

    x = mixed_degenerate_element(p)
    ss, nil = x.jordan_parts()
    assert p.in_g1(ss) and p.in_g1(nil)
    assert p.theta_apply(ss) == [-c for c in ss]
    nil_m = p.from_coords(nil)
    assert nil_m.is_nilpotent()


def test_kw_section_sl2_explicit():
    # e is proportional to (1 i; i -1): a symmetric nilpotent
    p = realize("splitA:n=1")
    section = build_kw_section(p)
    e_m = p.from_coords(section.e)
    want = ExactMatrix.from_rows([[1, I], [I, -1]])
    assert e_m == want or e_m == want.scale(GaussRat(-1))
    assert e_m.is_nilpotent()
    assert is_regular(p, section.e)


def test_kw_section_glgl1_linear():
    p = realize("glgl:n=1")
    section = build_kw_section(p)
    values = [chi1(p, section.slice_point([t]))[0] for t in range(4)]
    diffs = {values[k + 1] - values[k] for k in range(3)}
    assert len(diffs) == 1  # chi1 is linear along the one-dimensional slice
    assert not next(iter(diffs)).is_zero()


def test_kw_triangular_solve_sl3():
    p = realize("splitA:n=2")
    section = build_kw_section(p)
    target = (GaussRat(3), GaussRat(-7))
    coeffs = kw_solve(section, target)
    assert chi1(p, section.slice_point(coeffs)) == target


def test_kw_solve_rejects_a_constant_invariant(monkeypatch):
    section = build_kw_section(realize("splitA:n=2"))
    monkeypatch.setattr(slices, "chi1", lambda pair, x: (ZERO, ZERO))
    with pytest.raises(TripleNotFound, match="invariant not linear in its coordinate"):
        kw_solve(section, (GaussRat(3), GaussRat(-7)))


def test_kw_solve_rejects_a_failed_verification(monkeypatch):
    # chi1 is right on the 2r = 4 solve calls and wrong on the fifth, the check
    section = build_kw_section(realize("splitA:n=2"))
    calls = []
    monkeypatch.setattr(slices, "chi1", lambda pair, x: (
        calls.append(1) or (chi1(pair, x) if len(calls) <= 4 else (ONE, ONE))))
    with pytest.raises(TripleNotFound, match="slice solve verification failed"):
        kw_solve(section, (GaussRat(3), GaussRat(-7)))
    assert len(calls) == 5


@pytest.mark.parametrize("spec", MATRIX_CATALOG + ("splitA:n=4",))
def test_quotient_blocks_drop_the_trace_only_where_the_frame_is_traceless(spec):
    # chi1 drops the trace coefficient unchecked: the block it reads is
    # traceless on every frame basis matrix, and from_coords is linear
    p = realize(spec)
    blocks, skip = slices._quotient_blocks(p)
    if p.spec.family == "glgl":
        # tr(Y X) does not vanish on g1: its coefficient is -1 at a_basis[0]
        assert skip == 1 and chi1(p, p.a_basis[0])[0] == -ONE
    else:
        (r, c, size), = blocks
        assert skip == 2
        assert all(b.block(r, c, size, size).trace().is_zero() for b in p.frame.basis)
    assert len(chi1(p, p.split_positivity)) == p.rank_r1


@pytest.mark.parametrize("spec", MATRIX_CATALOG)
def test_kw_audit_all_pairs(spec):
    audit = kw_audit(realize(spec), n_samples=15, n_round_trips=8)
    assert audit["samples_regular"] == 15
    assert audit["round_trips"] == 8
    assert audit["kappa_at_zero_is_e"]


@pytest.mark.parametrize("spec", MATRIX_CATALOG)
def test_invariant_residues_are_the_residues_of_chi1(spec):
    p = realize(spec)
    section = build_kw_section(p)
    rng = random.Random(3)
    for _ in range(10):
        x = section.slice_point([GaussRat(rng.randint(-40, 40), rng.randint(-3, 3))
                                 for _ in range(p.rank_r1)])
        rows = p.frame.matrix_from_residues([residue(c) for c in x])
        assert rows == [[residue(c) for c in row] for row in p.from_coords(x).row_lists()]
        assert slices._invariant_residues(p, rows) == tuple(map(residue, chi1(p, x)))


def _counting(monkeypatch, name):
    """Replaces slices.<name> by a wrapper that counts its calls."""
    calls = []
    inner = getattr(slices, name)
    monkeypatch.setattr(slices, name, lambda *args: calls.append(1) or inner(*args))
    return calls


AUDIT = dict(n_samples=12, n_round_trips=2)


def test_kw_audit_certifies_its_samples_without_exact_checks(monkeypatch):
    p = realize("splitA:n=2")
    regular_calls = _counting(monkeypatch, "is_regular")
    chi1_calls = _counting(monkeypatch, "chi1")
    solve_calls = _counting(monkeypatch, "kw_solve")
    audit = kw_audit(p, **AUDIT)
    assert audit["samples_regular"] == audit["chi1_injective_on"] == 12
    # kappa(0) only; chi1 in the solves only, one exact check per solve
    assert len(regular_calls) == 1 and len(chi1_calls) == 3 and not solve_calls


def test_kw_audit_decides_a_residue_collision_exactly(monkeypatch):
    p = realize("splitA:n=2")
    want = kw_audit(p, **AUDIT)
    monkeypatch.setattr(slices, "_invariant_residues", lambda pair, rows: (0, 0))
    chi1_calls = _counting(monkeypatch, "chi1")
    solve_calls = _counting(monkeypatch, "kw_solve")
    assert kw_audit(p, **AUDIT) == want
    assert want["chi1_injective_on"] == 12
    # equal residues also make every slope residue 0, so each of the 3 solves
    # is kw_solve's, with 2r + 1 = 5 exact chi1 calls; samples 2..12 each take
    # their own exact chi1 and that of every earlier sample: 11 + (1 + ... + 11)
    assert len(solve_calls) == 3
    assert len(chi1_calls) - 3 * 5 == 11 + 11 * 12 // 2


@pytest.mark.parametrize("spec", MATRIX_CATALOG)
def test_kw_audit_certifies_every_round_trip(monkeypatch, spec):
    solve_calls = _counting(monkeypatch, "kw_solve")
    audit = kw_audit(realize(spec), n_samples=1)
    assert audit["round_trips"] == 20 and audit["kappa_at_zero_is_e"]
    assert not solve_calls


def _zero_slopes_after_the_samples(monkeypatch):
    """The samples' keys stay the true residues; every chi1 residue after
    them, that is every one the solves take, is 0, and so is every slope."""
    calls = []
    inner = slices._invariant_residues

    def residues(pair, rows):
        calls.append(1)
        return inner(pair, rows) if len(calls) <= AUDIT["n_samples"] else (0,) * pair.rank_r1

    monkeypatch.setattr(slices, "_invariant_residues", residues)


@pytest.mark.parametrize("force, exact_checks", [
    (lambda mp: mp.setattr(slices, "from_residue", lambda r: None), 0),
    (lambda mp: mp.setattr(slices, "from_residue", lambda r: ONE + from_residue(r)), 3),
    (_zero_slopes_after_the_samples, 0),
], ids=["no_preimage", "wrong_preimage", "zero_slope"])
def test_kw_audit_solves_fall_back_to_kw_solve(monkeypatch, force, exact_checks):
    p = realize("splitA:n=2")
    want = kw_audit(p, **AUDIT)
    force(monkeypatch)
    solve_calls = _counting(monkeypatch, "kw_solve")
    chi1_calls = _counting(monkeypatch, "chi1")
    assert kw_audit(p, **AUDIT) == want
    # one kw_solve per solve, with 2r + 1 = 5 chi1 calls, after the exact
    # check that rejects a wrong preimage
    assert len(solve_calls) == 3
    assert len(chi1_calls) == exact_checks + 3 * 5


def _is_small(c: GaussRat) -> bool:
    """c = (a + b i)/d with N(a + b i) and d^2 below sqrt(PRIME)/2."""
    d = lcm(c.re.denominator, c.im.denominator)
    a, b = c.re * d, c.im * d
    return 4 * (a * a + b * b) ** 2 < PRIME and 4 * d ** 4 < PRIME


gauss_ints = st.builds(GaussRat, st.integers(-3, 3), st.integers(-3, 3))


@given(st.sampled_from(("splitA:n=3", "glgl:n=2", "diag:sl3")),
       st.lists(gauss_ints, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_certified_solve_round_trips_at_a_points(spec, coords):
    p = realize(spec)
    section = build_kw_section(p)
    y = [ZERO] * p.dim_g
    for c, v in zip(coords, p.a_basis):
        y = [a + c * b for a, b in zip(y, v)]
    t = chi1(p, y)
    want = kw_solve(section, t)
    base = slices._section_residues(section)
    coeffs = slices._certified_solve(section, base, t)
    assert coeffs == want and chi1(p, section.slice_point(coeffs)) == t
    # wherever kw_solve's coefficients are small, the residues read them back
    if all(map(_is_small, want)):
        assert slices._solve_mod_p(section, base, t) == want
        event("read back")


@given(st.sampled_from(("splitA:n=3", "glgl:n=2", "diag:sl3")),
       st.lists(gauss_ints, min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_chi1_is_little_weyl_invariant_at_a_points(spec, coords):
    # w.y for w in W_a through the SplitWeylLifts torus matrices; the
    # orbit and the stabilizer of y multiply to |W_a|
    p = realize(spec)
    torus = p.split_roots.torus
    y = [ZERO] * p.dim_g
    for c, v in zip(coords, p.a_basis):
        y = [a + c * b for a, b in zip(y, v)]
    t = chi1(p, y)
    y_torus = coordinates_in_basis(torus, y)
    lifts = SplitWeylLifts.of(p)
    wa = compute_subgroups(p).Wa_perms
    orbit, stabilizer = set(), 0
    for w in wa:
        image = lifts.torus_matrix(w).apply(y_torus)
        w_y = [sum((c * v[k] for c, v in zip(image, torus)), ZERO) for k in range(p.dim_g)]
        assert chi1(p, w_y) == t
        orbit.add(tuple(image))
        stabilizer += image == y_torus
    assert len(orbit) * stabilizer == len(wa)
    event(f"orbit {len(orbit)}")


def test_kw_audit_falls_back_to_the_exact_is_regular(monkeypatch):
    p = realize("glgl:n=1")
    want = kw_audit(p, **AUDIT)
    monkeypatch.setattr(p.frame, "ad_rank_from_residues", lambda xs: 0)
    regular_calls = _counting(monkeypatch, "is_regular")
    assert kw_audit(p, **AUDIT) == want
    assert len(regular_calls) == 12 + 1


def test_kw_audit_takes_the_exact_path_without_residues(monkeypatch):
    p = realize("diag:sl2")
    want = kw_audit(p, **AUDIT)
    monkeypatch.setattr(slices, "residue", lambda x: None)
    regular_calls = _counting(monkeypatch, "is_regular")
    invariant_calls = _counting(monkeypatch, "_invariant_residues")
    assert kw_audit(p, **AUDIT) == want
    assert len(regular_calls) == 12 + 1 and not invariant_calls


def test_kw_audit_guard_on_an_irregular_sample(monkeypatch):
    p = realize("splitA:n=1")
    monkeypatch.setattr(p.frame, "ad_rank_from_residues", lambda xs: 0)
    monkeypatch.setattr(slices, "is_regular", lambda pair, x: False)
    with pytest.raises(CatalogError, match="slice sample is not regular"):
        kw_audit(p, **AUDIT)


def test_kw_audit_guard_on_equal_invariants(monkeypatch):
    p = realize("splitA:n=1")
    monkeypatch.setattr(slices, "_invariant_residues", lambda pair, rows: (0,))
    monkeypatch.setattr(slices, "chi1", lambda pair, x: (ZERO,))
    with pytest.raises(CatalogError, match="chi1 is not injective on the slice"):
        kw_audit(p, **AUDIT)


def test_chi1_invariant_under_g0_conjugation():
    # conjugating by exponentials of g0 nilpotents and by little-Weyl lifts
    from thetapairs.fibers import g0_weyl_lifts

    for spec in ("splitA:n=2", "glgl:n=2", "diag:sl2"):
        p = realize(spec)
        x = a_combo(p, [1, 3][: p.rank_r1])
        base = chi1(p, x)
        fund = p.fund_roots
        rng = random.Random(11)
        conjugators = list(g0_weyl_lifts(p).values())[:3]
        count = 0
        for k in fund.positive:
            part = p.g0_part(fund.root_vectors[k])
            if all(c.is_zero() for c in part):
                continue
            s = GaussRat(rng.randint(1, 3))
            conjugators.append(p.ad([s * c for c in part]).exp_nilpotent())
            count += 1
            if count >= 5:
                break
        assert conjugators
        for g in conjugators:
            assert chi1(p, g.apply(x)) == base


def test_conjugation_into_a_over_the_field():
    # (7 24; 24 -7) has eigenvalues +-25 and eigenvector norms 900 and 1600,
    # both squares, so an exact special-orthogonal conjugation exists
    p = realize("splitA:n=1")
    m = ExactMatrix.from_rows([[7, 24], [24, -7]])
    ad_g = conjugate_ss_into_a(p, p.to_coords(m))
    image = ad_g.apply(p.to_coords(m))
    from thetapairs.matrix import coordinates_in_basis

    assert coordinates_in_basis([list(v) for v in p.a_basis], image) is not None


def test_conjugation_failures_are_typed():
    p = realize("splitA:n=1")
    # eigenvalues +-sqrt(2): spectrum outside Q(i)
    bad_spectrum = ExactMatrix.from_rows([[1, 1], [1, -1]])
    with pytest.raises(ConjugationOutsideField):
        conjugate_ss_into_a(p, p.to_coords(bad_spectrum))
    # eigenvalues +-1 but eigenvector norms 2: normalization outside Q(i),
    # raised once, not re-raised as a chained copy of itself
    bad_norm = ExactMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ConjugationOutsideField,
                       match=r"eigenvector normalization needs sqrt\(2\)") as info:
        conjugate_ss_into_a(p, p.to_coords(bad_norm))
    assert not isinstance(info.value.__cause__, ConjugationOutsideField)


def test_kappa_zero_is_nonzero_regular_nilpotent():
    for spec in MATRIX_CATALOG:
        p = realize(spec)
        section = build_kw_section(p)
        coeffs = kw_solve(section, [ZERO] * p.rank_r1)
        kappa0 = section.slice_point(coeffs)
        assert kappa0 == section.e
        assert any(not c.is_zero() for c in kappa0)
        assert p.from_coords(kappa0).is_nilpotent()
        assert is_regular(p, kappa0)
