"""Exact arithmetic and linear algebra kernel."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thetapairs.gaussian import (
    GaussRat,
    I,
    ONE,
    ZERO,
    SplittingFieldTooLarge,
    _certified_roots,
    _factored_roots,
    gauss_sqrt,
    gaussian_roots,
    poly_gcd,
    poly_squarefree_part,
)
from thetapairs.jordan import (
    eigenspaces,
    is_semisimple,
    jordan_decomposition,
    jordan_semisimple_part,
)
from thetapairs import lattice
from thetapairs.lattice import smith_normal_form
from thetapairs.liealg import LinearAlgebraFrame, flag_stabilizer
from thetapairs.matrix import (
    PRIME,
    PRIME_IDEAL,
    SQRT_MINUS_ONE,
    ExactMatrix,
    coordinates_in_basis,
    from_residue,
    independent_subset,
    intersect_spans,
    modular_char_poly,
    residue,
    restrict_action,
    span_eq,
    span_rank,
)
from thetapairs.pairs import _sl_basis, _unit


def mat(rows):
    return ExactMatrix.from_rows(rows)


# -- GaussRat --------------------------------------------------------------


def test_gauss_field_axioms_spot():
    a = GaussRat(Fraction(1, 2), 3)
    b = GaussRat(2, Fraction(-1, 5))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.inverse() == GaussRat(1)
    assert I * I == GaussRat(-1)


def test_zero_results_share_the_zero_object():
    a = GaussRat(Fraction(1, 2))
    assert a * GaussRat(0) is ZERO and GaussRat(0) * a is ZERO
    assert a + ZERO is a and ZERO + a is a and a - ZERO is a
    assert -ZERO is ZERO and -GaussRat(0) is ZERO
    # the pivot entries of a kernel vector are negated reduced-row entries,
    # three of them zero here
    basis = mat([[1, 0, 2, 0], [0, 1, 0, 0]]).kernel_basis()
    zeros = [x for v in basis for x in v if x.is_zero()]
    assert len(zeros) == 5 and all(x is ZERO for x in zeros)


def test_gauss_sqrt_exact_cases():
    assert gauss_sqrt(GaussRat(-1)) == I or gauss_sqrt(GaussRat(-1)) == -I
    w = gauss_sqrt(GaussRat(0, 2))  # 2i = (1+i)^2
    assert w is not None and w * w == GaussRat(0, 2)
    assert gauss_sqrt(GaussRat(2)) is None  # sqrt(2) not in Q(i)
    assert gauss_sqrt(GaussRat(Fraction(9, 4))) == GaussRat(Fraction(3, 2))


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


@given(rationals, rationals)
@settings(max_examples=50, deadline=None)
def test_gauss_sqrt_of_squares(re, im):
    z = GaussRat(re, im)
    w = gauss_sqrt(z * z)
    assert w is not None and w * w == z * z


# -- kernel_basis ----------------------------------------------------------


def test_kernel_zero_matrix_gives_standard_basis():
    basis = ExactMatrix.zero(2, 2).kernel_basis()
    assert basis == [[GaussRat(1), GaussRat(0)], [GaussRat(0), GaussRat(1)]]


def test_kernel_rank_one_nilpotent():
    basis = mat([[0, 1], [0, 0]]).kernel_basis()
    assert basis == [[GaussRat(1), GaussRat(0)]]


def test_kernel_of_sl2_adjoint_action():
    # ad(diag(1,-1)) on the basis (e, h, f) of sl2, built by brute force:
    # [h,e]=2e, [h,h]=0, [h,f]=-2f.
    ad_h = mat([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    basis = ad_h.kernel_basis()
    assert len(basis) == 1
    assert basis[0] == [GaussRat(0), GaussRat(1), GaussRat(0)]


@given(st.lists(st.integers(-5, 5), min_size=12, max_size=12))
@settings(max_examples=60, deadline=None)
def test_rank_nullity(entries):
    m = ExactMatrix(3, 4, [GaussRat(e) for e in entries])
    assert len(m.kernel_basis()) + m.rank() == m.cols
    for v in m.kernel_basis():
        assert all(x.is_zero() for x in m.apply(v))


# -- oracle properties against sympy DomainMatrix over QQ_I ----------------


def _to_qq_i(z: GaussRat):
    from sympy import QQ, QQ_I

    return QQ_I(QQ(z.re.numerator, z.re.denominator), QQ(z.im.numerator, z.im.denominator))


def _from_qq_i(z) -> GaussRat:
    return GaussRat(Fraction(int(z.x.numerator), int(z.x.denominator)),
                    Fraction(int(z.y.numerator), int(z.y.denominator)))


def _oracle(m: ExactMatrix):
    from sympy import QQ_I
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix([[_to_qq_i(x) for x in row] for row in m.row_lists()],
                        (m.rows, m.cols), QQ_I)


def _oracle_rank(m: ExactMatrix) -> int:
    return _oracle(m).rank() if m.rows and m.cols else 0


# mostly zero entries, like the kernel's inputs; the rest small Gaussian rationals
sparse_entries = st.one_of(
    st.just(ZERO), st.just(ZERO), st.just(ZERO),
    st.builds(GaussRat, st.integers(-4, 4)),
    st.builds(GaussRat, st.fractions(-3, 3, max_denominator=3), st.integers(-2, 2)),
)


# the same with every entry real: char_poly then runs on Fraction parts
real_sparse_entries = st.one_of(
    st.just(ZERO), st.just(ZERO), st.just(ZERO),
    st.builds(GaussRat, st.integers(-4, 4)),
    st.builds(GaussRat, st.fractions(-3, 3, max_denominator=3)),
)


@st.composite
def sparse_matrices(draw, max_size=8, square=False):
    rows = draw(st.integers(1, max_size))
    cols = rows if square else draw(st.integers(1, max_size))
    entries = draw(st.sampled_from([sparse_entries, real_sparse_entries]))
    return ExactMatrix(rows, cols, draw(st.lists(entries, min_size=rows * cols,
                                                 max_size=rows * cols)))


def test_the_modulus_is_a_prime_with_a_square_root_of_minus_one():
    from sympy import isprime

    assert isprime(PRIME) and PRIME % 4 == 1
    assert (SQRT_MINUS_ONE * SQRT_MINUS_ONE + 1) % PRIME == 0


gauss_rationals = st.builds(GaussRat, st.fractions(-30, 30, max_denominator=12),
                            st.fractions(-30, 30, max_denominator=12))


@given(gauss_rationals, gauss_rationals)
@settings(max_examples=80, deadline=None)
def test_residue_is_a_ring_map(a, b):
    assert residue(a * b) == residue(a) * residue(b) % PRIME
    assert residue(a + b) == (residue(a) + residue(b)) % PRIME
    if not a.is_zero():
        assert residue(a) * residue(1 / a) % PRIME == 1


def test_the_prime_ideal_has_norm_prime_and_divides_iota_minus_i():
    a, b = PRIME_IDEAL
    assert a * a + b * b == PRIME
    # (SQRT_MINUS_ONE - i)(a - b i) / PRIME is a Gaussian integer
    assert (SQRT_MINUS_ONE * a - b) % PRIME == 0
    assert (-SQRT_MINUS_ONE * b - a) % PRIME == 0


@given(st.integers(-3000, 3000), st.integers(-3000, 3000), st.integers(-3000, 3000))
@example(0, 0, 1)
@example(-3000, 3000, 2999)
@settings(max_examples=300, deadline=None)
def test_from_residue_reads_back_small_gaussian_rationals(a, b, d):
    assume(d)
    x = GaussRat(Fraction(a, d), Fraction(b, d))
    assert from_residue(residue(x)) == x


@given(st.integers(0, PRIME - 1))
@example(0)
@example(SQRT_MINUS_ONE)
@example(PRIME - 1)
@settings(max_examples=300, deadline=None)
def test_from_residue_is_none_or_has_the_residue(r):
    x = from_residue(r)
    assert x is None or residue(x) == r


def test_residue_exists_unless_a_denominator_is_divisible_by_the_prime():
    assert residue(I) == SQRT_MINUS_ONE
    assert residue(GaussRat(Fraction(1, PRIME))) is None
    assert residue(GaussRat(0, Fraction(3, 2 * PRIME))) is None
    m = mat([[GaussRat(Fraction(1, PRIME)), 0], [0, 1]])
    assert m.rank_mod_p() is None and m.rank() == 2
    # a bound, not the rank: PRIME itself reduces to 0
    assert mat([[PRIME]]).rank_mod_p() == 0


@given(sparse_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_mod_p_never_exceeds_the_domain_matrix_rank(m):
    assert m.rank_mod_p() <= _oracle_rank(m)


# Gaussian integers with |re|, |im| <= 3 in at most 8 columns: by Hadamard's
# bound every minor has norm below PRIME, so none that is nonzero vanishes
# mod PRIME and the two ranks agree
@st.composite
def small_gaussian_integer_matrices(draw):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.one_of(st.just(ZERO), st.builds(GaussRat, st.integers(-3, 3), st.integers(-3, 3)))
    return ExactMatrix(rows, cols, draw(st.lists(entry, min_size=rows * cols,
                                                 max_size=rows * cols)))


@given(small_gaussian_integer_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_mod_p_is_the_rank_below_the_hadamard_bound(m):
    assert m.rank_mod_p() == _oracle_rank(m)


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_matches_domain_matrix(m):
    red, pivots = m.rref()
    want, want_pivots = _oracle(m).rref()
    assert pivots == list(want_pivots)
    assert red.row_lists() == [[_from_qq_i(x) for x in row] for row in want.to_list()]


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_basis_has_nullity_size_and_is_killed(m):
    kern = m.kernel_basis()
    assert len(kern) == m.cols - _oracle_rank(m)
    for v in kern:
        assert all(x.is_zero() for x in m.apply(v))


def _greedy_independent(vectors):
    chosen = []
    for v in vectors:
        if span_rank(chosen + [v]) > len(chosen):
            chosen.append(v)
    return chosen


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_independent_subset_is_the_earliest_first_greedy_choice(m):
    vectors = m.row_lists()
    chosen = independent_subset(vectors)
    assert chosen == _greedy_independent(vectors)
    assert len(chosen) == _oracle_rank(m)


@given(sparse_matrices(max_size=6, square=True), st.data())
@settings(max_examples=60, deadline=None)
def test_restrict_action_solves_the_invariant_case_only(a, data):
    vectors = st.lists(sparse_entries, min_size=a.rows, max_size=a.rows)
    krylov = [data.draw(vectors)]
    for _ in range(a.rows - 1):
        krylov.append(a.apply(krylov[-1]))
    # the span of all Krylov vectors is invariant; a random span need not be
    invariant = independent_subset(krylov)
    other = independent_subset(data.draw(st.lists(vectors, min_size=1, max_size=a.rows)))
    for basis in (invariant, other):
        if not basis:
            continue
        images = [a.apply(x) for x in basis]
        preserved = _oracle_rank(ExactMatrix.from_columns(basis + images)) == len(basis)
        r = restrict_action(a, basis)
        assert (r is not None) == preserved
        assert preserved or basis is other
        if r is not None:
            b = ExactMatrix.from_columns(basis)
            assert b @ r == a @ b


# sl(3), and gl(4) in its unit basis, with the dimension of their Borels
FLAG_FRAMES = [(LinearAlgebraFrame(_sl_basis(3)), 3 * 4 // 2 - 1),
               (LinearAlgebraFrame([_unit(4, i, j) for i in range(4) for j in range(4)]),
                4 * 5 // 2)]


@st.composite
def frames_with_flags(draw):
    """A frame with one or two flags (complete or partial) of its defining
    space, or with one complete flag per diagonal block of an even-sized
    defining space (the per-block shape of the diagonal pairs' fiber witnesses)."""
    frame, borel_dim = draw(st.sampled_from(FLAG_FRAMES))
    n = frame.n_def
    units = ExactMatrix.identity(n).row_lists()
    vectors = st.lists(st.lists(sparse_entries, min_size=n, max_size=n), max_size=n)
    if n % 2 == 0 and draw(st.booleans()):
        flags = []
        for block in (range(n // 2), range(n // 2, n)):
            # a complete flag of the block's coordinate subspace
            drawn = [[x if i in block else ZERO for i, x in enumerate(v)]
                     for v in draw(vectors)]
            flags.append(independent_subset(drawn + [units[i] for i in block]))
        return frame, borel_dim, flags
    flags = []
    for _ in range(draw(st.integers(1, 2))):
        length = draw(st.one_of(st.just(n), st.integers(0, n)))
        flags.append(independent_subset(draw(vectors) + units)[:length])
    return frame, borel_dim, flags


def _every_vector_flag_stabilizer(frame, flags):
    # the reference: at each step, every vector of the step against every
    # functional vanishing on the step
    rows = []
    for flag in flags:
        for j in range(1, len(flag) + 1):
            step = flag[:j]
            functionals = ExactMatrix.from_rows(step).kernel_basis()
            for v in step:
                for phi in functionals:
                    rows.append([sum((p * q for p, q in zip(phi, b.apply(v))), ZERO)
                                 for b in frame.basis])
    if not rows:
        return ExactMatrix.identity(frame.dim).row_lists()
    return ExactMatrix.from_rows(rows).kernel_basis()


@given(frames_with_flags())
@settings(max_examples=60, deadline=None)
def test_flag_stabilizer_needs_only_the_newest_vector_of_each_step(case):
    frame, borel_dim, flags = case
    got = flag_stabilizer(frame, flags)
    assert got == _every_vector_flag_stabilizer(frame, flags)
    for coords in got:
        m = frame.from_coords(coords)
        for flag in flags:
            for j in range(1, len(flag) + 1):
                assert all(coordinates_in_basis(flag[:j], m.apply(v)) is not None
                           for v in flag[:j])
    if len(flags) == 1 and len(flags[0]) == frame.n_def:
        assert len(got) == borel_dim


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_span_eq_matches_domain_matrix_ranks(data):
    # span(a) = span(b) exactly when rank a = rank b = rank(a + b); b is a
    # shuffle of recombinations of a and zero vectors, with or without a
    n = data.draw(st.integers(1, 5))
    entries = data.draw(st.sampled_from([sparse_entries, real_sparse_entries]))
    vectors = st.lists(entries, min_size=n, max_size=n)
    a = data.draw(st.lists(vectors, max_size=5))
    if a and data.draw(st.booleans()):
        coeffs = st.lists(sparse_entries, min_size=len(a), max_size=len(a))
        combos = [ExactMatrix.from_columns(a).apply(c)
                  for c in data.draw(st.lists(coeffs, max_size=4))]
        kept = a if data.draw(st.booleans()) else []
        zeros = [[ZERO] * n] * data.draw(st.integers(0, 2))
        b = data.draw(st.permutations(kept + combos + zeros))
    else:
        b = data.draw(st.lists(vectors, max_size=5))

    def rank(vs):
        return _oracle_rank(ExactMatrix.from_rows(vs)) if vs else 0

    want = rank(a) == rank(b) == rank(a + b)
    assert span_eq(a, b) == want == span_eq(b, a)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_intersect_spans_matches_domain_matrix_ranks(data):
    # a and b may be empty, dependent or share vectors; b mixes
    # recombinations of a, fresh vectors and zero vectors
    n = data.draw(st.integers(1, 5))
    entries = data.draw(st.sampled_from([sparse_entries, real_sparse_entries]))
    vectors = st.lists(entries, min_size=n, max_size=n)
    a = data.draw(st.lists(vectors, max_size=5))
    combos = []
    if a:
        coeffs = st.lists(sparse_entries, min_size=len(a), max_size=len(a))
        combos = [ExactMatrix.from_columns(a).apply(c)
                  for c in data.draw(st.lists(coeffs, max_size=3))]
    zeros = [[ZERO] * n] * data.draw(st.integers(0, 1))
    b = data.draw(st.permutations(combos + data.draw(st.lists(vectors, max_size=3)) + zeros))

    def rank(vs):
        return _oracle_rank(ExactMatrix.from_rows(vs)) if vs else 0

    got = intersect_spans(a, b)
    # dim(A cap B) = dim A + dim B - dim(A + B)
    assert len(got) == rank(a) + rank(b) - rank(a + b)
    assert rank(got) == len(got)
    for v in got:
        assert len(v) == n and all(isinstance(x, GaussRat) for x in v)
        assert rank(a + [v]) == rank(a) and rank(b + [v]) == rank(b)


@given(sparse_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_matches_domain_matrix_consistency(m, data):
    # a right-hand side in the column span half of the time, an arbitrary one otherwise
    coeffs = data.draw(st.lists(sparse_entries, min_size=m.cols, max_size=m.cols))
    arbitrary = data.draw(st.lists(sparse_entries, min_size=m.rows, max_size=m.rows))
    rhs = data.draw(st.sampled_from([m.apply(coeffs), arbitrary]))
    x = m.solve(rhs)
    augmented = ExactMatrix.from_columns(m.transpose().row_lists() + [rhs])
    assert (x is None) == (_oracle_rank(augmented) > _oracle_rank(m))
    if x is not None:
        assert m.apply(x) == rhs


@given(sparse_matrices(square=True))
@settings(max_examples=60, deadline=None)
def test_inverse_matches_domain_matrix(m):
    oracle = _oracle(m)
    if _from_qq_i(oracle.det()).is_zero():
        with pytest.raises(ZeroDivisionError):
            m.inverse()
    else:
        want = oracle.inv().to_list()
        assert m.inverse().row_lists() == [[_from_qq_i(x) for x in row] for row in want]


@given(sparse_matrices(square=True))
@settings(max_examples=60, deadline=None)
def test_det_matches_domain_matrix(m):
    assert m.det() == _from_qq_i(_oracle(m).det())


@given(sparse_matrices(square=True))
@settings(max_examples=60, deadline=None)
def test_char_poly_matches_domain_matrix(m):
    assert m.char_poly() == [_from_qq_i(c) for c in _oracle(m).charpoly()]


def _from_oracle(dm):
    return [[_from_qq_i(x) for x in row] for row in dm.to_list()]


@given(sparse_matrices(max_size=6), st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_matmul_and_apply_match_domain_matrix(a, cols, data):
    entries = data.draw(st.sampled_from([sparse_entries, real_sparse_entries]))
    b = ExactMatrix(a.cols, cols, data.draw(st.lists(entries, min_size=a.cols * cols,
                                                     max_size=a.cols * cols)))
    want = _from_oracle(_oracle(a).matmul(_oracle(b)))
    assert (a @ b).row_lists() == want
    assert a.apply(b.column(0)) == [row[0] for row in want]


def _is_gauss(values):
    return all(type(x) is GaussRat for x in values)


@given(sparse_matrices(square=True))
@settings(max_examples=60, deadline=None)
def test_kernel_results_are_gauss_rationals(m):
    # elimination works on Gaussian integers and all-real char_poly on Fraction
    # parts; every result comes back as GaussRat
    red, _ = m.rref()
    assert _is_gauss(red.entries)
    assert all(_is_gauss(v) for v in m.kernel_basis())
    assert type(m.det()) is GaussRat
    assert _is_gauss(m.char_poly())
    if not m.det().is_zero():
        assert _is_gauss(m.inverse().entries)
    x = m.solve(m.column(0))
    assert x is not None and _is_gauss(x)


@st.composite
def permuted_nilpotent_matrices(draw):
    # P N P^-1 for N strictly upper triangular and P a permutation matrix
    n = draw(st.integers(1, 7))
    upper = draw(st.lists(sparse_entries, min_size=n * n, max_size=n * n))
    p = draw(st.permutations(range(n)))
    return ExactMatrix(n, n, [upper[p[i] * n + p[j]] if p[j] > p[i] else ZERO
                              for i in range(n) for j in range(n)])


@given(permuted_nilpotent_matrices())
@settings(max_examples=60, deadline=None)
def test_char_poly_of_permuted_nilpotent_matrices(m):
    assert m.char_poly() == [ONE] + [ZERO] * m.rows
    assert m.char_poly() == [_from_qq_i(c) for c in _oracle(m).charpoly()]


@given(sparse_matrices(max_size=4, square=True), sparse_matrices(max_size=4, square=True))
@settings(max_examples=60, deadline=None)
def test_char_poly_of_block_diagonal_matrices(a, b):
    m = ExactMatrix.block_diagonal(a, b)
    assert m.char_poly() == [_from_qq_i(c) for c in _oracle(m).charpoly()]
    assert m.char_poly() == _times_poly(a.char_poly(), b.char_poly())


def _times_poly(p, q):
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] = out[i + j] + x * y
    return out


@st.composite
def gaussian_spectrum_matrices(draw):
    # P T P^-1 with T upper triangular (Gaussian integer diagonal, repeats
    # allowed) and P a product of unit triangular integer matrices
    n = draw(st.integers(1, 6))
    diag = draw(st.lists(st.builds(GaussRat, st.integers(-3, 3), st.integers(-1, 1)),
                         min_size=n, max_size=n))
    upper = draw(st.lists(st.sampled_from([ZERO, ZERO, ONE, GaussRat(-2), GaussRat(0, 1)]),
                          min_size=n * n, max_size=n * n))
    t = ExactMatrix(n, n, [diag[i] if i == j else upper[i * n + j] if j > i else ZERO
                           for i in range(n) for j in range(n)])
    low = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    high = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    p = (ExactMatrix(n, n, [1 if i == j else low[i * n + j] if j < i else 0
                            for i in range(n) for j in range(n)])
         @ ExactMatrix(n, n, [1 if i == j else high[i * n + j] if j > i else 0
                              for i in range(n) for j in range(n)]))
    return p @ t @ p.inverse(), diag


@given(gaussian_spectrum_matrices())
@settings(max_examples=40, deadline=None)
def test_eigenspaces_match_domain_matrix_ranks(case):
    m, diag = case
    n = m.rows
    spaces = eigenspaces(m)
    assert [lam for lam, _ in spaces] == sorted(set(diag), key=GaussRat.sort_key)
    for lam, kern in spaces:
        shifted = m - ExactMatrix.identity(n).scale(lam)
        assert len(kern) == n - _oracle_rank(shifted) >= 1
        assert _oracle_rank(ExactMatrix.from_rows(kern)) == len(kern)
        for v in kern:
            assert m.apply(v) == [lam * x for x in v]


# -- the fraction-free core against the field elimination it replaced ------


def _field_eliminate(rows, cols):
    """The field elimination that `ExactMatrix.rref` and `det` used before
    the fraction-free core, kept as an oracle.  Reduces sparse
    `{column: value}` rows to reduced row echelon form in place, with the
    same pivot rule (lowest column, then topmost row).  Returns the pivot
    columns, the pivot values before normalisation and the parity of the
    row swaps."""
    pivots, values = [], []
    swaps = 0
    r = 0
    for c in range(cols):
        if r == len(rows):
            break
        i = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if i is None:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            swaps ^= 1
        prow = rows[r]
        p = prow[c]
        if p != 1:
            inv = 1 / p
            for j in prow:
                prow[j] = prow[j] * inv
        tail = [(j, v) for j, v in prow.items() if j != c]
        for k, row in enumerate(rows):
            f = row.pop(c, None) if k != r else None
            if f is None:
                continue
            for j, v in tail:
                x = row.get(j)
                if x is None:
                    row[j] = -(f * v)
                else:
                    x = x - f * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        pivots.append(c)
        values.append(p)
        r += 1
    return pivots, values, swaps


def _field_echelon(m: ExactMatrix):
    """(RREF rows, pivot columns, determinant or None when not square) by
    `_field_eliminate`."""
    rows = [{j: v for j, v in enumerate(m.row(i)) if v} for i in range(m.rows)]
    pivots, values, swaps = _field_eliminate(rows, m.cols)
    det = None
    if m.rows == m.cols:
        det = ZERO
        if len(pivots) == m.rows:
            det = GaussRat(-1 if swaps else 1)
            for p in values:
                det = det * p
    return [[row.get(j, ZERO) for j in range(m.cols)] for row in rows], pivots, det


# mostly Gaussian-integer entries, whose pivots are real or non-real units
# (1, -i), non-unit reals (2, -3) or non-real non-units (1 + i, 2 - 3i),
# and Gaussian rationals with denominators up to 10^6
wide_rationals = st.fractions(-1000, 1000, max_denominator=10 ** 6)
real_core_entries = st.one_of(
    st.just(ZERO), st.just(ZERO),
    st.builds(GaussRat, st.integers(-4, 4)),
    st.builds(GaussRat, wide_rationals),
)
core_entries = st.one_of(
    st.just(ZERO), st.just(ZERO),
    st.sampled_from([ONE, -ONE, I, -I]),
    st.builds(GaussRat, st.integers(-3, 3), st.integers(-3, 3)),
    st.builds(GaussRat, wide_rationals, wide_rationals),
)


@st.composite
def elimination_inputs(draw, square=False):
    """Matrices whose rows are real or complex, zero, or a repeat or a
    Gaussian multiple of an earlier row."""
    cols = draw(st.integers(1, 6))
    rows = []
    for _ in range(cols if square else draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["real", "complex", "zero", "repeat", "multiple"]
                                    if rows else ["real", "complex", "zero"]))
        if kind in ("real", "complex"):
            entries = real_core_entries if kind == "real" else core_entries
            rows.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
        elif kind == "zero":
            rows.append([ZERO] * cols)
        else:
            row = draw(st.sampled_from(rows))
            c = ONE if kind == "repeat" else draw(core_entries.filter(bool))
            rows.append([c * x for x in row])
    return mat(rows)


NON_UNIT_PIVOTS = mat([[GaussRat(1, 1), 2, GaussRat(0, 3)],
                       [3, GaussRat(2, -1), 1],
                       [GaussRat(Fraction(1, 10 ** 6), 5), 0, GaussRat(Fraction(7, 999983))]])


@given(elimination_inputs())
@settings(max_examples=100, deadline=None)
@example(NON_UNIT_PIVOTS)
@example(mat([[I, 2, GaussRat(1, 1), 0], [3, 1, -I, 5]]))
@example(mat([[2, 4], [2, 4], [0, 0]]))
def test_fraction_free_core_matches_field_elimination_and_domain_matrix(m):
    red, pivots = m.rref()
    want, want_pivots, _ = _field_echelon(m)
    qq_red, qq_pivots = _oracle(m).rref()
    assert pivots == want_pivots == list(qq_pivots)
    assert red.row_lists() == want == _from_oracle(qq_red)
    assert m.rank() == len(pivots) == _oracle_rank(m)
    # the greedy subset of the rows is read off the pivots of their columns
    column_pivots = _field_echelon(m.transpose())[1]
    rows = m.row_lists()
    assert independent_subset(rows) == [rows[j] for j in column_pivots]


@given(elimination_inputs(square=True))
@settings(max_examples=100, deadline=None)
@example(NON_UNIT_PIVOTS)
@example(mat([[0, GaussRat(1, 1)], [GaussRat(2, -1), 3]]))
@example(mat([[I, 2], [3, -I]]))
def test_fraction_free_det_matches_field_elimination_and_domain_matrix(m):
    assert m.det() == _field_echelon(m)[2] == _from_qq_i(_oracle(m).det())


@pytest.mark.parametrize("spec", ["splitA:n=2", "diag:sl2"])
def test_report_kernel_inputs_replay_through_the_field_elimination(spec,
                                                                   record_kernel_inputs):
    inputs = record_kernel_inputs(spec)["rref"]
    assert inputs
    for m in inputs:
        red, pivots = m.rref()
        want, want_pivots, det = _field_echelon(m)
        assert (red.row_lists(), pivots) == (want, want_pivots)
        assert m.rank() == len(pivots)
        if det is not None:
            assert m.det() == det


# -- char_poly -------------------------------------------------------------


def test_char_poly_nilpotent():
    assert mat([[0, 1], [0, 0]]).char_poly() == [GaussRat(1), GaussRat(0), GaussRat(0)]


def test_char_poly_diag_2_3():
    assert mat([[2, 0], [0, 3]]).char_poly() == [GaussRat(1), GaussRat(-5), GaussRat(6)]


def test_char_poly_antidiagonal_instantiation():
    # [[0,x],[y,0]] at x=2, y=3: expansion by minors gives t^2 - 6.
    assert mat([[0, 2], [3, 0]]).char_poly() == [GaussRat(1), GaussRat(0), GaussRat(-6)]


def test_char_poly_conjugation_invariant():
    m = mat([[1, 2, 0], [0, 3, 1], [1, 1, 1]])
    p = mat([[1, 1, 0], [0, 1, 2], [0, 0, 1]])
    conj = p @ m @ p.inverse()
    assert conj.char_poly() == m.char_poly()


def _residue_matrix(m: ExactMatrix):
    rows = [[residue(x) for x in row] for row in m.row_lists()]
    assert all(None not in row for row in rows)
    return rows


@given(st.one_of(sparse_matrices(square=True), elimination_inputs(square=True),
                 permuted_nilpotent_matrices()))
@settings(max_examples=100, deadline=None)
@example(mat([[0, 2], [3, 0]]))
@example(ExactMatrix(8, 8, [GaussRat(j - i, 1) if j > i else ZERO
                            for i in range(8) for j in range(8)]))
def test_modular_char_poly_is_the_residue_of_char_poly(m):
    # real, complex, singular (zero, repeated and multiple rows) and
    # nilpotent Gaussian-rational inputs up to 8 x 8
    assert modular_char_poly(_residue_matrix(m)) == [residue(c) for c in m.char_poly()]


@pytest.mark.parametrize("spec", ["splitA:n=3", "glgl:n=2", "diag:sl3"])
def test_report_char_poly_inputs_replay_through_modular_char_poly(spec,
                                                                  record_kernel_inputs):
    inputs = record_kernel_inputs(spec)["char_poly"]
    assert inputs
    for m in inputs:
        assert modular_char_poly(_residue_matrix(m)) == [residue(c) for c in m.char_poly()]


def test_block_diagonal_and_block_round_trip():
    a = mat([[1, 2], [3, 4]])
    b = mat([[5, I, 0]])
    d = ExactMatrix.block_diagonal(a, b)
    assert d == mat([[1, 2, 0, 0, 0], [3, 4, 0, 0, 0], [0, 0, 5, I, 0]])
    assert d.block(0, 0, 2, 2) == a and d.block(2, 2, 1, 3) == b
    assert d.block(0, 2, 2, 3).is_zero()


def test_solve_and_inverse_round_trip():
    m = mat([[1, 2], [3, 5]])
    x = m.solve([7, 11])
    assert m.apply(x) == [GaussRat(7), GaussRat(11)]
    assert m @ m.inverse() == ExactMatrix.identity(2)


# -- Smith normal form -----------------------------------------------------


def test_snf_identity():
    d, u, v = smith_normal_form([[1, 0], [0, 1]])
    assert d == [[1, 0], [0, 1]]
    assert u == [[1, 0], [0, 1]]
    assert v == [[1, 0], [0, 1]]


def test_snf_single_entry():
    d, u, v = smith_normal_form([[2]])
    assert (d, u, v) == ([[2]], [[1]], [[1]])


def _doubled_identity(n):
    return [[2 if i == j else 0 for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("m, message", [
    # transforms started at 2I instead of I give U M V = 4 D
    ([[2, 4], [6, 8]], "U M V != D"),
    # U M V = D = 0 holds for any transforms, but these have determinant 4
    ([[0, 0], [0, 0]], "not unimodular"),
])
def test_snf_checks_its_transforms(monkeypatch, m, message):
    monkeypatch.setattr(lattice, "_identity", _doubled_identity)
    with pytest.raises(ArithmeticError, match=message):
        smith_normal_form(m)


def _rational_rank(m):
    # independent row-reduction oracle over Q
    work = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c] != 0:
                f = work[i][c] / work[rank][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def diagonal_of(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def test_snf_swap_involution_coinvariants():
    # 1 - theta for the swap involution on Z^2
    m = [[1, -1], [-1, 1]]
    d, u, v = smith_normal_form(m)
    assert diagonal_of(d) == [1, 0]
    assert _rational_rank(m) == 1  # row-reduction oracle agrees: one zero factor


@given(st.lists(st.integers(-9, 9), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_snf_properties(entries):
    m = [entries[0:3], entries[3:6]]
    d, u, v = smith_normal_form(m)
    diag = diagonal_of(d)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    assert all(x >= 0 for x in diag)


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 4 x 4, square or not, some with a zero row
    and some with a row that is a multiple of another (singular)."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m = [draw(st.lists(st.integers(-12, 12), min_size=cols, max_size=cols))
         for _ in range(rows)]
    shape = draw(st.sampled_from(["generic", "zero row", "dependent row"]))
    if shape == "zero row":
        m[draw(st.integers(0, rows - 1))] = [0] * cols
    elif shape == "dependent row" and rows > 1:
        m[-1] = [draw(st.integers(-3, 3)) * x for x in m[0]]
    return m


@given(integer_matrices())
@example([[0, 0], [0, 0], [0, 0]])
@example([[2, 4], [6, 8], [0, 0]])
@example([[6, 4, 0], [3, 2, 0]])
@settings(max_examples=120, deadline=None)
def test_snf_against_sympy(m):
    from sympy import Matrix
    from sympy.polys.domains import ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    d, u, v = smith_normal_form(m)
    assert Matrix(u) * Matrix(m) * Matrix(v) == Matrix(d)
    assert Matrix(u).det() in (1, -1) and Matrix(v).det() in (1, -1)
    diag = diagonal_of(d)
    assert d == [[diag[i] if i == j else 0 for j in range(len(m[0]))]
                 for i in range(len(m))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b == 0 if a == 0 else b % a == 0
    expected = sympy_snf(Matrix(m), domain=ZZ)
    assert diag == [abs(expected[i, i]) for i in range(len(diag))]


def test_cokernel_structure_of_doubling():
    # Z / 2Z: one torsion factor 2, no free part
    d, _, _ = smith_normal_form([[2]])
    assert diagonal_of(d) == [2]
    # Z^2 / im(1 - swap) = Z: one unit factor and one free rank
    d, _, _ = smith_normal_form([[1, -1], [-1, 1]])
    assert diagonal_of(d) == [1, 0]


# -- polynomial helpers ----------------------------------------------------


def test_poly_gcd_and_squarefree():
    # (x-1)^2 (x-2) has squarefree part (x-1)(x-2)
    p = [GaussRat(1), GaussRat(-4), GaussRat(5), GaussRat(-2)]
    sf = poly_squarefree_part(p)
    assert sf == [GaussRat(1), GaussRat(-3), GaussRat(2)]
    g = poly_gcd(p, sf)
    assert g == sf


def test_gaussian_roots_and_splitting():
    # x^2 + 1 = (x-i)(x+i)
    roots = gaussian_roots([GaussRat(1), GaussRat(0), GaussRat(1)])
    assert set(roots) == {I, -I}
    with pytest.raises(SplittingFieldTooLarge):
        gaussian_roots([GaussRat(1), GaussRat(0), GaussRat(-2)])


def _times_linear(p, roots):
    """p * prod (x - r), coefficients in descending degree."""
    for r in roots:
        p = [a - r * b for a, b in zip(p + [ZERO], [ZERO] + p)]
    return p


gauss_rationals = st.builds(GaussRat, rationals, rationals)
root_multisets = st.tuples(
    st.lists(st.tuples(gauss_rationals, st.integers(1, 3)), min_size=1, max_size=4),
    st.integers(0, 3),
).map(lambda t: [ZERO] * t[1] + [r for r, m in t[0] for _ in range(m)])


def test_gaussian_roots_certifies_without_factoring():
    roots = [GaussRat(1), GaussRat(1), I, GaussRat(Fraction(-1, 2), 3), ZERO]
    want = sorted(roots, key=GaussRat.sort_key)
    assert _certified_roots(_times_linear([GaussRat(1)], roots)) == want


@given(st.lists(st.builds(GaussRat, st.integers(-50, 50), st.integers(-50, 50)),
                min_size=1, max_size=8, unique=True))
@settings(max_examples=60, deadline=None)
def test_certified_roots_find_distinct_gaussian_integers(roots):
    want = sorted(roots, key=GaussRat.sort_key)
    assert _certified_roots(_times_linear([GaussRat(1)], roots)) == want


@given(root_multisets)
@settings(max_examples=60, deadline=None)
def test_gaussian_roots_recovers_multisets(roots):
    p = _times_linear([GaussRat(1)], roots)
    want = sorted(roots, key=GaussRat.sort_key)
    assert _certified_roots(p) in (None, want)
    assert gaussian_roots(p) == want


@given(st.lists(gauss_rationals, max_size=3), gauss_rationals, gauss_rationals)
@settings(max_examples=25, deadline=None)
def test_gaussian_roots_refuses_irreducible_quadratic(roots, b, c):
    assume(gauss_sqrt(b * b - 4 * c) is None)
    p = _times_linear([GaussRat(1), b, c], roots)
    assert _certified_roots(p) is None
    with pytest.raises(SplittingFieldTooLarge):
        gaussian_roots(p)


@given(root_multisets.filter(lambda roots: len(roots) <= 6))
@settings(max_examples=20, deadline=None)
def test_gaussian_roots_same_answer_when_factoring(roots):
    want = sorted(roots, key=GaussRat.sort_key)
    assert _factored_roots(_times_linear([GaussRat(1)], roots)) == want
    # a root beyond float range makes the certified path fall through
    roots = roots + [GaussRat(10 ** 400, -1)]
    p = _times_linear([GaussRat(1)], roots)
    assert _certified_roots(p) is None
    assert gaussian_roots(p) == sorted(roots, key=GaussRat.sort_key)


# -- Jordan decomposition ---------------------------------------------------


def test_jordan_nilpotent_is_zero():
    assert jordan_semisimple_part(mat([[0, 1], [0, 0]])) == ExactMatrix.zero(2, 2)


def test_jordan_semisimple_fixed():
    m = mat([[1, 0], [0, 2]])
    assert jordan_semisimple_part(m) == m


def test_jordan_unipotent():
    m = mat([[1, 1], [0, 1]])
    assert jordan_semisimple_part(m) == ExactMatrix.identity(2)


def test_jordan_properties_on_conjugated_blocks():
    # conjugate of a 3x3 with eigenvalues 2, 2, i and one Jordan block
    block = mat([[2, 1, 0], [0, 2, 0], [0, 0, 0]]) + ExactMatrix.diagonal([0, 0, I])
    p = mat([[1, 2, 3], [0, 1, 4], [0, 0, 1]])
    m = p @ block @ p.inverse()
    ss, nil = jordan_decomposition(m)
    assert ss.commutator(m).is_zero()
    assert nil.is_nilpotent()
    assert (ss + nil) == m
    assert is_semisimple(ss)
    assert not is_semisimple(m)


@st.composite
def constructed_jordan_decompositions(draw):
    """(m, P D P^-1, P N P^-1) with m = P (D + N) P^-1: D a Gaussian-integer
    diagonal whose equal eigenvalues are adjacent, N strictly upper
    triangular inside D's blocks of equal eigenvalues (so [D, N] = 0), and
    P a unimodular integer matrix, at most 5 x 5."""
    eigenvalues = draw(st.lists(st.builds(GaussRat, st.integers(-3, 3), st.integers(-2, 2)),
                                min_size=1, max_size=3, unique=True))
    sizes = draw(st.lists(st.integers(1, 3), min_size=len(eigenvalues),
                          max_size=len(eigenvalues)).filter(lambda s: sum(s) <= 5))
    block = [k for k, s in enumerate(sizes) for _ in range(s)]
    n = len(block)
    d = ExactMatrix.diagonal([eigenvalues[k] for k in block])
    upper = draw(st.lists(st.sampled_from([ZERO, ZERO, ONE, GaussRat(-2), I, GaussRat(1, -1)]),
                          min_size=n * n, max_size=n * n))
    nil = ExactMatrix(n, n, [upper[i * n + j] if j > i and block[i] == block[j] else ZERO
                             for i in range(n) for j in range(n)])
    low = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    high = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    p = (ExactMatrix(n, n, [1 if i == j else low[i * n + j] if j < i else 0
                            for i in range(n) for j in range(n)])
         @ ExactMatrix(n, n, [1 if i == j else high[i * n + j] if j > i else 0
                              for i in range(n) for j in range(n)]))
    p_inv = p.inverse()
    return p @ (d + nil) @ p_inv, p @ d @ p_inv, p @ nil @ p_inv


@given(constructed_jordan_decompositions())
@settings(max_examples=30, deadline=None)
def test_jordan_decomposition_recovers_a_constructed_answer(case):
    m, ss, nil = case
    assert jordan_decomposition(m) == (ss, nil)


def test_jordan_refuses_non_gaussian_spectrum():
    with pytest.raises(SplittingFieldTooLarge):
        jordan_semisimple_part(mat([[0, 2], [1, 0]]))  # eigenvalues +-sqrt(2)


def test_exp_nilpotent_exact():
    n = mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    e = n.exp_nilpotent()
    assert e == mat([[1, 1, Fraction(1, 2)], [0, 1, 1], [0, 0, 1]])
    for not_nilpotent in (mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
                          mat([[0, 1], [0, 1]]), mat([[0, 1, 0], [0, 0, 1]])):
        with pytest.raises(ValueError):
            not_nilpotent.exp_nilpotent()
