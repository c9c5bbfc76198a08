"""Elements of g1, the categorical quotient, and Kostant-Weierstrass slices.

The quotient map chi1 is realized by concrete invariant polynomials per
family (characteristic-polynomial coefficients; coefficients of the block
product for glgl), the slice by a normal sl2-triple through the canonical
regular nilpotent of the first regular Borel class, and the slice inverse
by a sequential one-variable solve down the weight grading, verified
exactly at the end.  `kw_audit` runs that solve modulo a prime, reads the
coefficients back in Q(i) and verifies them by one exact chi1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .gaussian import GaussRat, ONE, ZERO, SplittingFieldTooLarge, gauss_sqrt
from .jordan import eigenspaces, jordan_semisimple_part
from .liealg import Vector, _combine, gvec, vec_is_zero, weight_decomposition
from .matrix import (
    PRIME,
    ExactMatrix,
    coordinates_in_basis,
    from_residue,
    intersect_spans,
    modular_char_poly,
    residue,
)
from .involutions import detect_regular_borels, theta_eigen_basis
from .pairs import CatalogError, SymmetricPairRealization, per_pair


class NotRegular(Exception):
    pass


class NotInG1(Exception):
    pass


class TripleNotFound(Exception):
    pass


class ConjugationOutsideField(SplittingFieldTooLarge):
    """The semisimple part cannot be moved into the pinned Cartan subspace
    by an exact Q(i) conjugation."""


@dataclass
class ElementOfG1:
    pair: SymmetricPairRealization
    coords: Vector
    _ss: Optional[Vector] = field(default=None, repr=False)
    _nil: Optional[Vector] = field(default=None, repr=False)

    @staticmethod
    def from_matrix(pair: SymmetricPairRealization, m: ExactMatrix) -> "ElementOfG1":
        coords = pair.frame.maybe_coords(m)
        if coords is None or not pair.in_g1(coords):
            raise NotInG1("matrix does not lie in g1")
        return ElementOfG1(pair, coords)

    @staticmethod
    def from_coords(pair: SymmetricPairRealization, coords: Sequence) -> "ElementOfG1":
        coords = gvec(coords)
        if not pair.in_g1(coords):
            raise NotInG1("coordinates do not lie in g1")
        return ElementOfG1(pair, coords)

    @property
    def matrix(self) -> ExactMatrix:
        return self.pair.from_coords(self.coords)

    def jordan_parts(self) -> Tuple[Vector, Vector]:
        """Coordinates of (ss, nil); raises CatalogError unless both lie in g1."""
        if self._ss is None:
            m = self.matrix
            ss_m = jordan_semisimple_part(m)
            ss = self.pair.to_coords(ss_m)
            nil = [a - b for a, b in zip(self.coords, ss)]
            if not self.pair.in_g1(ss):
                raise CatalogError("semisimple part left g1")
            if not self.pair.in_g1(nil):
                raise CatalogError("nilpotent part left g1")
            self._ss, self._nil = ss, nil
        return self._ss, self._nil


# -- regularity and the quotient map -----------------------------------------


def is_regular(pair: SymmetricPairRealization, x) -> bool:
    """dim ker(ad x on g) == rank(g), certified by the rank of ad x mod a
    prime and decided by the exact kernel when that fails
    (`SymmetricPairRealization.is_regular`)."""
    coords = x.coords if isinstance(x, ElementOfG1) else gvec(x)
    return pair.is_regular(coords)


def chi1(pair: SymmetricPairRealization, x) -> Tuple[GaussRat, ...]:
    """The categorical quotient g1 -> a/W_a through concrete invariants.

    splitA: non-leading char-poly coefficients of x (the vanishing trace
    coefficient dropped); glgl: non-leading coefficients of the block
    product; diag: char-poly coefficients of the g0 component.  Length is
    always the rank r1.
    """
    coords = x.coords if isinstance(x, ElementOfG1) else gvec(x)
    m = pair.from_coords(coords)
    family = pair.spec.family
    if family == "splitA":
        return _traceless_invariants(m)
    if family == "glgl":
        n = pair.spec.n
        return tuple((m.block(0, n, n, n) @ m.block(n, 0, n, n)).char_poly()[1:])
    if family == "diag":
        k = m.rows // 2
        return _traceless_invariants(m.block(0, 0, k, k))
    raise CatalogError(f"{pair.pair_id}: chi1 needs a matrix realization")


def _traceless_invariants(m: ExactMatrix) -> Tuple[GaussRat, ...]:
    """The char-poly coefficients of a traceless matrix past the vanishing
    trace coefficient."""
    poly = m.char_poly()
    if not poly[1].is_zero():
        raise CatalogError("chi1: the matrix is not traceless")
    return tuple(poly[2:])


def _check_traceless(pair: SymmetricPairRealization, vectors: Sequence[Vector]):
    """chi1's traceless guard on every point of span(vectors) at once: the
    trace is linear, so it vanishes on the span when it vanishes on each
    vector."""
    family = pair.spec.family
    if family == "glgl":
        return
    for v in vectors:
        m = pair.from_coords(v)
        if family == "diag":
            m = m.block(0, 0, m.rows // 2, m.rows // 2)
        if not m.trace().is_zero():
            raise CatalogError("chi1: the matrix is not traceless")


def _invariant_residues(pair: SymmetricPairRealization,
                        rows: List[List[int]]) -> Tuple[int, ...]:
    """chi1 reduced mod PRIME, from the rows of x's matrix reduced mod PRIME:
    the same invariants as `chi1`, from `modular_char_poly`."""
    family = pair.spec.family
    if family == "splitA":
        return tuple(modular_char_poly(rows)[2:])
    if family == "glgl":
        n = pair.spec.n
        bottom = [row[:n] for row in rows[n:]]
        block = [[sum(a * b for a, b in zip(row[n:], col)) % PRIME for col in zip(*bottom)]
                 for row in rows[:n]]
        return tuple(modular_char_poly(block)[1:])
    if family == "diag":
        k = len(rows) // 2
        return tuple(modular_char_poly([row[:k] for row in rows[:k]])[2:])
    raise CatalogError(f"{pair.pair_id}: chi1 needs a matrix realization")


# -- Kostant-Weierstrass section ----------------------------------------------


@dataclass
class KWSection:
    pair: SymmetricPairRealization
    e: Vector
    h: Vector
    f: Vector
    v_basis: List[Vector]          # ordered by descending ad(h) weight

    def slice_point(self, coeffs: Sequence) -> Vector:
        return [a + b for a, b in zip(self.e, _combine(self.v_basis, gvec(coeffs)))]


def normal_triple_through(pair: SymmetricPairRealization, e: Vector,
                          h_space: Sequence[Vector], f_space: Sequence[Vector]):
    """Complete a nilpotent e to a triple (e, h, f) with h in span(h_space)
    and f in span(f_space); raises TripleNotFound when inconsistent."""
    # solve [h, e] = 2e with h in the given space
    cols = [pair.bracket(hv, e) for hv in h_space]
    target = [GaussRat(2) * c for c in e]
    sol = ExactMatrix.from_columns(cols).solve(target)
    if sol is None:
        raise TripleNotFound("no h with [h,e] = 2e in the allowed space")
    h = _combine(h_space, sol)
    # solve [h, f] = -2f and [e, f] = h with f in span(f_space)
    ad_h = pair.ad(h)
    ad_e = pair.ad(e)
    fcols = [gvec(v) for v in f_space]
    mat = ExactMatrix.from_columns(
        [[a + GaussRat(2) * x for a, x in zip(ad_h.apply(v), v)] + ad_e.apply(v)
         for v in fcols])
    target = [ZERO] * pair.dim_g + list(h)
    sol = mat.solve(target)
    if sol is None:
        raise TripleNotFound("triple equations for f are inconsistent")
    f = _combine(fcols, sol)
    # exact triple relations
    if (pair.bracket(h, e) != [GaussRat(2) * c for c in e]
            or pair.bracket(h, f) != [GaussRat(-2) * c for c in f]
            or pair.bracket(e, f) != h):
        raise CatalogError("the solved (e, h, f) is not an sl2-triple")
    return h, f


def build_kw_section(pair: SymmetricPairRealization, seed: int = 0) -> KWSection:
    """Slice e + v for the canonical regular nilpotent of the first regular
    Borel class: h solved inside the fundamental t0, f from the triple
    equations inside g1, v = z_{g1}(f).  The section is computed once per
    pair; `seed` does not affect it."""
    return _kw_section(pair)


@per_pair
def _kw_section(pair: SymmetricPairRealization) -> KWSection:
    pair.require_matrix_level()
    reg = next(c for c in detect_regular_borels(pair) if c.regular)
    e = reg.witness_coords  # regular, by the semantic test

    # h must come from im(ad e) (Jacobson-Morozov), which kills any central
    # ambiguity in t0
    t0 = theta_eigen_basis(pair, pair.fund_roots.torus)
    ad_e = pair.ad(e)
    image = [ad_e.column(j) for j in range(pair.dim_g)]
    h_space = intersect_spans(t0, image)
    h, f = normal_triple_through(pair, e, h_space, pair.g1_basis_coords())
    if not pair.in_g0(h):
        raise TripleNotFound("h escaped g0")
    if not (pair.in_g1(e) and pair.in_g1(f)):
        raise TripleNotFound("triple is not normal")

    v_space = pair.frame.centralizer([f], ambient=pair.g1_basis_coords())
    if len(v_space) != pair.rank_r1:
        raise TripleNotFound(
            f"z_(g1)(f) has dimension {len(v_space)}, expected r1 = {pair.rank_r1}")
    # diagonalize ad(h) on v; weights are the (negated, doubled) exponents
    decomposition = weight_decomposition(pair.frame, [h], ambient=v_space)
    graded: List[Tuple[GaussRat, Vector]] = []
    for wt, space in decomposition:
        for vec in space:
            graded.append((wt[0], vec))
    graded.sort(key=lambda p: p[0].sort_key(), reverse=True)
    return KWSection(pair, e, h, f, [vec for _, vec in graded])


def kw_solve(section: KWSection, target: Sequence) -> Vector:
    """The unique slice coefficients with chi1(e + sum c_i v_i) = target.

    Solves one coordinate at a time down the weight grading; each step is
    linear in the next unknown because the invariants are triangular with
    respect to the slice grading.  The solution is verified exactly.
    """
    pair = section.pair
    target = gvec(target)
    r = pair.rank_r1
    if len(target) != r:
        raise ValueError(f"quotient points have length {r}")
    coeffs: List[GaussRat] = [ZERO] * r
    for j in range(r):
        base = list(coeffs)
        base[j] = ZERO
        v0 = chi1(pair, section.slice_point(base))[j]
        base[j] = ONE
        v1 = chi1(pair, section.slice_point(base))[j]
        slope = v1 - v0
        if slope.is_zero():
            raise TripleNotFound("slice solve: invariant not linear in its coordinate")
        coeffs[j] = (target[j] - v0) / slope
    if chi1(pair, section.slice_point(coeffs)) != tuple(target):
        raise TripleNotFound("slice solve verification failed")
    return coeffs


def _section_residues(section: KWSection) -> Optional[List[List[int]]]:
    """The coordinate residues of e and of each v_i, or None when one is
    missing."""
    base = [[residue(c) for c in v] for v in [section.e] + section.v_basis]
    return None if any(None in v for v in base) else base


def _point_residues(base: List[List[int]], cs: Sequence[int]) -> List[int]:
    """The coordinate residues of e + sum c_i v_i, from the section's residues
    and cs = (1, c_1, ..., c_r) mod PRIME."""
    return [sum(c * x for c, x in zip(cs, column)) % PRIME for column in zip(*base)]


def _solve_mod_p(section: KWSection, base: Optional[List[List[int]]],
                 target: Sequence[GaussRat]) -> Optional[Vector]:
    """kw_solve's triangular solve on residues, read back by `from_residue`:
    per coordinate, the chi1 residues at c_j = 0 and c_j = 1 give the slope,
    then c_j = (t_j - v0) / slope mod PRIME.  None when a residue is missing,
    a slope residue is 0 or a coefficient has no small preimage."""
    pair = section.pair
    ts = [residue(t) for t in target]
    if base is None or None in ts:
        return None
    cs = [1] + [0] * len(ts)
    for j, t in enumerate(ts):
        values = []
        for c in (0, 1):
            cs[j + 1] = c
            rows = pair.frame.matrix_from_residues(_point_residues(base, cs))
            if rows is None:
                return None
            values.append(_invariant_residues(pair, rows)[j])
        slope = (values[1] - values[0]) % PRIME
        if not slope:
            return None
        cs[j + 1] = (t - values[0]) * pow(slope, -1, PRIME) % PRIME
    coeffs = [from_residue(c) for c in cs[1:]]
    return None if None in coeffs else coeffs


def _certified_solve(section: KWSection, base: Optional[List[List[int]]],
                     target: Sequence[GaussRat]) -> Vector:
    """`kw_solve(section, target)`, certified by one exact chi1.

    Reduction mod PRIME is a ring map, so when every slope residue is
    nonzero `_solve_mod_p` computes the residues of kw_solve's coefficients,
    and `from_residue` reads small ones back exactly.  They are accepted
    only when chi1 of their slice point is the target exactly; otherwise,
    and when `_solve_mod_p` gives nothing, `kw_solve` decides.
    """
    coeffs = _solve_mod_p(section, base, target)
    if coeffs is None or chi1(section.pair, section.slice_point(coeffs)) != tuple(target):
        return kw_solve(section, target)
    return coeffs


def kw_audit(pair: SymmetricPairRealization, seed: int = 0,
             n_samples: int = 50, n_round_trips: int = 20) -> dict:
    """The slice properties: samples regular, chi1 injective on them, and
    quotient targets round-tripping through the slice solve.

    The samples are certified modulo PRIME.  Each sample's coordinate
    residues are e + sum c_i v_i mod PRIME; a rank of dim g - rank g for ad x
    mod PRIME proves it regular, and chi1 values whose residues differ are
    different.  Three fallbacks decide exactly: the exact `is_regular` when
    the rank certificate fails or a residue is missing, the exact `chi1` of
    both samples when their residues collide, and the residues of the exact
    `chi1` as the key of a sample with a missing residue.  chi1's traceless guard is
    checked once, exactly, on e and on each v_i: the trace is linear.

    The round trips and kappa(0) are solved modulo PRIME, read back in Q(i)
    and proved by one exact chi1 each (`_certified_solve`); `kw_solve`
    decides a solve with a missing residue, a zero slope residue, a
    coefficient too large to read back or a failed exact check.
    """
    section = build_kw_section(pair)
    _check_traceless(pair, [section.e] + section.v_basis)
    frame = pair.frame
    base = _section_residues(section)
    rng = random.Random(0x5EED + seed)
    seen: Dict[tuple, List[tuple]] = {}
    sampled = set()
    regular_count = 0
    while len(sampled) < n_samples:
        coeffs = tuple(GaussRat(rng.randint(-40, 40), rng.randint(-3, 3))
                       for _ in range(pair.rank_r1))
        if coeffs in sampled:
            continue
        sampled.add(coeffs)
        cs = [1] + [residue(c) for c in coeffs]
        xs = None if base is None or None in cs else _point_residues(base, cs)
        if ((xs is None or frame.ad_rank_from_residues(xs) != pair.dim_g - pair.rank_g)
                and not is_regular(pair, section.slice_point(coeffs))):
            raise CatalogError("slice sample is not regular")
        regular_count += 1
        rows = None if xs is None else frame.matrix_from_residues(xs)
        key = (_invariant_residues(pair, rows) if rows is not None else
               tuple(map(residue, chi1(pair, section.slice_point(coeffs)))))
        bucket = seen.setdefault(key, [])
        if bucket:
            value = chi1(pair, section.slice_point(coeffs))
            if any(chi1(pair, section.slice_point(other)) == value for other in bucket):
                raise CatalogError("chi1 is not injective on the slice")
        bucket.append(coeffs)
    round_trips = 0
    for _ in range(n_round_trips):
        target = tuple(GaussRat(rng.randint(-9, 9), rng.randint(-2, 2))
                       for _ in range(pair.rank_r1))
        try:
            _certified_solve(section, base, target)  # chi1 of its answer checked exactly
        except TripleNotFound:
            continue
        round_trips += 1
    # the section at 0: kappa(0) = e, a nonzero regular nilpotent
    zero_coeffs = _certified_solve(section, base, [ZERO] * pair.rank_r1)
    kappa0 = section.slice_point(zero_coeffs)
    return {
        "samples_regular": regular_count,
        "chi1_injective_on": sum(map(len, seen.values())),
        "round_trips": round_trips,
        "kappa_at_zero_is_e": (kappa0 == section.e
                               and pair.from_coords(kappa0).is_nilpotent()
                               and is_regular(pair, kappa0)),
        "kappa_at_zero_nonzero": not vec_is_zero(kappa0),
    }


# -- moving semisimple parts into the pinned Cartan subspace -------------------


def conjugate_ss_into_a(pair: SymmetricPairRealization, ss: Vector):
    """An Ad(g) (as a coordinate matrix, g in G0) with Ad(g) ss in a.

    Raises ConjugationOutsideField when eigenvalues or the needed square
    roots or normalizations do not exist in Q(i).
    """
    if coordinates_in_basis(pair.a_basis, ss) is not None:
        return ExactMatrix.identity(pair.dim_g)
    family = pair.spec.family
    m = pair.from_coords(ss)
    try:
        if family == "splitA":
            g = _orthogonal_diagonalizer(m)
        elif family == "glgl":
            g = _glgl_diagonalizer(pair, m)
        elif family == "diag":
            g = _diag_diagonalizer(pair, m)
        else:
            raise CatalogError(f"{pair.pair_id}: no conjugation solver")
    except ConjugationOutsideField:
        raise
    except SplittingFieldTooLarge as exc:
        raise ConjugationOutsideField(str(exc)) from exc
    ad = pair.frame.adjoint(g, g.inverse())
    ad_g = ExactMatrix.from_columns([ad(u) for u in ExactMatrix.identity(pair.dim_g).row_lists()])
    image = ad_g.apply(ss)
    if coordinates_in_basis(pair.a_basis, image) is None:
        raise ConjugationOutsideField("conjugation missed the Cartan subspace")
    # theta-fixed: Ad(g) has no g0 <-> g1 blocks
    if pair.theta_conjugate(ad_g) != ad_g:
        raise CatalogError("conjugator is not theta-fixed")
    return ad_g


def _orthogonal_diagonalizer(m: ExactMatrix) -> ExactMatrix:
    """Q in SO(N, Q(i)) with Q m Q^{-1} diagonal, for symmetric m."""
    n = m.rows
    columns: List[List[GaussRat]] = []
    for lam, vecs in eigenspaces(m):
        ortho: List[List[GaussRat]] = []
        for v in vecs:
            v = _project_out(v, ortho)
            norm2 = _dot(v, v)
            if norm2.is_zero():
                # isotropic representative; mix with later vectors
                v = _fix_isotropic(v, vecs, ortho)
                norm2 = _dot(v, v)
            root = gauss_sqrt(norm2)
            if root is None:
                raise ConjugationOutsideField(
                    f"eigenvector normalization needs sqrt({norm2}) outside Q(i)")
            ortho.append([a / root for a in v])
        columns.extend(ortho)
    q = ExactMatrix.from_columns(columns)
    if q.transpose() @ q != ExactMatrix.identity(n):
        raise ConjugationOutsideField("could not orthonormalize the eigenbasis")
    if q.det() != ONE:
        columns[0] = [-a for a in columns[0]]
        q = ExactMatrix.from_columns(columns)
    return q.transpose()  # g = Q^T = Q^{-1}: g m g^{-1} diagonal


def _fix_isotropic(v, vecs, ortho):
    for other in vecs:
        for c in (ONE, GaussRat(0, 1), GaussRat(2), GaussRat(1, 1)):
            cand = _project_out([a + c * b for a, b in zip(v, other)], ortho)
            if not _dot(cand, cand).is_zero():
                return cand
    raise ConjugationOutsideField("isotropic eigenspace over Q(i)")


def _project_out(v, ortho):
    """v minus its projections onto the mutually orthogonal, anisotropic
    vectors of ortho (one Gram-Schmidt step)."""
    for prev in ortho:
        num = _dot(v, prev)
        den = _dot(prev, prev)
        v = [a - (num / den) * b for a, b in zip(v, prev)]
    return v


def _dot(a, b) -> GaussRat:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def _glgl_diagonalizer(pair, m: ExactMatrix) -> ExactMatrix:
    n = pair.spec.n
    top = m.block(0, n, n, n)
    prod = top @ m.block(n, 0, n, n)  # Y X
    lam_list = []
    q_cols = []
    for lam, vecs in eigenspaces(prod):
        for v in vecs:
            lam_list.append(lam)
            q_cols.append(v)
    if len(q_cols) != n:
        raise ConjugationOutsideField("block product is not diagonalizable over Q(i)")
    q = ExactMatrix.from_columns(q_cols)
    g1 = q.inverse()  # g1 (YX) g1^{-1} diagonal
    d_vals = []
    for lam in lam_list:
        d = gauss_sqrt(lam)
        if d is None or d.is_zero():
            raise ConjugationOutsideField(
                f"needs a nonzero square root of {lam} in Q(i)")
        d_vals.append(d)
    dmat = ExactMatrix.diagonal(d_vals)
    try:
        g2 = dmat.inverse() @ g1 @ top
        g2_inv = g2.inverse()
    except ZeroDivisionError as exc:
        raise ConjugationOutsideField("degenerate block; no exact conjugator") from exc
    return ExactMatrix.block_diagonal(g1, g2)


def _diag_diagonalizer(pair, m: ExactMatrix) -> ExactMatrix:
    k = m.rows // 2
    cols = [v for _, vecs in eigenspaces(m.block(0, 0, k, k)) for v in vecs]
    if len(cols) != k:
        raise ConjugationOutsideField("g0 component not diagonalizable over Q(i)")
    p_inv = ExactMatrix.from_columns(cols).inverse()
    return ExactMatrix.block_diagonal(p_inv, p_inv)
