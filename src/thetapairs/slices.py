"""Elements of g1, the categorical quotient, and Kostant-Weierstrass slices.

The quotient map chi1 is realized by concrete invariant polynomials per
family (characteristic-polynomial coefficients; coefficients of the block
product for glgl), the slice by a normal sl2-triple through the canonical
regular nilpotent of the first regular Borel class, and the slice inverse
by a sequential one-variable solve down the weight grading, verified
exactly at the end.  `kw_audit` runs that solve modulo a prime, reads the
coefficients back in Q(i) and verifies them by one exact chi1, evaluated on
Gaussian integers from the section's scaled matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import matmul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .gaussian import GaussRat, ONE, ZERO, SplittingFieldTooLarge
from .jordan import jordan_semisimple_part
from .liealg import Vector, _combine, gvec, vec_is_zero, weight_decomposition
from .matrix import (
    PRIME,
    ExactMatrix,
    _gauss_dot,
    coordinates_in_basis,
    from_residue,
    gaussian_char_poly,
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
    """The semisimple part does not lie in the pinned Cartan subspace a,
    where the fibers are computed."""


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


def _quotient_blocks(pair: SymmetricPairRealization):
    """chi1's family table: the square blocks (row, column, size) of x's
    matrix whose product it reads, x itself (splitA), its g0 block (diag) or
    Y X (glgl), and how many leading char-poly coefficients it drops: the 1,
    and the trace where it vanishes on every basis matrix's block."""
    n = pair.frame.n_def
    if pair.spec.family == "glgl":
        return ((0, n // 2, n // 2), (n // 2, 0, n // 2)), 1
    return ((0, 0, n // 2 if pair.spec.family == "diag" else n),), 2


def chi1(pair: SymmetricPairRealization, x) -> Tuple[GaussRat, ...]:
    """The categorical quotient g1 -> a/W_a through concrete invariants:
    char-poly coefficients of the product of x's `_quotient_blocks`."""
    coords = x.coords if isinstance(x, ElementOfG1) else gvec(x)
    m = pair.from_coords(coords)
    blocks, skip = _quotient_blocks(pair)
    product = reduce(matmul, (m if size == m.rows else m.block(r, c, size, size)
                              for r, c, size in blocks))
    return tuple(product.char_poly()[skip:])


def _invariant_residues(pair: SymmetricPairRealization,
                        rows: List[List[int]]) -> Tuple[int, ...]:
    """chi1 reduced mod PRIME, from the rows of x's matrix reduced mod PRIME:
    the same `_quotient_blocks`, through `modular_char_poly`."""
    blocks, skip = _quotient_blocks(pair)
    product = None
    for r, c, size in blocks:
        block = [row[c:c + size] for row in rows[r:r + size]]
        product = block if product is None else [
            [sum(a * b for a, b in zip(row, col)) % PRIME for col in zip(*block)]
            for row in product]
    return tuple(modular_char_poly(product)[skip:])


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


def _triangular_solve(invariant: Callable, target: Sequence, divide: Callable):
    """The slice solve down the weight grading, over Q(i) or F_PRIME: the
    invariants are triangular in the slice coordinates, so with c_1..c_{j-1}
    fixed, invariant j takes v0 and v1 at c_j = 0 and 1 and c_j =
    divide(t_j - v0, v1 - v0).  None when `divide` gives None (zero slope)."""
    zero, one = (ZERO, ONE) if isinstance(target[0], GaussRat) else (0, 1)
    coeffs = [zero] * len(target)
    for j, t in enumerate(target):
        v0 = invariant(coeffs)[j]
        coeffs[j] = one
        v1 = invariant(coeffs)[j]
        coeffs[j] = divide(t - v0, v1 - v0)
        if coeffs[j] is None:
            return None
    return coeffs


def kw_solve(section: KWSection, target: Sequence) -> Vector:
    """The unique slice coefficients with chi1(e + sum c_i v_i) = target:
    `_triangular_solve` over Q(i), verified exactly."""
    pair = section.pair
    target = gvec(target)
    if len(target) != pair.rank_r1:
        raise ValueError(f"quotient points have length {pair.rank_r1}")
    coeffs = _triangular_solve(lambda cs: chi1(pair, section.slice_point(cs)), target,
                               lambda num, slope: None if slope.is_zero() else num / slope)
    if coeffs is None:
        raise TripleNotFound("slice solve: invariant not linear in its coordinate")
    if chi1(pair, section.slice_point(coeffs)) != tuple(target):
        raise TripleNotFound("slice solve verification failed")
    return coeffs


# (D, [D M(e), D M(v_1), ...]): each matrix as its nonzero entries (flat index, a, b)
IntegerTable = Tuple[int, List[List[Tuple[int, int, int]]]]


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
    """kw_solve's `_triangular_solve` on residues, read back by
    `from_residue`.  None when a residue is missing, a slope residue is 0 or
    a coefficient has no small preimage."""
    pair = section.pair
    ts = [residue(t) for t in target]
    if base is None or None in ts or pair.frame.matrix_from_residues(base[0]) is None:
        return None

    def invariant(cs):
        return _invariant_residues(
            pair, pair.frame.matrix_from_residues(_point_residues(base, [1] + cs)))

    cs = _triangular_solve(invariant, ts, lambda num, slope: (
        num * pow(slope, -1, PRIME) % PRIME if slope % PRIME else None))
    coeffs = None if cs is None else [from_residue(c) for c in cs]
    return None if coeffs is None or None in coeffs else coeffs


def _section_integers(section: KWSection) -> IntegerTable:
    """The section's integer table: D, the lcm of the denominators of the
    matrices of e and of each v_i, and D times each of those matrices as the
    list (flat index, a, b) of its nonzero entries a + b i."""
    mats = [section.pair.from_coords(v) for v in [section.e] + section.v_basis]
    d = lcm(*(x.denominator for m in mats for z in m.entries for x in (z.re, z.im)))
    return d, [[(f, int(z.re * d), int(z.im * d)) for f, z in enumerate(m.entries) if z]
               for m in mats]


def _slice_invariants(pair: SymmetricPairRealization,
                      table: IntegerTable,
                      coeffs: Sequence[GaussRat]) -> Tuple[GaussRat, ...]:
    """chi1 of e + sum c_i v_i on Gaussian integers, from the section's
    integer table (D, D M(e), D M(v_1), ...).

    With L the lcm of the denominators of the c_i and s = D L, the matrix
    A = s M(e + sum c_i v_i) is integral, and the m `_quotient_blocks` of A
    multiply to s^m P for P the product chi1 reads.  det(xI - s^m P) has
    coefficient k equal to s^(m k) times that of det(xI - P), and
    `gaussian_char_poly` computes it without a division, so dividing it by
    s^(m k) gives chi1 exactly.
    """
    d, mats = table
    n = pair.frame.n_def
    den = lcm(*(x.denominator for c in coeffs for x in (c.re, c.im)))
    re, im = [0] * (n * n), [0] * (n * n)
    for (p, q), entries in zip([(den, 0)] + [(int(c.re * den), int(c.im * den))
                                             for c in coeffs], mats):
        if p or q:
            for f, a, b in entries:
                re[f] += p * a - q * b
                im[f] += p * b + q * a
    blocks, skip = _quotient_blocks(pair)
    product = None
    for r, c, size in blocks:
        block = [list(zip(re[i * n + c:i * n + c + size], im[i * n + c:i * n + c + size]))
                 for i in range(r, r + size)]
        product = block if product is None else [
            [_gauss_dot(row, col) for col in zip(*block)] for row in product]
    s = (d * den) ** len(blocks)
    return tuple(GaussRat(Fraction(a, s ** k), Fraction(b, s ** k))
                 for k, (a, b) in enumerate(gaussian_char_poly(product)) if k >= skip)


def _certified_solve(section: KWSection, base: Optional[List[List[int]]],
                     table: IntegerTable, target: Sequence[GaussRat]) -> Vector:
    """`kw_solve(section, target)`, certified by one exact chi1.

    Reduction mod PRIME is a ring map, so when every slope residue is
    nonzero `_solve_mod_p` computes the residues of kw_solve's coefficients,
    and `from_residue` reads small ones back exactly.  They are accepted
    only when chi1 of their slice point, evaluated on Gaussian integers from
    the section's integer `table` (`_slice_invariants`), is the target
    exactly; otherwise, and when `_solve_mod_p` gives nothing, `kw_solve`
    decides.
    """
    coeffs = _solve_mod_p(section, base, target)
    if coeffs is None or _slice_invariants(section.pair, table, coeffs) != tuple(target):
        return kw_solve(section, target)
    return coeffs


def _gaussian_draw(rng: random.Random, count: int, re: int, im: int) -> Tuple[GaussRat, ...]:
    """count Gaussian integers with real parts in [-re, re] and imaginary
    parts in [-im, im]."""
    return tuple(GaussRat(rng.randint(-re, re), rng.randint(-im, im)) for _ in range(count))


def kw_audit(pair: SymmetricPairRealization, seed: int = 0,
             n_samples: int = 50, n_round_trips: int = 20) -> dict:
    """The slice properties: samples regular, chi1 injective on them, and
    quotient targets round-tripping through the slice solve.

    The samples are certified modulo PRIME.  Each sample's coordinate
    residues are e + sum c_i v_i mod PRIME; a rank of dim g - rank g for ad x
    mod PRIME proves it regular, and chi1 values whose residues differ are
    different.  Three fallbacks decide exactly: the exact `is_regular` when
    the rank certificate fails or a residue is missing, the exact chi1 of
    both samples when their residues collide, and the residues of the exact
    chi1 as the key of a sample with a missing residue.

    The round trips and kappa(0) are solved modulo PRIME, read back in Q(i)
    and proved by one exact chi1 each (`_certified_solve`); `kw_solve`
    decides a solve with a missing residue, a zero slope residue, a
    coefficient too large to read back or a failed exact check.  Every exact
    chi1 here is `_slice_invariants` on the section's integer table, built
    once per call: one division-free characteristic polynomial on Gaussian
    integers, where `chi1` builds the point's matrix over Q(i).
    """
    section = build_kw_section(pair)
    frame = pair.frame
    base = _section_residues(section)
    table = _section_integers(section)
    rng = random.Random(0x5EED + seed)
    seen: Dict[tuple, List[tuple]] = {}
    sampled = set()
    regular_count = 0
    while len(sampled) < n_samples:
        coeffs = _gaussian_draw(rng, pair.rank_r1, 40, 3)
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
               tuple(map(residue, _slice_invariants(pair, table, coeffs))))
        bucket = seen.setdefault(key, [])
        if bucket:
            value = _slice_invariants(pair, table, coeffs)
            if any(_slice_invariants(pair, table, other) == value for other in bucket):
                raise CatalogError("chi1 is not injective on the slice")
        bucket.append(coeffs)
    round_trips = 0
    for _ in range(n_round_trips):
        target = _gaussian_draw(rng, pair.rank_r1, 9, 2)
        try:
            _certified_solve(section, base, table, target)  # chi1 of its answer checked exactly
        except TripleNotFound:
            continue
        round_trips += 1
    # the section at 0: kappa(0) = e, a nonzero regular nilpotent
    zero_coeffs = _certified_solve(section, base, table, [ZERO] * pair.rank_r1)
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


# -- the pinned Cartan subspace ----------------------------------------------------


def conjugate_ss_into_a(pair: SymmetricPairRealization, ss: Vector):
    """An Ad(g) (as a coordinate matrix, g in G0) with Ad(g) ss in a: the
    identity, since every element the package builds has its semisimple
    part in a already.

    Raises ConjugationOutsideField when ss does not lie in a.
    """
    if coordinates_in_basis(pair.a_basis, ss) is None:
        raise ConjugationOutsideField("semisimple part is not in the pinned Cartan subspace")
    return ExactMatrix.identity(pair.dim_g)
