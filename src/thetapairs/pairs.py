"""The catalog of quasi-split symmetric pairs.

Matrix-level families (all inside gl(N) over Q(i)):

* splitA:n=k   -- (sl(k+1), so(k+1)) with theta(X) = -X^T; k is the rank.
* glgl:n=k    -- (gl(2k), gl(k) x gl(k)) with theta = Ad(diag(I,-I)).
* diag:sl2/3  -- (g0 + g0, diagonal) with theta the factor swap, realized
                 block-diagonally in gl(2k).

Combinatorial-only entries (root data, no matrices):

* g2split     -- the split involution of G2 (inner; compactness table
                 pinned to the four noncompact / two compact positive roots).
* e6qs        -- the split involution of E6 built on the diagram flip.

Construction validates eagerly, and only what it does not prove; a bad
catalog entry must be impossible to consume.  The structure table
(`LinearAlgebraFrame.structure_table`) is antisymmetric and satisfies Jacobi
by construction.  theta, once it is diag(+1 on g0, -1 on g1) on the adapted
basis, is checked as s_i s_j s_k = 1 wherever c^k_ij is nonzero, and the
quasi-split witness is the pinned regular element h_a lying in a.

That theta is the pair's sign vector: the builders check theta(b) = +b on
the first dim_g0 basis matrices and theta(b) = -b on the rest, at matrix
level, and every later reader of theta reads the two coordinate blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from .gaussian import GaussRat, ONE, ZERO
from .liealg import (
    ConcreteRootData,
    LinearAlgebraFrame,
    Vector,
    _combine,
    build_concrete_root_data,
    gvec,
    vec_is_zero,
)
from .matrix import ExactMatrix, coordinates_in_basis, span_rank
from .rootsystem import RootDatum, build_root_datum, compose, identity_perm


class CatalogError(Exception):
    """A pair spec is invalid or a construction invariant failed."""


@dataclass(frozen=True)
class PairSpec:
    family: str
    n: int = 0
    base: str = ""

    @staticmethod
    def parse(text: str) -> "PairSpec":
        text = text.strip()
        if text == "g2split":
            return PairSpec("g2split")
        if text == "e6qs":
            return PairSpec("e6qs")
        if text.startswith("splitA:n=") or text.startswith("glgl:n="):
            family, _, arg = text.partition(":")
            try:
                n = int(arg.split("=", 1)[1])
            except (IndexError, ValueError) as exc:
                raise CatalogError(f"cannot parse pair spec {text!r}") from exc
            if family == "splitA" and n < 1:
                raise CatalogError("splitA requires n >= 1 (the rank)")
            if family == "glgl" and n < 1:
                raise CatalogError("glgl requires n >= 1")
            return PairSpec(family, n=n)
        if text.startswith("diag:"):
            base = text.split(":", 1)[1]
            if base not in ("sl2", "sl3"):
                raise CatalogError("diag base must be sl2 or sl3")
            return PairSpec("diag", base=base)
        raise CatalogError(f"unknown pair spec {text!r}")

    def render(self) -> str:
        if self.family == "splitA":
            return f"splitA:n={self.n}"
        if self.family == "glgl":
            return f"glgl:n={self.n}"
        if self.family == "diag":
            return f"diag:{self.base}"
        return self.family


@dataclass
class CombinatorialData:
    datum: RootDatum
    theta_perm: bytes
    compactness: Optional[Dict[int, str]]
    w0_input_order: Optional[int] = None


@dataclass
class SymmetricPairRealization:
    pair_id: str
    spec: PairSpec
    rank_r1: int
    rank_g: int
    matrix_level: bool
    # matrix-level data
    frame: Optional[LinearAlgebraFrame] = None
    dim_g0: int = 0
    dim_g1: int = 0
    a_basis: List[Vector] = field(default_factory=list)
    t_split_basis: List[Vector] = field(default_factory=list)
    split_roots: Optional[ConcreteRootData] = None
    fund_roots: Optional[ConcreteRootData] = None
    split_positivity: Optional[Vector] = None  # a-regular element pinning B0
    # combinatorial data
    comb: Optional[CombinatorialData] = None
    # invariants derived from the pair, filled by @per_pair functions
    derived: Dict[str, object] = field(default_factory=dict, compare=False, repr=False)

    # -- element plumbing --------------------------------------------------

    @property
    def dim_g(self) -> int:
        return self.frame.dim if self.frame else 0

    def require_matrix_level(self):
        if not self.matrix_level:
            raise CatalogError(f"{self.pair_id} carries no matrix realization")

    def to_coords(self, m: ExactMatrix) -> Vector:
        self.require_matrix_level()
        return self.frame.to_coords(m)

    def from_coords(self, coords: Sequence) -> ExactMatrix:
        self.require_matrix_level()
        return self.frame.from_coords(coords)

    # -- theta: diag(+1 on the first dim_g0 coordinates, -1 on the rest) --

    def theta_apply(self, coords: Sequence) -> Vector:
        coords = gvec(coords)
        return coords[:self.dim_g0] + [-c for c in coords[self.dim_g0:]]

    def g0_part(self, coords: Sequence) -> Vector:
        return gvec(coords)[:self.dim_g0] + [ZERO] * self.dim_g1

    def g1_part(self, coords: Sequence) -> Vector:
        return [ZERO] * self.dim_g0 + gvec(coords)[self.dim_g0:]

    def in_g1(self, coords: Sequence) -> bool:
        return vec_is_zero(gvec(coords)[:self.dim_g0])

    def in_g0(self, coords: Sequence) -> bool:
        return vec_is_zero(gvec(coords)[self.dim_g0:])

    def g0_rank(self, vectors: Sequence[Sequence]) -> int:
        """dim of the g0 parts of span(vectors): the rank of their g0 block."""
        return span_rank([gvec(v)[:self.dim_g0] for v in vectors])

    def g1_rank(self, vectors: Sequence[Sequence]) -> int:
        """dim of the g1 parts of span(vectors): the rank of their g1 block."""
        return span_rank([gvec(v)[self.dim_g0:] for v in vectors])

    def theta_conjugate(self, m: ExactMatrix) -> ExactMatrix:
        """theta m theta for a coordinate matrix m: entry (i, j) changes sign
        by s_i s_j, that is, on the g0 <-> g1 blocks."""
        d0, n = self.dim_g0, m.cols
        return ExactMatrix(m.rows, n, [-e if (k // n < d0) != (k % n < d0) else e
                                       for k, e in enumerate(m.entries)])

    def g0_basis_coords(self) -> List[Vector]:
        return ExactMatrix.identity(self.dim_g).row_lists()[:self.dim_g0]

    def g1_basis_coords(self) -> List[Vector]:
        return ExactMatrix.identity(self.dim_g).row_lists()[self.dim_g0:]

    def ad(self, coords: Sequence) -> ExactMatrix:
        return self.frame.ad(coords)

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        return self.frame.bracket(x, y)

    def is_regular(self, coords: Sequence) -> bool:
        """dim z_g(x) == rank g.  Every centralizer in the reductive g has
        dimension at least rank g, so a rank of dim g - rank g for ad x mod
        PRIME proves it; otherwise the exact kernel decides."""
        return (self.frame.ad_rank_mod_p(coords) == self.dim_g - self.rank_g
                or len(self.ad(coords).kernel_basis()) == self.rank_g)


T = TypeVar("T")


def per_pair(fn: Callable[[SymmetricPairRealization], T]
             ) -> Callable[[SymmetricPairRealization], T]:
    """Memoize a function of the pair alone on the pair's `derived` dict,
    so each derived invariant is computed once per realized pair."""
    key = fn.__qualname__

    @wraps(fn)
    def memo(pair: SymmetricPairRealization) -> T:
        if key not in pair.derived:
            pair.derived[key] = fn(pair)
        return pair.derived[key]

    return memo


# -- basis builders ----------------------------------------------------------


def _unit(n: int, i: int, j: int) -> ExactMatrix:
    return ExactMatrix(n, n, [ONE if (r, c) == (i, j) else ZERO
                              for r in range(n) for c in range(n)])


def _sl_basis(k: int) -> List[ExactMatrix]:
    """Standard sl(k) basis: off-diagonal units then diagonal differences."""
    basis = [_unit(k, i, j) for i in range(k) for j in range(k) if i != j]
    for i in range(k - 1):
        basis.append(_unit(k, i, i) - _unit(k, i + 1, i + 1))
    return basis


# -- family constructions -----------------------------------------------------


def _build_splitA(n: int) -> SymmetricPairRealization:
    N = n + 1
    g0 = [_unit(N, i, j) - _unit(N, j, i) for i in range(N) for j in range(i + 1, N)]
    g1 = [_unit(N, i, j) + _unit(N, j, i) for i in range(N) for j in range(i + 1, N)]
    g1 += [_unit(N, i, i) - _unit(N, i + 1, i + 1) for i in range(N - 1)]
    basis = g0 + g1
    frame = LinearAlgebraFrame(basis)

    def theta(m: ExactMatrix) -> ExactMatrix:
        return -m.transpose()

    a_basis = [frame.to_coords(_unit(N, i, i) - _unit(N, i + 1, i + 1))
               for i in range(N - 1)]
    mean = Fraction(sum(range(N)), N)
    h_a = frame.to_coords(ExactMatrix.diagonal([Fraction(N - 1 - i) - mean for i in range(N)]))

    # fundamental torus: centralizer of the block-rotation torus of so(N)
    rot = [frame.to_coords(_unit(N, 2 * j, 2 * j + 1) - _unit(N, 2 * j + 1, 2 * j))
           for j in range(N // 2)]
    t_fund = frame.centralizer(rot)
    h_fund = _combine(rot, [GaussRat(2 ** j) for j in range(len(rot))])

    return _assemble_matrix_pair(
        PairSpec("splitA", n=n), frame, len(g0), theta,
        a_basis, h_a, t_fund, h_fund, rank_g=N - 1,
    )


def _build_glgl(n: int) -> SymmetricPairRealization:
    N = 2 * n
    same = [(i, j) for i in range(N) for j in range(N)
            if (i < n) == (j < n)]
    cross = [(i, j) for i in range(N) for j in range(N)
             if (i < n) != (j < n)]
    basis = [_unit(N, i, j) for i, j in same] + [_unit(N, i, j) for i, j in cross]
    frame = LinearAlgebraFrame(basis)
    eps = ExactMatrix.diagonal([1] * n + [-1] * n)

    def theta(m: ExactMatrix) -> ExactMatrix:
        return eps @ m @ eps

    a_basis = [frame.to_coords(_unit(N, j, n + j) + _unit(N, n + j, j))
               for j in range(n)]
    h_a = _combine(a_basis, [GaussRat(j + 1) for j in range(n)])

    t_fund = [frame.to_coords(_unit(N, i, i)) for i in range(N)]
    h_fund = _combine(t_fund, [GaussRat(2 ** i) for i in range(N)])

    return _assemble_matrix_pair(
        PairSpec("glgl", n=n), frame, len(same), theta,
        a_basis, h_a, t_fund, h_fund, rank_g=N,
    )


def _build_diag(base: str) -> SymmetricPairRealization:
    k = 2 if base == "sl2" else 3
    sl = _sl_basis(k)
    g0 = [ExactMatrix.block_diagonal(b, b) for b in sl]
    g1 = [ExactMatrix.block_diagonal(b, -b) for b in sl]
    basis = g0 + g1
    frame = LinearAlgebraFrame(basis)
    N = 2 * k
    swap = ExactMatrix(N, N, [ONE if (i + k) % N == j else ZERO
                              for i in range(N) for j in range(N)])

    def theta(m: ExactMatrix) -> ExactMatrix:
        return swap @ m @ swap

    diag_sl = [_unit(k, i, i) - _unit(k, i + 1, i + 1) for i in range(k - 1)]
    a_basis = [frame.to_coords(ExactMatrix.block_diagonal(h, -h)) for h in diag_sl]
    mean = Fraction(sum(range(k)), k)
    h0 = ExactMatrix.diagonal([Fraction(k - 1 - i) - mean for i in range(k)])
    h_a = frame.to_coords(ExactMatrix.block_diagonal(h0, -h0))

    t_fund = ([frame.to_coords(ExactMatrix.block_diagonal(h, h)) for h in diag_sl]
              + [frame.to_coords(ExactMatrix.block_diagonal(h, -h)) for h in diag_sl])
    h_fund_m = ExactMatrix.block_diagonal(h0, h0.scale(Fraction(1, 2)))
    h_fund = frame.to_coords(h_fund_m)

    return _assemble_matrix_pair(
        PairSpec("diag", base=base), frame, len(g0), theta,
        a_basis, h_a, t_fund, h_fund, rank_g=2 * (k - 1),
    )


def _check_adapted_basis(pair_id: str, frame: LinearAlgebraFrame, dim_g0: int, theta):
    """The defining involution theta (on matrices) is diag(+1 on the first
    dim_g0 basis matrices, -1 on the rest); this makes theta an involution
    and the pair's sign vector trustworthy."""
    for k, b in enumerate(frame.basis):
        if theta(b) != (b if k < dim_g0 else -b):
            raise CatalogError(f"{pair_id}: basis not adapted to theta at index {k}")


def _assemble_matrix_pair(spec, frame, dim_g0, theta,
                          a_basis, h_a, t_fund, h_fund, rank_g):
    _check_adapted_basis(spec.render(), frame, dim_g0, theta)
    split_torus = frame.centralizer(a_basis)
    if len(split_torus) != rank_g:
        raise CatalogError(
            f"{spec.render()}: centralizer of a has dimension {len(split_torus)}, "
            f"expected rank {rank_g} (pair not quasi-split as realized)")
    pair = SymmetricPairRealization(
        pair_id=spec.render(),
        spec=spec,
        rank_r1=len(a_basis),
        rank_g=rank_g,
        matrix_level=True,
        frame=frame,
        dim_g0=dim_g0,
        dim_g1=frame.dim - dim_g0,
        a_basis=[gvec(a) for a in a_basis],
        t_split_basis=split_torus,
        split_positivity=gvec(h_a),
    )
    pair.split_roots = build_concrete_root_data(frame, split_torus, pair.theta_apply, h_a)
    pair.fund_roots = build_concrete_root_data(frame, t_fund, pair.theta_apply, h_fund)
    _validate_matrix_pair(pair)
    return pair


# -- combinatorial entries ----------------------------------------------------


def _build_g2split() -> SymmetricPairRealization:
    datum = build_root_datum("G2")
    theta_perm = identity_perm(len(datum.all_roots))  # inner involution
    noncompact = {(1, 0), (0, 1), (1, 2), (2, 3)}
    compact = {(1, 1), (1, 3)}
    compactness: Dict[int, str] = {}
    for k, r in enumerate(datum.all_roots):
        key = r if sum(r) > 0 else tuple(-x for x in r)
        if key in compact:
            compactness[k] = "compact"
        elif key in noncompact:
            compactness[k] = "noncompact"
        else:
            raise CatalogError("g2split compactness table does not cover the roots")
    comb = CombinatorialData(datum, theta_perm, compactness,
                             w0_input_order=4)  # W0 of type A1xA1
    return SymmetricPairRealization(
        pair_id="g2split", spec=PairSpec("g2split"),
        rank_r1=2, rank_g=2, matrix_level=False, comb=comb)


def _build_e6qs() -> SymmetricPairRealization:
    datum = build_root_datum("E6")
    swap = {0: 5, 5: 0, 2: 4, 4: 2, 1: 1, 3: 3}

    def flip(r):
        out = [0] * 6
        for j in range(6):
            out[swap[j]] = r[j]
        return tuple(out)

    theta_perm = bytes(datum.index(flip(r)) for r in datum.all_roots)
    if compose(theta_perm, theta_perm) != identity_perm(72):
        raise CatalogError("e6qs involution is not an involution")
    comb = CombinatorialData(datum, theta_perm, compactness=None,
                             w0_input_order=384)  # W0 of type C4
    return SymmetricPairRealization(
        pair_id="e6qs", spec=PairSpec("e6qs"),
        rank_r1=6, rank_g=6, matrix_level=False, comb=comb)


# -- validation ----------------------------------------------------------------


def _validate_matrix_pair(pair: SymmetricPairRealization):
    # the table is antisymmetric and satisfies Jacobi by construction (see
    # `LinearAlgebraFrame.structure_table`), so neither is checked here
    table = pair.frame.structure_table()

    # theta is a Lie algebra automorphism: with theta = diag(s) on the adapted
    # basis, theta [b_i, b_j] = [theta b_i, theta b_j] says s_i s_j s_k = 1
    # wherever c^k_ij is nonzero; by antisymmetry the pairs i < j suffice
    sign = [1] * pair.dim_g0 + [-1] * pair.dim_g1
    for i, row in enumerate(table):
        for j in range(i + 1, pair.dim_g):
            if any(sign[i] * sign[j] * sign[k] != 1 for k in row[j]):
                raise CatalogError(f"{pair.pair_id}: theta is not an automorphism")

    # a is abelian (the pairs i < j suffice, as above), inside g1, of
    # dimension r1
    for i, x in enumerate(pair.a_basis):
        if not pair.in_g1(x):
            raise CatalogError(f"{pair.pair_id}: a is not inside g1")
        for y in pair.a_basis[i + 1:]:
            if not vec_is_zero(pair.bracket(x, y)):
                raise CatalogError(f"{pair.pair_id}: a is not abelian")
    if span_rank(pair.a_basis) != pair.rank_r1:
        raise CatalogError(f"{pair.pair_id}: a has wrong dimension")

    # quasi-split witness: h_a lies in a.  It is regular in g: on the split
    # torus t, `build_concrete_root_data` has shown that the weight spaces
    # span g, the zero weight space has dimension rank g and no root vanishes
    # at h_a, which lies in t; so ker ad(h_a) is that zero weight space.
    if coordinates_in_basis(pair.a_basis, pair.split_positivity) is None:
        raise CatalogError(f"{pair.pair_id}: split positivity element is not in a")

    # t_split = t0 + a with t1 = a.  t is the centralizer of a: rank g
    # independent vectors (`_assemble_matrix_pair`, `centralizer`) that
    # contain a, since a is abelian.
    if span_rank([pair.g1_part(v) for v in pair.t_split_basis]) != pair.rank_r1:
        raise CatalogError(f"{pair.pair_id}: t1 part of split torus is not a")

    # pinned positive systems behave under theta
    sr = pair.split_roots
    theta_pos = {sr.theta_perm[k] for k in sr.positive}
    if theta_pos & set(sr.positive):
        raise CatalogError(f"{pair.pair_id}: pinned split Borel is not theta-split")
    fr = pair.fund_roots
    if {fr.theta_perm[k] for k in fr.positive} != set(fr.positive):
        raise CatalogError(f"{pair.pair_id}: pinned fundamental Borel is not theta-stable")
    for k in range(fr.nroots):
        if fr.classify(k) == "real":
            raise CatalogError(f"{pair.pair_id}: fundamental torus sees a real root")


# -- public entry ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _realize_cached(spec: PairSpec) -> SymmetricPairRealization:
    if spec.family == "splitA":
        return _build_splitA(spec.n)
    if spec.family == "glgl":
        return _build_glgl(spec.n)
    if spec.family == "diag":
        return _build_diag(spec.base)
    if spec.family == "g2split":
        return _build_g2split()
    if spec.family == "e6qs":
        return _build_e6qs()
    raise CatalogError(f"unknown family {spec.family}")


def realize(spec) -> SymmetricPairRealization:
    """Build (and fully validate) a catalog pair; accepts a PairSpec or a
    spec string like "splitA:n=2"."""
    if isinstance(spec, str):
        spec = PairSpec.parse(spec)
    return _realize_cached(spec)


MATRIX_CATALOG = ("splitA:n=1", "splitA:n=2", "splitA:n=3",
                  "glgl:n=1", "glgl:n=2", "diag:sl2", "diag:sl3")
COMBINATORIAL_CATALOG = ("g2split", "e6qs")
FULL_CATALOG = MATRIX_CATALOG + COMBINATORIAL_CATALOG
