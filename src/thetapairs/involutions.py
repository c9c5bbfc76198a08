"""Weyl-group-with-involution combinatorics.

The subgroup chain W0 <= W^theta <= W, the little Weyl group, the torsor
of theta-split Borels over the maximally split torus, detection of
regular theta-stable Borels (semantic matrix test cross-validated against
the compact-simple-root shortcut), and the canonical involution on the
universal Cartan checked against every theta-split Borel choice.  Weyl
lifts are group elements n = exp(E) exp(-F) exp(E) of GL(N), acting by
`LinearAlgebraFrame.adjoint` on the torus vectors each caller reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .gaussian import GaussRat, ZERO
from .liealg import Adjoint, ConcreteRootData, Vector, weight_decomposition, weight_perm, weight_value
from .matrix import ExactMatrix, coordinates_in_basis, independent_subset, restrict_action
from .pairs import CatalogError, SymmetricPairRealization, per_pair
from .rootsystem import WeylGroup, _closure, compose, enumerate_weyl, identity_perm, invert


class MissingCompactness(Exception):
    pass


# -- subgroup chain ------------------------------------------------------------


@dataclass
class SubgroupReport:
    pair_id: str
    W_order: int
    W_theta_order: int
    W0_order: int
    Wa_order: int
    indices: Tuple[int, int]  # ([W^theta : W0], [W : W^theta])
    W_theta_perms: List[bytes] = field(repr=False, default_factory=list)
    W0_perms: Optional[List[bytes]] = field(repr=False, default=None)
    Wa_perms: Optional[List[bytes]] = field(repr=False, default=None)  # matrix level


def theta_fixed_subgroup(group: WeylGroup, theta_perm: bytes) -> List[bytes]:
    return [p for p in group.elements
            if compose(p, theta_perm) == compose(theta_perm, p)]


@per_pair
def compute_subgroups(pair: SymmetricPairRealization) -> SubgroupReport:
    """W, W^theta, W0 and the little Weyl group W_a for a catalog pair.

    Matrix level: W^theta and W0 are computed relative to the fundamental
    torus (W0 through exponential lifts of g0 root reflections); W_a is
    the theta-commutant of W relative to the maximally split torus.
    Combinatorial entries take W0 as input (G2: generated by compact-root
    reflections; E6: the stated order), and are split, so W_a = W and its
    elements are not listed.
    """
    if pair.matrix_level:
        fund = pair.fund_roots
        wf = enumerate_weyl(fund.datum)
        wtheta = theta_fixed_subgroup(wf, fund.theta_perm)
        w0 = weyl_group_of_g0(pair)
        for p in w0:
            if compose(p, fund.theta_perm) != compose(fund.theta_perm, p):
                raise CatalogError(f"{pair.pair_id}: W0 not inside W^theta")
        split = pair.split_roots
        ws = enumerate_weyl(split.datum)
        wa = theta_fixed_subgroup(ws, split.theta_perm)
        if wf.order != ws.order:
            raise CatalogError(
                f"{pair.pair_id}: fundamental and split Weyl groups differ in order")
        return SubgroupReport(
            pair_id=pair.pair_id,
            W_order=wf.order,
            W_theta_order=len(wtheta),
            W0_order=len(w0),
            Wa_order=len(wa),
            indices=(len(wtheta) // len(w0), wf.order // len(wtheta)),
            W_theta_perms=wtheta,
            W0_perms=w0,
            Wa_perms=wa,
        )

    comb = pair.comb
    group = enumerate_weyl(comb.datum)
    wtheta = theta_fixed_subgroup(group, comb.theta_perm)
    if comb.compactness is not None:
        compact = [k for k, v in comb.compactness.items()
                   if v == "compact" and k in set(comb.datum.positive_indices())]
        gens = [comb.datum.reflection_perm(comb.datum.all_roots[k]) for k in compact]
        w0 = _closure(gens, len(comb.datum.all_roots))
        if len(w0) != comb.w0_input_order:
            raise CatalogError(
                f"{pair.pair_id}: compact-root Weyl group has order {len(w0)}, "
                f"stated g0 type gives {comb.w0_input_order}")
        w0_perms: Optional[List[bytes]] = w0
        w0_order = len(w0)
    else:
        w0_perms = None
        w0_order = comb.w0_input_order
    # both combinatorial entries are split involutions: W_a = W
    return SubgroupReport(
        pair_id=pair.pair_id,
        W_order=group.order,
        W_theta_order=len(wtheta),
        W0_order=w0_order,
        Wa_order=group.order,
        indices=(len(wtheta) // w0_order, group.order // len(wtheta)),
        W_theta_perms=wtheta,
        W0_perms=w0_perms,
    )


# -- W0 through exponential lifts ----------------------------------------------


def theta_eigen_basis(pair: SymmetricPairRealization, vectors: Sequence[Vector]) -> List[Vector]:
    """Basis of the theta-fixed part of a theta-stable span."""
    return independent_subset([pair.g0_part(v) for v in vectors])


def root_value(torus: Sequence[Vector], weight: Sequence[GaussRat], h: Vector) -> GaussRat:
    """alpha(h) for the root of the given weight (coordinates on the torus
    basis); raises CatalogError when h is not in the torus."""
    coeffs = coordinates_in_basis(torus, h)
    if coeffs is None:
        raise CatalogError("h is not in the torus")
    return weight_value(weight, coeffs)


def reflection_lift(pair: SymmetricPairRealization, e: Vector, f_raw: Vector,
                    torus: Sequence[Vector], weight: Sequence[GaussRat]) -> Adjoint:
    """Ad(n) on coordinates for n = exp(E) exp(-F) exp(E) in GL(N), E and F
    the defining matrices of e and of f scaled so that (e, h, f) is an sl2
    triple; e is a root vector of the given weight on the torus."""
    h = pair.bracket(e, f_raw)
    val = root_value(torus, weight, h)
    if val.is_zero():
        raise CatalogError("degenerate root pair in reflection lift")
    e_mat = pair.from_coords(e)
    f_mat = pair.from_coords([(GaussRat(2) / val) * x for x in f_raw])
    exp_e, exp_f, inv_e, inv_f = (m.exp_nilpotent() for m in (e_mat, f_mat, -e_mat, -f_mat))
    return pair.frame.adjoint(exp_e @ inv_f @ exp_e, inv_e @ exp_f @ inv_e)


def torus_action_perm(rdata: ConcreteRootData, ad_action) -> bytes:
    """Permutation induced on rdata's roots by an algebra automorphism that
    normalizes the torus (a matrix or a function on coordinates)."""
    m = restrict_action(ad_action, rdata.torus)
    if m is None:
        raise CatalogError("automorphism does not normalize the torus")
    perm = weight_perm(rdata.weights, m)
    if perm is None:
        raise CatalogError("automorphism does not permute the roots")
    return perm


def weyl_group_of_g0(pair: SymmetricPairRealization,
                     rdata: Optional[ConcreteRootData] = None,
                     z_basis: Optional[Sequence[Vector]] = None) -> List[bytes]:
    """W0 = W(g0, t0) embedded in W(rdata) by exponential lifts of the g0
    root reflections.  The view is g with its fundamental torus by default,
    or the theta-stable subalgebra spanned by z_basis with the torus of
    rdata."""
    pair.require_matrix_level()
    if rdata is None:
        rdata = pair.fund_roots
    t0 = theta_eigen_basis(pair, rdata.torus)
    ambient = (pair.g0_basis_coords() if z_basis is None
               else theta_eigen_basis(pair, z_basis))
    root_vectors: Dict[Tuple[GaussRat, ...], Vector] = {}
    for w, space in weight_decomposition(pair.frame, t0, ambient=ambient):
        if all(x.is_zero() for x in w):
            continue
        if len(space) != 1:
            raise CatalogError(f"{pair.pair_id}: g0 root space not one-dimensional")
        root_vectors[w] = space[0]
    gens: List[bytes] = []
    seen_pairs = set()
    for w, vec in root_vectors.items():
        negw = tuple(-x for x in w)
        if (negw, w) in seen_pairs:
            continue
        seen_pairs.add((w, negw))
        lift = reflection_lift(pair, vec, root_vectors[negw], t0, w)
        gens.append(torus_action_perm(rdata, lift))
    return _closure(gens, rdata.nroots)


# -- theta-split Borels ---------------------------------------------------------


@dataclass(frozen=True)
class BorelChoice:
    """A Borel containing the pinned torus, as the Weyl translate of the
    pinned positive system."""

    perm: bytes

    def positive(self, base: Sequence[int]) -> frozenset:
        return frozenset(self.perm[k] for k in base)


def enumerate_split_borels(pair: SymmetricPairRealization) -> List[BorelChoice]:
    """All theta-split Borels containing the pinned maximally split torus.

    Checks the torsor structure: the count equals |W_a| and W_a acts simply
    transitively by left translation.
    """
    pair.require_matrix_level()
    split = pair.split_roots
    group = enumerate_weyl(split.datum)
    base = list(split.positive)
    theta = split.theta_perm
    chosen = []
    for p in group.elements:
        pos = {p[k] for k in base}
        if not pos & {theta[k] for k in pos}:
            chosen.append(BorelChoice(p))
    wa = compute_subgroups(pair).Wa_perms
    if len(chosen) != len(wa):
        raise CatalogError(
            f"{pair.pair_id}: {len(chosen)} split Borels but |W_a| = {len(wa)}")
    # simple transitivity on positive systems
    systems = {frozenset(b.positive(base)) for b in chosen}
    base_b = chosen[0]
    orbit = {frozenset({compose(u, base_b.perm)[k] for k in base}) for u in wa}
    if orbit != systems or len(orbit) != len(wa):
        raise CatalogError(f"{pair.pair_id}: W_a does not act simply transitively")
    return chosen


# -- regular theta-stable Borels -------------------------------------------------


@dataclass
class RegularClassReport:
    rep_perm: bytes
    class_size: int
    regular: bool
    shortcut_regular: bool
    simple_compact_witness: Optional[int]  # compact simple root certifying negativity
    witness_coords: Optional[Vector] = None  # a regular nilpotent in Lie(B) cap g1


def _shortcut_classes(w_theta: Sequence[bytes], w0: Sequence[bytes],
                      simple_base: Sequence[int], compactness: Dict[int, str]
                      ) -> Iterator[Tuple[bytes, int, List[int], Optional[int]]]:
    """(representative, size, simple roots, first compact simple root or
    None) for each coset W0 w in W^theta, in representative order."""
    cosets: Dict[bytes, int] = {}
    for w in w_theta:
        key = min(compose(u, w) for u in w0)
        cosets[key] = cosets.get(key, 0) + 1
    for key in sorted(cosets):
        simples = [key[s] for s in simple_base]
        compact_simple = next((s for s in simples if compactness.get(s) == "compact"), None)
        yield key, cosets[key], simples, compact_simple


def regular_classes(pair: SymmetricPairRealization, rdata: ConcreteRootData,
                    w_theta: Sequence[bytes], w0: Sequence[bytes],
                    z_basis: Optional[Sequence[Vector]] = None) -> List[RegularClassReport]:
    """Classes W0\\W^theta of theta-stable Borels containing the torus of
    rdata, marked regular by the semantic test.

    The view is g (z_basis None) or the theta-stable subalgebra spanned by
    z_basis.  A class is regular when its canonical witness, the sum of
    the g1 parts of its simple root vectors (one per theta-orbit), is a
    regular nilpotent of the view.  The compact-simple-root shortcut must
    agree; a negative class carries its compact simple root as the exact
    certificate.
    """
    simple_base = rdata.simple_indices_of(list(rdata.positive))
    out = []
    for key, size, simples, compact_simple in _shortcut_classes(
            w_theta, w0, simple_base, rdata.compactness):
        witness = [ZERO] * pair.dim_g
        seen = set()
        for s in simples:
            if s in seen:
                continue
            seen.update((s, rdata.theta_perm[s]))
            part = pair.g1_part(rdata.root_vectors[s])
            witness = [a + b for a, b in zip(witness, part)]
        if z_basis is None:
            regular = pair.is_regular(witness)
        else:
            ad_w = restrict_action(pair.ad(witness), z_basis)
            if ad_w is None:
                raise CatalogError(f"{pair.pair_id}: a class witness does not "
                                   "preserve the centralizer")
            # the view is reductive of rank rank g, so as in `is_regular`
            # ad_w has nullity at least rank g
            regular = ad_w.nullity_is(pair.rank_g)
        shortcut = compact_simple is None
        if regular != shortcut:
            raise CatalogError(
                f"{pair.pair_id}: shortcut and semantic regularity disagree "
                f"on class {key.hex()}")
        out.append(RegularClassReport(key, size, regular, shortcut, compact_simple,
                                      witness if regular else None))
    return out


@per_pair
def detect_regular_borels(pair: SymmetricPairRealization) -> List[RegularClassReport]:
    """Classes of theta-stable Borels (cosets W0\\W^theta) marked regular
    or not.

    Matrix pairs run the semantic test of `regular_classes` on the
    fundamental torus.  Combinatorial entries use the compact-simple-root
    shortcut, whose tags are part of the catalog input.
    """
    if not pair.matrix_level and pair.comb.compactness is None:
        raise MissingCompactness(f"{pair.pair_id} carries no compactness data")
    report = compute_subgroups(pair)
    if pair.matrix_level:
        out = regular_classes(pair, pair.fund_roots, report.W_theta_perms, report.W0_perms)
    else:
        comb = pair.comb
        out = [RegularClassReport(key, size, compact is None, compact is None, compact)
               for key, size, _, compact in _shortcut_classes(
                   report.W_theta_perms, report.W0_perms, comb.datum.simple_indices,
                   comb.compactness)]
    if sum(r.class_size for r in out) != report.W_theta_order:
        raise CatalogError(f"{pair.pair_id}: the classes do not partition W^theta")
    return out


# -- canonical involution ---------------------------------------------------------


def split_simple_lift(pair: SymmetricPairRealization, i: int) -> Adjoint:
    """Ad(n) on coordinates for the i-th simple reflection of the split datum."""
    split = pair.split_roots
    s_idx = split.simple_indices_of(list(split.positive))[i]
    neg_idx = split.weight_index(tuple(-x for x in split.weights[s_idx]))
    return reflection_lift(pair, split.root_vectors[s_idx], split.root_vectors[neg_idx],
                           split.torus, split.weights[s_idx])


def lift_closure(gens: Sequence[Tuple[bytes, ExactMatrix]], nroots: int,
                 start: ExactMatrix) -> Dict[bytes, ExactMatrix]:
    """The group generated by the permutations of gens, each element mapped
    to the product of the generator matrices along the path that first
    reached it, applied to start.  Breadth-first in the element order of
    `rootsystem._closure`: a generator that repeats an earlier permutation
    never reaches a new element."""
    table = {identity_perm(nroots): start}
    frontier = list(table)
    while frontier:
        nxt = []
        for p in frontier:
            for gp, gm in gens:
                q = compose(gp, p)
                if q not in table:
                    table[q] = gm @ table[p]
                    nxt.append(q)
        frontier = nxt
    return table


class SplitWeylLifts:
    """The split-side Weyl group acting on the split torus through `gens`,
    its r restricted simple lifts (s_i, M_i), each checked to realize its
    reflection.  A product of lifts realizing the s_i realizes the product
    of the s_i, so M_w, the product along any word for w, satisfies
    alpha_k(M_w y) = alpha_{w^{-1}(k)}(y): its root values are the values
    of y, permuted.  `SplitWeylLifts.of(pair)` is the pair's one instance."""

    def __init__(self, pair: SymmetricPairRealization):
        split = pair.split_roots
        self.nroots = split.nroots
        self.gens = []
        for i in range(split.datum.rank):
            m = restrict_action(split_simple_lift(pair, i), split.torus)
            if m is None:
                raise CatalogError("split lift does not normalize the torus")
            s_i = split.datum.simple_reflection_perm(i)
            if weight_perm(split.weights, m) != s_i:
                raise CatalogError("split lift does not realize its Weyl element")
            self.gens.append((s_i, m))

    @staticmethod
    @per_pair
    def of(pair: SymmetricPairRealization) -> "SplitWeylLifts":
        return SplitWeylLifts(pair)

    def orbit(self, y: Vector) -> Dict[bytes, Vector]:
        """M_w y for every w, in the element order of `enumerate_weyl`:
        torus coordinates y walked as one column by `lift_closure`."""
        walk = lift_closure(self.gens, self.nroots, ExactMatrix.from_columns([y]))
        return {w: m.column(0) for w, m in walk.items()}


@dataclass(frozen=True)
class CanonicalInvolution:
    """theta_can on the universal Cartan with the facts checked of it."""

    matrix: ExactMatrix
    is_involution: bool  # theta_can^2 = 1
    fixed_dim: int       # dim ker(theta_can - 1), rank g - r1 when sound


def canonical_involution(pair: SymmetricPairRealization) -> CanonicalInvolution:
    """The involution on the universal Cartan t = b/[b,b]: M_w^{-1} theta M_w
    for every theta-split Borel w B0 containing the pinned torus.  B0 is
    theta-split (its positivity element lies in a), so the matrix is theta
    on t: a w that commutes with theta's root permutation has an M_w that
    commutes with theta on t, since both fix the centre and move every
    root value alike.  Raises CatalogError unless every split Borel gives
    w^{-1} theta w = theta as permutations; whether the matrix squares to 1
    and its fixed dimension are reported, not asserted."""
    pair.require_matrix_level()
    theta_t = restrict_action(pair.theta_apply, pair.split_roots.torus)
    if theta_t is None:
        raise CatalogError(f"{pair.pair_id}: the split torus is not theta-stable")
    theta = pair.split_roots.theta_perm
    if {compose(invert(b.perm), compose(theta, b.perm))
            for b in enumerate_split_borels(pair)} != {theta}:
        raise CatalogError(
            f"{pair.pair_id}: canonical involution depends on the Borel choice")
    ident = ExactMatrix.identity(theta_t.rows)
    return CanonicalInvolution(theta_t, theta_t @ theta_t == ident,
                               len((theta_t - ident).kernel_basis()))
