"""Weyl-group-with-involution combinatorics.

Root classification, the subgroup chain W0 <= W^theta <= W, the little
Weyl group, the torsor of theta-split Borels over the maximally split
torus, detection of regular theta-stable Borels (semantic matrix test
cross-validated against the compact-simple-root shortcut), and the
canonical involution on the universal Cartan recomputed from every
theta-split Borel choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .gaussian import GaussRat, ZERO
from .liealg import ConcreteRootData, Vector, vec_is_zero, weight_decomposition
from .matrix import ExactMatrix, coordinates_in_basis, independent_subset
from .pairs import CatalogError, SymmetricPairRealization
from .rootsystem import WeylGroup, compose, enumerate_weyl, identity_perm


class MissingCompactness(Exception):
    pass


# -- root classification -----------------------------------------------------


def classify_roots(rdi) -> Dict[str, List[int]]:
    """Partition root indices into real / imaginary compact / imaginary
    noncompact / complex.

    Accepts a ConcreteRootData or CombinatorialData; imaginary roots must
    carry compactness tags.
    """
    datum, theta_perm, compactness = _unpack(rdi)
    neg = datum.negation_perm()
    out: Dict[str, List[int]] = {
        "real": [], "imaginary_compact": [], "imaginary_noncompact": [], "complex": [],
    }
    for k in range(len(datum.all_roots)):
        img = theta_perm[k]
        if img == k:
            if compactness is None or k not in compactness:
                raise MissingCompactness(f"imaginary root {k} lacks a compactness tag")
            out[f"imaginary_{compactness[k]}"].append(k)
        elif img == neg[k]:
            out["real"].append(k)
        else:
            out["complex"].append(k)
    assert len(out["complex"]) % 2 == 0
    for k in out["complex"]:
        assert theta_perm[k] != k and theta_perm[theta_perm[k]] == k
    return out


def _unpack(rdi):
    datum = rdi.datum
    theta_perm = rdi.theta_perm
    compactness = getattr(rdi, "compactness", None)
    return datum, theta_perm, compactness


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
    Wa_perms: Optional[List[bytes]] = field(repr=False, default=None)


def theta_fixed_subgroup(group: WeylGroup, theta_perm: bytes) -> List[bytes]:
    return [p for p in group.elements
            if compose(p, theta_perm) == compose(theta_perm, p)]


def compute_subgroups(pair: SymmetricPairRealization, seed: int = 0) -> SubgroupReport:
    """W, W^theta, W0 and the little Weyl group W_a for a catalog pair.

    Matrix level: W^theta and W0 are computed relative to the fundamental
    torus (W0 through exponential lifts of g0 root reflections); W_a is
    the theta-commutant of W relative to the maximally split torus.
    Combinatorial entries take W0 as input (G2: generated by compact-root
    reflections; E6: the stated order), and are split, so W_a = W.
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
        report = SubgroupReport(
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
        assert wf.order == ws.order
        return report

    comb = pair.comb
    group = enumerate_weyl(comb.datum)
    wtheta = theta_fixed_subgroup(group, comb.theta_perm)
    if comb.compactness is not None:
        compact = [k for k, v in comb.compactness.items()
                   if v == "compact" and k in set(comb.datum.positive_indices())]
        gens = [comb.datum.reflection_perm(comb.datum.all_roots[k]) for k in compact]
        w0 = _closure_bytes(gens, len(comb.datum.all_roots))
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
        Wa_perms=list(group.elements),
    )


def _closure_bytes(gens: Sequence[bytes], n: int) -> List[bytes]:
    ident = identity_perm(n)
    seen = {ident}
    out = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(g, p)
                if q not in seen:
                    seen.add(q)
                    out.append(q)
                    nxt.append(q)
        frontier = nxt
    return out


# -- W0 through exponential lifts ----------------------------------------------


def theta_eigen_basis(pair: SymmetricPairRealization, vectors: Sequence[Vector],
                      sign: int) -> List[Vector]:
    """Basis of the (+1 or -1) theta-eigenspace of a theta-stable span."""
    part = pair.g0_part if sign > 0 else pair.g1_part
    projected = [part(v) for v in vectors]
    return independent_subset([p for p in projected if not vec_is_zero(p)])


def g0_root_data(pair: SymmetricPairRealization):
    """Roots of (g0, t0) for the fundamental torus, as weight/vector pairs."""
    fund = pair.fund_roots
    t0 = theta_eigen_basis(pair, fund.torus, +1)
    g0_basis = pair.g0_basis_coords()
    decomposition = weight_decomposition(pair.frame, t0, ambient=g0_basis)
    roots = []
    for w, space in decomposition:
        if all(x.is_zero() for x in w):
            continue
        if len(space) != 1:
            raise CatalogError(f"{pair.pair_id}: g0 root space not one-dimensional")
        roots.append((w, space[0]))
    return t0, roots


def _exp_ad(pair: SymmetricPairRealization, vec: Vector) -> ExactMatrix:
    return pair.ad(vec).exp_nilpotent()


def reflection_lift(pair: SymmetricPairRealization, e: Vector, f_raw: Vector,
                    value_of_h) -> ExactMatrix:
    """Ad(n) for n = exp(e) exp(-f) exp(e), with f scaled so that
    (e, h, f) is an sl2 triple; value_of_h(h_coords) must give alpha(h)."""
    h = pair.bracket(e, f_raw)
    val = value_of_h(h)
    if val.is_zero():
        raise CatalogError("degenerate root pair in reflection lift")
    f = [(GaussRat(2) / val) * x for x in f_raw]
    return _exp_ad(pair, e) @ _exp_ad(pair, [-x for x in f]) @ _exp_ad(pair, e)


def torus_action_perm(pair: SymmetricPairRealization, rdata: ConcreteRootData,
                      ad_action: ExactMatrix) -> bytes:
    """Permutation induced on rdata's roots by an algebra automorphism that
    normalizes the torus (given as a matrix on coordinates)."""
    torus_mats = [list(t) for t in rdata.torus]
    images = [ad_action.apply(t) for t in rdata.torus]
    cols = [coordinates_in_basis(torus_mats, img) for img in images]
    if any(c is None for c in cols):
        raise CatalogError("automorphism does not normalize the torus")
    m = ExactMatrix.from_columns(cols)
    m_inv = m.inverse()
    weight_map = {w: k for k, w in enumerate(rdata.weights)}
    perm = []
    for w in rdata.weights:
        # new weight: alpha o Ad(n)^{-1}; columns of m_inv give coordinates
        img = tuple(
            sum((m_inv[j, i] * w[j] for j in range(len(rdata.torus))), ZERO)
            for i in range(len(rdata.torus))
        )
        if img not in weight_map:
            raise CatalogError("automorphism does not permute the roots")
        perm.append(weight_map[img])
    return bytes(perm)


def weyl_group_of_g0(pair: SymmetricPairRealization) -> List[bytes]:
    """W0 = W(g0, t0) embedded in W(fundamental torus) by exponential lifts."""
    pair.require_matrix_level()
    fund = pair.fund_roots
    t0, g0_roots = g0_root_data(pair)
    gens: List[bytes] = []
    weight_map = {w: k for k, w in enumerate([w for w, _ in g0_roots])}
    seen_pairs = set()
    for idx, (w, vec) in enumerate(g0_roots):
        negw = tuple(-x for x in w)
        if (negw, w) in seen_pairs:
            continue
        seen_pairs.add((w, negw))
        neg_idx = weight_map[negw]
        f_raw = g0_roots[neg_idx][1]

        def value_of_h(h, w=w, t0=t0):
            coeffs = coordinates_in_basis([list(t) for t in t0], h)
            return sum((c * x for c, x in zip(coeffs, w)), ZERO)

        lift = reflection_lift(pair, vec, f_raw, value_of_h)
        gens.append(torus_action_perm(pair, fund, lift))
    return _closure_bytes(gens, fund.nroots)


# -- theta-split Borels ---------------------------------------------------------


@dataclass(frozen=True)
class BorelChoice:
    """A Borel containing the pinned torus, as the Weyl translate of the
    pinned positive system."""

    perm: bytes

    def positive(self, base: Sequence[int]) -> frozenset:
        return frozenset(self.perm[k] for k in base)


def enumerate_split_borels(pair: SymmetricPairRealization,
                           rdi: Optional[ConcreteRootData] = None) -> List[BorelChoice]:
    """All theta-split Borels containing the pinned maximally split torus.

    Checks the torsor structure: the count equals |W_a| and W_a acts simply
    transitively by left translation.
    """
    pair.require_matrix_level()
    split = rdi if rdi is not None else pair.split_roots
    group = enumerate_weyl(split.datum)
    base = list(split.positive)
    theta = split.theta_perm
    chosen = []
    for p in group.elements:
        pos = {p[k] for k in base}
        if not pos & {theta[k] for k in pos}:
            chosen.append(BorelChoice(p))
    wa = theta_fixed_subgroup(group, theta)
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


def borel_g1_nilradical(pair: SymmetricPairRealization, positive: Sequence[int]) -> List[Vector]:
    """Basis of n_w cap g1 for the theta-stable Borel with the given
    positive system (fundamental torus)."""
    fund = pair.fund_roots
    comp = fund.compactness or {}
    out: List[Vector] = []
    done = set()
    for k in positive:
        if k in done:
            continue
        img = fund.theta_perm[k]
        if img == k:
            if comp.get(k) == "noncompact":
                out.append(pair.g1_part(fund.root_vectors[k]))
        else:
            # complex pair: theta swaps the two root lines and is Q(i)-linear,
            # so the g1 eigenspace of the pair is one-dimensional
            done.add(img)
            part = pair.g1_part(fund.root_vectors[k])
            if not vec_is_zero(part):
                out.append(part)
    return out


def detect_regular_borels(pair: SymmetricPairRealization, seed: int = 0,
                          report: Optional[SubgroupReport] = None) -> List[RegularClassReport]:
    """Classes of theta-stable Borels (cosets W0\\W^theta) marked regular
    or not.

    Matrix pairs run the semantic test (a generic element of
    Lie(B) cap g1 is a regular nilpotent of g) and cross-validate the
    compact-simple-root shortcut; negatives carry an exact certificate (a
    compact imaginary simple root).  Combinatorial entries use the
    shortcut, whose tags are part of the catalog input.
    """
    if report is None:
        report = compute_subgroups(pair, seed=seed)
    if pair.matrix_level:
        rdata = pair.fund_roots
        compactness = rdata.compactness or {}
    else:
        rdata = pair.comb
        compactness = rdata.compactness
        if compactness is None:
            raise MissingCompactness(f"{pair.pair_id} carries no compactness data")
    if report.W0_perms is None:
        raise CatalogError(f"{pair.pair_id}: W0 not materialized; cannot form cosets")

    if pair.matrix_level:
        base_pos = list(rdata.positive)
        simple_base = rdata.simple_indices_of(base_pos)
        datum = rdata.datum
    else:
        datum = rdata.datum
        base_pos = datum.positive_indices()
        simple_base = datum.simple_indices

    cosets: Dict[bytes, List[bytes]] = {}
    for w in report.W_theta_perms:
        key = min(compose(u, w) for u in report.W0_perms)
        cosets.setdefault(key, []).append(w)

    rng = random.Random(0xC0FFEE + seed)
    out = []
    for key in sorted(cosets):
        members = cosets[key]
        w = key
        simples = [w[s] for s in simple_base]
        compact_simple = next((s for s in simples if compactness.get(s) == "compact"), None)
        shortcut = compact_simple is None
        if pair.matrix_level:
            positive = [w[k] for k in base_pos]
            semantic, witness = _semantic_regular(pair, positive, simples, rng)
            if semantic != shortcut:
                # the semantic test wins; surface the disagreement loudly
                raise CatalogError(
                    f"{pair.pair_id}: shortcut and semantic regularity disagree "
                    f"on class {key.hex()}")
            out.append(RegularClassReport(w, len(members), semantic, shortcut,
                                          compact_simple, witness))
        else:
            out.append(RegularClassReport(w, len(members), shortcut, shortcut,
                                          compact_simple))
    assert sum(r.class_size for r in out) == report.W_theta_order
    return out


def _semantic_regular(pair, positive, simples, rng) -> Tuple[bool, Optional[Vector]]:
    fund = pair.fund_roots
    comp = fund.compactness or {}
    space = borel_g1_nilradical(pair, positive)
    if not space:
        return False, None
    # canonical witness: the sum of g1 parts of the simple root vectors
    candidates = []
    canonical = [ZERO] * pair.dim_g
    seen = set()
    for s in simples:
        if s in seen:
            continue
        seen.add(s)
        seen.add(fund.theta_perm[s])
        part = pair.g1_part(fund.root_vectors[s])
        canonical = [a + b for a, b in zip(canonical, part)]
    candidates.append(canonical)
    for _ in range(8):
        coeffs = [GaussRat(rng.randint(-7, 7)) for _ in space]
        x = [ZERO] * pair.dim_g
        for c, v in zip(coeffs, space):
            x = [a + c * b for a, b in zip(x, v)]
        candidates.append(x)
    for x in candidates:
        if vec_is_zero(x):
            continue
        if len(pair.ad(x).kernel_basis()) == pair.rank_g:
            return True, x
    # negative: exact certificate expected (a compact imaginary simple root)
    compact_simple = next((s for s in simples if comp.get(s) == "compact"), None)
    if compact_simple is None:
        raise CatalogError(
            f"{pair.pair_id}: no regular witness found and no compact-simple "
            "certificate; semantic regularity undecided")
    return False, None


# -- canonical involution ---------------------------------------------------------


def weyl_word(datum, perm: bytes) -> List[int]:
    """A reduced word for a Weyl element (indices of simple reflections)."""
    simples = datum.simple_indices
    gens = [datum.simple_reflection_perm(i) for i in range(datum.rank)]
    roots = datum.all_roots
    word = []
    cur = perm
    ident = identity_perm(len(perm))
    guard = 0
    while cur != ident:
        guard += 1
        if guard > 10_000:
            raise AssertionError("weyl word extraction did not terminate")
        for i, s in enumerate(simples):
            if sum(roots[cur[s]]) < 0:
                word.append(i)
                cur = compose(cur, gens[i])
                break
        else:
            raise AssertionError("no descent found; not a Weyl element?")
    return word


def split_simple_lift(pair: SymmetricPairRealization, i: int) -> ExactMatrix:
    """Ad(n) for the i-th simple reflection of the split-side datum."""
    split = pair.split_roots
    s_idx = split.simple_indices_of(list(split.positive))[i]
    neg_w = tuple(-x for x in split.weights[s_idx])
    neg_idx = split.weight_index(neg_w)
    e = split.root_vectors[s_idx]
    f_raw = split.root_vectors[neg_idx]

    def value_of_h(h):
        coeffs = coordinates_in_basis([list(t) for t in split.torus], h)
        return sum((c * x for c, x in zip(coeffs, split.weights[s_idx])), ZERO)

    return reflection_lift(pair, e, f_raw, value_of_h)


@dataclass(frozen=True)
class CanonicalInvolution:
    """theta_can on the universal Cartan with the facts checked of it."""

    matrix: ExactMatrix
    is_involution: bool  # theta_can^2 = 1
    fixed_dim: int       # dim ker(theta_can - 1), rank g - r1 when sound


def canonical_involution(pair: SymmetricPairRealization) -> CanonicalInvolution:
    """The involution on the universal Cartan t = b/[b,b], computed from
    every theta-split Borel containing the pinned torus.  Raises CatalogError
    unless every Borel gives the bitwise same matrix; whether it squares to
    1 and its fixed dimension are reported, not asserted."""
    pair.require_matrix_level()
    split = pair.split_roots
    torus_cols = [list(t) for t in split.torus]
    r = len(torus_cols)

    theta_t = _restrict_to_torus(pair.theta_coords, torus_cols)

    # order the simple lifts once
    simple_lifts = [split_simple_lift(pair, i) for i in range(split.datum.rank)]

    base = list(split.positive)
    matrices = []
    for borel in enumerate_split_borels(pair):
        # w = s_{i_k} o ... o s_{i_1} for word = [i_1, ..., i_k]
        word = weyl_word(split.datum, borel.perm)
        n_ad = ExactMatrix.identity(pair.dim_g)
        for i in word:
            n_ad = simple_lifts[i] @ n_ad
        m_w = _restrict_to_torus(n_ad, torus_cols)
        # sanity: the lift induces the intended permutation on roots
        induced = torus_action_perm(pair, split, n_ad)
        if induced != borel.perm:
            raise CatalogError(f"{pair.pair_id}: exp lift does not realize the Weyl element")
        theta_can = m_w.inverse() @ theta_t @ m_w
        matrices.append(theta_can)
    first = matrices[0]
    for m in matrices[1:]:
        if m != first:
            raise CatalogError(
                f"{pair.pair_id}: canonical involution depends on the Borel choice")
    ident = ExactMatrix.identity(r)
    return CanonicalInvolution(first, first @ first == ident,
                               len((first - ident).kernel_basis()))


def _restrict_to_torus(action: ExactMatrix, torus_cols: List[List[GaussRat]]) -> ExactMatrix:
    cols = []
    for t in torus_cols:
        img = action.apply(t)
        c = coordinates_in_basis(torus_cols, img)
        if c is None:
            raise CatalogError("action does not preserve the torus")
        cols.append(c)
    return ExactMatrix.from_columns(cols)
