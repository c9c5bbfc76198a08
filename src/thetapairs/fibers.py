"""Fibers of the resolution family and the component bookkeeping.

Point-level fibers over regular elements (parametrized by theta-split
parabolics with the centralizer Levi), the census of components of the
fiber product over a regular semisimple element, the per-component
dimension audit of the restricted family at arbitrary base points (at 0,
whose centralizer is g, on the pair's own fundamental torus and regular
Borel classes; elsewhere via Cayley transforms to a fundamental torus of
the centralizer).  The complete flags fixed by a regular element are read
here, once: `kernel_filtration` and `flag_of_word` build them for the flag
witnesses and for the completion of `diagonal.psi_complete`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .gaussian import GaussRat, ZERO, SplittingFieldTooLarge, gauss_sqrt
from .involutions import (
    RegularClassReport,
    SplitWeylLifts,
    compute_subgroups,
    detect_regular_borels,
    lift_closure,
    reflection_lift,
    regular_classes,
    root_value,
    theta_eigen_basis,
    theta_fixed_subgroup,
    torus_action_perm,
    weyl_group_of_g0,
)
from .jordan import is_semisimple
from .liealg import (
    ConcreteRootData,
    Vector,
    _combine,
    _joint_eigenspaces,
    build_concrete_root_data,
    flag_stabilizer,
    gvec,
    vec_is_zero,
    weight_decomposition,
    weight_perm,
    weight_value,
)
from .matrix import (
    ExactMatrix,
    coordinates_in_basis,
    independent_subset,
    intersect_spans,
    restrict_action,
)
from .pairs import CatalogError, SymmetricPairRealization, per_pair
from .rootsystem import compose, enumerate_weyl, identity_perm, invert
from .slices import (
    ElementOfG1,
    NotRegular,
    build_kw_section,
    conjugate_ss_into_a,
    is_regular,
)


class CentralizerTorusError(SplittingFieldTooLarge):
    """The centralizer of the base point has no fundamental torus over Q(i)."""


# -- fibers over regular elements ----------------------------------------------


@dataclass
class FiberPoint:
    witness_borel: List[Vector]         # basis of Lie(B') in ambient coordinates
    split_characterization: bool        # literal B(theta) = Z_B(X_ss) equality


@dataclass
class FiberReport:
    pair_id: str
    fiber_points: List[FiberPoint]
    wa_order: int
    stabilizer_order: int

    @property
    def orbit_size_formula(self) -> int:
        return self.wa_order // self.stabilizer_order

    @property
    def cardinality(self) -> int:
        return len(self.fiber_points)


def fiber_over_regular(pair: SymmetricPairRealization, x: ElementOfG1) -> FiberReport:
    """The fiber of the resolution projection over a regular element.

    The semisimple part y must lie in the pinned Cartan subspace a, as it
    does for every element the package builds (ConjugationOutsideField
    otherwise).  Fiber points
    biject with the little-Weyl orbit of y.  When x is semisimple, its
    centralizer is the split torus t (t lies in it, and x regular gives
    it dimension rank g), and the point of w.y is `_root_set_point`,
    ordered by the root values of w.y: those of y, permuted by w^{-1}.
    Otherwise the orbit is walked by `SplitWeylLifts.orbit` (the one
    point 0 when y = 0, with no walk) and ordered by torus coordinates;
    each witness Borel interleaves the eigenspace filtrations of the
    nilpotent part according to the value pattern and
    is verified exactly (contains the element, its centralizer Borel is a
    regular theta-stable Borel of the Levi), and the literal theta-split
    characterization B(theta) = Z_B(X_ss) is recorded per point (it can
    fail on interleaved points over degenerate semisimple parts).
    """
    pair.require_matrix_level()
    if not is_regular(pair, x):
        raise NotRegular("fiber_over_regular needs a regular element")
    ss, nil = x.jordan_parts()
    ad_g = conjugate_ss_into_a(pair, ss)
    ss1 = ad_g.apply(ss)
    nil1 = ad_g.apply(nil)

    split = pair.split_roots
    ss_t = coordinates_in_basis(split.torus, ss1)
    if ss_t is None:
        raise CatalogError(f"{pair.pair_id}: conjugated semisimple part is not in the split torus")

    wa = compute_subgroups(pair).Wa_perms
    semisimple = vec_is_zero(nil1)
    if semisimple:
        # the centre, which W fixes, is the same at every point
        images = _weyl_root_values(split, ss_t, wa)
    elif vec_is_zero(ss_t):
        # the orbit of 0 is the one point 0
        images = {w: tuple(ss_t) for w in wa}
    else:
        walk = SplitWeylLifts.of(pair).orbit(ss_t)
        images = {w: tuple(walk[w]) for w in wa}
    base = images[identity_perm(split.nroots)]
    orbit: Dict[Tuple, bytes] = {}
    stab_count = 0
    for w in wa:
        if images[w] == base:
            stab_count += 1
        orbit.setdefault(images[w], w)
    if len(orbit) * stab_count != len(wa):
        raise CatalogError(f"{pair.pair_id}: W_a orbit size is not |W_a|/|Stab|")
    keys = sorted(orbit, key=lambda t: tuple(v.sort_key() for v in t))
    if semisimple:
        return FiberReport(pair.pair_id, [_root_set_point(split, orbit[k]) for k in keys],
                           len(wa), stab_count)

    z = pair.frame.centralizer([ss1])
    nil_on_z = restrict_action(pair.ad(nil1), z)
    if nil_on_z is None:
        raise CatalogError("nilpotent part does not preserve its centralizer")
    # z is reductive of rank rank g, so ker(nil on z) has dimension at
    # least rank g
    if not nil_on_z.nullity_is(pair.rank_g):
        raise CatalogError("nilpotent part is not regular in the centralizer")
    slots = _defining_slots(pair)
    filtrations = _flag_filtrations(pair, slots, ss_t, nil1)
    points = []
    for key in keys:
        witness = _flag_witness(pair, slots, filtrations, list(key))
        literal = _verify_fiber_point(pair, z, ss1, nil1, witness)
        points.append(FiberPoint(witness, literal))
    return FiberReport(pair.pair_id, points, len(wa), stab_count)


def _root_set_point(split: ConcreteRootData, w: bytes) -> FiberPoint:
    """The fiber point of w.y over a regular semisimple y in a: the Borel
    t + g_P, P = w^{-1}(positive).  B cap theta B = t + g_(P cap theta P)
    and Z_B(y) = t, so the literal characterization is that P and theta(P)
    are disjoint."""
    inv = invert(w)
    roots = [inv[k] for k in split.positive]
    literal = not set(roots) & {split.theta_perm[k] for k in roots}
    return FiberPoint(split.torus + [split.root_vectors[k] for k in roots], literal)


def _flag_filtrations(pair, slots: List[DefiningSlot], ss_t, nil1):
    """The kernel filtration of the nilpotent part on each eigenspace of
    the semisimple part, per (block, eigenvalue); every orbit point has
    the eigenvalues of the semisimple part, permuted across the slots.
    The semisimple part has torus coordinates ss_t, and the slots are the
    torus's joint eigenvectors, so each eigenspace is spanned by the slots
    of its block whose weight takes its value at ss_t."""
    nil_m = pair.from_coords(nil1)
    spaces: Dict[Tuple[int, GaussRat], List[List[GaussRat]]] = {}
    for slot in slots:
        spaces.setdefault((slot.block, weight_value(slot.weight, ss_t)), []).append(slot.vector)
    return {key: kernel_filtration(nil_m, space) for key, space in spaces.items()}


@dataclass
class DefiningSlot:
    weight: Tuple[GaussRat, ...]   # torus weight on the defining column space
    vector: List[GaussRat]         # eigenvector in Q(i)^N
    block: int                     # factor index (diag pairs split per block)


@per_pair
def _defining_slots(pair: SymmetricPairRealization) -> List[DefiningSlot]:
    """Simultaneous eigenvectors of the split torus on the defining space,
    ordered by the pinned positivity element (descending values)."""
    n = pair.frame.n_def
    eigenspaces = _joint_eigenspaces((pair.from_coords(t) for t in pair.t_split_basis),
                                    ExactMatrix.identity(n).row_lists())
    slots = []
    h_t = coordinates_in_basis(pair.t_split_basis, pair.split_positivity)
    for w, space in eigenspaces:
        for vec in space:
            block = 0
            if pair.spec.family == "diag":
                k = n // 2
                block = 0 if any(not vec[i].is_zero() for i in range(k)) else 1
            slots.append(DefiningSlot(w, vec, block))
    slots.sort(key=lambda s: weight_value(s.weight, h_t).sort_key(), reverse=True)
    return slots


def _flag_witness(pair, slots: List[DefiningSlot], filtrations, y_t) -> List[Vector]:
    """Lie algebra of the Borel whose slice value pattern matches y.

    Each block's flag is `flag_of_word` of its slots' (block, y-value)
    letters: slot i takes the next vector of the kernel filtration of the
    nilpotent part on the eigenspace of the semisimple part whose
    eigenvalue equals the y-value of slot i; `filtrations` holds those
    filtrations per (block, eigenvalue).
    """
    words: Dict[int, List[Tuple[int, GaussRat]]] = {b: [] for b in sorted({s.block for s in slots})}
    for slot in slots:
        words[slot.block].append((slot.block, weight_value(slot.weight, y_t)))
    # stabilizer of the per-block flags inside g
    return flag_stabilizer(pair.frame, [flag_of_word(filtrations, w) for w in words.values()])


def kernel_filtration(nil_m, eigenspace) -> List[List[List[GaussRat]]]:
    """Increasing chain ker(nil^1) subset ker(nil^2) subset ... on the
    eigenspace; entry k-1 is a basis of ker(nil^k) with the new vector last."""
    if not eigenspace:
        return []
    d = len(eigenspace)
    restr = restrict_action(nil_m, eigenspace)
    if restr is None:
        raise CatalogError("nilpotent part does not preserve the eigenspace")
    chain = []
    power = ExactMatrix.identity(d)
    prev: List[List[GaussRat]] = []
    for k in range(1, d + 1):
        power = power @ restr
        kern = power.kernel_basis()
        if len(kern) != k:
            raise CatalogError("nilpotent part is not regular on the eigenspace")
        # prev is independent, so the greedy subset keeps it and appends
        stage = independent_subset(prev + [_combine(eigenspace, c) for c in kern])
        if len(stage) != k:
            raise CatalogError("kernel filtration step has the wrong dimension")
        chain.append(stage)
        prev = stage
    return chain


def flag_of_word(filtrations, word) -> List[List[GaussRat]]:
    """The flag that reads `word` along `filtrations` (letter -> a
    `kernel_filtration`): the j-th occurrence of a letter takes the new
    vector of stage j of its filtration, so every prefix of the flag spans
    the sum over its letters of ker(nil^count) on their eigenspaces."""
    taken = Counter()
    flag = []
    for letter in word:
        filt = filtrations.get(letter, [])
        k = taken[letter]
        if k >= len(filt):
            raise CatalogError("slot pattern exceeds the eigenspace filtration")
        taken[letter] = k + 1
        flag.append(filt[k][-1])
    return flag


def _verify_fiber_point(pair, z, ss1, nil1, witness) -> bool:
    """Exact checks; returns whether the literal characterization
    B(theta) = Z_B(X_ss) holds at this point.  The witness, z and their
    intersection are bases, so their lengths are their dimensions.

    With theta = diag(+1 on g0, -1 on g1), a span V meets g0 in dimension
    dim V - rank(g1 block of V) and g1 in dim V - rank(g0 block of V), and
    V is theta-stable exactly when it is the sum of those two.  B cap theta B
    is theta-stable, so it is (B cap g0) + (B cap g1); and Z_B(X_ss), once
    theta-stable, lies in B cap theta B, so the literal equality is one of
    dimensions."""
    expected_dim = (pair.dim_g + pair.rank_g) // 2
    if len(witness) != expected_dim:
        raise CatalogError("witness is not a Borel subalgebra (wrong dimension)")
    x1 = [a + b for a, b in zip(ss1, nil1)]
    if coordinates_in_basis(witness, x1) is None:
        raise CatalogError("element does not lie in its fiber Borel")
    z_b = intersect_spans(witness, z)
    # Z_B(X_ss) must be a regular theta-stable Borel subalgebra of the Levi
    if pair.g0_rank(z_b) + pair.g1_rank(z_b) != len(z_b):
        raise CatalogError("Z_B(X_ss) is not theta-stable")
    if len(z_b) != (len(z) + pair.rank_g) // 2:
        raise CatalogError("Z_B(X_ss) is not a Borel subalgebra of the Levi")
    if not vec_is_zero(nil1) and coordinates_in_basis(z_b, nil1) is None:
        raise CatalogError("nilpotent part escapes Z_B(X_ss)")
    b_theta_dim = 2 * len(witness) - pair.g0_rank(witness) - pair.g1_rank(witness)
    return b_theta_dim == len(z_b)


# -- G0 lifts of the little Weyl group and fiber conjugators --------------------


def g0_weyl_lifts(pair: SymmetricPairRealization) -> Dict[bytes, ExactMatrix]:
    """Full Ad matrices of G0 representatives for every little-Weyl element.

    Generators come from theta-adapted sl2 triples: for a real split root,
    n = exp(e) exp(theta e) exp(e) with f = -theta(e) (fixed by theta via
    the braid identity); for a complex pair, the product of the root braid
    with its theta image.  The table holds the elements the generators
    reach, which for the catalog pairs is all of W_a.
    """
    split = pair.split_roots
    neg = split.negation()
    units = ExactMatrix.identity(pair.dim_g).row_lists()
    gens: List[Tuple[bytes, ExactMatrix]] = []
    seen_orbits = set()
    for k in split.positive:
        if k in seen_orbits:
            continue
        img = split.theta_perm[k]
        e, f = split.root_vectors[k], split.root_vectors[neg[k]]
        if img == neg[k]:
            # real root: f = -theta(e); the triple normalization needs
            # alpha(-[e, theta e]) = 2, reachable by scaling e when 2/s is
            # a Gaussian square
            seen_orbits.update({k, neg[k]})
            scaled = _scale_real_root_vector(pair, split, k)
            if scaled is None:
                continue
            e, f = scaled
        elif img != k:
            seen_orbits.update({k, neg[k], img, neg[img]})
        else:
            continue
        lift = reflection_lift(pair, e, f, split.torus, split.weights[k])
        m = ExactMatrix.from_columns([lift(u) for u in units])
        if img != neg[k]:
            # complex pair: the braid commutes with its theta image exactly
            # when the two sl2's are orthogonal; then the product is fixed
            m_theta = pair.theta_conjugate(m)
            if m @ m_theta != m_theta @ m:
                continue
            m = m @ m_theta
        if pair.theta_conjugate(m) != m:
            continue
        try:
            perm = torus_action_perm(split, m)
        except CatalogError:
            continue
        gens.append((perm, m))

    return lift_closure(gens, split.nroots, ExactMatrix.identity(pair.dim_g))


def _scale_real_root_vector(pair, split, k: int):
    e = split.root_vectors[k]
    theta_e = pair.theta_apply(e)
    h = pair.bracket(e, [-c for c in theta_e])
    val = root_value(split.torus, split.weights[k], h)
    if val.is_zero():
        return None
    for cand in (GaussRat(2) / val, GaussRat(-2) / val):
        c = gauss_sqrt(cand)
        if c is not None:
            e2 = [c * x for x in e]
            f2 = [-x for x in pair.theta_apply(e2)]
            h2 = pair.bracket(e2, f2)
            if root_value(split.torus, split.weights[k], h2) == GaussRat(2):
                return e2, f2
    return None


# -- catalog sample elements -------------------------------------------------------


def regular_ss_element(pair: SymmetricPairRealization) -> ElementOfG1:
    """A regular semisimple element of a with trivial little-Weyl stabilizer."""
    coeffs = [GaussRat(3 ** j) for j in range(pair.rank_r1)]
    x = ElementOfG1.from_coords(pair, _combine(pair.a_basis, coeffs))
    if not is_regular(pair, x):
        raise CatalogError(f"{pair.pair_id}: canonical sample is not regular")
    return x


@per_pair
def mixed_degenerate_element(pair: SymmetricPairRealization) -> ElementOfG1:
    """A regular element whose semisimple part has a nontrivial little-Weyl
    stabilizer (for rank one, the regular nilpotent: the stabilizer of 0 is
    everything).  One element per pair, so its Jordan parts are computed
    once for all its readers."""
    n_def = pair.frame.n_def
    fam = pair.spec.family
    if pair.rank_r1 == 1:
        section = build_kw_section(pair)
        return ElementOfG1.from_coords(pair, section.e)
    if fam == "splitA":
        # eigenvalues (1, 1, 2, 3, ...) balanced to trace zero
        vals = [1, 1] + list(range(2, n_def - 1))
        vals.append(-sum(vals))
        ss_m = ExactMatrix.diagonal(vals)
        sym = {(0, 0): GaussRat(1), (0, 1): GaussRat(0, 1),
               (1, 0): GaussRat(0, 1), (1, 1): GaussRat(-1)}
        nil_m = ExactMatrix(n_def, n_def,
                            [sym.get((i, j), ZERO) for i in range(n_def)
                             for j in range(n_def)])
        x_m = ss_m + nil_m
    elif fam == "glgl":
        n = pair.spec.n
        d_vals = [1, 1] + list(range(2, n))
        entries = {}
        for j, d in enumerate(d_vals):
            entries[(j, n + j)] = GaussRat(d)
            entries[(n + j, j)] = GaussRat(d)
        entries[(0, n + 1)] = GaussRat(1)
        entries[(n + 0, 1)] = GaussRat(1)
        x_m = ExactMatrix(n_def, n_def,
                          [entries.get((i, j), ZERO) for i in range(n_def)
                           for j in range(n_def)])
    elif fam == "diag":
        k = n_def // 2
        vals = [1, 1] + list(range(2, k - 1))
        vals.append(-sum(vals))
        block = ExactMatrix.diagonal(vals)
        nil = ExactMatrix(k, k, [GaussRat(1) if (i, j) == (0, 1) else ZERO
                                 for i in range(k) for j in range(k)])
        s = block + nil
        x_m = ExactMatrix.block_diagonal(s, -s)
    else:
        raise CatalogError(f"{pair.pair_id}: no degenerate sample recipe")
    x = ElementOfG1.from_matrix(pair, x_m)
    if not is_regular(pair, x):
        raise CatalogError(f"{pair.pair_id}: degenerate sample is not regular")
    return x


# -- component census ------------------------------------------------------------


@dataclass
class ComponentCensus:
    pair_id: str
    total_points: int
    groups: List[List[int]]   # indices of W elements, grouped by component
    wa_order: int

    @property
    def group_count(self) -> int:
        return len(self.groups)


def component_census(pair: SymmetricPairRealization, x: ElementOfG1) -> ComponentCensus:
    """Partition the |W|-point fiber of the ambient fiber product over a
    regular semisimple element by the component containing each point."""
    pair.require_matrix_level()
    if not is_regular(pair, x):
        raise NotRegular("census needs a regular semisimple element")
    ss, nil = x.jordan_parts()
    if not vec_is_zero(nil):
        raise NotRegular("census needs a semisimple element")
    ad_g = conjugate_ss_into_a(pair, ss)
    x1 = ad_g.apply(gvec(x.coords))

    split = pair.split_roots
    points = _weyl_root_values(split, coordinates_in_basis(split.torus, x1),
                               enumerate_weyl(split.datum).elements)
    # Ad(n_w) fixes the centre, so the root values of w.x determine it
    if len(set(points.values())) != len(points):
        raise NotRegular("Weyl orbit is not free; element is not regular enough")

    # w.x is labelled by {v : v^{-1} w.x in a} = {w o u : u in inside}; as x
    # lies in a = t cap g1, w.x does exactly when theta negates its values
    theta = split.theta_perm
    inside = [invert(u) for u, pt in points.items()
              if all(pt[theta[k]] == -v for k, v in enumerate(pt))]
    labels: Dict[frozenset, List[int]] = {}
    for idx, w in enumerate(points):
        label = frozenset(compose(w, u) for u in inside)
        labels.setdefault(label, []).append(idx)
    groups = sorted(labels.values(), key=lambda g: g[0])
    wa = compute_subgroups(pair).Wa_perms
    for g in groups:
        if len(g) != len(wa):
            raise CatalogError("component group of unexpected size")
    if len(groups) != len(points) // len(wa):
        raise CatalogError("unexpected number of components")
    return ComponentCensus(pair.pair_id, len(points), groups, len(wa))


def _weyl_root_values(split: ConcreteRootData, y: Vector,
                      elements: List[bytes]) -> Dict[bytes, Tuple[GaussRat, ...]]:
    """The root values of w.y for every w of `elements`, in their order:
    alpha_k(M_w y) = alpha_{w^{-1}(k)}(y) (`SplitWeylLifts`)."""
    values = [weight_value(wt, y) for wt in split.weights]
    return {w: tuple(values[j] for j in invert(w)) for w in elements}


# -- centralizer pairs and the dimension audit -------------------------------------


@dataclass
class CentralizerClassAudit:
    regular: bool
    class_size: int
    audit_value: int          # dim g0 - dim(b(theta) cap g0) + dim(n(theta) cap g1)
    expected: int             # dim g1 - r1


@dataclass
class DimensionAudit:
    pair_id: str
    a_point: Vector
    component_count: int
    classes: List[CentralizerClassAudit]

    def passes(self) -> bool:
        return all(c.audit_value == c.expected for c in self.classes if c.regular)


def _cayley_to_fundamental(pair, z_basis: List[Vector], torus: List[Vector]):
    """Iterated Cayley transforms: replace real-root directions by compact
    ones until the torus of the centralizer subalgebra has no real roots."""
    frame = pair.frame
    torus = [gvec(t) for t in torus]
    for _ in range(64):
        try:
            decomposition = weight_decomposition(frame, torus, ambient=z_basis)
        except SplittingFieldTooLarge as exc:
            raise CentralizerTorusError(str(exc)) from exc
        theta_t = restrict_action(pair.theta_apply, torus)
        if theta_t is None:
            raise CentralizerTorusError("the torus is not theta-stable")
        roots = [(wt, space) for wt, space in decomposition if not all(x.is_zero() for x in wt)]
        weights = [wt for wt, _ in roots]
        perm = weight_perm(weights, theta_t)
        if perm is None:
            raise CatalogError("theta does not permute the centralizer's roots")
        # root k is real when alpha_k o theta = -alpha_k
        real = next((k for k, wt in enumerate(weights)
                     if weights[perm[k]] == tuple(-x for x in wt)), None)
        if real is None:
            return torus
        wt, space = roots[real]
        vec = space[0]
        theta_vec = pair.theta_apply(vec)
        new_dir = [a + b for a, b in zip(vec, theta_vec)]
        if vec_is_zero(new_dir) or not is_semisimple(pair.from_coords(new_dir)):
            raise CentralizerTorusError("Cayley direction is not semisimple")
        rank = len(torus)
        torus = independent_subset(_alpha_kernel(torus, wt) + [new_dir])
        if len(torus) != rank:
            raise CentralizerTorusError("Cayley transform changed the torus rank")
    raise CentralizerTorusError("Cayley iteration did not terminate")


def _alpha_kernel(torus, wt) -> List[Vector]:
    """Basis of ker(alpha) inside the torus span."""
    r = len(torus)
    rows = [[wt[i] for i in range(r)]]
    kern = ExactMatrix.from_rows(rows).kernel_basis()
    return [_combine(torus, coeffs) for coeffs in kern]


def fiber_component_dimensions(pair: SymmetricPairRealization,
                               a_point: Vector) -> DimensionAudit:
    """Per-component dimension audit of the restricted family over a point
    of the Cartan subspace.

    For each regular theta-stable Borel class of the centralizer pair,
    checks dim g0 - dim(b(theta) cap g0) + dim(n(theta) cap g1)
    = dim g1 - r1; the component count is the number of regular classes.
    At 0 the classes are those of `detect_regular_borels` on the pair's
    fundamental torus; elsewhere they come from `_centralizer_classes`.
    """
    pair.require_matrix_level()
    a_point = gvec(a_point)
    if coordinates_in_basis(pair.a_basis, a_point) is None:
        raise CatalogError("base point must lie in the Cartan subspace")
    if vec_is_zero(a_point):
        # the centralizer is all of g: the pair's own fundamental torus and
        # regular Borel classes
        rdata, classes = pair.fund_roots, detect_regular_borels(pair)
    else:
        rdata, classes = _centralizer_classes(pair, pair.frame.centralizer([a_point]))
    return _class_audit(pair, a_point, rdata, classes)


def _centralizer_classes(pair: SymmetricPairRealization,
                         z_basis: Optional[List[Vector]]
                         ) -> Tuple[ConcreteRootData, List[RegularClassReport]]:
    """Root data of a fundamental torus of the centralizer pair spanned by
    z_basis (all of g when None), reached by Cayley transforms from the
    split torus, and its theta-stable Borel classes."""
    t_fund = _cayley_to_fundamental(pair, z_basis, pair.t_split_basis)
    rdata = _fundamental_root_data(pair, z_basis, t_fund)
    w_theta = theta_fixed_subgroup(enumerate_weyl(rdata.datum), rdata.theta_perm)
    w0 = weyl_group_of_g0(pair, rdata, z_basis)
    return rdata, regular_classes(pair, rdata, w_theta, w0, z_basis)


def _class_audit(pair: SymmetricPairRealization, a_point: Vector, rdata: ConcreteRootData,
                 classes: List[RegularClassReport]) -> DimensionAudit:
    dim_g0 = pair.dim_g0
    dim_g1 = pair.dim_g1
    expected = dim_g1 - pair.rank_r1
    audits = []
    for cls in classes:
        positive = [cls.rep_perm[k] for k in rdata.positive]
        pos_vectors = [rdata.root_vectors[k] for k in positive]
        b_g0 = pair.g0_rank(rdata.torus + pos_vectors)
        n_g1 = pair.g1_rank(pos_vectors)
        audits.append(CentralizerClassAudit(
            regular=cls.regular,
            class_size=cls.class_size,
            audit_value=dim_g0 - b_g0 + n_g1,
            expected=expected,
        ))
    count = sum(1 for c in audits if c.regular)
    return DimensionAudit(pair.pair_id, a_point, count, audits)


def _fundamental_root_data(pair, z_basis, t_fund) -> ConcreteRootData:
    # positivity element: a theta-fixed torus element missing every root
    t0 = theta_eigen_basis(pair, t_fund)
    primes = [2, 3, 5, 7, 11, 13]
    last_error = None
    for scale in range(1, 6):
        coeffs = [GaussRat(primes[j % len(primes)] ** scale) for j in range(len(t0))]
        h0 = _combine(t0, coeffs) if t0 else [ZERO] * pair.dim_g
        try:
            return build_concrete_root_data(pair.frame, t_fund, pair.theta_apply, h0,
                                            ambient=z_basis)
        except ValueError as exc:
            last_error = exc
    raise CentralizerTorusError(f"no regular positivity element found: {last_error}")
