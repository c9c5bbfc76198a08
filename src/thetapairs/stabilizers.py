"""Regular stabilizers: abelian planes, the tangent solver, finite
stabilizer fibers, and lattice models of the fixed torus.

The tangent computation witnesses smoothness of the centralizer map at
regular planes; stabilizer fibers are solved explicitly for the rank-one
groups where the finite contrast (SL2 vs PGL2) lives; everything about
fixed tori runs on character lattices so both isogeny types are handled
by swapping the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .gaussian import GaussRat, ZERO
from .lattice import IntLattice, smith_normal_form
from .liealg import Vector, gvec, vec_is_zero
from .matrix import ExactMatrix, coordinates_in_basis, independent_subset, span_rank
from .pairs import CatalogError, SymmetricPairRealization
from .slices import ElementOfG1, NotRegular, is_regular


class UnsupportedStabilizer(Exception):
    pass


# -- abelian planes -------------------------------------------------------------


@dataclass
class AbelianPlane:
    pair: SymmetricPairRealization
    basis: List[Vector]
    source: Optional[Vector] = None   # regular element with this centralizer

    def __post_init__(self):
        for i, x in enumerate(self.basis):
            if not self.pair.in_g1(x):
                raise CatalogError("plane basis vector outside g1")
            for y in self.basis[i:]:
                if not vec_is_zero(self.pair.bracket(x, y)):
                    raise CatalogError("plane is not abelian")


def centralizer_plane(pair: SymmetricPairRealization, x) -> AbelianPlane:
    """z_{g1}(x) for a regular x; dimension is exactly r1."""
    coords = x.coords if isinstance(x, ElementOfG1) else gvec(x)
    if not is_regular(pair, coords):
        raise NotRegular("centralizer_plane needs a regular element")
    space = pair.frame.centralizer([coords], ambient=pair.g1_basis_coords())
    if len(space) != pair.rank_r1:
        raise CatalogError("regular centralizer in g1 has the wrong dimension")
    return AbelianPlane(pair, space, source=list(coords))


# -- tangent space of the abelian-plane variety ---------------------------------


@dataclass
class TangentReport:
    solution_dimension: int
    expected_dimension: int
    evaluation_bijective: Optional[bool]   # None when the plane has no source

    @property
    def passes(self) -> bool:
        return (self.solution_dimension == self.expected_dimension
                and self.evaluation_bijective in (True, None))


def tangent_space_solver(pair: SymmetricPairRealization,
                         plane: AbelianPlane) -> TangentReport:
    """Solve [T(y1), y2] + [y1, T(y2)] = 0 for T: c -> g1/c.

    The solution space must have dimension dim g1 - r1 at planes coming
    from regular centralizers, with the evaluation T -> T(x) a bijection
    onto g1/c; for hand-built planes the result is reported, not asserted.
    """
    c = plane.basis
    r = len(c)
    # a complement of c in g1; the basis of c is independent, so the greedy
    # subset keeps it
    comp = independent_subset(c + pair.g1_basis_coords())[r:]
    m = len(comp)  # dim g1/c
    # unknowns: T[i][k] = coefficient of comp[k] in T(c_i)
    nvars = r * m
    rows: List[List[GaussRat]] = []
    for i in range(r):
        for j in range(i + 1, r):
            # [T(c_i), c_j] + [c_i, T(c_j)] = 0 in g0
            row_block = [[ZERO] * nvars for _ in range(pair.dim_g)]
            for k in range(m):
                v1 = pair.bracket(comp[k], c[j])
                v2 = pair.bracket(c[i], comp[k])
                for t in range(pair.dim_g):
                    row_block[t][i * m + k] = row_block[t][i * m + k] + v1[t]
                    row_block[t][j * m + k] = row_block[t][j * m + k] + v2[t]
            rows.extend(row_block)
    if rows:
        kern = ExactMatrix.from_rows(rows).kernel_basis()
    else:
        kern = ExactMatrix.identity(nvars).row_lists()
    expected = pair.dim_g1 - pair.rank_r1
    eval_bij: Optional[bool] = None
    if plane.source is not None:
        x_coords = coordinates_in_basis(c, plane.source)
        if x_coords is None:
            raise CatalogError("plane source does not lie in the plane")
        eval_rows = []
        for sol in kern:
            image = [ZERO] * m
            for i in range(r):
                for k in range(m):
                    image[k] = image[k] + x_coords[i] * sol[i * m + k]
            eval_rows.append(image)
        eval_rank = span_rank(eval_rows)
        eval_bij = (eval_rank == m and len(kern) == m)
    return TangentReport(len(kern), expected, eval_bij)


# -- finite stabilizer fibers -----------------------------------------------------


@dataclass
class StabilizerFiber:
    pair_id: str
    identity_component_dim: int
    component_elements: List[ExactMatrix]    # one representative per component
    character_values: List[List[GaussRat]]   # per element, value on each split root

    @property
    def component_count(self) -> int:
        return len(self.component_elements)


def stabilizer_fiber(pair: SymmetricPairRealization,
                     plane: AbelianPlane) -> StabilizerFiber:
    """Solve Ad(g) b = b for all b in the plane with g in G0, for the
    supported rank-one matrix pairs (sl2/so2 as SL2, glgl n=1); other
    stabilizers need algebraic-group machinery that is out of scope."""
    spec = pair.spec
    if spec.family == "splitA" and spec.n == 1:
        return _so2_stabilizer(pair, plane)
    if spec.family == "glgl" and spec.n == 1:
        return _gl1gl1_stabilizer(pair, plane)
    raise UnsupportedStabilizer(
        f"{pair.pair_id}: stabilizer fibers computed only for sl2/so2 and glgl:n=1")


def _character_values(pair, g: ExactMatrix) -> List[GaussRat]:
    """Value of each split root character on a group element commuting
    with the split torus: the scalar by which Ad(g) acts on the root space."""
    split = pair.split_roots
    g_inv = g.inverse()
    out = []
    for vec in split.root_vectors:
        image = pair.to_coords(g @ pair.from_coords(vec) @ g_inv)
        coeff = coordinates_in_basis([vec], image)
        if coeff is None:
            raise CatalogError("element does not normalize the root space")
        out.append(coeff[0])
    return out


def _so2_stabilizer(pair, plane) -> StabilizerFiber:
    # G0 = SO(2) = {a I + b J}, J the rotation generator
    j = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    ident = ExactMatrix.identity(2)
    # commuting condition is linear in (a, b): b [J, V] = 0 for V in the plane
    b_allowed = all(j.commutator(pair.from_coords(v)).is_zero() for v in plane.basis)
    if b_allowed:
        # the whole SO(2) fixes the plane: positive-dimensional fiber
        return StabilizerFiber(pair.pair_id, 1, [ident],
                               [_character_values(pair, ident)])
    elements = [ident, ident.scale(GaussRat(-1))]
    values = [_character_values(pair, g) for g in elements]
    return StabilizerFiber(pair.pair_id, 0, elements, values)


def _gl1gl1_stabilizer(pair, plane) -> StabilizerFiber:
    # G0 = {diag(s, t)}; Ad(diag(s,t)) scales E12 by s/t and E21 by t/s
    needs_ratio_one = False
    for v in plane.basis:
        m = pair.from_coords(v)
        if not (m[0, 1].is_zero() and m[1, 0].is_zero()):
            needs_ratio_one = True
    ident = ExactMatrix.identity(2)
    if needs_ratio_one:
        # stabilizer = scalars GL1: connected, one component
        return StabilizerFiber(pair.pair_id, 1, [ident],
                               [_character_values(pair, ident)])
    return StabilizerFiber(pair.pair_id, 2, [ident],
                           [_character_values(pair, ident)])


# -- lattice models of the fixed torus ---------------------------------------------


@dataclass(frozen=True)
class TorusLatticeModel:
    name: str
    lattice: IntLattice                       # X*(T) with the theta_can action
    roots: Tuple[Tuple[int, ...], ...]        # roots as lattice vectors
    isogeny_type: str                         # simply_connected_derived | adjoint

    def theta_matrix(self) -> List[List[int]]:
        return self.lattice.endo_matrix()


def lattice_model(name: str) -> TorusLatticeModel:
    """Catalog lattice models for the canonical involution on T."""
    if name == "sl2_split":
        # X*(T) = Z (weight chi), theta_can = -1, root alpha = 2 chi
        return TorusLatticeModel("sl2_split", IntLattice(1, ((-1,),)),
                                 ((2,),), "simply_connected_derived")
    if name == "pgl2_split":
        # X*(T) = root lattice Z alpha, theta_can = -1
        return TorusLatticeModel("pgl2_split", IntLattice(1, ((-1,),)),
                                 ((1,),), "adjoint")
    if name == "diag_sl2":
        # X*(T x T) = Z^2, theta_can = swap; roots (2,0), (0,2) in weight coords
        return TorusLatticeModel("diag_sl2",
                                 IntLattice(2, ((0, 1), (1, 0))),
                                 ((2, 0), (0, 2)), "simply_connected_derived")
    if name == "glgl1":
        # X*(GL1 x GL1) = Z^2, theta_can = swap; root e1 - e2
        return TorusLatticeModel("glgl1",
                                 IntLattice(2, ((0, 1), (1, 0))),
                                 ((1, -1),), "simply_connected_derived")
    raise CatalogError(f"unknown lattice model {name!r}")


@dataclass
class FixedTorusElement:
    """An element of the finite part of T^theta_can: residues against the
    invariant-factor decomposition of X*(T)/(1-theta)X*(T)."""

    residues: Tuple[int, ...]   # m_i modulo d_i


@dataclass
class TorusFixedReport:
    model: TorusLatticeModel
    free_rank: int                 # dim of the identity component
    torsion: Tuple[int, ...]       # invariant factors > 1
    u_matrix: List[List[int]]      # row transform of the Smith form of 1-theta
    torsion_positions: Tuple[int, ...]

    @property
    def component_order(self) -> int:
        order = 1
        for d in self.torsion:
            order *= d
        return order

    def finite_elements(self) -> List[FixedTorusElement]:
        out: List[List[int]] = [[]]
        for d in self.torsion:
            out = [prev + [m] for prev in out for m in range(d)]
        return [FixedTorusElement(tuple(res)) for res in out]


def torus_fixed_points(model: TorusLatticeModel) -> TorusFixedReport:
    """Structure of T^theta_can from the Smith form of 1 - theta_can on
    X*(T): characters of the fixed group are the coinvariants."""
    theta = model.theta_matrix()
    r = model.lattice.rank
    m = [[(1 if i == j else 0) - theta[i][j] for j in range(r)] for i in range(r)]
    d, u, v = smith_normal_form(m)
    diag = [d[i][i] for i in range(min(r, len(d[0]) if d else 0))]
    torsion = tuple(x for x in diag if x > 1)
    positions = tuple(i for i, x in enumerate(diag) if x > 1)
    free = sum(1 for x in diag if x == 0)
    return TorusFixedReport(model, free, torsion, u, positions)


def character_on_element(report: TorusFixedReport, alpha: Sequence[int],
                         element: FixedTorusElement):
    """The value of a root character on a finite fixed-torus element, as a
    pair (numerator, modulus): the value is the root of unity
    exp(2 pi i * numerator / modulus); modulus divides 4 in the catalog."""
    u = report.u_matrix
    r = len(u)
    alpha_u = [sum(u[i][j] * alpha[j] for j in range(r)) for i in range(r)]
    num = 0
    den = 1
    for m_i, pos, d_i in zip(element.residues, report.torsion_positions,
                             report.torsion):
        contribution_num = m_i * alpha_u[pos]
        num = num * d_i + contribution_num * den
        den = den * d_i
    if den == 0:
        return (0, 1)
    g = gcd(abs(num), den) or 1
    num, den = num // g, den // g
    return (num % den if den else 0, den)


def admissibility_condition(report: TorusFixedReport, alpha: Sequence[int],
                            element: FixedTorusElement) -> str:
    """Condition (C_alpha): the element is excluded exactly when the root
    takes the value -1 on it."""
    num, den = character_on_element(report, alpha, element)
    is_minus_one = (den == 2 and num % 2 == 1)
    return "excluded" if is_minus_one else "admissible"


def admissible_elements(model: TorusLatticeModel) -> Tuple[TorusFixedReport, List[FixedTorusElement]]:
    """The finite fixed-torus elements passing (C_alpha) for every root."""
    report = torus_fixed_points(model)
    good = []
    for element in report.finite_elements():
        if all(admissibility_condition(report, alpha, element) == "admissible"
               for alpha in model.roots):
            good.append(element)
    return report, good
