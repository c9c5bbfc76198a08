"""Shared matrix-Lie-algebra machinery for the pair catalog.

Everything here works relative to a realized pair: conversions between
N x N matrices and coordinates in the adapted basis, structure constants,
adjoint matrices, simultaneous eigenspace decompositions under a torus,
and the packaging of a concrete root system (with involution and
compactness tags) into an abstract root datum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .gaussian import GaussRat, ONE, ZERO
from .jordan import eigenspaces
from .matrix import (
    PRIME,
    ExactMatrix,
    coordinates_in_basis,
    modular_rank,
    residue,
    restrict_action,
)
from .rootsystem import RootDatum

Vector = List[GaussRat]
SparseVector = Dict[int, GaussRat]   # index -> nonzero entry
Adjoint = Callable[[Sequence], Vector]   # Ad(g) on coordinates


def gvec(values) -> Vector:
    return [v if isinstance(v, GaussRat) else GaussRat.of(v) for v in values]


def vec_is_zero(a: Vector) -> bool:
    return all(x.is_zero() for x in a)


def sparse_sum(terms: Iterable[Tuple[GaussRat, SparseVector]]) -> SparseVector:
    """The sum of c * v over pairs of a scalar c and a sparse vector v, zero
    entries dropped, so two sums are equal exactly when their dicts are."""
    acc: SparseVector = {}
    for c, vec in terms:
        for k, x in vec.items():
            acc[k] = acc.get(k, ZERO) + c * x
    return {k: x for k, x in acc.items() if not x.is_zero()}


def _product_terms(left, right, n: int, sign: GaussRat):
    """sign * L @ R as sparse_sum terms on flat indices r * n + column: each
    nonzero entry L[r, m] = a, given as (r, m, a), times row m of R (rows
    given as {m: [(column, b)]}) placed in row r."""
    for r, m, a in left:
        row = right.get(m)
        if row:
            yield sign * a, {r * n + col: b for col, b in row}


def _residue_rows(terms: Sequence[Sequence[Tuple[int, int]]], xs: Sequence[int],
                  n: int) -> List[List[int]]:
    """The rows of the n x n matrix sum_k xs[k] T_k mod PRIME, where terms[k]
    lists the (flat index, residue) of the nonzero entries of T_k."""
    flat = [0] * (n * n)
    for x, row in zip(xs, terms):
        if x:
            for f, c in row:
                flat[f] += c * x
    return [[v % PRIME for v in flat[r * n:(r + 1) * n]] for r in range(n)]


class LinearAlgebraFrame:
    """Coordinates, brackets and adjoint matrices for a matrix Lie algebra
    given by an explicit basis inside gl(N)."""

    def __init__(self, basis: Sequence[ExactMatrix]):
        self.basis = list(basis)
        self.dim = len(self.basis)
        self.n_def = basis[0].rows
        self._basis_mat = ExactMatrix.from_columns([b.entries for b in self.basis])
        bt = self._basis_mat.transpose()
        gram = bt @ self._basis_mat
        self._solver = gram.inverse() @ bt  # exact pseudo-inverse (full column rank)
        self._table: Optional[List[List[SparseVector]]] = None
        self._terms: Optional[List[Tuple[int, int, GaussRat]]] = None
        self._entries: Optional[List[Tuple[int, int, int, GaussRat]]] = None

    # -- conversions ------------------------------------------------------

    def to_coords(self, m: ExactMatrix) -> Vector:
        coords = self.maybe_coords(m)
        if coords is None:
            raise ValueError("matrix is not in the algebra's span")
        return coords

    def maybe_coords(self, m: ExactMatrix) -> Optional[Vector]:
        flat = list(m.entries)
        coords = self._solver.apply(flat)
        if self._basis_mat.apply(coords) != flat:
            return None
        return coords

    def from_coords(self, coords: Sequence) -> ExactMatrix:
        coords = gvec(coords)
        acc = ExactMatrix.zero(self.n_def, self.n_def)
        for c, b in zip(coords, self.basis):
            if not c.is_zero():
                acc = acc + b.scale(c)
        return acc

    def adjoint(self, g: ExactMatrix, g_inv: ExactMatrix) -> Adjoint:
        """Ad(g) on coordinates, v -> g v g^{-1}, for g in GL(N) normalizing
        the algebra, given with its inverse g_inv: the one adjoint action."""
        return lambda v: self.to_coords(g @ self.from_coords(v) @ g_inv)

    # -- brackets ----------------------------------------------------------

    def structure_table(self) -> List[List[SparseVector]]:
        """The structure constants, built once: table[i][j] = {k: c} for
        the nonzero c with [b_i, b_j] = sum_k c b_k, so table[i][j] holds
        the nonzero entries of column j of ad(b_i).

        Each bracket with i < j is computed once: the commutator is
        multiplied out over the nonzero basis-matrix entries, its
        coordinates are read through the nonzero entries of the
        pseudo-inverse, and they must rebuild the commutator exactly.  The
        basis is independent (its Gram matrix is inverted), so these are the
        only coordinates: table[j][i] is their negation, table[i][i] is
        empty, and the table is the commutator of gl(N) on a subspace closed
        under it, so it is antisymmetric and satisfies Jacobi."""
        if self._table is None:
            n, dim = self.n_def, self.dim
            entries = [[] for _ in range(dim)]   # entries[k] = [(r, column, c)] of B_k
            rows = [{} for _ in range(dim)]      # rows[k] = {r: [(column, c)]} of B_k
            flat = [{} for _ in range(dim)]      # flat[k] = {r * n + column: c} of B_k
            for k, r, col, c in self._basis_entries():
                entries[k].append((r, col, c))
                rows[k].setdefault(r, []).append((col, c))
                flat[k][r * n + col] = c
            # solver_cols[f] = {k: s}, the nonzero entries of pseudo-inverse column f
            solver_cols = [{} for _ in range(n * n)]
            for index, s in enumerate(self._solver.entries):
                if not s.is_zero():
                    k, f = divmod(index, n * n)
                    solver_cols[f][k] = s
            table = [[{} for _ in range(dim)] for _ in range(dim)]
            for i in range(dim):
                for j in range(i + 1, dim):
                    commutator = sparse_sum(chain(_product_terms(entries[i], rows[j], n, ONE),
                                                  _product_terms(entries[j], rows[i], n, -ONE)))
                    coords = sparse_sum((v, solver_cols[f]) for f, v in commutator.items())
                    if sparse_sum((c, flat[k]) for k, c in coords.items()) != commutator:
                        raise ValueError("matrix is not in the algebra's span")
                    table[i][j] = coords
                    table[j][i] = {k: -c for k, c in coords.items()}
            self._table = table
        return self._table

    def _structure_terms(self) -> List[Tuple[int, int, GaussRat]]:
        """The nonzero structure constants as (i, flat index, c) with
        C_i.entries[flat index] = c, in increasing order of i and then of
        the flat index."""
        if self._terms is None:
            self._terms = [(i, f, c)
                           for i, row in enumerate(self.structure_table())
                           for f, c in sorted((k * self.dim + j, c)
                                              for j, col in enumerate(row)
                                              for k, c in col.items())]
        return self._terms

    def _basis_entries(self) -> List[Tuple[int, int, int, GaussRat]]:
        """The nonzero entries of the basis matrices as (k, row, column, c)
        with basis[k][row, column] = c, in increasing order of k."""
        if self._entries is None:
            self._entries = [(k, *divmod(f, self.n_def), c)
                             for k, b in enumerate(self.basis)
                             for f, c in enumerate(b.entries) if not c.is_zero()]
        return self._entries

    @cached_property
    def _structure_residues(self) -> Optional[List[List[Tuple[int, int]]]]:
        """The structure constants reduced mod PRIME, built once: entry i
        lists (flat index, residue) for the nonzero constants of C_i, or
        None when some constant has no residue."""
        out = [[] for _ in range(self.dim)]
        for i, f, c in self._structure_terms():
            r = residue(c)
            if r is None:
                return None
            out[i].append((f, r))
        return out

    @cached_property
    def _basis_residues(self) -> Optional[List[List[Tuple[int, int]]]]:
        """The basis matrices reduced mod PRIME, built once: entry k lists
        (flat index, residue) for the nonzero entries of basis[k], or None
        when some entry has no residue."""
        out = [[] for _ in range(self.dim)]
        for k, r, col, c in self._basis_entries():
            x = residue(c)
            if x is None:
                return None
            out[k].append((r * self.n_def + col, x))
        return out

    def ad_rank_mod_p(self, coords: Sequence) -> Optional[int]:
        """The rank of ad(coords) reduced mod PRIME, a lower bound on the
        rank of `ad(coords)`, built from the structure residues without the
        exact matrix; None when a coordinate or a structure constant has no
        residue."""
        xs = [residue(c) for c in gvec(coords)]
        return None if None in xs else self.ad_rank_from_residues(xs)

    def ad_rank_from_residues(self, xs: Sequence[int]) -> Optional[int]:
        """The rank over F_PRIME of ad x, for x given by its coordinate
        residues; None when a structure constant has no residue."""
        terms = self._structure_residues
        return None if terms is None else modular_rank(_residue_rows(terms, xs, self.dim))

    def matrix_from_residues(self, xs: Sequence[int]) -> Optional[List[List[int]]]:
        """The rows of `from_coords` reduced mod PRIME, for coordinates given
        by their residues; None when a basis entry has no residue."""
        terms = self._basis_residues
        return None if terms is None else _residue_rows(terms, xs, self.n_def)

    def ad(self, coords: Sequence) -> ExactMatrix:
        coords = gvec(coords)
        live = [not c.is_zero() for c in coords]
        flat = [ZERO] * (self.dim * self.dim)
        for i, f, c in self._structure_terms():
            if live[i]:
                flat[f] = flat[f] + c * coords[i]
        return ExactMatrix(self.dim, self.dim, flat)

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        x, y = gvec(x), gvec(y)
        x_live = [not c.is_zero() for c in x]
        y_live = [not c.is_zero() for c in y]
        out = [ZERO] * self.dim
        for i, f, c in self._structure_terms():
            if x_live[i]:
                k, j = divmod(f, self.dim)
                if y_live[j]:
                    out[k] = out[k] + c * x[i] * y[j]
        return out

    def centralizer(self, vectors: Sequence[Vector],
                    ambient: Optional[Sequence[Vector]] = None) -> List[Vector]:
        """Basis of the joint kernel of ad(v) inside a subspace (default g)."""
        if ambient is not None:
            space = [gvec(v) for v in ambient]
        elif vectors:
            space, vectors = self.ad(vectors[0]).kernel_basis(), vectors[1:]
        else:
            space = ExactMatrix.identity(self.dim).row_lists()
        for v in vectors:
            if not space:
                break
            admat = self.ad(v)
            images = [admat.apply(s) for s in space]
            coeff_mat = ExactMatrix.from_columns(images)
            kern = coeff_mat.kernel_basis()
            space = [_combine(space, c) for c in kern]
        return space


def flag_stabilizer(frame: LinearAlgebraFrame,
                    flags: Sequence[Sequence[Sequence[GaussRat]]]) -> List[Vector]:
    """Basis (in frame coordinates) of {M in g : M F subset F for every step
    F of every flag}, where step j of a flag spans its first j vectors.

    Only the newest vector v_j of step F_j needs a condition, phi(M v_j) = 0
    for every functional phi vanishing on F_j: the older vectors v_i already
    satisfy M v_i in F_i subset F_j.  The row of phi has entry
    phi(B_k v_j) at basis matrix B_k, summed over the nonzero entries of B_k."""
    entries = frame._basis_entries()
    rows = []
    for flag in flags:
        for j, v in enumerate(flag, 1):
            functionals = ExactMatrix.from_rows(flag[:j]).kernel_basis()
            if not functionals:
                continue
            # the nonzero terms B_k[r, c] v_c of the images B_k v, as (k, r, term)
            terms = [(k, r, c * v[col]) for k, r, col, c in entries if not v[col].is_zero()]
            for phi in functionals:
                row = [ZERO] * frame.dim
                for k, r, t in terms:
                    if not phi[r].is_zero():
                        row[k] = row[k] + phi[r] * t
                rows.append(row)
    if not rows:
        return ExactMatrix.identity(frame.dim).row_lists()
    return ExactMatrix.from_rows(rows).kernel_basis()


def weight_value(weight: Sequence[GaussRat], torus_coords: Sequence[GaussRat]) -> GaussRat:
    """A torus weight paired with a torus element given by its coordinates
    on the same torus basis."""
    return sum((c * w for c, w in zip(torus_coords, weight)), ZERO)


def _combine(vectors: Sequence[Vector], coeffs: Sequence[GaussRat]) -> Vector:
    acc = [ZERO] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if not c.is_zero():
            acc = [a + c * x for a, x in zip(acc, v)]
    return acc


# -- simultaneous eigenspace decomposition ----------------------------------


def weight_decomposition(
    frame: LinearAlgebraFrame,
    torus: Sequence[Vector],
    ambient: Optional[Sequence[Vector]] = None,
) -> List[Tuple[Tuple[GaussRat, ...], List[Vector]]]:
    """Split a subspace into joint ad-eigenspaces of the torus vectors.

    Returns (weight tuple, basis) pairs sorted by weight.  Raises
    SplittingFieldTooLarge if some restriction fails to split over Q(i).
    """
    if ambient is None:
        ambient = ExactMatrix.identity(frame.dim).row_lists()
    return _joint_eigenspaces((frame.ad(t) for t in torus), ambient)


def _joint_eigenspaces(
    operators: Iterable[ExactMatrix],
    ambient: Sequence[Vector],
) -> List[Tuple[Tuple[GaussRat, ...], List[Vector]]]:
    """Split span(ambient) into joint eigenspaces of commuting operators
    that preserve it.  Each operator refines the spaces found so far in
    sorted eigenvalue order, so the (weight tuple, basis) pairs come out
    sorted by weight."""
    spaces = [[gvec(v) for v in ambient]]
    weights = [tuple()]
    for op in operators:
        new_spaces: List[List[Vector]] = []
        new_weights = []
        for w, space in zip(weights, spaces):
            restriction = restrict_action(op, space)
            if restriction is None:
                raise ValueError("an operator does not preserve the subspace")
            for lam, kern in eigenspaces(restriction):
                new_spaces.append([_combine(space, c) for c in kern])
                new_weights.append(w + (lam,))
        spaces = new_spaces
        weights = new_weights
    return list(zip(weights, spaces))


# -- concrete root data ------------------------------------------------------


@dataclass
class ConcreteRootData:
    """Roots of a theta-stable torus on g, tied to an abstract datum.

    Index k refers simultaneously to `weights[k]` (the root as a value
    tuple on `torus`), `root_vectors[k]` (a basis vector of the root
    space) and `datum.all_roots[k]` (simple-root coordinates).
    """

    frame: LinearAlgebraFrame
    torus: List[Vector]
    weights: List[Tuple[GaussRat, ...]]
    root_vectors: List[Vector]
    datum: RootDatum
    theta_perm: bytes
    positive: Tuple[int, ...]
    compactness: Dict[int, str]

    @property
    def nroots(self) -> int:
        return len(self.weights)

    def weight_index(self, w: Tuple[GaussRat, ...]) -> int:
        return self.weights.index(w)

    def negation(self) -> bytes:
        neg = []
        for w in self.weights:
            target = tuple(-x for x in w)
            neg.append(self.weight_index(target))
        return bytes(neg)

    def simple_indices_of(self, positive: Sequence[int]) -> List[int]:
        """Indices of the simple roots of a positive system."""
        return _simple_indices(self.weights, positive)

    def classify(self, k: int) -> str:
        """real / imaginary / complex status of root k under theta."""
        img = self.theta_perm[k]
        if img == k:
            return "imaginary"
        if self.weights[img] == tuple(-x for x in self.weights[k]):
            return "real"
        return "complex"


def is_positive_value(value: GaussRat) -> bool:
    return value.re > 0 or (value.re == 0 and value.im > 0)


def build_concrete_root_data(
    frame: LinearAlgebraFrame,
    torus: Sequence[Vector],
    theta: Callable[[Vector], Vector],
    regular_element: Vector,
    ambient: Optional[Sequence[Vector]] = None,
) -> ConcreteRootData:
    """Decompose a (sub)algebra under the torus and package the root system.

    `regular_element` (coordinates of a torus element) defines positivity
    through the lexicographic order on Q(i); it must not annihilate any
    root.  `theta` applies the involution to coordinates.  Compactness is
    tagged through the theta eigenvalue on imaginary root spaces.
    """
    torus = [gvec(t) for t in torus]
    decomposition = weight_decomposition(frame, torus, ambient=ambient)
    zero_dim = 0
    weights: List[Tuple[GaussRat, ...]] = []
    vectors: List[Vector] = []
    for w, space in decomposition:
        if all(x.is_zero() for x in w):
            zero_dim += len(space)
            continue
        if len(space) != 1:
            raise ValueError(
                f"torus is not regular: root space of weight {w} has dimension {len(space)}")
        weights.append(w)
        vectors.append(space[0])
    if zero_dim != len(torus):
        raise ValueError("torus is not its own centralizer; not a maximal torus")
    if zero_dim + len(weights) != (frame.dim if ambient is None else len(ambient)):
        raise ValueError("torus does not act semisimply: its weight spaces do not span")

    # evaluate roots on the regular element to fix a positive system
    reg_coeffs = coordinates_in_basis(torus, regular_element)
    if reg_coeffs is None:
        raise ValueError("regular element must lie in the torus")
    values = []
    for w in weights:
        v = weight_value(w, reg_coeffs)
        if v.is_zero():
            raise ValueError("positivity element is not regular")
        values.append(v)
    positive = tuple(k for k, v in enumerate(values) if is_positive_value(v))

    # theta action on roots: theta is an involution, so alpha_perm(k) o theta
    # = alpha_k says alpha_k o theta = alpha_perm(k)
    theta_t = restrict_action(theta, torus)
    if theta_t is None:
        raise ValueError("torus is not theta-stable")
    perm = weight_perm(weights, theta_t)
    if perm is None:
        raise ValueError("theta does not permute the roots")

    datum = _abstract_datum(weights, positive)

    compactness = {}
    for k, vec in enumerate(vectors):
        if perm[k] != k:
            continue
        img = theta(vec)
        if img == vec:
            compactness[k] = "compact"
        elif img == [-x for x in vec]:
            compactness[k] = "noncompact"
        else:
            raise ValueError("imaginary root space is not a theta eigenvector")

    return ConcreteRootData(
        frame=frame,
        torus=list(torus),
        weights=weights,
        root_vectors=vectors,
        datum=datum,
        theta_perm=perm,
        positive=positive,
        compactness=compactness,
    )


def weight_perm(weights: Sequence[Tuple[GaussRat, ...]],
                torus_matrix: ExactMatrix) -> Optional[bytes]:
    """Permutation induced on the roots (given by their weights on a torus
    basis) by an action m on the torus (a matrix on that basis):
    alpha_k o m^{-1} = alpha_perm(k), or None unless alpha -> alpha o m is
    a bijection of the roots.

    Read without inverting m, as alpha_perm(k) o m = alpha_k: the weight
    alpha o m has coordinates m^T alpha, and perm(k) is the j whose image
    is alpha_k."""
    on_weights = torus_matrix.transpose()
    weight_map = {w: k for k, w in enumerate(weights)}
    perm: List[Optional[int]] = [None] * len(weights)
    for j, w in enumerate(weights):
        k = weight_map.get(tuple(on_weights.apply(w)))
        if k is None or perm[k] is not None:
            return None
        perm[k] = j
    return bytes(perm)


def _simple_indices(weights, positive: Sequence[int]) -> List[int]:
    """The positive roots that are not the sum of two positive roots."""
    pos_set = set(positive)
    weight_map = {w: k for k, w in enumerate(weights)}
    simples = []
    for k in positive:
        if not any(weight_map.get(tuple(x - y for x, y in zip(weights[k], weights[a])))
                   in pos_set for a in positive if a != k):
            simples.append(k)
    return simples


def _abstract_datum(weights, positive) -> RootDatum:
    """Coordinates of every root in the simple basis, plus the Cartan
    matrix recovered from root strings."""
    simples = _simple_indices(weights, positive)
    rank = len(simples)
    simple_vecs = [weights[s] for s in simples]
    mat = ExactMatrix.from_columns(simple_vecs)
    coords: List[Tuple[int, ...]] = []
    for w in weights:
        sol = mat.solve(w)
        if sol is None:
            raise ValueError("root outside the lattice of simple roots")
        ints = []
        for c in sol:
            if c.im != 0 or c.re.denominator != 1:
                raise ValueError("non-integral simple-root coordinates")
            ints.append(int(c.re))
        coords.append(tuple(ints))
    coord_set = set(coords)

    def string_pairing(j: int, i: int) -> int:
        # <alpha_j, alpha_i coroot> = p - q for the alpha_i string through alpha_j
        if i == j:
            return 2
        cj = coords[j]
        ci = coords[i]
        p = 0
        cur = tuple(a - b for a, b in zip(cj, ci))
        while cur in coord_set:
            p += 1
            cur = tuple(a - b for a, b in zip(cur, ci))
        q = 0
        cur = tuple(a + b for a, b in zip(cj, ci))
        while cur in coord_set:
            q += 1
            cur = tuple(a + b for a, b in zip(cur, ci))
        return p - q

    cartan = [[string_pairing(simples[j], simples[i]) for j in range(rank)]
              for i in range(rank)]
    return RootDatum(rank, cartan, coords)
