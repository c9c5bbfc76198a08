"""Root systems and Weyl groups as permutation groups on roots.

Roots live in the simple-root coordinate basis (integer tuples), so every
reflection is an exact integer map.  Weyl elements are stored as bytes
permutations of the root list; composition is a single bytes.translate,
which keeps the E6 enumeration (51840 elements on 72 roots) well inside
the time budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .gaussian import GaussRat
from .matrix import ExactMatrix, restrict_action

Coords = Tuple[int, ...]

ENUMERATION_BOUND = 60_000


class EnumerationBoundExceeded(Exception):
    pass


class UnsupportedType(Exception):
    pass


class UnrecognizedSignature(Exception):
    pass


# -- Cartan matrices -------------------------------------------------------
#
# Convention: cartan[i][j] = <alpha_j, alpha_i-coroot>, so the simple
# reflection acts by s_i(v) = v - (sum_j cartan[i][j] v_j) e_i on
# simple-root coordinates.


def _chain(n: int) -> List[List[int]]:
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2
        if i + 1 < n:
            c[i][i + 1] = -1
            c[i + 1][i] = -1
    return c


def cartan_matrix(family: str, rank: int) -> List[List[int]]:
    family = family.upper()
    if family == "A":
        if rank < 1:
            raise UnsupportedType("A_n needs n >= 1")
        return _chain(rank)
    if family == "B":
        if rank < 2:
            raise UnsupportedType("B_n needs n >= 2")
        c = _chain(rank)
        c[rank - 1][rank - 2] = -2  # short last root
        return c
    if family == "C":
        if rank < 2:
            raise UnsupportedType("C_n needs n >= 2")
        c = _chain(rank)
        c[rank - 2][rank - 1] = -2  # long last root
        return c
    if family == "D":
        if rank < 3:
            raise UnsupportedType("D_n needs n >= 3")
        c = _chain(rank - 1)
        for row in c:
            row.append(0)
        c.append([0] * rank)
        c[rank - 1][rank - 1] = 2
        c[rank - 1][rank - 3] = -1
        c[rank - 3][rank - 1] = -1
        c[rank - 1][rank - 2] = 0
        c[rank - 2][rank - 1] = 0
        return c
    if family == "G2" or (family == "G" and rank == 2):
        return [[2, -1], [-3, 2]]
    if family == "F4" or (family == "F" and rank == 4):
        return [
            [2, -1, 0, 0],
            [-1, 2, -1, 0],
            [0, -2, 2, -1],
            [0, 0, -1, 2],
        ]
    if family == "E6" or (family == "E" and rank == 6):
        # Bourbaki numbering: chain 1-3-4-5-6 with node 2 on node 4.
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        c = [[0] * 6 for _ in range(6)]
        for i in range(6):
            c[i][i] = 2
        for a, b in edges:
            c[a - 1][b - 1] = -1
            c[b - 1][a - 1] = -1
        return c
    raise UnsupportedType(f"unsupported type {family}{rank}")


def _symmetrizer(cartan: List[List[int]]) -> List[Fraction]:
    """d_i with d_i * cartan[i][j] symmetric; d_i = (alpha_i, alpha_i)/2."""
    n = len(cartan)
    d: List[Optional[Fraction]] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and cartan[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                    stack.append(j)
    return [x if x is not None else Fraction(1) for x in d]


@dataclass
class RootDatum:
    """A finite root system in simple-root coordinates."""

    rank: int
    cartan: List[List[int]]
    all_roots: List[Coords]
    label: Optional[str] = None
    _index: Dict[Coords, int] = field(default_factory=dict, repr=False)
    _symm: List[Fraction] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if not self._index:
            self._index = {r: k for k, r in enumerate(self.all_roots)}
        if not self._symm:
            self._symm = _symmetrizer(self.cartan)

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_cartan(cartan: List[List[int]], label: Optional[str] = None) -> "RootDatum":
        rank = len(cartan)
        simple = [tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank)]
        seen = set(simple)
        frontier = list(simple)
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(rank):
                    w = _reflect(cartan, i, v)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        roots = sorted(seen, key=lambda r: (sum(r), r))
        return RootDatum(rank, cartan, roots, label=label)

    def index(self, root: Coords) -> int:
        return self._index[root]

    @property
    def simple_indices(self) -> List[int]:
        return [self.index(tuple(1 if k == i else 0 for k in range(self.rank)))
                for i in range(self.rank)]

    def positive_indices(self) -> List[int]:
        return [k for k, r in enumerate(self.all_roots) if sum(r) > 0]

    # -- pairings --------------------------------------------------------

    def form(self, v: Coords, w: Coords) -> Fraction:
        """The W-invariant bilinear form (v, w)."""
        total = Fraction(0)
        for i in range(self.rank):
            if v[i] == 0:
                continue
            row = self.cartan[i]
            s = sum(row[j] * w[j] for j in range(self.rank))
            total += self._symm[i] * v[i] * s
        return total

    # -- reflections -----------------------------------------------------

    def simple_reflection_perm(self, i: int) -> bytes:
        return bytes(self.index(_reflect(self.cartan, i, r)) for r in self.all_roots)

    def reflection_perm(self, root: Coords) -> bytes:
        """Permutation of all roots by the reflection in the given root."""
        out = []
        denom = self.form(root, root)
        for r in self.all_roots:
            coeff = 2 * self.form(r, root) / denom
            img = tuple(r[j] - coeff * root[j] for j in range(self.rank))
            img_int = tuple(int(x) for x in img)
            if tuple(Fraction(x) for x in img_int) != tuple(map(Fraction, img)):
                raise ValueError("reflection does not preserve the lattice")
            out.append(self.index(img_int))
        return bytes(out)

    def perm_matrix_on_lattice(self, perm: bytes) -> List[List[Fraction]]:
        """Matrix of the Weyl element on the root lattice (columns = images
        of the simple roots)."""
        cols = []
        for i in self.simple_indices:
            cols.append(self.all_roots[perm[i]])
        return [[Fraction(cols[j][i]) for j in range(self.rank)] for i in range(self.rank)]


def _reflect(cartan, i: int, v: Coords) -> Coords:
    pairing = sum(cartan[i][j] * v[j] for j in range(len(v)))
    return tuple(x - pairing if k == i else x for k, x in enumerate(v))


# -- Weyl elements and groups ----------------------------------------------


_PAD = bytes(range(256))


def compose(w: bytes, v: bytes) -> bytes:
    """The permutation w o v (first v, then w)."""
    return v.translate(w + _PAD[len(w):])


def invert(w: bytes) -> bytes:
    out = bytearray(len(w))
    for i, x in enumerate(w):
        out[x] = i
    return bytes(out)


def identity_perm(n: int) -> bytes:
    return bytes(range(n))


@dataclass
class WeylGroup:
    datum: RootDatum
    elements: List[bytes]

    @property
    def order(self) -> int:
        return len(self.elements)


def _closure(gens: Sequence[bytes], nroots: int, bound: int = ENUMERATION_BOUND) -> List[bytes]:
    ident = identity_perm(nroots)
    seen = {ident}
    order_list = [ident]
    frontier = [ident]
    gens = list(dict.fromkeys(gens))
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(g, p)
                if q not in seen:
                    if len(seen) >= bound:
                        raise EnumerationBoundExceeded(
                            f"Weyl enumeration exceeded bound {bound}")
                    seen.add(q)
                    order_list.append(q)
                    nxt.append(q)
        frontier = nxt
    return order_list


def build_root_datum(type_label: str) -> RootDatum:
    """Standard realization for labels like "A2", "B3", "E6", "F4", "G2"."""
    label = type_label.strip().upper().replace("_", "")
    family = label[0]
    try:
        rank = int(label[1:])
    except ValueError as exc:
        raise UnsupportedType(f"cannot parse type label {type_label!r}") from exc
    datum = RootDatum.from_cartan(cartan_matrix(family, rank), label=label)
    expected = _root_count(family, rank)
    if len(datum.all_roots) != expected:
        raise ArithmeticError(f"{label}: built {len(datum.all_roots)} roots, "
                              f"expected {expected}")
    return datum


def _root_count(family: str, rank: int) -> int:
    return {
        "A": rank * (rank + 1),
        "B": 2 * rank * rank,
        "C": 2 * rank * rank,
        "D": 2 * rank * (rank - 1),
        "G": 12,
        "F": 48,
        "E": {6: 72}.get(rank, -1),
    }[family]


def enumerate_weyl(datum: RootDatum, bound: int = ENUMERATION_BOUND) -> WeylGroup:
    """Full Weyl group by breadth-first closure over simple reflections."""
    gens = [datum.simple_reflection_perm(i) for i in range(datum.rank)]
    elements = _closure(gens, len(datum.all_roots), bound)
    return WeylGroup(datum, elements)


# -- type recognition --------------------------------------------------------


def _signature_table(rank: int):
    """(order, #positive reflection roots, norm profile) for each type of
    the given rank; the profile counts reflection roots by norm scaled so
    the smallest is 1."""
    sigs = []
    if rank >= 1:
        sigs.append((f"A{rank}", factorial(rank + 1), rank * (rank + 1) // 2, ((1, rank * (rank + 1) // 2),)))
    if rank >= 2:
        order = 2 ** rank * factorial(rank)
        long_count = rank * (rank - 1)
        if rank == 2:
            sigs.append(("B2", order, rank * rank, ((1, 2), (2, 2))))
        else:
            sigs.append((f"B{rank}", order, rank * rank, ((1, rank), (2, long_count))))
            sigs.append((f"C{rank}", order, rank * rank, ((1, long_count), (2, rank))))
    if rank >= 3:
        sigs.append((f"D{rank}", 2 ** (rank - 1) * factorial(rank),
                     rank * (rank - 1), ((1, rank * (rank - 1)),)))
    if rank == 2:
        sigs.append(("G2", 12, 6, ((1, 3), (3, 3))))
    if rank == 4:
        sigs.append(("F4", 1152, 24, ((1, 12), (2, 12))))
    if rank == 6:
        sigs.append(("E6", 51840, 36, ((1, 36),)))
    return sigs


def recognize_type(order: int, reflection_root_norms: Sequence[Fraction]) -> str:
    """Identify an irreducible Weyl group from its order and the norms of
    its positive reflection roots (any W-invariant scaling)."""
    norms = sorted(reflection_root_norms)
    if not norms:
        raise UnrecognizedSignature("no reflections")
    base = norms[0]
    scaled = [n / base for n in norms]
    profile: Dict[Fraction, int] = {}
    for n in scaled:
        profile[n] = profile.get(n, 0) + 1
    profile_t = tuple(sorted(profile.items()))
    # rank is not passed: infer candidates from profile size and order
    for rank in range(1, 9):
        for label, ord_, nrefl, prof in _signature_table(rank):
            if order == ord_ and len(norms) == nrefl and profile_t == prof:
                return label
    raise UnrecognizedSignature(
        f"order={order}, reflections={len(norms)}, profile={profile_t}")


def restricted_reflection_norms(
    datum: RootDatum,
    elements: Sequence[bytes],
    sublattice_basis: Sequence[Coords],
) -> List[Fraction]:
    """Norms of the reflection roots of a group action restricted to a
    sublattice (e.g. the fixed lattice of an involution).

    Elements must preserve the sublattice; each one restricting to a
    reflection contributes the ambient norm of a primitive vector on its
    (-1)-eigenline.  Together with the group order this is the signature
    used to recognize the restricted Coxeter type.
    """
    sub = [tuple(v) for v in sublattice_basis]
    r = len(sub)
    norms = []
    seen: set = set()
    for perm in elements:
        mat = restrict_action(ExactMatrix.from_rows(datum.perm_matrix_on_lattice(perm)), sub)
        if mat is None:
            raise ValueError("element does not preserve the sublattice")
        if mat == ExactMatrix.identity(r):
            continue
        if mat @ mat != ExactMatrix.identity(r):
            continue
        trace = mat.trace()
        if trace != GaussRat(r - 2):
            continue
        kern = (mat + ExactMatrix.identity(r)).kernel_basis()
        if len(kern) != 1:
            raise ArithmeticError("a reflection's (-1)-eigenspace is not a line")
        vec = kern[0]
        den = lcm(*(c.re.denominator for c in vec))
        ints = [int(c.re * den) for c in vec]
        g = gcd(*ints)
        prim = tuple(x // g for x in ints)
        if prim in seen or tuple(-x for x in prim) in seen:
            continue
        seen.add(prim)
        ambient = tuple(sum(prim[j] * sub[j][i] for j in range(r)) for i in range(datum.rank))
        norms.append(datum.form(ambient, ambient))
    return norms
