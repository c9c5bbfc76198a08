"""Integer lattices and Smith normal form.

Used for character lattices X*(T) carrying the canonical involution; the
Smith form of 1 - theta computes the structure of fixed-point subgroups.
Plain Python ints keep everything arbitrary precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .matrix import ExactMatrix


def _identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m: List[List[int]]) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """Smith normal form U m V = D with d1 | d2 | ..., U and V unimodular.

    Returns (D, U, V).  Deterministic pivoting: smallest nonzero absolute
    value in the active block, ties broken by row-major position.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(map(int, row)) for row in m]
    m_exact = ExactMatrix.from_rows(a)
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    s = 0
    while s < min(rows, cols):
        pivot = None
        best = None
        for i in range(s, rows):
            for j in range(s, cols):
                x = abs(a[i][j])
                if x != 0 and (best is None or x < best):
                    best = x
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(s, pivot[0])
        swap_cols(s, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(s + 1, rows):
                if a[i][s] != 0:
                    q = a[i][s] // a[s][s]
                    add_row(i, s, -q)
                    if a[i][s] != 0:
                        swap_rows(s, i)
                        dirty = True
            for j in range(s + 1, cols):
                if a[s][j] != 0:
                    q = a[s][j] // a[s][s]
                    add_col(j, s, -q)
                    if a[s][j] != 0:
                        swap_cols(s, j)
                        dirty = True
        # enforce divisibility of the remaining block by the pivot
        offender = None
        for i in range(s + 1, rows):
            for j in range(s + 1, cols):
                if a[i][j] % a[s][s] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(s, offender, 1)
            continue
        if a[s][s] < 0:
            negate_row(s)
        s += 1

    d = [[a[i][j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    u_exact, v_exact = ExactMatrix.from_rows(u), ExactMatrix.from_rows(v)
    if u_exact @ m_exact @ v_exact != ExactMatrix.from_rows(d):
        raise ArithmeticError("Smith form: U M V != D")
    if u_exact.det().norm() != 1 or v_exact.det().norm() != 1:
        raise ArithmeticError("Smith form: a transform is not unimodular")
    return d, u, v


@dataclass(frozen=True)
class IntLattice:
    """A free Z-module of finite rank, optionally with an endomorphism."""

    rank: int
    endomorphism: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __post_init__(self):
        if self.endomorphism is not None:
            mat = tuple(tuple(int(x) for x in row) for row in self.endomorphism)
            if len(mat) != self.rank or any(len(r) != self.rank for r in mat):
                raise ValueError("endomorphism must be rank x rank")
            object.__setattr__(self, "endomorphism", mat)

    def endo_matrix(self) -> List[List[int]]:
        if self.endomorphism is None:
            raise ValueError("lattice carries no endomorphism")
        return [list(r) for r in self.endomorphism]
