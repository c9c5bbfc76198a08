"""Dense exact matrices over Q(i).

Row-major, immutable after construction.  Pivoting is deterministic
(lowest column index first, topmost nonzero row) so every echelon-derived
answer is byte-stable across runs.  Sizes stay at desk scale; entry growth
from exact elimination is accepted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

from .gaussian import GaussRat, ZERO, ONE


def _coerce(value) -> GaussRat:
    return value if isinstance(value, GaussRat) else GaussRat.of(value)


class ExactMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        entries = tuple(_coerce(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return ExactMatrix(n, m, [e for r in rows for e in r])

    @staticmethod
    def zero(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(rows, cols, [ZERO] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @staticmethod
    def diagonal(values) -> "ExactMatrix":
        values = [_coerce(v) for v in values]
        n = len(values)
        return ExactMatrix(n, n, [values[i] if i == j else ZERO for i in range(n) for j in range(n)])

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "ExactMatrix":
        return ExactMatrix.from_rows(zip(*cols)) if cols else ExactMatrix.zero(0, 0)

    # -- access ----------------------------------------------------------

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> List[GaussRat]:
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def column(self, j: int) -> List[GaussRat]:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def row_lists(self) -> List[List[GaussRat]]:
        return [self.row(i) for i in range(self.rows)]

    def block(self, r0: int, c0: int, rows: int, cols: int) -> "ExactMatrix":
        """The rows x cols submatrix with top-left entry (r0, c0)."""
        return ExactMatrix(rows, cols, [self[r0 + i, c0 + j]
                                        for i in range(rows) for j in range(cols)])

    @staticmethod
    def block_diagonal(a: "ExactMatrix", b: "ExactMatrix") -> "ExactMatrix":
        """diag(a, b) with zero off-diagonal blocks."""
        rows, cols = a.rows + b.rows, a.cols + b.cols
        return ExactMatrix(rows, cols, [
            a[i, j] if i < a.rows and j < a.cols else
            b[i - a.rows, j - a.cols] if i >= a.rows and j >= a.cols else ZERO
            for i in range(rows) for j in range(cols)])

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(map(str, self.row(i))) for i in range(self.rows))
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        self._check_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._check_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return ExactMatrix(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, c) -> "ExactMatrix":
        c = _coerce(c)
        return ExactMatrix(self.rows, self.cols, [c * a for a in self.entries])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        out = []
        orows = other.row_lists()
        for i in range(self.rows):
            mine = self.row(i)
            acc = [ZERO] * other.cols
            for k, a in enumerate(mine):
                if a.is_zero():
                    continue
                orow = orows[k]
                for j in range(other.cols):
                    b = orow[j]
                    if not b.is_zero():
                        acc[j] = acc[j] + a * b
            out.extend(acc)
        return ExactMatrix(self.rows, other.cols, out)

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            return self @ other
        return self.scale(other)

    __rmul__ = scale

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows,
                           [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def apply(self, vec: Sequence) -> List[GaussRat]:
        vec = [_coerce(v) for v in vec]
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        nonzero = [(j, v) for j, v in enumerate(vec) if not v.is_zero()]
        out = []
        for i in range(self.rows):
            base = i * self.cols
            acc = ZERO
            for j, v in nonzero:
                a = self.entries[base + j]
                if not a.is_zero():
                    acc = acc + a * v
            out.append(acc)
        return out

    def commutator(self, other: "ExactMatrix") -> "ExactMatrix":
        return self @ other - other @ self

    def trace(self) -> GaussRat:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return sum((self[i, i] for i in range(self.rows)), ZERO)

    def _check_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- echelon machinery -------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        m = self.row_lists()
        pivots = []
        r = 0
        for c in range(self.cols):
            if r >= self.rows:
                break
            pivot_row = None
            for i in range(r, self.rows):
                if not m[i][c].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = m[r][c].inverse()
            m[r] = [inv * x for x in m[r]]
            for i in range(self.rows):
                if i != r and not m[i][c].is_zero():
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return ExactMatrix.from_rows(m) if self.rows else self, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> List[List[GaussRat]]:
        """Deterministic basis of the right null space.

        Free variables are set to standard unit values in increasing column
        order, pivot variables solved from the reduced echelon form.
        """
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            vec = [ZERO] * self.cols
            vec[fc] = ONE
            for r, pc in enumerate(pivots):
                vec[pc] = -red[r, fc]
            basis.append(vec)
        return basis

    def solve(self, rhs: Sequence):
        """One solution of self @ x = rhs, or None if inconsistent."""
        rhs = [_coerce(v) for v in rhs]
        if len(rhs) != self.rows:
            raise ValueError("rhs length mismatch")
        aug = ExactMatrix(self.rows, self.cols + 1,
                          [e for i in range(self.rows) for e in self.row(i) + [rhs[i]]])
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [ZERO] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red[r, self.cols]
        return x

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        ident = ExactMatrix.identity(n)
        aug = ExactMatrix.from_rows([self.row(i) + ident.row(i) for i in range(n)])
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return ExactMatrix(n, n, [red[i, n + j] for i in range(n) for j in range(n)])

    def det(self) -> GaussRat:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        m = self.row_lists()
        n = self.rows
        det = ONE
        for c in range(n):
            pivot_row = None
            for i in range(c, n):
                if not m[i][c].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                return ZERO
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                det = -det
            det = det * m[c][c]
            inv = m[c][c].inverse()
            for i in range(c + 1, n):
                if not m[i][c].is_zero():
                    f = m[i][c] * inv
                    m[i] = [x - f * y for x, y in zip(m[i], m[c])]
        return det

    def char_poly(self) -> List[GaussRat]:
        """Monic characteristic polynomial det(xI - m), descending degree.

        Faddeev-LeVerrier: exact over Q(i), division only by integers.
        """
        if self.rows != self.cols:
            raise ValueError("char_poly of non-square matrix")
        n = self.rows
        coeffs = [ONE]
        m_k = ExactMatrix.identity(n)
        for k in range(1, n + 1):
            m_k = self @ m_k
            c = -(m_k.trace() / k)
            coeffs.append(c)
            if k < n:
                m_k = m_k + ExactMatrix.identity(n).scale(c)
        return coeffs

    def is_nilpotent(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(c.is_zero() for c in self.char_poly()[1:])

    def exp_nilpotent(self) -> "ExactMatrix":
        """exp of a nilpotent matrix: the finite exact sum.

        The terms A^k / k! are the nilpotency test: an n x n matrix is
        nilpotent exactly when A^n = 0, so a term still nonzero after n
        steps raises ValueError.
        """
        if self.rows != self.cols:
            raise ValueError("exp_nilpotent requires a nilpotent matrix")
        n = self.rows
        term = ExactMatrix.identity(n)
        acc = term
        for k in range(1, n + 1):
            term = (term @ self).scale(Fraction(1, k))
            if term.is_zero():
                break
            acc = acc + term
        if not term.is_zero():
            raise ValueError("exp_nilpotent requires a nilpotent matrix")
        return acc


def span_rank(vectors: Sequence[Sequence]) -> int:
    if not vectors:
        return 0
    return ExactMatrix.from_rows(vectors).rank()


def span_eq(a: Sequence[Sequence], b: Sequence[Sequence]) -> bool:
    """Whether two lists of vectors span the same subspace."""
    ra = span_rank(a)
    return ra == span_rank(b) and span_rank(list(a) + list(b)) == ra


def coordinates_in_basis(basis: Sequence[Sequence], target: Sequence):
    """Coefficients of target in the given (independent) basis, or None."""
    if not basis:
        return [] if all(_coerce(t).is_zero() for t in target) else None
    return ExactMatrix.from_columns(basis).solve(target)


def restrict_action(action: ExactMatrix, basis: Sequence[Sequence]) -> Optional[ExactMatrix]:
    """Matrix, in the given (independent) basis, of an action that preserves
    its span, or None when some image leaves the span.

    All images are solved by one elimination of [B | action B]."""
    d = len(basis)
    if not d:
        return ExactMatrix.zero(0, 0)
    images = [action.apply(b) for b in basis]
    red, pivots = ExactMatrix.from_columns(list(basis) + images).rref()
    if pivots and pivots[-1] >= d:
        return None
    out = [[ZERO] * d for _ in range(d)]
    for r, pc in enumerate(pivots):
        out[pc] = red.row(r)[d:]
    return ExactMatrix.from_rows(out)


def intersect_spans(a: Sequence[Sequence], b: Sequence[Sequence]) -> List[List[GaussRat]]:
    """Basis of span(a) ∩ span(b), deterministic."""
    if not a or not b:
        return []
    m = ExactMatrix.from_columns(list(a) + list(b))
    amat = ExactMatrix.from_columns(a)
    # the kernel basis may over-count; reduce to an independent set
    return independent_subset([amat.apply(vec[:len(a)]) for vec in m.kernel_basis()])


def independent_subset(vectors: Sequence[Sequence]) -> List[List[GaussRat]]:
    """The earliest-first greedy independent subset: the vectors at the
    pivot columns of one elimination."""
    if not vectors:
        return []
    pivots = ExactMatrix.from_columns(vectors).rref()[1]
    return [[_coerce(x) for x in vectors[j]] for j in pivots]
