"""Exact matrices over Q(i): stored dense, computed sparse.

An `ExactMatrix` is row-major and immutable after construction; its
`entries` tuple is dense.  The kernel touches only nonzero entries:

- one elimination core, `_echelon`, is fraction-free: rows are primitive
  Gaussian-integer `{column: (a, b)}` dicts of their nonzero entries.
  `rref` divides each reduced row by its pivot once; `rank`,
  `independent_subset` and `det` read the pivots of a forward elimination.
  `kernel_basis`, `solve`, `inverse` and the subspace helpers at the end
  of the module go through `rref`.  Pivoting is deterministic (lowest
  column index first, then the topmost nonzero row), so every
  echelon-derived answer is byte-stable across runs;
- when every entry is real, `char_poly` runs on the `Fraction` parts and
  wraps the results back into `GaussRat` (`_field_values`);
- products, sums and scalings skip zero entries;
- `char_poly` reduces to Hessenberg form by similarity, O(n^3) field
  operations;
- `rank_mod_p` reduces the entries modulo a fixed prime and eliminates on
  plain ints.  Its rank is a lower bound on `rank`, so it can certify that
  a rank is as large as it can be without any exact elimination;
- `modular_char_poly` is the characteristic polynomial over F_PRIME, by a
  division-free method on plain ints.  Its coefficients are the residues
  of `char_poly`'s, so residues that differ prove that polynomials differ;
- `from_residue` reads a residue back as the one Gaussian rational
  alpha/beta with N(alpha), N(beta) below sqrt(PRIME)/2 that has it, by
  rational reconstruction in Z[i]; a caller proves the value exactly.

Sizes stay at desk scale; entry growth from exact elimination is accepted.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .gaussian import GaussRat, ZERO, ONE


def _coerce(value) -> GaussRat:
    return value if isinstance(value, GaussRat) else GaussRat.of(value)


def _field_values(entries: Sequence[GaussRat]) -> Tuple[list, bool]:
    """The entries as `Fraction`s when every one is real (flag True), else
    as they are (flag False).

    `Fraction` and `GaussRat` share `*`, `-`, `1/x` and truthiness, so the
    `char_poly` loops run unchanged on either.
    """
    if all(not e.im for e in entries):
        return [e.re for e in entries], True
    return list(entries), False


def _integer_rows(m: "ExactMatrix"):
    """The rows of m as `{column: (a, b)}` dicts of nonzero Gaussian integers
    a + b i: each row scaled by the lcm of its denominators and divided by
    its content.  Also returns the products of those lcms and contents."""
    rows, fractional = [{} for _ in range(m.rows)], set()
    for k, e in enumerate(m.entries):
        if e is not ZERO:
            re, im = e.re, e.im
            if re.numerator or im.numerator:
                i, j = divmod(k, m.cols)
                if re.denominator == 1 == im.denominator:
                    rows[i][j] = (re.numerator, im.numerator)
                else:
                    rows[i][j] = (re, im)
                    fractional.add(i)
    lcms = 1
    for i in fractional:
        den = lcm(*(x.denominator for ab in rows[i].values() for x in ab))
        rows[i] = {j: (int(a * den), int(b * den)) for j, (a, b) in rows[i].items()}
        lcms *= den
    return rows, lcms, prod(_divide_content(row) for row in rows)


def _divide_content(row: Dict[int, Tuple[int, int]]) -> int:
    """Divides a row by the gcd of its integer parts in place; returns the gcd."""
    g = 0
    for a, b in row.values():
        g = gcd(g, a, b)
        if g == 1:
            return 1
    for j, (a, b) in row.items():
        row[j] = (a // g, b // g)
    return g or 1


def _echelon(m: "ExactMatrix", reduce: bool):
    """Fraction-free elimination of `_integer_rows(m)` (Bareiss 1968, with
    content removal; Cohen, A Course in Computational Algebraic Number
    Theory, 2.2).  The pivot p is in the lowest column left, topmost row
    first; every other row (every row below, unless `reduce`) with an entry
    f there becomes p row - f prow (row - f p^-1 prow for a unit p) over its
    content.  Returns the rows (with `reduce`, the RREF rows times their
    pivots), the pivot columns, the swap parity and num, den: the products
    of the row multipliers and of the contents, so that a square m of full
    rank has det m = (-1)^swaps prod(pivots) den / num without `reduce`."""
    rows, num, den = _integer_rows(m)
    num = (num, 0)
    pivots, swaps, r = [], 0, 0
    for c in range(m.cols):
        i = next((i for i in range(r, m.rows) if c in rows[i]), None)
        if i is None:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            swaps ^= 1
        pa, pb = rows[r][c]
        unit = pa * pa + pb * pb == 1
        tail = [(j, v) for j, v in rows[r].items() if j != c]
        for k in range(0 if reduce else r + 1, m.rows):
            row = rows[k]
            fa, fb = row.pop(c, (0, 0)) if k != r else (0, 0)
            if not (fa or fb):
                continue
            if unit:
                fa, fb = fa * pa + fb * pb, fb * pa - fa * pb   # f conj(p) = f / p
            else:
                for j, (a, b) in row.items():
                    row[j] = (pa * a - pb * b, pa * b + pb * a)
                num = (num[0] * pa - num[1] * pb, num[0] * pb + num[1] * pa)
            for j, (a, b) in tail:
                xa, xb = row.get(j, (0, 0))
                xa, xb = xa - fa * a + fb * b, xb - fa * b - fb * a
                if xa or xb:
                    row[j] = (xa, xb)
                else:
                    row.pop(j, None)
            den *= _divide_content(row)
        pivots.append(c)
        r += 1
    return rows, pivots, swaps, num, den


# -- rank modulo a prime ------------------------------------------------------
#
# PRIME is 1 mod 4, so -1 has a square root in F_PRIME, and (a + b i)/d ->
# (a + b SQRT_MINUS_ONE) d^-1 is a ring map onto F_PRIME from the Gaussian
# rationals whose denominators are prime to PRIME.  A minor that is nonzero
# mod PRIME is nonzero over Q(i), so the rank of a reduced matrix is a lower
# bound on its rank over Q(i).

PRIME = 2305843009213693921
SQRT_MINUS_ONE = 583529827753931384   # squares to -1 mod PRIME


def residue(x: GaussRat) -> Optional[int]:
    """x reduced mod PRIME, or None when a denominator of x is divisible by
    PRIME (it has no inverse there)."""
    try:
        re = x.re.numerator * pow(x.re.denominator, -1, PRIME)
        im = x.im.numerator * pow(x.im.denominator, -1, PRIME)
    except ValueError:
        return None
    return (re + im * SQRT_MINUS_ONE) % PRIME


# `residue` is reduction modulo the Gaussian prime PRIME_IDEAL =
# gcd(PRIME, SQRT_MINUS_ONE - i), of norm PRIME: it divides SQRT_MINUS_ONE - i,
# so i = SQRT_MINUS_ONE there.  If alpha/beta and alpha'/beta' have the same
# residue and all four norms are below sqrt(PRIME)/2, then PRIME_IDEAL
# divides alpha beta' - alpha' beta, whose norm is below PRIME, so it is 0:
# a Gaussian rational that small is the only one with its residue.

PRIME_IDEAL = (1458625360, 422202639)


def from_residue(r: int) -> Optional[GaussRat]:
    """The Gaussian rational alpha/beta with residue r and N(alpha), N(beta)
    below sqrt(PRIME)/2, or None.

    Rational reconstruction (Wang, Guy and Davenport, "p-adic reconstruction
    of rational numbers", SIGSAM Bull. 16, 1982) in Z[i]: the extended
    Euclidean algorithm, quotients rounded to the nearest Gaussian integer,
    runs on PRIME_IDEAL and r until the remainder alpha falls below the
    bound; every remainder is its cofactor beta times r modulo PRIME_IDEAL.
    """
    (a0, b0), (a1, b1) = PRIME_IDEAL, (r, 0)
    (s0, u0), (s1, u1) = (0, 0), (1, 0)
    while 4 * (a1 * a1 + b1 * b1) ** 2 >= PRIME:
        n = a1 * a1 + b1 * b1
        qa = (2 * (a0 * a1 + b0 * b1) + n) // (2 * n)
        qb = (2 * (b0 * a1 - a0 * b1) + n) // (2 * n)
        a0, b0, a1, b1 = a1, b1, a0 - qa * a1 + qb * b1, b0 - qa * b1 - qb * a1
        s0, u0, s1, u1 = s1, u1, s0 - qa * s1 + qb * u1, u0 - qa * u1 - qb * s1
    if 4 * (s1 * s1 + u1 * u1) ** 2 >= PRIME:
        return None
    return GaussRat(a1, b1) / GaussRat(s1, u1)


def modular_rank(rows: List[List[int]]) -> int:
    """The rank over F_PRIME of a matrix of residues in [0, PRIME), given as
    a list of rows; the rows are reduced in place."""
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        prow = rows[rank]
        inv = pow(prow[c], -1, PRIME)
        for k in range(rank + 1, len(rows)):
            f = rows[k][c]
            if f:
                f = f * inv % PRIME
                rows[k] = [(a - f * b) % PRIME for a, b in zip(rows[k], prow)]
        rank += 1
    return rank


def modular_char_poly(rows: List[List[int]]) -> List[int]:
    """The characteristic polynomial det(xI - m) over F_PRIME of a square
    matrix of residues, given as a list of rows: monic, descending degree,
    coefficients in [0, PRIME).

    Berkowitz's division-free method (Inf. Process. Lett. 18, 1984): with
    m_k the leading k x k block, r its next row and c its next column up to
    the diagonal entry a, det(xI - m_{k+1}) is the Toeplitz product of
    (1, -a, -r c, -r m_k c, ..., -r m_k^{k-1} c) with det(xI - m_k).
    """
    poly = [1]
    for k, row in enumerate(rows):
        r, v = row[:k], [rows[i][k] for i in range(k)]
        t = [1, -row[k]]
        for j in range(k):
            if j:
                v = [sum(a * b for a, b in zip(rows[i][:k], v)) % PRIME for i in range(k)]
            t.append(-sum(a * b for a, b in zip(r, v)))
        poly = [sum(t[i - j] * poly[j] for j in range(max(0, i - k - 1), min(i, k) + 1)) % PRIME
                for i in range(k + 2)]
    return poly


class ExactMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        entries = tuple(entries)
        if set(map(type, entries)) - {GaussRat}:
            entries = tuple(map(_coerce, entries))
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
                           [a + b if b else a for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._check_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           [a - b if b else a for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return ExactMatrix(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, c) -> "ExactMatrix":
        c = _coerce(c)
        return ExactMatrix(self.rows, self.cols, [c * a if a else a for a in self.entries])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        n, m = self.cols, other.cols
        # the nonzero (j, b) of each row of other
        other_rows = [[(j, b) for j, b in enumerate(other.entries[k * m:(k + 1) * m]) if b]
                      for k in range(other.rows)]
        out = []
        for i in range(self.rows):
            acc = [ZERO] * m
            for k, a in enumerate(self.entries[i * n:(i + 1) * n]):
                if a:
                    for j, b in other_rows[k]:
                        acc[j] = acc[j] + a * b
            out.extend(acc)
        return ExactMatrix(self.rows, m, out)

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
        rows, pivots = _echelon(self, True)[:2]
        out = [ZERO] * (self.rows * self.cols)
        for i, c in enumerate(pivots):
            pa, pb = rows[i].pop(c)
            n, base = pa * pa + pb * pb, i * self.cols
            out[base + c] = ONE
            for j, (a, b) in rows[i].items():
                out[base + j] = GaussRat(Fraction(a * pa + b * pb, n), Fraction(b * pa - a * pb, n))
        return ExactMatrix(self.rows, self.cols, out), pivots

    def rank(self) -> int:
        return len(_echelon(self, False)[1])

    def rank_mod_p(self) -> Optional[int]:
        """The rank of the matrix reduced mod PRIME, at most `rank`, or None
        when some entry has no residue."""
        values = [residue(e) for e in self.entries]
        if None in values:
            return None
        return modular_rank([values[i * self.cols:(i + 1) * self.cols]
                             for i in range(self.rows)])

    def nullity_is(self, k: int) -> bool:
        """Whether the right null space has dimension k, for a matrix whose
        nullity is known to be at least k: a rank of cols - k mod PRIME
        proves it, else the exact kernel decides."""
        return self.rank_mod_p() == self.cols - k or len(self.kernel_basis()) == k

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
        rows, pivots, swaps, num, den = _echelon(self, False)
        if len(pivots) < self.rows:
            return ZERO
        det = GaussRat(-den if swaps else den) / GaussRat(*num)
        for row, c in zip(rows, pivots):
            det = det * GaussRat(*row[c])
        return det

    def char_poly(self) -> List[GaussRat]:
        """Monic characteristic polynomial det(xI - m), descending degree.

        Hessenberg method (Cohen, A Course in Computational Algebraic Number
        Theory, Alg. 2.2.9): reduce to upper Hessenberg form H by
        similarity, eliminating below the subdiagonal column by column (a
        row-and-column swap brings a nonzero pivot onto the subdiagonal),
        then expand det(xI - H) by the recurrence over its leading principal
        minors.  O(n^3) exact field operations.
        """
        if self.rows != self.cols:
            raise ValueError("char_poly of non-square matrix")
        n = self.rows
        values, real = _field_values(self.entries)
        zero, one = (Fraction(0), Fraction(1)) if real else (ZERO, ONE)
        h = [values[i * n:(i + 1) * n] for i in range(n)]
        for m in range(1, n - 1):
            i = next((i for i in range(m, n) if h[i][m - 1]), None)
            if i is None:
                continue
            if i != m:
                h[i], h[m] = h[m], h[i]
                for row in h:
                    row[i], row[m] = row[m], row[i]
            inv = 1 / h[m][m - 1]
            pivot_row = h[m]
            for i in range(m + 1, n):
                row_i = h[i]
                if not row_i[m - 1]:
                    continue
                u = row_i[m - 1] * inv
                row_i[m - 1] = zero
                for j in range(m, n):
                    if pivot_row[j]:
                        row_i[j] = row_i[j] - u * pivot_row[j]
                for row in h:
                    if row[i]:
                        row[m] = row[m] + u * row[i]
        # polys[k] = det(xI - H_k) for the leading k x k block, ascending degree
        polys = [[one]]
        for m in range(n):
            prev = polys[m]
            new = [zero] + prev
            d = h[m][m]
            if d:
                for k, c in enumerate(prev):
                    new[k] = new[k] - d * c
            sub = one   # product of the subdiagonal entries h[i+1][i] .. h[m][m-1]
            for i in range(m - 1, -1, -1):
                sub = sub * h[i + 1][i]
                if not sub:
                    break
                f = h[i][m] * sub
                if f:
                    for k, c in enumerate(polys[i]):
                        new[k] = new[k] - f * c
            polys.append(new)
        return [GaussRat(c) if real else c for c in reversed(polys[n])]

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
    """Whether two lists of vectors span the same subspace: a subspace has
    exactly one reduced row echelon form, so the nonzero rows agree."""
    return _echelon_rows(a) == _echelon_rows(b)


def _echelon_rows(vectors: Sequence[Sequence]) -> Tuple[GaussRat, ...]:
    """The nonzero rows of the reduced row echelon form, flattened."""
    if not vectors:
        return ()
    red, pivots = ExactMatrix.from_rows(vectors).rref()
    return red.entries[:len(pivots) * red.cols]


def coordinates_in_basis(basis: Sequence[Sequence], target: Sequence):
    """Coefficients of target in the given (independent) basis, or None."""
    if not basis:
        return [] if all(_coerce(t).is_zero() for t in target) else None
    return ExactMatrix.from_columns(basis).solve(target)


def restrict_action(action, basis: Sequence[Sequence]) -> Optional[ExactMatrix]:
    """Matrix, in the given (independent) basis, of an action that preserves
    its span, or None when some image leaves the span.  The action is an
    `ExactMatrix` or a function on coordinate vectors.

    All images are solved by one elimination of [B | action B]."""
    d = len(basis)
    if not d:
        return ExactMatrix.zero(0, 0)
    apply = action.apply if isinstance(action, ExactMatrix) else action
    images = [apply(b) for b in basis]
    red, pivots = ExactMatrix.from_columns(list(basis) + images).rref()
    if pivots and pivots[-1] >= d:
        return None
    out = [[ZERO] * d for _ in range(d)]
    for r, pc in enumerate(pivots):
        out[pc] = red.row(r)[d:]
    return ExactMatrix.from_rows(out)


def intersect_spans(a: Sequence[Sequence], b: Sequence[Sequence]) -> List[List[GaussRat]]:
    """Basis of span(a) ∩ span(b), deterministic, by one elimination
    (Zassenhaus): the rows (u, u) for u in a and (w, 0) for w in b span
    {(u + w, u)}, whose vectors with a zero left half are (0, u) for u in
    both spans.  The reduced rows pivoting in the right half are a basis of
    those vectors."""
    if not a or not b:
        return []
    n = len(a[0])
    zero = [ZERO] * n
    red, pivots = ExactMatrix.from_rows([list(u) * 2 for u in a]
                                        + [list(w) + zero for w in b]).rref()
    return [red.row(r)[n:] for r, pc in enumerate(pivots) if pc >= n]


def independent_subset(vectors: Sequence[Sequence]) -> List[List[GaussRat]]:
    """The earliest-first greedy independent subset: the vectors at the
    pivot columns of one elimination."""
    if not vectors:
        return []
    pivots = _echelon(ExactMatrix.from_columns(vectors), False)[1]
    return [[_coerce(x) for x in vectors[j]] for j in pivots]
