"""Additive Jordan decomposition over Q(i).

The semisimple part is found by Newton iteration on the squarefree part of
the characteristic polynomial, which needs no eigenvalues at all; the
splitting precondition is still enforced so that every decomposition the
package hands out lives in the exactly-representable domain (downstream
fiber computations need the spectrum itself).
"""

from __future__ import annotations

from typing import List, Tuple

from .gaussian import (
    GaussRat,
    gaussian_roots,
    poly_derivative,
    poly_squarefree_part,
)
from .matrix import ExactMatrix


def _poly_of_matrix(coeffs, m: ExactMatrix) -> ExactMatrix:
    n = m.rows
    acc = ExactMatrix.zero(n, n)
    for c in coeffs:
        acc = acc @ m + ExactMatrix.identity(n).scale(c)
    return acc


def eigenvalues(m: ExactMatrix) -> List[GaussRat]:
    """Spectrum with multiplicity; raises SplittingFieldTooLarge if not in Q(i)."""
    return gaussian_roots(m.char_poly())


def eigenspaces(m: ExactMatrix) -> List[Tuple[GaussRat, List[List[GaussRat]]]]:
    """(eigenvalue, kernel basis of m - eigenvalue) for each distinct
    eigenvalue, in GaussRat.sort_key order; raises SplittingFieldTooLarge
    if the spectrum is not in Q(i)."""
    ident = ExactMatrix.identity(m.rows)
    return [(lam, (m - ident.scale(lam)).kernel_basis())
            for lam in sorted(set(eigenvalues(m)), key=GaussRat.sort_key)]


def jordan_semisimple_part(m: ExactMatrix) -> ExactMatrix:
    """The unique semisimple s with [s, m] = 0 and m - s nilpotent.

    Requires the characteristic polynomial to split over Q(i); otherwise a
    SplittingFieldTooLarge error marks the input as outside the exact domain.
    """
    if m.rows != m.cols:
        raise ValueError("jordan_semisimple_part of non-square matrix")
    p = poly_squarefree_part(m.char_poly())
    # Enforce the exact-domain contract before any work.
    gaussian_roots(p)

    x = m
    n = m.rows
    # Newton: x <- x - p(x) * p'(x)^{-1}; converges in <= log2(n)+1 steps.
    for _ in range(n.bit_length() + 1):
        px = _poly_of_matrix(p, x)
        if px.is_zero():
            break
        dpx = _poly_of_matrix(poly_derivative(p), x)
        x = x - px @ dpx.inverse()
    else:
        from .pairs import CatalogError   # pairs imports this module
        raise CatalogError("Newton iteration failed to terminate")
    if not _poly_of_matrix(p, x).is_zero():
        raise ArithmeticError("Jordan semisimple part is not annihilated by p")
    if not x.commutator(m).is_zero():
        raise ArithmeticError("Jordan semisimple part does not commute with m")
    if not (m - x).is_nilpotent():
        raise ArithmeticError("Jordan nilpotent part is not nilpotent")
    return x


def jordan_decomposition(m: ExactMatrix) -> Tuple[ExactMatrix, ExactMatrix]:
    """(semisimple, nilpotent) with exact sum and commuting parts."""
    ss = jordan_semisimple_part(m)
    return ss, m - ss


def is_semisimple(m: ExactMatrix) -> bool:
    """True when the minimal polynomial is squarefree (splitting not needed)."""
    chi = m.char_poly()
    p = poly_squarefree_part(chi)
    return _poly_of_matrix(p, m).is_zero()
