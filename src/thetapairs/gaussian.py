"""Exact Gaussian-rational scalars Q(i) and polynomial helpers.

All arithmetic is exact: components are `fractions.Fraction`, so lowest
terms and positive denominators come for free.  Q(i) is the smallest field
in which every catalog computation lives (compact tori have eigenvalues in
i*Q, quadratic eigenvector normalizations stay in Q(i) when they exist at
all), and we refuse anything larger with a typed error instead of
approximating.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


class SplittingFieldTooLarge(Exception):
    """A characteristic polynomial has roots outside Q(i)."""


class GaussRat:
    """An element re + im*i of Q(i), immutable and hashable."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    # -- coercion --------------------------------------------------------

    @staticmethod
    def of(value) -> "GaussRat":
        if isinstance(value, GaussRat):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussRat(value)
        raise TypeError(f"cannot coerce {value!r} to GaussRat")

    # -- arithmetic ------------------------------------------------------

    # A zero product or negation is the shared ZERO, and adding or
    # subtracting it returns the other operand: the zero entries of computed
    # vectors and matrices share one object instead of holding three each.

    def __add__(self, other):
        other = GaussRat.of(other)
        if other is _CACHED_ZERO:
            return self
        if self is _CACHED_ZERO:
            return other
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        if not (self.re or self.im):
            return _CACHED_ZERO
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        other = GaussRat.of(other)
        if other is _CACHED_ZERO:
            return self
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussRat.of(other) + (-self)

    def __mul__(self, other):
        other = GaussRat.of(other)
        # the rational-by-rational case dominates every matrix inner loop
        if self.im == 0:
            if self.re == 0:
                return _CACHED_ZERO
            if other.im == 0:
                if other.re == 0:
                    return _CACHED_ZERO
                return GaussRat(self.re * other.re)
            return GaussRat(self.re * other.re, self.re * other.im)
        if other.im == 0:
            if other.re == 0:
                return _CACHED_ZERO
            return GaussRat(self.re * other.re, self.im * other.re)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussRat.of(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * GaussRat(other.re / n, -other.im / n)

    def __rtruediv__(self, other):
        return GaussRat.of(other) / self

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def norm(self) -> Fraction:
        """The field norm re^2 + im^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussRat":
        return GaussRat(1) / self

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussRat(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def sort_key(self):
        return (self.re, self.im)


ZERO = GaussRat(0)
_CACHED_ZERO = ZERO
ONE = GaussRat(1)
I = GaussRat(0, 1)


def rational_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    num, den = q.numerator, q.denominator
    rn = _isqrt_exact(num)
    rd = _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt_exact(n: int):
    r = math.isqrt(n)
    return r if r * r == n else None


def gauss_sqrt(z: GaussRat):
    """Exact square root of z in Q(i), or None when no such root exists.

    Writing w = c + di with w^2 = z forces c^2 = (re + |z|)/2 with |z|
    the rational square root of the field norm; both square roots must be
    rational for w to exist.
    """
    if z.is_zero():
        return GaussRat(0)
    n = rational_sqrt(z.norm())
    if n is None:
        return None
    c2 = (z.re + n) / 2
    c = rational_sqrt(c2)
    if c is None:
        return None
    if c != 0:
        d = z.im / (2 * c)
        w = GaussRat(c, d)
    else:
        d2 = (n - z.re) / 2
        d = rational_sqrt(d2)
        if d is None:
            return None
        w = GaussRat(0, d)
    return w if w * w == z else None


# -- polynomials over Q(i) ------------------------------------------------
#
# A polynomial is a list of GaussRat coefficients in *descending* degree,
# matching the char_poly convention.  Only the little that the Jordan and
# eigenvalue machinery needs lives here.


def poly_derivative(coeffs):
    n = len(coeffs) - 1
    if n <= 0:
        return [GaussRat(0)]
    return [c * (n - k) for k, c in enumerate(coeffs[:-1])]


def poly_monic(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[0].is_zero():
        coeffs.pop(0)
    lead = coeffs[0]
    if lead == ONE:
        return coeffs
    return [c / lead for c in coeffs]


def poly_divmod(num, den):
    num = list(num)
    den = poly_monic(den)
    if len(den) == 1:
        return [c / den[0] for c in num], [GaussRat(0)]
    quot = []
    while len(num) >= len(den):
        factor = num[0]
        quot.append(factor)
        for k in range(len(den)):
            num[k] = num[k] - factor * den[k]
        if not num[0].is_zero():
            raise ArithmeticError("poly_divmod: leading coefficient did not cancel")
        num.pop(0)
    if not quot:
        quot = [GaussRat(0)]
    if not num:
        num = [GaussRat(0)]
    return quot, num


def _poly_strip(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[0].is_zero():
        coeffs.pop(0)
    return coeffs


def poly_is_zero(coeffs) -> bool:
    return all(c.is_zero() for c in coeffs)


def poly_gcd(a, b):
    """Monic gcd over Q(i) by the Euclidean algorithm."""
    a = poly_monic(a)
    b = _poly_strip(b)
    while not poly_is_zero(b):
        b = poly_monic(b)
        _, r = poly_divmod(a, b)
        a, b = b, _poly_strip(r)
    return poly_monic(a)


def poly_squarefree_part(coeffs):
    """p / gcd(p, p'), monic; has the same roots with multiplicity one."""
    p = poly_monic(coeffs)
    if len(p) <= 2:
        return p
    g = poly_gcd(p, poly_derivative(p))
    q, r = poly_divmod(p, g)
    if not all(c.is_zero() for c in r):
        raise ArithmeticError("poly_squarefree_part: gcd(p, p') does not divide p")
    return poly_monic(q)


def gaussian_roots(coeffs):
    """All roots of a monic polynomial over Q(i), with multiplicity.

    Raises SplittingFieldTooLarge when some root lies outside Q(i).  Roots
    proposed by a floating-point iteration are kept only when exact division
    confirms them; when they do not account for the whole polynomial, the
    exact factorization over QQ_I (sympy) decides, and it alone can raise.
    """
    coeffs = poly_monic(coeffs)
    if len(coeffs) == 1:
        return []
    roots = _certified_roots(coeffs)
    if roots is not None:
        return roots
    return _factored_roots(coeffs)


# Aberth-Ehrlich sweeps before the candidates are rounded and certified.
# Simple roots converge cubically within a few sweeps; the cap only bounds
# the linear convergence of clustered (multiple) roots.
_ABERTH_MAX_SWEEPS = 100
# The scaled roots are Gaussian integers, so an approximation within 1/2
# of one rounds to it; stop once every correction is far below that.
_ABERTH_STEP_TOL = 1e-6


def _certified_roots(coeffs):
    """The sorted roots of a monic polynomial when all of them are found in
    Q(i) and confirmed by exact division, else None.

    After the zero roots are split off, q(y) = D^n p(y/D), with D the lcm
    of the coefficient denominators, is monic over Z[i], so every root of p
    in Q(i) is s/D for a Gaussian integer s (Z[i] is integrally closed).
    Complex-float approximations of the roots of q are rounded to Z[i] and
    each candidate is divided out of q exactly, as often as it divides.  The
    floats only propose: the answer is returned only when the confirmed
    linear factors use up q, and the multiset of roots is unique.
    """
    n = len(coeffs) - 1
    zeros = 0
    while zeros < n and coeffs[n - zeros].is_zero():
        zeros += 1
    coeffs = coeffs[:n + 1 - zeros]
    roots = [ZERO] * zeros
    if len(coeffs) == 1:
        return roots
    denom = math.lcm(*(d for c in coeffs for d in (c.re.denominator, c.im.denominator)))
    # q_k = D^k a_k as integer pairs (re, im), descending degree
    q = []
    scale = 1
    for c in coeffs:
        q.append((int(c.re * scale), int(c.im * scale)))
        scale *= denom
    try:
        approx = _aberth([complex(re, im) for re, im in q])
    except (OverflowError, ZeroDivisionError):
        return None
    if approx is None:
        return None
    for z in approx:
        s = (round(z.real), round(z.imag))
        while len(q) > 1:
            quot = _divide_linear(q, s)
            if quot is None:
                break
            q = quot
            roots.append(GaussRat(Fraction(s[0], denom), Fraction(s[1], denom)))
    if len(q) > 1:
        return None
    roots.sort(key=GaussRat.sort_key)
    return roots


def _divide_linear(q, s):
    """q / (y - s) over Z[i] by synthetic division, or None when the
    remainder q(s) is nonzero."""
    sr, si = s
    out = []
    acc_r = acc_i = 0
    for cr, ci in q:
        acc_r, acc_i = acc_r * sr - acc_i * si + cr, acc_r * si + acc_i * sr + ci
        out.append((acc_r, acc_i))
    if out.pop() != (0, 0):
        return None
    return out


def _aberth(q):
    """Complex approximations of all roots of the monic polynomial q
    (descending coefficients, q[-1] != 0), or None when they are not finite.
    """
    n = len(q) - 1
    dq = [c * (n - k) for k, c in enumerate(q[:-1])]
    # every root has modulus below 2 max |q_k|^(1/k) (Fujiwara)
    radius = max(abs(c) ** (1.0 / k) for k, c in enumerate(q) if k and c)
    z = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    for _ in range(_ABERTH_MAX_SWEEPS):
        worst = 0.0
        for k in range(n):
            zk = z[k]
            pv = 0j
            for c in q:
                pv = pv * zk + c
            if pv == 0:
                continue
            dv = 0j
            for c in dq:
                dv = dv * zk + c
            repulsion = 0j
            for j in range(n):
                if j != k:
                    repulsion += 1 / (zk - z[j])
            ratio = pv / dv
            step = ratio / (1 - ratio * repulsion)
            z[k] = zk - step
            worst = max(worst, abs(step))
        if worst < _ABERTH_STEP_TOL:
            break
    return z if all(cmath.isfinite(v) for v in z) else None


def _factored_roots(coeffs):
    """The roots by exact factorization over QQ_I (sympy)."""
    from sympy import I as sympyI
    from sympy import Poly, Rational, symbols

    x = symbols("x")
    expr = 0
    n = len(coeffs) - 1
    for k, c in enumerate(coeffs):
        expr += (Rational(c.re.numerator, c.re.denominator)
                 + Rational(c.im.numerator, c.im.denominator) * sympyI) * x ** (n - k)
    poly = Poly(expr, x, domain="QQ_I")
    roots = []
    for factor, mult in poly.factor_list()[1]:
        if factor.degree() != 1:
            raise SplittingFieldTooLarge(
                f"irreducible factor of degree {factor.degree()} over Q(i): {factor.as_expr()}"
            )
        a1, a0 = factor.all_coeffs()
        root = -_sympy_to_gauss(a0) / _sympy_to_gauss(a1)
        roots.extend([root] * mult)
    if len(roots) != n:
        raise ArithmeticError(f"found {len(roots)} roots for a polynomial of degree {n}")
    roots.sort(key=GaussRat.sort_key)
    return roots


def _sympy_to_gauss(value) -> GaussRat:
    from sympy import im as sym_im
    from sympy import re as sym_re

    re_part = sym_re(value)
    im_part = sym_im(value)
    return GaussRat(
        Fraction(int(re_part.numerator), int(re_part.denominator)),
        Fraction(int(im_part.numerator), int(im_part.denominator)),
    )
