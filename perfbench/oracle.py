"""Output checks that do not rely on the program's own answers.

Reports are checked against closed-form group orders and against the
properties the method must have; the constant `True` verdict fields
(`well_defined`, `fixed_dim_plus_r1_equals_rank`, `passes`,
`kappa_at_zero_*`) are never read.  Slice queries are checked with sympy's
`DomainMatrix` over QQ_I, on matrices rebuilt from the pair's basis.
"""

from __future__ import annotations

from collections import Counter
from math import factorial

from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix


class Checks:
    """Counts checks made and keeps a message for each one that failed."""

    def __init__(self):
        self.made = 0
        self.failures = []

    def expect(self, ok, message):
        self.made += 1
        if not ok:
            self.failures.append(message)


# -- closed forms ----------------------------------------------------------------

_SPLIT_A_W0 = {1: 1, 2: 2, 3: 4, 4: 8}


def closed_forms(spec):
    """Expected |W|, |W^theta|, |W0|, |W_a|, rank g and r1 (None where the
    pair has no closed form for it)."""
    family, _, arg = spec.partition(":")
    out = {"W": None, "W_theta": None, "W0": None, "Wa": None, "rank_g": None, "r1": None}
    if family == "splitA":
        n = int(arg.split("=")[1])
        out.update(W=factorial(n + 1), Wa=factorial(n + 1), W0=_SPLIT_A_W0[n],
                   rank_g=n, r1=n)
    elif family == "glgl":
        n = int(arg.split("=")[1])
        out.update(W=factorial(2 * n), Wa=2 ** n * factorial(n), W0=factorial(n) ** 2,
                   rank_g=2 * n, r1=n)
    elif family == "diag":
        k = {"sl2": 2, "sl3": 3}[arg]
        out.update(W=factorial(k) ** 2, Wa=factorial(k), W0=factorial(k),
                   rank_g=2 * (k - 1), r1=k - 1)
    elif family == "g2split":
        out.update(W=12, W_theta=12, Wa=12, W0=4)
    elif family == "e6qs":
        out.update(W=51840, W_theta=1152, W0=384)
    else:
        raise ValueError(f"no closed forms for {spec}")
    return out


# -- conversions ---------------------------------------------------------------


def qqi(z):
    """A GaussRat (or anything with Fraction .re/.im) as a QQ_I element."""
    return QQ_I(QQ(z.re.numerator, z.re.denominator), QQ(z.im.numerator, z.im.denominator))


def parse_gauss(text):
    """A report matrix entry such as "-1", "3/2" or "1/2 + 3*I/4" as QQ_I."""
    from sympy import sympify

    return QQ_I.from_sympy(sympify(text))


class Basis:
    """The pair's basis matrices over QQ_I, to rebuild elements from coordinates."""

    def __init__(self, pair):
        self.n = pair.frame.n_def
        self.dim = pair.frame.dim
        self.mats = [DomainMatrix([[qqi(b[i, j]) for j in range(self.n)]
                                   for i in range(self.n)], (self.n, self.n), QQ_I)
                     for b in pair.frame.basis]

    def matrix(self, coords):
        acc = DomainMatrix.zeros((self.n, self.n), QQ_I)
        for c, b in zip(coords, self.mats):
            if not c.is_zero():
                acc = acc + b * qqi(c)
        return acc


def _equal(a, b):
    # compares entries, whatever the internal (dense or sparse) format
    return (a - b).is_zero_matrix


def _block(m, rows, cols):
    return m.extract(list(rows), list(cols))


def invariants(family, m):
    """chi1 recomputed from sympy characteristic polynomials: the
    non-leading coefficients without the trace one (splitA), of the block
    product (glgl), or of the g0 block (diag)."""
    n = m.shape[0]
    if family == "splitA":
        poly = m.charpoly()
        return tuple(poly[2:]), poly[1]
    if family == "glgl":
        h = n // 2
        top = _block(m, range(h), range(h, n))
        bot = _block(m, range(h, n), range(h))
        return tuple((top * bot).charpoly()[1:]), QQ_I.zero
    if family == "diag":
        k = n // 2
        poly = _block(m, range(k), range(k)).charpoly()
        return tuple(poly[2:]), poly[1]
    raise ValueError(family)


# -- report checks ---------------------------------------------------------------


def check_report(spec, doc, checks):
    cf = closed_forms(spec)
    sub = doc["subgroup_report"]
    for key, field in (("W", "W_order"), ("W_theta", "W_theta_order"),
                       ("W0", "W0_order"), ("Wa", "Wa_order")):
        if cf[key] is not None:
            checks.expect(sub[field] == cf[key],
                          f"{spec}: {field} {sub[field]} != {cf[key]}")
    if cf["rank_g"] is None:
        return
    wa = cf["Wa"]
    checks.expect(doc["borel_census"]["split_borel_count"] == wa,
                  f"{spec}: split Borel count != |W_a| = {wa}")

    ci = [[parse_gauss(e) for e in row] for row in doc["canonical_involution"]["matrix"]]
    r = len(ci)
    theta = DomainMatrix(ci, (r, r), QQ_I)
    ident = DomainMatrix.eye(r, QQ_I)
    checks.expect(r == cf["rank_g"], f"{spec}: canonical involution acts on rank {r}")
    checks.expect(_equal(theta * theta, ident), f"{spec}: canonical involution does not square to 1")
    fixed = r - (theta - ident).rank()
    checks.expect(fixed + cf["r1"] == cf["rank_g"],
                  f"{spec}: fixed dimension {fixed} + r1 != rank g")

    kw = doc["kw_audit"]
    checks.expect(kw["samples_regular"] == 50, f"{spec}: kw_audit regular samples != 50")
    checks.expect(kw["chi1_injective_on"] == 50, f"{spec}: chi1 injective on != 50 samples")
    checks.expect(kw["round_trips"] == 20, f"{spec}: kw_audit round trips != 20")

    fr = doc["fiber_reports"]
    rss, nil, deg = fr["regular_semisimple"], fr["regular_nilpotent"], fr["degenerate"]
    checks.expect(rss["cardinality"] == wa, f"{spec}: regular semisimple fiber != |W_a|")
    checks.expect(nil["cardinality"] == 1, f"{spec}: regular nilpotent fiber != 1 point")
    stab = deg["stabilizer_order"]
    checks.expect(stab > 1 and wa % stab == 0 and deg["cardinality"] == wa // stab,
                  f"{spec}: degenerate fiber {deg['cardinality']} != |W_a|/{stab}")
    census = fr["component_census"]
    checks.expect(census["group_size"] == wa
                  and census["total_points"] == census["groups"] * census["group_size"],
                  f"{spec}: census total != groups x |W_a|")
    for where in ("at_zero", "at_degenerate"):
        checks.expect(doc["dimension_audit"][where]["all_equal_dim_g1_minus_r1"] is True,
                      f"{spec}: dimension audit {where} fails")
    if spec.startswith("diag:"):
        checks.expect(doc["diagonal_isomorphism"]["round_trips"] == 20,
                      f"{spec}: diagonal comparison round trips != 20")


# -- slice query checks ------------------------------------------------------------


def check_query(pair, basis, rank_g, query, checks):
    """`query` holds the drawn point y (a-coordinates and the expected
    spectrum), the program's chi1(y), slice point x, regularity verdict,
    eigenvalues of x and, at wall points, the Jordan parts of x."""
    spec = pair.pair_id
    family = pair.spec.family
    y_m = basis.matrix(query["y"])
    x_m = basis.matrix(query["x"])
    inv_y, tr_y = invariants(family, y_m)
    inv_x, tr_x = invariants(family, x_m)
    got = tuple(qqi(c) for c in query["chi1_y"])
    checks.expect(tr_x == QQ_I.zero and tr_y == QQ_I.zero, f"{spec}: trace coefficient nonzero")
    checks.expect(got == inv_y, f"{spec}: chi1(y) differs from sympy's invariants")
    checks.expect(inv_x == inv_y, f"{spec}: chi1(x) != chi1(y)")

    returned = Counter((e.re, e.im) for e in query["eigenvalues"])
    expected = Counter((e.re, e.im) for e in query["spectrum"])
    checks.expect(returned == expected, f"{spec}: eigenvalues of x != spectrum of y")

    # regular: the commutator map z -> [x, z] on g has kernel of dimension rank g
    flats = [(x_m * b - b * x_m).to_list_flat() for b in basis.mats]
    ad_x = DomainMatrix([list(r) for r in zip(*flats)], (basis.n ** 2, basis.dim), QQ_I)
    kernel_dim = basis.dim - ad_x.rank()
    checks.expect(query["regular"] is True and kernel_dim == rank_g,
                  f"{spec}: x regularity verdict {query['regular']}, kernel {kernel_dim}")

    if query["parts"] is not None:
        ss_m = basis.matrix(query["parts"][0])
        nil_m = basis.matrix(query["parts"][1])
        checks.expect(_equal(ss_m + nil_m, x_m), f"{spec}: ss + nil != x")
        checks.expect(_equal(ss_m * nil_m, nil_m * ss_m), f"{spec}: [ss, nil] != 0")
        checks.expect(not nil_m.is_zero_matrix and (nil_m ** basis.n).is_zero_matrix,
                      f"{spec}: nil part is zero or not nilpotent")

