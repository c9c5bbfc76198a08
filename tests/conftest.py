"""Oracles and recording fixtures shared by several test modules."""

import pytest

from thetapairs import pairs
from thetapairs.fibers import g0_weyl_lifts
from thetapairs.gaussian import GaussRat
from thetapairs.involutions import SplitWeylLifts, lift_closure, root_value
from thetapairs.jordan import eigenvalues
from thetapairs.liealg import _combine
from thetapairs.matrix import ExactMatrix, independent_subset, restrict_action, span_eq
from thetapairs.pairs import CatalogError
from thetapairs.report import build_report


def negation_perm(datum):
    """The permutation k -> index of -alpha_k on a `RootDatum`'s roots."""
    return bytes(datum.index(tuple(-x for x in r)) for r in datum.all_roots)


def split_weyl_table(pair):
    """The torus matrix M_w of every element w of the split Weyl group, in
    the element order of `enumerate_weyl`: the product of the restricted
    simple lifts of `SplitWeylLifts` along the path that first reached w."""
    lifts = SplitWeylLifts.of(pair)
    return lift_closure(lifts.gens, lifts.nroots,
                        ExactMatrix.identity(len(pair.split_roots.torus)))


def recursive_invariant_flags(m):
    """All complete flags invariant under a regular matrix with Q(i)
    spectrum, found by recursion through quotient actions: the oracle of
    `diagonal.invariant_flags`, in the same GaussRat.sort_key order.

    At every step the invariant lines of the induced quotient action are
    the eigenlines, one per eigenvalue (regularity keeps the quotients
    regular, so the eigenspaces stay one-dimensional).  The quotient's
    spectrum is m's without the eigenvalues of the lines already chosen.
    """
    def rec(space, done, spectrum):
        # space: lifts spanning a complement of the flag built so far
        if not space:
            return [[]]
        d, q = len(done), len(space)
        # done + space is a basis; the quotient action is the lower-right block
        restr = restrict_action(m, done + space)
        if restr is None:
            raise CatalogError("the lifts do not span the whole space")
        quotient = restr.block(d, d, q, q)
        flags = []
        for lam in sorted(set(spectrum), key=GaussRat.sort_key):
            kern = (quotient - ExactMatrix.identity(q).scale(lam)).kernel_basis()
            if not kern:
                raise CatalogError("an eigenvalue of m is not one of the quotient action")
            if len(kern) != 1:
                raise CatalogError("matrix is not regular; flag count infinite")
            line = _combine(space, kern[0])
            # done + [line] is independent, so the greedy subset keeps it
            rest = independent_subset(done + [line] + space)[d + 1:]
            left = list(spectrum)
            left.remove(lam)
            for tail in rec(rest, done + [line], left):
                flags.append([line] + tail)
        return flags

    out = []
    for chain in rec(ExactMatrix.identity(m.rows).row_lists(), [], eigenvalues(m)):
        if len(chain) != m.rows:
            raise CatalogError("an invariant flag is not complete")
        out.append(tuple(tuple(v) for v in chain))
    return out


def exhibit_fiber_conjugators(pair, report):
    """Explicit G0 conjugators moving the first fiber Borel onto each of
    the others, when the G0 Weyl lifts suffice (always, for the regular
    semisimple and nilpotent witnesses of the catalog pairs).  Returns None
    when some point is not reached."""
    if len(report.fiber_points) <= 1:
        return []
    lifts = g0_weyl_lifts(pair)
    base = report.fiber_points[0].witness_borel
    out = []
    for point in report.fiber_points[1:]:
        found = None
        for m in lifts.values():
            image = [m.apply(v) for v in base]
            if span_eq(image, point.witness_borel):
                found = m
                break
        if found is None:
            return None
        out.append(found)
    return out


def defining_involution(pair):
    """theta on the defining matrices, as each matrix-level family defines
    it: -X^T (splitA), Ad(diag(I, -I)) (glgl), the factor swap (diag)."""
    n = pair.frame.n_def
    if pair.spec.family == "splitA":
        return lambda m: -m.transpose()
    if pair.spec.family == "glgl":
        eps = ExactMatrix.diagonal([1] * (n // 2) + [-1] * (n // 2))
    else:
        eps = ExactMatrix(n, n, [int((i + n // 2) % n == j)
                                 for i in range(n) for j in range(n)])
    return lambda m: eps @ m @ eps


@pytest.fixture(scope="session")
def dense_theta():
    """Builds the dense dim g x dim g matrix of theta on a pair's
    coordinates from the defining involution, through `frame.to_coords`,
    independently of the pair's sign vector."""
    def build(pair):
        theta = defining_involution(pair)
        return ExactMatrix.from_columns([pair.frame.to_coords(theta(b))
                                         for b in pair.frame.basis])
    return build


def dense_exp_ad(pair, x):
    """Ad(exp(X)) = exp(ad x) as the dense dim g x dim g exponential of the
    adjoint matrix of x, for x with X nilpotent."""
    return pair.ad(x).exp_nilpotent()


def dense_reflection_lift(pair, e, f_raw, torus, weight):
    """`involutions.reflection_lift` through the adjoint representation:
    exp(ad e) exp(-ad f) exp(ad e) as a dense dim g x dim g product, with f
    scaled so that (e, h, f) is an sl2 triple."""
    val = root_value(torus, weight, pair.bracket(e, f_raw))
    exp_e = dense_exp_ad(pair, e)
    return exp_e @ dense_exp_ad(pair, [-(GaussRat(2) / val) * x for x in f_raw]) @ exp_e


@pytest.fixture(scope="session")
def dense_exp():
    """`dense_exp_ad`, the oracle of the adjoint action on one exponential."""
    return dense_exp_ad


@pytest.fixture(scope="session")
def dense_lift():
    """`dense_reflection_lift`, the oracle of the reflection lifts; it takes
    `reflection_lift`'s arguments and returns the full matrix."""
    return dense_reflection_lift


@pytest.fixture
def record_kernel_inputs(monkeypatch):
    """Returns record(spec): builds the report of `spec` from a cold
    realize cache and returns {"rref": [...], "char_poly": [...]}, every
    matrix that `ExactMatrix.rref` and `ExactMatrix.char_poly` was called
    on, in call order, so that a kernel test can replay a report's real
    inputs through an oracle."""
    def record(spec):
        inputs = {name: [] for name in ("rref", "char_poly")}

        def recording(name, method):
            def call(self):
                inputs[name].append(self)
                return method(self)
            return call

        methods = {name: getattr(ExactMatrix, name) for name in inputs}
        for name, method in methods.items():
            monkeypatch.setattr(ExactMatrix, name, recording(name, method))
        pairs._realize_cached.cache_clear()
        try:
            build_report(spec, with_timing=False)
        finally:
            for name, method in methods.items():
                monkeypatch.setattr(ExactMatrix, name, method)
        return inputs
    return record
