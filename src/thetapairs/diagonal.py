"""The diagonal pair versus the classical simultaneous resolution.

For (g0 + g0, diagonal) the restricted family is isomorphic to the
classical resolution of g0: phi((X,-X),(B1,B2)) = (X,B1), with inverse
psi(X,B) completing B by the unique Borel B2 containing X with
B cap B2 = Z_B(X_ss) = Z_{B2}(X_ss).  psi is realized by searching the
(finite) set of X-invariant flags for the unique completion; in the
value-sorted chart it is cross-checked against the explicit
Z_B(X_ss) U_P^op construction.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .gaussian import GaussRat, ONE, ZERO, gaussian_roots
from .liealg import LinearAlgebraFrame, Vector, _combine, flag_stabilizer
from .matrix import ExactMatrix, coordinates_in_basis, span_eq, span_rank
from .pairs import CatalogError, SymmetricPairRealization, _sl_basis


Flag = Tuple[Tuple[GaussRat, ...], ...]   # chain of vectors, one new per step


def _intersection(a: Sequence[Vector], b: Sequence[Vector]) -> List[Vector]:
    from .matrix import intersect_spans

    return intersect_spans([list(v) for v in a], [list(v) for v in b])


def invariant_flags(m: ExactMatrix) -> List[Flag]:
    """All complete flags invariant under a regular matrix with Q(i)
    spectrum.

    At every step the invariant lines of the induced quotient action are
    the eigenlines, one per eigenvalue (regularity keeps the quotients
    regular, so the eigenspaces stay one-dimensional).
    """
    n = m.rows

    def rec(space: List[List[GaussRat]], done: List[List[GaussRat]]):
        # space: lifts spanning a complement of the flag built so far
        if not space:
            return [[]]
        ambient = [list(v) for v in done] + [list(v) for v in space]
        basis_mat = ExactMatrix.from_columns(ambient)
        d = len(done)
        q = len(space)
        cols = []
        for v in space:
            full = basis_mat.solve(m.apply(v))
            cols.append(full[d:])  # quotient coordinates
        restr = ExactMatrix.from_columns(cols)
        flags = []
        for lam in sorted(set(gaussian_roots(restr.char_poly())), key=GaussRat.sort_key):
            shifted = restr - ExactMatrix.identity(q).scale(lam)
            kern = shifted.kernel_basis()
            if len(kern) != 1:
                raise AssertionError("matrix is not regular; flag count infinite")
            line = _combine(space, kern[0])
            rest = []
            current = [list(v) for v in done] + [list(line)]
            for v in space:
                if span_rank(current + [list(v)]) > len(current):
                    rest.append(v)
                    current.append(list(v))
            for tail in rec(rest, done + [line]):
                flags.append([line] + tail)
        return flags

    unit_space = [[ONE if i == k else ZERO for i in range(n)] for k in range(n)]
    out = []
    for chain in rec(unit_space, []):
        if len(chain) != n:
            raise CatalogError("an invariant flag is not complete")
        out.append(tuple(tuple(v) for v in chain))
    return out


def _centralizer_in_frame(frame: LinearAlgebraFrame, m: ExactMatrix) -> List[Vector]:
    rows = []
    for b in frame.basis:
        comm = m.commutator(b)
        rows.append(frame.to_coords(comm))
    mat = ExactMatrix.from_columns(rows)
    return mat.kernel_basis()


def psi_complete(frame: LinearAlgebraFrame, x: ExactMatrix, ss: ExactMatrix,
                 b1_flag: Flag) -> Optional[Flag]:
    """The unique X-invariant flag B2 with B1 cap B2 = Z_{B1}(X_ss)
    = Z_{B2}(X_ss), or None when there is no such flag or more than one."""
    b1 = flag_stabilizer(frame, [b1_flag])
    z = _centralizer_in_frame(frame, ss)
    z_b1 = _intersection(b1, z)
    matches = []
    for flag in invariant_flags(x):
        b2 = flag_stabilizer(frame, [flag])
        inter = _intersection(b1, b2)
        if not span_eq(inter, z_b1):
            continue
        z_b2 = _intersection(b2, z)
        if span_eq(z_b2, z_b1):
            matches.append(flag)
    return matches[0] if len(matches) == 1 else None


def _sorted_chart_opposite(frame: LinearAlgebraFrame, x: ExactMatrix,
                           ss: ExactMatrix, b1_flag: Flag) -> Optional[Flag]:
    """The literal Z_B(X_ss) U_P^op construction, valid when the flag order
    sorts the eigenvalues (so that Z.B is a parabolic); None otherwise."""
    seen = []
    for vec in b1_flag:
        lam = _eigenvalue_on(ss, vec, frame)
        if lam is None:
            return None
        if seen and any(lam == s for s in seen[:-1]) and seen[-1] != lam:
            return None  # eigenvalues interleave; not the sorted chart
        if not seen or seen[-1] != lam:
            seen.append(lam)
        # contiguous blocks only
    # u_P^op: strictly lower block part relative to the sorted block order
    blocks: Dict[GaussRat, List[Tuple[GaussRat, ...]]] = {}
    order: List[GaussRat] = []
    for vec in b1_flag:
        lam = _eigenvalue_on(ss, vec, frame)
        if lam not in blocks:
            blocks[lam] = []
            order.append(lam)
        blocks[lam].append(vec)
    opposite_flag: List[Tuple[GaussRat, ...]] = []
    for lam in reversed(order):
        opposite_flag.extend(blocks[lam])
    # B2 = Z_B(X_ss) U_P^op: stabilizer of the block-reversed flag refined by
    # the original in-block order
    return tuple(opposite_flag)


def _eigenvalue_on(ss: ExactMatrix, vec, frame) -> Optional[GaussRat]:
    image = ss.apply(list(vec))
    coeff = coordinates_in_basis([list(vec)], image)
    return coeff[0] if coeff is not None else None


class DiagonalAudit(NamedTuple):
    round_trips: int   # samples taken through phi and psi
    failures: int      # samples on which a round trip or a check failed


def diagonal_isomorphism_check(pair: SymmetricPairRealization, seed: int = 0,
                               n_samples: int = 20) -> DiagonalAudit:
    """Round-trip audit of phi and psi on chart points generated
    deterministically from the seed; counts the samples and the failed
    round trips."""
    if pair.spec.family != "diag":
        raise CatalogError("diagonal comparison applies to diag pairs only")
    k = pair.frame.n_def // 2
    frame = LinearAlgebraFrame(_sl_basis(k))
    rng = random.Random(0xD1A6 + seed)
    round_trips = failures = 0
    trial = 0
    while round_trips < n_samples:
        trial += 1
        if trial > 40 * n_samples + 100:
            raise AssertionError("could not generate enough samples")
        x, ss, flag = _sample_chart_point(frame, k, rng)
        if x is None:
            continue
        round_trips += 1
        if not _round_trip_holds(frame, x, ss, flag):
            failures += 1
    return DiagonalAudit(round_trips, failures)


def _round_trip_holds(frame, x, ss, flag) -> bool:
    # phi(psi(X,B)) = (X,B) by construction, and psi(phi(X,B1,B2)) = B2 by
    # the uniqueness of the completion; the content is existence and
    # uniqueness of the completion and the pair-point validity
    b2_flag = psi_complete(frame, x, ss, flag)
    if b2_flag is None or not _is_pair_point(frame, x, ss, flag, b2_flag):
        return False
    # in the sorted chart, the explicit opposite-parabolic formula agrees
    sorted_guess = _sorted_chart_opposite(frame, x, ss, flag)
    return sorted_guess is None or span_eq(flag_stabilizer(frame, [b2_flag]),
                                           flag_stabilizer(frame, [sorted_guess]))


def _sample_chart_point(frame, k, rng):
    vals = [rng.randint(-3, 3) for _ in range(k)]
    vals[-1] = -sum(vals[:-1])  # trace zero
    ss = ExactMatrix.diagonal(vals)
    sigma = list(range(k))
    rng.shuffle(sigma)
    # nilpotent part: consecutive equal eigenvalues in sigma order
    entries = {}
    for a, b in zip(sigma, sigma[1:]):
        if vals[a] == vals[b]:
            entries[(a, b)] = ONE
    nil = ExactMatrix(k, k, [entries.get((i, j), ZERO)
                             for i in range(k) for j in range(k)])
    x = ss + nil
    # regular exactly when every repeated eigenvalue group is chained
    from collections import Counter

    counts = Counter(vals)
    chained = Counter()
    for a, b in zip(sigma, sigma[1:]):
        if vals[a] == vals[b]:
            chained[vals[a]] += 1
    for lam, c in counts.items():
        if chained[lam] != c - 1:
            return None, None, None
    flag = tuple(tuple(ONE if i == s else ZERO for i in range(k)) for s in sigma)
    return x, ss, flag


def _is_pair_point(frame, x, ss, b1_flag, b2_flag) -> bool:
    """The defining property of the restricted family for diagonal pairs:
    B1 cap B2 = Z_B1(X_ss) = Z_B2(X_ss), with X in B2."""
    b1 = flag_stabilizer(frame, [b1_flag])
    b2 = flag_stabilizer(frame, [b2_flag])
    z = _centralizer_in_frame(frame, ss)
    inter = _intersection(b1, b2)
    z_b1 = _intersection(b1, z)
    z_b2 = _intersection(b2, z)
    return (span_eq(inter, z_b1) and span_eq(inter, z_b2)
            and coordinates_in_basis([list(v) for v in b2], frame.to_coords(x)) is not None)
