"""The diagonal pair versus the classical simultaneous resolution.

For (g0 + g0, diagonal) the restricted family is isomorphic to the
classical resolution of g0: phi((X,-X),(B1,B2)) = (X,B1), with inverse
psi(X,B) completing B by the unique Borel B2 containing X with
B cap B2 = Z_B(X_ss) = Z_{B2}(X_ss).  psi is realized by searching the
(finite) set of X-invariant flags, read by `fibers.flag_of_word`, for the
unique completion; in the value-sorted chart it is cross-checked against
the explicit Z_B(X_ss) U_P^op construction.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import permutations
from typing import Dict, List, NamedTuple, Optional, Tuple

from .fibers import flag_of_word, kernel_filtration
from .gaussian import GaussRat, ONE, ZERO
from .jordan import eigenspaces
from .liealg import LinearAlgebraFrame, flag_stabilizer
from .matrix import (
    ExactMatrix,
    coordinates_in_basis,
    intersect_spans,
    span_eq,
    span_rank,
)
from .pairs import CatalogError, SymmetricPairRealization, _sl_basis


Flag = Tuple[Tuple[GaussRat, ...], ...]   # chain of vectors, one new per step


def invariant_flags(x: ExactMatrix, ss: ExactMatrix) -> List[Flag]:
    """All complete flags invariant under a regular matrix x with Q(i)
    spectrum and semisimple part ss, in the lexicographic GaussRat.sort_key
    order of their eigenvalue words.

    An x-invariant subspace is the sum over the eigenvalues lam of
    ker((x - lam)^c), which is ker(nil^c) on the lam-eigenspace of ss
    (nil = x - ss); regularity makes those kernels a chain with
    one-dimensional steps.  So the complete invariant flags are the
    orderings of the spectrum, with multiplicity, each read along the
    kernel filtrations by `flag_of_word`.
    """
    spaces = eigenspaces(ss)
    if span_rank([v for _, space in spaces for v in space]) != x.rows:
        raise CatalogError("the eigenspaces of the semisimple part do not span the whole space")
    nil = x - ss
    filtrations = {lam: kernel_filtration(nil, space) for lam, space in spaces}
    letters = [j for j, (_, space) in enumerate(spaces) for _ in space]
    return [tuple(tuple(v) for v in flag_of_word(filtrations, [spaces[j][0] for j in word]))
            for word in sorted(set(permutations(letters)))]


class Completion(NamedTuple):
    """psi's completion of (X, B1) with the spans it was decided on, all in
    frame coordinates: Lie(B1), z = Z_g(X_ss), Z_B1(X_ss), Lie(B2),
    B1 cap B2 and Z_B2(X_ss)."""
    flag: Flag
    b1: List[List[GaussRat]]
    z: List[List[GaussRat]]
    z_b1: List[List[GaussRat]]
    b2: List[List[GaussRat]]
    inter: List[List[GaussRat]]
    z_b2: List[List[GaussRat]]


def psi_complete(frame: LinearAlgebraFrame, x: ExactMatrix, ss: ExactMatrix,
                 b1_flag: Flag) -> Optional[Completion]:
    """The unique X-invariant flag B2 with B1 cap B2 = Z_{B1}(X_ss)
    = Z_{B2}(X_ss), with the spans it was found on, or None when there is
    no such flag or more than one."""
    b1 = flag_stabilizer(frame, [b1_flag])
    z = frame.centralizer([frame.to_coords(ss)])
    z_b1 = intersect_spans(b1, z)
    matches = []
    for flag in invariant_flags(x, ss):
        b2 = flag_stabilizer(frame, [flag])
        inter = intersect_spans(b1, b2)
        if not span_eq(inter, z_b1):
            continue
        z_b2 = intersect_spans(b2, z)
        if span_eq(z_b2, z_b1):
            matches.append(Completion(flag, b1, z, z_b1, b2, inter, z_b2))
    return matches[0] if len(matches) == 1 else None


def _sorted_chart_opposite(ss: ExactMatrix, b1_flag: Flag) -> Optional[Flag]:
    """The literal Z_B(X_ss) U_P^op construction, valid when the flag order
    sorts the eigenvalues (so that Z.B is a parabolic); None otherwise."""
    # the eigenvalue blocks of the flag, in flag order
    blocks: Dict[GaussRat, List[Tuple[GaussRat, ...]]] = {}
    order: List[GaussRat] = []
    for vec in b1_flag:
        lam = _eigenvalue_on(ss, vec)
        if lam is None:
            return None
        if not order or order[-1] != lam:
            if lam in blocks:
                return None  # eigenvalues interleave; not the sorted chart
            blocks[lam] = []
            order.append(lam)
        blocks[lam].append(vec)
    # B2 = Z_B(X_ss) U_P^op: stabilizer of the block-reversed flag refined by
    # the original in-block order
    opposite_flag: List[Tuple[GaussRat, ...]] = []
    for lam in reversed(order):
        opposite_flag.extend(blocks[lam])
    return tuple(opposite_flag)


def _eigenvalue_on(ss: ExactMatrix, vec) -> Optional[GaussRat]:
    image = ss.apply(vec)
    coeff = coordinates_in_basis([vec], image)
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
            raise CatalogError("could not generate enough samples")
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
    completion = psi_complete(frame, x, ss, flag)
    if completion is None or not _is_pair_point(frame, x, completion):
        return False
    # in the sorted chart, the explicit opposite-parabolic formula agrees
    sorted_guess = _sorted_chart_opposite(ss, flag)
    return sorted_guess is None or span_eq(completion.b2,
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
    counts = Counter(vals)
    chained = Counter()
    for a, b in zip(sigma, sigma[1:]):
        if vals[a] == vals[b]:
            chained[vals[a]] += 1
    for lam, c in counts.items():
        if chained[lam] != c - 1:
            return None, None, None
    units = ExactMatrix.identity(k).row_lists()
    flag = tuple(tuple(units[s]) for s in sigma)
    return x, ss, flag


def _is_pair_point(frame, x, completion: Completion) -> bool:
    """The defining property of the restricted family for diagonal pairs:
    B1 cap B2 = Z_B1(X_ss) = Z_B2(X_ss), with X in B2, checked on the spans
    the completion was built from."""
    inter, b2 = completion.inter, completion.b2
    return (span_eq(inter, completion.z_b1) and span_eq(inter, completion.z_b2)
            and coordinates_in_basis(b2, frame.to_coords(x)) is not None)
