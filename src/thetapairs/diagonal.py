"""The diagonal pair versus the classical simultaneous resolution.

For (g0 + g0, diagonal) the restricted family is compared with the
classical resolution of g0: phi((X,-X),(B1,B2)) = (X,B1), with inverse
psi(X,B) completing B by the unique Borel B2 containing X with
B cap B2 = Z_B(X_ss) = Z_{B2}(X_ss).  psi is a formula on the block-word
charts, where B's eigenvalue word keeps each eigenvalue's letters
together: B2 reads that word reversed along the kernel filtrations of
`fibers`, so its existence and uniqueness there are proved, not searched
for.  At a word that interleaves, such as (1, -2, 1), no completion
exists, and the audit samples block words only.  The pair-point property
is checked on the spans, and in the value-sorted chart B2's flag is
cross-checked, prefix by prefix, against the explicit Z_B(X_ss) U_P^op
construction.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .fibers import flag_of_word, kernel_filtration
from .gaussian import GaussRat, ONE, ZERO
from .jordan import eigenspaces
from .liealg import LinearAlgebraFrame, flag_stabilizer
from .matrix import ExactMatrix, coordinates_in_basis, intersect_spans, span_eq
from .pairs import CatalogError, SymmetricPairRealization, _sl_basis


Flag = Tuple[Tuple[GaussRat, ...], ...]   # chain of vectors, one new per step


class Completion(NamedTuple):
    """psi's completion of (X, B1) with the spans it is checked on, all in
    frame coordinates: B1's eigenvalue word, Lie(B1), Z_B1(X_ss), Lie(B2),
    B1 cap B2 and Z_B2(X_ss)."""
    flag: Flag
    word: List[GaussRat]
    b1: List[List[GaussRat]]
    z_b1: List[List[GaussRat]]
    b2: List[List[GaussRat]]
    inter: List[List[GaussRat]]
    z_b2: List[List[GaussRat]]


def psi_complete(frame: LinearAlgebraFrame, x: ExactMatrix, ss: ExactMatrix,
                 b1_flag: Flag) -> Optional[Completion]:
    """The X-invariant flag B2 that reads B1's eigenvalue word reversed
    along the kernel filtrations of x - ss on the eigenspaces of ss, with
    the spans the pair-point property is decided on; None when a vector of
    B1's flag is not an eigenvector of ss, so that the word is not read.

    In the basis of filtration vectors every X-invariant flag is the
    coordinate flag of its word, B_w cap B_w' is spanned by the diagonal
    and the E_ab with a before b in both orders, and Z(X_ss) by the E_ab
    with equal eigenvalues, which every word orders by filtration stage.
    So Z_B1(X_ss) = Z_B2(X_ss) always, and B1 cap B2 = Z_B1(X_ss) exactly
    when B2 reverses every pair of distinct letters: when B1's word keeps
    each eigenvalue's letters together, as on the sampled chart, the
    reversed word is the one completion; when they interleave there is
    none, and the reversed word fails the pair-point test."""
    word = [_eigenvalue_on(ss, vec) for vec in b1_flag]
    if any(lam is None for lam in word):
        return None
    nil = x - ss
    filtrations = {lam: kernel_filtration(nil, space) for lam, space in eigenspaces(ss)}
    flag = tuple(tuple(v) for v in flag_of_word(filtrations, word[::-1]))
    b1 = flag_stabilizer(frame, [b1_flag])
    b2 = flag_stabilizer(frame, [flag])
    z = frame.centralizer([frame.to_coords(ss)])
    return Completion(flag, word, b1, intersect_spans(b1, z), b2,
                      intersect_spans(b1, b2), intersect_spans(b2, z))


def _sorted_chart_opposite(b1_flag: Flag, word: List[GaussRat]) -> Optional[Flag]:
    """The literal Z_B(X_ss) U_P^op construction, valid when the flag order
    sorts the eigenvalues (so that Z.B is a parabolic); None otherwise."""
    # the eigenvalue blocks of the flag, in flag order
    blocks: Dict[GaussRat, List[Tuple[GaussRat, ...]]] = {}
    order: List[GaussRat] = []
    for vec, lam in zip(b1_flag, word):
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
        x, ss, flag = _sample_chart_point(k, rng)
        if x is None:
            continue
        round_trips += 1
        if not _round_trip_holds(frame, x, ss, flag):
            failures += 1
    return DiagonalAudit(round_trips, failures)


def _round_trip_holds(frame, x, ss, flag) -> bool:
    # phi(psi(X,B)) = (X,B) by construction, and psi(phi(X,B1,B2)) = B2 as
    # the completion is unique (proved at `psi_complete`); the content is
    # the pair-point validity of the one completion psi writes down
    completion = psi_complete(frame, x, ss, flag)
    if completion is None or not _is_pair_point(frame, x, completion):
        return False
    # in the sorted chart, the explicit opposite-parabolic formula agrees:
    # two complete flags fix the same Borel exactly when every prefix of
    # one spans the same subspace as that of the other
    sorted_guess = _sorted_chart_opposite(flag, completion.word)
    return sorted_guess is None or all(
        span_eq(sorted_guess[:j], completion.flag[:j]) for j in range(1, len(flag)))


def _sample_chart_point(k, rng):
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
    B1 cap B2 = Z_B1(X_ss) = Z_B2(X_ss), with X in B2, decided here, once,
    on the spans of psi's completion."""
    inter, b2 = completion.inter, completion.b2
    return (span_eq(inter, completion.z_b1) and span_eq(inter, completion.z_b2)
            and coordinates_in_basis(b2, frame.to_coords(x)) is not None)
