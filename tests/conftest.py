"""Oracles shared by several test modules."""

import pytest

from thetapairs.matrix import ExactMatrix


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
