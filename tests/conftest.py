"""Oracles and recording fixtures shared by several test modules."""

import pytest

from thetapairs import pairs
from thetapairs.matrix import ExactMatrix
from thetapairs.report import build_report


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
