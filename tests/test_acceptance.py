"""Acceptance: `theta-pairs verify` reproduces the committed golden lines,
one test per suite, and the slow claims stay inside their wall-clock
budgets (E6 and the weyl suite < 60 s, the G2 claims < 1 s, the borels
suite with the W_a-torsor < 30 s, the slice suite < 60 s).  The remaining
numbered criteria name the `CHECKS` entries that carry their claim and
read its outcomes from the same `verify <suite>` run.

The claims themselves live in `thetapairs.checks.CHECKS`; every verdict
is exact, and the only tolerances are the budgets.  Run
`pytest tests/test_acceptance.py -s` to see the verify lines.
"""

import contextlib
import functools
import io
import time
from pathlib import Path
from unittest import mock

from thetapairs import cli, pairs
from thetapairs.checks import CHECKS, SUITES, run_checks
from thetapairs.cli import main
from thetapairs.pairs import FULL_CATALOG, MATRIX_CATALOG

# stdout of `theta-pairs verify all`, and the number of its lines per suite
GOLDEN = (Path(__file__).parent / "data" / "verify_all.txt").read_text().splitlines()
SUITE_LINES = {"weyl": 7, "borels": 14, "nilcone": 7, "slice": 14, "fibers": 45,
               "stabilizers": 11}
# wall-clock budgets (seconds) of the suites timed from freshly realized pairs
BUDGETS = {"weyl": 60, "borels": 30, "slice": 60}


def _golden_lines(suite):
    start = 0
    for name, count in SUITE_LINES.items():
        if name == suite:
            return GOLDEN[start:start + count]
        start += count
    raise KeyError(suite)


def test_golden_covers_every_check():
    total = sum(SUITE_LINES.values())
    assert tuple(SUITE_LINES) == SUITES
    assert GOLDEN[-1] == f"{total}/{total} checks passed" and len(GOLDEN) == total + 1
    # every entry applies to catalog pairs and prints one line per pair
    assert all(c.pairs and set(c.pairs) <= set(FULL_CATALOG) for c in CHECKS)
    assert sum(len(c.pairs) for c in CHECKS) == total
    assert len({c.id for c in CHECKS}) == len(CHECKS)


@functools.lru_cache(maxsize=None)
def _verify(suite):
    """Run `theta-pairs verify <suite>` once: its exit code, stdout, the
    outcomes it printed, and its wall-clock seconds (from freshly realized
    pairs for a budgeted suite)."""
    outcomes = []

    def recording(*args):
        for outcome in run_checks(*args):
            outcomes.append(outcome)
            yield outcome

    if suite in BUDGETS:
        pairs._realize_cached.cache_clear()
    out = io.StringIO()
    start = time.perf_counter()
    with mock.patch.object(cli, "run_checks", recording), contextlib.redirect_stdout(out):
        code = main(["verify", suite])
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), tuple(outcomes), elapsed


def _verify_matches_golden(suite):
    """`theta-pairs verify <suite>` prints the golden lines, passes, and
    keeps its budget."""
    code, out, _, elapsed = _verify(suite)
    print(out, end="")
    lines = _golden_lines(suite)
    assert out.splitlines() == lines + [f"{len(lines)}/{len(lines)} checks passed"]
    assert code == 0
    assert suite not in BUDGETS or elapsed < BUDGETS[suite], f"elapsed {elapsed:.1f}s"


def _claim_holds(suite, ids, specs=None):
    """The entries `ids` of `suite` passed at every pair they apply to (the
    pairs `specs`, when given), with the golden labels."""
    checks = [c for c in CHECKS if c.id in ids]
    assert {c.id for c in checks} == set(ids) and all(c.suite == suite for c in checks)
    if specs is not None:
        assert all(c.pairs == tuple(specs) for c in checks)
    outcomes = [o for o in _verify(suite)[2] if o.check.id in ids]
    assert sorted((o.check.id, o.spec) for o in outcomes) == sorted(
        (c.id, s) for c in checks for s in c.pairs)
    assert all(o.ok and o.error is None for o in outcomes)
    golden = set(_golden_lines(suite))
    assert all(f"{o.label}: PASS" in golden for o in outcomes)


def test_criterion_01_weyl_indices_e6():
    _verify_matches_golden("weyl")


def test_criterion_02_g2_split():
    # the G2 claims of the weyl and nilcone suites, from a fresh realization
    pairs._realize_cached.cache_clear()
    checks = [c for c in CHECKS if c.pairs == ("g2split",)]
    start = time.perf_counter()
    outcomes = list(run_checks(checks, {"g2split"}))
    elapsed = time.perf_counter() - start
    assert len(outcomes) == 3 and all(o.ok for o in outcomes)
    assert elapsed < 1.0, f"elapsed {elapsed:.2f}s"


def test_verify_nilcone_matches_golden():
    _verify_matches_golden("nilcone")


def test_criterion_03_split_borel_torsor():
    _verify_matches_golden("borels")


def test_criterion_04_canonical_involution_well_defined():
    _claim_holds("borels", {"borels.canonical_involution"}, MATRIX_CATALOG)


def test_criterion_05_kw_slice():
    _verify_matches_golden("slice")


def test_verify_fibers_matches_golden():
    _verify_matches_golden("fibers")


def test_criterion_06_fiber_cardinalities():
    _claim_holds("fibers", {"fibers.regular_semisimple", "fibers.regular_nilpotent",
                            "fibers.degenerate"}, MATRIX_CATALOG)


def test_criterion_07_component_census():
    _claim_holds("fibers", {"fibers.census"}, MATRIX_CATALOG)


def test_criterion_08_dimension_audit():
    _claim_holds("fibers", {"fibers.dimension_audit_at_zero",
                            "fibers.dimension_audit_at_degenerate"}, MATRIX_CATALOG)
    _claim_holds("fibers", {"fibers.sl2_two_components"}, ["splitA:n=1"])


def test_criterion_09_diagonal_isomorphism():
    _claim_holds("fibers", {"fibers.diagonal_round_trips"}, ["diag:sl2", "diag:sl3"])


def test_verify_stabilizers_matches_golden():
    _verify_matches_golden("stabilizers")


def test_criterion_10_stabilizer_contrast():
    _claim_holds("stabilizers", {"sl2.nilpotent_plane_stabilizer", "sl2.admissible",
                                 "sl2.lattice", "pgl2.lattice"}, ["splitA:n=1"])


def test_criterion_11_tangent_solver():
    _claim_holds("stabilizers", {"stabilizers.tangent_solver"}, MATRIX_CATALOG)


def test_criterion_12_section_value_at_zero():
    _claim_holds("slice", {"slice.section_at_zero"}, MATRIX_CATALOG)
