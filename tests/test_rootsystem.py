"""Root data, Weyl enumeration, and type recognition."""

import pytest
from conftest import negation_perm

from thetapairs.rootsystem import (
    EnumerationBoundExceeded,
    UnsupportedType,
    build_root_datum,
    compose,
    enumerate_weyl,
    identity_perm,
    recognize_type,
    restricted_reflection_norms,
)


def datum_type(datum, order):
    """recognize_type on a Weyl group order and the datum's positive-root
    norms."""
    roots = datum.all_roots
    return recognize_type(order, [datum.form(roots[k], roots[k])
                                  for k in datum.positive_indices()])


@pytest.mark.parametrize("label,nroots,order", [
    ("A1", 2, 2),
    ("A2", 6, 6),
    ("A3", 12, 24),
    ("B3", 18, 48),
    ("C4", 32, 384),
    ("D4", 24, 192),
    ("G2", 12, 12),
    ("F4", 48, 1152),
])
def test_classical_counts(label, nroots, order):
    datum = build_root_datum(label)
    assert len(datum.all_roots) == nroots
    group = enumerate_weyl(datum)
    assert group.order == order
    assert datum_type(datum, group.order) == label


def test_e6_has_72_roots_and_order_51840():
    datum = build_root_datum("E6")
    assert len(datum.all_roots) == 72
    group = enumerate_weyl(datum)
    assert group.order == 51840


def test_unsupported_types_refused():
    with pytest.raises(UnsupportedType):
        build_root_datum("E7")
    with pytest.raises(UnsupportedType):
        build_root_datum("H3")


def test_enumeration_bound():
    datum = build_root_datum("F4")
    with pytest.raises(EnumerationBoundExceeded):
        enumerate_weyl(datum, bound=100)


@pytest.mark.parametrize("label", ["A2", "B3", "G2"])
def test_weyl_elements_preserve_structure(label):
    datum = build_root_datum(label)
    group = enumerate_weyl(datum)
    neg = negation_perm(datum)
    simples = datum.simple_indices
    for p in group.elements:
        assert compose(p, neg) == compose(neg, p)
        # the images of the simple roots have the same pairings
        for i in simples:
            for j in simples:
                a = datum.all_roots[p[i]]
                b = datum.all_roots[p[j]]
                assert datum.form(a, b) == datum.form(datum.all_roots[i],
                                                      datum.all_roots[j])


@pytest.mark.parametrize("label", ["A2", "B3", "G2"])
def test_longest_element(label):
    datum = build_root_datum(label)
    group = enumerate_weyl(datum)
    pos = datum.positive_indices()
    longest = [p for p in group.elements
               if all(sum(datum.all_roots[p[k]]) < 0 for k in pos)]
    assert len(longest) == 1
    assert compose(longest[0], longest[0]) == identity_perm(len(datum.all_roots))


def test_recognize_full_a2():
    datum = build_root_datum("A2")
    assert datum_type(datum, enumerate_weyl(datum).order) == "A2"


def test_b4_c4_disambiguation_by_lengths():
    b4, c4 = build_root_datum("B4"), build_root_datum("C4")
    order = enumerate_weyl(b4).order
    assert order == enumerate_weyl(c4).order  # equal orders force the length profile
    assert datum_type(b4, order) == "B4"
    assert datum_type(c4, order) == "C4"


def test_e6_involution_fixed_group_is_f4():
    datum = build_root_datum("E6")
    group = enumerate_weyl(datum)
    swap = {0: 5, 5: 0, 2: 4, 4: 2, 1: 1, 3: 3}

    def flip(r):
        out = [0] * 6
        for j in range(6):
            out[swap[j]] = r[j]
        return tuple(out)

    rho = bytes(datum.index(flip(r)) for r in datum.all_roots)
    fixed_group = [p for p in group.elements
                   if compose(p, rho) == compose(rho, p)]
    assert len(fixed_group) == 1152
    assert group.order // len(fixed_group) == 45
    fixed_lattice = [(1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0),
                     (0, 0, 1, 0, 1, 0), (0, 0, 0, 1, 0, 0)]
    norms = restricted_reflection_norms(datum, fixed_group, fixed_lattice)
    assert recognize_type(1152, norms) == "F4"
    assert len(norms) == 24
