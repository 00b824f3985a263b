import pytest

from koszulator.fields import RationalField
from koszulator.polyring import parse_polynomial, ring_from_strings
from koszulator.koszul import (
    CycleError,
    build_koszul,
    certify_complete_intersection,
    cycles_by_echelon,
    cycles_from_user,
    homology_dims,
    merge_wedge,
    subsets,
    validate_cycles,
    wedge_sign,
)

VARS = ["x", "y", "z"]
Q = RationalField()


def strings(ring, gmap):
    return [
        [gmap.entry(r, c).to_string(VARS) for c in range(gmap.source.rank)]
        for r in range(gmap.target.rank)
    ]


def test_koszul_differentials_n3(ex2):
    K = ex2.K
    assert strings(ex2.ring, K.complex.differential(1)) == [["x", "y", "z"]]
    assert strings(ex2.ring, K.complex.differential(2)) == [
        ["-y", "-z", "0"],
        ["x", "0", "-z"],
        ["0", "x", "y"],
    ]
    assert strings(ex2.ring, K.complex.differential(3)) == [["z"], ["-y"], ["x"]]


def test_subsets_and_wedge_sign():
    assert subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]
    # e_2 ∧ e_{13} = -e_{123}
    assert wedge_sign(2, (1, 3)) == (-1, (1, 2, 3))
    assert wedge_sign(1, (2, 3)) == (1, (1, 2, 3))
    assert wedge_sign(3, (1, 2)) == (1, (1, 2, 3))
    assert wedge_sign(1, (1, 2)) == (0, None)


def test_merge_wedge_is_the_shuffle_sign():
    # e_{13} ∧ e_2 = -e_{123}, e_1 ∧ e_2 = +e_{12}, e_2 ∧ e_1 = -e_{12}
    assert merge_wedge((1, 3), (2,)) == (-1, (1, 2, 3))
    assert merge_wedge((1,), (2,)) == (1, (1, 2))
    assert merge_wedge((2,), (1,)) == (-1, (1, 2))
    assert merge_wedge((1,), (1,)) == (0, None)


def test_cycles_match_published_representatives(ex2, ex3):
    assert [[p.to_string(VARS) for p in z] for z in ex2.Z.cycles] == [
        ["x", "0", "0"],
        ["0", "y", "z"],
    ]
    assert [[p.to_string(VARS) for p in z] for z in ex3.Z.cycles] == [
        ["x", "y", "0"],
        ["0", "0", "x"],
        ["0", "x", "z"],
    ]


def test_echelon_extraction_spans_the_same_classes(both):
    for ex in both:
        Z2 = cycles_by_echelon(ex.K)
        validate_cycles(Z2)
        # same cycle vectors up to order for these examples
        as_strings = lambda Z: sorted(
            tuple(p.to_string(VARS) for p in z) for z in Z.cycles
        )
        assert as_strings(Z2) == as_strings(ex.Z)


def test_koszul_homology_dims(both):
    for ex in both:
        c = ex.ring.codepth
        dims = homology_dims(ex.K, 8)
        from math import comb

        assert dims == [comb(c, i) for i in range(4)]


def test_certification(both):
    for ex in both:
        assert certify_complete_intersection(ex.K, ex.Z)["certified"]


def test_certification_rejects_non_complete_intersection():
    # x^2, xy is not a regular sequence: H_1 too big relative to codepth
    ring = ring_from_strings(["x", "y"], ["x^2", "x*y"], Q)
    K = build_koszul(ring)
    assert not certify_complete_intersection(K)["certified"]


def test_echelon_extraction_stops_after_top_generator_degree():
    # (x^2, y^2, x^2+y^2) has 3 generators but H_1(K) = I/mI has dimension 2,
    # all of it in degree 2
    ring = ring_from_strings(VARS, ["x^2", "y^2", "x^2+y^2"], Q)
    with pytest.raises(CycleError, match="ran out of degrees"):
        cycles_by_echelon(build_koszul(ring))


def test_user_cycles_validated(ex2):
    ring = ex2.ring
    good = [
        [parse_polynomial(t, VARS, Q) for t in row]
        for row in (["x", "0", "0"], ["0", "y", "z"])
    ]
    Z = cycles_from_user(ex2.K, good)
    assert Z.degrees == [2, 2]
    bad = [good[0], [parse_polynomial(t, VARS, Q) for t in ("0", "y", "0")]]
    with pytest.raises(CycleError):
        cycles_from_user(ex2.K, bad)
    for z1 in (good[0][:1], good[0] + [parse_polynomial("y", VARS, Q)]):
        with pytest.raises(CycleError, match="coordinates"):
            cycles_from_user(ex2.K, [z1, good[1]])


def test_wedge_and_differential_consistency(ex2):
    K = ex2.K
    z1 = ex2.Z.element(0)
    z2 = ex2.Z.element(1)
    w = K.wedge(z1, z2)
    dw = K.apply_differential(w)
    # d(z1∧z2) = d(z1)∧z2 - z1∧d(z2) = 0 since both are cycles
    assert all(ex2.ring.normal_form(p).is_zero() for p in dw.values())
