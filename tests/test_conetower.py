from koszulator.conetower import (
    ConeTower,
    level_rank_prediction,
    verify_homology_theorem,
    verify_splitting,
    verify_stabilization,
)


def test_level_zero_is_koszul(tower2, ex2):
    M0 = tower2.level(0)
    for i in range(4):
        assert M0.module(i).gens == ex2.K.complex.module(i).gens


def test_level_ranks_match_prediction(tower2, tower3):
    for tower, c in ((tower2, 2), (tower3, 3)):
        for j in range(4):
            level = tower.level(j)
            for i in range(2 * j + 4):
                assert level.module(i).rank == level_rank_prediction(3, c, j, i)


def test_tower_levels_are_complexes(tower2):
    # the ChainComplex constructor checks ∂²=0; re-assert on the top level
    M = tower2.level(3)
    for i in range(1, 10):
        assert M.differential(i - 1).compose(M.differential(i)).is_zero()


def test_homology_theorem_level_one(tower2, tower3):
    assert verify_homology_theorem(tower2, 1, 6)["pass"]
    assert verify_homology_theorem(tower3, 1, 10)["pass"]


def test_level_zero_homology_is_exterior_algebra(tower2, tower3):
    # total homology dims of M^0 = K: (1,2,1) for c=2, (1,3,3,1) for c=3
    for tower, dims in ((tower2, [1, 2, 1, 0]), (tower3, [1, 3, 3, 1])):
        M0 = tower.level(0)
        totals = [
            sum(M0.strand_homology_dim(i, d) for d in range(9)) for i in range(4)
        ]
        assert totals == dims


def test_inclusion_vanishes_in_homology(tower2):
    res = verify_splitting(tower2, 0, 4, 6)
    assert res["pass"]
    assert res["degree_zero_iso"]


def test_splitting_fails_when_inclusion_is_identity(ex2):
    # negative control: the identity K → K induces the identity on H(K),
    # so it vanishes nowhere that H(K) ≠ 0 and the check must name those strands
    K = ex2.K.complex
    fake = ConeTower(ex2.K, ex2.Z, [K, K])
    res = verify_splitting(fake, 0, 4, 6)
    assert not res["pass"]
    assert res["degree_zero_iso"]
    expected = [
        (i, d)
        for i in range(5)
        for d in range(7)
        if (i, d) != (0, 0) and K.strand_homology_dim(i, d) != 0
    ]
    assert res["witnesses"] == expected == [(1, 2), (2, 4)]


def test_stabilization(tower2, tower3):
    for tower in (tower2, tower3):
        for j in (1, 2):
            assert verify_stabilization(tower, j, 8)["pass"]
