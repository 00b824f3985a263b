import pytest

from koszulator.complexes import ChainComplex, ComplexError, FreeModule, GradedMap
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


@pytest.mark.parametrize("level", [0, 1])
def test_splitting_fails_when_inclusion_is_identity(ex2, tower2, level):
    # negative control: the identity M → M induces the identity on H(M),
    # so it vanishes nowhere that H(M) ≠ 0 and the check must name those
    # strands; Q = 0 here, so Q is read off the two complexes, not the tower
    M = tower2.level(level)
    fake = ConeTower(ex2.K, ex2.Z, [M, M])
    res = verify_splitting(fake, 0, 4, 6)
    assert not res["pass"]
    assert res["degree_zero_iso"]
    expected = [
        (i, d)
        for i in range(5)
        for d in range(7)
        if (i, d) != (0, 0) and M.strand_homology_dim(i, d) != 0
    ]
    assert res["witnesses"] == expected == [[(1, 2), (2, 4)], [(3, 4), (4, 6)]][level]


def test_splitting_ranks_only_the_quotient(tower3, monkeypatch):
    # H(M^1) and H(M^2) are ranked by the theorem checks; the splitting lays
    # out strands only of Q = M^2/M^1, whose modules are front slices of M^2's
    for k in (1, 2):
        verify_homology_theorem(tower3, k, 10)
    M2 = tower3.level(2)
    sources = []
    original = GradedMap._strand_blocks

    def laying_out(self, d, field):
        sources.append(self.source.gens)
        return original(self, d, field)

    monkeypatch.setattr(GradedMap, "_strand_blocks", laying_out)
    assert verify_splitting(tower3, 1, 5, 10)["pass"]
    assert sources
    assert all(any(gens == m.gens[:len(gens)] for m in M2.modules.values()) for gens in sources)


def test_splitting_refuses_a_non_split_inclusion(ex2, tower2):
    # C = K must be the back of D = M^1, and ∂ᴰ must restrict to ∂ᶜ there
    K, M1 = tower2.level(0), tower2.level(1)
    ring = K.ring
    front = M1.module(1).rank - K.module(1).rank
    col = M1.module(2).rank - K.module(2).rank
    leak = GradedMap(M1.module(2), M1.module(1))
    leak.entries = {**M1.differential(2).entries, (front - 1, col): ring.one()}
    into_q = ChainComplex(ring, M1.modules, {**M1.differentials, 2: leak}, check=False)
    with pytest.raises(ComplexError, match="not a chain map"):
        verify_splitting(ConeTower(ex2.K, ex2.Z, [K, into_q]), 0, 4, 6)
    gens = M1.module(1).gens
    rotated = FreeModule(ring, gens[1:] + gens[:1])
    misaligned = ChainComplex(ring, {**M1.modules, 1: rotated}, M1.differentials, check=False)
    with pytest.raises(ComplexError, match="misaligned"):
        verify_splitting(ConeTower(ex2.K, ex2.Z, [K, misaligned]), 0, 4, 6)


def test_stabilization(tower2, tower3):
    for tower in (tower2, tower3):
        for j in (1, 2):
            assert verify_stabilization(tower, j, 8)["pass"]
