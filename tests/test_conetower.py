from pathlib import Path

import pytest

from koszulator import cli, complexes, conetower
from koszulator.complexes import ChainComplex, ComplexError, FreeModule, GradedMap
from koszulator.conetower import (
    build_tower,
    level_rank_prediction,
    verify_homology_theorem,
    verify_splitting,
)
from koszulator.fields import PrimeField, RationalField
from koszulator.koszul import build_koszul, cycles_from_generators, degree_window, tuples
from koszulator.polyring import load_ring_file

from oracles import quotient_complex, ring_from_strings, splitting_by_quotient

RINGS = Path(__file__).resolve().parents[1] / "bench" / "rings"
GOLDEN3_Q = RINGS / "golden3-q.ring"
GOLDEN2_P = RINGS / "golden2-p.ring"


def test_level_zero_is_koszul(tower2, ex2):
    M0 = tower2[0]
    for i in range(4):
        assert M0.module(i).gens == ex2.K.complex.module(i).gens


def test_level_ranks_match_prediction(tower2, tower3):
    for tower, c in ((tower2, 2), (tower3, 3)):
        for j in range(4):
            level = tower[j]
            for i in range(2 * j + 4):
                assert level.module(i).rank == level_rank_prediction(3, c, j, i)


def test_tower_levels_are_complexes(tower2):
    # the ChainComplex constructor checks ∂²=0; re-assert on the top level
    M = tower2[3]
    for i in range(1, 10):
        assert M.differential(i - 1).compose(M.differential(i)).is_zero()


def test_homology_theorem_level_one(tower2, tower3):
    assert verify_homology_theorem(tower2, 1)["pass"]
    assert verify_homology_theorem(tower3, 1)["pass"]


def test_level_zero_homology_is_exterior_algebra(tower2, tower3):
    # total homology dims of M^0 = K: (1,2,1) for c=2, (1,3,3,1) for c=3
    for tower, dims in ((tower2, [1, 2, 1, 0]), (tower3, [1, 3, 3, 1])):
        M0 = tower[0]
        totals = [
            sum(M0.strand_homology_dim(i, d) for d in range(9)) for i in range(4)
        ]
        assert totals == dims


def test_inclusion_vanishes_in_homology(tower2):
    res = verify_splitting(tower2, 0)
    assert res["pass"]
    assert res["degree_zero_iso"]


@pytest.mark.parametrize("level", [0, 1])
def test_splitting_fails_when_inclusion_is_identity(ex2, tower2, level):
    # negative control: the identity M → M induces the identity on H(M),
    # so it vanishes nowhere that H(M) ≠ 0 and the check must name those
    # strands; Q = 0 here, a sum of no copies of K, so H(Q) = 0
    M = tower2[level]
    res = verify_splitting([M, M], 0)
    assert not res["pass"]
    assert res["degree_zero_iso"]
    expected = [
        (i, d)
        for i in range(M.top + 1)
        for d in range(degree_window(M.ring, 1) + 1)
        if (i, d) != (0, 0) and M.strand_homology_dim(i, d) != 0
    ]
    assert res["witnesses"] == expected == [[(1, 2), (2, 4)], [(3, 4), (4, 6)]][level]


def test_splitting_ranks_nothing_once_both_levels_are_ranked(monkeypatch):
    # the splitting reads H(M^1) and H(M^2) off their strands and H(Q) off
    # K's: once those tables are built, it ranks no strand, and lays out
    # none of a nonzero map, so none of Q = M^2/M^1 (a level's ∂_0 is a zero
    # map made on each call).  The ring is loaded afresh, so that no other
    # test's ranks are reused.
    K = build_koszul(load_ring_file(GOLDEN3_Q))
    tower = build_tower(K, cycles_from_generators(K), 2)
    window = degree_window(K.ring, 2)
    for level in tower:
        level.homology_table(tower[1].top, window)
    calls = []
    original = GradedMap._strand_blocks

    def laying_out(self, d, field):
        if not self.is_zero():
            calls.append(("strand", self.source.gens, d))
        return original(self, d, field)

    monkeypatch.setattr(GradedMap, "_strand_blocks", laying_out)
    monkeypatch.setattr(complexes, "rank", lambda *args: calls.append(("rank", args)))
    assert verify_splitting(tower, 1)["pass"]
    assert calls == []


@pytest.mark.parametrize("field, names, gens", [
    (RationalField(), "x,y,z", ["x^2+y^2", "x*z", "z^2+x*y"]),
    (RationalField(), "x,y,z", ["x^2", "y^3+z^3"]),
    (PrimeField(32003), "x,y,z,w", ["x^2+y*z", "y^3+w^3", "z^4+x*w^3"]),
], ids=["golden3-q", "mixed-q", "mixed-p"])
def test_quotient_homology_is_the_sum_over_copies_of_k(field, names, gens):
    # Q = M^{k+1}/M^k, cut from M^{k+1} and ranked on its own strands,
    # against H(Q) = ⊕_w H(K) shifted by 2k + 2 and twisted by Σ deg z_{w_t};
    # on the mixed-degree rings the copies carry different twists
    ring = ring_from_strings(names.split(","), gens, field)
    K = build_koszul(ring)
    Z = cycles_from_generators(K)
    tower = build_tower(K, Z, 2)
    for k in (0, 1):
        Q = quotient_complex(tower[k], tower[k + 1])
        twists = [sum(Z.degrees[t - 1] for t in w) for w in tuples(ring.codepth, k + 1)]
        assert (len(set(twists)) > 1) == (len(set(Z.degrees)) > 1)
        for i in range(tower[k].top + 1):
            for d in range(degree_window(ring, k + 1) + 1):
                assert Q.strand_homology_dim(i, d) == sum(
                    K.complex.strand_homology_dim(i - 2 * k - 2, d - t) for t in twists), (k, i, d)
        assert verify_splitting(tower, k) == splitting_by_quotient(tower, k, Q)


def _negated_in_quotient(tower, k: int):
    """The tower with one entry of Q = M^{k+1}/M^k's block of ∂_i negated,
    at i = M^k's top degree; and that i."""
    C, D = tower[k], tower[k + 1]
    i = C.top
    dmap = D.differential(i)
    row, col = D.module(i - 1).rank - C.module(i - 1).rank, D.module(i).rank - C.module(i).rank
    pos = max(key for key in dmap.entries if key[0] < row and key[1] < col)
    tampered = GradedMap(dmap.source, dmap.target, {**dmap.entries, pos: -dmap.entries[pos]})
    level = ChainComplex(D.ring, D.modules, {**D.differentials, i: tampered}, check=False)
    return [*tower[:k + 1], level, *tower[k + 2:]], i


def test_a_tampered_quotient_is_refused(tower3, monkeypatch, capsys):
    # negative control: Q's block is ∂ᴷ on each copy of K, label for label;
    # one negated entry is refused, from the library and through the CLI
    tampered, i = _negated_in_quotient(tower3, 1)
    with pytest.raises(ComplexError, match=f"at homological degree {i}$"):
        verify_splitting(tampered, 1)
    original = conetower.build_tower
    monkeypatch.setattr(conetower, "build_tower",
                        lambda K, Z, J: _negated_in_quotient(original(K, Z, J), 1)[0])
    assert cli.main(["verify-all", "--ring", str(GOLDEN2_P)]) == 2
    assert capsys.readouterr().err == (
        "input error: quotient is not a sum of copies of K at homological degree 5\n")


def test_splitting_refuses_a_non_split_inclusion(ex2, tower2):
    # C = K must be the back of D = M^1, and ∂ᴰ must restrict to ∂ᶜ there
    K, M1 = tower2[0], tower2[1]
    ring = K.ring
    front = M1.module(1).rank - K.module(1).rank
    col = M1.module(2).rank - K.module(2).rank
    leak = GradedMap(M1.module(2), M1.module(1))
    leak.entries = {**M1.differential(2).entries, (front - 1, col): ring.one()}
    into_q = ChainComplex(ring, M1.modules, {**M1.differentials, 2: leak}, check=False)
    with pytest.raises(ComplexError, match="not a chain map"):
        verify_splitting([K, into_q], 0)
    gens = M1.module(1).gens
    rotated = FreeModule(ring, gens[1:] + gens[:1])
    misaligned = ChainComplex(ring, {**M1.modules, 1: rotated}, M1.differentials, check=False)
    with pytest.raises(ComplexError, match="misaligned"):
        verify_splitting([K, misaligned], 0)


def test_stabilization(tower2, tower3):
    # the tower stabilizes from below: the first homology clause at level
    # j + 1 equates H_i(M^{j+1}) with H_i(M^j) for every i ≤ 2j.  The rank
    # clauses need the whole window of level j + 1, which they take
    for tower in (tower2, tower3):
        for j in (1, 2):
            assert verify_homology_theorem(tower, j + 1)["pass"]


def test_homology_lies_in_the_derived_window(tower2, tower3, monkeypatch):
    # by the cone's long exact sequence, H(M^k) of a complete intersection
    # lies in internal degrees ≤ degree_window(ring, k), so `tower --verify`
    # and `verify-all` check no more than that window: the eight degrees
    # above it hold no homology, and a larger window gives the same records
    for tower in (tower2, tower3):
        ring = tower[0].ring
        for k in range(4):
            window = degree_window(ring, k)
            level = tower[k]
            for i in range(2 * k + ring.nvars + 1):
                for d in range(window + 1, window + 9):
                    assert level.strand_homology_dim(i, d) == 0, (k, i, d)
            if k:
                derived = verify_homology_theorem(tower, k)
                with monkeypatch.context() as m:
                    m.setattr(conetower, "degree_window", lambda ring, k: degree_window(ring, k) + 6)
                    assert verify_homology_theorem(tower, k) == derived
