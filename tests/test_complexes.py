import os
from itertools import accumulate

import pytest

from koszulator import cli, complexes, conetower, koszul, linalg, resolution, zetamaps
from koszulator.complexes import (
    ChainComplex,
    ComplexError,
    FreeModule,
    GradedMap,
    collect,
)
from koszulator.fields import PrimeField, RationalField
from koszulator.polyring import parse_polynomial
from koszulator.koszul import build_koszul, cycles_from_generators
from koszulator.conetower import build_tower, mapping_cone
from koszulator.resolution import assemble_f, verify_minimal_and_exact
from koszulator.zetamaps import ChainMap, build_zeta, verify_zeta_chain, verify_zeta_square_zero

from oracles import entry, identity, rank as oracle_rank, ring_from_strings

VARS = ["x", "y", "z"]
GOLDEN3_GENS = ["x^2+y^2", "x*z", "z^2+x*y"]
GOLDEN3_FIELDS = [RationalField(), PrimeField(32003)]


@pytest.fixture(scope="module")
def ring():
    return ring_from_strings(VARS, ["x^2", "y^2+z^2"], RationalField())


def P(ring, text):
    return parse_polynomial(text, VARS, ring.field)


def test_graded_map_rejects_inhomogeneous_entry(ring):
    src = FreeModule(ring, [("a", 1)])
    tgt = FreeModule(ring, [("b", 0)])
    GradedMap(src, tgt, {(0, 0): P(ring, "x")})  # degree 1 entry, twist gap 1
    with pytest.raises(ComplexError, match=r"entry \(0,0\) = y\^2 \+ x .* degree 1$"):
        GradedMap(src, tgt, {(0, 0): P(ring, "x + y^2")})  # a nonzero inhomogeneous entry
    with pytest.raises(ComplexError, match=r"entry \(0,0\) = 0 "):
        GradedMap(src, tgt, {(0, 0): P(ring, "0")})  # a caller leaves zero entries out
    # a column rule that places x across a twist gap of 2 is refused too
    far = FreeModule(ring, [("a", 2)])
    with pytest.raises(ComplexError, match=r"entry \(0,0\) = x .* degree 2$"):
        GradedMap.from_columns(far, tgt, lambda lab: [("b", P(ring, "x"))])


def test_graded_map_compose_and_minimality(ring):
    a = FreeModule(ring, [("a", 2)])
    b = FreeModule(ring, [("b", 1)])
    c = FreeModule(ring, [("c", 0)])
    f = GradedMap(a, b, {(0, 0): P(ring, "y")})
    g = GradedMap(b, c, {(0, 0): P(ring, "x")})
    assert entry(g.compose(f), 0, 0) == P(ring, "x*y")
    assert f.is_minimal()
    one = GradedMap(b, b, {(0, 0): P(ring, "1")})
    assert not one.is_minimal()


def test_collect_drops_cancelled_keys_and_normalises_the_rest(ring):
    terms = [("a", "x*y"), ("b", "y^2"), ("a", "-x*y"), ("c", "x^2"),
             ("b", "z^2 + x*z"), ("d", "y^2")]
    one = ring.one()
    out = collect(((key, one, P(ring, t)) for key, t in terms), ring)
    assert out == {"b": P(ring, "x*z"), "d": P(ring, "-z^2")}
    # product terms (key, p, q, c): c·p·q, summed per key, in normal form
    products = [("a", P(ring, "y"), P(ring, "y"), 2), ("a", P(ring, "z"), P(ring, "z"), 2),
                ("b", P(ring, "x"), P(ring, "x + y")), ("c", P(ring, "y"), P(ring, "x"), -3)]
    assert collect(products, ring) == {"b": P(ring, "x*y"), "c": P(ring, "-3*x*y")}


def test_strand_matrix_shape(ring):
    src = FreeModule(ring, [("a", 1)])
    tgt = FreeModule(ring, [("b", 0)])
    f = GradedMap(src, tgt, {(0, 0): P(ring, "x")})
    _, nrows, ncols = f.strand_matrix(2)
    # degree-2 strand: source has dim_{d-1}, target dim_d
    assert (nrows, ncols) == (ring.dim_quotient(2), ring.dim_quotient(1))


def test_chain_complex_enforces_square_zero(ring):
    mods = {i: FreeModule(ring, [(f"g{i}", i)]) for i in range(3)}
    # y*y = y^2 = -z^2 is nonzero in the quotient, so this does not square to zero
    bad = {
        i: GradedMap(mods[i], mods[i - 1], {(0, 0): P(ring, "y")})
        for i in (1, 2)
    }
    with pytest.raises(ComplexError):
        ChainComplex(ring, mods, bad)


def test_vanishing_homology_needs_square_zero(ring, monkeypatch):
    # ∂_1∂_2 = 5 ≠ 0: mod 5 the strand looks exact, but over ℚ both ranks
    # are 1 and the rank formula gives -1
    monkeypatch.setattr(complexes, "MODULAR_FIELD", PrimeField(5))
    mods = {i: FreeModule(ring, [(f"g{i}", 0)]) for i in range(3)}
    diffs = {
        1: GradedMap(mods[1], mods[0], {(0, 0): P(ring, "1")}),
        2: GradedMap(mods[2], mods[1], {(0, 0): P(ring, "5")}),
    }
    C = ChainComplex(ring, mods, diffs, check=False)
    assert C.square_defect() == [2]
    assert C.vanishing_homology_dim(1, 0) == -1


def test_shift_negates_differential(ring):
    K = build_koszul(ring).complex
    S = K.shift(1)
    d = K.differential(2)
    sd = S.differential(3)
    assert sd.entries == {k: -v for k, v in d.entries.items()}


def test_cone_of_identity_is_acyclic(ring):
    K = build_koszul(ring).complex
    ident = ChainMap(
        K,
        K,
        {i: identity(K.module(i)) for i in range(4)},
    )
    cone = mapping_cone(ident)
    for i in range(5):
        for d in range(6):
            assert cone.strand_homology_dim(i, d) == 0


def test_chain_map_constructor_rejects_non_chain_map(ring):
    K = build_koszul(ring).complex
    zero_map = {
        i: GradedMap(K.module(i), K.module(i), {}) for i in range(4)
    }
    # the zero map is a chain map; scaling one component by x is not even graded,
    # so instead swap a component for the identity to break commutation
    comps = dict(zero_map)
    comps[1] = identity(K.module(1))
    with pytest.raises(ComplexError):
        ChainMap(K, K, comps)


def test_homology_table_of_koszul(ring):
    K = build_koszul(ring).complex
    table = K.homology_table(3, 5)
    # total homology dims are binomial(codepth, i): 1, 2, 1, 0
    totals = [sum(table[(i, d)] for d in range(6)) for i in range(4)]
    assert totals == [1, 2, 1, 0]


def test_exactness_builds_each_strand_matrix_once(ring, strand_builds):
    K = build_koszul(ring)
    F = assemble_f(K, cycles_from_generators(K), 6)
    strand_builds.clear()
    assert verify_minimal_and_exact(F, 8)["pass"]
    assert strand_builds and len(strand_builds) == len(set(strand_builds))


def _oracle_rank(gmap, d, field=None):
    """Rank of the strand matrix itself, with no memo."""
    rows, nrows, ncols = gmap.strand_matrix(d, field)
    if not nrows or not ncols:
        return 0
    return linalg.rank(rows, field or gmap.source.ring.field)


def _map_ranks(C):
    """{(i, d, field): rank} of every strand rank kept on C's differentials."""
    return {(i, d, field): r for i, dmap in C.differentials.items()
            for (d, field), r in dmap._ranks.items()}


def test_repeated_strands_are_ranked_once(monkeypatch):
    # R = k[x,y,z]/(x^2, y^2) has Hilbert function 1, 3, 4, 4, ...: from some
    # degree on, every strand of F repeats the one below it entry for entry
    fp = PrimeField(32003)
    ring = ring_from_strings(VARS, ["x^2", "y^2"], fp)
    K = build_koszul(ring)
    F = assemble_f(K, cycles_from_generators(K), 5)
    calls = []
    original = complexes.rank

    def counting(rows, field, ceiling=None):
        calls.append(len(rows))
        return original(rows, field, ceiling)

    monkeypatch.setattr(complexes, "rank", counting)
    assert verify_minimal_and_exact(F, 14)["pass"]
    ranked = _map_ranks(F)
    nonempty = [(i, d) for i, d, _ in ranked
                if F.module(i).strand_dim(d) and F.module(i - 1).strand_dim(d)]
    assert 0 < len(calls) < len(nonempty)
    assert {field for _, _, field in ranked} == {fp}
    for (i, d, field), r in ranked.items():
        assert r == _oracle_rank(F.differential(i), d, field)


def test_rank_memo_keeps_equal_dims_with_different_blocks_apart():
    # over k[x,y]/(x^2), x and y : R(-1) -> R have 2 x 2 strands at d >= 2,
    # of ranks 1 (x kills x y^(d-2)) and 2
    ring = ring_from_strings(["x", "y"], ["x^2"], RationalField())
    src = FreeModule(ring, [("a", 1)])
    tgt = FreeModule(ring, [("b", 0)])
    ranks = {}
    for name in ("x", "y"):
        mul = GradedMap(src, tgt, {(0, 0): parse_polynomial(name, ["x", "y"], ring.field)})
        C = ChainComplex(ring, {0: tgt, 1: src}, {1: mul})
        ranks[name] = [C.differential(1).strand_rank(d) for d in range(2, 7)]
        assert ranks[name] == [_oracle_rank(mul, d) for d in range(2, 7)]
    assert ranks == {"x": [1] * 5, "y": [2] * 5}
    # one memo key per map: the same positions and dims, and another block
    assert len(ring.rank_memo) == 2
    assert len({key[:4] for key in ring.rank_memo}) == 1


@pytest.mark.parametrize("exact_first", [True, False])
def test_rank_memo_keeps_fields_apart(exact_first):
    # an integral ℚ block and its reduction mod p hold ints alike, and differ
    # only where a coefficient is negative (-1 over ℚ, p - 1 mod p): neither
    # may stand in for the other
    gens = ["x^2", "y^2-z^2"]
    ring = ring_from_strings(VARS, gens, RationalField())
    K = build_koszul(ring)
    F = assemble_f(K, cycles_from_generators(K), 4)
    fp = complexes.MODULAR_FIELD
    strands = [(i, d) for i in range(1, 5) for d in range(7)]
    order = [None, fp] if exact_first else [fp, None]
    ranks = {field: [F.differential(i).strand_rank(d, field) for i, d in strands]
             for field in order}
    assert ranks[None] == ranks[fp]
    assert ranks[None] == [_oracle_rank(F.differential(i), d) for i, d in strands]
    assert ranks[fp] == [_oracle_rank(F.differential(i), d, fp) for i, d in strands]
    assert {key[0] for key in ring.rank_memo} == {ring.field, fp}
    # the same strands over a fresh ℚ ring that never saw the prime
    fresh = ring_from_strings(VARS, gens, RationalField())
    K2 = build_koszul(fresh)
    F2 = assemble_f(K2, cycles_from_generators(K2), 4)
    negatives = 0
    for i, d in strands:
        g = F.differential(i)
        rows, _, _ = g.strand_matrix(d)
        assert rows == F2.differential(i).strand_matrix(d)[0]
        negatives += sum(a < 0 for row in rows for a in row.values())
        mod_rows, _, _ = g.strand_matrix(d, fp)
        assert mod_rows == [{j: fp.of(a) for j, a in row.items()} for row in rows]
    assert negatives  # the ℚ and 𝔽_p strands do differ


@pytest.fixture
def ceilings(monkeypatch):
    """(ceiling, full rank, nrows, ncols) of every strand rank taken while
    the test runs."""
    seen = []
    original = complexes.rank

    def recording(rows, field, ceiling=None):
        ncols = len({j for row in rows for j in row})
        seen.append((ceiling, original(rows, field), len(rows), ncols))
        return original(rows, field, ceiling)

    monkeypatch.setattr(complexes, "rank", recording)
    return seen


@pytest.mark.parametrize("composed", [False, True])
def test_ranks_without_square_zero_get_no_ceiling(composed, ceilings):
    # ∂_1 = 1 and ∂_2 = 5 on R in twist 0: ∂_1∂_2 = 5 ≠ 0, and each strand
    # is dim R_d − 2 dim R_d < 0 from the full ranks; a ceiling dim − rank ∂_1
    # = 0 on ∂_2 would make it 0
    ring = ring_from_strings(VARS, ["x^2", "y^2+z^2"], RationalField())
    mods = {i: FreeModule(ring, [(f"g{i}", 0)]) for i in range(3)}
    diffs = {
        1: GradedMap(mods[1], mods[0], {(0, 0): P(ring, "1")}),
        2: GradedMap(mods[2], mods[1], {(0, 0): P(ring, "5")}),
    }
    C = ChainComplex(ring, mods, diffs, check=False)
    if composed:
        assert C.square_defect() == [2]
    for d in range(5):
        dim = C.module(1).strand_dim(d)
        full = [_oracle_rank(C.differential(i), d) for i in (2, 1)]
        assert C.strand_homology_dim(1, d) == dim - sum(full) == -dim < 0
    assert ceilings and all(c is None for c, *_ in ceilings)


def _memo_matrix(ring, key):
    """The strand matrix that a `rank_memo` key fixes, laid out again from
    the key: the blocks of its ids placed at the offsets of its dims."""
    field, positions, tdims, sdims, ids = key
    blocks = {b: block for b, block in ring._block_ids.values()}
    row_at = list(accumulate(tdims, initial=0))
    col_at = list(accumulate(sdims, initial=0))
    rows = [{} for _ in range(row_at[-1])]
    placed = [(i, j) for i, j in positions if tdims[i] and sdims[j]]
    assert len(placed) == len(ids)
    for (i, j), b in zip(placed, ids):
        for k, column in enumerate(blocks[b]):
            for s, a in column:
                rows[row_at[i] + s][col_at[j] + k] = a
    return rows, field


@pytest.mark.parametrize("field", GOLDEN3_FIELDS, ids=["golden3-q", "golden3-p"])
def test_capped_ranks_are_true_ranks(field):
    ring = ring_from_strings(VARS, GOLDEN3_GENS, field)
    K = build_koszul(ring)
    F = assemble_f(K, cycles_from_generators(K), 8)
    assert verify_minimal_and_exact(F, 12)["pass"]
    # over ℚ the exactness strands are ranked mod p, over 𝔽_p in the ring's field
    fields = {field} if field.is_prime else {field, complexes.MODULAR_FIELD}
    ranked = _map_ranks(F)
    assert {f for _, _, f in ranked} == fields
    for (i, d, f), r in ranked.items():
        assert r == _oracle_rank(F.differential(i), d, f)
    # the memo also holds K's ranks and the cycle certificate's stacked strands
    assert {key[0] for key in ring.rank_memo} == fields
    for key, r in ring.rank_memo.items():
        assert r == oracle_rank(*_memo_matrix(ring, key))


@pytest.mark.parametrize("field", GOLDEN3_FIELDS, ids=["golden3-q", "golden3-p"])
def test_exactness_ranks_stop_at_their_ceiling(field, ceilings):
    # F's ∂² is composed when it is built, so each ∂_{i+1} is ranked with the
    # ceiling dim F_{i,d} − rank ∂_i; on an exact strand that is its rank, so
    # the ceiling is reached, often below both sides of the matrix
    ring = ring_from_strings(VARS, GOLDEN3_GENS, field)
    K = build_koszul(ring)
    F = assemble_f(K, cycles_from_generators(K), 8)
    ceilings.clear()
    assert verify_minimal_and_exact(F, 12)["pass"]
    capped = [(c, r, m, n) for c, r, m, n in ceilings if c is not None]
    assert capped and all(c >= r for c, r, _, _ in capped)
    assert any(c < min(m, n) for c, _, m, n in capped)


def test_each_chain_map_is_composed_once(ex3, monkeypatch):
    """A chain map's defect is composed when it is checked and never again:
    not by verify_zeta_chain after build_zeta, nor by mapping_cone on the ψ
    that build_tower has just checked.  The splitting composes nothing."""
    calls = []
    original = GradedMap.compose

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(GradedMap, "compose", counting)
    zeta = build_zeta(ex3.K, ex3.Z, 1)
    assert calls
    calls.clear()
    assert verify_zeta_chain(zeta, 1)["pass"]
    assert not calls

    cone_calls = []

    def cone(psi):
        before = len(calls)
        out = mapping_cone(psi)
        cone_calls.append(len(calls) - before)
        return out

    monkeypatch.setattr(conetower, "mapping_cone", cone)
    tower = build_tower(ex3.K, ex3.Z, 2)
    assert cone_calls == [0, 0]
    calls.clear()
    assert conetower.verify_splitting(tower, 1)["pass"]
    assert not calls


# -- negative controls for compose, one source column at a time ------------------


def _column(gmap, j):
    """Column j of gmap as an element {target label: entry}."""
    return {gmap.target.gens[i][0]: p for (i, c), p in gmap.entries.items() if c == j}


def _nonzero_columns(outer, inner):
    """Source columns of inner where outer∘inner is nonzero, each found by
    applying outer to that one column, with no compose."""
    return {j for j in range(inner.source.rank) if outer.apply(_column(inner, j))}


def _add_to_last_column(gmap, row, p):
    """gmap with p added to its entry in `row` of the last source column."""
    j = gmap.source.rank - 1
    entries = dict(gmap.entries)
    entries[(row, j)] = entry(gmap, row, j) + p
    return GradedMap(gmap.source, gmap.target, entries)


def test_a_square_defect_in_the_last_column_only_is_found(ex3):
    C = ex3.K.complex
    bad = _add_to_last_column(C.differential(2), 2, entry(C.differential(2), 2, 2))
    assert _nonzero_columns(C.differential(1), bad) == {bad.source.rank - 1}
    expected = [2] + ([3] if _nonzero_columns(bad, C.differential(3)) else [])
    diffs = {**C.differentials, 2: bad}
    assert ChainComplex(C.ring, C.modules, diffs, check=False).square_defect() == expected
    with pytest.raises(ComplexError, match="at 2"):
        ChainComplex(C.ring, C.modules, diffs)


def _tampered_zeta(K, Z, k):
    """ζ^k, with x added to row 0 of the last column of its component 1,
    unchecked, when k = 1: ∂∘ζ^1_1 and ζ^0_2∘ζ^1_1 are then nonzero in that
    column only."""
    zeta = build_zeta(K, Z, k)
    if k != 1:
        return zeta
    bad = _add_to_last_column(zeta.component(1), 0, K.ring.variable(0))
    return ChainMap(zeta.source, zeta.target, {**zeta.components, 1: bad}, check=False)


def test_a_zeta_defect_in_the_last_column_only_is_found(ex3):
    K, Z = ex3.K, ex3.Z
    zeta0, zeta1 = build_zeta(K, Z, 0), _tampered_zeta(K, Z, 1)
    bad = zeta1.component(1)
    last = bad.source.rank - 1
    assert _nonzero_columns(zeta0.component(2), bad) == {last}
    delta = GradedMap(bad.source, bad.target, {(0, last): K.ring.variable(0)})
    assert _nonzero_columns(zeta1.target.differential(1), delta) == {last}
    assert verify_zeta_square_zero(zeta0, zeta1, 0)["witnesses"] == [2]
    assert 1 in zeta1.chain_defect()


GOLDEN3_Q_FILE = os.path.join(os.path.dirname(__file__), "..", "bench", "rings",
                              "golden3-q.ring")


def test_verify_all_fails_on_a_tampered_zeta(monkeypatch, capsys):
    monkeypatch.setattr(zetamaps, "build_zeta", _tampered_zeta)
    assert cli.main(["verify-all", "--ring", GOLDEN3_Q_FILE]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert fails == ["zeta^0 composite zero: FAIL", "zeta^1 chain map: FAIL", "overall: FAIL"]


def test_verify_all_exits_2_on_a_tampered_last_column_of_f(monkeypatch, capsys):
    # x added to the column of F_2's last generator ((c,), ()), whose ζ part
    # is the cycle z_c: ∂_1∂_2 is then nonzero in that column only
    def tampered_terms(Z, w, S):
        yield from koszul.zeta_terms(Z, w, S)
        if w == (Z.K.ring.codepth,) and S == ():
            yield ((), (1,)), Z.K.ring.variable(0)

    monkeypatch.setattr(resolution, "zeta_terms", tampered_terms)
    assert cli.main(["verify-all", "--ring", GOLDEN3_Q_FILE]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "inclusion vanishes in homology (k=1): pass"
    assert err == "input error: differential does not square to zero at 2\n"


def test_maps_from_columns_share_equal_entries(ring):
    # K's ∂_2 on three variables has six entries of four values (x and −z
    # twice each): one object per value
    dmap = build_koszul(ring).complex.differential(2)
    assert len(dmap.entries) == 6
    assert len({id(p) for p in dmap.entries.values()}) == len(set(dmap.entries.values())) == 4
