import math

import pytest

from koszulator.fields import RationalField
from koszulator.koszul import tuple_count, tuples
from koszulator.render import matrix_strings
from koszulator.zetamaps import (
    build_zeta,
    homology_zeta_matrix,
    kernel_preimage,
    koszul_tuple_sum,
    sequence_matrix,
    verify_exact_sequence,
    verify_zeta_chain,
    verify_zeta_square_zero,
)

from oracles import tuple_rank, tuple_unrank

Q = RationalField()

ZETA0_CODEPTH2 = {
    1: [["x", "0"], ["0", "y"], ["0", "z"]],
    2: [
        ["0", "x", "0", "-y", "0", "0"],
        ["0", "0", "x", "-z", "0", "0"],
        ["0", "0", "0", "0", "-z", "y"],
    ],
    3: [["0", "0", "x", "z", "-y", "0"]],
}

ZETA0_CODEPTH3 = {
    1: [["x", "0", "0"], ["y", "0", "x"], ["0", "x", "z"]],
    2: [
        ["-y", "x", "0", "0", "0", "0", "-x", "0", "0"],
        ["0", "0", "x", "-x", "0", "0", "-z", "0", "0"],
        ["0", "0", "y", "0", "-x", "0", "0", "-z", "x"],
    ],
    3: [["0", "-y", "x", "x", "0", "0", "z", "-x", "0"]],
}


def test_tuple_enumeration():
    assert tuples(2, 2) == [(1, 1), (1, 2), (2, 2)]
    assert tuple_count(3, 2) == 6
    assert tuple_count(3, -1) == 0
    for c in range(1, 5):
        for k in range(5):
            ts = tuples(c, k)
            assert len(ts) == tuple_count(c, k) == math.comb(k + c - 1, c - 1)
            for r, t in enumerate(ts):
                assert tuple_rank(c, t) == r
                assert tuple_unrank(c, k, r) == t


def test_zeta0_matches_published_matrices(ex2, ex3):
    for ex, golden in ((ex2, ZETA0_CODEPTH2), (ex3, ZETA0_CODEPTH3)):
        zeta = build_zeta(ex.K, ex.Z, 0)
        for u in (1, 2, 3):
            assert matrix_strings(zeta.component(u)) == golden[u]


def test_zeta_shapes(ex2):
    c = 2
    for k in range(3):
        zeta = build_zeta(ex2.K, ex2.Z, k)
        for u in (1, 2, 3):
            m = zeta.component(u)
            assert m.target.rank == math.comb(3, u) * tuple_count(c, k)
            assert m.source.rank == math.comb(3, u - 1) * tuple_count(c, k + 1)


def test_zeta_chain_and_square_zero_small(both):
    for ex in both:
        zetas = [build_zeta(ex.K, ex.Z, k) for k in range(3)]
        for k in range(2):
            assert verify_zeta_chain(zetas[k], k)["pass"]
            assert verify_zeta_square_zero(zetas[k], zetas[k + 1], k)["pass"]


def test_koszul_tuple_sum_is_a_complex(ex2):
    k = 2
    C = koszul_tuple_sum(ex2.K, ex2.Z, k)
    for i in range(1, 4):
        assert C.differential(i - 1).compose(C.differential(i)).is_zero()
    assert C.module(1).rank == 3 * tuple_count(2, k)


def test_homology_zeta_matrix_k0():
    # [zeta_u^0] sends the wedge basis of A_{u-1}^{⊕c} to A_u; for k=0 and
    # u=1 the matrix is the identity on the c generators
    for c in (2, 3):
        m = homology_zeta_matrix(c, 0, 1)
        assert len(m) == c and len(m[0]) == c
        assert all(m[i][j] == (1 if i == j else 0) for i in range(c) for j in range(c))


def test_sequence_matrix_indexing():
    assert sequence_matrix(3, 3, 2) == homology_zeta_matrix(3, 2, 2)


@pytest.mark.parametrize("c", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_exact_sequence_small(c, k):
    assert verify_exact_sequence(c, k, Q)["pass"]


def test_kernel_preimage_right_inverse():
    from oracles import mat_vec, nullspace

    c, k, u = 2, 2, 1
    # kernel of [zeta_{u+1}^{k-u}] acting on coordinates (w, S)
    kill = homology_zeta_matrix(c, k - u, u + 1)
    rows = [[Q.of(x) for x in row] for row in kill]
    back = [[Q.of(x) for x in row] for row in homology_zeta_matrix(c, k - u + 1, u)]
    basis = nullspace(rows, Q, len(kill[0]))
    assert basis  # the kernel is nontrivial here
    for ker in basis:
        pre = kernel_preimage(c, k, u, ker, Q)
        assert mat_vec(back, pre, Q) == list(ker)


def test_kernel_preimage_rejects_non_kernel_element():
    c, k, u = 2, 2, 1
    kill = homology_zeta_matrix(c, k - u, u + 1)
    n = len(kill[0])
    from oracles import mat_vec

    rows = [[Q.of(x) for x in row] for row in kill]
    # find a unit vector outside the kernel
    bad = None
    for j in range(n):
        v = [Q.of(0)] * n
        v[j] = Q.one()
        if any(not Q.is_zero(x) for x in mat_vec(rows, v, Q)):
            bad = v
            break
    assert bad is not None
    with pytest.raises(ValueError):
        kernel_preimage(c, k, u, bad, Q)
