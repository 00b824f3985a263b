import random
from fractions import Fraction

import pytest

from koszulator import linalg
from koszulator.fields import PrimeField, RationalField
from oracles import mat_vec, nullspace, rank, rref

FIELDS = [PrimeField(), RationalField()]


@pytest.mark.parametrize("field", FIELDS)
def test_rref_known_matrix(field):
    # [[1,2,3],[2,4,6],[1,0,1]] has rank 2
    rows = [[field.of(v) for v in r] for r in [[1, 2, 3], [2, 4, 6], [1, 0, 1]]]
    red, piv = rref(rows, field)
    assert piv == [0, 1]
    assert rank(rows, field) == 2


@pytest.mark.parametrize("field", FIELDS)
def test_nullspace_is_kernel(field):
    rows = [[field.of(v) for v in r] for r in [[1, 2, 3, 4], [0, 1, 1, 1]]]
    basis = nullspace(rows, field, 4)
    assert len(basis) == 2  # rank 2, 4 columns
    for v in basis:
        assert all(field.is_zero(x) for x in mat_vec(rows, v, field))


def test_nullspace_of_empty_matrix():
    f = RationalField()
    basis = nullspace([], f, 3)
    assert len(basis) == 3


def test_rational_rref_exact():
    f = RationalField()
    rows = [[Fraction(1, 3), Fraction(1, 2)], [Fraction(2, 3), Fraction(1, 4)]]
    red, piv = rref(rows, f)
    assert piv == [0, 1]
    assert red[0] == [Fraction(1), Fraction(0)]
    assert red[1] == [Fraction(0), Fraction(1)]


def test_rational_rref_returns_integral_entries_as_ints():
    # scaling the pivot 3/2 to 1 turns the 3 beside it into Fraction(2, 1)
    red, piv = rref([[Fraction(3, 2), 3, Fraction(1, 2)]], RationalField())
    assert piv == [0]
    assert red == [[1, 2, Fraction(1, 3)]]
    assert [type(a) for a in red[0]] == [int, int, Fraction]


def gauss_jordan(rows, field):
    """Reference RREF: plain Gauss-Jordan on the whole matrix."""
    a = [list(r) for r in rows]
    pivots = []
    for c in range(len(a[0])):
        r = len(pivots)
        i = next((k for k in range(r, len(a)) if not field.is_zero(a[k][c])), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.of(x * inv) for x in a[r]]
        for k in range(len(a)):
            if k != r:
                f = a[k][c]
                a[k] = [field.of(x - f * y) for x, y in zip(a[k], a[r])]
        pivots.append(c)
    return a[: len(pivots)], pivots


def random_matrix(rng, field, m, n, r, zero_cols):
    """m x n product of random m x r and r x n factors (rank at most r),
    with the columns in zero_cols cleared."""
    def entry():
        if field.is_prime:
            return field.of(rng.randrange(field.p))
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    left = [[entry() for _ in range(r)] for _ in range(m)]
    right = [[entry() for _ in range(n)] for _ in range(r)]
    rows = []
    for i in range(m):
        row = []
        for j in range(n):
            s = field.of(0)
            if j not in zero_cols:
                for k in range(r):
                    s = field.of(s + left[i][k] * right[k][j])
            row.append(s)
        rows.append(row)
    return rows


@pytest.mark.parametrize(
    "field", [RationalField(), PrimeField(32003), PrimeField(3037000493),
              PrimeField(4294967311)],
    ids=["Q", "F32003", "F3037000493", "F4294967311"],
)
@pytest.mark.parametrize("m,n,r", [(12, 5, 5), (5, 12, 5), (9, 9, 4), (8, 10, 0), (1, 7, 1)],
                         ids=["tall", "wide", "deficient", "zero", "one-row"])
def test_rref_and_rank_match_gauss_jordan(field, m, n, r):
    rng = random.Random(f"{field!r}-{m}-{n}-{r}")
    for trial in range(5):
        zero_cols = set(rng.sample(range(n), trial % 3))
        rows = random_matrix(rng, field, m, n, r, zero_cols)
        red, piv = rref(rows, field)
        assert (red, piv) == gauss_jordan(rows, field)
        assert rank(rows, field) == len(piv) <= r


def sparse_matrix(rng, field, m, n, density, independent):
    """m x n matrix whose entries are nonzero with probability `density`;
    rows past the first `independent` are combinations of two earlier rows."""
    def entry():
        if field.is_prime:
            return rng.randrange(1, field.p)
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))

    rows = [[entry() if rng.random() < density else field.of(0) for _ in range(n)]
            for _ in range(independent)]
    for _ in range(m - independent):
        a, b = rng.sample(rows[:independent], 2)
        s, t = entry(), entry()
        rows.append([field.of(s * x + t * y) for x, y in zip(a, b)])
    return rows


FIELDS3 = [RationalField(), PrimeField(32003), PrimeField(3037000493), PrimeField(4294967311)]
SPARSE_CASES = [
    (field, m, n, density, independent)
    for field in FIELDS3
    for m, n, independent in ((30, 12, 30), (12, 30, 12), (20, 20, 8))
    for density in (0.01, 0.1, 0.4)
] + [
    # prime-field matrices sparse enough to stay sparse, and dense enough
    # that fill-in makes every row dense
    (field, 60, 60, density, 60)
    for field in FIELDS3[1:]
    for density in (0.01, 0.4)
]


@pytest.mark.parametrize("field,m,n,density,independent", SPARSE_CASES,
                         ids=[f"{f!r}-{m}x{n}-r{k}-{d}" for f, m, n, d, k in SPARSE_CASES])
def test_sparse_rref_and_rank_match_gauss_jordan(field, m, n, density, independent):
    rng = random.Random(f"{field!r}-{m}-{n}-{density}-{independent}")
    rows = sparse_matrix(rng, field, m, n, density, independent)
    red, piv = rref(rows, field)
    assert (red, piv) == gauss_jordan(rows, field)
    assert rank(rows, field) == len(piv) <= independent
    # the {column: scalar} form of the same matrix gives the same answers
    sparse = [{j: x for j, x in enumerate(row) if not field.is_zero(x)} for row in rows]
    assert rref(sparse, field, n) == (red, piv)
    assert rank(sparse, field) == len(piv)


def test_rank_and_rref_leave_their_rows_unchanged():
    field = PrimeField(32003)
    rows = [{0: 1, 2: 5}, {0: 3, 1: 4}, {1: 2, 2: 7}, {}]
    before = [dict(row) for row in rows]
    assert rank(rows, field) == 3
    assert rref(rows, field)[1] == [0, 1, 2]
    assert rows == before


@pytest.mark.parametrize("field", [RationalField(), PrimeField(32003), PrimeField(2**31 - 1)],
                         ids=["Q", "F32003", "F2147483647"])
def test_rank_with_a_ceiling_is_the_capped_rank(field):
    rng = random.Random(f"ceiling-{field!r}")
    for m, n, density, independent in [(30, 25, 0.2, 12), (20, 40, 0.4, 20), (15, 15, 0.1, 9)]:
        rows = sparse_matrix(rng, field, m, n, density, independent)
        sparse = [{j: x for j, x in enumerate(row) if not field.is_zero(x)} for row in rows]
        full = rank(sparse, field)
        assert full > 1
        for ceiling in (0, 1, full // 2, full - 1, full, full + 1, n + m):
            assert linalg.rank(sparse, field, ceiling) == min(full, ceiling)
