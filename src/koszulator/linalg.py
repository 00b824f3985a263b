"""Exact sparse linear algebra over a coefficient field.

A matrix is a list of rows.  A row is a {column: scalar} dict of its
nonzero entries (canonical field scalars, as `GradedMap.strand_matrix`
builds them), or a dense list of scalars, converted once on entry.  Rows
are eliminated sparsely for ℚ and 𝔽_p alike, as in structured Gaussian
elimination: rows wait in buckets by leading column, and the lightest row
of each bucket becomes its pivot.  Only a prime-field matrix that is large
and dense (`DENSE_FROM`) is eliminated on a numpy int64 array instead, numpy
being imported only there.  RREF is unique and rank is basis-free, so the
pivot order never shows in a result.
"""

from __future__ import annotations

import heapq

# (nonzeros, share of cells) from which a prime-field matrix goes to numpy.
# Summed over the strand ranks of `verify-all` on the golden 𝔽_p rings (at
# most 164 nonzeros each), sparse took 0.043 s against numpy's 0.131 s; over
# those of `resolve --imax 6 --verify-all` on a generic 4-variable codepth-3
# ring (density 0.08-0.54), 1.82 s against 0.61 s, numpy winning from about
# 1000 nonzeros on, where fill-in makes the sparse rows dense (Python 3.11,
# 2-CPU VM)
DENSE_FROM = (1000, 0.02)


def _sparse_rows(rows, p: int):
    """{column: scalar} rows and the column count they reach; list rows are
    reduced mod p (p = 0 for ℚ), dict rows are taken as they are."""
    out = []
    ncols = 0
    for row in rows:
        if isinstance(row, dict):
            out.append(row)
            if row:
                ncols = max(ncols, max(row) + 1)
        else:
            ncols = max(ncols, len(row))
            if p:
                out.append({j: x % p for j, x in enumerate(row) if x % p})
            else:
                out.append({j: x for j, x in enumerate(row) if x})
    return out, ncols


def _eliminate_mod_p(rows, p: int, ncols: int, reduced: bool):
    """Row-reduce sparse rows mod p on a dense int64 array, scattered from
    the rows; returns (array, pivot columns).  Each pivot only updates the
    rows below it that are nonzero in its column, from that column on;
    `reduced` then clears the entries above each pivot, last pivot first."""
    import numpy as np

    a = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        if row:
            a[i, list(row)] = list(row.values())
    m, n = a.shape
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        nz = r + np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = nz[0]
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        below = nz[1:]  # row i now holds the old row r, zero in column c
        if below.size:
            a[below, c:] = (a[below, c:] - np.outer(a[below, c], a[r, c:])) % p
        pivots.append(c)
    for r in range(len(pivots) - 1, 0, -1) if reduced else ():
        c = pivots[r]
        above = np.flatnonzero(a[:r, c])
        if above.size:
            a[above, c:] = (a[above, c:] - np.outer(a[above, c], a[r, c:])) % p
    return a, pivots


def _subtract(row: dict, g, pivot: dict, p: int):
    """row -= g * pivot in place, dropping the entries that cancel."""
    for j, v in pivot.items():
        x = row.get(j, 0) - g * v
        if p:
            x %= p
        if x:
            row[j] = x
        else:
            del row[j]


def _eliminate(rows, field, reduced: bool):
    """Echelon form of sparse rows, left unchanged; returns {pivot column: row}.
    Each bucket's lightest row is its pivot, and every other row of the
    bucket is reduced by it and moves to the bucket of its new leading
    column.  `reduced` scales each pivot to 1 and clears the pivot columns
    of the rows above it (Gauss-Jordan)."""
    p = field.p
    buckets = {}
    for row in rows:
        if row:
            buckets.setdefault(min(row), []).append(dict(row))
    heap = list(buckets)
    heapq.heapify(heap)
    pivots = {}
    while heap:
        c = heapq.heappop(heap)
        bucket = buckets.pop(c)
        k = min(range(len(bucket)), key=lambda i: len(bucket[i]))
        pivot = bucket[k]
        inv = field.inv(pivot[c])
        for row in bucket[:k] + bucket[k + 1:]:
            _subtract(row, row[c] * inv % p if p else row[c] * inv, pivot, p)
            if row:
                lead = min(row)
                if lead not in buckets:
                    buckets[lead] = []
                    heapq.heappush(heap, lead)
                buckets[lead].append(row)
        pivots[c] = pivot
    if reduced:
        for c in sorted(pivots, reverse=True):
            pivot = pivots[c]
            inv = field.inv(pivot[c])
            for j in pivot:
                pivot[j] = pivot[j] * inv % p if p else pivot[j] * inv
            # the pivots to the right are already reduced, so clearing one
            # pivot column adds no entry in another
            for j in [j for j in pivot if j != c and j in pivots]:
                _subtract(pivot, pivot[j], pivots[j], p)
    return pivots


def _goes_dense(rows, field, ncols: int) -> bool:
    if not field.is_prime:
        return False
    nnz = sum(map(len, rows))
    return nnz >= DENSE_FROM[0] and nnz >= DENSE_FROM[1] * len(rows) * ncols


def rref(rows, field, ncols: int | None = None):
    """Reduced row echelon form as (dense rows, pivot column indices); the
    rows have ncols entries, by default as many as the widest input row
    reaches."""
    rows, reach = _sparse_rows(rows, field.p)
    ncols = reach if ncols is None else ncols
    if not rows or not ncols:
        return [], []
    if _goes_dense(rows, field, ncols):
        a, piv = _eliminate_mod_p(rows, field.p, ncols, True)
        return a[: len(piv)].tolist(), piv
    pivots = _eliminate(rows, field, True)
    piv = sorted(pivots)
    out = []
    for c in piv:
        dense = [field.zero()] * ncols
        for j, x in pivots[c].items():
            dense[j] = field.of(x)  # over ℚ, elimination can leave Fraction(n, 1)
        out.append(dense)
    return out, piv


def rank(rows, field) -> int:
    """Rank from the forward pass alone."""
    rows, ncols = _sparse_rows(rows, field.p)
    if not rows or not ncols:
        return 0
    if _goes_dense(rows, field, ncols):
        return len(_eliminate_mod_p(rows, field.p, ncols, False)[1])
    return sparse_rank(rows, field)


def sparse_rank(rows, field) -> int:
    """Rank of {column: scalar} rows by the sparse elimination, whatever
    their size and density: a ℚ ring's strands ranked modulo a prime never
    load numpy."""
    return len(_eliminate(rows, field, False))


def transpose(rows, ncols: int):
    """Columns of a matrix given by {column: scalar} rows, as such rows."""
    cols = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            cols[c][r] = x
    return cols


def nullspace(rows, field, ncols: int):
    """Basis of the right kernel, one vector per free column (RREF convention)."""
    if ncols == 0:
        return []
    red, piv = rref(rows, field, ncols)
    piv_set = set(piv)
    basis = []
    for j in range(ncols):
        if j in piv_set:
            continue
        v = [field.zero()] * ncols
        v[j] = field.one()
        for r, c in enumerate(piv):
            v[c] = field.neg(red[r][j])
        basis.append(v)
    return basis


def reduce_against(vec, red_rows, pivots, field):
    """Reduce vec against rows already in RREF; returns the residual."""
    v = list(vec)
    for row, c in zip(red_rows, pivots):
        if not field.is_zero(v[c]):
            f = v[c]
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
    return v


def mat_vec(rows, vec, field):
    support = [(j, b) for j, b in enumerate(vec) if not field.is_zero(b)]
    out = []
    for row in rows:
        s = field.zero()
        for j, b in support:
            if not field.is_zero(row[j]):
                s = field.add(s, field.mul(row[j], b))
        out.append(s)
    return out
