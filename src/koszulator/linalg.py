"""Exact sparse linear algebra over a coefficient field.

A matrix is a list of rows.  A row is a {column: scalar} dict of its
nonzero entries (canonical field scalars, as `GradedMap.strand_matrix`
builds them), or a dense list of scalars, converted once on entry.  Every
matrix, over ℚ and 𝔽_p alike, goes through one sparse forward pass
(`_eliminate`): each row, lightest first, is reduced in column order by the
pivot rows found before it, and becomes a pivot row if anything is left.
`rank` takes the columns sparsest first, so that rows meet pivots late and
fill in little, the static column order of structured Gaussian elimination
(LaMacchia and Odlyzko) and Markowitz pivoting; rank does not depend on the
order.  `rref` keeps the natural column order, because RREF depends on it:
its pivot and free columns are read as they stand (the free columns of a
ring degree's border are its standard monomials).
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import chain


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


def _eliminate(rows, field, order):
    """Forward pass over sparse rows, which it leaves unchanged, with column
    j eliminated as column order[j] (`order` maps every column to a
    distinct index below len(order)); returns {pivot column: (inverse of
    the pivot, {column: scalar} after it)} in those indices.  Rows are taken
    lightest first.  Each is scattered into a dense accumulator and reduced
    by the pivots of the columns it reaches, in column order (a heap of its
    nonzero columns), until it vanishes or reaches a column without a
    pivot, which it becomes.  Mod p an entry is reduced only when its
    column is reached."""
    p = field.p
    ncols = len(order)
    acc = [0] * ncols
    pivots = {}
    for row in sorted(rows, key=len):
        if len(pivots) == ncols:
            break
        todo = []
        for j, x in row.items():
            k = order[j]
            todo.append(k)
            acc[k] = x
        heapq.heapify(todo)
        while todo:
            c = heapq.heappop(todo)
            x = acc[c] % p if p else acc[c]
            acc[c] = 0
            if not x:
                continue
            if c not in pivots:
                tail = {}
                while todo:
                    j = heapq.heappop(todo)
                    y = acc[j] % p if p else acc[j]
                    acc[j] = 0
                    if y:
                        tail[j] = y
                pivots[c] = (field.inv(x), tail)
                break
            inv, tail = pivots[c]
            g = x * inv % p if p else x * inv
            for j, v in tail.items():
                if not acc[j]:
                    heapq.heappush(todo, j)
                acc[j] -= g * v
    return pivots


def rref(rows, field, ncols: int | None = None):
    """Reduced row echelon form as (dense rows, pivot column indices); the
    rows have ncols entries, by default as many as the widest input row
    reaches.  After the forward pass each pivot row is scaled to 1 and its
    pivot columns cleared, last pivot first (Gauss-Jordan)."""
    rows, reach = _sparse_rows(rows, field.p)
    ncols = reach if ncols is None else ncols
    if not rows or not ncols:
        return [], []
    p = field.p
    pivots = _eliminate(rows, field, range(ncols))
    piv = sorted(pivots)
    reduced = {}
    for c in reversed(piv):
        inv, tail = pivots.pop(c)
        row = {c: 1}
        for j, v in tail.items():
            row[j] = v * inv % p if p else v * inv
        # the pivots to the right are already reduced, so clearing one pivot
        # column adds no entry in another
        for j in [j for j in row if j in reduced]:
            _subtract(row, row[j], reduced[j], p)
        reduced[c] = row
    out = []
    for c in piv:
        dense = [field.zero()] * ncols
        for j, x in reduced[c].items():
            dense[j] = field.of(x)  # over ℚ, elimination can leave Fraction(n, 1)
        out.append(dense)
    return out, piv


def rank(rows, field) -> int:
    """Rank from the forward pass alone, with the columns taken by
    ascending nonzero count (ties by index)."""
    rows = _sparse_rows(rows, field.p)[0]
    count = Counter(chain.from_iterable(rows))
    order = {j: i for i, j in enumerate(sorted(count, key=lambda j: (count[j], j)))}
    return len(_eliminate(rows, field, order))


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
