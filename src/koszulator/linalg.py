"""Exact sparse linear algebra over a coefficient field.

A matrix is a list of rows, in and out.  A row is a {column: scalar} dict
of its nonzero entries (canonical field scalars, as `GradedMap.strand_matrix`
builds them).  Every matrix, over ℚ and 𝔽_p alike, goes through one sparse
forward pass (`_eliminate`): each row, lightest first, is reduced in column
order by the pivot rows found before it, and becomes a pivot row if
anything is left.
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


def rref(rows, field):
    """Reduced row echelon form of {column: scalar} rows as (pivot rows,
    pivot columns), each pivot row a {column: scalar} dict of its nonzero
    entries.  After the forward pass each pivot row is scaled to 1 and its
    pivot columns cleared, last pivot first (Gauss-Jordan)."""
    p = field.p
    ncols = max((max(row) + 1 for row in rows if row), default=0)
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
    # over ℚ, elimination can leave Fraction(n, 1)
    return [{j: field.of(x) for j, x in reduced[c].items()} for c in piv], piv


def rank(rows, field) -> int:
    """Rank of {column: scalar} rows from the forward pass alone, with the
    columns taken by ascending nonzero count (ties by index)."""
    count = Counter(chain.from_iterable(rows))
    order = {j: i for i, j in enumerate(sorted(count, key=lambda j: (count[j], j)))}
    return len(_eliminate(rows, field, order))
