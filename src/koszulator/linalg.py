"""Exact dense linear algebra over a coefficient field.

Matrices are lists of rows (lists of field scalars).  Prime-field
computations run on numpy int64 arrays, numpy being imported only there;
rational ones use Fractions.  Everything is deterministic: pivots are
always the first nonzero column.
"""

from __future__ import annotations


def _eliminate_mod_p(rows, p: int, reduced: bool):
    """Row-reduce rows mod p; returns (int64 array, pivot columns).  Each
    pivot only updates the rows below it that are nonzero in its column,
    from that column on; `reduced` then clears the entries above each
    pivot, last pivot first."""
    import numpy as np

    a = np.array(rows, dtype=np.int64) % p
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


def _eliminate_frac(rows, reduced: bool):
    """Row-reduce Fraction rows, skipping zero entries; returns (rows,
    pivot columns).  `reduced` clears each pivot column above the pivot
    too (Gauss-Jordan)."""
    a = [list(row) for row in rows]
    m, n = len(a), len(a[0])
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        i = next((k for k in range(r, m) if a[k][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = 1 / a[r][c]
        row = a[r] = [x * inv if x else x for x in a[r]]
        support = [j for j in range(c, n) if row[j]]
        for k in range(0 if reduced else r + 1, m):
            f = a[k][c]
            if f and k != r:
                other = a[k]
                for j in support:
                    other[j] -= f * row[j]
        pivots.append(c)
    return a, pivots


def rref(rows, field):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    if not rows or not rows[0]:
        return [], []
    if field.is_prime:
        a, piv = _eliminate_mod_p(rows, field.p, True)
        return a[: len(piv)].tolist(), piv
    a, piv = _eliminate_frac(rows, True)
    return a[: len(piv)], piv


def rank(rows, field) -> int:
    """Rank from the forward pass alone."""
    if not rows or not rows[0]:
        return 0
    if field.is_prime:
        return len(_eliminate_mod_p(rows, field.p, False)[1])
    return len(_eliminate_frac(rows, False)[1])


def nullspace(rows, field, ncols: int):
    """Basis of the right kernel, one vector per free column (RREF convention)."""
    if ncols == 0:
        return []
    if not rows:
        basis = []
        for j in range(ncols):
            v = [field.zero()] * ncols
            v[j] = field.one()
            basis.append(v)
        return basis
    red, piv = rref(rows, field)
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
