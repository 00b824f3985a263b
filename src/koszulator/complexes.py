"""Free modules with twists, matrices of ring elements, chain complexes.

Everything downstream (Koszul complexes, cones, the resolution) is built out
of these pieces.  Homology is computed strand by strand: a generator with
twist a contributes the standard monomials of (Q/I)_{d-a} to the internal
degree d strand, and each matrix of ring elements becomes an honest field
matrix there, assembled from the ring's multiplication blocks.  Once R's
degrees settle the same blocks recur in the same layout, so strand ranks are
memoised per ring under a key that fixes the matrix exactly.
"""

from __future__ import annotations

from itertools import accumulate

from .fields import FieldError, PrimeField
from .linalg import rank
from .polyring import GradedQuotientRing, Polynomial

# The prime field of the exactness certificate over ℚ.  It can mislead only
# by dividing a denominator (then it is rejected) or a nonzero minor (then a
# rank drops and the exact ranks are taken); a large p makes both rare.
MODULAR_FIELD = PrimeField(2**31 - 1)


def collect(terms, ring) -> dict:
    """Sum (key, Polynomial) terms by key; normal forms, zeros dropped."""
    by_key = {}
    for key, p in terms:
        by_key.setdefault(key, []).append(p)
    return {
        key: q for key, q in ((key, ring.normal_form(*ps)) for key, ps in by_key.items())
        if not q.is_zero()
    }


class ComplexError(ValueError):
    pass


class FreeModule:
    """Finitely generated free module with labelled, internally graded gens."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring: GradedQuotientRing, gens):
        self.ring = ring
        self.gens = list(gens)  # list of (label, twist)

    @property
    def rank(self) -> int:
        return len(self.gens)

    def strand_dims(self, d: int):
        """dim (Q/I)_{d - twist} of each generator, 0 below degree 0."""
        return tuple(self.ring.dim_quotient(d - t) if d >= t else 0 for _, t in self.gens)

    def strand_dim(self, d: int) -> int:
        return sum(self.strand_dims(d))


class GradedMap:
    """Matrix of homogeneous ring elements between two free modules.

    entries[(i, j)] is the coefficient of target gen i in the image of
    source gen j; absent keys are zero.  Entry degrees must match the twist
    difference so the map is degree zero on the graded modules.  `_layout`
    keeps the entries grouped by polynomial, and `_checked` the fields its
    coefficients were reduced into (`_entry_polys`); a map is never changed
    once its strands are taken.
    """

    __slots__ = ("source", "target", "entries", "_layout", "_checked")

    def __init__(self, source: FreeModule, target: FreeModule, entries=None):
        self.source = source
        self.target = target
        self.entries = {}
        self._layout = None
        self._checked = set()
        ring = source.ring
        if entries:
            for (i, j), p in entries.items():
                p = ring.normal_form(p)
                if p.is_zero():
                    continue
                want = source.gens[j][1] - target.gens[i][1]
                if not p.is_homogeneous(want):
                    raise ComplexError(
                        f"entry ({i},{j}) has degree {p.degree()}, expected {want}"
                    )
                self.entries[(i, j)] = p

    @classmethod
    def from_columns(cls, source, target, column):
        """Map whose column at the source gen labelled lab is
        collect(column(lab)), its terms keyed by target labels.  The entries
        are taken as given, without the constructor's degree check."""
        row = {lab: r for r, (lab, _) in enumerate(target.gens)}
        out = cls(source, target)
        out.entries = {
            (row[key], j): p
            for j, (lab, _) in enumerate(source.gens)
            for key, p in collect(column(lab), source.ring).items()
        }
        return out

    @classmethod
    def identity(cls, module):
        one = module.ring.one()
        return cls(module, module, {(i, i): one for i in range(module.rank)})

    def entry(self, i, j) -> Polynomial:
        return self.entries.get((i, j), self.source.ring.zero())

    def column(self, j):
        """Image of source gen j as {target index: polynomial}."""
        return {i: p for (i, jj), p in self.entries.items() if jj == j}

    def is_zero(self) -> bool:
        return not self.entries

    def apply(self, elem: dict) -> dict:
        """Image of {source label: Polynomial} as {target label: Polynomial}."""
        col = {lab: j for j, (lab, _) in enumerate(self.source.gens)}
        tgt = self.target.gens
        return collect(
            ((tgt[r][0], q * p)
             for lab, p in elem.items()
             for r, q in self.column(col[lab]).items()),
            self.source.ring,
        )

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other (self.source must be other.target)."""
        if other.target.gens != self.source.gens:
            raise ComplexError("composition shape mismatch")
        cols = {}
        for (i, j), p in self.entries.items():
            cols.setdefault(j, []).append((i, p))
        out = GradedMap(other.source, self.target)
        out.entries = collect(
            (((i, j), p * q)
             for (k, j), q in other.entries.items()
             for i, p in cols.get(k, ())),
            self.source.ring,
        )
        return out

    def __neg__(self):
        out = GradedMap(self.source, self.target)
        out.entries = {k: -p for k, p in self.entries.items()}
        return out

    def __eq__(self, other):
        return (
            isinstance(other, GradedMap)
            and self.source.gens == other.source.gens
            and self.target.gens == other.target.gens
            and self.entries == other.entries
        )

    def is_minimal(self) -> bool:
        """No unit entries: every entry has positive degree."""
        return all(p.degree() >= 1 for p in self.entries.values())

    # -- strand matrices -------------------------------------------------------
    def _entry_polys(self, field):
        """(distinct entry polynomials, the sorted entry positions (i, j),
        the index of each position's polynomial), worked out once.  Over a
        prime field that a ℚ map is reduced into, every coefficient of the
        map is reduced first, once per field, so a denominator divisible by
        p raises FieldError before any block is built, whichever strand is
        asked for."""
        if self._layout is None:
            positions = tuple(sorted(self.entries))
            index = {}
            kinds = tuple(index.setdefault(self.entries[key], len(index))
                          for key in positions)
            self._layout = (list(index), positions, kinds)
        if field != self.source.ring.field and field not in self._checked:
            for p in self._layout[0]:
                for c in p.terms.values():
                    field.of(c)
            self._checked.add(field)
        return self._layout

    def _strand_blocks(self, d: int, field):
        """(target dims, source dims, [(i, j, (block id, block))]) of the
        degree-d strand: the generators' `strand_dims`, and the ring's
        multiplication block of each entry whose strand is not empty."""
        ring = self.source.ring
        polys, positions, kinds = self._entry_polys(field)
        tdims, sdims = self.target.strand_dims(d), self.source.strand_dims(d)
        blocks = {}
        placed = []
        for (i, j), k in zip(positions, kinds):
            if tdims[i] and sdims[j]:
                e = d - self.source.gens[j][1]
                if (k, e) not in blocks:
                    blocks[(k, e)] = ring.mul_block(polys[k], e, field)
                placed.append((i, j, blocks[(k, e)]))
        return tdims, sdims, placed

    def strand_matrix(self, d: int, field=None):
        """This map on internal degree d as (rows, nrows, ncols): rows are the
        target strand basis, columns the source strand basis (gen order, then
        standard monomials), and each row is a {column: scalar} dict of its
        nonzero entries.  Entry (i, j) places its multiplication block
        (`GradedQuotientRing.mul_block`) at the offsets of target gen i and
        source gen j; no two entries overlap, so nothing is summed here.
        The field is the ring's own, or a prime field that a ℚ map is
        reduced into; a denominator divisible by p raises FieldError."""
        tdims, sdims, placed = self._strand_blocks(d, field or self.source.ring.field)
        row_at = list(accumulate(tdims, initial=0))
        col_at = list(accumulate(sdims, initial=0))
        by_col = {}
        for i, j, (_, block) in placed:
            by_col.setdefault(j, []).append((row_at[i], block))
        rows = [{} for _ in range(row_at[-1])]
        for j in sorted(by_col):
            for k in range(sdims[j]):
                col = col_at[j] + k
                for off, block in by_col[j]:
                    for s, a in block[k]:
                        rows[off + s][col] = a
        return rows, row_at[-1], col_at[-1]


class ChainComplex:
    """Non-negatively indexed complex of free modules; modules[i], and
    differentials[i] : modules[i] -> modules[i-1]."""

    def __init__(self, ring, modules, differentials, check: bool = True):
        self.ring = ring
        self.modules = dict(modules)
        self.differentials = dict(differentials)
        # (i, d) -> rank of ∂_i at internal degree d; a complex is never
        # changed once built, so the memo cannot go stale
        self._ranks = {}
        # (i, d) -> that rank in MODULAR_FIELD, taken only over ℚ; None once
        # the prime divides a denominator
        self._modular_ranks = {}
        self._square_defect = None
        if check:
            bad = self.square_defect()
            if bad:
                raise ComplexError(f"differential does not square to zero at {bad[0]}")

    def square_defect(self):
        """Homological degrees i where ∂_{i-1}∂_i ≠ 0, composed once: by the
        constructor when it checks, else on the first call."""
        if self._square_defect is None:
            self._square_defect = [
                i for i, dmap in sorted(self.differentials.items())
                if i - 1 in self.differentials
                and not self.differentials[i - 1].compose(dmap).is_zero()
            ]
        return self._square_defect

    def module(self, i) -> FreeModule:
        m = self.modules.get(i)
        return m if m is not None else FreeModule(self.ring, [])

    def differential(self, i) -> GradedMap:
        d = self.differentials.get(i)
        if d is not None:
            return d
        return GradedMap(self.module(i), self.module(i - 1))

    @property
    def top(self) -> int:
        return max(self.modules) if self.modules else 0

    def shift(self, s: int = 1) -> "ChainComplex":
        """Suspension: (Σ^s C)_i = C_{i-s} with differential times (-1)^s."""
        modules = {i + s: m for i, m in self.modules.items()}
        sign = -1 if s % 2 else 1
        diffs = {}
        for i, dmap in self.differentials.items():
            nd = dmap if sign == 1 else -dmap
            diffs[i + s] = nd
        return ChainComplex(self.ring, modules, diffs, check=False)

    # -- homology ---------------------------------------------------------------
    def strand_rank(self, i: int, d: int) -> int:
        """Rank of ∂_i at internal degree d, computed once."""
        key = (i, d)
        if key not in self._ranks:
            self._ranks[key] = _strand_rank(self.differential(i), d)
        return self._ranks[key]

    def strand_homology_dim(self, i: int, d: int) -> int:
        dim = self.module(i).strand_dim(d)
        if dim == 0:
            return 0
        return dim - self.strand_rank(i + 1, d) - self.strand_rank(i, d)

    def vanishing_homology_dim(self, i: int, d: int) -> int:
        """strand_homology_dim(i, d), for a strand whose homology should be 0.

        Over ℚ both ranks are first taken in MODULAR_FIELD = 𝔽_p.  A strand
        matrix with no denominator divisible by p has rank_p ≤ rank_ℚ, and
        H ≥ 0 where ∂² = 0, so dim = r_p(i+1) + r_p(i) proves H_i(C)_d = 0
        and makes both ranks exact (the modular argument of Wang 1981 and
        Monagan 2004).  A prime dividing a denominator, or H ≠ 0 mod p,
        falls back to the exact ranks, so the value never differs."""
        dim = self.module(i).strand_dim(d)
        if dim and not self.ring.field.is_prime and i + 1 not in self.square_defect():
            ranks = [self._rank_lower_bound(j, d) for j in (i + 1, i)]
            if None not in ranks and sum(ranks) == dim:
                self._ranks[(i + 1, d)], self._ranks[(i, d)] = ranks
                return 0
        return self.strand_homology_dim(i, d)

    def _rank_lower_bound(self, i: int, d: int):
        """The rank of ∂_i at degree d over ℚ if known, else its rank in
        MODULAR_FIELD, a lower bound; None once the prime is rejected."""
        if (i, d) in self._ranks:
            return self._ranks[(i, d)]
        if self._modular_ranks is None:
            return None
        if (i, d) not in self._modular_ranks:
            try:
                self._modular_ranks[(i, d)] = _strand_rank(
                    self.differential(i), d, MODULAR_FIELD)
            except FieldError:
                self._modular_ranks = None
                return None
        return self._modular_ranks[(i, d)]

    def homology_table(self, max_i: int, max_d: int):
        """{(i, d): dim H_i(C)_d} over 0..max_i, 0..max_d."""
        return {
            (i, d): self.strand_homology_dim(i, d)
            for i in range(max_i + 1)
            for d in range(max_d + 1)
        }


def _strand_rank(dmap: GradedMap, d: int, field=None) -> int:
    """Rank of dmap at degree d, over the ring's field or, mod p, over
    `field` (see `GradedMap.strand_matrix`).  The ring's `rank_memo` is
    keyed by the field, the map's sorted entry positions, the strand dims
    (which fix the entries placed, in that order) and their block ids.
    These fix the matrix exactly: an equal strand, of any map over the
    ring, is built and ranked once."""
    ring = dmap.source.ring
    field = field or ring.field
    tdims, sdims, placed = dmap._strand_blocks(d, field)
    positions = dmap._entry_polys(field)[1]
    key = (field, positions, tdims, sdims, tuple(b for _, _, (b, _) in placed))
    memo = ring.rank_memo
    if key not in memo:
        rows, nrows, ncols = dmap.strand_matrix(d, field)
        memo[key] = rank(rows, field) if nrows and ncols else 0
    return memo[key]


class ChainMap:
    """Degree-zero map of complexes f : C -> D given by components[i]."""

    def __init__(self, source: ChainComplex, target: ChainComplex, components, check: bool = True):
        self.source = source
        self.target = target
        self.components = dict(components)
        self._chain_defect = None
        if check:
            errs = self.chain_defect()
            if errs:
                i = errs[0]
                raise ComplexError(f"not a chain map at homological degree {i}")

    def component(self, i) -> GradedMap:
        c = self.components.get(i)
        if c is not None:
            return c
        return GradedMap(self.source.module(i), self.target.module(i))

    def chain_defect(self):
        """Homological degrees where d_D f != f d_C, composed once: by the
        constructor when it checks, else on the first call.  A chain map is
        never changed once built, so the memo cannot go stale."""
        if self._chain_defect is None:
            bad = []
            degrees = set(self.source.differentials) | set(self.components)
            for i in sorted(degrees):
                lhs = self.target.differential(i).compose(self.component(i))
                rhs = self.component(i - 1).compose(self.source.differential(i))
                if lhs != rhs:
                    bad.append(i)
            self._chain_defect = bad
        return self._chain_defect


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Cone of f : C -> D, cone_i = C_{i-1} ⊕ D_i with
    ∂(c, d) = (-∂_C c, f(c) + ∂_D d).  f's chain defect, composed once
    per chain map, must be empty.  The −∂_C, f and ∂_D blocks fill disjoint
    (row, column) ranges, so each entry is placed as it is."""
    if f.chain_defect():
        raise ComplexError("mapping cone of a non-chain map")
    C, D = f.source, f.target
    ring = C.ring
    top = max(C.top + 1, D.top)
    modules = {}
    for i in range(top + 1):
        m = FreeModule(ring, C.module(i - 1).gens + D.module(i).gens)
        if m.rank:
            modules[i] = m
    diffs = {}
    for i in range(1, top + 1):
        src = modules.get(i)
        if src is None:
            continue
        tgt = modules.get(i - 1) or FreeModule(ring, [])
        cs = C.module(i - 1).rank
        ct = C.module(i - 2).rank
        entries = {}
        dC = C.differential(i - 1)
        for (r, c), p in dC.entries.items():
            entries[(r, c)] = -p
        fi = f.component(i - 1)
        for (r, c), p in fi.entries.items():
            entries[(ct + r, c)] = p
        dD = D.differential(i)
        for (r, c), p in dD.entries.items():
            entries[(ct + r, cs + c)] = p
        nd = GradedMap(src, tgt)
        nd.entries = entries
        diffs[i] = nd
    return ChainComplex(ring, modules, diffs, check=False)
