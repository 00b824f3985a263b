"""Free modules with twists, matrices of ring elements, chain complexes.

Everything downstream (Koszul complexes, cones, the resolution) is built out
of these pieces, and every product they take is read off the ring's blocks
of multiplication: `collect` sums their rows for composition and elements,
which group a map's entries by column once per call, and a strand matrix
places them whole.  Every map's entries enter through one constructor,
`GradedMap(source, target, entries)`, which keeps them as given and checks
each once: a nonzero form of degree source twist − target twist.
`ChainComplex.from_columns` builds a complex on labelled generators from one
column rule.  A generator with twist a spans (Q/I)_{d-a} in the internal
degree d strand.  A strand's rank belongs to its map
(`GradedMap.strand_rank`): one layout of the strand serves the rank memo's
key and the matrix, and as R's degrees settle the same blocks recur, so
ranks are memoised per ring by that exact key.  The ring computes in its
own field only: a strand mod p is the ring's strand, reduced.  A chain complex holds only
structure: modules, differentials, its ∂² defect and homology dims.  Chain
maps (`zetamaps.ChainMap`) and mapping cones (`conetower.mapping_cone`)
live with their only users, the ζ maps and the cone tower.
"""

from __future__ import annotations

from itertools import accumulate

from .fields import FieldError, PrimeField
from .linalg import rank
from .polynomial import monomial_degree
from .polyring import GradedQuotientRing

# The prime field of the exactness certificate over ℚ.  It can mislead only
# by dividing a denominator or a nonzero minor (a rank drops); either way the
# exact ranks are taken, and a large p makes both rare.
MODULAR_FIELD = PrimeField(2**31 - 1)


def collect(terms, ring, found=None) -> dict:
    """Sum product terms (key, p, q[, c]) by key: NF(Σ c·p·q) for homogeneous
    p, q and an integer c (1 if absent), as q's coordinates times the ring's
    block of multiplication by p (`GradedQuotientRing.mul_add`), one sum per
    key and degree; zero sums are dropped.  p's block is found once per
    degree of q, by id(p), in `found`, which holds p so its id is not reused;
    a caller that sums in several calls passes one `found` to them all."""
    sums = {}
    found = {} if found is None else found  # (id(p), deg q) -> (p, its block, deg p·q)
    for key, p, q, *c in terms:
        if p.terms and q.terms:
            e = monomial_degree(next(iter(q.terms)))
            hit = found.get((id(p), e))
            if hit is None:
                hit = found[(id(p), e)] = (p, ring.mul_block(p, e)[1],
                                           e + monomial_degree(next(iter(p.terms))))
            ring.mul_add(sums.setdefault(key, {}).setdefault(hit[2], {}), hit[1], q, e, *c)
    out = ((key, ring.polynomial(by_degree)) for key, by_degree in sums.items())
    return {key: poly for key, poly in out if not poly.is_zero()}


class ComplexError(ValueError):
    pass


class FreeModule:
    """Finitely generated free module with labelled, internally graded gens."""

    __slots__ = ("ring", "gens", "_dims")

    def __init__(self, ring: GradedQuotientRing, gens):
        self.ring = ring
        self.gens = list(gens)  # list of (label, twist)
        self._dims = {}

    @property
    def rank(self) -> int:
        return len(self.gens)

    def strand_dims(self, d: int):
        """dim (Q/I)_{d - twist} of each generator, 0 below degree 0; kept."""
        if d not in self._dims:
            self._dims[d] = tuple(self.ring.dim_quotient(d - t) if d >= t else 0
                                  for _, t in self.gens)
        return self._dims[d]

    def strand_dim(self, d: int) -> int:
        return sum(self.strand_dims(d))


class GradedMap:
    """Matrix of homogeneous ring elements between two free modules.

    entries[(i, j)] is the coefficient of target gen i in the image of
    source gen j; absent keys are zero.  `_layout` keeps the entries grouped
    by polynomial with each one's block table (`_entry_polys`), `_strand`
    the last strand laid out, and `_ranks` the rank of each (degree, field)
    strand; a map never changes once laid out.
    """

    __slots__ = ("source", "target", "entries", "_layout", "_strand", "_ranks")

    def __init__(self, source: FreeModule, target: FreeModule, entries=None):
        """The map on `entries`, kept as given: each must be a nonzero form
        of degree (source twist − target twist), so the map is degree zero
        on the graded modules; no normal form is taken here."""
        self.source = source
        self.target = target
        self.entries = {} if entries is None else entries
        self._layout = None
        self._strand = (None, None)
        self._ranks = {}
        for (i, j), p in self.entries.items():
            want = source.gens[j][1] - target.gens[i][1]
            if not p.terms or not p.is_homogeneous(want):
                raise ComplexError(f"entry ({i},{j}) = {p.to_string(source.ring.var_names)} "
                                   f"is not a nonzero form of degree {want}")

    @classmethod
    def from_columns(cls, source, target, column):
        """Map whose column at the source gen labelled lab places the (target
        label, polynomial) terms of column(lab).  Each polynomial must be a
        normal form, as ±x_i and the cycle coordinates are, so no product is
        taken: NF is linear, terms at one position are summed with +, and a
        zero sum is dropped.  Equal entries share one Polynomial, as a map
        built from columns has few distinct ones.  A term at a label that is
        no target generator raises ComplexError."""
        row = {lab: r for r, (lab, _) in enumerate(target.gens)}
        entries = {}
        for j, (lab, _) in enumerate(source.gens):
            for key, p in column(lab):
                if key not in row:
                    raise ComplexError(f"the column of {lab!r} has a term at {key!r}, "
                                       "which is not a target generator")
                pos = (row[key], j)
                entries[pos] = entries[pos] + p if pos in entries else p
        shared = {}
        return cls(source, target,
                   {pos: shared.setdefault(p, p) for pos, p in entries.items() if p.terms})

    def is_zero(self) -> bool:
        return not self.entries

    def _by_column(self):
        """{source index j: [(target index i, entry)]}, in entry order; one
        scan of the entries per call, as a map's entries may still be set."""
        cols = {}
        for (i, j), p in self.entries.items():
            cols.setdefault(j, []).append((i, p))
        return cols

    def apply(self, elem: dict) -> dict:
        """Image of {source label: Polynomial} as {target label: Polynomial}."""
        col = {lab: j for j, (lab, _) in enumerate(self.source.gens)}
        tgt, cols = self.target.gens, self._by_column()
        return collect(((tgt[r][0], q, p) for lab, p in elem.items()
                        for r, q in cols.get(col[lab], ())), self.source.ring)

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other (self.source must be other.target), summed one
        source column at a time, so partial sums exist for one column only;
        the columns share their block lookups."""
        if other.target.gens != self.source.gens:
            raise ComplexError("composition shape mismatch")
        cols, ring, found, entries = self._by_column(), self.source.ring, {}, {}
        for j, col in other._by_column().items():
            product = collect(((i, p, q) for k, q in col for i, p in cols.get(k, ())), ring, found)
            entries.update(((i, j), p) for i, p in product.items())
        return GradedMap(other.source, self.target, entries)

    def __neg__(self):
        return GradedMap(self.source, self.target, {k: -p for k, p in self.entries.items()})

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
    def _entry_polys(self):
        """(distinct entry polynomials, the sorted entry positions (i, j),
        the index of each position's polynomial, each polynomial's block
        table in the ring), worked out once."""
        if self._layout is None:
            positions = tuple(sorted(self.entries))
            index = {}
            kinds = tuple(index.setdefault(self.entries[key], len(index))
                          for key in positions)
            self._layout = (list(index), positions, kinds,
                            [self.source.ring.mul_blocks(p) for p in index])
        return self._layout

    def _strand_blocks(self, d: int):
        """(target dims, source dims, [(i, j, (block id, block))], block ids)
        of the degree-d strand: the generators' `strand_dims`, and each
        nonempty entry's block off its polynomial's table.  The last strand
        is kept for the rank memo's key and then `strand_matrix`."""
        if self._strand[0] != d:
            polys, positions, kinds, tables = self._entry_polys()
            gens = self.source.gens
            tdims, sdims = self.target.strand_dims(d), self.source.strand_dims(d)
            placed = [(i, j, tables[k].get(d - gens[j][1])
                       or self.source.ring.mul_block(polys[k], d - gens[j][1]))
                      for (i, j), k in zip(positions, kinds) if tdims[i] and sdims[j]]
            self._strand = (d, (tdims, sdims, placed, tuple(b for _, _, (b, _) in placed)))
        return self._strand[1]

    def strand_matrix(self, d: int, field=None):
        """This map on internal degree d as (rows, nrows, ncols): rows are the
        target strand basis, columns the source strand basis (gen order, then
        standard monomials), and each row is a {column: scalar} dict of its
        nonzero entries.  Entry (i, j) places its multiplication block
        (`GradedQuotientRing.mul_block`) at the offsets of target gen i and
        source gen j; no two entries overlap, so nothing is summed here.
        Over another `field`, a prime field that a ℚ map is reduced into,
        each entry of the ring's strand is reduced and dropped if it
        vanishes; a denominator divisible by p raises FieldError."""
        tdims, sdims, placed, _ = self._strand_blocks(d)
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
        if field and field != self.source.ring.field:
            rows = [{c: a for c, a in ((c, field.of(a)) for c, a in row.items()) if a}
                    for row in rows]
        return rows, row_at[-1], col_at[-1]

    def strand_rank(self, d: int, field=None, ceiling=None) -> int:
        """Rank of this map at degree d, over the ring's field or, mod p, over
        `field` (see `strand_matrix`), kept per (d, field).  The ring's
        `rank_memo` is keyed by the field, the sorted entry positions, the
        strand dims (which fix the entries placed, in that order) and their
        block ids in the ring.  These fix the matrix exactly: an equal strand,
        of any map over the ring, is built and ranked once.  The elimination stops at
        `ceiling` pivots; a caller passes only a bound on the rank, so both
        caches hold true ranks whichever ceiling the first caller had."""
        ring = self.source.ring
        field = field or ring.field
        if (d, field) not in self._ranks:
            tdims, sdims, _, ids = self._strand_blocks(d)
            key = (field, self._layout[1], tdims, sdims, ids)
            memo = ring.rank_memo
            if key not in memo:
                rows, nrows, ncols = self.strand_matrix(d, field)
                memo[key] = rank(rows, field, ceiling) if nrows and ncols else 0
            self._ranks[(d, field)] = memo[key]
        return self._ranks[(d, field)]


class ChainComplex:
    """Non-negatively indexed complex of free modules; modules[i], and
    differentials[i] : modules[i] -> modules[i-1]."""

    def __init__(self, ring, modules, differentials, check: bool = True):
        self.ring = ring
        self.modules = dict(modules)
        self.differentials = dict(differentials)
        self._square_defect = None
        self._mod_p = None
        self._empty = FreeModule(ring, [])
        self._zero = {}  # the zero map at each degree past the stored ones
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
        return self.modules.get(i, self._empty)

    def differential(self, i) -> GradedMap:
        if i in self.differentials:
            return self.differentials[i]
        if i not in self._zero:
            self._zero[i] = GradedMap(self.module(i), self.module(i - 1))
        return self._zero[i]

    @classmethod
    def from_columns(cls, ring, gens, column, check: bool = True):
        """The complex free on the generators gens[i] in each degree i, with
        ∂_i : C_i → C_{i−1} built by `GradedMap.from_columns` from one column
        rule for every degree."""
        modules = {i: FreeModule(ring, g) for i, g in enumerate(gens)}
        diffs = {i: GradedMap.from_columns(modules[i], modules[i - 1], column)
                 for i in range(1, len(modules))}
        return cls(ring, modules, diffs, check)

    @property
    def top(self) -> int:
        return max(self.modules) if self.modules else 0

    def shift(self, s: int = 1) -> "ChainComplex":
        """Suspension: (Σ^s C)_i = C_{i-s} with differential times (-1)^s."""
        modules = {i + s: m for i, m in self.modules.items()}
        diffs = {i + s: -dmap if s % 2 else dmap for i, dmap in self.differentials.items()}
        return ChainComplex(self.ring, modules, diffs, check=False)

    def _reduces_mod_p(self) -> bool:
        """Do all coefficients of every differential reduce into
        MODULAR_FIELD?  Worked out once, before the first rank mod p, so a
        prime dividing a denominator anywhere in the complex is rejected
        before any rank is taken in it."""
        if self._mod_p is None:
            try:
                for dmap in self.differentials.values():
                    for p in dmap._entry_polys()[0]:
                        for c in p.terms.values():
                            MODULAR_FIELD.of(c)
                self._mod_p = True
            except FieldError:
                self._mod_p = False
        return self._mod_p

    # -- homology ---------------------------------------------------------------
    def strand_homology_dim(self, i: int, d: int) -> int:
        """dim H_i(C)_d = dim C_{i,d} − rank ∂_{i+1} − rank ∂_i.  ∂_i is
        ranked first.  Where ∂_i∂_{i+1} = 0, im ∂_{i+1} ⊆ ker ∂_i, so
        ∂_{i+1}'s elimination stops at dim C_{i,d} − rank ∂_i pivots, which
        is then its rank; that needs ∂² already composed and found zero
        there, and ∂² is never composed just for the ceiling."""
        dim = self.module(i).strand_dim(d)
        if dim == 0:
            return 0
        r = self.differential(i).strand_rank(d)
        defect = self._square_defect
        ceiling = dim - r if defect is not None and i + 1 not in defect else None
        return dim - self.differential(i + 1).strand_rank(d, ceiling=ceiling) - r

    def vanishing_homology_dim(self, i: int, d: int) -> int:
        """strand_homology_dim(i, d), for a strand whose homology should be 0.

        Over ℚ both ranks are first taken in MODULAR_FIELD = 𝔽_p.  A strand
        matrix with no denominator divisible by p has rank_p ≤ rank_ℚ, and
        H ≥ 0 where ∂² = 0, so dim = r_p(i+1) + r_p(i) proves H_i(C)_d = 0
        (the modular argument of Wang 1981 and Monagan 2004).  A prime
        dividing a denominator of the complex or of R's normal forms, or
        H ≠ 0 mod p, falls back to the exact ranks, so the value never
        differs.  ∂² = 0 holds mod p too, so dim − r_p(i) bounds r_p(i+1):
        ∂_{i+1} is ranked mod p with that ceiling, as in
        `strand_homology_dim`."""
        dim = self.module(i).strand_dim(d)
        if (dim and not self.ring.field.is_prime and i + 1 not in self.square_defect()
                and self._reduces_mod_p()):
            try:
                r = self.differential(i).strand_rank(d, MODULAR_FIELD)
                if r + self.differential(i + 1).strand_rank(d, MODULAR_FIELD, dim - r) == dim:
                    return 0
            except FieldError:  # p divides a denominator of R's normal forms
                self._mod_p = False
        return self.strand_homology_dim(i, d)

    def homology_table(self, max_i: int, max_d: int):
        """{(i, d): dim H_i(C)_d} over 0..max_i, 0..max_d."""
        return {
            (i, d): self.strand_homology_dim(i, d)
            for i in range(max_i + 1)
            for d in range(max_d + 1)
        }

