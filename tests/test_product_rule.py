"""Every product of ring elements is read off the ring's multiplication blocks.

`complexes.collect` sums product terms c·p·q as q's coordinates times the
block of multiplication by p (`GradedQuotientRing.mul_add`); the oracle in
`tests/oracles.py` multiplies the same terms out monomial by monomial and
takes normal forms.  The two must agree on every call that compose, apply,
the DG product (K's wedge among them) and the acyclic-closure differential
make, over ℚ and 𝔽_p, on rings whose normal forms carry proper fractions and
on rings whose cycle coordinates are not variables.  A map built from columns takes
no product: its terms, normal forms already, are placed, and must equal
what the oracle gives for the same terms each multiplied by 1.
"""

import random
import runpy
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from koszulator import cli, complexes, koszul
from koszulator.complexes import MODULAR_FIELD, FreeModule, GradedMap
from koszulator.conetower import build_tower
from koszulator.dividedpowers import (acyclic_closure_square_zero, verify_mu_equals_zeta,
                                      verify_mu_square_zero)
from koszulator.fields import PrimeField, RationalField
from koszulator.koszul import build_koszul, certify_complete_intersection, cycles_from_generators
from koszulator.polyring import Polynomial
from koszulator.koszul import dg_product_elements
from koszulator.resolution import assemble_f, basis_labels, verify_leibniz
from koszulator.zetamaps import build_zeta

import oracles
from oracles import ring_from_strings

Q, FP = RationalField(), PrimeField(32003)
BENCH = Path(__file__).parent.parent / "bench"
RINGS = {
    # normal forms with proper fractions over ℚ
    "nonmonic": ("a,b,c,d,e", ["2*a^2+3*b*c", "5*c^2+7*d*e", "2*a*e+3*b^2", "5*d^2+7*a*b"]),
    # cycle coordinates x^4, y^4, z^4: multiplication blocks of non-variables
    "quintic2": ("x,y,z", ["x^5", "y^5+z^5"]),
    "golden3": ("x,y,z", ["x^2+y^2", "x*z", "z^2+x*y"]),
}


def _random_ring(seed, field):
    """(l_1^a_1, ..., l_c^a_c) in x, y, z for random integer linear forms l_i,
    a complete intersection whenever the forms are independent."""
    rnd = random.Random(seed)
    names = ["x", "y", "z"]
    while True:
        forms = [[rnd.randint(-2, 2) for _ in names] for _ in range(rnd.choice([2, 3]))]
        gens = []
        for form, a in zip(forms, (rnd.choice([2, 3]) for _ in forms)):
            lin = Polynomial(3, field, {tuple(int(i == j) for i in range(3)): c
                                        for j, c in enumerate(form)})
            power = Polynomial.constant(3, field, 1)
            for _ in range(a):
                power = oracles.multiply(power, lin)
            gens.append(power.to_string(names))
        if oracles.rank(forms, field) == len(forms):
            return ",".join(names), gens


def _random_element(rnd, ring, module, degree):
    """A homogeneous element of internal degree `degree` on the generators of
    `module`, its coefficients on arbitrary monomials (not normal forms),
    with proper fractions over ℚ."""
    elem = {}
    for lab, twist in rnd.sample(module.gens, min(3, module.rank)):
        d = degree - twist
        if d < 0:
            continue
        monos = [m for m in _monomials(ring.nvars, d)]
        terms = {m: Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
                 for m in rnd.sample(monos, min(3, len(monos)))}
        p = Polynomial(ring.nvars, ring.field, terms)
        if not p.is_zero():
            elem[lab] = p
    return elem


def _monomials(n, d):
    if n == 1:
        return [(d,)]
    return [(h,) + t for h in range(d, -1, -1) for t in _monomials(n - 1, d - h)]


@pytest.fixture
def checked(monkeypatch):
    """Every collect call, in every module, also summed by the oracle; the
    result is asserted equal.  Returns the count of calls per caller."""
    calls = Counter()
    program = complexes.collect

    def checking(terms, ring, found=None):
        terms = list(terms)
        out = program(terms, ring, found)
        assert out == oracles.collect(terms, ring)
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's frame
            frame = frame.f_back
        calls[frame.f_code.co_name] += 1
        return out

    for module in (complexes, koszul):
        monkeypatch.setattr(module, "collect", checking)
    return calls


CASES = [(name, field) for name in RINGS for field in (Q, FP)] + [
    (f"random{seed}", field) for seed in range(3) for field in (Q, FP)]


@pytest.mark.parametrize("name,field", CASES,
                         ids=[f"{n}-{'q' if f == Q else 'p'}" for n, f in CASES])
def test_products_match_the_term_by_term_oracle(name, field, checked):
    names, gens = RINGS[name] if name in RINGS else _random_ring(int(name[6:]), field)
    ring = ring_from_strings(names.split(","), gens, field)
    K = build_koszul(ring)
    Z = cycles_from_generators(K)
    assert certify_complete_intersection(K, Z)["pass"]  # wedge products
    imax = 4 if ring.nvars > 3 else 5
    F = assemble_f(K, Z, imax)  # from_columns, and ∂² composed
    zeta = build_zeta(K, Z, 1)  # the chain-map defect composed
    assert not zeta.chain_defect()
    assert verify_mu_square_zero(K, Z, 1)["pass"]
    for i in range(2, imax + 1):
        d2 = F.differential(i - 1).compose(F.differential(i))
        assert d2.is_zero()
    pairs = [(a, b) for i in range(3) for j in range(3 - i)
             for a in basis_labels(F, i)[:4] for b in basis_labels(F, j)[:4]]
    assert verify_leibniz(F, pairs)["pass"]
    assert acyclic_closure_square_zero(K, Z, max_k=1 if ring.nvars > 3 else 2)["pass"]

    rnd = random.Random(name)
    for i in range(1, imax + 1):
        for degree in range(i, i + 4):
            elem = _random_element(rnd, ring, F.module(i), degree)
            F.differential(i).apply(elem)
            dg_product_elements(ring, elem, {basis_labels(F, 1)[0]: ring.one()})
            kel = _random_element(rnd, ring, K.complex.module(min(i, K.n)), degree)
            dg_product_elements(ring, kel, Z.element(0))
    for caller in ("compose", "apply", "dg_product_elements"):
        assert checked[caller], caller
    if name == "quintic2":
        # the cycle coordinates x^4, y^4, z^4 are multiplied through blocks
        # built term by term, not read off the border
        assert any(p.degree() == 4 for p in ring._blocks)


# -- maps built from columns: placed, not multiplied ------------------------------


def _oracle_entries(source, target, terms):
    """The entries `oracles.collect` gives for the (position, 1, p) terms of
    columns {source label: [(target label, p)]}."""
    row = {lab: r for r, (lab, _) in enumerate(target.gens)}
    one = source.ring.one()
    return oracles.collect((((row[key], j), one, p) for j, (lab, _) in enumerate(source.gens)
                            for key, p in terms[lab]), source.ring)


@pytest.fixture
def placed(monkeypatch):
    """Every map built by `GradedMap.from_columns` while the test runs, as
    (caller, source, target, the terms of each column, the map); the caller
    is module.function, and `_on_zeta_gens` is told apart by its terms."""
    built = []
    original = GradedMap.from_columns.__func__

    def recording(cls, source, target, column):
        terms = {}

        def listed(lab):
            terms[lab] = list(column(lab))
            return terms[lab]

        frame = sys._getframe(1)
        # past a comprehension's frame, `ChainComplex.from_columns` and
        # `ChainMap.from_columns`
        while frame.f_code.co_name.startswith("<") or frame.f_code.co_name == "from_columns":
            frame = frame.f_back
        caller = f"{frame.f_globals['__name__'].rpartition('.')[2]}.{frame.f_code.co_name}"
        if frame.f_code.co_name == "_on_zeta_gens":
            caller += ":" + frame.f_locals["terms"].__name__
        built.append((caller, source, target, terms, original(cls, source, target, listed)))
        return built[-1][-1]

    monkeypatch.setattr(GradedMap, "from_columns", classmethod(recording))
    return built


@pytest.mark.parametrize("name,field", CASES,
                         ids=[f"{n}-{'q' if f == Q else 'p'}" for n, f in CASES])
def test_maps_from_columns_have_the_oracle_entries(name, field, placed):
    # K's ∂, the tuple sums', F's, ζ's components, the tower's ψ^j, μ and
    # the ζ it is compared with, and the acyclic closure's differential
    # place their column terms as they are; each must equal the normal form
    # of the sum of its terms, as if every term were multiplied by 1
    names, gens = RINGS[name] if name in RINGS else _random_ring(int(name[6:]), field)
    ring = ring_from_strings(names.split(","), gens, field)
    K = build_koszul(ring)
    Z = cycles_from_generators(K)
    assemble_f(K, Z, 4)
    build_zeta(K, Z, 1)
    build_tower(K, Z, 2)
    assert verify_mu_equals_zeta(K, Z, range(2))["pass"]
    assert acyclic_closure_square_zero(K, Z, max_k=1)["pass"]
    assert {caller for caller, *_ in placed} == {
        "koszul.__init__", "zetamaps.koszul_tuple_sum", "resolution.assemble_f",
        "zetamaps.build_zeta", "conetower.build_tower", "dividedpowers._on_zeta_gens:mu_terms",
        "dividedpowers._on_zeta_gens:zeta_terms", "dividedpowers.acyclic_closure_square_zero"}
    for caller, source, target, terms, dmap in placed:
        assert dmap.entries == _oracle_entries(source, target, terms), caller
    assert any(dmap.entries for *_, dmap in placed)


def test_a_column_term_off_normal_form_is_caught():
    # golden3: x^2 ≡ −y^2, so x^2 is not a normal form; placed as it is, it
    # differs from the oracle's entry, which a normal form would not
    ring = ring_from_strings(["x", "y", "z"], RINGS["golden3"][1], Q)
    x, y = ring.variable(0), ring.variable(1)
    source = FreeModule(ring, [("s", 2)])
    target = FreeModule(ring, [("t", 0), ("u", 1)])
    square = oracles.multiply(x, x)
    for term, normal in ((square, False), (-oracles.multiply(y, y), True)):
        terms = {"s": [("t", term), ("u", x), ("u", -x)]}
        dmap = GradedMap.from_columns(source, target, lambda lab: terms[lab])
        assert (1, 0) not in dmap.entries  # x − x at one position: dropped
        assert (dmap.entries == _oracle_entries(source, target, terms)) is normal


def test_compose_matches_the_oracle_on_zeta_maps():
    ring = ring_from_strings(["x", "y", "z"], RINGS["quintic2"][1], Q)
    K = build_koszul(ring)
    Z = cycles_from_generators(K)
    for k in range(2):
        outer, inner = build_zeta(K, Z, k), build_zeta(K, Z, k + 1)
        for u in range(2, K.n + 1):
            f, g = outer.component(u), inner.component(u - 1)
            assert f.compose(g).entries == oracles.compose(f, g)
            h = outer.target.differential(u)
            assert h.compose(f).entries == oracles.compose(h, f)


@pytest.mark.parametrize("modular_first", [False, True])
def test_rows_over_q_and_mod_p_are_never_shared(modular_first):
    """The ring keeps rows over ℚ only, whichever field a strand is built in
    first: a strand mod 2³¹−1 is the ℚ strand reduced entry by entry, with
    the entries that vanish mod p dropped, and the ℚ strands stay those of
    a ring that never saw the prime.  (1 is the int 1 in both fields, and
    Fraction(1) == 1 hash equal, so a table shared by both would mix them.)"""
    names, gens = RINGS["nonmonic"]
    ring = ring_from_strings(names.split(","), gens, Q)
    fresh = ring_from_strings(names.split(","), gens, Q)
    F, F_fresh = (assemble_f(K, cycles_from_generators(K), 3)
                  for K in (build_koszul(ring), build_koszul(fresh)))
    fields = (MODULAR_FIELD, Q) if modular_first else (Q, MODULAR_FIELD)
    proper = False
    for i in (2, 3):
        dmap = F.differential(i)
        for d in range(2, 7):
            matrices = {f: dmap.strand_matrix(d, f) for f in fields}
            rows_q, nrows, ncols = matrices[Q]
            assert matrices[Q] == F_fresh.differential(i).strand_matrix(d)
            assert matrices[MODULAR_FIELD][1:] == (nrows, ncols)
            reduced = [{j: MODULAR_FIELD.of(a) for j, a in row.items()
                        if MODULAR_FIELD.of(a)} for row in rows_q]
            assert matrices[MODULAR_FIELD][0] == reduced
            proper |= any(type(a) is Fraction for row in rows_q for a in row.values())
    assert proper
    # every stored block is keyed by its polynomial and holds the ℚ products
    assert ring._blocks and all(isinstance(p, Polynomial) for p in ring._blocks)
    for p, table in ring._blocks.items():
        for e, (_, block) in table.items():
            for k, row in enumerate(block):
                m = oracles.degree_piece_basis(ring, e)[k]
                vec = oracles.nf_coeff_vector(
                    ring, oracles.multiply(p, Polynomial(ring.nvars, Q, {m: 1})), e + p.degree())
                assert row == tuple((s, a) for s, a in enumerate(vec) if a)


# -- the mechanism, pinned ------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["verify-all"],
    ["divided", "--k", "3", "--compare-zeta"],
    ["tower", "--levels", "3"],
], ids=["verify-all", "divided", "tower"])
def test_commands_never_multiply_polynomials_term_by_term(argv, monkeypatch, capsys):
    # the term-by-term product lives in the oracle only; lent to Polynomial
    # as `*`, it is counted, and no command may call it
    calls = []

    def counting(p, q):
        calls.append(1)
        return oracles.multiply(p, q)

    monkeypatch.setattr(Polynomial, "__mul__", counting, raising=False)
    ring = str(BENCH / "rings" / "golden3-q.ring")
    assert cli.main(argv[:1] + ["--ring", ring] + argv[1:]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert not calls


def test_each_strand_is_laid_out_once(tmp_path, monkeypatch, capsys):
    """On `resolve --imax 6 --verify-all` over the benchmark's seed-1
    4-variable ring, the dims of each (module, d) and the placed blocks of
    each (map, d) are worked out once: every later call returns the
    very object the first one built."""
    generic_ci_ring = runpy.run_path(str(BENCH / "workloads.py"))["generic_ci_ring"]
    path = tmp_path / "generic4-seed1.ring"
    path.write_text(generic_ci_ring(1))
    results = {}

    def recording(name, original):
        def wrapper(self, d):
            out = original(self, d)
            # the owner and the result stay alive, so their ids stay their own
            results.setdefault((name, id(self), d), [self]).append(out)
            return out
        return wrapper

    monkeypatch.setattr(FreeModule, "strand_dims",
                        recording("dims", FreeModule.strand_dims))
    monkeypatch.setattr(GradedMap, "_strand_blocks",
                        recording("blocks", GradedMap._strand_blocks))
    argv = ["resolve", "--ring", str(path), "--imax", "6", "--verify-all"]
    assert cli.main(argv) == 0
    assert "minimality and exactness: pass" in capsys.readouterr().out
    kinds = Counter(key[0] for key in results)
    assert kinds["dims"] and kinds["blocks"]
    assert any(len(outs) > 2 for outs in results.values())  # asked for again
    for key, (_, *outs) in results.items():
        assert all(out is outs[0] for out in outs), key
