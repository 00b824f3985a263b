import random
from fractions import Fraction

import pytest

from koszulator.fields import PrimeField, RationalField
from koszulator.koszul import build_koszul, certify_complete_intersection, cycles_from_generators
from koszulator.polyring import (
    ParseError,
    Polynomial,
    RingError,
    parse_polynomial,
)

from oracles import (degree_piece_basis, multiply, nf_coeff_vector, reduce_against,
                     ring_from_strings, rref)

VARS = ["x", "y", "z"]
Q = RationalField()


def P(text):
    return parse_polynomial(text, VARS, Q)


def monomials_of_degree(nvars, d):
    """All degree-d monomials in graded-lex descending order (x1 largest)."""
    if nvars == 1:
        return [(d,)]
    return [(head,) + tail for head in range(d, -1, -1)
            for tail in monomials_of_degree(nvars - 1, d - head)]


def test_monomial_order_graded_lex_descending():
    # degree-2 monomials in x > y > z: x², xy, xz, y², yz, z²; with no
    # generator of degree 2 all are standard, in the same order
    order = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert monomials_of_degree(3, 2) == order
    assert degree_piece_basis(ring_from_strings(VARS, ["x^3"], Q), 2) == order


def test_parse_round_trip():
    for text in ["x^2 + y*z", "-x + 3*y^2*z - 1/2*z^3", "0", "x*y*z"]:
        p = P(text)
        assert P(p.to_string(VARS)) == p


def test_parse_coefficients_and_powers():
    p = P("2*x^2 - 3/4*y*z")
    assert p.terms[(2, 0, 0)] == Fraction(2)
    assert p.terms[(0, 1, 1)] == Fraction(-3, 4)


def coefficient_types(p):
    return {m: type(c) for m, c in p.terms.items()}


def test_parse_builds_a_fraction_only_after_a_slash():
    # integer coefficients stay ints; a quotient is reduced, and is an int
    # when integral
    p = P("x^2 - 6/4*y*z + 4/2*z^2 - 3")
    assert p.terms == {(2, 0, 0): 1, (0, 1, 1): Fraction(-3, 2), (0, 0, 2): 2, (0, 0, 0): -3}
    assert coefficient_types(p) == {(2, 0, 0): int, (0, 1, 1): Fraction, (0, 0, 2): int,
                                    (0, 0, 0): int}
    f = PrimeField(7)
    assert parse_polynomial("1/2*x - 14/7*y + 7/7*z", VARS, f).terms == {
        (1, 0, 0): 4, (0, 1, 0): 5, (0, 0, 1): 1}
    with pytest.raises(ParseError, match=r"denominator divisible by 7 \(at position 9\)"):
        parse_polynomial("x + 1/7*y", VARS, f)


def test_rational_arithmetic_keeps_integral_coefficients_as_ints():
    half = P("1/2*x + 1/3*y")
    assert coefficient_types(half + half) == {(1, 0, 0): int, (0, 1, 0): Fraction}
    assert coefficient_types(multiply(half, P("2*x"))) == {(2, 0, 0): int, (1, 1, 0): Fraction}
    assert coefficient_types(multiply(half, P("6"))) == {(1, 0, 0): int, (0, 1, 0): int}
    assert (half + -half).is_zero()


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        P("x^2 + *y")
    assert exc.value.position == 6


@pytest.mark.parametrize("text,position", [
    ("x^2*-y^2", 4), ("x*+y", 2), ("2*-x", 2), ("x^2*", 4), ("2*", 2), ("x * ", 4), ("x*2", 2),
])
def test_a_star_must_be_followed_by_a_variable(text, position):
    # all but 'x*2' were once read as if the '*' were not there
    with pytest.raises(ParseError) as exc:
        P(text)
    assert str(exc.value) == f"expected a variable after '*' (at position {position})"
    assert exc.value.position == position


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        P("x + w")


def test_polynomial_homogeneous_components():
    p = P("x^2 + y + z^3")
    assert not p.is_homogeneous()
    assert P("x*y + z^2").is_homogeneous(2)


def test_ring_rejects_inhomogeneous_or_low_degree_generators():
    with pytest.raises(RingError):
        ring_from_strings(VARS, ["x^2 + y"], Q)
    with pytest.raises(RingError):
        ring_from_strings(VARS, ["x"], Q)


def test_normal_form_pinned_representatives():
    # in Q[x,y,z]/(x^2, y^2+z^2): nf eliminates the largest monomial of each
    # relation, so y^2 reduces to -z^2 and z^2 is already reduced
    ring = ring_from_strings(VARS, ["x^2", "y^2+z^2"], Q)
    assert ring.normal_form(P("z^2")) == P("z^2")
    assert ring.normal_form(P("y^2")) == P("-z^2")
    assert ring.normal_form(P("x^2")).is_zero()
    assert ring.normal_form(P("x^3 + x*y")) == P("x*y")


@pytest.mark.parametrize("field", [Q, PrimeField()], ids=["Q", "Fp"])
def test_normal_form_of_a_sum_of_mixed_degree_arguments(field):
    # x^3 cancels across the arguments and y^2 + z^2 lies in the ideal
    ring = ring_from_strings(VARS, ["x^2", "y^2+z^2"], field)
    args = [parse_polynomial(t, VARS, field) for t in ("x^3 + y^2", "z^2 - x^3", "x*y")]
    assert ring.normal_form(*args) == parse_polynomial("x*y", VARS, field)
    assert ring.normal_form(*args) == ring.normal_form(args[0] + args[1] + args[2])
    assert ring.normal_form().is_zero()


def test_nf_coeff_vector_needs_the_given_degree():
    ring = ring_from_strings(VARS, ["x^2", "y^2+z^2"], Q)
    assert nf_coeff_vector(ring, P("y^2 + x*z"), 2) == [0, 1, 0, -1]
    with pytest.raises(RingError, match="homogeneous"):
        nf_coeff_vector(ring, P("x*y + z"), 2)


def test_dim_quotient_matches_hand_count():
    # Q[x,y,z]/(x^2, y^2+z^2): Hilbert series (1+t)^2/(1-t) = 1,3,4,4,...
    ring = ring_from_strings(VARS, ["x^2", "y^2+z^2"], Q)
    assert [ring.dim_quotient(d) for d in range(4)] == [1, 3, 4, 4]
    assert ring.hilbert_coefficients(8) == ring.ci_hilbert_coefficients(8)


def test_degree_piece_basis_is_reduced():
    ring = ring_from_strings(VARS, ["x^2", "y^2+z^2"], Q)
    basis = degree_piece_basis(ring, 2)
    assert len(basis) == 4
    assert (2, 0, 0) not in basis  # x^2 is a relation leading monomial


def test_prime_field_ring_agrees_with_rational():
    fp = PrimeField()
    ring_p = ring_from_strings(VARS, ["x^2+y^2", "x*z", "z^2+x*y"], fp)
    ring_q = ring_from_strings(VARS, ["x^2+y^2", "x*z", "z^2+x*y"], Q)
    assert ring_p.hilbert_coefficients(10) == ring_q.hilbert_coefficients(10)
    assert ring_p.codepth == ring_q.codepth == 3


# the generic 4-variable ring of the benchmark (generic_ci_ring(1))
GENERIC4 = (
    ["x", "y", "z", "w"],
    [
        "15789*x^2 + 28014*x*y + 30558*x*z + 25859*x*w + 19194*y^2 + 24841*y*z"
        " + 23056*y*w + 13545*z^2 + 17514*z*w + 18165*w^2",
        "20016*x^2 + 27922*x*y + 8116*x*z + 28479*x*w + 16090*y^2 + 20735*y*z"
        " + 145*y*w + 25618*z^2 + 23857*z*w + 9371*w^2",
        "30054*x^2 + 9689*x*y + 31881*x*z + 26738*x*w + 31944*y^2 + 16510*y*z"
        " + 41*y*w + 29653*z^2 + 15418*z*w + 30233*w^2",
    ],
)


@pytest.mark.parametrize(
    "names,gens,field",
    [
        (VARS, ["x^2", "y^2+z^2"], Q),
        (VARS, ["x^2+y^2", "x*z", "z^2+x*y"], Q),
        (VARS, ["x^2", "y^2+z^2"], PrimeField()),
        (VARS, ["x^2+y^2", "x*z", "z^2+x*y"], PrimeField()),
        (*GENERIC4, PrimeField()),
    ],
    ids=["golden2-q", "golden3-q", "golden2-p", "golden3-p", "generic4-p"],
)
def test_normal_form_table_matches_rref_reduction(names, gens, field):
    """NF of every monomial of degree <= 8, read off the table, equals its
    reduction against the RREF of the ideal's degree piece."""
    ring = ring_from_strings(names, gens, field)
    n = len(names)
    for d in range(9):
        monos = monomials_of_degree(n, d)
        col = {m: k for k, m in enumerate(monos)}
        rows = []
        for g in ring.generators:
            for m in monomials_of_degree(n, d - g.degree()) if d >= g.degree() else []:
                row = [field.of(0)] * len(monos)
                for gm, c in multiply(g, Polynomial(n, field, {m: 1})).terms.items():
                    row[col[gm]] = c
                rows.append(row)
        red, piv = rref(rows, field)
        for k, m in enumerate(monos):
            unit = [field.one() if j == k else field.of(0) for j in range(len(monos))]
            residual = reduce_against(unit, red, piv, field)
            expected = {monos[j]: c for j, c in enumerate(residual) if not field.is_zero(c)}
            nf = ring.normal_form(Polynomial(n, field, {m: field.one()}))
            assert nf.terms == expected
            assert nf_coeff_vector(ring, Polynomial(n, field, {m: field.one()}), d) == [
                residual[col[s]] for s in degree_piece_basis(ring, d)
            ]


def _macaulay_table(ring, d):
    """(standard, nf) of degree d from the RREF of the dense Macaulay matrix
    of I_d: the pivots eliminate the graded-lex largest monomials, and the
    NF of a pivot monomial is -(its row on the non-pivot columns)."""
    f, n = ring.field, ring.nvars
    monos = monomials_of_degree(n, d)
    col = {m: k for k, m in enumerate(monos)}
    rows = []
    for g in ring.generators:
        for m in monomials_of_degree(n, d - g.degree()) if d >= g.degree() else []:
            row = [f.of(0)] * len(monos)
            for gm, c in multiply(g, Polynomial(n, f, {m: 1})).terms.items():
                row[col[gm]] = c
            rows.append(row)
    red, piv = rref(rows, f) if rows else ([], [])
    pivots = set(piv)
    std = [k for k in range(len(monos)) if k not in pivots]
    nf = [None] * len(monos)
    for s, k in enumerate(std):
        nf[k] = ((s, f.one()),)
    for row, c in zip(red, piv):
        nf[c] = tuple((s, f.neg(row[k])) for s, k in enumerate(std) if row[k])
    return [monos[k] for k in std], nf


def _random_ring(seed):
    """A seeded ring in 2 or 3 variables with 1 to 4 sparse generators of
    degree 2 to 4, not always a complete intersection."""
    rnd = random.Random(seed)
    n = rnd.choice([2, 3])
    field = Q if seed % 2 else PrimeField()
    gens = []
    for _ in range(rnd.randint(1, 4)):
        monos = monomials_of_degree(n, rnd.randint(2, 4))
        terms = {m: rnd.randint(-3, 3) for m in rnd.sample(monos, rnd.randint(1, 3))}
        if any(terms.values()):
            gens.append(Polynomial(n, field, terms).to_string(VARS[:n]))
    return VARS[:n], gens, field


# (id, variables, generators, top degree): the reference RREF of the 4-variable
# degree pieces over Q takes about 3 s up to degree 16, so those stop at 12
ORACLE_RINGS = [
    ("golden2", VARS, ["x^2", "y^2+z^2"], 16),
    ("golden3", VARS, ["x^2+y^2", "x*z", "z^2+x*y"], 16),
    ("quintic", VARS, ["x^5", "y^5+z^5"], 16),
    ("not-ci", VARS, ["x^2", "x*y"], 16),
    ("late-gen", VARS, ["x^2", "y^3", "z^5"], 16),
    ("one-var", ["x"], ["x^3"], 16),
    ("artinian", VARS, ["x^2", "y^2", "z^2"], 16),
    ("4var", ["x", "y", "z", "w"], ["x^2+y*z", "z^2+w^2", "x*w"], 12),
]


@pytest.mark.parametrize(
    "names,gens,field,top",
    [pytest.param(names, gens, fld, top, id=f"{key}-{fid}")
     for key, names, gens, top in ORACLE_RINGS
     for fid, fld in (("q", Q), ("p", PrimeField()))]
    + [pytest.param(*GENERIC4, PrimeField(), 12, id="generic4-p")]
    + [pytest.param(*_random_ring(seed), 16, id=f"random{seed}") for seed in range(6)],
)
def test_degree_tables_match_macaulay_rref(names, gens, field, top):
    """Each degree built from the two below it has the standard monomials,
    and every monomial the normal form, that row-reducing the ideal's whole
    degree piece gives."""
    ring = ring_from_strings(names, gens, field)
    for d in range(top + 1):
        standard, nf = _macaulay_table(ring, d)
        assert degree_piece_basis(ring, d) == standard, d
        monos = monomials_of_degree(ring.nvars, d)
        assert [ring._nf_row(m, d) for m in monos] == nf, d


def test_nf_lookup_walks_a_long_chain_without_recursion():
    # every x^k with k >= 3 is off the border of Q[x,y]/(x^2 - y^2), where
    # x^k = x^(k-2) y^2, so NF(x^2500) comes from a chain 2500 degrees deep
    ring = ring_from_strings(["x", "y"], ["x^2 - y^2"], Q)
    assert ring.normal_form(Polynomial(2, Q, {(2500, 0): 1})) == \
        Polynomial(2, Q, {(0, 2500): 1})


def test_degree_table_stores_the_border_only():
    ring = ring_from_strings(*GENERIC4, PrimeField())
    ring.hilbert_coefficients(16)
    assert len(ring._degree_data(16).nf) < len(monomials_of_degree(4, 16)) == 969


def test_one_variable_ring_builds_thousands_of_degrees():
    # each degree of Q[x]/(x^1500) has one monomial, so a window of thousands
    # is allowed; the degrees are built in a loop, not by recursion
    ring = ring_from_strings(["x"], ["x^1500"], Q)
    assert ring.hilbert_coefficients(2500) == [1] * 1500 + [0] * 1001


def test_degree_cache_grows_as_far_as_asked():
    # no cap on the degrees a ring builds: the Hilbert function of a CI
    # matches its prediction far above 16
    ring = ring_from_strings(VARS, ["x^2", "y^2+z^2"], Q)
    assert ring.hilbert_coefficients(40) == ring.ci_hilbert_coefficients(40)


def test_certificate_reaches_top_class_without_cli():
    # H_2(K) of (x^9, y^9) lies in degree 18; its window is 27
    ring = ring_from_strings(["x", "y"], ["x^9", "y^9"], Q)
    K = build_koszul(ring)
    assert certify_complete_intersection(K, cycles_from_generators(K))["pass"]
