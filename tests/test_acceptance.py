"""Acceptance suite: one test per criterion, one pass/fail line each."""

import math
import random

from koszulator.complexes import ComplexError, GradedMap
from koszulator.fields import RationalField
from koszulator.koszul import CycleBasis, degree_window, hom_degree, tuples
from koszulator.render import matrix_strings, render_blocks
from koszulator.resolution import (
    assemble_f,
    basis_labels,
    betti_numbers,
    poincare_coefficients,
    verify_leibniz,
    verify_minimal_and_exact,
)
from koszulator.zetamaps import (
    ChainMap,
    build_zeta,
    homology_zeta_matrix,
    kernel_preimage,
    spread_zeta,
    verify_exact_sequence,
    verify_zeta_chain,
    verify_zeta_square_zero,
)
from koszulator.conetower import (
    verify_cross_construction,
    verify_homology_theorem,
    verify_splitting,
)
from koszulator.dividedpowers import (
    acyclic_closure_square_zero,
    tuple_to_divided,
    verify_associativity,
    verify_graded_commutativity,
    verify_mu_equals_zeta,
)

import oracles
from oracles import divided_to_tuple, mat_vec, nullspace
from golden_layouts import CODEPTH2_DF, CODEPTH3_DF, golden_grid, layout_grid
from test_zetamaps import ZETA0_CODEPTH2, ZETA0_CODEPTH3

Q = RationalField()
VARS = ["x", "y", "z"]

def conclude(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"[criterion {number:2d}] {status}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def _golden_example(ex, F, zeta_golden, layout_golden, cycles_golden):
    cycles = [[p.to_string(VARS) for p in z] for z in ex.Z.cycles]
    if cycles != cycles_golden:
        return False, f"cycles {cycles}"
    zeta = build_zeta(ex.K, ex.Z, 0)
    for u in (1, 2, 3):
        if matrix_strings(zeta.component(u)) != zeta_golden[u]:
            return False, f"zeta_{u}^0"
    for i in range(1, 7):
        layout = render_blocks(F.differential(i))
        if golden_grid(layout_golden[i], layout.nrows, layout.ncols) != layout_grid(layout):
            return False, f"dF_{i} layout"
    return True, ""


def test_criterion_01_codepth2_goldens(ex2, F2):
    ok, detail = _golden_example(
        ex2, F2, ZETA0_CODEPTH2, CODEPTH2_DF,
        [["x", "0", "0"], ["0", "y", "z"]],
    )
    conclude(1, "codepth-2 golden zeta matrices and block layouts", ok, detail)


def test_criterion_02_codepth3_goldens(ex3, F3):
    ok, detail = _golden_example(
        ex3, F3, ZETA0_CODEPTH3, CODEPTH3_DF,
        [["x", "y", "0"], ["0", "0", "x"], ["0", "x", "z"]],
    )
    conclude(2, "codepth-3 golden zeta matrices and block layouts", ok, detail)


def test_criterion_03_chain_maps_and_composites(both):
    ok, detail = True, ""
    for ex in both:
        zetas = [build_zeta(ex.K, ex.Z, k) for k in range(6)]
        for k in range(5):
            res = verify_zeta_chain(zetas[k], k)
            if not res["pass"]:
                ok, detail = False, f"c={ex.ring.codepth} chain k={k}"
                break
            if k <= 4:
                res = verify_zeta_square_zero(zetas[k], zetas[k + 1], k)
                if not res["pass"]:
                    ok, detail = False, f"c={ex.ring.codepth} composite k={k}"
                    break
    conclude(3, "zeta chain-map identity and vanishing composite, k <= 4", ok, detail)


def test_criterion_04_exact_sequences_and_preimages():
    ok, detail = True, ""
    for c in range(1, 5):
        for k in range(6):
            if not verify_exact_sequence(c, k, Q)["pass"]:
                ok, detail = False, f"(c,k)=({c},{k})"
    for c, k, u in ((2, 2, 1), (3, 3, 2), (4, 2, 2)):
        kill = homology_zeta_matrix(c, k - u, u + 1)
        rows = [[Q.of(x) for x in row] for row in kill]
        back = [[Q.of(x) for x in row]
                for row in homology_zeta_matrix(c, k - u + 1, u)]
        for ker in nullspace(rows, Q, len(kill[0])):
            pre = kernel_preimage(c, k, u, ker, Q)
            if mat_vec(back, pre, Q) != list(ker):
                ok, detail = False, f"preimage (c,k,u)=({c},{k},{u})"
    conclude(4, "homology sequence exactness sweep and kernel preimages", ok, detail)


def test_criterion_05_cone_homology(both, tower2, tower3):
    towers = {2: tower2, 3: tower3}
    ok, detail = True, ""
    for ex in both:
        c = ex.ring.codepth
        tower = towers[c]
        for k in (1, 2):
            if not verify_homology_theorem(tower, k)["pass"]:
                ok, detail = False, f"c={c} level {k}"
        M0 = tower[0]
        totals = [
            sum(M0.strand_homology_dim(i, d) for d in range(degree_window(ex.ring, 0) + 1))
            for i in range(c + 1)
        ]
        if totals != [math.comb(c, i) for i in range(c + 1)]:
            ok, detail = False, f"c={c} H(M^0) dims {totals}"
    conclude(5, "mapping-cone homology clauses, k <= 2, both rings", ok, detail)


def test_criterion_06_inclusions_vanish(both, tower2, tower3):
    towers = {2: tower2, 3: tower3}
    ok, detail = True, ""
    for ex in both:
        c = ex.ring.codepth
        for k in (0, 1):
            res = verify_splitting(towers[c], k)
            if not res["pass"]:
                ok, detail = False, f"c={c} k={k} witnesses {res['witnesses']}"
    conclude(6, "inclusions induce zero in homology, k <= 1", ok, detail)


def test_criterion_07_resolution(F2, F3):
    ok, detail = True, ""
    for F, c in ((F2, 2), (F3, 3)):
        res = verify_minimal_and_exact(F, 16)
        if not res["pass"]:
            ok, detail = False, f"c={c}: {res['checks']}"
        expected = poincare_coefficients(3, c, F.top)
        if betti_numbers(F) != expected:
            ok, detail = False, f"c={c} betti {betti_numbers(F)}"
    # the expanded series coefficients, independently pinned
    if poincare_coefficients(3, 2, 12) != list(range(1, 27, 2)):
        ok, detail = False, "codepth-2 series"
    if poincare_coefficients(3, 3, 10) != [(i + 1) * (i + 2) // 2 for i in range(11)]:
        ok, detail = False, "codepth-3 series"
    conclude(7, "minimal exact resolution with Poincare-series Betti numbers",
             ok, detail)


def test_criterion_08_cross_construction(F2, F3, tower2, tower3):
    ok, detail = True, ""
    for F, tower, c in ((F2, tower2, 2), (F3, tower3, 3)):
        res = verify_cross_construction(F, tower, 2 * len(tower) - 1)
        if not res["pass"]:
            ok, detail = False, f"c={c} witnesses {res['witnesses']}"
    conclude(8, "resolution equals stabilized cone tower label-for-label",
             ok, detail)


def test_criterion_09_dg_structure(F2, F3):
    rng = random.Random(20260826)
    ok, detail = True, ""
    for F in (F2, F3):
        pairs = [
            (a, b)
            for i in range(7)
            for j in range(7 - i)
            for a in basis_labels(F, i)
            for b in basis_labels(F, j)
        ]
        labels = [lab for i in range(F.top + 1) for lab in basis_labels(F, i)]
        higher = []
        while len(higher) < 200:
            a, b = rng.choice(labels), rng.choice(labels)
            if 6 < hom_degree(a) + hom_degree(b) <= F.top:
                higher.append((a, b))
        res = verify_leibniz(F, pairs + higher)
        if not res["pass"]:
            ok, detail = False, f"Leibniz witnesses {res['witnesses'][:3]}"
        comm_pairs, triples = [], []
        while len(comm_pairs) < 100:
            a, b = rng.choice(labels), rng.choice(labels)
            if hom_degree(a) + hom_degree(b) <= F.top:
                comm_pairs.append((a, b))
        while len(triples) < 100:
            a, b, c = (rng.choice(labels) for _ in range(3))
            if hom_degree(a) + hom_degree(b) + hom_degree(c) <= F.top:
                triples.append((a, b, c))
        if not verify_graded_commutativity(F, comm_pairs)["pass"]:
            ok, detail = False, "commutativity"
        if not verify_associativity(F, triples)["pass"]:
            ok, detail = False, "associativity"
    conclude(9, "DG product: Leibniz, commutativity, associativity", ok, detail)


def test_criterion_10_splitting_and_spreading(both):
    ok, detail = True, ""
    for ex in both:
        c = ex.ring.codepth
        zero = oracles.zero(ex.ring)
        zeta0 = build_zeta(ex.K, ex.Z, 0)
        seeds = {}
        for u in range(1, c + 1):
            m = zeta0.component(u)
            seeds[u] = [
                [oracles.entry(m, r, col) for col in range(m.source.rank)]
                for r in range(m.target.rank)
            ]
        for k in range(5):
            zeta = build_zeta(ex.K, ex.Z, k)
            for u in range(1, c + 1):
                m = zeta.component(u)
                dense = [
                    [oracles.entry(m, r, col) for col in range(m.source.rank)]
                    for r in range(m.target.rank)
                ]
                if spread_zeta(seeds[u], c, k, zero) != dense:
                    ok, detail = False, f"c={c} u={u} k={k}"
    conclude(10, "spread-from-seed zeta equals directly built zeta", ok, detail)


def test_criterion_11_divided_powers(both):
    ok, detail = True, ""
    for c in range(1, 5):
        for k in range(7):
            for t in tuples(c, k):
                if divided_to_tuple(tuple_to_divided(t, c)) != t:
                    ok, detail = False, f"round trip c={c} {t}"
    for ex in both:
        res = verify_mu_equals_zeta(ex.K, ex.Z, range(4))
        if not res["pass"]:
            ok, detail = False, f"mu != zeta c={ex.ring.codepth}"
        if not acyclic_closure_square_zero(ex.K, ex.Z, max_k=3)["pass"]:
            ok, detail = False, f"closure differential c={ex.ring.codepth}"
    conclude(11, "divided-power translation and acyclic-closure differential",
             ok, detail)


def test_criterion_12_negative_controls(ex2):
    ring = ex2.ring
    K = ex2.K
    ok, detail = True, ""

    # tamper with one entry of z_1 (homogeneous, so only cycle-ness breaks)
    bad_cycles = [list(z) for z in ex2.Z.cycles]
    bad_cycles[0][1] = bad_cycles[0][1] + ring.variable(1)
    bad_Z = CycleBasis(K, bad_cycles, list(ex2.Z.degrees))
    try:
        build_zeta(K, bad_Z, 0)
        ok, detail = False, "perturbed cycle not detected by chain check"
    except ComplexError as exc:
        if "not a chain map" not in str(exc):
            ok, detail = False, f"unexpected witness {exc}"
    # the resolution differential no longer squares to zero
    try:
        assemble_f(K, bad_Z, 4)
        ok, detail = False, "perturbed cycle accepted by resolution assembly"
    except ComplexError as exc:
        if "square" not in str(exc):
            ok, detail = False, f"unexpected witness {exc}"

    # zero out one block of a zeta component
    zeta = build_zeta(K, ex2.Z, 1)
    comps = {}
    for u in range(1, K.n + 1):
        m = zeta.component(u)
        if u == 2:
            # drop the block of columns wedging against z_1
            entries = {
                (r, col): p for (r, col), p in m.entries.items() if col >= 3
            }
            m = GradedMap(m.source, m.target, entries)
        comps[u] = m
    tampered = ChainMap(zeta.source, zeta.target, comps, check=False)
    witnesses = tampered.chain_defect()
    if not witnesses:
        ok, detail = False, "zeroed zeta block not detected"
    elif 2 not in witnesses:
        # the defect must localize at the tampered component
        ok, detail = False, f"witness degrees {witnesses} miss the tampered block"
    conclude(12, "negative controls produce localized failure witnesses",
             ok, detail)
