"""A mutation floor: each construction rule, broken in a copy of src/, makes
the commands fail loudly (mutation analysis: DeMillo, Lipton and Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978).

Each row is one exact-string edit inside one function.  The edit must match
exactly once there and in its module, so a refactor that moves the rule
fails here instead of testing nothing.  It is applied to a copy of src/
under tmp_path, and each command runs on that copy in a subprocess: it must
exit 1 with the named FAIL lines or 2 with the named message, never 0 and
never with a traceback.

A verifier's rules have a floor too (`VERIFIER_MUTANTS`): a broken verifier
rule gives a silent pass, not a failure.  Each row is an exact-once edit
and the one tier-1 test, its negative control, that must fail on it; only
that test runs, on the mutated copy, in a subprocess.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RINGS = ROOT / "bench" / "rings"

# (module, function, rule, mutant, ring, commands, exit code, expected): for
# exit 2, expected matches the whole stderr; for exit 1, it names exactly the
# verdict lines that FAIL, besides "overall", and stderr is empty
MUTANTS = [
    # the tuple twist Σ deg z_{w_t} read as |w|: the ζ and F entries then sit
    # at twist gaps their degrees do not match, which `GradedMap` refuses
    pytest.param(
        "koszul.py", "tuple_sum_gens", "i + sum(Z.degrees[t - 1] for t in w)", "i + len(w)",
        "golden3-q", [["verify-all"], ["resolve", "--imax", "6", "--verify-all"], ["zeta", "--k", "1"]],
        2, r"input error: entry \(\d+,\d+\) = .+ is not a nonzero form of degree -?\d+\n",
        id="tuple-twist"),
    # the cone's −∂_C made +∂_C: the next level's ψ is no longer a chain map
    pytest.param(
        "conetower.py", "mapping_cone",
        "{(r, c): -p for (r, c), p in C.differential(i - 1).entries.items()}",
        "{(r, c): p for (r, c), p in C.differential(i - 1).entries.items()}",
        "golden2-p", [["verify-all"], ["tower", "--levels", "2", "--verify"]],
        2, r"input error: not a chain map at homological degree 4\n", id="cone-sign"),
    # the same edit with the top level verified: M^1's cone carries ∂² = 0
    # from its parts, so the theorem first checks M^1 against K, whose copies
    # Q's block no longer is
    pytest.param(
        "conetower.py", "mapping_cone",
        "{(r, c): -p for (r, c), p in C.differential(i - 1).entries.items()}",
        "{(r, c): p for (r, c), p in C.differential(i - 1).entries.items()}",
        "golden3-q", [["tower", "--levels", "1", "--verify"]],
        2, r"input error: quotient is not a sum of copies of K at homological degree 3\n",
        id="cone-sign-top"),
    # ψ's block dropped from the cone: each level splits off the one below,
    # and the top level is no longer F
    pytest.param(
        "conetower.py", "mapping_cone",
        "entries.update(((ct + r, c), p) for (r, c), p in f.component(i - 1).entries.items())",
        "pass", "golden2-p", [["verify-all"]],
        1, ["homology clauses at level 1", "homology clauses at level 2",
            "inclusion vanishes in homology (k=1)", "resolution equals stabilized tower level"],
        id="cone-psi"),
    # K's ∂ without its sign (−1)^t: ∂² ≠ 0 from K_2 on
    pytest.param(
        "koszul.py", "KoszulComplex.column", "-x if t % 2 else x", "x",
        "golden2-p", [["verify-all"]],
        2, r"input error: differential does not square to zero at 2\n", id="koszul-sign"),
    # e_i ∧ e_S always +e_{i∪S}: z ∧ e_S no longer commutes with ∂, so ζ is
    # no chain map
    pytest.param(
        "koszul.py", "wedge_sign", "return (-1) ** below, merged", "return 1, merged",
        "golden2-p", [["verify-all"]],
        2, r"input error: not a chain map at homological degree 2\n", id="wedge-sign"),
    # e_S ∧ e_T without the parity of |out|: the DG product breaks Leibniz
    pytest.param(
        "koszul.py", "merge_wedge", "sign *= -s if len(out) % 2 else s", "sign *= s",
        "golden2-p", [["verify-all"]], 1, ["graded Leibniz rule"], id="merge-parity"),
    # the divided-power multiplicity C(a + b, a) taken as 1
    pytest.param(
        "koszul.py", "dg_product_basis", "mult *= math.comb(ca[val] + cb[val], ca[val])",
        "mult *= 1", "golden2-p", [["verify-all"]], 1, ["graded Leibniz rule"],
        id="divided-multiplicity"),
    # ζ drops each copy of a repeated j, not only its first
    pytest.param(
        "koszul.py", "zeta_terms", "if j not in w[:pos]:", "if True:",
        "golden2-p", [["verify-all"]], 1, ["graded Leibniz rule", "mu equals zeta"],
        id="zeta-repeats"),
    # ζ negated wherever it is read: F still resolves k, but μ, built by
    # contraction, is the ζ of the paper
    pytest.param(
        "koszul.py", "zeta_terms", "yield (v, T), p", "yield (v, T), -p",
        "golden2-p", [["verify-all"]], 1, ["mu equals zeta"], id="zeta-sign"),
    # F's column rule without ζ: F is a sum of copies of K, not exact, and
    # not the tower's top level
    pytest.param(
        "resolution.py", "assemble_f",
        "lambda lab: itertools.chain(K.column(lab), zeta_terms(Z, *lab))", "K.column",
        "golden2-p", [["verify-all"]], 1,
        ["resolution equals stabilized tower level", "resolution minimal and exact"],
        id="zeta-dropped"),
    # ζ negated in F's column rule only: F is still a minimal resolution,
    # isomorphic to the paper's, but no longer the tower's top level
    pytest.param(
        "resolution.py", "assemble_f",
        "lambda lab: itertools.chain(K.column(lab), zeta_terms(Z, *lab))",
        "lambda lab: itertools.chain(K.column(lab), ((t, -p) for t, p in zeta_terms(Z, *lab)))",
        "golden3-q", [["verify-all"]], 1, ["resolution equals stabilized tower level"],
        id="f-zeta-sign"),
    # ζ drops every j from w: its terms land on labels that are no generators
    pytest.param(
        "koszul.py", "zeta_terms", "v = w[:pos] + w[pos + 1:]",
        "v = tuple(x for x in w if x != j)", "golden2-p", [["verify-all"]],
        2, r"input error: the column of .+ has a term at .+, which is not a target generator\n",
        id="zeta-label"),
]


# (module, function, rule, mutant, control): the control is a test node id
VERIFIER_MUTANTS = [
    # the first candidate is kept whatever it leaves: z on (x² + yz, xy + z²),
    # leaving (x², xy), which is not Artinian, and the check still passes
    pytest.param(
        "resolution.py", "_artinian_cut", "Rb.ci_hilbert_coefficients(s + 1) else None",
        "Rb.ci_hilbert_coefficients(s + 1) or True else None",
        "tests/test_resolution.py::test_the_cut_leaves_an_artinian_ring", id="premise-dropped"),
    # Tor_1(k, R̄) expected to vanish: golden2's H_1(F̄)_1 = 1 then fails
    pytest.param(
        "resolution.py", "verify_minimal_and_exact", "!= math.comb(m, i) * (d == i)", "!= 0",
        "tests/test_resolution.py::test_reduction_by_a_variable_is_used", id="tor-dropped"),
    # one extra class in F̄ let through
    pytest.param(
        "resolution.py", "verify_minimal_and_exact",
        "Fb.strand_homology_dim(i, d) != math.comb(m, i) * (d == i)",
        "Fb.strand_homology_dim(i, d) > math.comb(m, i) * (d == i) + 1",
        "tests/test_resolution.py::test_one_extra_class_in_the_cut_fails", id="c-loosened"),
    # W one short: F̄'s top strands are never ranked
    pytest.param(
        "resolution.py", "exactness_window", "default=0)", "default=0) - 1",
        "tests/test_resolution.py::test_certified_in_every_degree[quintic2-q]", id="window-short"),
    # (b) dropped: a class of H_1(F) that the cut hides passes
    pytest.param(
        "resolution.py", "verify_minimal_and_exact",
        "bad = {(i, i + 1) for i in range(1, min(m, i_max)) "
        "if F.strand_homology_dim(i, i + 1)}", "bad = set()",
        "tests/test_resolution.py::test_a_class_the_cut_hides_fails_by_b", id="b-dropped"),
    # mod p ranks trusted where ∂² = 0 is not known: ∂_1 = 1, ∂_2 = 5 looks
    # exact mod 5
    pytest.param(
        "complexes.py", "ChainComplex.strand_homology_dim", "if square and self._mod_p and",
        "if self._mod_p and",
        "tests/test_complexes.py::test_a_non_square_complex_gets_neither_ceiling_nor_modular_path"
        "[carried]", id="modular-unguarded"),
    # every cone claims ∂² = 0, whatever its parts carry
    pytest.param(
        "conetower.py", "mapping_cone",
        "None if None in defects else sorted({i + 1 for i in defects[0]} | set(defects[1]))",
        "[]", "tests/test_conetower.py::test_a_cone_carries_its_parts_defect",
        id="cone-claims-square"),
    # the theorem ranks a level it has not checked against the one below
    pytest.param(
        "conetower.py", "verify_homology_theorem", "_copies_of_k(Mk1, Mk, tower[0])", "None",
        "tests/test_conetower.py::test_the_theorem_refuses_a_level_that_is_no_extension_by"
        "_copies_of_k[1]", id="theorem-unguarded"),
    # a group passes when any of its checks does
    pytest.param(
        "koszul.py", "verdict", 'all(ch["pass"] for ch in checks)',
        'any(ch["pass"] for ch in checks)',
        "tests/test_resolution.py::test_one_extra_class_in_the_cut_fails", id="verdict-any"),
    # the splitting's (0, 0) corner taken on trust: K into the acyclic cone
    # of its identity induces 0 on every strand, the residue field included
    pytest.param(
        "conetower.py", "verify_splitting",
        "corner_iso = C.strand_homology_dim(0, 0) == D.strand_homology_dim(0, 0) "
        "== ranks[(0, 0)] == 1", "corner_iso = True",
        "tests/test_conetower.py::test_splitting_fails_when_the_corner_is_no_isomorphism",
        id="corner-trusted"),
    # wedge classes never tested for independence: z_1 ∧ z_1 = 0 passes
    pytest.param(
        "koszul.py", "_wedge_classes_independent",
        "if not all(_independent_mod_boundaries(K, elems, u, d)",
        "if False and not all(_independent_mod_boundaries(K, elems, u, d)",
        "tests/test_koszul.py::test_certification_rejects_a_repeated_cycle",
        id="wedge-independence-dropped"),
    # every comparison passes: (x², xy)'s H_1 of dimension 3 included
    pytest.param(
        "koszul.py", "compare", "actual == expected", "True",
        "tests/test_koszul.py::test_certification_rejects_non_complete_intersection",
        id="compare-true"),
    # W unguarded: with no cut, F's strands are ranked in R up to W, where
    # dim R_d may pass the quotient limit
    pytest.param(
        "resolution.py", "exactness_window", "Rb.window(", "(",
        "tests/test_cli.py::test_partial_window_passes_the_quotient_limit[limit-80]",
        id="w-unguarded"),
    # a window taken on the CI prediction alone: (a³, a²b, …, a²f) is let
    # past its degree 4 and refused later, by the certificate
    pytest.param(
        "polyring.py", "GradedQuotientRing.window", "if self.dim_quotient(d) != dim:",
        "if False:", "tests/test_cli.py::test_ring_leaving_the_prediction_exits_2",
        id="window-uncompared"),
    # F's ranks compared with themselves, not with the series
    pytest.param(
        "resolution.py", "verify_minimal_and_exact",
        "poincare_coefficients(R.nvars, R.codepth, i_max)", "betti_numbers(F)",
        "tests/test_resolution.py::test_betti_numbers_off_the_series_fail", id="betti-unchecked"),
    # a partial pass printed as a pass
    pytest.param(
        "cli.py", "_verdict", "'partial' if partial else 'pass'", "'pass'",
        "tests/test_cli.py::test_no_regular_linear_form_is_partial[resolve]", id="partial-hidden"),
]


def _mutated_src(tmp_path, module, function, rule, mutant):
    """A copy of src/ under tmp_path with `rule` made `mutant`, once."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "koszulator" / module
    text = path.read_text(encoding="utf-8")
    assert _function_source(text, function).count(rule) == 1
    assert text.count(rule) == 1
    path.write_text(text.replace(rule, mutant), encoding="utf-8")
    return src


def _function_source(text: str, name: str) -> str:
    """The source of the function or method (Class.method) `name`."""
    nodes = ast.parse(text).body
    for part in name.split("."):
        node = next(n for n in nodes
                    if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part)
        nodes = node.body
    return ast.get_source_segment(text, node)


@pytest.mark.parametrize("module, function, rule, mutant, ring, commands, code, expected", MUTANTS)
def test_a_broken_rule_fails_loudly(tmp_path, module, function, rule, mutant, ring, commands,
                                    code, expected):
    src = _mutated_src(tmp_path, module, function, rule, mutant)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "koszulator.cli", argv[0], "--ring", str(RINGS / f"{ring}.ring"),
             *argv[1:]],
            capture_output=True, env=env, text=True, timeout=120)
        assert proc.returncode == code, (argv, proc.returncode, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
        if code == 2:
            assert re.fullmatch(expected, proc.stderr), (argv, proc.stderr)
        else:
            failed = re.findall(r"^(.+): FAIL$", proc.stdout, re.MULTILINE)
            assert (failed, proc.stderr) == ([*expected, "overall"], ""), argv


@pytest.mark.parametrize("module, function, rule, mutant, control", VERIFIER_MUTANTS)
def test_a_broken_verifier_rule_fails_its_control(tmp_path, module, function, rule, mutant,
                                                  control):
    src = _mutated_src(tmp_path, module, function, rule, mutant)
    # plugins add a second to each start and the controls use none
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", control],
        capture_output=True, cwd=ROOT, env=env, text=True, timeout=120)
    assert proc.returncode == 1 and "1 failed" in proc.stdout, proc.stdout[-2000:]
