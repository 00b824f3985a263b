import csv
import gc
import io
import json
import os
import runpy
import subprocess
import sys
import weakref

import pytest

from koszulator.cli import main
from koszulator.polyring import RingError, load_ring_file

RING2 = """field rational
vars x,y,z
gen x^2
gen y^2+z^2
"""

RING3 = """field prime 32003
vars x,y,z
gen x^2+y^2
gen x*z
gen z^2+x*y
"""


# over 𝔽₂ the sextic x·y·z·(x + y)(x + z)(y + z) is divisible by every
# linear form, so the exactness certificate finds no cut
SEXTIC_F2 = ("field prime 2\nvars x,y,z\ngen x^3*y^2*z + x^3*y*z^2 + x^2*y^3*z"
             " + x^2*y*z^3 + x*y^3*z^2 + x*y^2*z^3\n")


@pytest.fixture
def ring2_file(tmp_path):
    path = tmp_path / "ex2.ring"
    path.write_text(RING2)
    return str(path)


@pytest.fixture
def ring3_file(tmp_path):
    path = tmp_path / "ex3.ring"
    path.write_text(RING3)
    return str(path)


def test_cycles_command(ring2_file, capsys):
    assert main(["cycles", "--ring", ring2_file]) == 0
    out = capsys.readouterr().out
    assert "z_1 (degree 2): [x, 0, 0]" in out
    assert "z_2 (degree 2): [0, y, z]" in out
    assert "certificate: pass" in out


def test_cycles_with_override_file(ring2_file, tmp_path, capsys):
    z = tmp_path / "z.txt"
    z.write_text("x, 0, 0\n0, y, z\n")
    assert main(["cycles", "--ring", ring2_file, "--z", str(z)]) == 0
    bad = tmp_path / "bad.txt"
    # not a cycle; a row longer than the variables; a row shorter
    for text in ("x, 0, 0\n0, y, 0\n", "x, 0, 0, y\n0, y, z\n", "x\n0, y, z\n"):
        bad.write_text(text)
        assert main(["cycles", "--ring", ring2_file, "--z", str(bad)]) == 2


def test_not_a_cycle_names_the_boundary_in_the_ring_variables(tmp_path, capsys):
    ring = tmp_path / "ex2p.ring"
    ring.write_text(RING2.replace("rational", "prime 32003"))
    z = tmp_path / "z.txt"
    z.write_text("x,0,0\n0,y,0\n")
    assert main(["cycles", "--ring", str(ring), "--z", str(z)]) == 2
    err = capsys.readouterr().err
    assert "∂₁z_2 = -z^2" in err
    assert "Polynomial(" not in err


@pytest.mark.parametrize("text", ["x, 0, 0\n-y, x, 0\n", "x, 0, 0\nx, 0, 0\n"],
                         ids=["boundary", "repeated"])
def test_cycles_dependent_modulo_boundaries_exit_2(ring2_file, tmp_path, capsys, text):
    # -y e_1 + x e_2 is the boundary of e_12
    z = tmp_path / "z.txt"
    z.write_text(text)
    assert main(["cycles", "--ring", ring2_file, "--z", str(z)]) == 2
    assert "dependent modulo boundaries" in capsys.readouterr().err


def test_zeta_command_json(ring2_file, capsys):
    assert main(["zeta", "--ring", ring2_file, "--k", "0", "--out", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["zeta_1^0"] == [["x", "0"], ["0", "y"], ["0", "z"]]
    assert payload["zeta_3^0"] == [["0", "0", "x", "z", "-y", "0"]]


def test_zeta_homology_level(ring2_file, capsys):
    assert main(
        ["zeta", "--ring", ring2_file, "--k", "0", "--homology-level",
         "--out", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["zeta_1^0"] == [[1, 0], [0, 1]]


def test_tower_command(ring2_file, capsys):
    # rank M^j_i = Σ_{l ≤ j} C(3, i − 2l)·(l + 1), then one verdict per level
    assert main(["tower", "--ring", ring2_file, "--levels", "2", "--verify"]) == 0
    assert capsys.readouterr().out == (
        "M^0 ranks: [1, 3, 3, 1]\n"
        "M^1 ranks: [1, 3, 5, 7, 6, 2]\n"
        "M^2 ranks: [1, 3, 5, 7, 9, 11, 9, 3]\n"
        "homology clauses at level 1: pass\n"
        "homology clauses at level 2: pass\n")


def test_resolve_writes_output_tree(ring2_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        ["resolve", "--ring", ring2_file, "--imax", "5", "--betti",
         "--verify-all", "--out", str(out_dir)]
    )
    assert code == 0
    names = {p.name for p in out_dir.iterdir()}
    assert "betti.csv" in names and "report.json" in names
    for i in range(1, 6):
        for ext in ("json", "txt", "svg"):
            assert f"dF_{i}.{ext}" in names
    assert out_dir.joinpath("betti.csv").read_text().splitlines()[:3] == [
        "i,betti", "0,1", "1,3",
    ]
    report = json.loads(out_dir.joinpath("report.json").read_text())
    assert report["pass"] and report["betti"] == [1, 3, 5, 7, 9, 11]


def test_resolve_deterministic_output(ring3_file, tmp_path):
    dirs = []
    for name in ("a", "b"):
        d = tmp_path / name
        assert main(
            ["resolve", "--ring", ring3_file, "--imax", "4", "--out", str(d)]
        ) == 0
        dirs.append(d)
    for p in sorted(dirs[0].iterdir()):
        assert p.read_bytes() == (dirs[1] / p.name).read_bytes()


def _exactness_record(out_dir):
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    return report["minimal_and_exact"]["checks"][2]


def test_resolve_explicit_window_above_16(ring3_file, tmp_path, capsys):
    # --max-d is accepted and ignored: the check covers every internal
    # degree through the window it derives, whatever window is asked for
    records = []
    for max_d in ("20", "0"):
        out_dir = tmp_path / max_d
        assert main(["resolve", "--ring", ring3_file, "--imax", "4", "--verify-all",
                     "--max-d", max_d, "--out", str(out_dir)]) == 0
        assert "minimality and exactness: pass" in capsys.readouterr().out
        records.append(_exactness_record(out_dir))
    assert records[0] == records[1]
    assert records[0]["check"] == "exact in homological degrees 1..3, every internal degree"


def test_resolve_artinian_window_of_200_runs(ring3_file, tmp_path, capsys, strand_builds):
    # R = 0 above degree s = 3 and F_1..F_3 have twists ≤ 3, so no window
    # such as 200 is walked: no strand above W = 6 is built, of F or of K
    out_dir = tmp_path / "out"
    assert main(["resolve", "--ring", ring3_file, "--imax", "4", "--verify-all",
                 "--max-d", "200", "--out", str(out_dir)]) == 0
    assert "minimality and exactness: pass" in capsys.readouterr().out
    record = _exactness_record(out_dir)
    assert (record["cut"], record["window"], record["partial"]) == ([], 6, False)
    assert max(d for _, d, _ in strand_builds) == 6


def test_no_regular_variable_is_cut_by_a_linear_form(tmp_path, capsys):
    # ℚ[x,y]/(xy): cutting either variable kills the generator, y ↦ x
    # leaves ℚ[x]/(x²); F_5's twist is 5 and s = 1
    path = tmp_path / "xy.ring"
    path.write_text("field rational\nvars x,y\ngen x*y\n")
    assert main(["resolve", "--ring", str(path), "--imax", "6", "--verify-all",
                 "--out", str(tmp_path / "out")]) == 0
    assert "minimality and exactness: pass" in capsys.readouterr().out
    record = _exactness_record(tmp_path / "out")
    assert record["check"] == "exact in homological degrees 1..5, every internal degree"
    assert (record["cut"], record["window"], record["partial"]) == (["y ↦ x"], 6, False)


@pytest.mark.parametrize("command, line", [
    (["resolve", "--imax", "6", "--verify-all"], "minimality and exactness: partial"),
    (["verify-all", "--imax", "6"], "overall: partial"),
], ids=["resolve", "verify-all"])
def test_no_regular_linear_form_is_partial(tmp_path, capsys, command, line):
    # over 𝔽₂ each linear form x, y, x + y divides x²y + xy², so no cut
    # exists: F's own strands are checked up to W = 7 + 2, and the run
    # passes, saying partial
    path = tmp_path / "cubic.ring"
    path.write_text("field prime 2\nvars x,y\ngen x^2*y+x*y^2\n")
    assert main([command[0], "--ring", str(path), *command[1:], "--out",
                 str(tmp_path / "out")]) == 0
    assert line in capsys.readouterr().out.splitlines()
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    group = report.get("minimal_and_exact") or report["checks"]["resolution minimal and exact"]
    record = group["checks"][2]
    assert record["check"] == "exact in homological degrees 1..5, internal degrees ≤ 9"
    assert (record["cut"], record["window"], record["partial"], group["pass"]) == (
        None, 9, True, True)


@pytest.mark.parametrize("limit, code, line", [
    (80, 2, ""),
    (None, 0, "minimality and exactness: partial\n"),
], ids=["limit-80", "default-limit"])
def test_partial_window_passes_the_quotient_limit(tmp_path, capsys, monkeypatch, limit, code,
                                                  line):
    # no cut exists for the sextic, so F's own strands are ranked up to
    # W = 18 in R, whose dim R_15 is 81: W goes through the ring's window
    # guard like every other window, here with the limit lowered to 80
    from koszulator import polyring

    if limit:
        monkeypatch.setattr(polyring, "MAX_QUOTIENT_DIM", limit)
    path = tmp_path / "sextic.ring"
    path.write_text(SEXTIC_F2)
    assert main(["resolve", "--ring", str(path), "--imax", "6", "--verify-all"]) == code
    out, err = capsys.readouterr()
    assert out == line
    assert err == ("input error: degree window 18 reaches degree 15, where dim R_15 is "
                   "predicted to be 81, more than 80\n" if code else "")


def test_verify_all_guards_the_exactness_window_first(tmp_path, capsys, monkeypatch):
    # the sextic at --imax 7: W = 23 reaches dim R_19 = 105, past the
    # limit 100, while the tower's window 18 stays within it (dim R_18 = 99);
    # W is refused before the certificate line and any level is ranked
    from koszulator import polyring

    monkeypatch.setattr(polyring, "MAX_QUOTIENT_DIM", 100)
    path = tmp_path / "sextic.ring"
    path.write_text(SEXTIC_F2)
    assert main(["verify-all", "--ring", str(path), "--imax", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no homology clauses line, nor the certificate's
    assert err == ("input error: degree window 23 reaches degree 19, where dim R_19 is "
                   "predicted to be 105, more than 100\n")


@pytest.mark.parametrize("argv", [
    ["resolve", "--imax", "4", "--verify-all", "--max-d", "-1"],
    ["resolve", "--imax", "0", "--verify-all"],
    ["verify-all", "--imax", "0"],
    ["resolve", "--imax", "-1", "--betti"],
    ["zeta", "--k", "-1"],
    ["divided", "--k", "-1"],
    ["tower", "--levels", "-1"],
    ["export-map", "--complex", "koszul", "--index", "9"],
    ["export-map", "--complex", "zeta", "--index", "0"],
], ids=[f"argv{i}" for i in (0, *range(3, 11))])  # each case keeps its id as others go
def test_out_of_range_argument_exits_2(ring3_file, capsys, argv):
    try:
        code = main([argv[0], "--ring", ring3_file] + argv[1:])
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err


@pytest.mark.parametrize("argv", [
    ["tower", "--levels", "1", "--verify", "--max-d", "7"],
    ["verify-all", "--imax", "4", "--max-d", "0"],
    ["export-map", "--complex", "resolution", "--index", "3", "--imax", "4"],
], ids=["tower", "verify-all", "export-map"])
def test_derived_options_are_not_accepted(ring3_file, capsys, argv):
    # the tower and verify-all windows follow from the generator degrees,
    # and an exported ∂_i needs F only up to i, so none of these is an option
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--ring", ring3_file, *argv[1:]])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["resolve", "--imax", "1", "--verify-all"],
    ["verify-all", "--imax", "1"],
])
def test_exactness_over_an_empty_range_exits_2(ring2_file, capsys, argv):
    # exactness is checked at 1 <= i < i_max: i_max = 1 would pass vacuously
    assert main([argv[0], "--ring", ring2_file] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "input error: --imax 1: exactness at 1 ≤ i < i_max needs i_max ≥ 2" in err


def test_tower_verify_without_levels_exits_2(ring2_file, capsys):
    # the homology clauses are checked at levels 1..--levels: --levels 0
    # would claim a verification that never ran
    assert main(["tower", "--ring", ring2_file, "--levels", "0", "--verify"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert ("input error: --levels 0: --verify checks the homology clauses at levels "
            "1 ≤ k ≤ levels, which needs levels ≥ 1") in err
    assert main(["tower", "--ring", ring2_file, "--levels", "0"]) == 0
    assert capsys.readouterr().out == "M^0 ranks: [1, 3, 3, 1]\n"


def test_resolve_imax_1_without_verification(ring2_file, capsys):
    assert main(["resolve", "--ring", ring2_file, "--imax", "1", "--betti"]) == 0
    assert "betti:    1    3" in capsys.readouterr().out


@pytest.mark.parametrize("prime,code", [(3037000493, 0), (4294967311, 0),
                                        (3317044064679887385961981, 2)])
def test_resolve_near_the_prime_bound(tmp_path, capsys, prime, code):
    path = tmp_path / "big.ring"
    path.write_text(RING3.replace("32003", str(prime)))
    assert main(["resolve", "--ring", str(path), "--imax", "4", "--verify-all"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert "minimality and exactness: pass" in out
    else:
        assert "input error" in err and "too large" in err
        assert "primality is proven only below" in err and "Traceback" not in err


def test_divided_command(ring3_file, capsys):
    assert main(["divided", "--ring", ring3_file, "--k", "2",
                 "--compare-zeta"]) == 0
    assert capsys.readouterr().out == (
        "mu^1 square-zero: pass\n"
        "mu^2 square-zero: pass\n"
        "mu equals zeta (k <= 2): pass\n"
        "acyclic-closure differential squares to zero: pass\n")


def test_verify_all_command(ring2_file, tmp_path, capsys):
    out_dir = tmp_path / "report"
    assert main(["verify-all", "--ring", ring2_file, "--imax", "6",
                 "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    report = json.loads(out_dir.joinpath("report.json").read_text())
    assert report["pass"]


def test_verify_all_releases_each_group_before_the_next(monkeypatch, capsys):
    # the ζ maps die once their last check is recorded, the cone tower once
    # F is compared with it, and F after the Leibniz rule: each is gone, with
    # no garbage collection, when the next group starts
    from koszulator import conetower, dividedpowers, resolution, zetamaps

    built = {"zeta": [], "tower": [], "F": []}
    alive_at = {}

    def keeping(module, name, kind=None, dead=None):
        original = getattr(module, name)

        def wrapper(*args):
            if dead:
                alive_at[name] = sum(ref() is not None for ref in built[dead])
            out = original(*args)
            if kind:  # a tower is a list of levels: its top level dies with it
                built[kind].append(weakref.ref(out[-1] if isinstance(out, list) else out))
            return out

        monkeypatch.setattr(module, name, wrapper)

    keeping(zetamaps, "build_zeta", kind="zeta")
    keeping(conetower, "build_tower", kind="tower", dead="zeta")
    keeping(resolution, "assemble_f", kind="F")
    keeping(resolution, "verify_minimal_and_exact", dead="tower")
    keeping(dividedpowers, "verify_mu_equals_zeta", dead="F")
    ring = os.path.join(os.path.dirname(__file__), "..", "bench", "rings", "golden3-p.ring")
    gc.disable()
    try:
        assert main(["verify-all", "--ring", ring]) == 0
    finally:
        gc.enable()
    assert "overall: pass" in capsys.readouterr().out
    assert [len(built[kind]) for kind in ("zeta", "tower", "F")] == [3, 1, 1]
    assert alive_at == {"build_tower": 0, "verify_minimal_and_exact": 0,
                        "verify_mu_equals_zeta": 0}


def test_export_map_round_trip(ring2_file, capsys):
    args = ["export-map", "--ring", ring2_file, "--complex", "resolution",
            "--index", "3", "--format"]
    assert main([*args, "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"sourceLabels", "targetLabels", "entries"}
    assert len(payload["targetLabels"]) == 5 and len(payload["sourceLabels"]) == 7
    # the CSV export holds the same entries, one row each, in the same order
    assert main([*args, "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == ["row", "col", "entry"]
    assert [[int(r), int(c), e] for r, c, e in rows] == payload["entries"]
    assert main(["export-map", "--ring", ring2_file, "--complex", "koszul",
                 "--index", "1", "--format", "text"]) == 0
    assert capsys.readouterr().out.strip() == "x  y  z"


def test_malformed_ring_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ring"
    path.write_text("field rational\nvars x,y\ngen x^2+*y\n")
    assert main(["cycles", "--ring", str(path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "position" in err


@pytest.mark.parametrize("text,line", [
    ("field rational\nvars x,y\ngen x^2\nfield prime 5\ngen y^2\n", "line 4: repeated 'field' line"),
    ("field rational\nvars x,y\n# swap\nvars y,x\ngen x^2\ngen y^3\n", "line 4: repeated 'vars' line"),
], ids=["field", "vars"])
def test_repeated_directive_exits_2(tmp_path, capsys, text, line):
    path = tmp_path / "twice.ring"
    path.write_text(text)
    assert main(["cycles", "--ring", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"input error: {line}" in err


@pytest.mark.parametrize("names,bad", [("x, y z", "y z"), ("x, 2y", "2y")],
                         ids=["space", "digit-first"])
@pytest.mark.parametrize("command", [
    ["cycles"],
    ["export-map", "--complex", "koszul", "--index", "2", "--format", "text"],
], ids=["cycles", "export-map"])
def test_unreadable_variable_name_exits_2(tmp_path, capsys, names, bad, command):
    # the polynomial parser can never read such a name, so the ring used to
    # load and print entries like '-y z'
    path = tmp_path / "names.ring"
    path.write_text(f"field prime 32003\nvars {names}\ngen x^2\n")
    assert main([command[0], "--ring", str(path), *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"input error: line 2: variable name {bad!r} must be a letter "
                   "or '_' followed by letters, digits or '_'\n")


@pytest.mark.parametrize("text,message", [
    ("field rational\nvars x, x, y\ngen x^2\n", "line 2: variable name 'x' is repeated"),
    ("field prime 7\nvars x,y\ngen x^2\ngen 7*y^2\n", "line 4: zero ideal generator"),
    ("field rational\nvars x,y\n\ngen x^2+y\n",
     "line 4: ideal generator 'x^2 + y' is not homogeneous"),
    ("field rational\nvars x,y\ngen x^2\ngen y\n",
     "line 4: ideal generators must have degree >= 2"),
    ("vars x,y\ngen x^2\n", "missing 'field' line"),
    ("field rational\ngen x^2\n", "missing 'vars' line"),
    ("field rational\nvars x,y\nideal x^2\n", "line 3: unrecognized directive 'ideal'"),
    ("field rational\nvars x,y\ngen x^\n", "line 3: expected a number (at position 2)"),
    ("field rational\nvars x,y\ngen x^2 y^2\n",
     "line 3: expected '+' or '-', got 'y' (at position 4)"),
    ("field rational\nvars x,y\ngen 1/0*x^2\n", "line 3: zero denominator (at position 2)"),
    ("field rational\nvars x,y\ngen x^2*-y^2\n",
     "line 3: expected a variable after '*' (at position 4)"),
    ("field rational\nvars x,y\ngen x^²+y^2\n", "line 3: expected a number (at position 2)"),
    # numeric characters that are not digits: a name of them would print
    # entries like [½, 0], or [0, ²], which reads as a square
    ("field rational\nvars ½,y\ngen ½^2\ngen y^2\n",
     "line 2: variable name '½' must be a letter or '_' followed by letters, digits or '_'"),
    ("field rational\nvars x,²\ngen x^2\ngen ²^2\n",
     "line 2: variable name '²' must be a letter or '_' followed by letters, digits or '_'"),
], ids=["repeated-name", "zero", "inhomogeneous", "linear", "no-field", "no-vars",
        "unknown-directive", "missing-exponent", "missing-operator", "zero-denominator",
        "dangling-star", "superscript-exponent", "fraction-name", "superscript-name"])
def test_ring_errors_name_their_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ring"
    path.write_text(text, encoding="utf-8")
    assert main(["cycles", "--ring", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {message}\n"


def test_bad_z_coordinate_names_its_line(ring2_file, tmp_path, capsys):
    z = tmp_path / "z.txt"
    z.write_text("x, 0, 0\n\n0,y,0,\n")
    assert main(["cycles", "--ring", ring2_file, "--z", str(z)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: line 3, coordinate 4: empty input (at position 0)\n"


def test_dangling_star_in_a_z_coordinate_names_its_line(ring2_file, tmp_path, capsys):
    # 'x*' used to be read as x
    z = tmp_path / "z.txt"
    z.write_text("x, 0, 0\n0, x*, 0\n")
    assert main(["cycles", "--ring", ring2_file, "--z", str(z)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("input error: line 2, coordinate 2: expected a variable after '*' "
                   "(at position 2)\n")


def test_missing_ring_file_exits_2(capsys):
    assert main(["cycles", "--ring", "/nonexistent.ring"]) == 2


def test_ring_without_generators_exits_2(tmp_path, capsys):
    path = tmp_path / "nogen.ring"
    path.write_text("field rational\nvars x,y\n")
    assert main(["cycles", "--ring", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: missing 'gen' lines: the ideal needs at least one generator\n"


def test_inhomogeneous_generator_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ring"
    path.write_text("field rational\nvars x,y\ngen x^2+y\n")
    assert main(["cycles", "--ring", str(path)]) == 2


@pytest.mark.parametrize("command", [
    ["resolve", "--imax", "6", "--betti"],
    ["tower", "--levels", "2"],
    ["zeta", "--k", "1"],
], ids=["resolve", "tower", "zeta"])
def test_non_complete_intersection_exits_2(tmp_path, capsys, command):
    # (x^2, xy) is not a CI: its Hilbert series is not the CI prediction
    path = tmp_path / "nonci.ring"
    path.write_text("field rational\nvars x,y,z\ngen x^2\ngen x*y\n")
    assert main([command[0], "--ring", str(path)] + command[1:]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "input error: not a complete intersection" in err


def test_verify_all_quintic_passes(tmp_path, capsys):
    # the level-2 clauses need degrees up to 5+5+2*5 = 20, above the
    # default window 16 of an explicit --max-d
    path = tmp_path / "quintic.ring"
    path.write_text("field prime 32003\nvars x,y,z\ngen x^5\ngen y^5+z^5\n")
    assert main(["verify-all", "--ring", str(path), "--imax", "4"]) == 0
    out = capsys.readouterr().out
    assert "homology clauses at level 2: pass" in out
    assert "overall: pass" in out


@pytest.mark.parametrize("argv", [
    # 27 kB, more than stdout's buffer: a write fails while the command runs
    ["export-map", "--complex", "resolution", "--index", "12"],
    # a few lines, still buffered when the command returns
    ["cycles"],
], ids=["export-map", "cycles"])
def test_closed_stdout_exits_141_with_nothing_on_stderr(argv):
    # stdout is a pipe whose reader has gone, as after `| head -1`, so every
    # write to it raises BrokenPipeError; stdout is block-buffered
    ring = os.path.join(os.path.dirname(__file__), "..", "bench", "rings", "golden3-q.ring")
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "koszulator.cli", argv[0], "--ring", ring, *argv[1:]],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_cli_import_leaves_numpy_out(ring3_file, tmp_path):
    run = ("import sys, io, contextlib, koszulator.cli as cli\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    rc = cli.main(sys.argv[1:])\n"
           "print(rc, 'numpy' in sys.modules)")
    bench = os.path.join(os.path.dirname(__file__), "..", "bench")
    quintic = os.path.join(bench, "rings", "quintic2-q.ring")
    generic_ci_ring = runpy.run_path(os.path.join(bench, "workloads.py"))["generic_ci_ring"]
    generic = tmp_path / "generic4-seed1.ring"
    generic.write_text(generic_ci_ring(1))
    runs = [
        ["-c", "import sys, koszulator.cli; print('numpy' in sys.modules)"],
        ["-c", run, "verify-all", "--ring", ring3_file, "--out", str(tmp_path / "va")],
        ["-c", run, "resolve", "--ring", quintic, "--imax", "6", "--verify-all", "--betti"],
        # large strands over F_32003, which fill in densely, are eliminated
        # sparsely too
        ["-c", run, "resolve", "--ring", str(generic), "--imax", "6", "--verify-all", "--betti"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    outs = [subprocess.run([sys.executable, *argv], env=env, check=True,
                           capture_output=True, text=True).stdout.strip()
            for argv in runs]
    assert outs == ["False", "0 False", "0 False", "0 False"]


LOAD_PROBE = """
import contextlib, io, json, sys
import koszulator
import koszulator.cli as cli

names = sorted(k for k in sys.modules if k.startswith("koszulator."))
on_package = all(isinstance(object.__getattribute__(koszulator, n.split(".")[1]),
                            type(koszulator)) for n in names)
calls = []
if sys.argv[1:2] == ["resolve"]:
    # replace a function after import, as bench/tracer.py does
    assemble_f = sys.modules["koszulator.resolution"].assemble_f

    def counted(*args):
        calls.append(args)
        return assemble_f(*args)

    sys.modules["koszulator.resolution"].assemble_f = counted
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:]) if sys.argv[1:] else None
# a module's own __dict__, read without triggering a deferred load, holds
# __builtins__ once its code has run
executed = sorted(n.split(".")[1] for n in names
                  if "__builtins__" in object.__getattribute__(sys.modules[n], "__dict__"))
rational = [m for m in ("decimal", "fractions") if m in sys.modules]
print(json.dumps([rc, names, on_package, executed, len(calls), rational]))
"""

ALL_MODULES = ["cli", "complexes", "conetower", "dividedpowers", "fields", "koszul",
               "linalg", "polynomial", "polyring", "render", "resolution", "zetamaps"]
EAGER = ["cli", "complexes", "fields", "koszul", "linalg", "polynomial", "polyring"]


@pytest.mark.parametrize("argv,deferred_run,assemble_calls", [
    ([], [], 0),
    (["cycles"], [], 0),
    (["tower", "--levels", "1"], ["conetower", "zetamaps"], 0),
    (["resolve", "--imax", "4", "--verify-all"], ["resolution"], 1),
    (["verify-all", "--imax", "2"],
     ["conetower", "dividedpowers", "resolution", "zetamaps"], 0),
], ids=["import", "cycles", "tower", "resolve", "verify-all"])
def test_each_command_runs_only_the_modules_it_calls(argv, deferred_run, assemble_calls):
    # every module is registered at import, so a tracer that replaces
    # functions on the modules in sys.modules still sees every call, but
    # the deferred ones are compiled and run only by the commands that use
    # them; no scalar is a non-integral rational, so `fractions` (and the
    # `decimal` it imports) is never loaded
    rc, names, on_package, executed, calls, rational = _probe(argv, "golden2-p.ring")
    assert rc == (0 if argv else None)
    assert names == [f"koszulator.{m}" for m in ALL_MODULES] and on_package
    assert executed == sorted(EAGER + deferred_run)
    assert calls == assemble_calls
    assert rational == []


def _probe(argv, ring):
    """LOAD_PROBE's findings after `koszulator argv` on ring, a file name in
    bench/rings or an absolute path."""
    ring = os.path.join(os.path.dirname(__file__), "..", "bench", "rings", ring)
    argv = argv[:1] + ["--ring", ring] + argv[1:] if argv else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", LOAD_PROBE, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


RUN_PROBE = """
import contextlib, importlib.util, io, json, sys
import koszulator.cli as cli

with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
# a deferred module stays a _LazyModule until its code has run
print(json.dumps([rc, sorted(n.split(".")[1] for n, m in sys.modules.items()
                             if n.startswith("koszulator.")
                             and type(m) is not importlib.util._LazyModule)]))
"""


# the README's "modules run" table (section Start-up), one row per command
# and option that changes it; every command runs EAGER too
@pytest.mark.parametrize("argv,deferred_run", [
    (["cycles"], []),
    (["zeta", "--k", "1"], ["render", "zetamaps"]),
    (["zeta", "--k", "1", "--homology-level"], ["zetamaps"]),
    (["tower", "--levels", "2", "--verify"], ["conetower", "zetamaps"]),
    (["resolve", "--imax", "6", "--verify-all", "--betti"], ["resolution"]),
    (["resolve", "--imax", "4", "--out", "OUT"], ["render", "resolution"]),
    (["divided", "--k", "2", "--compare-zeta"], ["dividedpowers"]),
    (["verify-all", "--imax", "4"], ["conetower", "dividedpowers", "resolution", "zetamaps"]),
    (["export-map", "--complex", "koszul", "--index", "2"], ["render"]),
    (["export-map", "--complex", "zeta", "--index", "2", "--k", "1"], ["render", "zetamaps"]),
    (["export-map", "--complex", "resolution", "--index", "3"], ["render", "resolution"]),
], ids=["cycles", "zeta", "zeta-homology-level", "tower", "resolve", "resolve-out", "divided",
        "verify-all", "export-map-koszul", "export-map-zeta", "export-map-resolution"])
def test_modules_run_match_the_readme_table(tmp_path, argv, deferred_run):
    ring = os.path.join(os.path.dirname(__file__), "..", "bench", "rings", "golden3-q.ring")
    argv = [argv[0], "--ring", ring] + [str(tmp_path) if a == "OUT" else a for a in argv[1:]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", RUN_PROBE, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == [0, sorted(EAGER + deferred_run)]


@pytest.mark.parametrize("gens,rational", [
    ("gen x^2\ngen y^2+z^2\n", []),
    ("gen x^2\ngen y^2+1/2*z^2\n", ["decimal", "fractions"]),
], ids=["integral", "half"])
def test_fractions_is_imported_only_for_a_non_integral_rational(tmp_path, gens, rational):
    # over ℚ a ring with integer coefficients and unit pivots forms no
    # non-integral rational; a `/` coefficient does
    path = tmp_path / "r.ring"
    path.write_text("field rational\nvars x,y,z\n" + gens)
    argv = ["resolve", "--imax", "4", "--verify-all"]
    rc, *_, loaded = _probe(argv, str(path))
    assert rc == 0 and loaded == rational


@pytest.mark.parametrize("vars_,gens", [
    ("x,y,z", ["x^6", "y^6", "z^6"]),
    ("x,y", ["x^9", "y^9"]),
], ids=["x6y6z6", "x9y9"])
def test_resolve_ci_beyond_default_truncation(tmp_path, capsys, vars_, gens):
    # the top class H_c(K) lies in degree Σ deg > 16, so the certificate
    # window Σ deg + max deg reaches above the default window 16
    path = tmp_path / "high.ring"
    path.write_text(f"field rational\nvars {vars_}\n" + "".join(f"gen {g}\n" for g in gens))
    assert main(["resolve", "--ring", str(path), "--imax", "3", "--betti"]) == 0
    assert "betti:" in capsys.readouterr().out


def test_window_beyond_quotient_limit_exits_2(tmp_path, capsys):
    # six degree-10 generators in 6 variables: the certificate window is
    # degree 70, and R_12 already has dimension 6062
    path = tmp_path / "huge.ring"
    path.write_text("field rational\nvars a,b,c,d,e,f\n"
                    + "".join(f"gen {v}^10\n" for v in "abcdef"))
    assert main(["resolve", "--ring", str(path), "--imax", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert ("input error: degree window 70 reaches degree 12, where dim R_12 "
            "is predicted to be 6062, more than 5000") in err


def test_cycles_on_six_cubes(tmp_path, capsys):
    # dim R = 729 in all, but degree 21 of the certificate window has 65780
    # monomials: only the border of each degree is built
    path = tmp_path / "cubes.ring"
    path.write_text("field prime 32003\nvars a,b,c,d,e,f\n"
                    + "".join(f"gen {v}^3\n" for v in "abcdef"))
    assert main(["cycles", "--ring", str(path)]) == 0
    assert "complete intersection certificate: pass" in capsys.readouterr().out


def test_default_window_on_a_six_variable_hypersurface(tmp_path, capsys):
    # dim R_14 = 5440 on ℚ[a..f]/(a²), so a window of 16, once the default,
    # is refused; exactness cuts f..b and works over ℚ[a]/(a²) up to W = 4
    path = tmp_path / "hyp.ring"
    path.write_text("field rational\nvars a,b,c,d,e,f\ngen a^2\n")
    assert main(["resolve", "--ring", str(path), "--imax", "4", "--verify-all",
                 "--out", str(tmp_path / "out")]) == 0
    assert "minimality and exactness: pass" in capsys.readouterr().out
    record = _exactness_record(tmp_path / "out")
    assert record["cut"] == [f"{v} ↦ 0" for v in "fedcb"] and record["window"] == 4
    ring = load_ring_file(str(path))
    with pytest.raises(RingError, match="where dim R_14 is predicted to be 5440"):
        ring.window(16)


def test_ring_leaving_the_prediction_exits_2(tmp_path, capsys):
    # (a³, a²b, …, a²f) = a²·(a, …, f) is no CI: its prediction stays below
    # 141 over the certificate window 21, but the true dim R_21 is about
    # 23 000, so the degrees are built in turn and checked against it
    path = tmp_path / "notci.ring"
    path.write_text("field rational\nvars a,b,c,d,e,f\ngen a^3\n"
                    + "".join(f"gen a^2*{v}\n" for v in "bcdef"))
    assert main(["cycles", "--ring", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert ("input error: not a complete intersection: dim R_4 is 105, "
            "not the predicted 90") in err
    ring = load_ring_file(str(path))
    with pytest.raises(RingError):
        ring.window(21)
    assert len(ring._degrees) == 5  # nothing above degree 4


@pytest.mark.parametrize("argv", [
    ["resolve", "--imax", "4", "--verify-all"],
], ids=["resolve"])
def test_window_above_the_largest_exits_2(ring3_file, capsys, monkeypatch, argv):
    # an Artinian ring passes the quotient limit at every degree, but the
    # checks walk each degree of a window: none above max(5000, Σ deg) runs,
    # the certificate's at load included
    from koszulator import cli

    monkeypatch.setattr(cli, "degree_window", lambda ring, k: 10 ** 9)
    assert main([argv[0], "--ring", ring3_file, *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert ("input error: degree window 1000000000 is above 5000, the largest "
            "accepted: max(5000, the sum of the generator degrees)") in err
    monkeypatch.setattr(cli, "degree_window", lambda ring, k: 5000)
    assert main([argv[0], "--ring", ring3_file, *argv[1:]]) == 0


@pytest.mark.parametrize("argv", [
    ["verify-all"],
    ["tower", "--levels", "2", "--verify"],
], ids=["verify-all", "tower"])
def test_derived_window_above_the_largest_exits_2(ring3_file, capsys, monkeypatch, argv):
    # a level's derived window goes through the ring's window guard, as the
    # certificate's does, before any level is built; the certificate's window
    # stays as it is
    from koszulator import cli

    derived = cli.degree_window
    monkeypatch.setattr(cli, "degree_window",
                        lambda ring, k: derived(ring, k) if k < 2 else 10 ** 9)
    assert main([argv[0], "--ring", ring3_file, *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert ("input error: degree window 1000000000 is above 5000, the largest "
            "accepted: max(5000, the sum of the generator degrees)") in err
