import json
import os
import subprocess
import sys

import pytest

from koszulator.cli import _window, main
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
    assert main(["tower", "--ring", ring2_file, "--levels", "1", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "M^0 ranks" in out
    assert "homology clauses at level 1: pass" in out


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


def test_resolve_explicit_window_above_16(ring3_file, tmp_path, capsys):
    # a window above the default 16 runs in full
    out_dir = tmp_path / "out"
    assert main(["resolve", "--ring", ring3_file, "--imax", "4", "--verify-all",
                 "--max-d", "20", "--out", str(out_dir)]) == 0
    assert "minimality and exactness: pass" in capsys.readouterr().out
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    checks = report["minimal_and_exact"]["checks"]
    assert any("internal degrees ≤ 20" in ch["check"] for ch in checks)


def test_resolve_artinian_window_of_200_runs(ring3_file, tmp_path, capsys):
    # R = 0 above degree 3, so the quotient limit refuses no window
    out_dir = tmp_path / "out"
    assert main(["resolve", "--ring", ring3_file, "--imax", "4", "--verify-all",
                 "--max-d", "200", "--out", str(out_dir)]) == 0
    assert "minimality and exactness: pass" in capsys.readouterr().out
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    checks = report["minimal_and_exact"]["checks"]
    assert any("internal degrees ≤ 200" in ch["check"] and ch["pass"] for ch in checks)


@pytest.mark.parametrize("argv", [
    ["resolve", "--imax", "4", "--verify-all", "--max-d", "-1"],
    ["tower", "--levels", "1", "--verify", "--max-d", "-1"],
    ["verify-all", "--max-d", "-1"],
    ["resolve", "--imax", "0", "--verify-all"],
    ["verify-all", "--imax", "0"],
    ["resolve", "--imax", "-1", "--betti"],
    ["zeta", "--k", "-1"],
    ["divided", "--k", "-1"],
    ["tower", "--levels", "-1"],
    ["export-map", "--complex", "koszul", "--index", "9"],
    ["export-map", "--complex", "zeta", "--index", "0"],
])
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
    ["resolve", "--imax", "1", "--verify-all"],
    ["verify-all", "--imax", "1"],
])
def test_exactness_over_an_empty_range_exits_2(ring2_file, capsys, argv):
    # exactness is checked at 1 <= i < i_max: i_max = 1 would pass vacuously
    assert main([argv[0], "--ring", ring2_file] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "input error: --imax 1: exactness at 1 ≤ i < i_max needs i_max ≥ 2" in err


def test_resolve_imax_1_without_verification(ring2_file, capsys):
    assert main(["resolve", "--ring", ring2_file, "--imax", "1", "--betti"]) == 0
    assert "betti:    1    3" in capsys.readouterr().out


@pytest.mark.parametrize("prime,code", [(3037000493, 0), (4294967311, 2)])
def test_resolve_near_the_prime_bound(tmp_path, capsys, prime, code):
    path = tmp_path / "big.ring"
    path.write_text(RING3.replace("32003", str(prime)))
    assert main(["resolve", "--ring", str(path), "--imax", "4", "--verify-all"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert "minimality and exactness: pass" in out
    else:
        assert "input error" in err and "too large" in err


def test_divided_command(ring3_file, capsys):
    assert main(["divided", "--ring", ring3_file, "--k", "2",
                 "--compare-zeta"]) == 0
    out = capsys.readouterr().out
    assert "mu equals zeta (k <= 2): pass" in out


def test_verify_all_command(ring2_file, tmp_path, capsys):
    out_dir = tmp_path / "report"
    assert main(["verify-all", "--ring", ring2_file, "--imax", "6",
                 "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    report = json.loads(out_dir.joinpath("report.json").read_text())
    assert report["pass"]


def test_export_map_round_trip(ring2_file, capsys):
    assert main(["export-map", "--ring", ring2_file, "--complex", "resolution",
                 "--imax", "4", "--index", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"sourceLabels", "targetLabels", "entries"}
    assert len(payload["targetLabels"]) == 5 and len(payload["sourceLabels"]) == 7
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


def test_cli_import_leaves_numpy_out(ring3_file, tmp_path):
    run = ("import sys, io, contextlib, koszulator.cli as cli\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    rc = cli.main(sys.argv[1:])\n"
           "print(rc, 'numpy' in sys.modules)")
    quintic = os.path.join(os.path.dirname(__file__), "..", "bench", "rings", "quintic2-q.ring")
    runs = [
        ["-c", "import sys, koszulator.cli; print('numpy' in sys.modules)"],
        # the golden codepth-3 strands over F_32003 are small and sparse, so
        # the whole suite runs without the dense elimination
        ["-c", run, "verify-all", "--ring", ring3_file, "--out", str(tmp_path / "va")],
        # a ℚ ring's exactness certificate ranks its strands mod p sparsely
        ["-c", run, "resolve", "--ring", quintic, "--imax", "6", "--verify-all", "--betti"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    outs = [subprocess.run([sys.executable, *argv], env=env, check=True,
                           capture_output=True, text=True).stdout.strip()
            for argv in runs]
    assert outs == ["False", "0 False", "0 False"]


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
    # dim R_14 = 5440 on ℚ[a..f]/(a²), but a window ≤ 16 is never refused,
    # and plain resolve uses no window at all
    path = tmp_path / "hyp.ring"
    path.write_text("field rational\nvars a,b,c,d,e,f\ngen a^2\n")
    assert main(["resolve", "--ring", str(path), "--imax", "4", "--betti"]) == 0
    assert "betti:" in capsys.readouterr().out
    ring = load_ring_file(str(path))
    assert _window(ring, 16) == 16
    assert len(ring._degrees) == 1  # decided without building a degree


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
        _window(ring, 21, certified=False)
    assert len(ring._degrees) == 5  # nothing above degree 4


@pytest.mark.parametrize("argv", [
    ["resolve", "--imax", "4", "--verify-all"],
    ["verify-all"],
    ["tower", "--levels", "1", "--verify"],
], ids=["resolve", "verify-all", "tower"])
def test_window_above_the_largest_exits_2(ring3_file, capsys, argv):
    # an Artinian ring passes the quotient limit at every degree, but the
    # checks walk each degree of a window: none above max(5000, Σ deg) runs
    assert main([argv[0], "--ring", ring3_file, *argv[1:], "--max-d", "1000000000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert ("input error: degree window 1000000000 is above 5000, the largest "
            "accepted: max(5000, the sum of the generator degrees)") in err
    assert main([argv[0], "--ring", ring3_file, *argv[1:], "--max-d", "5000"]) == 0
