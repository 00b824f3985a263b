"""`resolve --out` trees pinned byte for byte.

`tests/golden/resolve-<ring>/` holds the stdout and the whole `--out` tree
(`dF_i.{json,txt,svg}`, `betti.csv`, `report.json`) of

    koszulator resolve --ring bench/rings/<ring>.ring --imax 5 --verify-all --betti --out out

run from an empty directory.  A change that only makes the program faster
or smaller must leave every one of these bytes as they are.
"""

from pathlib import Path

import pytest

from koszulator import cli

GOLDEN = Path(__file__).parent / "golden"
RINGS = Path(__file__).parent.parent / "bench" / "rings"


@pytest.mark.parametrize("name", ["golden3-q", "golden2-p"])
def test_resolve_out_tree_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["resolve", "--ring", str(RINGS / f"{name}.ring"), "--imax", "5",
            "--verify-all", "--betti", "--out", "out"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    golden = GOLDEN / f"resolve-{name}"
    assert out == (golden / "stdout").read_text()
    assert err == ""
    written = sorted(p.name for p in Path("out").iterdir())
    assert written == sorted(p.name for p in (golden / "out").iterdir())
    assert len(written) == 17  # dF_1..5 in three formats, betti.csv, report.json
    for fname in written:
        assert (Path("out") / fname).read_bytes() == (golden / "out" / fname).read_bytes(), fname


# `tests/golden/<name>.stdout` holds the stdout of one command each, both
# printing `render.matrix_strings` grids, generated before that function
# was last changed
GRIDS = {
    "zeta-golden3-q-k2": ("golden3-q", ["zeta", "--k", "2", "--out", "json"]),
    "export-map-golden2-p-dF3-text": ("golden2-p", ["export-map", "--complex", "resolution",
                                                    "--index", "3", "--format", "text"]),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_dense_grid_stdout_matches_golden(name, capsys):
    ring, (command, *args) = GRIDS[name]
    assert cli.main([command, "--ring", str(RINGS / f"{ring}.ring"), *args]) == 0
    out, err = capsys.readouterr()
    assert out == (GOLDEN / f"{name}.stdout").read_text()
    assert err == ""
