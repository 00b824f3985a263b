"""Negative controls for the benchmark's output checks.

    python3 -m pytest -q bench/test_checks.py      (from the source root)

A real `resolve` output is made once; each test corrupts one thing in a
copy and asserts that the checks reject it.  The untouched output must pass,
so a check that rejects everything is caught as well.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import Command, generic_ci_ring, ring_path  # noqa: E402

IMAX = 5


def _run_cli(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("KOSZULATOR_THREADS", None)
    return subprocess.run([sys.executable, "-m", "koszulator.cli"] + argv, env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def resolved(tmp_path_factory):
    """(command, stdout, ring) for a clean resolve of the codepth-3 ring over F_p."""
    out = str(tmp_path_factory.mktemp("clean") / "out")
    path = ring_path("golden3-p")
    cmd = Command("resolve", path, ["resolve", "--imax", str(IMAX), "--verify-all",
                                    "--betti", "--max-d", "8", "--out", out],
                  "resolve", out_dir=out)
    proc = _run_cli(cmd.argv())
    assert proc.returncode == 0, proc.stderr
    return cmd, proc.stdout, checks.Ring(path)


@pytest.fixture
def copy(resolved, tmp_path):
    """A private copy of the clean output that a test may corrupt."""
    cmd, stdout, ring = resolved
    out = str(tmp_path / "out")
    shutil.copytree(cmd.out_dir, out)
    mine = Command(cmd.name, cmd.ring, cmd.args, cmd.kind, out_dir=out)
    return mine, stdout, ring


def test_clean_output_passes(copy):
    cmd, stdout, ring = copy
    checks.check_command(cmd, 0, stdout, ring)


def test_changed_entry_in_dF_is_rejected(copy):
    cmd, stdout, ring = copy
    path = os.path.join(cmd.out_dir, "dF_3.json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    r, c, entry = data["entries"][0]
    data["entries"][0] = [r, c, f"2*{entry}" if not entry.startswith("-") else entry[1:]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    with pytest.raises(checks.CheckError, match=r"dF_[23] dF_[34] entry"):
        checks.check_command(cmd, 0, stdout, ring)


def test_unit_entry_in_dF_is_rejected(copy):
    cmd, stdout, ring = copy
    path = os.path.join(cmd.out_dir, "dF_2.json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data["entries"][0][2] += " + 1"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    with pytest.raises(checks.CheckError, match="constant term"):
        checks.check_command(cmd, 0, stdout, ring)


def test_wrong_betti_number_is_rejected(copy):
    cmd, stdout, ring = copy
    line = next(l for l in stdout.splitlines() if l.startswith("betti:"))
    nums = line.split()[1:]
    nums[3] = str(int(nums[3]) + 1)
    bad = stdout.replace(line, "betti: " + " ".join(nums))
    with pytest.raises(checks.CheckError, match="Betti numbers"):
        checks.check_command(cmd, 0, bad, ring)
    csv = os.path.join(cmd.out_dir, "betti.csv")
    with open(csv, encoding="utf-8") as fh:
        text = fh.read()
    with open(csv, "w", encoding="utf-8") as fh:
        fh.write(text.replace("\n2,6\n", "\n2,7\n"))
    with pytest.raises(checks.CheckError, match="Betti numbers"):
        checks.check_command(cmd, 0, stdout, ring)


def test_flipped_pass_line_is_rejected(copy):
    cmd, stdout, ring = copy
    bad = stdout.replace("minimality and exactness: pass", "minimality and exactness: FAIL")
    assert bad != stdout
    with pytest.raises(checks.CheckError, match="FAIL"):
        checks.check_command(cmd, 0, bad, ring)


def test_nonzero_exit_is_rejected(copy):
    cmd, stdout, ring = copy
    with pytest.raises(checks.CheckError, match="exit code 1"):
        checks.check_command(cmd, 1, stdout, ring)


def test_cycle_that_is_not_a_cycle_is_rejected():
    ring = checks.Ring(ring_path("golden2-q"))
    good = ("z_1 (degree 2): [x, 0, 0]\nz_2 (degree 2): [0, y, z]\n"
            "complete intersection certificate: pass\n")
    checks.check_cycles(good, ring)
    with pytest.raises(checks.CheckError, match="not a cycle"):
        checks.check_cycles(good.replace("[0, y, z]", "[0, y, 2*z]"), ring)


def test_ring_dependent_homology_level_output_is_rejected():
    checks.check_ring_independent([(2, "a"), (2, "a"), (3, "b")])
    with pytest.raises(checks.CheckError, match="codepth-2"):
        checks.check_ring_independent([(2, "a"), (2, "a2"), (3, "b")])


def test_series_match_hand_values():
    # (1+t)^3 / (1-t^2)^2 and (1-t^2)^2 / (1-t)^3 = (1+t)^2 / (1-t)
    assert checks.betti_series(3, 2, 5) == [1, 3, 5, 7, 9, 11]
    assert checks.hilbert_series([2, 2], 3, 5) == [1, 3, 4, 4, 4, 4]


def test_generated_ring_is_a_seeded_complete_intersection(tmp_path):
    text = generic_ci_ring(7)
    assert text == generic_ci_ring(7) and text != generic_ci_ring(8)
    path = tmp_path / "r.ring"
    path.write_text(text)
    ring = checks.Ring(str(path))
    assert (ring.n, ring.codepth, ring.degrees) == (4, 3, [2, 2, 2])
    # three quadrics form a complete intersection exactly when the quotient
    # has the Hilbert series (1+t)^3 / (1-t)
    assert checks.hilbert_series(ring.degrees, 4, 6) == [1, 4, 7, 8, 8, 8, 8]
    assert ring.quotient_dims(6) == [1, 4, 7, 8, 8, 8, 8]
