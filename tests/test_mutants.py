"""A mutation floor: each construction rule, broken in a copy of src/, makes
the commands fail loudly (mutation analysis: DeMillo, Lipton and Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978).

Each row is one exact-string edit inside one function.  The edit must match
exactly once there and in its module, so a refactor that moves the rule
fails here instead of testing nothing.  It is applied to a copy of src/
under tmp_path, and each command runs on that copy in a subprocess: it must
exit 1 with the named FAIL lines or 2 with the named message, never 0 and
never with a traceback.
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
    # ψ's block dropped from the cone: each level splits off the one below
    pytest.param(
        "conetower.py", "mapping_cone",
        "entries.update(((ct + r, c), p) for (r, c), p in f.component(i - 1).entries.items())",
        "pass", "golden2-p", [["verify-all"]],
        1, ["homology clauses at level 1", "homology clauses at level 2",
            "inclusion vanishes in homology (k=1)"], id="cone-psi"),
]


def _function_source(text: str, name: str) -> str:
    tree = ast.parse(text)
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    return ast.get_source_segment(text, node)


@pytest.mark.parametrize("module, function, rule, mutant, ring, commands, code, expected", MUTANTS)
def test_a_broken_rule_fails_loudly(tmp_path, module, function, rule, mutant, ring, commands,
                                    code, expected):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "koszulator" / module
    text = path.read_text(encoding="utf-8")
    assert _function_source(text, function).count(rule) == 1
    assert text.count(rule) == 1
    path.write_text(text.replace(rule, mutant), encoding="utf-8")
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
