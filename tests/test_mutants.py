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
GOLDEN3_Q = str(ROOT / "bench" / "rings" / "golden3-q.ring")

MUTANTS = [
    # the tuple twist Σ deg z_{w_t} read as |w|: the ζ and F entries then sit
    # at twist gaps their degrees do not match, which `GradedMap` refuses
    pytest.param(
        "koszul.py", "tuple_sum_gens", "i + sum(Z.degrees[t - 1] for t in w)", "i + len(w)",
        [["verify-all"], ["resolve", "--imax", "6", "--verify-all"], ["zeta", "--k", "1"]],
        2, r"input error: entry \(\d+,\d+\) = .+ is not a nonzero form of degree -?\d+\n",
        id="tuple-twist"),
]


def _function_source(text: str, name: str) -> str:
    tree = ast.parse(text)
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    return ast.get_source_segment(text, node)


@pytest.mark.parametrize("module, function, rule, mutant, commands, code, message", MUTANTS)
def test_a_broken_rule_fails_loudly(tmp_path, module, function, rule, mutant, commands,
                                    code, message):
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
            [sys.executable, "-m", "koszulator.cli", argv[0], "--ring", GOLDEN3_Q, *argv[1:]],
            capture_output=True, env=env, text=True, timeout=120)
        assert proc.returncode == code, (argv, proc.returncode, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
        assert re.fullmatch(message, proc.stderr), (argv, proc.stderr)
