"""The benchmark's workloads: the rings, and the CLI commands run on them.

A workload is a list of commands.  Each command is one `koszulator`
invocation plus the facts its output is checked against (see checks.py).
Only `resolve-4var-fp` depends on the seed: its ring is generated from it.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
RINGS = os.path.join(HERE, "rings")
PRIME = 32003


@dataclass
class Command:
    name: str            # short id, unique in the workload
    ring: str            # path of the ring file
    args: list           # CLI arguments after the subcommand's --ring
    kind: str            # which output checks apply (see checks.check_command)
    out_dir: str = ""    # --out directory, when the command writes files

    def argv(self) -> list:
        return [self.args[0], "--ring", self.ring] + self.args[1:]

    def arg(self, flag: str) -> int:
        """The integer value given to `flag` in this command's arguments."""
        return int(self.args[self.args.index(flag) + 1])


def ring_path(name: str) -> str:
    return os.path.join(RINGS, name + ".ring")


def _det_mod_p(a, p: int) -> int:
    m = [row[:] for row in a]
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return det % p


def generic_ci_ring(seed: int) -> str:
    """Ring text for (l_1^2, l_2^2, l_3^2) over F_p in x, y, z, w, where
    l_i = sum_j A_ij x_j and A is a random 4x4 matrix, invertible mod p,
    drawn from `seed`.

    It is the coordinate change x -> A x applied to x^2, y^2, z^2, so the
    generators always form a complete intersection.
    """
    p = PRIME
    names = ["x", "y", "z", "w"]
    nvars = len(names)
    rng = random.Random(seed)
    while True:
        a = [[rng.randrange(p) for _ in range(nvars)] for _ in range(nvars)]
        if _det_mod_p(a, p):
            break
    lines = [f"# (l_1^2, l_2^2, l_3^2) for a random invertible A mod {p}, seed {seed}",
             f"field prime {p}", "vars " + ",".join(names)]
    for row in a[:3]:
        terms = []
        for i in range(nvars):
            for j in range(i, nvars):
                c = row[i] * row[j] * (1 if i == j else 2) % p
                if not c:
                    continue
                mono = f"{names[i]}^2" if i == j else f"{names[i]}*{names[j]}"
                terms.append(f"{c}*{mono}")
        lines.append("gen " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def resolve_q():
    cmds = []
    for ring, imax in (("golden2-q", 16), ("quintic2-q", 6)):
        cmds.append(Command(f"resolve-{ring}", ring_path(ring),
                            ["resolve", "--imax", str(imax), "--verify-all", "--betti"],
                            "resolve"))
    return cmds


def resolve_4var_fp(work: str, seed: int):
    path = os.path.join(work, "ring-4var.ring")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(generic_ci_ring(seed))
    out = os.path.join(work, "out-4var")
    return [Command("resolve-4var", path,
                    ["resolve", "--imax", "6", "--verify-all", "--betti", "--out", out],
                    "resolve", out_dir=out)]


def cli_session(work: str):
    cmds = []
    for ring in ("golden2-q", "golden3-q", "golden2-p", "golden3-p"):
        path = ring_path(ring)
        out = os.path.join(work, f"verify-{ring}")
        cmds += [
            Command(f"cycles-{ring}", path, ["cycles"], "cycles"),
            Command(f"zeta-json-{ring}", path, ["zeta", "--k", "2", "--out", "json"], "zeta-json"),
            Command(f"zeta-hom-{ring}", path, ["zeta", "--k", "2", "--homology-level"],
                    "zeta-hom"),
            Command(f"tower-{ring}", path, ["tower", "--levels", "3"], "tower"),
            Command(f"divided-{ring}", path, ["divided", "--k", "3", "--compare-zeta"], "passes"),
            Command(f"export-{ring}", path,
                    ["export-map", "--complex", "resolution", "--index", "4"], "export"),
            Command(f"verify-all-{ring}", path, ["verify-all", "--out", out], "verify-all",
                    out_dir=out),
        ]
    return cmds


WORKLOADS = ("resolve-q", "resolve-4var-fp", "cli-session")


def build(name: str, work: str, seed: int):
    """The commands of workload `name`; generated inputs go under `work`."""
    if name == "resolve-q":
        return resolve_q()
    if name == "resolve-4var-fp":
        return resolve_4var_fp(work, seed)
    if name == "cli-session":
        return cli_session(work)
    raise ValueError(f"unknown workload {name!r}")
