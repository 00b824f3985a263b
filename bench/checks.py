"""Output checks for the benchmark, computed apart from the program.

Nothing here imports koszulator.  Ring files are parsed here, polynomial
arithmetic and Groebner bases come from sympy, and the Betti and Hilbert
series are expanded by this module's own code.  Every check raises
CheckError with a message when an output is wrong.
"""

from __future__ import annotations

import json
import math
import os
import re
from fractions import Fraction

from sympy import GF, QQ
from sympy.polys.groebnertools import groebner
from sympy.polys.rings import ring as sparse_ring

PASS_LINE = re.compile(r"^(.*): (pass|FAIL)$")
TERM = re.compile(r"[+-]?[^+-]+")


class CheckError(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- series -------------------------------------------------------------------


def betti_series(n: int, c: int, up_to: int):
    """Coefficients of (1+t)^n / (1-t^2)^c up to t^up_to."""
    out = []
    for i in range(up_to + 1):
        out.append(sum(math.comb(n, i - 2 * k) * math.comb(k + c - 1, c - 1)
                       for k in range(i // 2 + 1) if i - 2 * k <= n))
    return out


def hilbert_series(degrees, n: int, up_to: int):
    """Coefficients of prod_j (1 - t^{d_j}) / (1-t)^n up to t^up_to."""
    num = {0: 1}
    for dj in degrees:
        new = dict(num)
        for e, a in num.items():
            new[e + dj] = new.get(e + dj, 0) - a
        num = new
    return [sum(a * math.comb(d - e + n - 1, n - 1) for e, a in num.items() if e <= d)
            for d in range(up_to + 1)]


# -- rings and polynomials -------------------------------------------------------


class Ring:
    """A ring file read by the benchmark itself, as a sympy sparse ring."""

    def __init__(self, path: str):
        self.prime = None
        self.names = None
        gen_texts = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("field prime "):
                    self.prime = int(line.split()[2])
                elif line.startswith("vars "):
                    self.names = [v.strip() for v in line[5:].split(",")]
                elif line.startswith("gen "):
                    gen_texts.append(line[4:])
        self.domain = GF(self.prime) if self.prime else QQ
        self.R, *_ = sparse_ring(",".join(self.names), self.domain, order="grevlex")
        self.index = {v: i for i, v in enumerate(self.names)}
        self.gens = [self.parse(t) for t in gen_texts]
        self.degrees = [self.degree(g) for g in self.gens]
        self.basis = groebner(self.gens, self.R)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def codepth(self) -> int:
        return len(self.gens)

    def parse(self, text: str):
        """Parse the program's polynomial syntax: '-3/4*x^2*y + z - 5'."""
        terms = {}
        body = text.replace(" ", "")
        require(body, "empty polynomial")
        for term in TERM.findall(body):
            sign = -1 if term[0] == "-" else 1
            coeff = Fraction(sign)
            exps = [0] * self.n
            for factor in term.lstrip("+-").split("*"):
                if factor[0].isdigit():
                    coeff *= Fraction(factor)
                else:
                    name, _, e = factor.partition("^")
                    require(name in self.index, f"unknown variable {name!r} in {text!r}")
                    exps[self.index[name]] += int(e or 1)
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
        dom = self.domain
        return self.R.from_dict({
            m: dom.convert(c.numerator) / dom.convert(c.denominator)
            for m, c in terms.items() if c
        })

    @staticmethod
    def degree(poly) -> int:
        degs = {sum(m) for m in poly.monoms()}
        require(len(degs) == 1, f"{poly} is not homogeneous")
        return degs.pop()

    def in_ideal(self, poly) -> bool:
        return not poly or not poly.rem(self.basis)

    def quotient_dims(self, up_to: int):
        """dim (Q/I)_d for d <= up_to: monomials no Groebner leading term divides."""
        leads = [g.LM for g in self.basis]
        dims = []
        for d in range(up_to + 1):
            monos = [m for m in _monomials(self.n, d)
                     if not any(all(a >= b for a, b in zip(m, lm)) for lm in leads)]
            dims.append(len(monos))
        return dims


def _monomials(n: int, d: int):
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1) for rest in _monomials(n - 1, d - e)]


# -- stdout checks ----------------------------------------------------------------


def check_passes(stdout: str, at_least: int = 1) -> None:
    """Every printed check reads pass, and there are at least `at_least`."""
    lines = [PASS_LINE.match(line) for line in stdout.splitlines()]
    lines = [m for m in lines if m]
    require(len(lines) >= at_least,
            f"expected at least {at_least} check lines, got {len(lines)}")
    failed = [m.group(1) for m in lines if m.group(2) != "pass"]
    require(not failed, f"checks reported FAIL: {failed}")


def printed_betti(stdout: str):
    for line in stdout.splitlines():
        if line.startswith("betti:"):
            return [int(x) for x in line.split()[1:]]
    raise CheckError("no 'betti:' line printed")


def check_betti(betti, ring: Ring, imax: int) -> None:
    want = betti_series(ring.n, ring.codepth, imax)
    require(betti == want, f"Betti numbers {betti}, expected {want}")


def check_cycles(stdout: str, ring: Ring) -> None:
    """z_j has coordinates homogeneous of degree deg g_j - 1, and
    sum_i x_i (z_j)_i lies in the ideal (the cycle condition in K_1 over R)."""
    pat = re.compile(r"^z_(\d+) \(degree (\d+)\): \[(.*)\]$")
    found = [pat.match(line) for line in stdout.splitlines()]
    found = [m for m in found if m]
    require(len(found) == ring.codepth,
            f"{len(found)} cycles printed for codepth {ring.codepth}")
    xs = ring.R.gens
    for m in found:
        j, deg = int(m.group(1)), int(m.group(2))
        require(deg == ring.degrees[j - 1], f"z_{j} has degree {deg}, "
                f"generator degree is {ring.degrees[j - 1]}")
        coords = [ring.parse(t) for t in m.group(3).split(",")]
        require(len(coords) == ring.n, f"z_{j} has {len(coords)} coordinates")
        for p in coords:
            require(not p or ring.degree(p) == deg - 1,
                    f"z_{j} coordinate {p} is not of degree {deg - 1}")
        boundary = sum((x * p for x, p in zip(xs, coords)), ring.R.zero)
        require(ring.in_ideal(boundary), f"z_{j} is not a cycle mod I")
    check_passes(stdout)


def check_tower(stdout: str, ring: Ring, levels: int) -> None:
    """rank M^J_i = sum_j C(n, i-2j) C(j+c-1, c-1) over j <= J."""
    n, c = ring.n, ring.codepth
    pat = re.compile(r"^M\^(\d+) ranks: \[(.*)\]$")
    seen = 0
    for line in stdout.splitlines():
        m = pat.match(line)
        if not m:
            continue
        J = int(m.group(1))
        ranks = [int(x) for x in m.group(2).split(",")]
        want = [sum(math.comb(n, i - 2 * j) * math.comb(j + c - 1, c - 1)
                    for j in range(J + 1) if 0 <= i - 2 * j <= n)
                for i in range(len(ranks))]
        require(ranks == want, f"M^{J} ranks {ranks}, expected {want}")
        seen += 1
    require(seen == levels + 1, f"{seen} tower levels printed, expected {levels + 1}")


def check_zeta_json(stdout: str, ring: Ring, k: int) -> None:
    payload = json.loads(stdout)
    require(sorted(payload) == sorted(f"zeta_{u}^{k}" for u in range(1, ring.n + 1)),
            f"unexpected zeta keys {sorted(payload)}")
    for name, rows in payload.items():
        require(rows and len({len(r) for r in rows}) == 1, f"{name} is not rectangular")
        for row in rows:
            for entry in row:
                p = ring.parse(entry)
                require(not p or ring.degree(p) >= 1, f"{name} has a unit entry {entry}")


# -- exported differentials --------------------------------------------------------


def load_map(text: str, ring: Ring):
    data = json.loads(text)
    entries = {(r, c): ring.parse(s) for r, c, s in data["entries"]}
    src = [lab["twist"] for lab in data["sourceLabels"]]
    tgt = [lab["twist"] for lab in data["targetLabels"]]
    return src, tgt, entries


def check_map_shape(i: int, src, tgt, entries, betti) -> None:
    """dF_i is b_{i-1} x b_i, and no entry has a nonzero constant term."""
    require((len(tgt), len(src)) == (betti[i - 1], betti[i]),
            f"dF_{i} is {len(tgt)}x{len(src)}, expected {betti[i - 1]}x{betti[i]}")
    for (r, c), p in entries.items():
        require(0 <= r < len(tgt) and 0 <= c < len(src), f"dF_{i} entry ({r},{c}) out of range")
        require(not p.coeff(1), f"dF_{i} entry ({r},{c}) = {p} has a constant term")


def check_square_zero(i: int, outer: dict, inner: dict, ring: Ring) -> None:
    """dF_{i-1} dF_i is zero modulo the ideal, entry by entry."""
    by_row = {}
    for (k, c), q in inner.items():
        by_row.setdefault(k, []).append((c, q))
    prod = {}
    for (r, k), p in outer.items():
        for c, q in by_row.get(k, ()):
            prod[(r, c)] = prod.get((r, c), ring.R.zero) + p * q
    for key, p in sorted(prod.items()):
        require(ring.in_ideal(p), f"dF_{i - 1} dF_{i} entry {key} = {p} is not in I")


def check_euler(twists, ring: Ring, imax: int) -> None:
    """sum_i (-1)^i sum_{gens of F_i} H_R(d - twist) = [d = 0] for d <= imax."""
    H = hilbert_series(ring.degrees, ring.n, imax)
    for d in range(imax + 1):
        chi = sum((-1) ** i * sum(H[d - t] for t in ts if t <= d)
                  for i, ts in enumerate(twists))
        require(chi == (1 if d == 0 else 0), f"Euler characteristic {chi} in degree {d}")


def check_resolution_dir(out_dir: str, ring: Ring, imax: int) -> None:
    hilbert = hilbert_series(ring.degrees, ring.n, imax)
    actual = ring.quotient_dims(imax)
    require(actual == hilbert, f"the ring is not a complete intersection: "
            f"Hilbert function {actual}, expected {hilbert}")
    betti = betti_series(ring.n, ring.codepth, imax)
    with open(os.path.join(out_dir, "betti.csv"), encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    check_betti([int(b) for _, b in rows], ring, imax)
    maps = {}
    twists = []
    for i in range(1, imax + 1):
        with open(os.path.join(out_dir, f"dF_{i}.json"), encoding="utf-8") as fh:
            src, tgt, entries = load_map(fh.read(), ring)
        check_map_shape(i, src, tgt, entries, betti)
        if i == 1:
            twists.append(tgt)
        twists.append(src)
        maps[i] = entries
        if i > 1:
            check_square_zero(i, maps[i - 1], entries, ring)
    check_euler(twists, ring, imax)
    check_report(out_dir)


def check_report(out_dir: str) -> None:
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    require(report.get("pass") is True, "report.json does not record a pass")


# -- per command ------------------------------------------------------------------


def check_command(cmd, rc: int, stdout: str, ring: Ring) -> None:
    """All checks that apply to one command's exit code and outputs."""
    require(rc == 0, f"exit code {rc}")
    kind = cmd.kind
    if kind == "resolve":
        check_passes(stdout)
        check_betti(printed_betti(stdout), ring, cmd.arg("--imax"))
        if cmd.out_dir:
            check_resolution_dir(cmd.out_dir, ring, cmd.arg("--imax"))
    elif kind == "cycles":
        check_cycles(stdout, ring)
    elif kind == "zeta-json":
        check_zeta_json(stdout, ring, cmd.arg("--k"))
    elif kind == "zeta-hom":
        require(stdout.startswith("zeta_1^"), "no homology-level matrices printed")
    elif kind == "tower":
        check_tower(stdout, ring, cmd.arg("--levels"))
    elif kind == "passes":
        check_passes(stdout, at_least=2)
    elif kind == "export":
        i = cmd.arg("--index")
        src, tgt, entries = load_map(stdout, ring)
        check_map_shape(i, src, tgt, entries, betti_series(ring.n, ring.codepth, i))
    elif kind == "verify-all":
        check_passes(stdout, at_least=10)
        require("overall: pass" in stdout, "no 'overall: pass' line")
        check_report(cmd.out_dir)
    else:
        raise ValueError(f"unknown check kind {kind!r}")


def check_ring_independent(outputs) -> None:
    """`zeta --homology-level` prints the same text for every ring of equal
    codepth, over both fields: the matrices do not depend on the ring.
    `outputs` is a list of (codepth, stdout)."""
    by_codepth = {}
    for c, text in outputs:
        by_codepth.setdefault(c, set()).add(text)
    for c, texts in by_codepth.items():
        require(len(texts) == 1, f"homology-level zeta differs between codepth-{c} rings")
