"""Command-line interface.

Subcommands: cycles, zeta, tower, resolve, divided, verify-all, export-map.
Exit status 0 on success, 1 when a requested verification fails (a report
file is written when --out is given), 2 on malformed input, including a
ring whose complete-intersection certificate fails at load.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .polyring import (
    RingError,
    load_ring_file,
    parse_polynomial,
)
from .koszul import (
    build_koszul,
    certify_complete_intersection,
    cycles_from_generators,
    cycles_from_user,
    degree_window,
)
from .zetamaps import (
    build_zeta,
    homology_zeta_matrix,
    verify_exact_sequence,
    verify_zeta_chain,
    verify_zeta_square_zero,
)
from .conetower import build_tower, verify_homology_theorem, verify_splitting
from .resolution import (
    assemble_f,
    basis_labels,
    betti_numbers,
    hom_degree,
    poincare_coefficients,
    verify_leibniz,
    verify_minimal_and_exact,
)
from .dividedpowers import (
    acyclic_closure_square_zero,
    verify_mu_equals_zeta,
    verify_mu_square_zero,
)
from .render import (
    export_map_csv,
    export_map_json,
    export_map_text,
    render_blocks,
    render_svg,
    render_text,
)


DEFAULT_MAX_D = 16  # resolve's --max-d and verify-all's exactness window; never refused

# no window may reach a degree where dim R_d exceeds this (see _window)
MAX_QUOTIENT_DIM = 5000


def _int_at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports "invalid int value" as for type=int
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koszulator",
        description="Exact resolutions of the residue field over graded "
        "complete intersections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def ring_arg(p):
        p.add_argument("--ring", required=True, help="ring description file")
        return p

    p = ring_arg(sub.add_parser("cycles", help="extract and validate the cycles z_j"))
    p.add_argument("--z", help="file overriding cycle extraction (one cycle per "
                   "line, comma-separated coordinate polynomials)")

    p = ring_arg(sub.add_parser("zeta", help="print the zeta matrices"))
    p.add_argument("--k", type=_int_at_least(0), required=True)
    p.add_argument("--homology-level", action="store_true",
                   help="print the induced integer matrices on Koszul homology")
    p.add_argument("--out", choices=["json", "text"], default="text")
    p.add_argument("--z", help="cycle override file")

    p = ring_arg(sub.add_parser("tower", help="build the mapping-cone tower"))
    p.add_argument("--levels", type=_int_at_least(0), required=True)
    p.add_argument("--verify", action="store_true",
                   help="verify the homology clauses at every level")
    p.add_argument("--max-d", type=_int_at_least(0), default=None,
                   help="internal degree bound for homology checks")

    p = ring_arg(sub.add_parser("resolve", help="assemble the minimal free resolution"))
    p.add_argument("--imax", type=_int_at_least(1), required=True)
    p.add_argument("--verify-all", action="store_true",
                   help="verify minimality and strand exactness")
    p.add_argument("--betti", action="store_true", help="print the Betti table")
    p.add_argument("--max-d", type=_int_at_least(0), default=DEFAULT_MAX_D)
    p.add_argument("--out", help="output directory for matrices and report")
    p.add_argument("--z", help="cycle override file")

    p = ring_arg(sub.add_parser("divided", help="divided-power translation checks"))
    p.add_argument("--k", type=_int_at_least(0), required=True)
    p.add_argument("--compare-zeta", action="store_true",
                   help="compare mu to zeta under the tuple bijection")

    p = ring_arg(sub.add_parser("verify-all", help="run the full verification suite"))
    p.add_argument("--imax", type=_int_at_least(1), default=8)
    p.add_argument("--max-d", type=_int_at_least(0), default=None)
    p.add_argument("--out", help="output directory for the report")

    p = ring_arg(sub.add_parser("export-map", help="export one differential or zeta map"))
    p.add_argument("--complex", choices=["koszul", "resolution", "zeta"],
                   required=True)
    p.add_argument("--index", type=int, required=True,
                   help="homological degree (resolution/koszul) or component u (zeta)")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--imax", type=_int_at_least(1), default=8)
    p.add_argument("--k", type=_int_at_least(0), default=0)
    p.add_argument("--z", help="cycle override file")
    return parser


def _load(args):
    ring = load_ring_file(args.ring)
    _window(ring, degree_window(ring, 1), certified=False)  # the certificate's window
    K = build_koszul(ring)
    z_path = getattr(args, "z", None)
    if z_path:
        with open(z_path, encoding="utf-8") as fh:
            rows = [line.strip() for line in fh if line.strip()]
        coeff_lists = [
            [parse_polynomial(t.strip(), ring.var_names, ring.field)
             for t in row.split(",")]
            for row in rows
        ]
        Z = cycles_from_user(K, coeff_lists)
    else:
        Z = cycles_from_generators(K)
    cert = certify_complete_intersection(K, Z)
    if not cert["certified"]:
        failed = "; ".join(ch["check"] for ch in cert["checks"] if not ch["pass"])
        raise RingError(f"not a complete intersection: {failed}")
    return ring, K, Z, cert


def _poly_str(ring, p) -> str:
    return p.to_string(ring.var_names)


def _write_report(out_dir, report) -> None:
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=1, sort_keys=True, default=str))
            fh.write("\n")
        print(f"report written to {path}")


def _cmd_cycles(args) -> int:
    ring, K, Z, _ = _load(args)
    for j, (z, deg) in enumerate(zip(Z.cycles, Z.degrees), start=1):
        coords = ", ".join(_poly_str(ring, p) for p in z)
        print(f"z_{j} (degree {deg}): [{coords}]")
    print("complete intersection certificate: pass")
    return 0


def _cmd_zeta(args) -> int:
    ring, K, Z, _ = _load(args)
    c = ring.codepth
    if args.homology_level:
        payload = {
            f"zeta_{u}^{args.k}": homology_zeta_matrix(c, args.k, u)
            for u in range(1, c + 1)
        }
    else:
        zeta = build_zeta(K, Z, args.k)
        payload = {
            f"zeta_{u}^{args.k}": zeta.matrix_strings(u)
            for u in range(1, K.n + 1)
        }
    if args.out == "json":
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for name in sorted(payload):
            print(name)
            for row in payload[name]:
                print("  [" + ", ".join(str(e) for e in row) + "]")
    return 0


def _window(ring, max_d: int, certified: bool = True) -> int:
    """Check the internal-degree window max_d; returns max_d.  Above
    DEFAULT_MAX_D, max_d may not pass max(the limit, Σ deg), past which the
    CI prediction of dim R_d is constant or more than d, nor may that
    prediction pass the limit.  It is exact for a CI, so on a ring not yet
    `certified` the degrees are built in turn and each must match it."""
    top = max(MAX_QUOTIENT_DIM, sum(g.degree() for g in ring.generators))
    if max_d > top:
        raise RingError(f"degree window {max_d} is above {top}, the largest accepted: "
                        f"max({MAX_QUOTIENT_DIM}, the sum of the generator degrees)")
    dims = ring.ci_hilbert_coefficients(max_d) if max_d > DEFAULT_MAX_D else []
    for d, dim in enumerate(dims):
        if dim > MAX_QUOTIENT_DIM:
            raise RingError(f"degree window {max_d} reaches degree {d}, where dim R_{d} "
                            f"is predicted to be {dim}, more than {MAX_QUOTIENT_DIM}")
    for d, dim in enumerate([] if certified else dims):
        if ring.dim_quotient(d) != dim:
            raise RingError(f"not a complete intersection: dim R_{d} is "
                            f"{ring.dim_quotient(d)}, not the predicted {dim}")
    return max_d


def _exactness_imax(imax: int) -> None:
    """Exactness is checked at 1 ≤ i < i_max: refuse the empty range."""
    if imax < 2:
        raise ValueError(f"--imax {imax}: exactness at 1 ≤ i < i_max needs i_max ≥ 2")


def _cmd_tower(args) -> int:
    ring, K, Z, _ = _load(args)
    windows = [_window(ring, degree_window(ring, k) if args.max_d is None else args.max_d)
               for k in range(1, args.levels + 1)] if args.verify else []
    tower = build_tower(K, Z, args.levels)
    for j in range(args.levels + 1):
        level = tower.level(j)
        ranks = [level.module(i).rank for i in range(2 * j + ring.nvars + 1)]
        print(f"M^{j} ranks: {ranks}")
    if not args.verify:
        return 0
    ok = True
    for k, max_d in enumerate(windows, start=1):
        res = verify_homology_theorem(tower, k, max_d)
        print(f"homology clauses at level {k}: {'pass' if res['pass'] else 'FAIL'}")
        ok = ok and res["pass"]
    return 0 if ok else 1


def _resolution_outputs(ring, F, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    betti = betti_numbers(F)
    with open(os.path.join(out_dir, "betti.csv"), "w", encoding="utf-8") as fh:
        fh.write("i,betti\n")
        for i, b in enumerate(betti):
            fh.write(f"{i},{b}\n")
    for i in range(1, F.i_max + 1):
        d = F.complex.differential(i)
        layout = render_blocks(d)
        base = os.path.join(out_dir, f"dF_{i}")
        with open(base + ".json", "w", encoding="utf-8") as fh:
            fh.write(export_map_json(d) + "\n")
        with open(base + ".txt", "w", encoding="utf-8") as fh:
            fh.write(render_text(layout))
        with open(base + ".svg", "w", encoding="utf-8") as fh:
            fh.write(render_svg(layout))


def _cmd_resolve(args) -> int:
    if args.verify_all:
        _exactness_imax(args.imax)
    ring, K, Z, _ = _load(args)
    if args.verify_all:
        _window(ring, args.max_d)
    F = assemble_f(K, Z, args.imax)
    betti = betti_numbers(F)
    expected = poincare_coefficients(ring.nvars, ring.codepth, args.imax)
    if args.betti:
        print("i:     " + " ".join(f"{i:>4}" for i in range(args.imax + 1)))
        print("betti: " + " ".join(f"{b:>4}" for b in betti))
    report = {
        "imax": args.imax,
        "betti": betti,
        "betti_match_series": betti == expected,
    }
    ok = report["betti_match_series"]
    if args.verify_all:
        res = verify_minimal_and_exact(F, args.max_d)
        report["minimal_and_exact"] = res
        print(f"minimality and exactness: {'pass' if res['pass'] else 'FAIL'}")
        ok = ok and res["pass"]
    if args.out:
        _resolution_outputs(ring, F, args.out)
        report["pass"] = ok
        _write_report(args.out, report)
    return 0 if ok else 1


def _cmd_divided(args) -> int:
    ring, K, Z, _ = _load(args)
    ok = True
    for k in range(1, args.k + 1):
        sq = verify_mu_square_zero(K, Z, k)
        print(f"mu^{k} square-zero: {'pass' if sq else 'FAIL'}")
        ok = ok and sq
    if args.compare_zeta:
        res = verify_mu_equals_zeta(K, Z, range(args.k + 1))
        print(f"mu equals zeta (k <= {args.k}): {'pass' if res['pass'] else 'FAIL'}")
        ok = ok and res["pass"]
    closure = acyclic_closure_square_zero(K, Z)
    print(f"acyclic-closure differential squares to zero: "
          f"{'pass' if closure else 'FAIL'}")
    return 0 if ok and closure else 1


def _cmd_verify_all(args) -> int:
    _exactness_imax(args.imax)
    ring, K, Z, cert = _load(args)
    max_d = _window(ring, degree_window(ring, 2) if args.max_d is None else args.max_d)
    c = ring.codepth
    report = {"ring": args.ring, "checks": {}}

    def record(name, res):
        if isinstance(res, dict):
            passed = res["pass"] if "pass" in res else res["certified"]
        else:
            passed = bool(res)
        report["checks"][name] = res
        print(f"{name}: {'pass' if passed else 'FAIL'}")
        return passed

    ok = record("complete intersection certificate", cert)
    zetas = [build_zeta(K, Z, k) for k in range(3)]
    for k in range(2):
        ok &= record(f"zeta^{k} chain map", verify_zeta_chain(zetas[k]))
        ok &= record(f"zeta^{k} composite zero",
                     verify_zeta_square_zero(zetas[k], zetas[k + 1]))
    for k in range(3):
        ok &= record(f"homology sequence exact (k={k})",
                     verify_exact_sequence(c, k, ring.field))
    tower = build_tower(K, Z, 2)
    for k in (1, 2):
        ok &= record(f"homology clauses at level {k}",
                     verify_homology_theorem(tower, k, max_d))
    ok &= record("inclusion vanishes in homology (k=1)",
                 verify_splitting(tower, 1, 2 + ring.nvars, max_d))
    F = assemble_f(K, Z, args.imax)
    ok &= record("resolution minimal and exact",
                 verify_minimal_and_exact(F, DEFAULT_MAX_D))
    betti_ok = betti_numbers(F) == poincare_coefficients(ring.nvars, c, args.imax)
    ok &= record("betti numbers match series", betti_ok)
    pairs = [
        (a, b)
        for i in range(min(4, args.imax) + 1)
        for j in range(min(4, args.imax) - i + 1)
        for a in basis_labels(F, i)
        for b in basis_labels(F, j)
        if hom_degree(a) + hom_degree(b) <= args.imax
    ]
    ok &= record("graded Leibniz rule", verify_leibniz(F, pairs))
    ok &= record("mu equals zeta", verify_mu_equals_zeta(K, Z, range(3)))
    ok &= record("acyclic-closure differential squares to zero",
                 acyclic_closure_square_zero(K, Z))
    report["pass"] = bool(ok)
    _write_report(args.out, report)
    print(f"overall: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_export_map(args) -> int:
    ring, K, Z, _ = _load(args)
    top = args.imax if args.complex == "resolution" else K.n
    if not 1 <= args.index <= top:
        raise RingError(f"index {args.index} outside 1..{top}")
    if args.complex == "koszul":
        gmap = K.complex.differential(args.index)
    elif args.complex == "resolution":
        gmap = assemble_f(K, Z, args.imax).complex.differential(args.index)
    else:
        gmap = build_zeta(K, Z, args.k).component(args.index)
    if args.format == "json":
        print(export_map_json(gmap))
    elif args.format == "csv":
        print(export_map_csv(gmap), end="")
    else:
        print(export_map_text(gmap), end="")
    return 0


_COMMANDS = {
    "cycles": _cmd_cycles,
    "zeta": _cmd_zeta,
    "tower": _cmd_tower,
    "resolve": _cmd_resolve,
    "divided": _cmd_divided,
    "verify-all": _cmd_verify_all,
    "export-map": _cmd_export_map,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:  # every input error class is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
