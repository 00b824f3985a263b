"""Command-line interface.

Subcommands: cycles, zeta, tower, resolve, divided, verify-all, export-map.
Exit status 0 on success, 1 when a requested verification fails (a report
file is written when --out is given), 2 on malformed input, including a
ring whose complete-intersection certificate fails at load, and 141 (the
shell's status for SIGPIPE) when stdout is closed before the output is
written, as `| head` does.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys

from .polynomial import ParseError, RingError, parse_polynomial
from .polyring import load_ring_file
from .koszul import (
    build_koszul,
    certify_complete_intersection,
    compare,
    cycles_from_generators,
    cycles_from_user,
    degree_window,
    hom_degree,
)


def _deferred(name: str):
    """The module koszulator.<name>, registered in sys.modules and on the
    package but compiled and run only on first attribute use, so each
    command pays only for the modules it calls."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


zetamaps, conetower, resolution, dividedpowers, render = map(
    _deferred, ["zetamaps", "conetower", "resolution", "dividedpowers", "render"])


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
    p.add_argument("--out", help="output directory for the report")

    p = ring_arg(sub.add_parser("export-map", help="export one differential or zeta map"))
    p.add_argument("--complex", choices=["koszul", "resolution", "zeta"],
                   required=True)
    p.add_argument("--index", type=_int_at_least(1), required=True,
                   help="homological degree (resolution/koszul) or component u (zeta)")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
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
            rows = [(lineno, line.strip()) for lineno, line in enumerate(fh, 1)
                    if line.strip()]
        coeff_lists = [[_coordinate(ring, t, lineno, j)
                        for j, t in enumerate(row.split(","), start=1)]
                       for lineno, row in rows]
        Z = cycles_from_user(K, coeff_lists)
    else:
        Z = cycles_from_generators(K)
    cert = certify_complete_intersection(K, Z)
    if not cert["pass"]:
        failed = "; ".join(ch["check"] for ch in cert["checks"] if not ch["pass"])
        raise RingError(f"not a complete intersection: {failed}")
    return ring, K, Z, cert


def _coordinate(ring, text: str, lineno: int, j: int):
    """Coordinate j of the cycle on line lineno of a --z file."""
    try:
        return parse_polynomial(text.strip(), ring.var_names, ring.field)
    except ParseError as exc:
        raise RingError(f"line {lineno}, coordinate {j}: {exc}") from exc


def _verdict(name: str, passed: bool) -> bool:
    """Print the verdict line of one check or group of checks; returns it."""
    print(f"{name}: {'pass' if passed else 'FAIL'}")
    return passed


def _write_report(out_dir, report) -> None:
    if out_dir:
        import json
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=1, sort_keys=True, default=str))
            fh.write("\n")
        print(f"report written to {path}")


def _cmd_cycles(args) -> int:
    ring, K, Z, cert = _load(args)
    for j, (z, deg) in enumerate(zip(Z.cycles, Z.degrees), start=1):
        coords = ", ".join(p.to_string(ring.var_names) for p in z)
        print(f"z_{j} (degree {deg}): [{coords}]")
    _verdict("complete intersection certificate", cert["pass"])
    return 0


def _cmd_zeta(args) -> int:
    ring, K, Z, _ = _load(args)
    c = ring.codepth
    if args.homology_level:
        payload = {
            f"zeta_{u}^{args.k}": zetamaps.homology_zeta_matrix(c, args.k, u)
            for u in range(1, c + 1)
        }
    else:
        zeta = zetamaps.build_zeta(K, Z, args.k)
        payload = {
            f"zeta_{u}^{args.k}": render.matrix_strings(zeta.component(u))
            for u in range(1, K.n + 1)
        }
    if args.out == "json":
        import json
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
    if args.verify and args.levels < 1:
        raise ValueError(f"--levels {args.levels}: --verify checks the homology clauses "
                         "at levels 1 ≤ k ≤ levels, which needs levels ≥ 1")
    ring, K, Z, _ = _load(args)
    if args.verify:  # each level's window, refused before any level is built
        for k in range(1, args.levels + 1):
            _window(ring, degree_window(ring, k))
    tower = conetower.build_tower(K, Z, args.levels)
    for j, level in enumerate(tower):
        ranks = [level.module(i).rank for i in range(2 * j + ring.nvars + 1)]
        print(f"M^{j} ranks: {ranks}")
    if not args.verify:
        return 0
    ok = True
    for k in range(1, args.levels + 1):
        ok &= _verdict(f"homology clauses at level {k}",
                       conetower.verify_homology_theorem(tower, k)["pass"])
    return 0 if ok else 1


def _resolution_outputs(ring, F, out_dir) -> None:
    import json
    os.makedirs(out_dir, exist_ok=True)
    betti = resolution.betti_numbers(F)
    with open(os.path.join(out_dir, "betti.csv"), "w", encoding="utf-8") as fh:
        fh.write("i,betti\n")
        for i, b in enumerate(betti):
            fh.write(f"{i},{b}\n")
    for i in range(1, F.top + 1):
        d = F.differential(i)
        layout = render.render_blocks(d)
        base = os.path.join(out_dir, f"dF_{i}")
        with open(base + ".json", "w", encoding="utf-8") as fh:
            # written as it is encoded, as `export_map_json` formats it
            json.dump(render.map_json(d), fh, indent=1, sort_keys=True)
            fh.write("\n")
        with open(base + ".txt", "w", encoding="utf-8") as fh:
            fh.write(render.render_text(layout))
        with open(base + ".svg", "w", encoding="utf-8") as fh:
            fh.write(render.render_svg(layout))


def _cmd_resolve(args) -> int:
    if args.verify_all:
        _exactness_imax(args.imax)
    ring, K, Z, _ = _load(args)
    if args.verify_all:
        _window(ring, args.max_d)
    F = resolution.assemble_f(K, Z, args.imax)
    betti = resolution.betti_numbers(F)
    expected = resolution.poincare_coefficients(ring.nvars, ring.codepth, args.imax)
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
        res = resolution.verify_minimal_and_exact(F, args.max_d)
        report["minimal_and_exact"] = res
        ok &= _verdict("minimality and exactness", res["pass"])
    if args.out:
        _resolution_outputs(ring, F, args.out)
        report["pass"] = ok
        _write_report(args.out, report)
    return 0 if ok else 1


def _cmd_divided(args) -> int:
    ring, K, Z, _ = _load(args)
    ok = True
    for k in range(1, args.k + 1):
        ok &= _verdict(f"mu^{k} square-zero",
                       dividedpowers.verify_mu_square_zero(K, Z, k)["pass"])
    if args.compare_zeta:
        ok &= _verdict(f"mu equals zeta (k <= {args.k})",
                       dividedpowers.verify_mu_equals_zeta(K, Z, range(args.k + 1))["pass"])
    ok &= _verdict("acyclic-closure differential squares to zero",
                   dividedpowers.acyclic_closure_square_zero(K, Z)["pass"])
    return 0 if ok else 1


def _cmd_verify_all(args) -> int:
    _exactness_imax(args.imax)
    ring, K, Z, cert = _load(args)
    _window(ring, degree_window(ring, 2))  # both levels and the splitting
    c = ring.codepth
    report = {"ring": args.ring, "checks": {}}

    def record(name, res):
        report["checks"][name] = res
        return _verdict(name, res["pass"])

    ok = record("complete intersection certificate", cert)
    zetas = [zetamaps.build_zeta(K, Z, k) for k in range(3)]
    for k in range(2):
        ok &= record(f"zeta^{k} chain map", zetamaps.verify_zeta_chain(zetas[k], k))
        ok &= record(f"zeta^{k} composite zero",
                     zetamaps.verify_zeta_square_zero(zetas[k], zetas[k + 1], k))
    del zetas  # each group's objects die once its last check is recorded
    for k in range(3):
        ok &= record(f"homology sequence exact (k={k})",
                     zetamaps.verify_exact_sequence(c, k, ring.field))
    tower = conetower.build_tower(K, Z, 2)
    for k in (1, 2):
        ok &= record(f"homology clauses at level {k}",
                     conetower.verify_homology_theorem(tower, k))
    ok &= record("inclusion vanishes in homology (k=1)", conetower.verify_splitting(tower, 1))
    del tower
    F = resolution.assemble_f(K, Z, args.imax)
    ok &= record("resolution minimal and exact",
                 resolution.verify_minimal_and_exact(F, DEFAULT_MAX_D))
    ok &= record("betti numbers match series", compare(
        "betti numbers match series",
        resolution.poincare_coefficients(ring.nvars, c, args.imax),
        resolution.betti_numbers(F)))
    pairs = [
        (a, b)
        for i in range(min(4, args.imax) + 1)
        for j in range(min(4, args.imax) - i + 1)
        for a in resolution.basis_labels(F, i)
        for b in resolution.basis_labels(F, j)
        if hom_degree(a) + hom_degree(b) <= args.imax
    ]
    ok &= record("graded Leibniz rule", resolution.verify_leibniz(F, pairs))
    del F, pairs
    ok &= record("mu equals zeta", dividedpowers.verify_mu_equals_zeta(K, Z, range(3)))
    ok &= record("acyclic-closure differential squares to zero",
                 dividedpowers.acyclic_closure_square_zero(K, Z))
    report["pass"] = bool(ok)
    _write_report(args.out, report)
    return 0 if _verdict("overall", ok) else 1


def _cmd_export_map(args) -> int:
    ring, K, Z, _ = _load(args)
    if args.complex != "resolution" and args.index > K.n:
        raise RingError(f"index {args.index} outside 1..{K.n}")
    if args.complex == "koszul":
        gmap = K.complex.differential(args.index)
    elif args.complex == "resolution":
        gmap = resolution.assemble_f(K, Z, args.index).differential(args.index)
    else:
        gmap = zetamaps.build_zeta(K, Z, args.k).component(args.index)
    if args.format == "json":
        print(render.export_map_json(gmap))
    elif args.format == "csv":
        print(render.export_map_csv(gmap), end="")
    else:
        print(render.export_map_text(gmap), end="")
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
        rc = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return rc
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as exc:  # every input error class is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
