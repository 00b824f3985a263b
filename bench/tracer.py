"""Run the koszulator CLI with spans around the public functions of each module.

    python3 bench/tracer.py SPANS.json <koszulator arguments...>

The program is not changed: its functions are wrapped from outside before
`koszulator.cli.main` runs.  Every binding of a wrapped function is patched,
since several modules copy names with `from .x import y`; functions imported
inside other functions are covered by patching their home module.

Each thread keeps its own span stack (strand checks run on the program's
worker threads).  Spans are kept in memory.  When the command ends, this
script writes the per-layer metrics of the process and a per-name summary
of the spans to SPANS.json.  A span's self time is its duration minus the
time of the spans it directly contains.
"""

from __future__ import annotations

import json
import sys
import threading
from time import perf_counter

# (module, function or Class.method, span family)
TARGETS = [
    ("linalg", "rref", "linalg"),
    ("linalg", "rank", "linalg"),
    ("linalg", "nullspace", "linalg"),
    ("linalg", "mat_vec", "linalg"),
    ("polyring", "GradedQuotientRing.normal_form", "nf"),
    ("polyring", "GradedQuotientRing.normal_form_homogeneous", "nf"),
    ("polyring", "GradedQuotientRing.nf_coeff_vector", "nf"),
    ("complexes", "GradedMap.strand_matrix", "strand"),
    ("complexes", "GradedMap.compose", "compose"),
    ("complexes", "ChainComplex.strand_homology_dim", "homology"),
    ("cli", "_load", "cli.load"),
    ("koszul", "build_koszul", "koszul.build"),
    ("koszul", "cycles_from_generators", "koszul.cycles"),
    ("koszul", "cycles_from_user", "koszul.cycles"),
    ("koszul", "certify_complete_intersection", "koszul.certify"),
    ("zetamaps", "build_zeta", "zetamaps.build"),
    ("zetamaps", "homology_zeta_matrix", "zetamaps.build"),
    ("zetamaps", "verify_zeta_chain", "zetamaps.verify"),
    ("zetamaps", "verify_zeta_square_zero", "zetamaps.verify"),
    ("zetamaps", "verify_exact_sequence", "zetamaps.verify"),
    ("conetower", "build_tower", "conetower.build"),
    ("conetower", "verify_homology_theorem", "conetower.verify"),
    ("conetower", "verify_splitting", "conetower.verify"),
    ("resolution", "assemble_f", "resolution.assemble"),
    ("resolution", "verify_minimal_and_exact", "resolution.exactness"),
    ("resolution", "verify_leibniz", "resolution.leibniz"),
    ("dividedpowers", "verify_mu_equals_zeta", "dividedpowers.verify"),
    ("dividedpowers", "verify_mu_square_zero", "dividedpowers.verify"),
    ("dividedpowers", "acyclic_closure_square_zero", "dividedpowers.verify"),
    ("render", "render_blocks", "render"),
    ("render", "render_text", "render"),
    ("render", "render_svg", "render"),
    ("render", "export_map_json", "render"),
    ("render", "export_map_csv", "render"),
    ("render", "export_map_text", "render"),
]

# families reported by inclusive time of their outermost spans
INCLUSIVE = {
    "cli.load": "cli.load_s",
    "koszul.build": "koszul.build_s",
    "koszul.cycles": "koszul.cycles_s",
    "koszul.certify": "koszul.certify_s",
    "zetamaps.build": "zetamaps.build_s",
    "zetamaps.verify": "zetamaps.verify_s",
    "conetower.build": "conetower.build_s",
    "conetower.verify": "conetower.verify_s",
    "resolution.assemble": "resolution.assemble_s",
    "resolution.exactness": "resolution.exactness_s",
    "resolution.leibniz": "resolution.leibniz_s",
    "dividedpowers.verify": "dividedpowers.verify_s",
    "render": "render.s",
}

METRICS = [
    "polyring.degree_pieces", "polyring.degree_rref_s", "polyring.degree_rref_cells",
    "polyring.nf_calls", "polyring.nf_s",
    "linalg.rank_calls", "linalg.rank_s", "linalg.rank_cells",
    "complexes.strand_matrices", "complexes.strand_build_s", "complexes.strand_cells",
    "complexes.strand_nonzeros", "complexes.homology_strands",
    "complexes.strand_rank_repeats", "complexes.compose_calls", "complexes.compose_s",
    *INCLUSIVE.values(),
    "render.bytes",
]


class Tracer:
    """Span stacks per thread; finished spans are kept in `spans`.

    A span is (name, family, thread id, start, end, self time, outermost in
    its family, caller module, info dict or None).
    """

    def __init__(self):
        self.spans = []
        self.local = threading.local()
        self.strand_keys = set()
        self.strand_maps = []  # keeps mapped objects alive so ids stay unique
        self.lock = threading.Lock()

    def _state(self):
        st = getattr(self.local, "state", None)
        if st is None:
            st = self.local.state = ([], {})
        return st

    def wrap(self, name, family, fn):
        tracer = self
        info_fn = INFO.get(name)

        def wrapper(*args, **kwargs):
            stack, depth = tracer._state()
            caller = sys._getframe(1).f_globals.get("__name__", "")
            outer = depth.get(family, 0) == 0
            depth[family] = depth.get(family, 0) + 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[family] -= 1
            info = info_fn(tracer, args, out) if info_fn else None
            tracer.spans.append((name, family, threading.get_ident(), start, end,
                                 end - start - frame[0], outer, caller, info))
            if stack:
                stack[-1][0] += perf_counter() - start
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self) -> dict:
        m = dict.fromkeys(METRICS, 0)
        strand_calls = 0
        for name, family, _, start, end, self_s, outer, caller, info in self.spans:
            dur = end - start
            if family == "linalg":
                if caller == "koszulator.polyring" and name == "rref":
                    m["polyring.degree_pieces"] += 1
                    m["polyring.degree_rref_s"] += dur
                    m["polyring.degree_rref_cells"] += info["cells"]
                elif outer and name != "mat_vec":
                    m["linalg.rank_calls"] += 1
                    m["linalg.rank_s"] += dur
                    m["linalg.rank_cells"] += info["cells"]
            elif family == "nf":
                m["polyring.nf_calls"] += 1
                m["polyring.nf_s"] += self_s
            elif family == "strand":
                strand_calls += 1
                m["complexes.strand_build_s"] += self_s
                m["complexes.strand_cells"] += info["cells"]
                m["complexes.strand_nonzeros"] += info["nonzeros"]
            elif family == "homology":
                m["complexes.homology_strands"] += 1
            elif family == "compose":
                m["complexes.compose_calls"] += 1
                m["complexes.compose_s"] += self_s
            if family in INCLUSIVE and outer:
                m[INCLUSIVE[family]] += dur
            if info and "bytes" in info:
                m["render.bytes"] += info["bytes"]
        m["complexes.strand_matrices"] = strand_calls
        m["complexes.strand_rank_repeats"] = strand_calls - len(self.strand_keys)
        return m

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds."""
        out = {}
        for name, _, _, start, end, self_s, *_ in self.spans:
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += self_s
        return out


def _matrix_info(tracer, args, out):
    rows = args[0]
    return {"cells": len(rows) * len(rows[0]) if rows and rows[0] else 0}


def _strand_info(tracer, args, out):
    gmap, d = args[0], args[1]
    rows, nrows, ncols = out
    with tracer.lock:
        key = (id(gmap), d)
        if key not in tracer.strand_keys:
            tracer.strand_keys.add(key)
            tracer.strand_maps.append(gmap)
    return {"cells": nrows * ncols,
            "nonzeros": sum(1 for row in rows for x in row if x)}


def _text_info(tracer, args, out):
    return {"bytes": len(out.encode("utf-8"))}


# extra facts recorded with each span, by wrapped name
INFO = {
    "rref": _matrix_info, "rank": _matrix_info, "nullspace": _matrix_info,
    "GradedMap.strand_matrix": _strand_info,
    "render_text": _text_info, "render_svg": _text_info, "export_map_json": _text_info,
    "export_map_csv": _text_info, "export_map_text": _text_info,
}


def install(tracer: Tracer):
    """Wrap every target; returns the targets that were not found."""
    import koszulator.cli  # noqa: F401  (imports every module)

    modules = [m for k, m in sys.modules.items() if k.startswith("koszulator.")]
    missing = []
    for mod_name, qual, family in TARGETS:
        home = sys.modules.get(f"koszulator.{mod_name}")
        owner_name, _, attr = qual.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append(f"{mod_name}.{qual}")
            continue
        wrapper = tracer.wrap(qual, family, fn)
        if owner_name:
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, wrapper)
    return missing


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    missing = install(tracer)
    from koszulator.cli import main as cli_main

    t0 = perf_counter()
    try:
        rc = cli_main(cli_args)
    finally:
        wall = perf_counter() - t0
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"wall_s": wall, "missing": missing, "spans": len(tracer.spans),
                       "metrics": tracer.metrics(), "by_name": tracer.summary()}, fh,
                      indent=1, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
