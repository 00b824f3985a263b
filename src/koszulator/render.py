"""Block-structure rendering of resolution differentials.

The generators of each F_i are grouped by (pair-count j, tuple); a
differential then tiles into rectangular blocks: Koszul blocks on the
diagonal of each level, zeta blocks one level down (nonzero exactly when
the target tuple is a sub-multiset of the source tuple), zero elsewhere.
Output formats: a text grid with one fill character per entry, and SVG.
"""

from __future__ import annotations

import json
from collections import Counter

from .complexes import GradedMap
from .polyring import GradedQuotientRing, parse_polynomial


STYLE_CHARS = {
    "zero": "·",
    "koszul1": "1",
    "koszul2": "2",
    "koszul3": "3",
    "koszul4": "4",
    "koszul5": "5",
    "zeta1": "a",
    "zeta2": "b",
    "zeta3": "c",
    "zeta4": "d",
    "zeta5": "e",
    "other": "?",
}

SVG_FILLS = {
    "koszul1": "#cccccc",
    "koszul2": "#808080",
    "koszul3": "#333333",
    "koszul4": "#565656",
    "koszul5": "#101010",
    "zero": "#ffffff",
    "other": "#ff0000",
}
SVG_PATTERNS = {
    "zeta1": "dots",
    "zeta2": "nelines",
    "zeta3": "crosshatch",
    "zeta4": "dots",
    "zeta5": "nelines",
}


class Block:
    __slots__ = ("row0", "col0", "nrows", "ncols", "style", "target_group", "source_group")

    def __init__(self, row0, col0, nrows, ncols, style, target_group, source_group):
        self.row0 = row0
        self.col0 = col0
        self.nrows = nrows
        self.ncols = ncols
        self.style = style
        self.target_group = target_group
        self.source_group = source_group


class BlockLayout:
    def __init__(self, nrows, ncols, row_groups, col_groups, blocks):
        self.nrows = nrows
        self.ncols = ncols
        self.row_groups = row_groups  # [(tuple, start, size)]
        self.col_groups = col_groups
        self.blocks = blocks

    def styles_used(self):
        return sorted({b.style for b in self.blocks if b.style != "zero"})

    def tiles_exactly(self) -> bool:
        """Blocks tile the full shape with no gap or overlap."""
        covered = Counter()
        for b in self.blocks:
            for r in range(b.row0, b.row0 + b.nrows):
                for c in range(b.col0, b.col0 + b.ncols):
                    covered[(r, c)] += 1
        return all(
            covered[(r, c)] == 1 for r in range(self.nrows) for c in range(self.ncols)
        )


def _group_by_tuple(gens):
    groups = []
    start = 0
    current = None
    size = 0
    for (w, _S), _t in gens:
        if w != current:
            if size:
                groups.append((current, start, size))
            current = w
            start += size
            size = 0
        size += 1
    if size:
        groups.append((current, start, size))
    return groups


def _sub_multiset(small, big) -> bool:
    cs, cb = Counter(small), Counter(big)
    return all(cb[v] >= m for v, m in cs.items())


def render_blocks(gmap: GradedMap) -> BlockLayout:
    row_groups = _group_by_tuple(gmap.target.gens)
    col_groups = _group_by_tuple(gmap.source.gens)
    blocks = []
    for rt, r0, rn in row_groups:
        # wedge size of this row group's generators
        tgt_wedge = len(gmap.target.gens[r0][0][1])
        for ct, c0, cn in col_groups:
            has_content = any(
                (r, c) in gmap.entries
                for r in range(r0, r0 + rn)
                for c in range(c0, c0 + cn)
            )
            if not has_content:
                style = "zero"
            elif len(ct) == len(rt) and ct == rt:
                style = f"koszul{len(gmap.source.gens[c0][0][1])}"
            elif len(ct) == len(rt) + 1 and _sub_multiset(rt, ct):
                style = f"zeta{tgt_wedge}"
            else:
                style = "other"
            blocks.append(Block(r0, c0, rn, cn, style, rt, ct))
    return BlockLayout(gmap.target.rank, gmap.source.rank, row_groups, col_groups, blocks)


def render_text(layout: BlockLayout) -> str:
    grid = [["·"] * layout.ncols for _ in range(layout.nrows)]
    for b in layout.blocks:
        ch = STYLE_CHARS.get(b.style, "?")
        for r in range(b.row0, b.row0 + b.nrows):
            for c in range(b.col0, b.col0 + b.ncols):
                grid[r][c] = ch
    return "\n".join(" ".join(row) for row in grid) + "\n"


def render_svg(layout: BlockLayout, cell: int = 14) -> str:
    w = layout.ncols * cell
    h = layout.nrows * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        "<defs>",
        '<pattern id="dots" width="6" height="6" patternUnits="userSpaceOnUse">'
        '<circle cx="2" cy="2" r="1.2" fill="black"/></pattern>',
        '<pattern id="nelines" width="6" height="6" patternUnits="userSpaceOnUse">'
        '<path d="M0,6 L6,0" stroke="black" stroke-width="1"/></pattern>',
        '<pattern id="crosshatch" width="6" height="6" patternUnits="userSpaceOnUse">'
        '<path d="M0,6 L6,0 M0,0 L6,6" stroke="black" stroke-width="1"/></pattern>',
        "</defs>",
    ]
    for b in layout.blocks:
        x = b.col0 * cell
        y = b.row0 * cell
        bw = b.ncols * cell
        bh = b.nrows * cell
        if b.style in SVG_PATTERNS:
            fill = f"url(#{SVG_PATTERNS[b.style]})"
        else:
            fill = SVG_FILLS.get(b.style, "#ff0000")
        parts.append(
            f'<rect x="{x}" y="{y}" width="{bw}" height="{bh}" '
            f'fill="{fill}" stroke="black" stroke-width="0.6"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- machine-readable export -------------------------------------------------


def export_map_json(gmap: GradedMap) -> str:
    names = gmap.source.ring.var_names
    data = {
        "sourceLabels": [_label_json(lab, t) for lab, t in gmap.source.gens],
        "targetLabels": [_label_json(lab, t) for lab, t in gmap.target.gens],
        "entries": [
            [r, c, gmap.entries[(r, c)].to_string(names)]
            for (r, c) in sorted(gmap.entries)
        ],
    }
    return json.dumps(data, indent=1, sort_keys=True)


def export_map_csv(gmap: GradedMap) -> str:
    names = gmap.source.ring.var_names
    lines = ["row,col,entry"]
    for (r, c) in sorted(gmap.entries):
        lines.append(f'{r},{c},"{gmap.entries[(r, c)].to_string(names)}"')
    return "\n".join(lines) + "\n"


def export_map_text(gmap: GradedMap) -> str:
    names = gmap.source.ring.var_names
    rows = []
    for r in range(gmap.target.rank):
        rows.append(
            "  ".join(
                gmap.entry(r, c).to_string(names) for c in range(gmap.source.rank)
            )
        )
    return "\n".join(rows) + "\n"


def _label_json(lab, twist):
    w, S = lab
    return {"tuple": list(w), "wedge": list(S), "twist": twist}


def import_map_json(text: str, ring: GradedQuotientRing) -> GradedMap:
    from .complexes import FreeModule

    data = json.loads(text)

    def module(labels):
        return FreeModule(
            ring,
            [((tuple(l["tuple"]), tuple(l["wedge"])), l["twist"]) for l in labels],
        )

    src = module(data["sourceLabels"])
    tgt = module(data["targetLabels"])
    entries = {}
    for r, c, s in data["entries"]:
        entries[(r, c)] = parse_polynomial(s, ring.var_names, ring.field)
    return GradedMap(src, tgt, entries)
