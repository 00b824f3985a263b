"""Block-structure rendering of resolution differentials.

The generators of each F_i are grouped by (pair-count j, tuple); a
differential then tiles into rectangular blocks: Koszul blocks on the
diagonal of each level, zeta blocks one level down (nonzero exactly when
the target tuple is a sub-multiset of the source tuple), zero elsewhere.
Output formats: a text grid with one fill character per entry, and SVG.
"""

from __future__ import annotations

from collections import Counter

from .complexes import GradedMap


GREYS = ("#cccccc", "#808080", "#333333", "#565656", "#101010")
PATTERNS = ("dots", "nelines", "crosshatch")
CELL = 14  # side of one entry's square in an SVG, in pixels
PLAIN_STYLES = {"zero": ("·", "#ffffff"), "other": ("?", "#ff0000")}  # (glyph, fill)


def _glyph_and_fill(style: str):
    """(text glyph, SVG fill) of a block style.  A block of wedge size k is
    the digit k (mod 10) on the grey GREYS[(k−1) mod 5] if it is a Koszul
    block, and the k-th letter on the pattern PATTERNS[(k−1) mod 3] if it
    is a ζ block."""
    kind = style.rstrip("0123456789")
    if kind not in ("koszul", "zeta"):
        return PLAIN_STYLES[style]
    k = int(style[len(kind):])
    if kind == "koszul":
        return str(k % 10), GREYS[(k - 1) % len(GREYS)]
    return chr(ord("a") + (k - 1) % 26), f"url(#{PATTERNS[(k - 1) % len(PATTERNS)]})"


class Block:
    __slots__ = ("row0", "col0", "nrows", "ncols", "style")

    def __init__(self, row0, col0, nrows, ncols, style):
        self.row0 = row0
        self.col0 = col0
        self.nrows = nrows
        self.ncols = ncols
        self.style = style


class BlockLayout:
    def __init__(self, nrows, ncols, blocks):
        self.nrows = nrows
        self.ncols = ncols
        self.blocks = blocks


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
    # the (row group, column group) of each entry, found once
    row_group = [g for g, (_, _, n) in enumerate(row_groups) for _ in range(n)]
    col_group = [g for g, (_, _, n) in enumerate(col_groups) for _ in range(n)]
    filled = {(row_group[r], col_group[c]) for r, c in gmap.entries}
    blocks = []
    for gr, (rt, r0, rn) in enumerate(row_groups):
        # wedge size of this row group's generators
        tgt_wedge = len(gmap.target.gens[r0][0][1])
        for gc, (ct, c0, cn) in enumerate(col_groups):
            if (gr, gc) not in filled:
                style = "zero"
            elif len(ct) == len(rt) and ct == rt:
                style = f"koszul{len(gmap.source.gens[c0][0][1])}"
            elif len(ct) == len(rt) + 1 and _sub_multiset(rt, ct):
                style = f"zeta{tgt_wedge}"
            else:
                style = "other"
            blocks.append(Block(r0, c0, rn, cn, style))
    return BlockLayout(gmap.target.rank, gmap.source.rank, blocks)


def render_text(layout: BlockLayout) -> str:
    grid = [["·"] * layout.ncols for _ in range(layout.nrows)]
    for b in layout.blocks:
        ch = _glyph_and_fill(b.style)[0]
        for r in range(b.row0, b.row0 + b.nrows):
            for c in range(b.col0, b.col0 + b.ncols):
                grid[r][c] = ch
    return "\n".join(" ".join(row) for row in grid) + "\n"


def render_svg(layout: BlockLayout) -> str:
    w = layout.ncols * CELL
    h = layout.nrows * CELL
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
        x = b.col0 * CELL
        y = b.row0 * CELL
        bw = b.ncols * CELL
        bh = b.nrows * CELL
        parts.append(
            f'<rect x="{x}" y="{y}" width="{bw}" height="{bh}" '
            f'fill="{_glyph_and_fill(b.style)[1]}" stroke="black" stroke-width="0.6"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- machine-readable export -------------------------------------------------


def _entry_strings(gmap: GradedMap) -> dict:
    """{(row, col): entry string}, each distinct entry polynomial converted
    once: equal entries of a map built from columns share one object."""
    names = gmap.source.ring.var_names
    strings = {}  # id(entry) -> its string; gmap holds every entry alive
    out = {}
    for rc, p in gmap.entries.items():
        s = strings.get(id(p))
        if s is None:
            s = strings[id(p)] = p.to_string(names)
        out[rc] = s
    return out


def map_json(gmap: GradedMap) -> dict:
    """The object that `export_map_json` writes: both generator lists and
    the entries as [row, col, string], by position."""
    strings = _entry_strings(gmap)
    return {
        "sourceLabels": [_label_json(lab, t) for lab, t in gmap.source.gens],
        "targetLabels": [_label_json(lab, t) for lab, t in gmap.target.gens],
        "entries": [[r, c, strings[r, c]] for (r, c) in sorted(strings)],
    }


def export_map_json(gmap: GradedMap) -> str:
    import json
    return json.dumps(map_json(gmap), indent=1, sort_keys=True)


def export_map_csv(gmap: GradedMap) -> str:
    strings = _entry_strings(gmap)
    lines = ["row,col,entry"]
    for (r, c) in sorted(strings):
        lines.append(f'{r},{c},"{strings[r, c]}"')
    return "\n".join(lines) + "\n"


def matrix_strings(gmap: GradedMap):
    """Dense grid of the entry strings, one list per target generator: "0"
    in every cell, then each entry's string in its own."""
    grid = [["0"] * gmap.source.rank for _ in range(gmap.target.rank)]
    for (r, c), s in _entry_strings(gmap).items():
        grid[r][c] = s
    return grid


def export_map_text(gmap: GradedMap) -> str:
    return "\n".join("  ".join(row) for row in matrix_strings(gmap)) + "\n"


def _label_json(lab, twist):
    w, S = lab
    return {"tuple": list(w), "wedge": list(S), "twist": twist}
