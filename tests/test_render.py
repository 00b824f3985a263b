import pytest

from koszulator.render import (
    export_map_json,
    import_map_json,
    render_blocks,
    render_svg,
    render_text,
)
from koszulator.resolution import assemble_f

from golden_layouts import (
    CODEPTH2_DF,
    CODEPTH3_DF,
    golden_grid,
    layout_grid,
)


@pytest.fixture(scope="module")
def F6s(ex2, ex3):
    return {
        2: assemble_f(ex2.K, ex2.Z, 6),
        3: assemble_f(ex3.K, ex3.Z, 6),
    }


@pytest.mark.parametrize("c,table", [(2, CODEPTH2_DF), (3, CODEPTH3_DF)])
def test_layouts_match_published_figures(F6s, c, table):
    F = F6s[c]
    for i in range(1, 7):
        layout = render_blocks(F.complex.differential(i))
        assert golden_grid(table[i], layout.nrows, layout.ncols) == layout_grid(layout)


def test_layouts_tile_exactly(F6s):
    for F in F6s.values():
        for i in range(1, 7):
            layout = render_blocks(F.complex.differential(i))
            assert layout.tiles_exactly()
            assert layout.nrows == F.complex.module(i - 1).rank
            assert layout.ncols == F.complex.module(i).rank


def test_even_odd_style_pattern(F6s):
    even = {"koszul2", "zeta1", "zeta3"}
    odd = {"koszul1", "koszul3", "zeta2"}
    for F in F6s.values():
        for i in range(1, 7):
            styles = set(render_blocks(F.complex.differential(i)).styles_used())
            assert styles <= (even if i % 2 == 0 else odd)


def test_text_rendering_uses_distinct_fill_chars(F6s):
    layout = render_blocks(F6s[2].complex.differential(4))
    text = render_text(layout)
    lines = text.strip().split("\n")
    assert len(lines) == layout.nrows
    chars = set(text.split())
    # zeta3, koszul2, zeta1, and zero all appear in this picture
    assert {"c", "2", "a", "·"} <= chars


def test_svg_rendering_has_patterns(F6s):
    svg = render_svg(render_blocks(F6s[2].complex.differential(4)))
    assert svg.startswith("<svg")
    assert 'fill="url(#dots)"' in svg
    assert 'fill="url(#crosshatch)"' in svg


def test_json_export_round_trip(F6s, ex2):
    d = F6s[2].complex.differential(3)
    text = export_map_json(d)
    back = import_map_json(text, ex2.ring)
    assert back.source.gens == d.source.gens
    assert back.target.gens == d.target.gens
    assert back.entries == d.entries
    # byte-stable: exporting again gives the identical string
    assert export_map_json(back) == text
