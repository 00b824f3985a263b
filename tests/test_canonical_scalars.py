"""ℚ scalars are stored as ints when integral and as Fractions only when not.

A non-monic ring such as ℚ[x,y,z]/(2x²+3yz, 5y²−7xz) has normal-form tables
that hold proper fractions next to ints; its outputs are pinned in
`tests/golden/`, as written while ℚ scalars were all Fractions.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from koszulator import cli
from koszulator.polyring import load_ring_file

GOLDEN = Path(__file__).parent / "golden"
NONMONIC = "field rational\nvars x,y,z\ngen 2*x^2+3*y*z\ngen 5*y^2-7*x*z\n"
CODEPTH3 = "field rational\nvars x,y,z\ngen x^2+y^2\ngen x*z\ngen z^2+x*y\n"
COMMANDS = {
    "resolve": ["resolve", "--imax", "6", "--verify-all", "--betti"],
    "verify-all": ["verify-all"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_nonmonic_outputs_match_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("nonmonic.ring").write_text(NONMONIC)
    assert cli.main(COMMANDS[name] + ["--ring", "nonmonic.ring", "--out", "out"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"nonmonic-{name}.stdout").read_text()
    assert (Path("out") / "report.json").read_bytes() == \
        (GOLDEN / f"nonmonic-{name}-report.json").read_bytes()


def _stored_scalars(ring):
    """Every scalar the ring keeps: its generators' coefficients, its
    normal-form rows, interned or not, and its multiplication blocks."""
    for g in ring.generators:
        yield from g.terms.values()
    rows = [row for interned in ring._rows.values() for row in interned]
    rows += [row for data in ring._degrees for row in data.nf.values()]
    rows += [row for _, block in ring._blocks.values() for row in block]
    for row in rows:
        for _, a in row:
            yield a


@pytest.mark.parametrize("text, proper", [(CODEPTH3, False), (NONMONIC, True)],
                         ids=["integral", "nonmonic"])
def test_verify_all_stores_canonical_scalars(text, proper, tmp_path, monkeypatch, capsys):
    rings = []

    def loading(path):
        rings.append(load_ring_file(path))
        return rings[-1]

    monkeypatch.setattr(cli, "load_ring_file", loading)
    path = tmp_path / "q.ring"
    path.write_text(text)
    assert cli.main(["verify-all", "--ring", str(path)]) == 0
    scalars = list(_stored_scalars(rings[0]))
    assert scalars and all(type(a) in (int, Fraction) for a in scalars)
    assert not [a for a in scalars if type(a) is Fraction and a.denominator == 1]
    assert any(type(a) is Fraction for a in scalars) == proper
