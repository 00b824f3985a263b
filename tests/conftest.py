import pytest

from koszulator.complexes import GradedMap
from koszulator.fields import RationalField
from koszulator.koszul import build_koszul, cycles_from_generators
from koszulator.resolution import assemble_f
from koszulator.conetower import build_tower

from oracles import ring_from_strings

VARS = ["x", "y", "z"]
CODEPTH2_GENS = ["x^2", "y^2+z^2"]
CODEPTH3_GENS = ["x^2+y^2", "x*z", "z^2+x*y"]


class Setup:
    """A ring together with its Koszul complex and cycle basis."""

    def __init__(self, gens):
        self.ring = ring_from_strings(VARS, gens, RationalField())
        self.K = build_koszul(self.ring)
        self.Z = cycles_from_generators(self.K)


@pytest.fixture(scope="session")
def ex2():
    """Codepth-2 example: Q[x,y,z]/(x^2, y^2+z^2)."""
    return Setup(CODEPTH2_GENS)


@pytest.fixture(scope="session")
def ex3():
    """Codepth-3 example: Q[x,y,z]/(x^2+y^2, xz, z^2+xy)."""
    return Setup(CODEPTH3_GENS)


@pytest.fixture(scope="session")
def both(ex2, ex3):
    return [ex2, ex3]


@pytest.fixture(scope="session")
def F2(ex2):
    return assemble_f(ex2.K, ex2.Z, 12)


@pytest.fixture(scope="session")
def F3(ex3):
    return assemble_f(ex3.K, ex3.Z, 10)


@pytest.fixture(scope="session")
def tower2(ex2):
    return build_tower(ex2.K, ex2.Z, 3)


@pytest.fixture(scope="session")
def tower3(ex3):
    return build_tower(ex3.K, ex3.Z, 3)


@pytest.fixture
def strand_builds(monkeypatch):
    """(id(map), d, field) of every strand matrix built while the test runs,
    over the ring's own field or reduced mod p; the maps are kept alive so
    that their ids stay distinct."""
    built, maps = [], []
    original = GradedMap.strand_matrix

    def counting(self, d, field=None):
        maps.append(self)
        built.append((id(self), d, field or self.source.ring.field))
        return original(self, d, field)

    monkeypatch.setattr(GradedMap, "strand_matrix", counting)
    return built
