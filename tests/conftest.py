from importlib import resources
from pathlib import Path

import pytest

from toricfloer.lattice import Polytope, parse_polytope

CORPUS = ("p1", "p2", "p3", "p1xp1", "f1", "f2", "f3")

# test-only inputs and their golden reports, kept out of the package data
# (tests run critical on every shipped polytope)
DATA = Path(__file__).resolve().parent / "data"


def corpus_text(name: str) -> str:
    return (resources.files("toricfloer") / "data" / "polytopes"
            / f"{name}.poly").read_text()


def corpus_polytope(name: str) -> Polytope:
    return parse_polytope(corpus_text(name))


def assert_record(make, field: str) -> None:
    """Two records built from equal fields are equal, with equal hashes,
    and neither a field nor a new attribute can be assigned."""
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = None
    assert a == b


@pytest.fixture(scope="session")
def corpus() -> dict[str, Polytope]:
    return {name: corpus_polytope(name) for name in CORPUS}
