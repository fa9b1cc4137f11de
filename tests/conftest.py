import pytest
from hypothesis import HealthCheck, settings

from zetakit import varieties
from zetakit.cyclofield import build_field

settings.register_profile(
    "zetakit",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("zetakit")


@pytest.fixture(scope="session")
def F2():
    return build_field(2, 1)


@pytest.fixture(scope="session")
def F3():
    return build_field(3, 1)


@pytest.fixture(scope="session")
def F4():
    return build_field(2, 2)


@pytest.fixture(scope="session")
def F5():
    return build_field(5, 1)


@pytest.fixture(scope="session")
def F9():
    return build_field(3, 2)


def _walk_in_small_chunks(monkeypatch, Q, n, split):
    """Shrink the engine's chunks for a walk over Q values per variable (a
    field F_Q, Q = p^n, or the 2H + 1 integers of a height box, n = 1) so
    that the prefix rows split ("R": T = Q, two prefixes per chunk) or the
    values of the last variable do ("T": T = Q - 2); returns the list that
    collects each chunk's (R, T)."""
    step = 2 * Q + 1 if split == "R" else Q - 2
    monkeypatch.setattr(varieties, "_CHUNK", step * n)
    shapes = []
    chunks = varieties._chunks

    def spy(*args):
        for chunk in chunks(*args):
            shapes.append(chunk.shape)
            yield chunk

    monkeypatch.setattr(varieties, "_chunks", spy)
    return shapes
