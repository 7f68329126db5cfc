import pytest

from loopalg.homology import RingMap
from loopalg.spaces import SpaceParams, catalog_for


def _cat(token, n):
    return catalog_for(SpaceParams.from_token(token, n))


@pytest.fixture(scope="session")
def cp1():
    return _cat("cp", 1)


@pytest.fixture(scope="session")
def cp2():
    return _cat("cp", 2)


@pytest.fixture(scope="session")
def cp3():
    return _cat("cp", 3)


@pytest.fixture(scope="session")
def hp1():
    return _cat("hp", 1)


@pytest.fixture(scope="session")
def hp2():
    return _cat("hp", 2)


@pytest.fixture(scope="session")
def hp3():
    return _cat("hp", 3)


@pytest.fixture
def plant_lift(monkeypatch):
    """``plant(fault)`` breaks the retraction pullback L(w) of the source [1] of SM x_M SM.

    [1] has the inverse dual ``w xi`` with w the top monomial of SM, so each
    map from SM (a level's retraction pullback) sends that w to ``fault`` of
    its real image, for the test's length.
    """
    real = RingMap.__call__

    def plant(fault):
        def call(pull, elem):
            image = real(pull, elem)
            if "xi" in pull.source.index or pull.source.top_monomial not in elem.terms:
                return image
            return fault(image)

        monkeypatch.setattr(RingMap, "__call__", call)

    return plant
