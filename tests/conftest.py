import pytest
from hypothesis import settings

from doctrina.finset import trivial_triple, surjection_triple
from doctrina.doctrine import powerset_doctrine, tropical_doctrine

# The same examples on every run, and no per-example deadline: a case
# with a large vector may take longer than Hypothesis' 200 ms default.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def triple2():
    return trivial_triple(2)


@pytest.fixture(scope="session")
def triple3():
    return trivial_triple(3)


@pytest.fixture(scope="session")
def surj3():
    return surjection_triple(3)


@pytest.fixture(scope="session")
def pow2(triple2):
    return powerset_doctrine(triple2)


@pytest.fixture(scope="session")
def pow3(triple3):
    return powerset_doctrine(triple3)


@pytest.fixture(scope="session")
def trop2(triple2):
    return tropical_doctrine(triple2, 2)


@pytest.fixture(scope="session")
def trop2k3(triple2):
    return tropical_doctrine(triple2, 3)
