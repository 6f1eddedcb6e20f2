import numpy as np
import pytest

from shadowbench.torus import (
    ToralAutomorphism,
    cat_map,
    crovisier_product,
    default_product,
    golden_map,
    two_fixed_point_map,
)


@pytest.fixture(scope="session")
def cat():
    return cat_map()


@pytest.fixture(scope="session")
def golden():
    return golden_map()


@pytest.fixture(scope="session")
def product():
    return default_product()


@pytest.fixture(scope="session")
def crovisier():
    return crovisier_product()


@pytest.fixture(scope="session")
def orbit_maps():
    """Maps the float orbit kernel is pinned on: 2-D and 4-D, entries up to 5.
    On the three with an entry of 3 or more, a row in a batch can round apart
    from the same row stepped alone."""
    return {"cat": cat_map(), "golden": golden_map(), "two_fixed": two_fixed_point_map(),
            "5332": ToralAutomorphism([[5, 3], [3, 2]]),
            "crovisier": crovisier_product().as_automorphism(),
            "product": default_product().as_automorphism()}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
