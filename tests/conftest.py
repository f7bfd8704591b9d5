import sys

import pytest

from radpi import PrecisionContext


@pytest.fixture(scope="session")
def ctx128() -> PrecisionContext:
    return PrecisionContext(128)


@pytest.fixture(scope="session")
def ctx256() -> PrecisionContext:
    return PrecisionContext(256)


@pytest.fixture
def int_str_digits():
    """Sets Python's int/str digit limit (0 lifts it) until the test ends;
    a no-op before Python 3.11, which has no limit."""
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    yield set_limit
    set_limit(saved)
