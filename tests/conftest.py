import pytest

from clickrisk import uq


@pytest.fixture(autouse=True)
def cold_score_cache():
    """Each test starts with `uq._score`'s cache empty, so no test's result depends on the ones before it."""
    uq._score.cache_clear()
