import pytest

from heraldsim import scenarios


@pytest.fixture(autouse=True)
def fresh_source_levels():
    """Each test samples its sources afresh: ``sample_source`` holds the last
    source's levels, and a test that patches ``sample_jsa`` or the pump floor
    must not read a level held from before."""
    scenarios._source_levels.cache_clear()
    yield
    scenarios._source_levels.cache_clear()
