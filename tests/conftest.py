import pytest

from ginshift.gin import _trial_changes


@pytest.fixture
def fresh_trial_sets():
    """An empty trial-set cache before and after the test: a test that
    counts draws sees every one, and changes drawn under a patch are not
    served to later tests."""
    _trial_changes.cache_clear()
    yield
    _trial_changes.cache_clear()
