import pytest

from ginshift import verifier
from ginshift.gin import _trial_changes
from ginshift.graphs import SEMI_BIPARTITE


@pytest.fixture
def fresh_trial_sets():
    """An empty trial-set cache before and after the test: a test that
    counts draws sees every one, and changes drawn under a patch are not
    served to later tests."""
    _trial_changes.cache_clear()
    yield
    _trial_changes.cache_clear()


@pytest.fixture
def misread_class(monkeypatch):
    """``verifier.base_form`` patched to misread the first class on 4
    vertices whose base is semi-complete bipartite; the list receives
    that class."""
    misread, read = [], verifier.base_form

    def base_form(g):
        form = read(g)
        if g.n == 4 and form == SEMI_BIPARTITE and not misread:
            misread.append(g)
            return "misread"
        return form

    monkeypatch.setattr(verifier, "base_form", base_form)
    return misread
