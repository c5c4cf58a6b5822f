"""The package's export list."""

from collections import Counter

import diftgame


def test_all_names_resolve_once():
    assert [n for n, k in Counter(diftgame.__all__).items() if k > 1] == []
    assert [n for n in diftgame.__all__ if not hasattr(diftgame, n)] == []
