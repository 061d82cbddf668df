"""The package's public names."""

from __future__ import annotations

import stylauth


def test_every_public_name_resolves():
    missing = [name for name in stylauth.__all__ if not hasattr(stylauth, name)]
    assert missing == []
    assert len(set(stylauth.__all__)) == len(stylauth.__all__)
