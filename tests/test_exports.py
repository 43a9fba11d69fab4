"""The package's public names."""

import idealkit


def test_every_exported_name_resolves():
    # A deleted class or function must leave `__all__` as well.
    missing = [name for name in idealkit.__all__
               if not hasattr(idealkit, name)]
    assert missing == []
    assert len(set(idealkit.__all__)) == len(idealkit.__all__)
