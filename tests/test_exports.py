"""The package's exports: every name in ``csympl.__all__`` is bound."""

import csympl


def test_star_import_binds_every_name_in_all():
    assert [name for name in csympl.__all__ if not hasattr(csympl, name)] == []
    namespace = {}
    exec("from csympl import *", namespace)  # a stale name raises AttributeError here
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(csympl.__all__)
