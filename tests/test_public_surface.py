"""The package's public surface: every exported name resolves."""

import antiassoc


def test_every_exported_name_resolves():
    missing = [name for name in antiassoc.__all__ if not hasattr(antiassoc, name)]
    assert missing == []
    assert len(set(antiassoc.__all__)) == len(antiassoc.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from antiassoc import *", namespace)
    assert set(antiassoc.__all__) <= namespace.keys()
