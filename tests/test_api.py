"""The package's public surface: every exported name resolves."""

import lagdde


def test_every_exported_name_resolves():
    assert len(lagdde.__all__) == len(set(lagdde.__all__))
    for name in lagdde.__all__:
        assert getattr(lagdde, name, None) is not None, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lagdde import *", namespace)
    assert set(lagdde.__all__) <= set(namespace)
