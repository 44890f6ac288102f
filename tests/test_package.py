import spedgp


def test_every_exported_name_resolves():
    missing = [name for name in spedgp.__all__ if not hasattr(spedgp, name)]
    assert not missing, f"__all__ names what spedgp does not define: {missing}"
    assert len(set(spedgp.__all__)) == len(spedgp.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from spedgp import *", namespace)
    assert set(spedgp.__all__) <= set(namespace)
