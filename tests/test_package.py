import spedgp

from .test_spectral import name_references


def test_every_exported_name_resolves():
    missing = [name for name in spedgp.__all__ if not hasattr(spedgp, name)]
    assert not missing, f"__all__ names what spedgp does not define: {missing}"
    assert len(set(spedgp.__all__)) == len(spedgp.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from spedgp import *", namespace)
    assert set(spedgp.__all__) <= set(namespace)


def test_only_the_rules_module_names_numbers():
    # counts, rates and numeric arrays are checked by the rules in
    # exceptions.py; no other module makes a type test on a number of its own
    refs = name_references({"numbers"})
    offenders = [ref for ref in refs if not ref.startswith("exceptions.py:")]
    assert not offenders, f"numbers named outside the rules module: {offenders}"
    assert refs, "the rules module no longer names numbers"
