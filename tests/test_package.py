import argparse

import numpy as np
import pytest

import spedgp
from spedgp import InvalidInputError, cli
from spedgp.cokrige import Prediction, make_fit_data
from spedgp.oracle import band_feature, power_curve
from spedgp.spectral import as_structure_curve

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


# Caller-facing numeric arguments, each as a call that takes the value under
# test and a scratch directory, with a value the argument accepts. A vector
# argument is tried whole and through its entry 1.
GRID = [0.01, 0.05, 0.15]
CURVE = [0.0, 1.0, 0.5, -0.5, 0.25]


def _oracle_design():
    return spedgp.gen_sinusoid(spedgp.SinusoidSpec(1.0, 0.5, 0.3, 1.0), 17)


def _model():
    designs = [spedgp.gen_sinusoid(s, 5) for s in spedgp.sample_designs(4, seed=0)]
    data = make_fit_data(designs, np.arange(12.0).reshape(4, 3), GRID)
    return spedgp.TrainedEmulator(data=data, z=np.ones(data.nz), beta=np.array([0.0, 1.0]),
                                  Sigma=np.eye(3))


def _entry(call, vector):
    return lambda v, tmp: call([*vector[:1], v, *vector[2:]], tmp)


def _vector(name, call, vector):
    return [(name, call, vector), (f"{name} entry", _entry(call, vector), vector[1])]


def _spec(k):
    return lambda v, _: spedgp.SinusoidSpec(*[v if j == k else x
                                              for j, x in enumerate((1.0, 0.5, 0.3, 1.0))])


NUMERIC_ARGUMENTS = [
    *_vector("as_structure_curve", lambda v, _: as_structure_curve(v), CURVE),
    *_vector("dft_modulus", lambda v, _: spedgp.dft_modulus(v), CURVE),
    *_vector("band_feature", lambda v, _: band_feature(v), [0.0] * 17),
    ("StructureDesign diameter", lambda v, _: spedgp.StructureDesign(v, CURVE), 1.0),
    *_vector("StructureDesign curve", lambda v, _: spedgp.StructureDesign(1.0, v), CURVE),
    # features=None is a design without provenance, so only an entry is tried
    ("StructureDesign features entry",
     _entry(lambda v, _: spedgp.StructureDesign(1.0, CURVE, v), [1.0, 0.5, 0.3, 1.0]), 0.5),
    *[(f"SinusoidSpec {key}", _spec(k), 0.5) for k, key in enumerate(("d", "A", "omega", "phi"))],
    ("Dataset responses", lambda v, _: spedgp.Dataset(
        [spedgp.StructureDesign(1.0, CURVE)], v, GRID), [[1.0, 2.0, 3.0]]),
    ("Dataset responses entry", lambda v, _: spedgp.Dataset(
        [spedgp.StructureDesign(1.0, CURVE)], [[1.0, v, 3.0]], GRID), 2.0),
    *_vector("Dataset grid", lambda v, _: spedgp.Dataset(
        [spedgp.StructureDesign(1.0, CURVE)], [[1.0, 2.0, 3.0]], v), GRID),
    *_vector("log_stress", lambda v, _: spedgp.log_stress(v), [1.0, 2.0, 3.0]),
    *_vector("unlog_stress", lambda v, _: spedgp.unlog_stress(v), [1.0, 2.0, 3.0]),
    *_vector("synthetic_oracle grid",
             lambda v, _: spedgp.synthetic_oracle(_oracle_design(), v), GRID),
    *_vector("power_curve grid", lambda v, _: power_curve(1.0, 1.0, v), GRID),
    ("hpd_interval level", lambda v, _: spedgp.hpd_interval(
        Prediction(mean=np.zeros(3), scale=0.5, Sigma=np.eye(3)), v), 0.9),
    ("gen --test-n", lambda v, tmp: cli._cmd_gen(argparse.Namespace(
        n=2, test_n=v, seed=0, p=17, out=str(tmp))), 0),
    *_vector("MimicProblem active_set", lambda v, _: spedgp.MimicProblem(
        model=_model(), target_log=np.zeros(3), active_set=v), [0, 1]),
]
SPOT_IDS = [name for name, _, _ in NUMERIC_ARGUMENTS]


@pytest.mark.parametrize("call,valid", [(call, valid) for _, call, valid in NUMERIC_ARGUMENTS],
                         ids=SPOT_IDS)
def test_each_numeric_argument_spot_accepts_a_valid_value(call, valid, tmp_path):
    # so that a rejection below comes from the argument under test
    call(valid, tmp_path)


@pytest.mark.parametrize("value", [None, "1", True, np.True_],
                         ids=["None", "string", "bool", "numpy_bool"])
@pytest.mark.parametrize("call", [call for _, call, _ in NUMERIC_ARGUMENTS], ids=SPOT_IDS)
def test_a_numeric_argument_of_the_wrong_type_is_invalid_input(call, value, tmp_path):
    # every caller-facing number goes through the rules of exceptions.py
    with pytest.raises(InvalidInputError):
        call(value, tmp_path)
    assert not any(tmp_path.iterdir()), "the check ran after files were written"
