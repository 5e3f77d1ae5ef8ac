import math
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import eta_zeta
from eta_zeta import (ComplexPoint, DomainError, ErrorBudget, EvalResult,
                      MethodTag, ParameterExhaustionError, eta)

import cold_start

SRC = Path(eta_zeta.__file__).resolve().parent.parent

# Modules a fresh interpreter must not load for import eta_zeta plus a value,
# nor for import eta_zeta.cli after it (__future__ alone costs 0.2 ms).
HEAVY = ("__future__", "dataclasses", "fractions", "decimal", "inspect", "ast",
         "concurrent.futures", "multiprocessing")
# The package's modules on that path: each costs GC-tracked objects in the
# set-up region, which ends a few tens below a gen-0 collection.
PACKAGE_PATH = ("types", "coefficients", "zeta_bridge")
FOOTPRINT_CODE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import eta_zeta
eta_zeta.eta(eta_zeta.ComplexPoint(0.73, 100.0))
eta_zeta.zeta(eta_zeta.ComplexPoint(0.5, 14.13))
print(" ".join(sorted(set(sys.modules) - before)))
import eta_zeta.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_and_first_values_load_no_heavy_module():
    proc = subprocess.run([sys.executable, "-I", "-c", FOOTPRINT_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    library, with_cli = (set(line.split()) for line in proc.stdout.splitlines())
    package = {name for name in library if name.split(".")[0] == "eta_zeta"}
    assert package == {"eta_zeta", *(f"eta_zeta.{name}" for name in PACKAGE_PATH)}
    assert library & {*HEAVY, "argparse"} == set()
    assert {name for name in with_cli - library
            if name.split(".")[0] == "eta_zeta"} == {"eta_zeta.cli"}
    assert with_cli & set(HEAVY) == set()


@pytest.mark.parametrize("measurement", ["setup", "scan_setup"])
def test_cold_start_runs_no_collection_before_the_first_value(measurement):
    # the benchmark's set-up region, import eta_zeta to the first value,
    # ends below CPython's gen-0 threshold (tests/cold_start.py prints its
    # headroom, 33 objects on 3.11): a collection inside it costs every cold
    # start
    code, *argv = cold_start.MEASUREMENTS[measurement]
    proc = subprocess.run([sys.executable, "-I", "-c", cold_start.HEADROOM_CODE, str(SRC),
                           *argv, "0"], capture_output=True, text=True, timeout=60, check=True)
    collected, path = proc.stdout.split()
    assert Path(path).resolve().is_relative_to(SRC)
    assert collected == "0"


def _result():
    return eta(ComplexPoint(-0.3, 20.0))  # every budget field nonzero


def test_fields_cannot_be_set():
    result = _result()
    for obj, name in ((ComplexPoint(0.5, 1.0), "sigma"), (result, "value"),
                      (result.budget, "total")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
        with pytest.raises(AttributeError):
            obj.extra = 0.0  # no per-instance dict


def test_pickle_round_trips():
    result = _result()
    for obj in (result, result.budget, ComplexPoint(0.5, 1.0)):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and type(back) is type(obj)
    assert pickle.loads(pickle.dumps(result)).method is result.method


def test_named_fields_unpack_and_compare_as_tuples():
    result = _result()
    value, budget, method, m = result
    assert (value, budget, method, m) == result == tuple(result)
    assert result[0] == result.value and budget is result.budget
    assert method is MethodTag.DIRECT26 and m == result.m == 27
    assert ComplexPoint(0.5, 1) == (0.5, 1.0) and ComplexPoint(0.5, 1).z == 0.5 + 1j
    assert hash(ComplexPoint(0.5, 1.0)) == hash((0.5, 1.0))
    assert repr(ComplexPoint(0.5, 1.0)) == "ComplexPoint(sigma=0.5, t=1.0)"
    assert EvalResult(value=1j, budget=ErrorBudget(0.0, 0.0, 0.0),
                      method=MethodTag.STEPWISE3, m=None).m is None
    assert ErrorBudget(1.0, 2.0, 3.0) == ErrorBudget.assemble(1.0, 2.0) == (1.0, 2.0, 3.0)


def test_method_tags_are_their_strings():
    # a tag is the str of its value, one object per member, iterated in
    # declaration order and pickled by name
    direct, stepwise = MethodTag.DIRECT26, MethodTag.STEPWISE3
    assert list(MethodTag) == [direct, stepwise]
    assert set(MethodTag) == {"Direct26", "Stepwise3"}
    for tag, text in ((direct, "Direct26"), (stepwise, "Stepwise3")):
        assert isinstance(tag, str) and tag == text and hash(tag) == hash(text)
        assert str(tag) == f"{tag}" == text and type(str(tag)) is str
        assert repr(tag) == repr(text)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(tag, protocol)) is tag


@pytest.mark.parametrize("sigma, t", [(math.inf, 0.0), (0.5, -math.inf),
                                      (math.nan, 1.0)])
def test_point_must_be_finite(sigma, t):
    with pytest.raises(DomainError, match="^evaluation point must be finite$"):
        ComplexPoint(sigma, t)
    with pytest.raises(DomainError, match="^evaluation point must be finite$"):
        ComplexPoint(0.5, 1.0)._replace(sigma=sigma, t=t)


@pytest.mark.parametrize("index, name", [(0, "truncation"), (1, "rounding")])
def test_budget_component_must_be_nonnegative(index, name):
    fields = [1e-9, 1e-9, 2e-9]
    fields[index] = -1e-300
    with pytest.raises(DomainError, match=f"^{name} must be nonnegative$"):
        ErrorBudget(*fields)
    with pytest.raises(DomainError, match=f"^{name} must be nonnegative$"):
        ErrorBudget(0.0, 0.0, 0.0)._replace(**{name: -1.0})
    fields[index] = math.inf
    with pytest.raises(ParameterExhaustionError,
                       match="^parameter exhaustion: the error budget exceeds "
                             "double range$"):
        ErrorBudget.assemble(*fields[:2])


def test_budget_checks_truncation_then_rounding_then_total():
    with pytest.raises(DomainError, match="^truncation must be nonnegative$"):
        ErrorBudget(-1.0, -1.0, math.inf)
    with pytest.raises(DomainError, match="^rounding must be nonnegative$"):
        ErrorBudget(1.0, -1.0, math.inf)
