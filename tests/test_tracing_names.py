"""Every name the per-layer tracer wraps exists in the package.

``perfbench/tracing.py`` wraps functions and methods by name, and a renamed
or deleted one would only fail once a traced benchmark run installs the
wrappers.  This test loads the tracer by path and resolves its tables.
"""

import importlib
import importlib.util
import pathlib

import pytest

from test_driver_oracle import EXITS

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing()


@pytest.mark.parametrize("module,attr", [f[:2] for f in TRACING_MODULE.FUNCTIONS],
                         ids=[f[2] for f in TRACING_MODULE.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module,cls,methods", [m[:3] for m in TRACING_MODULE.METHODS],
                         ids=[m[3] for m in TRACING_MODULE.METHODS])
def test_traced_methods_resolve(module, cls, methods):
    klass = getattr(importlib.import_module(module), cls)
    assert [m for m in methods if not callable(getattr(klass, m, None))] == []


def test_domain_verdicts_stay_traced():
    traced = {attr for module, attr, _ in TRACING_MODULE.FUNCTIONS
              if module == "idcalc.transform"}
    assert {"absolutely_definable", "definable_verdict", "compensated_verdict",
            "essential_conditions"} <= traced


def test_oracle_exit_rules_are_traced_rules():
    # the traced exit counters are keyed by these labels, so a rule renamed in
    # the drivers' table would drop out of them; exceptions are no exit rule
    exits = set().union(*EXITS.values()) - {"QuadratureFailure", "InconclusiveError"}
    assert exits == set(TRACING_MODULE.DRIVER_RULES)
