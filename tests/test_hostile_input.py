"""Non-finite and degenerate parameters are rejected when objects are built,
and non-finite arguments when a law is evaluated.

Each case is checked twice: the API call raises ``ValueError``, and the
CLI, given the same parameters as a schema-valid spec, exits 3 with an error
report instead of a verdict.  Malformed occupation measures and ``tau``
grids, which only the CLI reads, exit 3 the same way.
"""

import json
import math

import numpy as np
import pytest

import idcalc as ic
from idcalc import schemas
from idcalc.cli import run, validate
from idcalc.kernels import (
    Kernel,
    exp_kernel,
    indicator_kernel,
    log_power_kernel,
    power_at_zero_kernel,
    power_tail_kernel,
    tau_exponential,
    tau_from_atoms,
    tau_measure,
)

NAN, INF = math.nan, math.inf


def _dist(nu, dim=1, gamma=(0.0,)):
    return {"dim": dim, "gamma": list(gamma), "nu": nu}


def _stable(xi, weight):
    return {"type": "stable", "alpha": 1.5, "directions": [{"xi": xi, "weight": weight}]}


def _atomic(x, mass):
    return {"type": "atomic", "atoms": [{"x": x, "mass": mass}]}


def _gamma(shape, direction):
    return {"type": "gamma", "shape": shape, "rate": 1.0, "direction": direction}


ZERO = {"type": "zero"}

# (id, API call, CLI spec as ("dist" | "kernel", spec) or None)
CASES = [
    ("stable-nan-weight", lambda: ic.StableMeasure(1.5, [[1.0]], [NAN]),
     ("dist", _dist(_stable([1.0], NAN)))),
    ("stable-non-unit-xi", lambda: ic.StableMeasure(1.5, [[2.0]], [1.0]),
     ("dist", _dist(_stable([2.0], 1.0)))),
    ("atomic-nan-mass", lambda: ic.AtomicMeasure([[1.0]], [NAN]),
     ("dist", _dist(_atomic([1.0], NAN)))),
    ("atomic-inf-point", lambda: ic.AtomicMeasure([[INF]], [1.0]),
     ("dist", _dist(_atomic([INF], 1.0)))),
    ("atomic-nan-point", lambda: ic.AtomicMeasure([[NAN]], [1.0]),
     ("dist", _dist(_atomic([NAN], 1.0)))),
    ("atomic-at-origin", lambda: ic.AtomicMeasure([[0.0]], [1.0]),
     ("dist", _dist(_atomic([0.0], 1.0)))),
    # the CLI has no radial measure type
    ("radial-nan-weight", lambda: ic.RadialMeasure(
        [[1.0]], [NAN], ic.RadialDensity(lambda r: np.exp(-r) / r, order_zero=-1.0,
                                         order_inf=-INF)), None),
    ("gamma-zero-direction", lambda: ic.gamma_measure(1.0, 1.0, [0.0]),
     ("dist", _dist(_gamma(1.0, [0.0])))),
    ("gamma-nan-shape", lambda: ic.gamma_measure(NAN, 1.0, [1.0]),
     ("dist", _dist(_gamma(NAN, [1.0])))),
    ("nan-location", lambda: ic.Triplet(0.0, None, [NAN]),
     ("dist", _dist(ZERO, gamma=[NAN]))),
    ("dim-vs-gamma", lambda: ic.Triplet(0.0, ic.ZeroMeasure(2), [0.0]),
     ("dist", _dist(ZERO, dim=2))),
    ("dim-vs-nu", lambda: ic.Triplet(0.0, ic.StableMeasure(1.5, [[1.0, 0.0]], [1.0]),
                                     [0.0]),
     ("dist", _dist(_stable([1.0, 0.0], 1.0), gamma=[0.0, 0.0]))),
    ("power-nan", lambda: power_tail_kernel(NAN),
     ("kernel", {"type": "power", "alpha": NAN})),
    ("power-at-zero-nan", lambda: power_at_zero_kernel(NAN),
     ("kernel", {"type": "power_at_zero", "exponent": NAN})),
    ("exp-nan", lambda: exp_kernel(NAN), ("kernel", {"type": "exp", "rate": NAN})),
    ("tau-exponential-nan", lambda: tau_exponential(NAN),
     ("kernel", {"type": "from_tau", "tau": {"family": "exponential", "rate": NAN}})),
    ("log-power-nan", lambda: log_power_kernel(NAN),
     ("kernel", {"type": "log_power", "beta": NAN})),
    ("indicator-nan-height", lambda: indicator_kernel(NAN),
     ("kernel", {"type": "indicator", "height": NAN})),
    ("tau-atom-nan-mass", lambda: tau_from_atoms([(0.5, NAN), (0.7, NAN)]), None),
    ("tau-atom-nan-location", lambda: tau_from_atoms([(NAN, 1.0)]), None),
    ("tau-atom-inf-location", lambda: tau_from_atoms([(0.5, 1.0), (INF, 1.0)]), None),
    ("psi-nan-tau-atom", lambda: ic.psi(tau_from_atoms([(0.5, NAN)]),
                                        ic.StableMeasure(1.5, [[1.0]], [1.0])), None),
    # the CLI draws its own arguments
    ("cumulant-nan-argument", lambda: ic.cumulant(
        ic.Triplet(0.0, ic.StableMeasure(1.5, [[1.0]], [1.0]), [0.0]), NAN), None),
]


@pytest.mark.parametrize("build", [c[1] for c in CASES], ids=[c[0] for c in CASES])
def test_api_rejects(build):
    with pytest.raises(ValueError):
        build()


CLI_CASES = [c for c in CASES if c[2] is not None]


@pytest.mark.parametrize("kind,spec", [c[2] for c in CLI_CASES],
                         ids=[c[0] for c in CLI_CASES])
def test_cli_exits_3(tmp_path, kind, spec, capsys):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(spec))     # NaN and Infinity, as Python's json reads them
    if kind == "dist":
        argv = ["transform", "--kernel", "exp", "--dist", str(path)]
    else:
        argv = ["largeness", "--kernel", str(path)]
    assert run(["--out", str(tmp_path)] + argv) == 3
    with open(tmp_path / "report.json") as fh:
        rep = json.load(fh)
    assert rep["status"] == "error"
    prefix = "distribution" if kind == "dist" else "kernel"
    assert rep["results"]["error"].startswith(f"{prefix} spec invalid: ")


def _from_tau(tau):
    return {"type": "from_tau", "tau": tau}


# (id, kernel spec, extra ``tau`` arguments)
TAU_CASES = [
    ("from-tau-no-atoms", _from_tau({"family": "atoms"}), []),
    ("from-tau-atom-without-mass", _from_tau({"family": "atoms", "atoms": [{"u": 1.0}]}),
     []),
    ("from-tau-rate-string", _from_tau({"family": "exponential", "rate": "x"}), []),
    # an atomic tau has atoms at both ends of its support (condition B)
    ("from-tau-atomic", _from_tau({"family": "atoms", "atoms": [
        {"u": 0.5, "mass": 1.0}, {"u": 1.5, "mass": 2.0}]}), []),
    ("from-tau-nan-masses", _from_tau({"family": "atoms", "atoms": [
        {"u": 0.5, "mass": NAN}, {"u": 0.7, "mass": NAN}]}), []),
    ("tau-negative-cells", {"type": "exp"}, ["--tau-cells", "-5"]),
    ("tau-zero-cells", {"type": "exp"}, ["--tau-cells", "0"]),
    ("tau-unordered-grid", {"type": "exp"}, ["--tau-lo", "2", "--tau-hi", "1"]),
    ("tau-nan-grid", {"type": "exp"}, ["--tau-lo", "nan"]),
    ("tau-infinite-grid", {"type": "exp"}, ["--tau-hi", "inf"]),
]


@pytest.mark.parametrize("spec,extra", [c[1:] for c in TAU_CASES],
                         ids=[c[0] for c in TAU_CASES])
def test_cli_tau_input_exits_3(tmp_path, spec, extra, capsys):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(spec))
    assert run(["--out", str(tmp_path), "tau", "--kernel", str(path), *extra]) == 3
    with open(tmp_path / "report.json") as fh:
        rep = json.load(fh)
    assert rep["status"] == "error"
    validate(rep, schemas.JOB_REPORT_SCHEMA)


def test_infinite_tau_atom_mass_stays_legal():
    # the occupation measure of a constant kernel on an infinite interval
    k = Kernel("one", 0.0, INF, lambda s: np.ones_like(np.asarray(s, dtype=float)),
               monotone_decreasing=True)
    assert tau_measure(k).atoms == [(1.0, INF)]
