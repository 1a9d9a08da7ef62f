"""simulate: ``idcalc simulate --emit csv`` in process, plus the shifted-law
control through ``ecf_check``.

The time goes to numpy sampling and to the sample-file writes, with
quadrature only for the mesh bias and the analytic exponent, so a
quadrature change should leave this workload as it is and a sampler change
should move only this one.

Eight rounds of seven jobs, each round with its own Monte Carlo seeds drawn
from the benchmark seed (20000 paths, the CLI default):
  constant       criterion-10 fixture: indicator kernel on (0, 4), mesh 8
  exponential    criterion-10 fixture: exp kernel, window (0, 8), mesh 256
  symmetrized    criterion-10 fixture: the symmetrized law, indicator kernel
  stable1.5-gc   symmetric stable 1.5, cutoff 0.05, Gaussian compensation
  stable2d-sinc  a 2-d stable 1.2 law under sinc, cutoff 0.05, compensation
  gamma-default  gamma(1, 1) at the default cutoff
  control        the exponential fixture's samples against the law shifted
                 by 1, through ecf_check: must be far off (> 10 sigma)
Each CLI job passes when its ECF deviation is below 4 sigma and its two CSV
files hold the rows the report promises.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .cli_jobs import invoke, report_validator
from .jobs import ANSWERED, Job, require

ROUNDS = 8
PATHS = 20000
Z_POINTS = 10
ECF_LIMIT = 4.0
CONTROL_MIN = 10.0

# the radial branch of the jump sampler tabulates the inverse CDF on a
# uniform grid, too coarse for the 1/r density near the default cutoff
KNOWN_DEFECTS = frozenset(f"gamma-default/r{j}" for j in range(ROUNDS))

_CP = {"dim": 1, "gamma": [0.5], "nu": {"type": "atomic", "atoms": [{"x": [1.0], "mass": 1.0}]}}
FIXTURES = {
    "k_indicator": {"type": "indicator", "height": 1.0, "interval": [0.0, 4.0]},
    "k_exp": {"type": "exp"},
    "k_sinc": {"type": "sinc"},
    "compound_poisson": _CP,
    "symmetrized": {"dim": 1, "gamma": [0.0], "nu": {"type": "atomic", "atoms": [
        {"x": [1.0], "mass": 1.0}, {"x": [-1.0], "mass": 1.0}]}},
    "stable1.5": {"dim": 1, "gamma": [0.0], "nu": {"type": "stable", "alpha": 1.5, "directions": [
        {"xi": [1.0], "weight": 0.5}, {"xi": [-1.0], "weight": 0.5}]}},
    "stable2d": {"dim": 2, "gamma": [0.0, 0.0], "nu": {"type": "stable", "alpha": 1.2, "directions": [
        {"xi": [1.0, 0.0], "weight": 0.5}, {"xi": [0.0, 1.0], "weight": 0.5},
        {"xi": [-0.6, -0.8], "weight": 0.4}]}},
    "gamma": {"dim": 1, "gamma": [0.0], "nu": {"type": "gamma", "shape": 1.0, "rate": 1.0,
                                                 "direction": [1.0]}},
}

# name -> (law, kernel, extra simulate arguments)
CLI_JOBS = {
    "constant": ("compound_poisson", "k_indicator", ["--window", "0", "4", "--mesh", "8"]),
    "exponential": ("compound_poisson", "k_exp", ["--window", "0", "8", "--mesh", "256"]),
    "symmetrized": ("symmetrized", "k_indicator", ["--window", "0", "4", "--mesh", "8"]),
    "stable1.5-gc": ("stable1.5", "k_exp", ["--cutoff", "0.05", "--gaussian-compensation"]),
    "stable2d-sinc": ("stable2d", "k_sinc", ["--cutoff", "0.05", "--gaussian-compensation"]),
    "gamma-default": ("gamma", "k_exp", []),
}


def _count_rows(path):
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def _cli_check(validator):
    def check(out):
        rc, text = out
        report = json.loads(text)
        errors = sorted(validator.iter_errors(report), key=str)
        require(not errors, f"report violates the schema: {errors[:1]}")
        require(rc == 0 and report["status"] == "completed",
                f"exit code {rc}, status {report['status']!r}")
        res = report["results"]
        dev = res["max_sigma_deviation"]
        require(dev < ECF_LIMIT, f"ECF deviation {dev:.1f} sigma >= {ECF_LIMIT}")
        require(_count_rows(res["csv"]) == Z_POINTS + 1, "ecf.csv rows")
        require(_count_rows(res["samples_csv"]) == res["n_paths"] + 1, "samples.csv rows")
        return ANSWERED
    return check


def _control_job(name, mc_seed):
    import idcalc as ic
    from idcalc.kernels import exp_kernel
    from idcalc.mc import SimConfig, ecf_check, sample_integral, window_exponent

    def call():
        k = exp_kernel()
        law = ic.Triplet(0.0, ic.AtomicMeasure([[1.0]], [1.0]), [0.5])
        shifted = ic.Triplet(0.0, ic.AtomicMeasure([[1.0]], [1.0]), [1.5])
        samples = sample_integral(k, law, 0.0, 8.0,
                                  SimConfig(mesh_points=256, n_paths=PATHS, seed=mc_seed))
        zs = np.linspace(0.2, 2.0, Z_POINTS)[:, None]
        return ecf_check(samples, window_exponent(k, shifted, 0.0, 8.0), zs).max_sigma_deviation

    def check(dev):
        require(dev > CONTROL_MIN, f"shifted law not detected: {dev:.1f} sigma")
        return ANSWERED
    return Job(name, call, check)


def build(seed, workdir, root):
    for name, spec in FIXTURES.items():
        with open(os.path.join(workdir, f"{name}.json"), "w") as fh:
            json.dump(spec, fh)
    validator = report_validator(root)
    check = _cli_check(validator)
    mc_seeds = np.random.default_rng(seed).integers(1, 2**31, size=(ROUNDS, len(CLI_JOBS) + 1))
    jobs = []
    for j in range(ROUNDS):
        for i, (name, (law, kernel, extra)) in enumerate(CLI_JOBS.items()):
            out = os.path.join(workdir, f"out-{name}")
            argv = ["--out", out, "simulate", "--emit", "csv",
                    "--dist", os.path.join(workdir, f"{law}.json"),
                    "--kernel", os.path.join(workdir, f"{kernel}.json"),
                    "--paths", str(PATHS), "--z-points", str(Z_POINTS),
                    "--seed", str(mc_seeds[j, i])] + extra
            jobs.append(Job(f"{name}/r{j}", (lambda argv=argv: invoke(argv)), check))
        jobs.append(_control_job(f"control/r{j}", int(mc_seeds[j, -1])))
    return jobs
