"""Shared plumbing of the benchmark entry points: locating the program,
pinning threads, the workload table and the summary statistics."""

from __future__ import annotations

import importlib
import json
import math
import os
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_work"
RESULTS = ".perfbench_results"

WORKLOADS = {
    "cli-jobs": "perfbench.cli_jobs",
    "law-functionals": "perfbench.law_functionals",
    "simulate": "perfbench.simulate",
}

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ProgramMissing(Exception):
    """The checkout holds no idcalc source to benchmark."""


def prepare():
    """Pin BLAS to one thread, work from the checkout root and put its
    ``src`` first on the import path.  Call before numpy is imported."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "idcalc", "__init__.py")):
        raise ProgramMissing(f"no idcalc source under {SRC}")
    os.chdir(ROOT)
    sys.path[:0] = [SRC, ROOT]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def import_program():
    import idcalc
    import idcalc.cli  # noqa: F401
    where = os.path.realpath(idcalc.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ProgramMissing(f"idcalc was imported from {where}, not from {SRC}")


def definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def workload(name):
    return importlib.import_module(WORKLOADS[name])


def fresh_workdir(name):
    """Empty working directory for one workload, relative to the root."""
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def build_jobs(name, seed, workdir):
    return workload(name).build(seed, workdir, ROOT)


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples beyond it,
    and p90 from 100 samples on."""
    return max(0, min(90, math.floor(100.0 * (1.0 - 10.0 / n))))


def percentile(values, pct):
    ordered = sorted(values)
    k = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[k]


def median(values):
    return statistics.median(values)
