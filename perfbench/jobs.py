"""Jobs, their outcomes, and the pass loop shared by every workload.

A job is one public call (or one in-process ``idcalc.cli.run`` invocation)
followed by a check of its output.  The call is timed; the check is not.
The check returns ``ANSWERED`` for a certified answer that passed it and
``INCONCLUSIVE`` for an honest "cannot decide"; it raises ``CheckFailed``
when the output is wrong.  An exception from the call itself is a failure.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

ANSWERED = "answered"
INCONCLUSIVE = "inconclusive"
FAILED = "failed"


class CheckFailed(Exception):
    """The output of a job is wrong."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str]


@dataclass
class JobResult:
    name: str
    seconds: float
    outcome: str
    detail: str = ""


def run_job(job: Job) -> JobResult:
    t0 = time.perf_counter()
    try:
        out = job.call()
    except Exception as e:  # an unexpected exception is a failed job
        dt = time.perf_counter() - t0
        return JobResult(job.name, dt, FAILED, _describe(e))
    dt = time.perf_counter() - t0
    try:
        outcome = job.check(out)
    except Exception as e:  # a wrong or malformed output is a failed job
        return JobResult(job.name, dt, FAILED, _describe(e))
    if outcome not in (ANSWERED, INCONCLUSIVE):
        raise RuntimeError(f"check of {job.name} returned {outcome!r}")
    return JobResult(job.name, dt, outcome)


def _describe(e):
    """The exception and the deepest idcalc line it passed through."""
    if isinstance(e, CheckFailed):
        return str(e)
    frames = [f for f in traceback.extract_tb(e.__traceback__)
              if f"{os.sep}idcalc{os.sep}" in f.filename] or [None]
    where = "" if frames[-1] is None else \
        f" (idcalc/{os.path.basename(frames[-1].filename)}:{frames[-1].lineno})"
    return f"{type(e).__name__}: {e}{where}"


def run_pass(jobs, tracer=None):
    """Run every job once, in order; returns (wall seconds, results)."""
    results = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        results.append(run_job(job))
    return time.perf_counter() - t0, results
