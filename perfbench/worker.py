"""One task of the benchmark in a fresh process; prints one JSON line.

    python3 perfbench/worker.py setup  <workload> <seed> <workdir>
    python3 perfbench/worker.py traced <workload> <seed> <workdir>

``setup`` times ``import idcalc`` and ``import idcalc.cli`` plus building
the workload's fixtures.  ``traced`` installs the tracer, runs one pass of
the workload and reports its wall time, job outcomes and per-layer numbers.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import harness  # noqa: E402


def main(task, name, seed, workdir):
    harness.prepare()
    seed = int(seed)
    if task == "setup":
        t0 = time.perf_counter()
        harness.import_program()
        harness.build_jobs(name, seed, workdir)
        return {"setup_s": time.perf_counter() - t0}
    from perfbench.jobs import run_pass
    from perfbench.tracing import Tracer
    harness.import_program()
    tracer = Tracer()
    tracer.install()
    jobs = harness.build_jobs(name, seed, workdir)
    tracer.reset()
    wall, results = run_pass(jobs, tracer)
    names = [m["name"] for m in harness.definition()["per_layer"]
             if not m["name"].startswith("trace.")]
    return {"wall": wall, "outcomes": [[r.name, r.outcome, r.detail] for r in results],
            **tracer.summary(names)}


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:])))
