"""Benchmark of idcalc: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cli-jobs --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds ``src/idcalc``; the metric
names, units and workloads are defined in ``BENCHMARK.json`` at its root.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` as the median of
five fresh processes that import idcalc and build the fixtures, then passes
over the workload's job list in this process for about ``--seconds``
seconds (always at least one pass).  ``--trace 1`` runs one untraced pass
here and one traced pass in each of two fresh processes; the per-layer
numbers come from the first, every count must repeat exactly in the second,
and ``trace.overhead_s`` is the traced pass's wall time minus the untraced
one's.  Every job's output is checked in both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when a job fails that is not a known defect of the program (listed in the
workload modules), or when a traced count does not repeat.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import harness  # noqa: E402

SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170


def run_worker(task, name, seed, workdir):
    script = os.path.join(harness.ROOT, "perfbench", "worker.py")
    proc = subprocess.run([sys.executable, script, task, name, str(seed), workdir],
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{task} worker failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name, seed, seconds, workdir):
    """End-to-end metrics and job outcomes of an untraced run."""
    from perfbench.jobs import ANSWERED, FAILED, run_pass
    setups = [run_worker("setup", name, seed, workdir)["setup_s"]
              for _ in range(SETUP_PROBES)]
    harness.import_program()
    jobs = harness.build_jobs(name, seed, workdir)
    passes = []
    start = time.perf_counter()
    while True:
        wall, results = run_pass(jobs)
        passes.append((wall, results))
        if time.perf_counter() - start + wall > seconds:
            break
    results = [r for _, rs in passes for r in rs]
    times = [r.seconds for r in results]
    # fixed by the job list, so that more passes leave the metric's meaning alone
    pct = harness.tail_percentile(len(jobs))
    outcomes = [r.outcome for r in results]
    metrics = {
        "jobs_per_s": harness.median([len(jobs) / wall for wall, _ in passes]),
        "job_p50_ms": 1e3 * harness.median(times),
        "job_tail_ms": 1e3 * harness.percentile(times, pct),
        "answered_share": outcomes.count(ANSWERED) / len(outcomes),
        "not_failed_share": 1.0 - outcomes.count(FAILED) / len(outcomes),
        "setup_s": harness.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"{len(jobs)} jobs x {len(passes)} passes = {len(times)} job samples; "
             f"job_tail_ms is p{pct}",
             f"failed_share {outcomes.count(FAILED) / len(outcomes):.4f}"]
    return metrics, results, notes


def trace(name, seed, workdir):
    """Per-layer metrics of a traced run, with the determinism gate."""
    from perfbench.jobs import JobResult, run_pass
    harness.import_program()
    jobs = harness.build_jobs(name, seed, workdir)
    wall, results = run_pass(jobs)
    first = run_worker("traced", name, seed, workdir)
    second = run_worker("traced", name, seed, workdir)
    metrics = dict(first["metrics"])
    metrics["trace.overhead_s"] = first["wall"] - wall
    metrics["trace.spans"] = first["spans"]
    units = {m["name"]: m["unit"] for m in harness.definition()["per_layer"]}
    again = dict(second["metrics"], **{"trace.spans": second["spans"]})
    unrepeated = [k for k, v in metrics.items()
                  if units[k] != "s" and k != "trace.overhead_s" and again[k] != v]
    os.makedirs(harness.RESULTS, exist_ok=True)
    with open(os.path.join(harness.RESULTS, f"trace-{name}-seed{seed}.json"), "w") as fh:
        json.dump({"metrics": metrics, "edges": first["edges"]}, fh, indent=1)
    for worker in (first, second):
        results += [JobResult(n, 0.0, o, d) for n, o, d in worker["outcomes"]]
    notes = [f"traced pass {first['wall']:.2f} s, untraced pass {wall:.2f} s; "
             f"{first['spans']} spans"]
    notes += [f"NOT REPEATED: {k} = {metrics[k]} then {again[k]}" for k in unrepeated]
    return metrics, results, notes, not unrepeated


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        harness.prepare()
    except harness.ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    definition = harness.definition()
    workdir = harness.fresh_workdir(args.workload)
    try:
        if args.trace:
            values, results, notes, repeated = trace(args.workload, args.seed, workdir)
            wanted = definition["per_layer"]
        else:
            values, results, notes = measure(args.workload, args.seed, args.seconds, workdir)
            repeated = True
            wanted = definition["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    known = harness.workload(args.workload).KNOWN_DEFECTS
    failures = sorted({(r.name, r.detail) for r in results if r.outcome == "failed"})
    unexpected = [f for f in failures if f[0] not in known]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for key, m in metrics.items():
        print(f"  {key:48s} {m['value']:>16.6g} {m['unit']}")
    for job, detail in failures:
        tag = "known defect" if job in known else "UNEXPECTED"
        print(f"  failed ({tag}): {job}: {detail}")
    print(json.dumps({"correct": repeated and not unexpected,
                      "attempted": len(results),
                      "failed": sum(r.outcome == "failed" for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
