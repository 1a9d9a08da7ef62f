"""cli-jobs: the 50-pair corpus (5 kernels x 10 laws) run through
``idcalc.cli.run`` in process, as a batch user would run it.

Jobs, 310 in all: ``domain``, ``transform`` with each of ``phi``, ``c``,
``es`` and ``sym``, and ``psi`` for every pair; ``largeness`` and ``tau``
for every kernel.  The seed fixes the order in which the jobs run.

Every report is validated against the report schema, and each answer is
compared with the golden table in ``golden_cli.json``: a yes/no flip is a
failed job, a move to "inconclusive" only lowers the answered share.  The
domain jobs also check the chain absolute => plain => compensated =>
essential and, for symmetric laws, that the determined verdicts agree.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from .jobs import ANSWERED, INCONCLUSIVE, Job, require

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_cli.json")

KERNELS = {
    "exp": {"type": "exp"},
    "log_inv": {"type": "log_inv"},
    "power1.5": {"type": "power", "alpha": 1.5},
    "power0.7": {"type": "power", "alpha": 0.7},
    "paz0.8": {"type": "power_at_zero", "exponent": 0.8},
}

_SYM2 = [{"xi": [1.0], "weight": 0.5}, {"xi": [-1.0], "weight": 0.5}]


def _law(nu, gamma, A=0.0):
    return {"schema_version": "1", "dim": 1, "A": A, "gamma": [gamma], "nu": nu}


# (spec, symmetric): the corpus laws, in the order of the test corpus
LAWS = [
    (_law({"type": "zero"}, 0.0), True),
    (_law({"type": "zero"}, 0.7), False),
    (_law({"type": "zero"}, 0.3, A=1.0), False),
    (_law({"type": "stable", "alpha": 0.6, "directions": _SYM2}, 0.0), True),
    (_law({"type": "stable", "alpha": 1.8, "directions": _SYM2}, 0.0), True),
    (_law({"type": "stable", "alpha": 0.8,
           "directions": [{"xi": [1.0], "weight": 1.0}]}, 0.2), False),
    (_law({"type": "atomic", "atoms": [{"x": [1.0], "mass": 2.0},
                                        {"x": [-0.5], "mass": 1.0}]}, 0.2), False),
    (_law({"type": "atomic", "atoms": [{"x": [0.8], "mass": 1.0},
                                        {"x": [-0.8], "mass": 1.0}]}, 0.0), True),
    (_law({"type": "gamma", "shape": 1.0, "rate": 1.0, "direction": [1.0]},
          -0.1), False),
    (_law({"type": "sum", "parts": [
        {"type": "stable", "alpha": 0.5,
         "directions": [{"xi": [1.0], "weight": 0.2}, {"xi": [-1.0], "weight": 0.2}]},
        {"type": "atomic", "atoms": [{"x": [2.0], "mass": 0.5}]}]}, 0.1), False),
]

VARIANTS = ("phi", "c", "es", "sym")
CHAIN = ("absolute", "plain", "compensated", "essential")

# ``idcalc transform --variant c`` raises a bare ValueError on these pairs
# (the affine fit takes more trace levels than the location trace has)
KNOWN_DEFECTS = frozenset(f"transform-c/power1.5/law{i}" for i in (0, 1, 2, 4, 7))


def invoke(argv):
    """Run the CLI in process; returns (exit code, stdout text)."""
    from idcalc import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


def report_validator(root):
    from jsonschema import Draft202012Validator
    with open(os.path.join(root, "docs", "schemas", "report.schema.json")) as fh:
        return Draft202012Validator(json.load(fh))


_STATUS_OF_RC = {0: "completed", 2: "inconclusive", 3: "error"}


def observe(command, results):
    """The answer a report gives: a value, or None when undetermined."""
    if command == "domain":
        return {key: (None if v["value"] == "unknown" else v["value"])
                for key, v in results["verdicts"].items()}
    if command == "transform":
        v = results["definable"]
        return v if isinstance(v, bool) else None
    if command == "psi":
        v = results["in_domain"]
        return v if isinstance(v, bool) else None
    if command == "largeness":
        return results["class"]
    if command == "tau":
        return results["realizable_as_decreasing_kernel"]
    raise ValueError(command)


def _checker(name, command, validator, golden, symmetric):
    def check(out):
        rc, text = out
        report = json.loads(text)
        errors = sorted(validator.iter_errors(report), key=str)
        require(not errors, f"report violates the schema: {errors[:1]}")
        require(_STATUS_OF_RC.get(rc) == report["status"],
                f"exit code {rc} with status {report['status']!r}")
        require(rc != 3, f"input rejected: {report['results']}")
        got = observe(command, report["results"])
        want = golden.get(name)
        if command == "domain":
            for key in CHAIN:
                require(want[key] is None or got[key] is None or got[key] == want[key],
                        f"{key} verdict flipped: {want[key]} -> {got[key]}")
            seq = [got[key] for key in CHAIN]
            require(not any(seq[i] == "yes" and seq[j] == "no"
                            for i in range(4) for j in range(i + 1, 4)),
                    f"domain chain violated: {seq}")
            if symmetric:
                require(len({v for v in seq if v is not None}) <= 1,
                        f"symmetric collapse violated: {seq}")
            return ANSWERED if None not in seq else INCONCLUSIVE
        if command == "tau":
            masses = report["results"]["interval_masses"]["masses"]
            require(all(m is None or (isinstance(m, float) and m >= 0.0)
                        for m in masses), f"bad occupation masses {masses}")
        if got is None:
            return INCONCLUSIVE
        require(want is None or got == want, f"answer flipped: {want} -> {got}")
        return ANSWERED
    return check


def job_specs():
    """(name, command, argv tail, kernel key, law index) for every job."""
    specs = []
    for kname in KERNELS:
        for i in range(len(LAWS)):
            tail = ["--dist", f"law{i}.json", "--kernel", f"{kname}.json"]
            specs.append((f"domain/{kname}/law{i}", "domain", ["domain"] + tail, i))
            for v in VARIANTS:
                specs.append((f"transform-{v}/{kname}/law{i}", "transform",
                              ["transform"] + tail + ["--variant", v], i))
            specs.append((f"psi/{kname}/law{i}", "psi", ["psi"] + tail, i))
        for command in ("largeness", "tau"):
            specs.append((f"{command}/{kname}", command,
                          [command, "--kernel", f"{kname}.json"], None))
    return specs


def write_fixtures(workdir):
    for kname, spec in KERNELS.items():
        with open(os.path.join(workdir, f"{kname}.json"), "w") as fh:
            json.dump(spec, fh)
    for i, (spec, _) in enumerate(LAWS):
        with open(os.path.join(workdir, f"law{i}.json"), "w") as fh:
            json.dump(spec, fh)


def build(seed, workdir, root):
    write_fixtures(workdir)
    validator = report_validator(root)
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    outdir = os.path.join(workdir, "out")
    jobs = []
    for name, command, argv, law in job_specs():
        argv = ["--out", outdir] + [
            os.path.join(workdir, a) if a.endswith(".json") else a for a in argv]
        symmetric = law is not None and LAWS[law][1]
        jobs.append(Job(name, (lambda argv=argv: invoke(argv)),
                        _checker(name, command, validator, golden, symmetric)))
    random.Random(seed).shuffle(jobs)
    return jobs
