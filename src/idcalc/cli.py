"""Batch front end.

Reads JSON descriptions of distributions and kernels, runs the requested
analysis, and writes a JSON report (plus CSV for simulation grids).  Exit
codes: 0 completed (including negative verdicts), 2 when any verdict is
inconclusive or a budget was exhausted, 3 for malformed input.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import math
import os
import sys

import numpy as np
from jsonschema import ValidationError
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from . import schemas
from .errors import (
    ConditionBViolated,
    IdcalcError,
    InconclusiveError,
    NotDefinable,
    NotInDomain,
    SchemaError,
)
from .domains import _PSI_LADDER, _strongest, classify_largeness
from .idlaw import (
    Triplet,
    classify_type,
    drift,
    dual,
    mean,
)
from .kernels import (
    BUILTIN_KERNELS,
    Kernel,
    TauMeasure,
    check_condition_B,
    kernel_from_tau,
    tau_exponential,
    tau_from_atoms,
    tau_gaussian,
    tau_measure,
)
from .measures import (
    AtomicMeasure,
    StableMeasure,
    SumMeasure,
    ZeroMeasure,
    compound_poisson_empirical,
    gamma_measure,
)
from .mc import SimConfig, ecf_check, sample_integral, window_exponent
from .transform import (
    _domain_pass,
    phi,
    phi_ab,
    phi_c,
    phi_es,
    phi_sym,
    psi,
)
from .verdicts import Verdict

INF = math.inf


# ---------------------------------------------------------------------------
# JSON -> objects
# ---------------------------------------------------------------------------

# id(schema) -> (schema, compiled validator, passed specs); the schema is
# held so that its id is not reused while the entry lives.  The passed specs
# map the canonical JSON text of each instance that passed to a parsed copy.
_VALIDATORS = {}
# most passed specs remembered per schema
_PASSED_CAP = 256


def validate(instance, schema):
    """``jsonschema.validate`` with the schema checked against its
    meta-schema and compiled once per process, at first use: raises the
    same best-match ``ValidationError``, and the same
    ``jsonschema.exceptions.SchemaError`` for a bad schema.  An instance
    with the canonical JSON text of one that passed, and equal to that text
    parsed, is not checked again: the text tells 1, 1.0 and true apart, and
    the equality tells lists from tuples and str keys from int keys."""
    entry = _VALIDATORS.get(id(schema))
    if entry is None:
        cls = validator_for(schema)
        cls.check_schema(schema)
        entry = _VALIDATORS[id(schema)] = (schema, cls(schema), {})
    passed = entry[2]
    try:
        key = json.dumps(instance, sort_keys=True)
    except (TypeError, ValueError):
        key = None
    if key in passed and passed[key] == instance:
        return
    error = best_match(entry[1].iter_errors(instance))
    if error is not None:
        raise error
    if key is not None and len(passed) < _PASSED_CAP:
        passed[key] = json.loads(key)


def _measure_from_spec(spec, dim):
    kind = spec["type"]
    if kind == "zero":
        return ZeroMeasure(dim)
    if kind == "atomic":
        pts = [a["x"] for a in spec["atoms"]]
        ms = [a["mass"] for a in spec["atoms"]]
        return AtomicMeasure(pts, ms)
    if kind == "stable":
        dirs = [d["xi"] for d in spec["directions"]]
        ws = [d["weight"] for d in spec["directions"]]
        return StableMeasure(spec["alpha"], dirs, ws)
    if kind == "gamma":
        return gamma_measure(spec["shape"], spec["rate"], spec["direction"])
    if kind == "compound_poisson_empirical":
        return compound_poisson_empirical(spec["jumps"], spec.get("rate", 1.0))
    if kind == "sum":
        return SumMeasure([_measure_from_spec(p, dim) for p in spec["parts"]])
    raise SchemaError(f"unknown measure type {kind!r}")


def triplet_from_spec(spec) -> Triplet:
    try:
        validate(spec, schemas.DISTRIBUTION_SCHEMA)
    except ValidationError as e:
        raise SchemaError(f"distribution spec invalid: {e.message}")
    dim = spec["dim"]
    try:
        t = Triplet(spec.get("A", 0.0), _measure_from_spec(spec["nu"], dim),
                    spec["gamma"])
        if t.dim != dim:
            raise ValueError(f"dim is {dim} but gamma and nu have dimension {t.dim}")
    except ValueError as e:
        raise SchemaError(f"distribution spec invalid: {e}") from e
    return t


def triplet_to_spec(t: Triplet, nu_note=None):
    out = {"schema_version": schemas.SCHEMA_VERSION, "dim": t.dim,
           "A": np.asarray(t.A).tolist(), "gamma": np.asarray(t.gamma).tolist()}
    nu = t.nu
    if isinstance(nu, ZeroMeasure):
        out["nu"] = {"type": "zero"}
    elif isinstance(nu, AtomicMeasure):
        out["nu"] = {"type": "atomic", "atoms": [
            {"x": p.tolist(), "mass": float(m)}
            for p, m in zip(nu.points, nu.masses)]}
    elif isinstance(nu, StableMeasure):
        out["nu"] = {"type": "stable", "alpha": nu.alpha, "directions": [
            {"xi": d.tolist(), "weight": float(w)}
            for d, w in zip(nu.directions, nu.weights)]}
    else:
        out["nu"] = {"type": "opaque", "repr": type(nu).__name__}
        if nu_note:
            out["nu"]["note"] = nu_note
    return out


def _tau_from_spec(spec) -> TauMeasure:
    family = spec.get("family")
    if family == "exponential":
        return tau_exponential(spec.get("rate", 1.0))
    if family == "gaussian":
        return tau_gaussian()
    if family == "atoms":
        return tau_from_atoms([(a["u"], a["mass"]) for a in spec["atoms"]])
    raise SchemaError(f"unknown occupation-measure family {family!r}")


def kernel_from_spec(spec) -> Kernel:
    try:
        validate(spec, schemas.KERNEL_SCHEMA)
    except ValidationError as e:
        raise SchemaError(f"kernel spec invalid: {e.message}")
    try:
        return _kernel_from_spec(spec)
    except (ValueError, ConditionBViolated) as e:
        raise SchemaError(f"kernel spec invalid: {e}") from e


def _kernel_from_spec(spec):
    kind = spec["type"]
    if kind == "exp":
        return BUILTIN_KERNELS["exp"](spec.get("rate", 1.0))
    if kind == "log_inv":
        return BUILTIN_KERNELS["log_inv"]()
    if kind == "power":
        if "alpha" not in spec:
            raise SchemaError("power kernel needs the tail index 'alpha'")
        return BUILTIN_KERNELS["power"](spec["alpha"])
    if kind == "power_at_zero":
        if "exponent" not in spec:
            raise SchemaError("power_at_zero kernel needs 'exponent'")
        return BUILTIN_KERNELS["power_at_zero"](spec["exponent"],
                                                spec.get("b", 1.0))
    if kind == "double_exp":
        return BUILTIN_KERNELS["double_exp"]()
    if kind == "log_power":
        if "beta" not in spec:
            raise SchemaError("log_power kernel needs 'beta'")
        return BUILTIN_KERNELS["log_power"](spec["beta"],
                                            spec.get("at_zero", False))
    if kind == "sinc":
        return BUILTIN_KERNELS["sinc"]()
    if kind == "indicator":
        iv = spec.get("interval", [0.0, 1.0])
        return BUILTIN_KERNELS["indicator"](spec.get("height", 1.0),
                                            _num(iv[0]), _num(iv[1]))
    if kind == "from_tau":
        if "tau" not in spec:
            raise SchemaError("from_tau kernel needs a 'tau' object")
        return kernel_from_tau(_tau_from_spec(spec["tau"]))
    raise SchemaError(f"unknown kernel type {kind!r}")


def _num(x):
    if x == "inf":
        return INF
    if x == "-inf":
        return -INF
    return float(x)


def _verdict_json(v: Verdict):
    return {"value": v.truth.value, "reason": v.reason,
            "witness": _plain(v.witness)}


def _plain(obj):
    """Make values JSON-encodable (inf -> string sentinels)."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": _plain(obj.real), "im": _plain(obj.imag)}
    return obj


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args, inputs, report):
    t = _load_triplet(args, inputs)
    results = {"type": classify_type(t).value}
    for label, fn in (("drift", drift), ("mean", mean)):
        try:
            results[label] = np.asarray(fn(t)).tolist()
        except IdcalcError as e:
            results[label] = {"error": type(e).__name__, "detail": str(e)}
    report["results"] = results
    return 0


def _cmd_dual(args, inputs, report):
    t = _load_triplet(args, inputs)
    d = dual(t)
    report["results"] = {"dual": triplet_to_spec(d)}
    return 0


_TRANSFORMS = {"phi": phi, "es": phi_es, "c": phi_c, "sym": phi_sym,
               "ab": phi_ab}


def _summarize_result(res):
    out = {"location_mode": res.location_mode.value,
           "triplet": triplet_to_spec(res.triplet,
                                      nu_note="transported measure"),
           "diagnostics": _plain(res.diagnostics)}
    return out


def _cmd_transform(args, inputs, report):
    t = _load_triplet(args, inputs)
    k = _load_kernel(args, inputs)
    fn = _TRANSFORMS[args.variant]
    try:
        res = fn(k, t)
    except NotDefinable as e:
        report["results"] = {"definable": False, "reason": e.reason,
                             "witness": _plain(e.witness)}
        return 0
    except InconclusiveError as e:
        report["results"] = {"definable": "inconclusive", "detail": str(e),
                             "evidence": _plain(e.evidence)}
        return 2
    report["results"] = {"definable": True, **_summarize_result(res)}
    return 0


def _cmd_domain(args, inputs, report):
    t = _load_triplet(args, inputs)
    k = _load_kernel(args, inputs)
    verdicts, rules = _domain_pass(k, t)
    out = {}
    if rules:
        out["closed_form_rules"] = {key: _verdict_json(v) for key, v in rules.items()}
    out["verdicts"] = {key: _verdict_json(v) for key, v in verdicts.items()}
    report["results"] = out
    return 2 if any(v.is_unknown for v in verdicts.values()) else 0


def _cmd_largeness(args, inputs, report):
    k = _load_kernel(args, inputs)
    cls, info = classify_largeness(k)
    # the measure-transform ladder over the same pass
    psi_cls, psi_ev = _strongest(_PSI_LADDER, info["evidence"], "none")
    report["results"] = {
        "class": cls.value,
        "certified": info["certified"],
        "evidence": {key: _verdict_json(v) for key, v in info["evidence"].items()},
        "measure_transform": {
            "class": psi_cls,
            "evidence": {key: _verdict_json(v) for key, v in psi_ev.items()},
        },
    }
    return 0


def _cmd_tau(args, inputs, report):
    if not (math.isfinite(args.tau_lo) and math.isfinite(args.tau_hi)
            and args.tau_lo < args.tau_hi):
        raise SchemaError("tau grid needs finite --tau-lo < --tau-hi")
    if args.tau_cells < 1:
        raise SchemaError("tau grid needs at least one cell")
    k = _load_kernel(args, inputs)
    tau = tau_measure(k)
    ok, witness = check_condition_B(tau)
    grid = np.linspace(args.tau_lo, args.tau_hi, args.tau_cells + 1)
    masses = []
    for u1, u2 in zip(grid[:-1], grid[1:]):
        try:
            masses.append(_plain(tau.mass(float(u1), float(u2))))
        except IdcalcError:
            masses.append(None)
    report["results"] = {
        "support": [_plain(tau.a_prime), _plain(tau.b_prime)],
        "atoms": [[_plain(u), _plain(m)] for u, m in tau.atoms],
        "realizable_as_decreasing_kernel": ok,
        "witness": _plain(witness),
        "interval_masses": {"edges": [float(g) for g in grid],
                            "masses": masses},
    }
    return 0


def _cmd_psi(args, inputs, report):
    t = _load_triplet(args, inputs)
    k = _load_kernel(args, inputs)
    try:
        out = psi(k, t.nu)
    except NotInDomain as e:
        report["results"] = {"in_domain": False, "reason": e.reason}
        return 0
    except InconclusiveError as e:
        report["results"] = {"in_domain": "inconclusive", "detail": str(e)}
        return 2
    tail = {}
    for c in (0.5, 1.0, 2.0):
        tail[str(c)] = _plain(float(out.tail_mass(np.array([c]))[0]))
    report["results"] = {
        "in_domain": True,
        "clipped_second_moment": _plain(float(out.clip2_scaled(
            np.array([1.0]))[0])),
        "tail_masses": tail,
    }
    return 0


def _cmd_simulate(args, inputs, report):
    t = _load_triplet(args, inputs)
    k = _load_kernel(args, inputs)
    cfg = SimConfig(mesh_points=args.mesh, n_paths=args.paths, seed=args.seed,
                    small_jump_cutoff=args.cutoff,
                    gaussian_compensation=args.gaussian_compensation)
    p = max(args.window[0], k.a)
    q = min(args.window[1], k.b)
    if not p < q:
        raise SchemaError("window does not intersect the kernel interval")
    samples = sample_integral(k, t, p, q, cfg)
    zs = np.linspace(0.25, 2.5, args.z_points)
    if t.dim == 1:
        z_grid = zs[:, None]
    else:
        rng = np.random.Generator(np.random.Philox(key=cfg.seed))
        dirs = rng.standard_normal((args.z_points, t.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        z_grid = zs[:, None] * dirs
    exponent = window_exponent(k, t, p, q)
    rep = ecf_check(samples, exponent, z_grid)
    report["results"] = {
        "n_paths": cfg.n_paths,
        "window": [p, q],
        "max_sigma_deviation": rep.max_sigma_deviation,
        "rows": _plain(rep.rows()),
    }
    if args.emit == "csv":
        path = os.path.join(_outdir(args), "ecf.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["z", "re_empirical", "im_empirical", "re_analytic",
                        "im_analytic", "stderr"])
            for row in rep.rows():
                w.writerow([";".join(f"{v:.17g}" for v in row["z"]),
                            row["re_empirical"], row["im_empirical"],
                            row["re_analytic"], row["im_analytic"],
                            row["stderr"]])
        report["results"]["csv"] = path
        spath = os.path.join(_outdir(args), "samples.csv")
        _write_samples(spath, samples)
        report["results"]["samples_csv"] = spath
    return 0


def _write_samples(path, samples):
    """``np.savetxt(path, samples, delimiter=",", header="x0,x1,...",
    comments="")`` byte for byte: one ``%`` format per block of 4096 rows
    over a repeated row template, not one per row."""
    n, d = samples.shape
    row = ",".join(["%.18e"] * d) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(f"x{i}" for i in range(d)) + "\n")
        for a in range(0, n, 4096):
            rows = samples[a:a + 4096]
            fh.write(row * len(rows) % tuple(rows.ravel().tolist()))


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read {path}: {e}")


def _read_inputs(args, report):
    """Parse each ``--dist``/``--kernel`` file once; returns the parsed
    specs by argument.  The report records each spec, or the argument as
    given when it names no file."""
    specs = {}
    for attr in ("dist", "kernel"):
        path = getattr(args, attr, None)
        if path and os.path.exists(path):
            report["inputs"][attr] = specs[attr] = _load_json(path)
        elif path:
            report["inputs"][attr] = path
    return specs


def _load_triplet(args, inputs):
    if not args.dist:
        raise SchemaError("this command needs --dist")
    if "dist" not in inputs:
        raise SchemaError(f"distribution file not found: {args.dist}")
    return triplet_from_spec(inputs["dist"])


def _load_kernel(args, inputs):
    if not args.kernel:
        raise SchemaError("this command needs --kernel")
    if "kernel" in inputs:
        return kernel_from_spec(inputs["kernel"])
    # shorthand: bare built-in name with defaults
    name = args.kernel
    if name in ("exp", "log_inv", "double_exp", "sinc", "indicator"):
        return kernel_from_spec({"type": name})
    raise SchemaError(f"kernel file not found: {args.kernel}")


def _outdir(args):
    out = args.out or os.environ.get("IDCALC_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


@functools.cache
def build_parser():
    """The ``idcalc`` argument parser, built once per process: parsing
    returns a fresh namespace on each call and leaves the parser as it was."""
    ap = argparse.ArgumentParser(
        prog="idcalc",
        description="transforms and domain calculus for infinitely divisible laws")
    ap.add_argument("--out", help="output directory (default $IDCALC_OUT or .)")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, kernel=True, dist=True):
        if dist:
            p.add_argument("--dist", help="distribution JSON file")
        if kernel:
            p.add_argument("--kernel", help="kernel JSON file or builtin name")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("classify", help="type A/B/C, drift and mean")
    common(p, kernel=False)
    p = sub.add_parser("dual", help="dual of a purely non-Gaussian law")
    common(p, kernel=False)
    p = sub.add_parser("transform", help="improper integral transform")
    common(p)
    p.add_argument("--variant", choices=sorted(_TRANSFORMS), default="phi")
    p = sub.add_parser("domain", help="domain membership verdicts")
    common(p)
    p = sub.add_parser("largeness", help="how large the domains are")
    common(p, dist=False)
    p = sub.add_parser("tau", help="occupation measure summary")
    common(p, dist=False)
    p.add_argument("--tau-lo", type=float, default=0.1)
    p.add_argument("--tau-hi", type=float, default=2.0)
    p.add_argument("--tau-cells", type=int, default=8)
    p = sub.add_parser("psi", help="transform of the Levy measure")
    common(p)
    p = sub.add_parser("simulate", help="Monte Carlo window integral + ECF")
    common(p)
    p.add_argument("--window", type=float, nargs=2, default=[0.0, 4.0])
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--mesh", type=int, default=128)
    # no measure type of the input schema has a radial part, so these two
    # act on nothing the CLI loads
    p.add_argument("--cutoff", type=float, default=None,
                   help="small-jump cutoff of radial parts; no effect on any "
                        "input law (stable and gamma parts are drawn exactly)")
    p.add_argument("--gaussian-compensation", action="store_true",
                   help="normal term for the radial jumps below the cutoff; "
                        "no effect on any input law")
    p.add_argument("--z-points", type=int, default=10)
    p.add_argument("--emit", choices=["json", "csv"], default="json")
    return ap


_COMMANDS = {
    "classify": _cmd_classify,
    "dual": _cmd_dual,
    "transform": _cmd_transform,
    "domain": _cmd_domain,
    "largeness": _cmd_largeness,
    "tau": _cmd_tau,
    "psi": _cmd_psi,
    "simulate": _cmd_simulate,
}


def run(argv=None):
    args = build_parser().parse_args(argv)
    report = {
        "schema_version": schemas.SCHEMA_VERSION,
        "command": args.command,
        "status": "completed",
        "inputs": {},
        "results": {},
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    try:
        inputs = _read_inputs(args, report)
        rc = _COMMANDS[args.command](args, inputs, report)
    except SchemaError as e:
        report["status"] = "error"
        report["results"] = {"error": str(e)}
        _write_report(args, report)
        return 3
    except InconclusiveError as e:
        report["status"] = "inconclusive"
        report["results"] = {"detail": str(e), "evidence": _plain(e.evidence)}
        _write_report(args, report)
        return 2
    if rc == 2:
        report["status"] = "inconclusive"
    _write_report(args, report)
    return rc


def _write_report(args, report):
    """Write the report to ``report.json`` and, without its
    ``generated_at`` line, to stdout: one ``indent=2`` encode gives both
    texts, byte for byte those of encoding each on its own (the stamp is a
    top-level key, and never the last one)."""
    path = os.path.join(_outdir(args), "report.json")
    with open(path, "w") as fh:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        fh.write(text)
    stamp = '\n  "generated_at": ' + json.dumps(report["generated_at"]) + ","
    sys.stdout.write(text.replace(stamp, "", 1))


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
