import json

import pytest

from idcalc.cli import run


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def gaussian(tmp_path):
    return write(tmp_path, "gaussian.json",
                 {"dim": 1, "A": 1.0, "gamma": [0.0], "nu": {"type": "zero"}})


@pytest.fixture
def stable05(tmp_path):
    return write(tmp_path, "stable05.json",
                 {"dim": 1, "A": 0.0, "gamma": [0.0],
                  "nu": {"type": "stable", "alpha": 0.5,
                         "directions": [{"xi": [1.0], "weight": 1.0}]}})


@pytest.fixture
def cp(tmp_path):
    return write(tmp_path, "cp.json",
                 {"dim": 1, "A": 0.0, "gamma": [0.5],
                  "nu": {"type": "atomic",
                         "atoms": [{"x": [1.0], "mass": 1.0}]}})


@pytest.fixture
def expk(tmp_path):
    return write(tmp_path, "expk.json", {"type": "exp"})


@pytest.fixture
def ind01(tmp_path):
    return write(tmp_path, "ind01.json",
                 {"type": "indicator", "interval": [0, 1], "height": 1.0})


def report(tmp_path):
    with open(tmp_path / "report.json") as fh:
        return json.load(fh)


def test_transform_exp_gaussian(tmp_path, gaussian, expk, capsys):
    rc = run(["--out", str(tmp_path), "transform", "--kernel", expk,
              "--dist", gaussian])
    assert rc == 0
    rep = report(tmp_path)
    assert rep["status"] == "completed"
    res = rep["results"]
    assert res["definable"] is True
    assert res["triplet"]["A"] == [[pytest.approx(0.5, abs=1e-9)]]
    assert res["triplet"]["gamma"] == [pytest.approx(0.0, abs=1e-9)]


def test_dual_stable(tmp_path, stable05, capsys):
    rc = run(["--out", str(tmp_path), "dual", "--dist", stable05])
    assert rc == 0
    rep = report(tmp_path)
    assert rep["results"]["dual"]["nu"]["alpha"] == pytest.approx(1.5)


def test_largeness_indicator(tmp_path, ind01, capsys):
    rc = run(["--out", str(tmp_path), "largeness", "--kernel", ind01])
    assert rc == 0
    rep = report(tmp_path)
    assert rep["results"]["class"] == "all-id"
    assert rep["results"]["measure_transform"]["class"] == "all-levy-measures"


def test_domain_reports_reasons(tmp_path, stable05, capsys):
    kern = write(tmp_path, "power.json", {"type": "power", "alpha": 1.5})
    rc = run(["--out", str(tmp_path), "domain", "--kernel", kern,
              "--dist", stable05])
    assert rc == 0
    rep = report(tmp_path)
    verdicts = rep["results"]["verdicts"]
    assert verdicts["essential"]["value"] == "no"
    # every verdict carries its reason tag
    assert all(v["reason"] for v in verdicts.values())


def test_classify_and_moments(tmp_path, cp, capsys):
    rc = run(["--out", str(tmp_path), "classify", "--dist", cp])
    assert rc == 0
    rep = report(tmp_path)
    assert rep["results"]["type"] == "A"
    assert rep["results"]["drift"] == [pytest.approx(0.0)]


def test_tau_summary(tmp_path, expk, capsys):
    rc = run(["--out", str(tmp_path), "tau", "--kernel", expk])
    assert rc == 0
    rep = report(tmp_path)
    assert rep["results"]["support"] == [0.0, 1.0]
    assert rep["results"]["realizable_as_decreasing_kernel"] is True


def test_psi_report(tmp_path, stable05, expk, capsys):
    rc = run(["--out", str(tmp_path), "psi", "--kernel", expk,
              "--dist", stable05])
    assert rc == 0
    rep = report(tmp_path)
    assert rep["results"]["in_domain"] is True
    # stable(0.5) tail mass beyond 1 is 2; the transform shrinks it by 1/alpha
    assert rep["results"]["tail_masses"]["1.0"] == pytest.approx(4.0, rel=1e-6)


def test_simulate_with_csv(tmp_path, cp, ind01, capsys):
    rc = run(["--out", str(tmp_path), "simulate", "--kernel", ind01,
              "--dist", cp, "--window", "0", "2", "--paths", "4000",
              "--mesh", "8", "--seed", "5", "--emit", "csv"])
    assert rc == 0
    rep = report(tmp_path)
    assert rep["results"]["max_sigma_deviation"] < 6.0
    csv_path = tmp_path / "ecf.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",") == ["z", "re_empirical", "im_empirical",
                                 "re_analytic", "im_analytic", "stderr"]


def test_determinism_modulo_timestamp(tmp_path, cp, ind01, capsys):
    args = ["--out", str(tmp_path), "simulate", "--kernel", ind01,
            "--dist", cp, "--window", "0", "2", "--paths", "2000",
            "--mesh", "8", "--seed", "5"]
    run(args)
    rep1 = report(tmp_path)
    run(args)
    rep2 = report(tmp_path)
    rep1.pop("generated_at")
    rep2.pop("generated_at")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_schema_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", {"dim": 1})  # missing gamma/nu
    rc = run(["--out", str(tmp_path), "classify", "--dist", bad])
    assert rc == 3
    rep = report(tmp_path)
    assert rep["status"] == "error"


def test_unknown_kernel_type_rejected(tmp_path, gaussian, capsys):
    bad = write(tmp_path, "badk.json", {"type": "mystery"})
    rc = run(["--out", str(tmp_path), "transform", "--kernel", bad,
              "--dist", gaussian])
    assert rc == 3


def test_inconclusive_exit_code(tmp_path, capsys):
    # borderline-index kernel without the exact-coefficient metadata path:
    # an asymmetric law whose compensation trace cannot be certified
    dist = write(tmp_path, "skewstable.json",
                 {"dim": 1, "A": 0.0, "gamma": [0.3],
                  "nu": {"type": "stable", "alpha": 1.2,
                         "directions": [{"xi": [1.0], "weight": 1.0}]}})
    kern = write(tmp_path, "power12.json", {"type": "power", "alpha": 1.2})
    rc = run(["--out", str(tmp_path), "transform", "--kernel", kern,
              "--dist", dist, "--variant", "phi"])
    rep = report(tmp_path)
    assert rc in (0, 2)
    assert rep["status"] in ("completed", "inconclusive")


def test_gamma_and_sum_distributions_parse(tmp_path, expk, capsys):
    dist = write(tmp_path, "mix.json", {
        "dim": 1, "A": 0.0, "gamma": [0.0],
        "nu": {"type": "sum", "parts": [
            {"type": "gamma", "shape": 1.0, "rate": 1.0, "direction": [1.0]},
            {"type": "compound_poisson_empirical", "rate": 2.0,
             "jumps": [[1.0], [0.5]]},
        ]}})
    rc = run(["--out", str(tmp_path), "classify", "--dist", dist])
    assert rc == 0
    assert report(tmp_path)["results"]["type"] == "B"


def test_domain_inconclusive_exit_code(tmp_path, capsys):
    dist = write(tmp_path, "stable18.json",
                 {"dim": 1, "A": 0.0, "gamma": [0.0],
                  "nu": {"type": "stable", "alpha": 1.8,
                         "directions": [{"xi": [1.0], "weight": 0.5},
                                        {"xi": [-1.0], "weight": 0.5}]}})
    rc = run(["--out", str(tmp_path), "domain", "--kernel", "sinc",
              "--dist", dist])
    rep = report(tmp_path)
    assert rc == 2
    assert rep["status"] == "inconclusive"


def test_simulate_samples_csv(tmp_path, cp, ind01, capsys):
    rc = run(["--out", str(tmp_path), "simulate", "--kernel", ind01,
              "--dist", cp, "--window", "0", "1", "--paths", "2000",
              "--mesh", "8", "--seed", "5", "--emit", "csv"])
    assert rc == 0
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert lines[0] == "x0"
    assert len(lines) == 2001


@pytest.mark.parametrize("dim", [1, 2])
def test_samples_writer_matches_savetxt(tmp_path, dim):
    import numpy as np

    from idcalc.cli import _write_samples
    x = np.random.default_rng(dim).standard_normal((9000, dim))
    edge = [0.0, -0.0, 5e-324, -2.2e-308, 1e-310, 1e300, -1.5e-200, 1e100,
            np.inf, -np.inf, np.nan, 1.0]
    x[:len(edge), 0] = edge
    x[-len(edge):, -1] = edge[::-1]
    want, got = tmp_path / "savetxt.csv", tmp_path / "fast.csv"
    np.savetxt(want, x, delimiter=",",
               header=",".join(f"x{i}" for i in range(dim)), comments="")
    _write_samples(got, x)
    assert got.read_bytes() == want.read_bytes()


def test_env_var_output_dir(tmp_path, gaussian, expk, capsys, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("IDCALC_OUT", str(out))
    rc = run(["transform", "--kernel", expk, "--dist", gaussian])
    assert rc == 0
    assert (out / "report.json").exists()


def test_gamma_psi_power_at_zero_answered(tmp_path, capsys):
    # the gamma clip moments near scale 1e13 used to cancel, and the driver
    # bisected their noise until it gave up (exit 2)
    dist = write(tmp_path, "gamma.json",
                 {"dim": 1, "A": 0.0, "gamma": [-0.1],
                  "nu": {"type": "gamma", "shape": 1.0, "rate": 1.0,
                         "direction": [1.0]}})
    kern = write(tmp_path, "paz08.json",
                 {"type": "power_at_zero", "exponent": 0.8})
    rc = run(["--out", str(tmp_path), "psi", "--kernel", kern, "--dist", dist])
    assert rc == 0
    assert report(tmp_path)["results"]["in_domain"] is True


def test_truncated_input_is_an_error_report(tmp_path, expk, capsys):
    bad = tmp_path / "truncated.json"
    bad.write_text('{"dim": 1, "A": 0.0, "gamma": [0.')
    rc = run(["--out", str(tmp_path), "transform", "--kernel", expk,
              "--dist", str(bad)])
    assert rc == 3
    rep = report(tmp_path)
    assert rep["status"] == "error"
    assert rep["results"]["error"].startswith(f"cannot read {bad}")


def test_each_input_file_read_once(tmp_path, cp, expk, capsys, monkeypatch):
    from idcalc import cli
    paths = []
    original = cli._load_json

    def counted(path):
        paths.append(path)
        return original(path)
    monkeypatch.setattr(cli, "_load_json", counted)
    assert run(["--out", str(tmp_path), "transform", "--kernel", expk,
                "--dist", cp]) == 0
    assert sorted(paths) == sorted([cp, expk])
    assert report(tmp_path)["inputs"]["dist"]["nu"]["type"] == "atomic"


def test_schemas_checked_once_per_process(tmp_path, gaussian, expk, capsys,
                                          monkeypatch):
    from jsonschema.validators import Draft202012Validator

    from idcalc import cli, schemas
    checked = []
    original = Draft202012Validator.check_schema

    def counted(schema, *args, **kwargs):
        checked.append(schema["title"])
        return original(schema, *args, **kwargs)
    monkeypatch.setattr(cli, "_VALIDATORS", {})
    monkeypatch.setattr(Draft202012Validator, "check_schema",
                        staticmethod(counted))
    for _ in range(10):
        assert run(["--out", str(tmp_path), "transform", "--kernel", expk,
                    "--dist", gaussian]) == 0
    assert sorted(checked) == sorted([schemas.DISTRIBUTION_SCHEMA["title"],
                                      schemas.KERNEL_SCHEMA["title"]])


_STABLE_NU = {"type": "stable", "alpha": 0.5,
              "directions": [{"xi": [1.0], "weight": 1.0}]}


@pytest.mark.parametrize("kind,spec", [
    ("distribution", {"dim": 1, "gamma": [0.0],
                      "nu": {**_STABLE_NU, "alpha": 2.5}}),
    ("distribution", {"gamma": [0.0], "nu": _STABLE_NU}),
    ("distribution", {"dim": 1, "gamma": [0.0], "nu": {"type": "levy"}}),
    ("distribution", {"dim": 1, "gamma": [0.0],
                      "nu": {"type": "atomic",
                             "atoms": [{"x": [1.0], "mass": -1.0}]}}),
    ("kernel", {"type": "mystery"}),
])
def test_schema_error_text_matches_jsonschema(tmp_path, kind, spec, capsys):
    import jsonschema

    from idcalc import schemas
    schema = {"distribution": schemas.DISTRIBUTION_SCHEMA,
              "kernel": schemas.KERNEL_SCHEMA}[kind]
    with pytest.raises(jsonschema.ValidationError) as e:
        jsonschema.validate(spec, schema)
    path = write(tmp_path, "bad.json", spec)
    argv = (["classify", "--dist", path] if kind == "distribution"
            else ["largeness", "--kernel", path])
    assert run(["--out", str(tmp_path), *argv]) == 3
    assert report(tmp_path)["results"]["error"] == \
        f"{kind} spec invalid: {e.value.message}"


def test_parser_built_once():
    from idcalc.cli import build_parser
    assert build_parser() is build_parser()


def test_reused_parser_keeps_defaults(tmp_path, cp, expk, capsys):
    common = ["--out", str(tmp_path), "simulate", "--kernel", expk,
              "--dist", cp, "--paths", "2000", "--mesh", "8", "--seed", "5"]
    assert run([*common, "--window", "0", "2"]) == 0
    assert report(tmp_path)["results"]["window"] == [0.0, 2.0]
    assert run(common) == 0
    assert report(tmp_path)["results"]["window"] == [0.0, 4.0]


@pytest.mark.parametrize("argv", [
    ["classify", "--dist", "{cp}"],
    ["dual", "--dist", "{stable05}"],
    ["transform", "--kernel", "{expk}", "--dist", "{gaussian}"],
    ["domain", "--kernel", "{expk}", "--dist", "{stable05}"],
    ["largeness", "--kernel", "{ind01}"],
    ["tau", "--kernel", "{expk}"],
    ["psi", "--kernel", "{expk}", "--dist", "{stable05}"],
    ["simulate", "--kernel", "{ind01}", "--dist", "{cp}", "--window", "0", "2",
     "--paths", "2000", "--mesh", "8", "--emit", "csv"],
    ["classify", "--dist", "missing.json"],
])
def test_report_and_stdout_are_the_indented_encodes(tmp_path, gaussian, stable05,
                                                    cp, expk, ind01, capsys, argv):
    files = {"gaussian": gaussian, "stable05": stable05, "cp": cp, "expk": expk,
             "ind01": ind01}
    run(["--out", str(tmp_path), *(a.format(**files) for a in argv)])
    text = (tmp_path / "report.json").read_text()
    rep = json.loads(text)
    assert text == json.dumps(rep, indent=2, sort_keys=True) + "\n"
    rep.pop("generated_at")
    assert capsys.readouterr().out == json.dumps(rep, indent=2, sort_keys=True) + "\n"


_VALID_DIST = {"dim": 1, "gamma": [0.0], "nu": _STABLE_NU}


def _passed(schema):
    from idcalc import cli
    return cli._VALIDATORS[id(schema)][2]


def test_invalid_spec_raises_the_same_error_every_time():
    import copy

    from jsonschema import ValidationError

    from idcalc import cli, schemas
    spec = copy.deepcopy(_VALID_DIST)
    spec["nu"]["alpha"] = 2.5
    messages = []
    for _ in range(3):
        with pytest.raises(ValidationError) as e:
            cli.validate(spec, schemas.DISTRIBUTION_SCHEMA)
        messages.append(e.value.message)
    assert len(set(messages)) == 1
    assert json.dumps(spec, sort_keys=True) not in _passed(schemas.DISTRIBUTION_SCHEMA)


def test_spec_mutated_after_passing_is_checked_again():
    # a memo keyed on the object's id would pass the mutated spec
    import copy

    from jsonschema import ValidationError

    from idcalc import cli, schemas
    spec = copy.deepcopy(_VALID_DIST)
    cli.validate(spec, schemas.DISTRIBUTION_SCHEMA)
    cli.validate(spec, schemas.DISTRIBUTION_SCHEMA)
    spec["nu"]["alpha"] = 2.5
    with pytest.raises(ValidationError):
        cli.validate(spec, schemas.DISTRIBUTION_SCHEMA)


def test_spec_with_tuples_or_int_keys_is_not_taken_for_its_json_text(monkeypatch):
    # json.dumps writes a tuple as a list and an int key as a string, which
    # jsonschema reads as no array and no property
    import jsonschema

    from idcalc import cli, schemas
    monkeypatch.setattr(cli, "_VALIDATORS", {})
    cli.validate(_VALID_DIST, schemas.DISTRIBUTION_SCHEMA)
    for spec in ({**_VALID_DIST, "gamma": (0.0,)},
                 {**_VALID_DIST, "nu": {"type": "stable", "alpha": 0.5,
                                        "directions": ({"xi": [1.0], "weight": 1.0},)}}):
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(spec, schemas.DISTRIBUTION_SCHEMA)
        with pytest.raises(jsonschema.ValidationError) as got:
            cli.validate(spec, schemas.DISTRIBUTION_SCHEMA)
        assert got.value.message == want.value.message
    schema = {"required": ["1"]}
    cli.validate({"1": 0}, schema)
    with pytest.raises(jsonschema.ValidationError):
        cli.validate({1: 0}, schema)


def test_spec_holding_a_numpy_array_is_still_validated(monkeypatch):
    import jsonschema
    import numpy as np

    from idcalc import cli, schemas
    monkeypatch.setattr(cli, "_VALIDATORS", {})
    spec = {**_VALID_DIST, "gamma": np.array([0.0])}
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(spec, schemas.DISTRIBUTION_SCHEMA)
    for _ in range(2):
        with pytest.raises(jsonschema.ValidationError) as got:
            cli.validate(spec, schemas.DISTRIBUTION_SCHEMA)
        assert got.value.message == want.value.message
    # a valid one is checked too, and not remembered
    ok = {**_VALID_DIST, "note": np.array([0.0])}
    jsonschema.validate(ok, schemas.DISTRIBUTION_SCHEMA)
    cli.validate(ok, schemas.DISTRIBUTION_SCHEMA)
    assert _passed(schemas.DISTRIBUTION_SCHEMA) == {}


def test_passed_specs_stop_at_the_cap(monkeypatch):
    from jsonschema import ValidationError

    from idcalc import cli, schemas
    monkeypatch.setattr(cli, "_VALIDATORS", {})
    monkeypatch.setattr(cli, "_PASSED_CAP", 3)
    specs = [{"type": "exp", "rate": 1.0 + i} for i in range(6)]
    for spec in specs:
        cli.validate(spec, schemas.KERNEL_SCHEMA)
    passed = _passed(schemas.KERNEL_SCHEMA)
    assert sorted(passed) == sorted(json.dumps(s, sort_keys=True) for s in specs[:3])
    # beyond the cap every spec is still checked
    with pytest.raises(ValidationError):
        cli.validate({"type": "exp", "rate": "fast"}, schemas.KERNEL_SCHEMA)
    assert len(passed) == 3
