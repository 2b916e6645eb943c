import hashlib
import json
from importlib import resources

import jsonschema
import pytest

from weilad.algebra import MAX_TABLE_SIZE
from weilad.cli import build_parser, main

SCALAR = {"oneOf": [{"type": "number"}, {"type": "string"}]}

SCHEMAS = {
    "algebra_info": {
        "type": "object",
        "required": ["name", "dim", "basis", "nilpotency_index", "multiplication"],
        "properties": {
            "dim": {"type": "integer", "minimum": 1},
            "basis": {"type": "array", "items": {"type": "string"}},
            "nilpotency_index": {"type": "integer", "minimum": 1},
            "multiplication": {"type": "object"},
        },
    },
    "tensor": {
        "type": "object",
        "required": ["algebra", "incl1", "incl2"],
    },
    "jet": {
        "type": "object",
        "required": ["fn", "at", "order", "normalization", "values", "series"],
        "properties": {"values": {"type": "array", "items": SCALAR}},
    },
    "partials": {
        "type": "object",
        "required": ["fn", "at", "orders", "entries"],
        "properties": {
            "entries": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["orders", "values"],
                    "properties": {"orders": {"type": "array", "items": {"type": "integer"}},
                                   "values": {"type": "array", "items": SCALAR}},
                },
            }
        },
    },
    "morphism": {
        "type": "object",
        "required": ["source", "target", "result"],
        "properties": {"result": {"type": "object", "required": ["coeffs", "text"]}},
    },
    "laws": {
        "type": "array",
        "items": {
            "type": "object",
            "required": ["law", "model", "scalar_mode", "instances_run",
                         "failures", "exact", "passed"],
        },
    },
    "model": {
        "type": "object",
        "required": ["instance", "check", "passed", "reports"],
    },
    "error": {
        "type": "object",
        "required": ["error", "message"],
    },
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_algebra_info_json(capsys):
    code, out = run(capsys, ["algebra", "info", "jet:3"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["algebra_info"])
    assert doc["dim"] == 4 and doc["nilpotency_index"] == 4


def test_algebra_info_base(capsys):
    code, out = run(capsys, ["algebra", "info", "base"])
    doc = json.loads(out)
    assert code == 0 and doc["dim"] == 1 and doc["nilpotency_index"] == 1


def test_algebra_tensor_json(capsys):
    code, out = run(capsys, ["algebra", "tensor", "dual:1", "jet:2"])
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["tensor"])
    assert code == 0 and doc["algebra"]["dim"] == 6


def test_jet_command_matches_series(capsys):
    code, out = run(capsys, ["jet", "--fn", "exp(x)", "--at", "0", "--order", "3"])
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["jet"])
    assert code == 0 and doc["values"] == [1.0, 1.0, 1.0, 1.0]


def test_jet_rational_mode(capsys):
    code, out = run(capsys, ["jet", "--fn", "x^3", "--at", "2", "--order", "2",
                             "--scalar", "rational", "--normalization", "raw"])
    doc = json.loads(out)
    assert code == 0 and doc["values"] == ["8", "12", "6"]


def test_jet_overflow_is_an_error_document(capsys):
    code, out = run(capsys, ["jet", "--fn", "exp(x)", "--at", "800", "--order", "2"])
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["error"])
    assert code == 1 and doc["error"] == "DomainError"
    assert "exp" in doc["message"] and "800" in doc["message"]


@pytest.mark.parametrize("argv", [
    ["jet", "--fn", "exp(x)", "--at", "1e400", "--order", "2"],
    ["partials", "--fn", "x*y", "--at", "1e400,1", "--orders", "1,1", "--scalar", "float"],
], ids=["jet", "partials"])
def test_point_out_of_float_range_is_an_error_document(capsys, argv):
    code, out = run(capsys, argv)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["error"])
    assert code == 1 and doc["error"] == "BadParameter" and "1e400" in doc["message"]


@pytest.mark.parametrize("argv, message", [
    (["jet", "--fn", "x^200", "--at", "1e300", "--order", "2"], "at monomial 1: nan"),
    (["jet", "--fn", "x^-3", "--at", "1e-200", "--order", "2"], "at monomial 1: inf"),
    (["jet", "--fn", "exp(x)*1e300*1e300", "--at", "1", "--order", "2"], "at monomial 1: inf"),
    (["jet", "--fn", "1e300*1e300*x^2 - 1e300*1e300*x^2", "--at", "1", "--order", "2"],
     "at monomial 1: nan"),
    (["partials", "--fn", "x*y*1e300*1e300", "--at", "1,1", "--orders", "1,1"],
     "at orders [0, 0]: inf"),
    (["partials", "--fn", "x*y^2*1e300", "--at", "1,1e10", "--orders", "1,2"],
     "at orders [0, 0]: inf"),
    (["morphism", "apply", "--from", "jet:2", "--to", "jet:2", "--images", "1e300*x",
      "--value", "x^2", "--scalar", "float"], "at result: inf"),
], ids=["nan", "inf", "inf-product", "inf-minus-inf", "partials", "partials-point", "morphism"])
def test_non_finite_result_is_an_error_document(capsys, argv, message):
    code, out = run(capsys, argv)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["error"])
    assert code == 1 and doc["error"] == "DomainError"
    assert doc["message"] == "non-finite result " + message


@pytest.mark.parametrize("text", ["(" * 2000 + "x" + ")" * 2000, "+".join(["x"] * 3000)],
                         ids=["parentheses", "sum"])
def test_deep_expression_is_an_error_document(capsys, text):
    code, out = run(capsys, ["jet", "--fn", text, "--at", "1", "--order", "2"])
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["error"])
    assert code == 1 and doc["error"] == "ParseError"
    assert "nested 101 deep, more than the bound of 100" in doc["message"]


def test_partials_command(capsys):
    code, out = run(capsys, ["partials", "--fn", "x*y", "--at", "2,5",
                             "--orders", "1,1", "--scalar", "rational"])
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["partials"])
    got = {tuple(e["orders"]): e["values"][0] for e in doc["entries"]}
    assert got[(1, 1)] == "1" and got[(1, 0)] == "5" and got[(0, 1)] == "2"


def test_morphism_apply(capsys):
    code, out = run(capsys, [
        "morphism", "apply", "--from", "jet:2", "--to", "dual:1",
        "--images", "2*x", "--value", "1 + x + x^2",
    ])
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["morphism"])
    assert code == 0 and doc["result"]["coeffs"] == ["1", "2"]


def test_morphism_apply_reports_ill_defined(capsys):
    code, out = run(capsys, [
        "morphism", "apply", "--from", "dual:1", "--to", "jet:2",
        "--images", "x", "--value", "x",
    ])
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["error"])
    assert code == 1 and doc["error"] == "NotWellDefined"


def test_laws_run_json_and_exit_code(capsys):
    code, out = run(capsys, ["laws", "run", "--law", "L5", "--scalar", "rational"])
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["laws"])
    assert code == 0
    assert {r["law"] for r in doc} == {"L5"}


def test_laws_run_unknown_law(capsys):
    code, out = run(capsys, ["laws", "run", "--law", "L99"])
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["error"])
    assert code == 1


def test_laws_byte_identical_for_seed(capsys):
    _, first = run(capsys, ["laws", "run", "--law", "L3", "--seed", "5"])
    _, second = run(capsys, ["laws", "run", "--law", "L3", "--seed", "5"])
    assert first == second


def test_model_check_commands(capsys, tmp_path):
    src = resources.files("weilad").joinpath("data/instances/iso.json").read_text()
    path = tmp_path / "iso.json"
    path.write_text(src)
    for check in ("ccc", "slice-ccc", "exp-compat", "localization"):
        code, out = run(capsys, ["model", "check", "--input", str(path), "--check", check])
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["model"])
        assert code == 0 and doc["passed"], check


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["model", "check", "--check", "ccc"])  # missing --input
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err2:
        main(["nonsense"])
    assert err2.value.code == 2


def test_algebra_file_input(capsys, tmp_path):
    path = tmp_path / "demo.alg"
    path.write_text("algebra demo\ngens a b\nrel a^2\nrel b^2\nrel a*b\n")
    code, out = run(capsys, ["algebra", "info", str(path)])
    doc = json.loads(out)
    assert code == 0 and doc["dim"] == 3 and doc["basis"] == ["1", "a", "b"]


def test_human_format(capsys):
    code, out = run(capsys, ["algebra", "info", "dual:2", "--format", "human"])
    assert code == 0 and "dim 3" in out


def test_max_enum_flag_renders_size_limit(capsys, tmp_path):
    src = resources.files("weilad").joinpath("data/instances/iso.json").read_text()
    path = tmp_path / "iso.json"
    path.write_text(src)
    code, out = run(capsys, ["model", "check", "--input", str(path),
                             "--check", "ccc", "--max-enum", "2"])
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["error"])
    assert code == 1 and doc["error"] == "SizeLimit"


@pytest.mark.parametrize("argv, size", [
    (["jet", "--fn", "x", "--at", "1", "--order", "200000"], 200001 * 200002 // 2),
    (["algebra", "info", "mixed:9,9,9,9,9,9,9"], 55 ** 7),
], ids=["jet", "mixed"])
def test_oversized_algebra_is_an_error_document(capsys, argv, size):
    code, out = run(capsys, argv)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["error"])
    assert code == 1 and doc["error"] == "SizeLimit"
    assert "%d products, more than the bound of %d" % (size, MAX_TABLE_SIZE) in doc["message"]


def test_parser_is_built_once_and_keeps_no_state_between_calls():
    assert build_parser() is build_parser()
    for _ in range(2):
        args = build_parser().parse_args(["laws", "run", "--law", "L1"])
        assert args.law == ["L1"] and args.max_enum is None


def test_jet_accepts_function_files(capsys, tmp_path):
    path = tmp_path / "wave.fn"
    path.write_text("vars t\nsin(t)\ncos(t)\n")
    code, out = run(capsys, ["jet", "--fn", str(path), "--at", "0", "--order", "2"])
    doc = json.loads(out)
    assert code == 0
    # two outputs per entry
    assert all(len(e["values"]) == 2 for e in doc["series"])
    assert doc["series"][1]["values"][0] == 1.0  # d/dt sin at 0


def test_partials_accepts_function_files(capsys, tmp_path):
    path = tmp_path / "bi.fn"
    path.write_text("vars u v\nu*v + v^2\n")
    code, out = run(capsys, ["partials", "--fn", str(path), "--at", "1,2",
                             "--orders", "1,1", "--scalar", "rational"])
    doc = json.loads(out)
    got = {tuple(e["orders"]): e["values"][0] for e in doc["entries"]}
    assert code == 0 and got[(1, 1)] == "1" and got[(0, 1)] == "5"


def test_laws_run_propagates_size_limit(capsys):
    code, out = run(capsys, ["laws", "run", "--law", "L4", "--max-enum", "2"])
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["error"])
    assert code == 1 and doc["error"] == "SizeLimit"


@pytest.mark.parametrize("bound", ["-5", "0", "many"])
def test_max_enum_below_one_is_a_usage_error(bound):
    path = resources.files("weilad").joinpath("data/instances/iso.json")
    with pytest.raises(SystemExit) as err:
        main(["model", "check", "--input", str(path), "--check", "ccc", "--max-enum", bound])
    assert err.value.code == 2


def test_model_check_missing_input_is_an_error_document(capsys, tmp_path):
    code, out = run(capsys, ["model", "check", "--input", str(tmp_path / "absent.json"),
                             "--check", "ccc"])
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS["error"])
    assert code == 1 and doc["error"] == "WeilError"


@pytest.mark.parametrize("section, entry, key", [
    ("sliced", "A", "structure"),
    ("roles", "slice_ccc", "base"),
])
def test_model_check_unknown_name_is_an_error_document(capsys, tmp_path, section, entry, key):
    doc = json.loads(resources.files("weilad").joinpath("data/instances/arrow.json").read_text())
    doc[section][entry][key] = "nowhere"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, ["model", "check", "--input", str(path), "--check", "slice-ccc"])
    err = json.loads(out)
    jsonschema.validate(err, SCHEMAS["error"])
    assert code == 1 and err["error"] == "WeilError" and "nowhere" in err["message"]


def test_model_check_invalid_category_is_an_error_document(capsys, tmp_path):
    doc = json.loads(resources.files("weilad").joinpath("data/instances/arrow.json").read_text())
    doc["identities"]["a"] = "zz"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, ["model", "check", "--input", str(path), "--check", "ccc"])
    err = json.loads(out)
    jsonschema.validate(err, SCHEMAS["error"])
    assert code == 1 and err["error"] == "WeilError"
    assert "every object has an identity" in err["message"]


# sha256 of the stdout of runs whose output is fixed; each exits with 0.  A
# change to a search, a report or the arithmetic that alters a count, a
# witness, an order or an exact value fails here.
PINNED_RUNS = {
    ("laws", "run", "--scalar", "rational", "--seed", "0"):
        "f2b538af220682ae6751b1d68c77ac25b57b34df7be05875674c4ded0f43f599",
    ("jet", "--fn", "recip(1+x^2)*(x-1)/(2+x)^2", "--at", "3/4", "--order", "35",
     "--scalar", "rational"):
        "2941093faca1831bb81a75570bfef329bdcaf4f0c7b85205c2edba1b4c235236",
    ("partials", "--fn", "x*y/(1+x+y^2) + recip(2-x*y)", "--at", "1/2,1/3",
     "--orders", "3,3", "--scalar", "rational"):
        "3fad2e03111f3501afce63822454d79b29a97af73522f66f4e36feb1b1ad46c3",
}
MODEL_CHECK_DIGESTS = {
    ("terminal", "ccc"): "9fff58088286a64fe09236f42331863776af77cbb4578498368a1462685d0262",
    ("terminal", "slice-ccc"): "bc80885456b74b6028eaea896654d100476c360c57fb58df488a304fa692cb95",
    ("terminal", "exp-compat"): "7600ab62c6af1ca95e6cedb1a3fdb882ae51e7dfcd22fb60504edb9e3454ec91",
    ("terminal", "localization"): "9fe6ac282fd66b6e5e3d85d5a505e29816fb36a954ecbccb760c0cd6a78d75be",
    ("arrow", "ccc"): "6f916ede56bf7b2c790d02cbb7dbb6142e0e2d978c5079bfddc55daa75da476f",
    ("arrow", "slice-ccc"): "e6bc055c6454590bec5f9a12d1e65a5901b4a7f120f80aa6f1b40f4b81c1c159",
    ("arrow", "exp-compat"): "486abc498ce91c89f22c53c4aca9ec75f54f4a45a4175d2128a17d060cca18e5",
    ("arrow", "localization"): "f49bf1a2bf0c11328772e6581368f91ba881de8c9e31a10d46758f684aab3aca",
    ("iso", "ccc"): "c396e06ca0336a1271e8b166d87e87c4f9f590bc61eda0211cbd4cb1b8c3985e",
    ("iso", "slice-ccc"): "11c567343cba31519f8bb613b5fd5fdd404542d50e3cf90e79938e0354c96903",
    ("iso", "exp-compat"): "fa6769f0ee00cd07bb8026b4efb55b554ddc12827c330c69dbd7d2f0880bf503",
    ("iso", "localization"): "e29ae2b9c470a221d81261de5386403f5d9b67b74898868da11852180fc5845d",
    ("idem", "ccc"): "01bf1a485ce4b2c47c9f403579878d5be660d92a29bd712a3706d8c57ab3b1be",
    ("idem", "slice-ccc"): "e886ee2c66c940f75c79c2ff194f6748da7f9dbb0598c86f6909df272cb1a3ec",
    ("idem", "exp-compat"): "b69b7143b8b1cf7a7f1641a492a448107565cf31c27afec008d876d144b52e74",
    ("idem", "localization"): "7586996a61b5002ac0f1898d1268c8acec764a647d5683de06625764a44e40b8",
}


def digest_of_run(capsys, argv):
    code, out = run(capsys, argv)
    return code, hashlib.sha256(out.encode()).hexdigest()


def test_laws_run_output_is_pinned(capsys):
    for argv, digest in PINNED_RUNS.items():
        assert digest_of_run(capsys, list(argv)) == (0, digest), argv[0]


@pytest.mark.parametrize("instance, check", sorted(MODEL_CHECK_DIGESTS))
def test_model_check_output_is_pinned(capsys, instance, check):
    path = resources.files("weilad").joinpath("data/instances/%s.json" % instance)
    got = digest_of_run(capsys, ["model", "check", "--input", str(path), "--check", check])
    assert got == (0, MODEL_CHECK_DIGESTS[instance, check])
