import json

import pytest

from cohortpolicy.cli import main
from cohortpolicy.errors import IntegrityError, RowIngestError, SchemaError
from cohortpolicy.experiment import ExperimentDataset
from cohortpolicy.ingest import IngestSchema, ingest, parse_lift_text

SCHEMA = {
    "user_id": "uid",
    "arm": "group",
    "control": "control",
    "features": ["age"],
    "metrics": ["spend"],
}


def write_csv(path, rows, header="uid,group,age,spend"):
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def test_ingest_minimal_csv(tmp_path):
    path = write_csv(tmp_path / "d.csv", [
        "u1,t1,30,1.0", "u2,t1,40,2.0", "u3,control,35,1.5", "u4,control,25,0.5"])
    ds = ingest(path, SCHEMA)
    assert ds.n_users == 4
    assert ds.treatments == ("t1",)
    assert ds.metrics == ("spend",)
    assert ds.features == ("age",)


def test_ingest_jsonl(tmp_path):
    path = tmp_path / "d.jsonl"
    rows = [
        {"uid": "u1", "group": "t1", "age": 30, "spend": 1.0},
        {"uid": "u2", "group": "control", "age": 40, "spend": 2.0},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    ds = ingest(path, SCHEMA)
    assert ds.n_users == 2


def test_ingest_row_order_irrelevant(tmp_path):
    rows = ["u1,t1,30,1.0", "u2,t1,40,2.0", "u3,control,35,1.5"]
    a = ingest(write_csv(tmp_path / "a.csv", rows), SCHEMA)
    b = ingest(write_csv(tmp_path / "b.csv", rows[::-1]), SCHEMA)
    assert a.user_ids.tolist() == b.user_ids.tolist()
    assert a.outcome_matrix.tolist() == b.outcome_matrix.tolist()


def test_missing_column_names_it(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["u1,t1,30"], header="uid,group,age")
    with pytest.raises(SchemaError, match="spend"):
        ingest(path, SCHEMA)


def test_non_numeric_cell_reports_row(tmp_path):
    path = write_csv(tmp_path / "d.csv",
                     ["u1,t1,30,1.0", "u2,control,oops,2.0"])
    with pytest.raises(RowIngestError, match="row 2"):
        ingest(path, SCHEMA)


def test_missing_value_rejected_not_imputed(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["u1,t1,,1.0", "u2,control,40,2.0"])
    with pytest.raises(RowIngestError, match="age"):
        ingest(path, SCHEMA)


def test_non_finite_rejected(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["u1,t1,inf,1.0"])
    with pytest.raises(RowIngestError):
        ingest(path, SCHEMA)


def test_jsonl_integer_beyond_float_range_names_row_and_column(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"uid": "u1", "group": "t1", "age": 30, "spend": 1.0}\n'
                    '{"uid": "u2", "group": "control", "age": 1' + "0" * 400
                    + ', "spend": 2.0}\n')
    with pytest.raises(RowIngestError, match=r"^row 2: value 10+ in column "
                                             r"'age' does not fit a float$"):
        ingest(path, SCHEMA)


@pytest.mark.parametrize("lines,message", [
    (['{"uid": "u1", "group": "t1", "age": 30, "spend": 1.0}',
      '{"uid": "u2", "group": "control", "age": 40, "spend": 2.0}',
      '{"uid": "u3" "group": "t1"}'],
     "row 3: malformed JSON: Expecting ',' delimiter: line 1 column 14 (char 13)"),
    (['["u1", "t1", 30, 1.0]'], "row 1: expected a JSON object, got list"),
    (['{"uid": "u1", "group": "t1", "age": 30, "spend": 1.0}',
      '["u2", "control", 40, 2.0]'], "row 2: expected a JSON object, got list"),
], ids=["malformed_third_line", "first_line_list", "later_line_list"])
def test_jsonl_line_without_an_object_exits_one_naming_the_row(tmp_path, capsys,
                                                               lines, message):
    data = tmp_path / "d.jsonl"
    data.write_text("\n".join(lines) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(SCHEMA))
    assert main(["ingest", "--data", str(data), "--schema", str(schema),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: RowIngestError: {message}\n"


def test_jsonl_first_bad_row_wins(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"uid": "u1", "group": "t1", "age": 30, "spend": 1.0}\n'
                    '{"uid": "u2", "group": "control", "age": "x", "spend": 2.0}\n'
                    '[1]\n{"uid": "u3",\n')
    with pytest.raises(RowIngestError, match="^row 2: non-numeric value 'x'"):
        ingest(path, SCHEMA)
    path.write_text('{"uid": "u1", "group": "t1", "age": 30, "spend": 1.0}\n'
                    '[1]\n{"uid": "u3"}\n')
    with pytest.raises(RowIngestError, match="^row 2: expected a JSON object"):
        ingest(path, SCHEMA)


def test_user_in_two_arms_rejected(tmp_path):
    path = write_csv(tmp_path / "d.csv",
                     ["u1,t1,30,1.0", "u1,control,30,1.0"])
    with pytest.raises(IntegrityError, match="u1"):
        ingest(path, SCHEMA)


def test_action_name_holding_dash_rejected(tmp_path):
    # Policy ids join actions with "-": with actions c, x and x-x the
    # assignments (x-x, x) and (x, x-x) of one cut would share an id.
    ds = dict(experiment_id="e", user_ids=["u1", "u2", "u3"],
              arm_codes=[0, 1, 2], feature_matrix=[[1.0, 2.0, 3.0]],
              outcome_matrix=[[0.0, 0.0, 0.0]], actions=("c", "x", "x-x"),
              control_action="c", metrics=("m1",), features=("f1",))
    with pytest.raises(IntegrityError, match="action 'x-x' contains '-'"):
        ExperimentDataset(**ds)
    path = write_csv(tmp_path / "d.csv", ["u1,c,1,0", "u2,x,2,0", "u3,x-x,3,0"])
    with pytest.raises(IntegrityError, match="action 'x-x' contains '-'"):
        ingest(path, {**SCHEMA, "control": "c"})


def test_relative_percent_lift_units_rejected():
    # The estimators return absolute differences only.
    with pytest.raises(SchemaError, match="only 'absolute' differences"):
        IngestSchema.from_mapping({**SCHEMA, "lift_units": "relative_percent"})
    with pytest.raises(ValueError, match="only 'absolute' differences"):
        ExperimentDataset(experiment_id="e", user_ids=["u1"], arm_codes=[0],
                          feature_matrix=[[1.0]], outcome_matrix=[[0.0]],
                          actions=("c",), control_action="c", metrics=("m1",),
                          features=("f1",), lift_units="relative_percent")


def test_schema_missing_key():
    with pytest.raises(SchemaError):
        IngestSchema.from_mapping({"arm": "group", "features": ["age"]})


def test_schema_unknown_key_or_wrong_type_named(tmp_path):
    # A misspelt "day" key used to ingest silently without day labels.
    path = write_csv(tmp_path / "d.csv", ["u1,t1,30,1.0,0", "u2,control,40,2.0,1"],
                     header="uid,group,age,spend,day")
    with pytest.raises(SchemaError, match="unknown key 'days'"):
        ingest(path, {**SCHEMA, "days": "day"})
    with pytest.raises(SchemaError, match="features: expected a list"):
        IngestSchema.from_mapping({**SCHEMA, "features": "age"})
    # The format_version key that synth writes is part of the schema file,
    # and the file reader drops it.
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({**SCHEMA, "day": "day", "format_version": 1}))
    ds = ingest(path, IngestSchema.from_json(schema))
    assert ds.days.tolist() == [0, 1]


@pytest.mark.parametrize("text,mean,std_err", [
    ("-0.049% ± 0.043", -0.00049, 0.00043),
    ("+0.282% ± 0.074", 0.00282, 0.00074),
    ("+0.036% ± 0.034", 0.00036, 0.00034),
    ("-0.289% ± 0.073", -0.00289, 0.00073),
    ("1.5 ± 0.3", 1.5, 0.3),
    ("2.0 +/- 0.5", 2.0, 0.5),
])
def test_parse_lift_text(text, mean, std_err):
    est = parse_lift_text(text)
    assert est.mean == pytest.approx(mean, abs=1e-12)
    assert est.std_err == pytest.approx(std_err, abs=1e-12)


def test_parse_lift_text_rejects_garbage():
    with pytest.raises(ValueError):
        parse_lift_text("not a lift")


def test_package_ingest_attribute_is_the_module():
    # The package no longer rebinds `ingest` to the function, so the
    # submodule is reachable by attribute and by `import ... as`.
    import sys

    import cohortpolicy
    import cohortpolicy.ingest as module

    assert module is sys.modules["cohortpolicy.ingest"]
    assert cohortpolicy.ingest is module
    assert callable(module.csv_blocks) and module.ingest is ingest
