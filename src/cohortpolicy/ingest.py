"""Dataset ingestion: headered CSV or JSONL, validated against a schema.

The schema is a JSON document naming the arm column, feature columns, and
metric columns. Missing values are rejected, not imputed: segmentation
needs totally ordered feature values.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import IntegrityError, RowIngestError, SchemaError
from .experiment import ABSOLUTE, LIFT_UNITS, ExperimentDataset, MetricEstimate


@dataclass(frozen=True)
class IngestSchema:
    """Column mapping for one experiment file."""

    arm_column: str
    feature_columns: tuple[str, ...]
    metric_columns: tuple[str, ...]
    user_id_column: str = "user_id"
    control_action: str = "control"
    lift_units: str = ABSOLUTE
    day_column: str | None = None
    experiment_id: str = "experiment"

    def __post_init__(self):
        if not self.feature_columns:
            raise SchemaError("schema declares no feature columns")
        if not self.metric_columns:
            raise SchemaError("schema declares no metric columns")
        if self.lift_units not in LIFT_UNITS:
            raise SchemaError(f"lift_units must be one of {LIFT_UNITS}")

    @classmethod
    def from_mapping(cls, data: Mapping) -> "IngestSchema":
        try:
            return cls(
                arm_column=data["arm"],
                feature_columns=tuple(data["features"]),
                metric_columns=tuple(data["metrics"]),
                user_id_column=data.get("user_id", "user_id"),
                control_action=data.get("control", "control"),
                lift_units=data.get("lift_units", ABSOLUTE),
                day_column=data.get("day"),
                experiment_id=data.get("experiment_id", "experiment"),
            )
        except KeyError as exc:
            raise SchemaError(f"schema is missing required key {exc.args[0]!r}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "IngestSchema":
        with open(path, encoding="utf-8") as fh:
            return cls.from_mapping(json.load(fh))


def _parse_number(raw, column: str, row_idx: int) -> float:
    if raw is None or (isinstance(raw, str) and raw.strip() == ""):
        raise RowIngestError(row_idx, f"missing value in column {column!r}")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise RowIngestError(row_idx, f"non-numeric value {raw!r} in column {column!r}")
    if not math.isfinite(value):
        raise RowIngestError(row_idx, f"non-finite value {raw!r} in column {column!r}")
    return value


def _iter_rows(path: Path):
    if path.suffix.lower() == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(ln for ln in fh if not ln.startswith("#"))
            header = reader.fieldnames or []
            yield header, None
            for row in reader:
                yield None, row
    elif path.suffix.lower() in (".jsonl", ".ndjson", ".json"):
        with open(path, encoding="utf-8") as fh:
            first = True
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                if first:
                    yield list(row.keys()), None
                    first = False
                yield None, row
            if first:
                yield [], None
    else:
        raise SchemaError(f"unsupported input format {path.suffix!r}")


def ingest(path: str | Path, schema: IngestSchema | Mapping) -> ExperimentDataset:
    """Read and validate one experiment file into an ExperimentDataset.

    Raises SchemaError for missing columns, RowIngestError (with the 1-based
    data row index) for non-numeric or missing cells, and IntegrityError for
    a user appearing in more than one arm.
    """
    if not isinstance(schema, IngestSchema):
        schema = IngestSchema.from_mapping(schema)
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"input file {path} does not exist")

    required = [schema.user_id_column, schema.arm_column,
                *schema.feature_columns, *schema.metric_columns]
    if schema.day_column:
        required.append(schema.day_column)

    rows = _iter_rows(path)
    header, _ = next(rows)
    for column in required:
        if column not in header:
            raise SchemaError(f"input is missing declared column {column!r}")

    arm_of: dict[str, str] = {}
    features = [[] for _ in schema.feature_columns]
    outcomes = [[] for _ in schema.metric_columns]
    days = [] if schema.day_column else None
    row_idx = 0
    for _, row in rows:
        row_idx += 1
        for column in required:
            if column not in row:
                raise RowIngestError(row_idx, f"missing column {column!r}")
        user_id = str(row[schema.user_id_column])
        arm = str(row[schema.arm_column])
        if user_id in arm_of:
            raise IntegrityError(
                f"user {user_id!r} appears in arms {arm_of[user_id]!r} and {arm!r}"
            )
        arm_of[user_id] = arm
        for values, c in zip(features, schema.feature_columns):
            values.append(_parse_number(row[c], c, row_idx))
        for values, c in zip(outcomes, schema.metric_columns):
            values.append(_parse_number(row[c], c, row_idx))
        if days is not None:
            days.append(int(_parse_number(row[schema.day_column],
                                          schema.day_column, row_idx)))

    treatments = sorted(set(arm_of.values()) - {schema.control_action})
    actions = (schema.control_action, *treatments)
    return ExperimentDataset(
        experiment_id=schema.experiment_id,
        user_ids=list(arm_of),
        arm_codes=[actions.index(arm) for arm in arm_of.values()],
        feature_matrix=features,
        outcome_matrix=outcomes,
        days=days,
        actions=actions,
        control_action=schema.control_action,
        metrics=schema.metric_columns,
        features=schema.feature_columns,
        lift_units=schema.lift_units,
    )


# -- stored estimates --------------------------------------------------------

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_LIFT_TEXT = re.compile(
    rf"^\s*({_NUMBER})\s*(%?)\s*(?:±|\+/-|\+-)\s*({_NUMBER})\s*(%?)\s*$"
)


def parse_lift_text(text: str) -> MetricEstimate:
    """Parse a reported "mean ± standard error" lift string.

    A percent sign on the mean marks both numbers as percentages; they are
    converted to fractions (e.g. "-0.049% ± 0.043" -> mean -0.00049,
    std_err 0.00043).
    """
    match = _LIFT_TEXT.match(text)
    if match is None:
        raise ValueError(f"cannot parse lift text {text!r}")
    mean = float(match.group(1))
    std_err = float(match.group(3))
    if match.group(2) == "%" or match.group(4) == "%":
        mean /= 100.0
        std_err /= 100.0
    return MetricEstimate(mean=mean, std_err=abs(std_err))


def load_stored_estimates(path: str | Path) -> dict[str, dict[str, MetricEstimate]]:
    """Load a stored-estimate file: JSON list of per-policy, per-metric lifts.

    Entries carry either numeric {mean, std_err} fields or a single
    "estimate" text field in "mean ± std_err" form. Returns a policy table:
    {policy_id: {metric_id: MetricEstimate}}.
    """
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    if isinstance(entries, Mapping):
        entries = entries.get("estimates", [])
    table: dict[str, dict[str, MetricEstimate]] = {}
    for entry in entries:
        policy_id = str(entry["policy_id"])
        metric_id = str(entry["metric_id"])
        if "estimate" in entry:
            est = parse_lift_text(entry["estimate"])
        else:
            est = MetricEstimate(mean=float(entry["mean"]),
                                 std_err=float(entry["std_err"]))
        table.setdefault(policy_id, {})[metric_id] = est
    return table
