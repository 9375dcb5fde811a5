"""The package's file layer: dataset ingestion and the on-disk format of
every artifact.

`ingest` reads a headered CSV or JSONL experiment file, validated against
a schema: a JSON document naming the arm column, feature columns, and
metric columns. Missing values are rejected, not imputed: segmentation
needs totally ordered feature values.

Every other module reads and writes its files here. `csv_blocks` is the
one CSV reader: `ingest`, `governance.load_snapshots` and
`search.load_policy_table` stream their files through it in fixed-size
blocks of text and float64 columns, and `csv_rows` re-reads a file row by
row only to name the first bad row. `write_csv` is the one CSV writer and
the one place where values become CSV text: a column is a list or a 1-D
numpy array, read one block of rows at a time. It starts the file with the
`format_version` comment line, formats cells as `csv.writer` would
(without using it), a column at a time, and decides quoting per block: a
block holding a row that `csv_blocks` would otherwise not read back cell
for cell is written row by row, that row's text quoted. `write_json`
and `write_jsonl` add `format_version` to every object they write;
`read_json` and `read_jsonl` drop it and name the file (and line) of
malformed JSON, and each builds its typed records (`read_json` when
given a record type) with `config.from_mapping`.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .config import from_mapping as read_config, json_key
from .errors import ConfigError, IntegrityError, RowIngestError, SchemaError
from .experiment import ABSOLUTE, LIFT_UNITS, ExperimentDataset, MetricEstimate

FORMAT_VERSION = 1
# The first line of every CSV artifact and of the selector report text.
VERSION_LINE = f"# format_version: {FORMAT_VERSION}"


@dataclass(frozen=True)
class IngestSchema:
    """Column mapping for one experiment file, read from the schema.json
    keys named by `json_key`."""

    arm_column: str = json_key("arm")
    feature_columns: tuple[str, ...] = json_key("features")
    metric_columns: tuple[str, ...] = json_key("metrics")
    user_id_column: str = json_key("user_id", default="user_id")
    control_action: str = json_key("control", default="control")
    lift_units: str = ABSOLUTE
    day_column: str | None = json_key("day", default=None)
    experiment_id: str = "experiment"

    def __post_init__(self):
        if not self.feature_columns:
            raise SchemaError("schema declares no feature columns")
        if not self.metric_columns:
            raise SchemaError("schema declares no metric columns")
        if self.lift_units not in LIFT_UNITS:
            raise SchemaError(f"lift_units {self.lift_units!r} is not supported: "
                              f"only {ABSOLUTE!r} differences are computed")

    @classmethod
    def from_mapping(cls, data: Mapping) -> "IngestSchema":
        """The schema from its JSON mapping. An unknown or missing key or a
        wrong type raises SchemaError naming the key."""
        try:
            return read_config(cls, data)
        except ConfigError as exc:
            raise SchemaError(str(exc)) from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "IngestSchema":
        """The schema from a JSON file, read by `read_json`."""
        return cls.from_mapping(read_json(path))


def _parse_number(raw, column: str, row_idx: int) -> float:
    if raw is None or (isinstance(raw, str) and raw.strip() == ""):
        raise RowIngestError(row_idx, f"missing value in column {column!r}")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise RowIngestError(row_idx, f"non-numeric value {raw!r} in column {column!r}")
    except OverflowError:  # a JSON integer beyond the float range
        raise RowIngestError(row_idx, f"value {raw!r} in column {column!r} "
                                      f"does not fit a float")
    if not math.isfinite(value):
        raise RowIngestError(row_idx, f"non-finite value {raw!r} in column {column!r}")
    return value


# -- JSON and JSONL ----------------------------------------------------------


def write_json(path: str | Path, payload: Mapping) -> None:
    """Write `payload` plus its `format_version` as indented JSON with
    sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format_version": FORMAT_VERSION, **payload}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")


def write_jsonl(path: str | Path, records: Iterable[Mapping]) -> None:
    """Write one JSON object with sorted keys per line: each record plus its
    `format_version`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"format_version": FORMAT_VERSION, **record},
                                 sort_keys=True) + "\n" for record in records)


def _parse_json(text: str):
    # A JSON value without its `format_version` key.
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from None
    if isinstance(value, dict):
        value.pop("format_version", None)
    return value


def read_json(path: str | Path, record_type=None):
    """The JSON value of a file without its `format_version` key, or the
    `record_type` dataclass that `config.from_mapping` builds from it.
    Malformed JSON or a rejected record raises ConfigError naming the file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        value = _parse_json(text)
        return value if record_type is None else read_config(record_type, value)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def read_jsonl(path: str | Path, record_type) -> list:
    """One `record_type` dataclass per non-blank line of a JSONL file,
    built by `config.from_mapping` from the line's object without its
    `format_version` key. Malformed JSON, or a record that `record_type`
    rejects with ConfigError or ValueError, raises ConfigError naming the
    file and the 1-based line."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line, text in enumerate(fh, 1):
            if not text.strip():
                continue
            try:
                records.append(read_config(record_type, _parse_json(text)))
            except (ConfigError, ValueError) as exc:
                raise ConfigError(f"{path}, line {line}: {exc}") from exc
    return records


# -- the CSV writer ----------------------------------------------------------


def _unreadable(row: Sequence) -> bool:
    # Whether a row written with minimal quoting cannot be read back by
    # `csv_blocks`. Only a text cell holding a comma, a quote or a newline
    # is quoted; the reader ends a line at a bare carriage return, and drops
    # a line that starts with `#` as a comment.
    bare = [isinstance(cell, str) and not any(c in cell for c in ',"\n')
            for cell in row]
    return (bare[0] and row[0].startswith("#")) or any(
        is_bare and "\r" in cell for is_bare, cell in zip(bare, row))


# A text cell holding one of these is quoted.
_SPECIAL = re.compile('[,"\n]')


def _cell(value, quote_text: bool = False) -> str:
    # One cell as csv.writer writes it: a float by `repr`, a str quoted
    # where it holds a comma, a quote or a newline (every str, with
    # `quote_text`), anything else by `str`.
    if isinstance(value, str):
        if quote_text or _SPECIAL.search(value):
            return '"' + value.replace('"', '""') + '"'
        return value
    return float.__repr__(value) if isinstance(value, float) else str(value)


def _column_cells(column: Sequence) -> list[str]:
    # The cells of one block of a column, unquoted text formatted in bulk.
    try:
        return list(map(float.__repr__, column))
    except TypeError:
        pass
    try:
        if not _SPECIAL.search("".join(column)):  # text, none of it quoted
            return list(column)
    except TypeError:
        pass
    return list(map(_cell, column))


def _line(cells: Sequence[str]) -> str:
    # csv.writer quotes a row made of one empty cell, which would otherwise
    # be a blank line.
    return '""' if len(cells) == 1 and cells[0] == "" else ",".join(cells)


def _row_line(row: Sequence) -> str:
    # One row checked on its own: every text cell quoted if it is unreadable.
    quote_text = _unreadable(row)
    return _line([_cell(value, quote_text) for value in row]) + "\n"


# Rows formatted and written per block: the text of one block is held at a
# time, however many rows the file has.
_WRITE_ROWS = 4096


def write_csv(path: str | Path, header: Sequence[str],
              columns: Sequence[Sequence]) -> None:
    """Write a CSV file that `csv_blocks` reads back cell for cell: the
    `format_version` comment line, the header, then one row per entry of
    the equal-length `columns`.

    A column is a list or a 1-D numpy array of text (str) or numbers. It is
    read `_WRITE_ROWS` rows at a time, an array block turned into Python
    values by one `tolist`, so a caller hands over its arrays as they are.
    Cells are written as csv.writer (with "\\n" line ends) writes them: a
    float by `repr`, an int by `str`, and a text cell holding a comma, a
    quote or a newline quoted, its quotes doubled. A row that this would
    write unreadably (see `_unreadable`) is written with every text cell
    quoted instead, as csv.writer's QUOTE_NONNUMERIC mode does. Quoting is
    decided per block: a block is formatted column by column, and formatted
    again row by row only when its text holds a carriage return or a line
    that starts with `#`.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(VERSION_LINE + "\n" + _row_line(header))
        for start in range(0, len(columns[0]), _WRITE_ROWS):
            block = [column[start:start + _WRITE_ROWS] for column in columns]
            block = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
            cells = [_column_cells(column) for column in block]
            text = ("".join(_line(row) + "\n" for row in zip(*cells))
                    if len(cells) == 1 else "\n".join(map(",".join, zip(*cells))) + "\n")
            if "\r" in text or text.startswith("#") or "\n#" in text:
                text = "".join(map(_row_line, zip(*block)))
            fh.write(text)


# -- the CSV reader ----------------------------------------------------------

# Physical lines read per chunk, so at most this many data rows per block.
# The block size bounds the reader's transient memory: ten governed runs of
# a 14 000-user file with its 56 000-row snapshot file, in one process, peak
# at 42.6 MB of RSS with chunks of 1024 lines and at 47.2 MB with chunks of
# 8192 (2-core x86-64 host, Python 3.11, numpy 2.4).
_BLOCK_ROWS = 1024

_CSV = {"delimiter": ",", "quotechar": '"', "comments": None}
# From a chunk holding one of these on, the file is parsed as text: numpy's
# number parser skips \x1c-\x1f as whitespace where float() rejects them,
# and its str fields drop trailing NULs where a text cell keeps them.
_TEXT_ONLY = "\x00\x1c\x1d\x1e\x1f"
# The width a typed parse first gives its str fields; a field that fills
# its width is parsed again at the chunk's longest line, up to the widest
# width. A str field costs its width in every row, so from a chunk with
# longer lines on, the file is parsed as text.
_FIELD_WIDTH = 16
_MAX_FIELD_WIDTH = 256


def _records(lines: Iterable[str], max_rows: int | None,
             usecols: list[int] | None = None) -> np.ndarray:
    # One (rows, fields) object array of str. loadtxt stops exactly after
    # its last row, so the next call on `lines` resumes there. Blank lines
    # are skipped and not counted as rows.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data left
        return np.loadtxt(lines, dtype=object, usecols=usecols,
                          max_rows=max_rows, ndmin=2, **_CSV)


def _ends_quoted(line: str, quoted: bool) -> bool:
    # Whether a physical line that starts inside a quoted field or not
    # (`quoted`) ends inside one. As loadtxt reads a field: a quote opens it
    # only as its first character, "" inside it is a quote, and after its
    # closing quote any quote is text up to the next comma.
    i = 0
    while True:
        if quoted:
            i = line.find('"', i)
            if i < 0:
                return True
            if line.startswith('"', i + 1):
                i += 2
                continue
            quoted = False
        elif line.startswith('"', i):
            quoted, i = True, i + 1
            continue
        i = line.find(",", i) + 1
        if i == 0:
            return False


def _data_lines(fh) -> Iterator[str]:
    # The physical lines of `fh` minus comments: lines that start with `#`
    # outside a quoted field. Only a line holding a quote can open or close
    # one, so the others are not scanned.
    quoted = False
    for line in fh:
        if quoted or not line.startswith("#"):
            yield line
            if quoted or '"' in line:
                quoted = _ends_quoted(line, quoted)


def _open_csv(fh, columns: Sequence[str]) -> tuple[Iterator[str], list[str], list[int]]:
    # Returns the data lines after the header, the header's fields and each
    # requested column's position in it. `fh` is left just after the header.
    lines = _data_lines(fh)
    first = next(lines, "")
    lines = chain([first], lines)
    # A blank first line is an empty header; loadtxt would skip it.
    header = [] if first.strip("\r\n") == "" else _records(lines, 1)[0].tolist()
    for column in columns:
        if column not in header:
            raise SchemaError(f"input is missing declared column {column!r}")
        if header.count(column) > 1:
            raise SchemaError(f"input names column {column!r} more than once")
    return lines, header, [header.index(column) for column in columns]


def csv_header(path: str | Path) -> list[str]:
    """The header fields of a CSV file in `csv_blocks`' dialect."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return _open_csv(fh, ())[1]


def _plain(text: str) -> bool:
    # Whether a chunk can skip the comment filter and parse typed: it holds
    # no quote, no line that starts with `#` and none of `_TEXT_ONLY`.
    # One-character searches are quick, so `#` is looked for first.
    return not ('"' in text or any(c in text for c in _TEXT_ONLY) or (
        "#" in text and (text.startswith("#") or "\n#" in text or "\r#" in text)))


def _split(cells: np.ndarray, n_text: int) -> tuple[list[np.ndarray], np.ndarray]:
    # A text parse's block: its text columns, and its numbers through float().
    return list(cells[:, :n_text].T), cells[:, n_text:].astype(float)


def _typed_block(chunk: list[str], positions: list[int], widths: list[int]
                 ) -> tuple[list[np.ndarray], np.ndarray] | None:
    # The text columns, each a str array at its own width, and the float64
    # numbers of a plain chunk's rows. `widths` holds the str fields' widths
    # and is widened in place when a field fills its width (it may have been
    # cut). A number that numpy's parser rejects sends the chunk to a text
    # parse; a field that fills its width in a line too long for the widest
    # field gives None.
    n_text = len(widths)
    while True:
        dtype = np.dtype([*((f"t{j}", f"U{w}") for j, w in enumerate(widths)),
                          ("numbers", float, (len(positions) - n_text,))])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # only blank lines
                block = np.loadtxt(chunk, dtype=dtype, usecols=positions,
                                   ndmin=1, **_CSV)
        except ValueError:
            return _split(_records(chunk, None, positions), n_text)
        lengths = [int(np.char.str_len(block[f"t{j}"]).max(initial=0))
                   for j in range(n_text)]
        if all(n < w for n, w in zip(lengths, widths)):
            return ([block[f"t{j}"].astype(f"U{max(n, 1)}")
                     for j, n in enumerate(lengths)], block["numbers"].copy())
        longest = max(map(len, chunk)) + 1  # wider than any field
        if longest > _MAX_FIELD_WIDTH:
            return None
        widths[:] = [longest if n == w else w for n, w in zip(lengths, widths)]


def csv_blocks(path: str | Path, text_columns: Sequence[str],
               number_columns: Sequence[str] = ()
               ) -> Iterator[tuple[list[np.ndarray], np.ndarray]]:
    """Stream a headered CSV file as blocks of at most `_BLOCK_ROWS` data rows.

    Each block is a pair: a list with one str array per text column (its
    cells as str objects, or numpy str at the column's width) and a (rows,
    len(number_columns)) float64 array, each in the order given. The
    dialect: the file is UTF-8, and a byte-order mark before its first line
    (as spreadsheets write) is dropped; a physical line that starts with `#`
    outside a quoted field is a comment and is dropped, blank lines are
    skipped, fields are comma-separated with standard double-quote quoting
    (quoted commas, newlines and doubled quotes), and fields beyond the
    requested columns are ignored. A header that lacks a requested column,
    or names one more than once, raises SchemaError.

    The file is read in chunks of `_BLOCK_ROWS` physical lines. A chunk
    without a quote or a comment line is parsed by numpy in one typed pass:
    numbers in C, text as numpy str. A number that parser rejects (`1_0`,
    `١`) sends the chunk to a text parse whose numbers go through float(),
    which gives the same value wherever both parse. From the first chunk
    that holds a quote or a comment line, or text cells that would need a
    str field wider than `_MAX_FIELD_WIDTH`, the rest of the file goes
    through the comment filter, and its numbers through float().
    A row too short to hold every
    requested column, or a number that float() rejects, raises ValueError
    here; `csv_rows` names its row.
    """
    n_text = len(text_columns)
    widths = [_FIELD_WIDTH] * n_text
    with open(path, newline="", encoding="utf-8-sig") as fh:
        _, _, positions = _open_csv(fh, [*text_columns, *number_columns])
        while chunk := list(islice(fh, _BLOCK_ROWS)):
            if not _plain("".join(chunk)) or (
                    block := _typed_block(chunk, positions, widths)) is None:
                break
            if len(block[1]):
                yield block
        else:
            return
        lines = _data_lines(chain(chunk, fh))
        while len(cells := _records(lines, _BLOCK_ROWS, positions)):
            yield _split(cells, n_text)


def csv_rows(path: str | Path, columns: Sequence[str]
             ) -> Iterator[tuple[int, list, RowIngestError | None]]:
    """The rows of `csv_blocks`, one at a time, for finding a bad row.

    Yields (row, cells, short) per data row: the 1-based data row number,
    the requested cells as text (None where the row is too short) and, for
    a short row, the RowIngestError that names it (else None). Loaders
    read this only after `csv_blocks` failed, to raise the first bad row's
    error.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        lines, header, positions = _open_csv(fh, columns)
        row = 0
        while len(record := _records(lines, 1)):
            row += 1
            fields = record[0]
            cells = [fields[p] if p < len(fields) else None for p in positions]
            short = None
            if max(positions) >= len(fields):
                short = RowIngestError(row, f"expected {len(header)} fields, "
                                            f"got {len(fields)}")
            yield row, cells, short


_ABSENT = object()  # a JSONL row's missing key


def _jsonl_object(row: int, line: str) -> dict:
    # A JSONL line's object; RowIngestError names a line without one.
    try:
        value = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RowIngestError(row, f"malformed JSON: {exc}") from None
    if not isinstance(value, dict):
        raise RowIngestError(row, f"expected a JSON object, got {type(value).__name__}")
    return value


def _jsonl_rows(path: Path, columns: Sequence[str]
                ) -> Iterator[tuple[int, list, None]]:
    # The JSONL counterpart of csv_rows: a missing key gives _ABSENT, and a
    # line without an object raises when it is reached, after earlier rows.
    with open(path, encoding="utf-8") as fh:
        lines = enumerate((line for line in fh if line.strip()), 1)
        rows = (_jsonl_object(row_idx, line) for row_idx, line in lines)
        first = next(rows, {})
        for column in columns:
            if column not in first:
                raise SchemaError(f"input is missing declared column {column!r}")
        for row_idx, row in enumerate(chain([first], rows), 1):
            yield row_idx, [row[c] if c in row else _ABSENT for c in columns], None


def _jsonl_blocks(path: Path, text_columns: Sequence[str],
                  number_columns: Sequence[str]
                  ) -> Iterator[tuple[list[np.ndarray], np.ndarray]]:
    # JSONL rows as csv_blocks' blocks, so one validator reads both. The
    # text cells become str() of their JSON values and the numbers go
    # through float().
    n_text = len(text_columns)
    rows = _jsonl_rows(path, [*text_columns, *number_columns])
    while chunk := [cells for _, cells, _ in islice(rows, _BLOCK_ROWS)]:
        if any(cell is _ABSENT for cells in chunk for cell in cells):
            raise ValueError("a JSONL row lacks a column")
        block = np.empty((len(chunk), n_text + len(number_columns)), dtype=object)
        for j in range(block.shape[1]):
            column = (cells[j] for cells in chunk)
            block[:, j] = np.fromiter(column if j >= n_text else map(str, column),
                                      dtype=object, count=len(chunk))
        yield _split(block, n_text)


# Day labels are stored as int64; these floats bound the labels that fit.
_DAY_RANGE = (-2.0 ** 63, 2.0 ** 63)


def _ingest_columns(blocks: Iterator[tuple[list[np.ndarray], np.ndarray]],
                    n_numbers: int, has_day: bool
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    # Ids, arms, the (values, users) float matrix of the features and
    # metrics, and the int64 day labels (truncated; None without a day
    # column), in file order. The dataset adopts the matrix's rows, so the
    # day row is not part of it. Raises ValueError (TypeError or
    # OverflowError for some JSON values) on a bad cell or short row,
    # RowIngestError on a JSONL line without an object; the row-by-row scan
    # then names the first bad row. A repeated user is left to
    # ExperimentDataset, which checks the ids anyway.
    ids, arms = [np.empty(0, dtype=str)], [np.empty(0, dtype=str)]
    numbers = [np.empty((n_numbers, 0))]
    for (user, arm), values in blocks:
        ids.append(user.astype(str, copy=False))
        arms.append(arm.astype(str, copy=False))
        values = values.T
        if not np.isfinite(values).all():
            raise ValueError("non-finite cell")
        if has_day and not ((values[-1] >= _DAY_RANGE[0])
                            & (values[-1] < _DAY_RANGE[1])).all():
            raise ValueError("day label beyond int64")
        numbers.append(values)
    n_values = n_numbers - has_day
    days = (np.concatenate([block[n_values] for block in numbers]).astype(np.int64)
            if has_day else None)
    return (np.concatenate(ids), np.concatenate(arms),
            np.concatenate([block[:n_values] for block in numbers], axis=1), days)


def _raise_first_bad_row(rows, required: list[str], day_column: str | None) -> None:
    # Re-applies the per-row checks in file order: a missing JSONL key, a
    # user already seen in another row, then each number, then a short row.
    arm_of: dict[str, str] = {}
    for row_idx, cells, short in rows:
        for column, cell in zip(required, cells):
            if cell is _ABSENT:
                raise RowIngestError(row_idx, f"missing column {column!r}")
        user_id, arm = str(cells[0]), str(cells[1])
        if user_id in arm_of:
            raise IntegrityError(
                f"user {user_id!r} appears in arms {arm_of[user_id]!r} and {arm!r}"
            )
        arm_of[user_id] = arm
        values = [_parse_number(cell, column, row_idx)
                  for column, cell in zip(required[2:], cells[2:])]
        if day_column and not _DAY_RANGE[0] <= values[-1] < _DAY_RANGE[1]:
            raise RowIngestError(row_idx, f"day value {cells[-1]!r} in column "
                                          f"{day_column!r} does not fit int64")
        if short is not None:
            raise short


def ingest(path: str | Path, schema: IngestSchema | Mapping) -> ExperimentDataset:
    """Read and validate one experiment file into an ExperimentDataset.

    A `.csv` file streams through `csv_blocks` (its dialect is described
    there); a `.jsonl`, `.ndjson` or `.json` file holds one JSON object per
    line, and the first object's keys are the header. Both become the same
    columns: numbers parse as Python's float() parses them, day labels
    truncate to int, and actions are the control followed by the other
    arms, sorted.

    Raises SchemaError for a missing column in the header, RowIngestError
    (with the 1-based data row) for a missing, non-numeric or non-finite
    cell, a short CSV row, or a JSONL line that is malformed, holds no
    object or lacks a column, and IntegrityError for a user appearing in
    more than one row or an arm name holding "-". The error named is that
    of the first bad row in the file.
    """
    if not isinstance(schema, IngestSchema):
        schema = IngestSchema.from_mapping(schema)
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"input file {path} does not exist")
    suffix = path.suffix.lower()
    if suffix == ".csv":
        blocks, rows = csv_blocks, csv_rows
    elif suffix in (".jsonl", ".ndjson", ".json"):
        blocks, rows = _jsonl_blocks, _jsonl_rows
    else:
        raise SchemaError(f"unsupported input format {path.suffix!r}")

    required = [schema.user_id_column, schema.arm_column,
                *schema.feature_columns, *schema.metric_columns]
    if schema.day_column:
        required.append(schema.day_column)
    try:
        ids, arms, numbers, days = _ingest_columns(
            blocks(path, required[:2], required[2:]), len(required) - 2,
            bool(schema.day_column))
    except (ValueError, TypeError, OverflowError, RowIngestError) as exc:
        _raise_first_bad_row(rows(path, required), required, schema.day_column)
        raise IntegrityError(f"{path}: a block failed to parse ({exc}) but "
                             f"no row did") from exc

    names, arm_index = np.unique(arms, return_inverse=True)
    treatments = sorted(set(names.tolist()) - {schema.control_action})
    actions = (schema.control_action, *treatments)
    arm_codes = np.array([actions.index(name) for name in names.tolist()],
                         dtype=np.intp)[arm_index]
    n_features = len(schema.feature_columns)
    try:
        return ExperimentDataset(
            experiment_id=schema.experiment_id,
            user_ids=ids,
            arm_codes=arm_codes,
            feature_matrix=numbers[:n_features],
            outcome_matrix=numbers[n_features:],
            days=days,
            actions=actions,
            control_action=schema.control_action,
            metrics=schema.metric_columns,
            features=schema.feature_columns,
            lift_units=schema.lift_units,
        )
    except IntegrityError:
        # A repeated user: name its first repeating row and both arms. Ids
        # that repeat only as numpy strings, which drop trailing NULs
        # ("u1" and "u1\x00"), and an action name holding "-" keep the
        # dataset's own message.
        _raise_first_bad_row(rows(path, required), required, schema.day_column)
        raise


# -- reported lifts ----------------------------------------------------------

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
