"""The file layer in `ingest`: the version key and comment line, JSON and
JSONL records, and the typed reader's errors."""

import re
from dataclasses import dataclass
from pathlib import Path

import pytest

import cohortpolicy
from cohortpolicy import search
from cohortpolicy.config import from_mapping
from cohortpolicy.errors import ConfigError
from cohortpolicy.governance import HookReport
from cohortpolicy.ingest import (FORMAT_VERSION, VERSION_LINE, csv_blocks, read_json,
                                 read_jsonl, write_csv, write_json, write_jsonl)

from conftest import make_policy, table_of


@dataclass
class Record:
    name: str
    ids: list[str]


def test_json_objects_carry_the_version_and_readers_drop_it(tmp_path):
    write_json(tmp_path / "a.json", {"b": [1, 2], "a": "x"})
    assert (tmp_path / "a.json").read_text() == (
        '{\n  "a": "x",\n  "b": [\n    1,\n    2\n  ],\n'
        f'  "format_version": {FORMAT_VERSION}\n}}\n')
    assert read_json(tmp_path / "a.json") == {"a": "x", "b": [1, 2]}

    write_jsonl(tmp_path / "r.jsonl", [{"name": "p", "ids": ["a"]},
                                       {"ids": [], "name": "q"}])
    lines = (tmp_path / "r.jsonl").read_text().splitlines()
    assert lines == [f'{{"format_version": {FORMAT_VERSION}, "ids": ["a"], "name": "p"}}',
                     f'{{"format_version": {FORMAT_VERSION}, "ids": [], "name": "q"}}']
    assert read_jsonl(tmp_path / "r.jsonl", Record) == [Record("p", ["a"]),
                                                        Record("q", [])]


def test_read_json_names_the_file_of_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"a": 1,}')
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: malformed JSON: "):
        read_json(path)


@pytest.mark.parametrize("line,message", [
    ('{"name": "p"', "malformed JSON: Expecting"),
    ('{"name": "p"}', "missing required key 'ids'"),
    ('{"name": "p", "ids": "ab"}', "ids: expected a list, got 'ab'"),
    ('{"name": "p", "ids": ["a", 1]}', r"ids\[1\]: expected a string, got 1"),
    ('["p"]', r"Record: expected an object, got \['p'\]"),
])
def test_read_jsonl_names_the_file_and_line(tmp_path, line, message):
    path = tmp_path / "r.jsonl"
    path.write_text('{"name": "p", "ids": []}\n\n' + line + "\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}, line 3: {message}"):
        read_jsonl(path, Record)


def test_read_jsonl_names_the_line_of_a_record_its_type_rejects(tmp_path):
    path = tmp_path / "reports.jsonl"
    path.write_text('{"stage": "post_search", "verdict": "reject"}\n')
    with pytest.raises(ConfigError, match="line 1: a rejection needs"):
        read_jsonl(path, HookReport)


def test_list_fields_convert_each_item():
    assert from_mapping(Record, {"name": "p", "ids": ("a", "b")}).ids == ["a", "b"]
    with pytest.raises(ConfigError, match=r"^ids\[0\]: expected a string"):
        from_mapping(Record, {"name": "p", "ids": [None]})


def test_write_csv_starts_with_the_version_line_and_reads_back(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["id", "x", "n"], [["#a", "b\rc", "d"], [0.5, -0.0, 1e-300], [1, 2, 3]])
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith(VERSION_LINE + "\n")
    assert text.split("\n")[1:] == ['id,x,n', '"#a",0.5,1', '"b\rc",-0.0,2',
                                    'd,1e-300,3', '']
    assert [list(row) for text, _ in csv_blocks(path, ["id", "x", "n"])
            for row in zip(*(column.tolist() for column in text))] == \
        [["#a", "0.5", "1"], ["b\rc", "-0.0", "2"], ["d", "1e-300", "3"]]
    [([ids], numbers)] = csv_blocks(path, ["id"], ["x", "n"])
    assert ids.tolist() == ["#a", "b\rc", "d"]
    assert numbers.tolist() == [[0.5, 1.0], [-0.0, 2.0], [1e-300, 3.0]]


def test_load_policy_table_drops_a_byte_order_mark(tmp_path):
    # With the mark, the version line no longer started with '#' and was
    # read as the header.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    search.save_policy_table(plain, table_of(
        [make_policy("a", [0.5, -1.0], [0.1, 0.2]), make_policy("b", [1.5, 2.0])],
        ["m1", "m2"]))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    (got, got_metrics), (want, want_metrics) = (search.load_policy_table(marked),
                                                search.load_policy_table(plain))
    assert got_metrics == want_metrics == ["m1", "m2"]
    assert got.ids == want.ids == ["a", "b"]
    assert got.mean.tobytes() == want.mean.tobytes()
    assert got.std_err.tobytes() == want.std_err.tobytes()


def test_search_re_exports_the_format_version():
    assert search.FORMAT_VERSION == FORMAT_VERSION


def test_only_the_file_layer_spells_the_format():
    # Every other module writes and reads its files through `ingest`.
    package = Path(cohortpolicy.__file__).parent
    spelled = re.compile(r"csv\.writer|json\.(dump|load)s?\(|format_version")
    offenders = [f"{path.name}:{number}"
                 for path in sorted(package.glob("*.py")) if path.name != "ingest.py"
                 for number, line in enumerate(path.read_text().splitlines(), 1)
                 if spelled.search(line)]
    assert offenders == []
