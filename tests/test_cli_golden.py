"""Byte-exact CLI output on the fixture files.

Every (fixture, command) pair is run in-process and its exit code, stdout
and stderr are compared with the stored golden values in
``golden/cli.json``, and so are those of copies of the fixtures whose lines
end in CRLF or a lone CR; ``main`` must build its argument parser once per
process across them.  Regenerate them (only when an output change is
intended) with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from subseq import cli
from subseq.cli import main

from helpers import count_calls

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden" / "cli.json"

COMMANDS = [
    ["classify"],
    ["classify", "--json"],
    ["classify", "--witness"],
    ["mplus"],
    ["mplus", "--json"],
    ["patterns"],
    ["patterns", "--json"],
    ["decompose"],
    ["decompose", "--json"],
    ["closure"],
    ["oracle-check", "--max-len", "6"],
    ["classify", "--json", "--oracle-check", "5"],
]

CASES = [
    (fixture, command)
    for fixture in sorted(p.name for p in FIXTURES.glob("*.dfa"))
    for command in COMMANDS
]


def case_id(fixture, command):
    return " ".join([command[0], fixture] + command[1:])


def run_case(fixture, command, directory=FIXTURES):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command[0], str(directory / fixture)] + command[1:])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize(
    "fixture,command", CASES, ids=[case_id(f, c) for f, c in CASES]
)
def test_cli_output_matches_golden(fixture, command):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_case(fixture, command) == golden[case_id(fixture, command)]


def test_golden_file_covers_exactly_the_cases():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(case_id(f, c) for f, c in CASES)


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_crlf_and_lone_cr_copies_match_the_golden_output(tmp_path, newline):
    # the file is read as bytes, so its line ends reach parse_dfa as they
    # are; every case's output is still the LF original's
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for path in FIXTURES.glob("*.dfa"):
        data = path.read_bytes()
        assert b"\r" not in data
        (tmp_path / path.name).write_bytes(data.replace(b"\n", newline))
    for fixture, command in CASES:
        assert run_case(fixture, command, tmp_path) == golden[case_id(fixture, command)]


def test_main_builds_its_parser_once(monkeypatch):
    cli._parser.cache_clear()
    builds = count_calls(monkeypatch, cli.build_parser)
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["oracle-check", str(FIXTURES / "m2.dfa"), "--max-len", "six"])
    assert exc.value.code == 2
    assert "invalid int value: 'six'" in err.getvalue()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for fixture, command in [
        ("m2.dfa", ["classify", "--json"]),
        ("a_ideal.dfa", ["decompose"]),
    ]:
        assert run_case(fixture, command) == golden[case_id(fixture, command)]
    assert len(builds) == 1


if __name__ == "__main__":
    results = {case_id(f, c): run_case(f, c) for f, c in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(results, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(results)} cases to {GOLDEN}")
