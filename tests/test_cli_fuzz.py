"""No input file ends the CLI in a traceback.

Arbitrary bytes and mutated fixture files go through ``main([command,
path])`` for the commands that read one automaton.  Every run must return
0, 1 or 2, write nothing on stderr when it succeeds, and write exactly one
``error:`` line on stderr when it fails.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from subseq.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_BYTES = [p.read_bytes() for p in sorted(FIXTURES.glob("*.dfa"))]
COMMANDS = ("classify", "decompose", "patterns", "mplus")

# Bytes that a byte edit writes: the format's own tokens, a few states out
# of range, and bytes that are not valid UTF-8 or not printable.
INTERESTING = b"0123456789abcz \n\t:#-\x00\x0b\xff"

byte_edit = st.tuples(
    st.sampled_from(("replace", "insert", "delete")),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([bytes([b]) for b in INTERESTING]),
)


@st.composite
def mutated_fixture(draw):
    """A fixture with some transitions redirected, which keeps it well
    formed and reaches the analyses, then a few bytes replaced, inserted
    or deleted, which mostly does not."""
    lines = draw(st.sampled_from(FIXTURE_BYTES)).decode("utf-8").splitlines()
    n_states = int(lines[1].split(":")[1])
    redirect = st.tuples(st.integers(0, 100), st.integers(0, 100))
    for row, target in draw(st.lists(redirect, max_size=4)):
        row = 4 + row % (len(lines) - 4)  # a transition line, past the header
        source, letter, _ = lines[row].split()
        lines[row] = f"{source} {letter} {target % n_states}"
    data = bytearray("\n".join(lines).encode("utf-8") + b"\n")
    for op, position, byte in draw(st.lists(byte_edit, max_size=3)):
        at = position % (len(data) + 1)
        if op == "insert":
            data[at:at] = byte
        elif at < len(data):
            data[at : at + 1] = byte if op == "replace" else b""
    return bytes(data)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.dfa"


def _run_every_command(path: Path, data: bytes) -> None:
    path.write_bytes(data)
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(path)])
        assert code in (0, 1, 2), (command, data)
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == [], (command, data)
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), (command, data, lines)


FUZZ = settings(max_examples=100, deadline=None)


@FUZZ
@given(data=st.binary(max_size=200))
def test_cli_survives_arbitrary_bytes(input_path, data):
    _run_every_command(input_path, data)


@FUZZ
@given(data=mutated_fixture())
def test_cli_survives_mutated_fixtures(input_path, data):
    _run_every_command(input_path, data)
