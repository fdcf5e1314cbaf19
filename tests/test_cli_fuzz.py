"""No input file ends the CLI in a traceback.

Arbitrary bytes and mutated fixture files go through ``main([command,
path])`` for the commands that read one automaton.  Every run must return
0, 1 or 2, write nothing on stderr when it succeeds, and write exactly one
``error:`` line on stderr when it fails.

The same inputs, and arbitrary text, also go through ``parse_dfa`` and the
reference parser in ``helpers``, which must agree on every one.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from subseq.cli import main, parse_dfa
from subseq.errors import ParseError

from helpers import reference_parse_dfa

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


def _assert_parsers_agree(text):
    try:
        got = parse_dfa(text)
    except ParseError as error:
        with pytest.raises(ParseError) as want:
            reference_parse_dfa(text)
        assert (error.message, error.line) == (want.value.message, want.value.line), text
        if error.column is not None:
            # a column is the 1-based start of a token in the line as
            # written; on the accepting line a token may follow the colon
            raw_line = text.splitlines()[error.line - 1]
            before = raw_line[: error.column - 1]
            assert not raw_line[error.column - 1].isspace(), (text, error)
            assert before[-1:].isspace() or before.lstrip() in ("", "accepting:"), (text, error)
    else:
        assert reference_parse_dfa(text) == got, text


@st.composite
def spliced_fixture(draw):
    """A fixture with arbitrary text inserted at one place."""
    text = draw(st.sampled_from(FIXTURE_BYTES)).decode("utf-8")
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.text(max_size=20)) + text[at:]


@st.composite
def retokened_fixture(draw):
    """A fixture with a few of its space-separated fields replaced by short
    text over the format's own characters, which reaches every check of a
    transition line."""
    text = draw(st.sampled_from(FIXTURE_BYTES)).decode("utf-8")
    lines = [line.split(" ") for line in text.splitlines()]
    field = st.text(alphabet="0123456789abcz+-_#: \t\u3000", max_size=4)
    edit = st.tuples(st.integers(0, 99), st.integers(0, 9), field)
    for row, column, replacement in draw(st.lists(edit, min_size=1, max_size=3)):
        fields = lines[row % len(lines)]
        fields[column % len(fields)] = replacement
    return "\n".join(" ".join(fields) for fields in lines) + "\n"


PARSE = settings(max_examples=300, deadline=None)


@PARSE
@given(data=mutated_fixture())
def test_parse_agrees_with_the_reference_on_mutated_fixtures(data):
    _assert_parsers_agree(data.decode("utf-8", errors="replace"))


@PARSE
@given(text=st.text(max_size=200) | spliced_fixture() | retokened_fixture())
def test_parse_agrees_with_the_reference_on_arbitrary_text(text):
    _assert_parsers_agree(text)
