"""Command-line front end: the automaton file format, exports and the
console entry point.  ``classify`` is re-exported from ``subseq.alternation``.

Automaton file format, one machine per file ('#' starts a comment line):

    alphabet: ab
    states: 4
    start: 0
    accepting: 1 3
    0 a 1
    0 b 0
    ...

followed by exactly one transition line per (state, letter) pair.  The
file is UTF-8 text, and its lines end in LF, CRLF or a lone CR.

On the small inputs most calls get, the fixed cost of one ``main`` call
would outweigh the classification, so it is kept small: the file is read
as bytes and decoded whole, a command line that starts with a command goes
to that command's own parser (``_parse_args``), and JSON output comes from
a small renderer (``_json_dump``) with the bytes ``json.dumps(obj,
sort_keys=True, indent=2)`` gives.

Exit codes: 0 success, 1 input error, 2 word-cap exceeded or a usage
error (an unknown option or a malformed argument; argparse prints a usage
line on stderr).  The word cap used by oracle checks defaults to one
million and can be overridden with a nonnegative integer in the
SUBSEQ_WORD_CAP environment variable.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from json.encoder import encode_basestring_ascii

from .alternation import ClassificationReport, _classify, _walk, classify, mk_witness
from .automata import Alphabet, Dfa, _minimize, _unchecked_dfa, minimize
from .errors import InputError, ParseError, ToolkitError, WordCapExceededError
from .oracle import DEFAULT_MAX_M, DEFAULT_WORD_CAP, _compare, cross_check
from .patterns import PatternWitness, _access, _as_p3, _cycle_witness, _detect_p2, _witness_fields
from .subword import decompose_level_half, upward_closure

__all__ = [
    "parse_dfa",
    "export",
    "ClassificationReport",
    "classify",
    "main",
]

_TOKEN = re.compile(r"\S+")


def _column(raw: str, index: int, pos: int = 0) -> int:
    """1-based column, in the raw line, of the index-th whitespace-separated
    token at or after ``pos``; worked out only for an error message."""
    return list(_TOKEN.finditer(raw, pos))[index].start() + 1


def _int_token(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line) from None


def parse_dfa(text: str) -> Dfa:
    """Parse the native automaton format into a validated complete Dfa.

    Tokens are separated by any run of whitespace; error columns are
    1-based from the start of the line as it appears in the text.
    """
    lines = [
        (i, raw, tokens)
        for i, raw in enumerate(text.splitlines(), 1)
        if (tokens := raw.split()) and tokens[0][0] != "#"
    ]

    def header(idx: int, key: str) -> tuple[int, str, str]:
        if idx >= len(lines):
            raise ParseError(f"missing {key!r} line")
        lineno, raw, _ = lines[idx]
        content = raw.strip()
        if not content.startswith(key + ":"):
            raise ParseError(f"expected a {key!r} line, got {content!r}", lineno)
        return lineno, raw, content[len(key) + 1 :].strip()

    lineno, _, letters = header(0, "alphabet")
    if not letters:
        raise ParseError("alphabet line is empty", lineno)
    try:
        alphabet = Alphabet(letters)
    except InputError as exc:
        raise ParseError(str(exc), lineno) from None

    lineno, _, body = header(1, "states")
    n_states = _int_token(body, "state count", lineno)
    if n_states < 1:
        raise ParseError("state count must be positive", lineno)

    lineno, _, body = header(2, "start")
    start = _int_token(body, "start state", lineno)
    if not 0 <= start < n_states:
        raise ParseError(f"start state {start} out of range", lineno)

    lineno, raw, body = header(3, "accepting")
    after_key = raw.index(":") + 1
    accepting = set()
    for i, token in enumerate(body.split()):
        try:
            state = int(token)
        except ValueError:
            raise ParseError(
                f"accepting state must be an integer, got {token!r}",
                lineno,
                _column(raw, i, after_key),
            ) from None
        if not 0 <= state < n_states:
            raise ParseError(
                f"accepting state {state} out of range", lineno, _column(raw, i, after_key)
            )
        accepting.add(state)

    width = len(alphabet)
    letter_index = {ch: j for j, ch in enumerate(alphabet.letters)}
    # one row per source state as it appears, so that memory follows the
    # file and not the declared state count
    rows: dict[int, list[int | None]] = {}
    for lineno, raw, tokens in lines[4:]:
        try:
            src_tok, letter, dst_tok = tokens
        except ValueError:
            raise ParseError("expected '<state> <letter> <state>'", lineno) from None
        try:
            src = int(src_tok)
        except ValueError:
            raise ParseError(
                f"source state must be an integer, got {src_tok!r}", lineno, _column(raw, 0)
            ) from None
        if not 0 <= src < n_states:
            raise ParseError(f"unknown state {src}", lineno, _column(raw, 0))
        j = letter_index.get(letter)
        if j is None:
            raise ParseError(f"unknown letter {letter!r}", lineno, _column(raw, 1))
        try:
            dst = int(dst_tok)
        except ValueError:
            raise ParseError(
                f"target state must be an integer, got {dst_tok!r}", lineno, _column(raw, 2)
            ) from None
        if not 0 <= dst < n_states:
            raise ParseError(f"unknown state {dst}", lineno, _column(raw, 2))
        row = rows.get(src)
        if row is None:
            row = rows[src] = [None] * width
        elif row[j] is not None:
            raise ParseError(f"duplicate transition for state {src} on {letter!r}", lineno)
        row[j] = dst

    delta = []
    for s in range(n_states):
        row = rows.get(s) or [None]
        if None in row:
            missing = alphabet.letters[row.index(None)]
            raise ParseError(f"missing transition for state {s} on {missing!r}")
        delta.append(tuple(row))
    # every value above is range-checked already
    return _unchecked_dfa(alphabet, n_states, tuple(delta), start, frozenset(accepting))


def export(dfa: Dfa, fmt: str = "native") -> str:
    """Render an automaton as text.

    ``native`` round-trips through parse_dfa bit for bit; ``dot`` is a
    Graphviz digraph with accepting states double-circled and one labelled
    edge per (state, letter) pair.
    """
    if fmt == "native":
        lines = [
            "alphabet: " + "".join(dfa.alphabet.letters),
            f"states: {dfa.n_states}",
            f"start: {dfa.start}",
            "accepting:" + "".join(f" {s}" for s in sorted(dfa.accepting)),
        ]
        for s in range(dfa.n_states):
            for j, ch in enumerate(dfa.alphabet.letters):
                lines.append(f"{s} {ch} {dfa.delta[s][j]}")
        return "\n".join(lines) + "\n"
    if fmt == "dot":
        lines = ["digraph dfa {", "  rankdir=LR;", '  __start [shape=none, label=""];']
        for s in range(dfa.n_states):
            shape = "doublecircle" if s in dfa.accepting else "circle"
            lines.append(f"  {s} [shape={shape}];")
        lines.append(f"  __start -> {dfa.start};")
        for s in range(dfa.n_states):
            for j, ch in enumerate(dfa.alphabet.letters):
                label = ch.replace("\\", "\\\\").replace('"', '\\"')
                lines.append(f'  {s} -> {dfa.delta[s][j]} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise InputError(f"unknown export format {fmt!r}")


def _word(w: str) -> str:
    return w if w else "ε"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _render_witness(w: PatternWitness) -> str:
    values = _witness_fields(w)
    states = ",".join(str(s) for s in values.pop("states"))
    words = [f"{name}={_word(value)}" for name, value in values.items()]
    return " ".join([f"kind={w.kind}", *words, f"states={states}"])


def _render_report(report: ClassificationReport, show_witness: bool) -> str:
    lines = [f"language: {report.language}"]
    lines.append(f"level 1/2 (union of shuffle ideals): {_yesno(report.in_level_one_half)}")
    if report.ideal_decomposition is not None:
        ideals = " ".join(_word(w) for w in report.ideal_decomposition)
        lines.append(f"  shuffle ideals: {ideals if ideals else '(empty union)'}")
    lines.append(f"co level 1/2: {_yesno(report.in_co_level_one_half)}")
    lines.append(f"m_plus: {report.m_plus}")
    lines.append(f"m_minus: {report.m_minus}")
    if report.minimal_k_plus is not None:
        lines.append(f"minimal k, plus side: {report.minimal_k_plus}")
        lines.append(f"minimal k, co side: {report.minimal_k_co}")
    else:
        lines.append("outside the boolean closure of level 1/2")
    lines.append(f"piecewise testable (level 1): {_yesno(report.piecewise_testable)}")
    if show_witness and report.pattern_witness is not None:
        lines.append("pattern witness: " + _render_witness(report.pattern_witness))
    return "\n".join(lines) + "\n"


def _json_dump(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    for the str-keyed dicts, lists, strings, ints, bools and None that the
    commands print: under ``indent`` json runs its pure-Python encoder,
    which costs more than this walk."""
    parts: list[str] = []
    _render_json(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _render_json(obj, newline: str, emit) -> None:
    """Emit ``obj`` as JSON whose nested lines start with ``newline``."""
    if isinstance(obj, str):
        emit(encode_basestring_ascii(obj))
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        opening = "{" + inner
        for key in sorted(obj):
            emit(opening)
            emit(encode_basestring_ascii(key))
            emit(": ")
            _render_json(obj[key], inner, emit)
            opening = "," + inner
        emit(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        opening = "[" + inner
        for value in obj:
            emit(opening)
            _render_json(value, inner, emit)
            opening = "," + inner
        emit(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _read_dfa(path: str) -> Dfa:
    """Read and parse one automaton file; every failure names the file.

    The file is read as bytes and decoded whole: ``parse_dfa`` splits
    lines at ``\\r\\n`` and a lone ``\\r`` as universal newlines would,
    and a text-mode read costs more than the parse of a small file.
    """
    try:
        with open(path, "rb") as file:
            text = file.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"not UTF-8 text ({exc.reason} at byte {exc.start})", path=path
        ) from None
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    try:
        return parse_dfa(text)
    except ParseError as exc:
        raise ParseError(exc.message, exc.line, exc.column, path) from None


def _word_cap() -> int:
    raw = os.environ.get("SUBSEQ_WORD_CAP")
    if raw is None:
        return DEFAULT_WORD_CAP
    try:
        cap = int(raw)
        if cap < 0:
            raise ValueError
    except ValueError:
        raise InputError(f"SUBSEQ_WORD_CAP must be a nonnegative integer, got {raw!r}") from None
    return cap


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as file:
            file.write(text)


def _dfa_files(directory: str) -> list[str]:
    """The entries of ``directory`` whose names end in ``.dfa``, hidden
    ones and directories included, sorted by name and joined to
    ``directory`` as typed; none when it is missing or not a directory.
    An empty name lists the working directory."""
    try:
        names = os.listdir(directory or ".")
    except OSError:
        return []
    return [os.path.join(directory, name) for name in sorted(names) if name.endswith(".dfa")]


def _cmd_classify(args) -> int:
    batch = args.batch is not None
    if batch:
        if args.file is not None:
            raise InputError("classify takes a FILE or --batch DIR, not both")
        paths = _dfa_files(args.batch)
        if not paths:
            raise InputError(f"no .dfa files in {args.batch!r}")
    else:
        if args.file is None:
            raise InputError("classify needs a FILE or --batch DIR")
        paths = [args.file]

    # each file's report in the one form that gets printed
    entries: list = []
    failed = capped = False
    for path in paths:
        try:
            dfa = _read_dfa(path)
        except InputError as exc:
            if not batch:
                raise
            print(f"error: {exc}", file=sys.stderr)
            failed = True
            continue
        walk = _walk(dfa, 0 if args.oracle_check is None else DEFAULT_MAX_M + 1)
        report = _classify(dfa, walk, os.path.splitext(os.path.basename(path))[0])
        entry = report.to_dict() if args.json else _render_report(report, args.witness)
        if args.oracle_check is not None:
            try:
                problems = _compare(dfa, walk, args.oracle_check, DEFAULT_MAX_M, _word_cap())
            except WordCapExceededError as exc:
                if not batch:
                    raise
                print(f"error: {path}: {exc}", file=sys.stderr)
                capped = True
                continue
            failed = failed or bool(problems)
            if args.json:
                entry["oracle_check"] = {
                    "max_len": args.oracle_check,
                    "ok": not problems,
                    "problems": problems,
                }
            else:
                entry += f"oracle check (n={args.oracle_check}): {'MISMATCH' if problems else 'ok'}\n"
                entry += "".join(f"  {problem}\n" for problem in problems)
        entries.append(entry)

    if args.json:
        sys.stdout.write(_json_dump(entries if batch else entries[0]))
    else:
        sys.stdout.write("\n".join(entries) if batch else entries[0])
    return 2 if capped else int(failed)


def _cmd_mplus(args) -> int:
    dfa = _read_dfa(args.file)
    plus, minus = _walk(dfa).measures
    if args.json:
        sys.stdout.write(
            _json_dump({"m_plus": plus.json_value(), "m_minus": minus.json_value()})
        )
    else:
        sys.stdout.write(f"m_plus: {plus}\nm_minus: {minus}\n")
    return 0


def _cmd_patterns(args) -> int:
    dfa = _read_dfa(args.file)
    classes = _minimize(dfa)[1]
    access = _access(dfa)
    first, second = _cycle_witness(dfa, classes, access), _detect_p2(dfa, classes, access)
    witnesses = {"P1": first, "P2": second, "P3": _as_p3(dfa, first or second)}
    if args.json:
        payload = {
            kind: None if w is None else _witness_fields(w)
            for kind, w in witnesses.items()
        }
        payload["piecewise_testable"] = witnesses["P3"] is None
        sys.stdout.write(_json_dump(payload))
    else:
        for kind, w in witnesses.items():
            if w is None:
                sys.stdout.write(f"{kind}: none\n")
            else:
                sys.stdout.write(f"{kind}: {_render_witness(w)}\n")
        sys.stdout.write(
            f"piecewise testable: {_yesno(witnesses['P3'] is None)}\n"
        )
    return 0


def _cmd_closure(args) -> int:
    dfa = _read_dfa(args.file)
    _write_output(export(upward_closure(dfa), "native"), args.output)
    return 0


def _cmd_decompose(args) -> int:
    dfa = _read_dfa(args.file)
    decomposition = decompose_level_half(dfa)
    if args.json:
        sys.stdout.write(_json_dump({"ideals": list(decomposition.words)}))
    else:
        for w in decomposition.words:
            sys.stdout.write(_word(w) + "\n")
        if not decomposition.words:
            sys.stdout.write("(empty union)\n")
    return 0


def _cmd_oracle_check(args) -> int:
    dfa = _read_dfa(args.file)
    problems = cross_check(dfa, args.max_len, max_m=args.max_m, cap=_word_cap())
    if problems:
        for problem in problems:
            sys.stdout.write(f"MISMATCH: {problem}\n")
        return 1
    sys.stdout.write(f"oracle check up to length {args.max_len}: ok\n")
    return 0


def _cmd_export(args) -> int:
    dfa = _read_dfa(args.file)
    if args.minimize:
        dfa = minimize(dfa)
    _write_output(export(dfa, args.format), args.output)
    return 0


def _cmd_gen_mk(args) -> int:
    dfa = mk_witness(args.k, Alphabet(args.alphabet), args.letter)
    _write_output(export(dfa, "native"), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subseq",
        description=(
            "Classify a regular language, given as a complete DFA, within the "
            "boolean hierarchy over level 1/2 of the Straubing-Therien hierarchy."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command's own parser by name, for ``main``; argparse itself
    # reads no attribute of this name
    parser._commands = sub.choices

    p = sub.add_parser("classify", help="full classification report")
    p.add_argument("file", nargs="?", metavar="FILE")
    p.add_argument("--batch", metavar="DIR", help="classify every .dfa file in DIR")
    p.add_argument("--json", action="store_true")
    p.add_argument("--witness", action="store_true", help="show pattern words in text output")
    p.add_argument(
        "--oracle-check",
        type=int,
        metavar="N",
        help="cross-validate against brute force on words up to length N",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("mplus", help="alternation measures only")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mplus)

    p = sub.add_parser("patterns", help="forbidden-pattern detection with witnesses")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_patterns)

    p = sub.add_parser("closure", help="upward closure as a native automaton file")
    p.add_argument("file", metavar="FILE")
    p.add_argument("-o", "--output", metavar="OUT")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("decompose", help="shuffle-ideal decomposition (level 1/2 only)")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("oracle-check", help="brute-force cross-validation")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--max-len", type=int, default=6, metavar="N")
    p.add_argument("--max-m", type=int, default=DEFAULT_MAX_M, metavar="M")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("export", help="re-serialize an automaton")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--format", choices=["native", "dot"], default="native")
    p.add_argument("--minimize", action="store_true")
    p.add_argument("-o", "--output", metavar="OUT")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("gen-mk", help="generate the level-k witness automaton")
    p.add_argument("k", type=int)
    p.add_argument("--alphabet", default="ab")
    p.add_argument("--letter", default="a")
    p.add_argument("-o", "--output", metavar="OUT")
    p.set_defaults(func=_cmd_gen_mk)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call: building it costs
    far more than parsing one command line."""
    return build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, in less time when argv starts with a
    command: its own parser reads the rest, as the whole parser would hand
    it on.  An argv that does not start with a command, or that leaves
    something over, goes through the whole parser, for argparse's own
    usage and error text."""
    parser = _parser()
    if argv and argv[0] in parser._commands:
        args, rest = parser._commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except WordCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
