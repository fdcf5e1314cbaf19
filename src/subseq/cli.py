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

followed by exactly one transition line per (state, letter) pair.

Exit codes: 0 success, 1 input error, 2 word-cap exceeded.  The word cap
used by oracle checks defaults to one million and can be overridden with
a nonnegative integer in the SUBSEQ_WORD_CAP environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path

from .alternation import ClassificationReport, _classify, _walk, classify, mk_witness
from .automata import Alphabet, Dfa, minimize
from .errors import InputError, ParseError, ToolkitError, WordCapExceededError
from .oracle import DEFAULT_WORD_CAP, _compare, cross_check
from .patterns import PatternWitness, _as_p3, _detect_p1, _detect_p2, _witness_fields
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
    return Dfa(alphabet, n_states, tuple(delta), start, frozenset(accepting))


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
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _read_dfa(path: str | Path) -> Dfa:
    """Read and parse one automaton file; every failure names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
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
        Path(out).write_text(text, encoding="utf-8")


def _cmd_classify(args) -> int:
    if args.batch:
        if args.file is not None:
            raise InputError("classify takes a FILE or --batch DIR, not both")
        paths = sorted(Path(args.batch).glob("*.dfa"))
        if not paths:
            raise InputError(f"no .dfa files in {args.batch!r}")
    else:
        if args.file is None:
            raise InputError("classify needs a FILE or --batch DIR")
        paths = [Path(args.file)]

    max_m = 3  # the levels --oracle-check compares; the walk goes one deeper
    dicts, texts = [], []
    failed = capped = False
    for path in paths:
        try:
            dfa = _read_dfa(path)
        except InputError as exc:
            if not args.batch:
                raise
            print(f"error: {exc}", file=sys.stderr)
            failed = True
            continue
        minimal = minimize(dfa)
        walk = _walk(minimal, 0 if args.oracle_check is None else max_m + 1)
        report = _classify(dfa, minimal, walk, path.stem)
        entry = report.to_dict()
        text = _render_report(report, args.witness)
        if args.oracle_check is not None:
            try:
                problems = _compare(dfa, walk, args.oracle_check, max_m, _word_cap())
            except WordCapExceededError as exc:
                if not args.batch:
                    raise
                print(f"error: {path}: {exc}", file=sys.stderr)
                capped = True
                continue
            failed = failed or bool(problems)
            entry["oracle_check"] = {
                "max_len": args.oracle_check,
                "ok": not problems,
                "problems": problems,
            }
            text += f"oracle check (n={args.oracle_check}): {'MISMATCH' if problems else 'ok'}\n"
            text += "".join(f"  {problem}\n" for problem in problems)
        dicts.append(entry)
        texts.append(text)

    if args.json:
        payload = dicts if args.batch else dicts[0]
        sys.stdout.write(_json_dump(payload))
    else:
        sys.stdout.write("\n".join(texts) if args.batch else texts[0])
    return 2 if capped else int(failed)


def _cmd_mplus(args) -> int:
    dfa = _read_dfa(args.file)
    plus, minus = _walk(minimize(dfa))[:2]
    if args.json:
        sys.stdout.write(
            _json_dump({"m_plus": plus.json_value(), "m_minus": minus.json_value()})
        )
    else:
        sys.stdout.write(f"m_plus: {plus}\nm_minus: {minus}\n")
    return 0


def _cmd_patterns(args) -> int:
    dfa = _read_dfa(args.file)
    minimal = minimize(dfa)
    first, second = _detect_p1(dfa, minimal), _detect_p2(dfa, minimal)
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
    p.add_argument("--max-m", type=int, default=3, metavar="M")
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


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
