import importlib.util
import inspect
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from subseq import alternation, cli, oracle
from subseq.alternation import AlternationMeasure, _walk, mk_witness
from subseq.automata import Alphabet, Dfa, _minimize, _topological_order, complement, minimize
from subseq.cli import classify, export, main, parse_dfa
from subseq.errors import InputError, ParseError
from subseq.patterns import PatternWitness, _cycle_witness, _detect_p2, _is_piecewise_testable
from subseq.subword import _is_upward_closed, shuffle_ideal, upward_closure

from helpers import AB, ab_star, count_calls, reference_parse_dfa, substitute

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


def test_parse_m2_fixture():
    d = parse_dfa(fixture_text("m2.dfa"))
    assert d.n_states == 4
    assert d == mk_witness(2)


def test_parse_ignores_comments_and_blank_lines():
    text = "# counter machine\n\n" + fixture_text("m2.dfa")
    assert parse_dfa(text) == mk_witness(2)


def test_parse_reports_missing_transition_with_pair():
    lines = fixture_text("m2.dfa").splitlines()
    del lines[6]  # drop the "1 a 2" row
    with pytest.raises(ParseError) as err:
        parse_dfa("\n".join(lines))
    assert "state 1" in str(err.value) and "'a'" in str(err.value)


def test_parse_memory_follows_the_file_not_the_header():
    # a header may declare far more states than the file lists rows for;
    # the parser must fail on the first missing row without allocating
    # for the declared count
    text = "alphabet: ab\nstates: 1000000\nstart: 0\naccepting:\n0 a 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="missing transition for state 0 on 'b'"):
            parse_dfa(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_parse_rejects_empty_alphabet():
    with pytest.raises(ParseError) as err:
        parse_dfa("alphabet:\nstates: 1\nstart: 0\naccepting:\n0 a 0\n")
    assert "alphabet" in str(err.value)


def test_parse_rejects_unknown_letter():
    text = fixture_text("m2.dfa").replace("0 b 0", "0 c 0")
    with pytest.raises(ParseError) as err:
        parse_dfa(text)
    assert "'c'" in str(err.value)
    assert err.value.line is not None and err.value.column is not None


def test_parse_rejects_unknown_state():
    text = fixture_text("m2.dfa").replace("0 b 0", "0 b 9")
    with pytest.raises(ParseError):
        parse_dfa(text)


def test_parse_rejects_duplicate_transition():
    text = fixture_text("m2.dfa").replace("0 b 0", "0 a 1")
    with pytest.raises(ParseError) as err:
        parse_dfa(text)
    assert "duplicate" in str(err.value)


def test_parse_rejects_out_of_range_start_and_accepting():
    with pytest.raises(ParseError):
        parse_dfa("alphabet: a\nstates: 1\nstart: 2\naccepting:\n0 a 0\n")
    with pytest.raises(ParseError):
        parse_dfa("alphabet: a\nstates: 1\nstart: 0\naccepting: 5\n0 a 0\n")


TWO_STATES = "alphabet: ab\nstates: 2\nstart: 0\naccepting: 1\n"
TWO_ROWS = "0 a 1\n0 b 0\n1 a 1\n1 b 0\n"


@pytest.mark.parametrize(
    "text, line, message, token",
    [
        (
            "alphabet: ab\nstates: 2\nstart: 0\naccepting: 1 9\n" + TWO_ROWS,
            4,
            "accepting state 9 out of range",
            "9",
        ),
        (
            "alphabet: ab\nstates: 2\nstart: 0\n  accepting:\t1  x\n" + TWO_ROWS,
            4,
            "accepting state must be an integer, got 'x'",
            "x",
        ),
        (TWO_STATES + "0 a 1\n   0 a 7\n", 6, "unknown state 7", "7"),
        (TWO_STATES + "0 a 1\n\t0\tc\t1\n", 6, "unknown letter 'c'", "c"),
        (TWO_STATES + " \t 5 a 1\n", 5, "unknown state 5", "5"),
        (
            TWO_STATES + "0 a 1\n\t \tq  b\t 0\n",
            6,
            "source state must be an integer, got 'q'",
            "q",
        ),
        (
            TWO_STATES + "0 a 1\n  0\t\tb   z\n",
            6,
            "target state must be an integer, got 'z'",
            "z",
        ),
        (TWO_STATES + "0\u3000a\u30001\n\u20031 a 4\n", 6, "unknown state 4", "4"),
    ],
    ids=[
        "accepting-range",
        "accepting-integer",
        "indented-target",
        "tab-letter",
        "indented-source",
        "tab-source-integer",
        "tab-target-integer",
        "unicode-spaces",
    ],
)
def test_parse_error_columns_count_from_the_raw_line(text, line, message, token):
    with pytest.raises(ParseError) as err:
        parse_dfa(text)
    assert (err.value.message, err.value.line) == (message, line)
    raw_line = text.splitlines()[line - 1]
    assert raw_line[err.value.column - 1 :].startswith(token)


def test_parse_error_columns_match_the_file_examples():
    accepting = "alphabet: ab\nstates: 2\nstart: 0\naccepting: 1 9\n" + TWO_ROWS
    with pytest.raises(ParseError, match=r"^line 4, column 14: accepting state 9 out of range$"):
        parse_dfa(accepting)
    indented = TWO_STATES + "    0 a 7\n"
    with pytest.raises(ParseError, match=r"^line 5, column 9: unknown state 7$"):
        parse_dfa(indented)


def test_parse_agrees_with_the_reference_on_the_benchmark_corpora(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "benchmark_corpus", Path(__file__).parent.parent / "benchmark" / "corpus.py"
    )
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, corpus)  # for its dataclasses
    spec.loader.exec_module(corpus)
    files = 0
    for workload in corpus.WORKLOADS:
        for case in corpus.generate(workload, 1):
            parsed = parse_dfa(case.text)
            assert parsed == reference_parse_dfa(case.text), (workload, case.name)
            files += 1
    assert files == 503


@pytest.mark.parametrize(
    "name", sorted(p.name for p in FIXTURES.glob("*.dfa"))
)
def test_fixture_files_round_trip_byte_exactly(name):
    text = fixture_text(name)
    assert export(parse_dfa(text)) == text


def test_export_round_trips_after_minimize():
    d = minimize(ab_star())
    assert parse_dfa(export(d)) == d


def test_export_parse_round_trips_structurally_on_random_machines():
    import random

    from helpers import random_dfa

    rng = random.Random(600)
    for _ in range(25):
        d = random_dfa(rng, rng.randint(1, 6))
        assert parse_dfa(export(d)) == d


def test_export_dot_has_one_edge_per_state_letter_pair():
    d = mk_witness(2)
    dot = export(d, "dot")
    edges = [line for line in dot.splitlines() if "->" in line and "label=" in line]
    assert len(edges) == d.n_states * len(d.alphabet)
    assert dot.count("doublecircle") == len(d.accepting)


def test_space_is_not_a_letter_so_native_files_round_trip():
    # a space letter would be written as "0   0", which no parser can split
    with pytest.raises(InputError, match="not a single printable non-space character"):
        Alphabet("a b")
    text = "alphabet: a b\nstates: 1\nstart: 0\naccepting: 0\n0 a 0\n0 b 0\n"
    with pytest.raises(ParseError) as err:
        parse_dfa(text)
    assert err.value.line == 1
    assert "' '" in err.value.message


def test_export_dot_escapes_quote_and_backslash_letters():
    d = Dfa(Alphabet('a"\\'), 1, ((0, 0, 0),), 0, frozenset({0}))
    dot = export(d, "dot")
    edges = [line for line in dot.splitlines() if "->" in line and "label=" in line]
    assert edges == [
        '  0 -> 0 [label="a"];',
        '  0 -> 0 [label="\\""];',
        '  0 -> 0 [label="\\\\"];',
    ]


def test_classify_witness_three():
    report = classify(mk_witness(3), name="m3")
    assert report.m_plus == AlternationMeasure.finite(2)
    assert report.m_minus == AlternationMeasure.finite(3)
    assert report.minimal_k_plus == 3
    assert report.minimal_k_co == 4
    assert report.piecewise_testable
    assert not report.in_level_one_half
    assert report.pattern_witness is None


def test_classify_alternating_language_carries_valid_witness():
    d = minimize(ab_star())
    report = classify(d, name="abstar")
    assert not report.piecewise_testable
    assert report.pattern_witness is not None
    assert report.pattern_witness.holds_in(d)
    assert report.minimal_k_plus is None


def test_classify_raises_when_the_verdicts_disagree(monkeypatch):
    # the level walk never ends on a language that is not piecewise
    # testable, so a missing witness must stop classify, not fall through
    monkeypatch.setattr(alternation, "_witness", lambda dfa, minimal: None)
    with pytest.raises(AssertionError, match="the pattern search finds no witness"):
        classify(ab_star(), name="abstar")


def test_classify_raises_when_the_witness_does_not_replay(monkeypatch):
    # a witness of the right kind whose loop word does not loop at s1
    broken = PatternWitness(kind="P3", letter="a", v="a", states=(0, 0, 1, 1, 2))
    assert not broken.holds_in(ab_star())
    monkeypatch.setattr(alternation, "_witness", lambda dfa, minimal: broken)
    with pytest.raises(AssertionError, match="inconsistent classification"):
        classify(ab_star(), name="abstar")


def test_classify_is_reexported_from_the_cli_and_the_package():
    import subseq

    assert cli.classify is subseq.classify is alternation.classify
    assert cli.ClassificationReport is subseq.ClassificationReport
    assert subseq.ClassificationReport is alternation.ClassificationReport


def test_classify_empty_language():
    from subseq.automata import empty_language

    report = classify(empty_language(AB), name="empty")
    assert report.in_level_one_half
    assert report.m_plus == AlternationMeasure.finite(-1)
    assert report.ideal_decomposition == ()


def test_classify_level_half_language_includes_decomposition():
    report = classify(shuffle_ideal("ab", AB), name="ideal")
    assert report.in_level_one_half
    assert report.ideal_decomposition == ("ab",)
    assert report.minimal_k_plus == 1


def test_cli_classify_json_on_witness_three(capsys, tmp_path):
    target = tmp_path / "m3.dfa"
    target.write_text(export(mk_witness(3)))
    assert main(["classify", str(target), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m_plus"] == 2
    assert payload["m_minus"] == 3
    assert payload["piecewise_testable"] is True
    assert payload["minimal_k_plus"] == 3


def test_cli_classify_json_is_byte_stable(capsys):
    path = str(FIXTURES / "m2.dfa")
    assert main(["classify", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["classify", path, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_classify_text_mentions_measures(capsys):
    assert main(["classify", str(FIXTURES / "m2.dfa")]) == 0
    out = capsys.readouterr().out
    assert "m_plus: 1" in out and "m_minus: 2" in out


def test_cli_classify_witness_flag_prints_pattern(capsys):
    assert main(["classify", str(FIXTURES / "ab_star.dfa"), "--witness"]) == 0
    out = capsys.readouterr().out
    assert "pattern witness" in out and "m_plus: inf" in out


def test_cli_classify_json_renders_no_text_report(capsys, monkeypatch):
    # under --json only the dictionaries are printed, so no text is built
    renders = count_calls(monkeypatch, cli._render_report)
    assert main(["classify", "--batch", str(FIXTURES), "--json", "--oracle-check", "4"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == len(list(FIXTURES.glob("*.dfa")))
    assert renders == []


def test_cli_classify_infinite_measure_json(capsys):
    assert main(["classify", str(FIXTURES / "ab_star.dfa"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m_plus"] == "inf"
    assert payload["pattern_witness"]["kind"] == "P3"
    assert payload["minimal_k_plus"] is None


def test_cli_classify_oracle_check(capsys):
    assert main(["classify", str(FIXTURES / "m2.dfa"), "--oracle-check", "5"]) == 0
    assert "oracle check (n=5): ok" in capsys.readouterr().out


def test_cli_classify_batch(capsys, tmp_path):
    (tmp_path / "one.dfa").write_text(export(mk_witness(1)))
    (tmp_path / "two.dfa").write_text(export(mk_witness(2)))
    assert main(["classify", "--batch", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["language"] for entry in payload] == ["one", "two"]
    assert [entry["m_plus"] for entry in payload] == [0, 1]


def test_cli_mplus(capsys):
    assert main(["mplus", str(FIXTURES / "m3.dfa")]) == 0
    out = capsys.readouterr().out
    assert out == "m_plus: 2\nm_minus: 3\n"


def test_cli_patterns(capsys):
    assert main(["patterns", str(FIXTURES / "ab_star.dfa")]) == 0
    out = capsys.readouterr().out
    assert "P1: kind=P1" in out and "piecewise testable: no" in out
    assert main(["patterns", str(FIXTURES / "m2.dfa")]) == 0
    out = capsys.readouterr().out
    assert "P3: none" in out and "piecewise testable: yes" in out


def test_cli_patterns_runs_each_detector_once(capsys, monkeypatch):
    first = count_calls(monkeypatch, _cycle_witness)
    second = count_calls(monkeypatch, _detect_p2)
    assert main(["patterns", str(FIXTURES / "m3.dfa")]) == 0
    assert "piecewise testable: yes" in capsys.readouterr().out
    assert (len(first), len(second)) == (1, 1)


@pytest.mark.parametrize(
    "argv, inputs, expected",
    [
        (["classify", "m3.dfa"], 1, 4),
        (["classify", "ab_star.dfa"], 1, 1),
        (["mplus", "m3.dfa"], 1, 4),
        (["oracle-check", "m3.dfa", "--max-len", "6"], 1, 4),
        (["patterns", "m3.dfa"], 1, 1),
        # the report and the oracle check share one minimization and one
        # walk: on ab_star, the 3 steps to the 4 levels the check's levels
        # 0..3 need
        (["classify", "m3.dfa", "--oracle-check", "6"], 1, 4),
        (["classify", "ab_star.dfa", "--oracle-check", "6"], 1, 4),
    ],
)
def test_each_library_entry_minimizes_the_input_once(
    capsys, monkeypatch, argv, inputs, expected
):
    # ``minimize`` calls ``_minimize`` too, so this counts every
    # minimization; every other call minimizes a step of the level walk, a
    # closed level intersected with the language or its complement; the
    # closures come out minimal and call minimize nowhere: on m3.dfa, the 3
    # steps between its 4 closures
    calls = count_calls(monkeypatch, _minimize)
    parsed = []

    def parse(text):
        parsed.append(parse_dfa(text))
        return parsed[-1]

    substitute(monkeypatch, parse_dfa, parse)
    command, name, *options = argv
    assert main([command, str(FIXTURES / name), *options]) == 0
    capsys.readouterr()
    assert len(parsed) == 1
    assert sum(args[0] is parsed[0] for args in calls) == inputs
    assert len(calls) == expected


def test_classify_closes_a_level_half_language_once_for_its_check(monkeypatch):
    closures = count_calls(monkeypatch, upward_closure)
    report = classify(parse_dfa(fixture_text("a_ideal.dfa")))
    assert report.ideal_decomposition == ("a",)
    # the level-1/2 checks close nothing; the 2 closures are the one
    # level walk, over the language: level 0 and the empty level 1 (the
    # complement's chain is Σ* followed by that walk)
    assert len(closures) == 2


@pytest.mark.parametrize("name, expected", [("ab_star.dfa", 0), ("m3.dfa", 4)])
def test_classify_closes_only_the_level_chains(monkeypatch, name, expected):
    closures = count_calls(monkeypatch, upward_closure)
    report = classify(parse_dfa(fixture_text(name)))
    if report.piecewise_testable:
        # one walk, on the side that rejects ε: its nonempty levels and
        # the empty one after them
        assert expected == min(report.m_plus.value, report.m_minus.value) + 2
    assert len(closures) == expected


@pytest.mark.parametrize("name", ["universal.dfa", "m3.dfa"])
def test_classify_complements_once(monkeypatch, name):
    # universal accepts ε, so the walk runs on its complement and flips
    # back to the minimal automaton itself; m3 rejects ε and flips to its
    # complement; either way the walk's one complement is built once
    complements = count_calls(monkeypatch, complement)
    classify(parse_dfa(fixture_text(name)))
    assert len(complements) == 1


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.dfa")))
def test_classify_reads_level_half_off_the_measures(monkeypatch, name):
    # m_plus < 1 is the level-1/2 verdict, so the insertion test that
    # is_level_one_half runs is left to the tests as an oracle
    insertions = count_calls(monkeypatch, _is_upward_closed)
    classify(parse_dfa(fixture_text(name)))
    assert insertions == []


@pytest.mark.parametrize("name", ["a_first.dfa", "ab_star.dfa", "ba_star.dfa", "m2.dfa", "m3.dfa"])
def test_classify_sorts_once_outside_level_half(monkeypatch, name):
    # the piecewise-testability verdict sorts the minimal automaton; with
    # no decomposition to read off, nothing sorts it again
    sorts = count_calls(monkeypatch, _topological_order)
    report = classify(parse_dfa(fixture_text(name)))
    assert not report.in_level_one_half
    assert len(sorts) == 1


@pytest.mark.parametrize("name", ["a_ideal.dfa", "empty.dfa", "universal.dfa"])
def test_classify_decomposes_with_the_verdicts_order(monkeypatch, name):
    # the walk hands on the order its verdict sorted, so the decomposition
    # of a level-1/2 language does not sort the minimal automaton again
    sorts = count_calls(monkeypatch, _topological_order)
    report = classify(parse_dfa(fixture_text(name)))
    assert report.in_level_one_half
    assert len(sorts) == 1


@pytest.mark.parametrize("name", ["m3.dfa", "ab_star.dfa"])
def test_classify_oracle_check_walks_the_chains_once(capsys, monkeypatch, name):
    # one verdict and one walk serve the report and the oracle check: on
    # m3, its nonempty levels 0..2 and the empty level 3; on ab_star,
    # which is not piecewise testable, the 4 levels the check compares
    closures = count_calls(monkeypatch, upward_closure)
    verdicts = count_calls(monkeypatch, _is_piecewise_testable)
    assert main(["classify", str(FIXTURES / name), "--oracle-check", "6"]) == 0
    assert capsys.readouterr().out.endswith("oracle check (n=6): ok\n")
    assert (len(closures), len(verdicts)) == (4, 1)


def _walk_of_m1():
    # the comparison reads the walked levels and measures of mk_witness(1)
    # when it checks mk_witness(2), so they disagree with its bounded sets;
    # both reject ε, so the shifted side is the same
    walk = _walk(mk_witness(1))
    assert (walk.finite, len(walk.walked)) == (True, 1)
    return walk


_SWAPPED_PROBLEMS = (
    "plus level 1: bounded sets disagree, e.g. ['aa', 'aaa', 'aab']",
    "minus level 2: bounded sets disagree, e.g. ['aa', 'aaa', 'aab']",
    "plus measure 0 is below the brute-force bound 1",
    "minus measure 1 is below the brute-force bound 2",
)


def test_cli_oracle_check_prints_each_mismatch(capsys, monkeypatch):
    walk = _walk_of_m1()
    monkeypatch.setattr(oracle, "_walk", lambda dfa, depth=0: walk)
    assert main(["oracle-check", str(FIXTURES / "m2.dfa"), "--max-len", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "".join(f"MISMATCH: {p}\n" for p in _SWAPPED_PROBLEMS)
    assert captured.err == ""


def test_cli_classify_oracle_check_indents_each_problem(capsys, monkeypatch):
    # only the comparison gets the other walk: the report keeps its own,
    # so it stays consistent
    walk, compare = _walk_of_m1(), oracle._compare
    monkeypatch.setattr(cli, "_compare", lambda dfa, _, *rest: compare(dfa, walk, *rest))
    assert main(["classify", str(FIXTURES / "m2.dfa"), "--oracle-check", "4"]) == 1
    assert capsys.readouterr().out == (
        "language: m2\n"
        "level 1/2 (union of shuffle ideals): no\n"
        "co level 1/2: no\n"
        "m_plus: 1\n"
        "m_minus: 2\n"
        "minimal k, plus side: 2\n"
        "minimal k, co side: 3\n"
        "piecewise testable (level 1): yes\n"
        "oracle check (n=4): MISMATCH\n"
    ) + "".join(f"  {p}\n" for p in _SWAPPED_PROBLEMS)


@pytest.mark.parametrize(
    "command",
    [
        ["closure", str(FIXTURES / "m2.dfa")],
        ["export", str(FIXTURES / "m2.dfa"), "--format", "dot", "--minimize"],
        ["gen-mk", "3", "--alphabet", "abc", "--letter", "b"],
    ],
)
def test_cli_output_file_equals_stdout(capsys, tmp_path, command):
    assert main(command) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "out.txt"
    assert main(command + ["-o", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == printed.encode("utf-8")


def test_cli_closure(capsys):
    assert main(["closure", str(FIXTURES / "m2.dfa")]) == 0
    assert parse_dfa(capsys.readouterr().out) == shuffle_ideal("a", AB)


def test_cli_decompose(capsys):
    assert main(["decompose", str(FIXTURES / "a_ideal.dfa")]) == 0
    assert capsys.readouterr().out == "a\n"
    assert main(["decompose", str(FIXTURES / "universal.dfa")]) == 0
    assert capsys.readouterr().out == "ε\n"


def test_cli_decompose_rejects_non_closed(capsys):
    assert main(["decompose", str(FIXTURES / "m2.dfa")]) == 1
    err = capsys.readouterr().err
    assert "not upward closed" in err


def test_cli_oracle_check_verb(capsys):
    assert main(["oracle-check", str(FIXTURES / "m2.dfa"), "--max-len", "5"]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_export_minimize(capsys):
    assert main(["export", str(FIXTURES / "m2.dfa"), "--minimize"]) == 0
    out = capsys.readouterr().out
    assert parse_dfa(out) == minimize(mk_witness(2))


def test_cli_gen_mk_round_trips(capsys):
    assert main(["gen-mk", "4"]) == 0
    assert parse_dfa(capsys.readouterr().out) == mk_witness(4)


def test_cli_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.dfa"
    bad.write_text("alphabet: ab\nstates: 1\nstart: 0\naccepting:\n0 a 0\n")
    assert main(["classify", str(bad)]) == 1
    assert "missing transition" in capsys.readouterr().err


def test_cli_missing_file_exit_code(capsys):
    assert main(["classify", "/nonexistent/path.dfa"]) == 1


def test_cli_word_cap_env_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("SUBSEQ_WORD_CAP", "4")
    assert main(["classify", str(FIXTURES / "m2.dfa"), "--oracle-check", "6"]) == 2
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["lots", "-1"])
def test_cli_word_cap_env_must_be_integer(capsys, monkeypatch, raw):
    # a negative cap is out of range, not a cap that every word count exceeds
    monkeypatch.setenv("SUBSEQ_WORD_CAP", raw)
    assert main(["classify", str(FIXTURES / "m2.dfa"), "--oracle-check", "6"]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert [line.startswith("error: SUBSEQ_WORD_CAP") for line in errors] == [True]


def test_cli_oracle_check_rejects_negative_max_len(capsys):
    assert main(["oracle-check", str(FIXTURES / "m2.dfa"), "--max-len", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_classify_rejects_negative_oracle_check(capsys):
    assert main(["classify", str(FIXTURES / "m2.dfa"), "--oracle-check", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_oracle_check_rejects_negative_max_m(capsys):
    assert main(["oracle-check", str(FIXTURES / "m2.dfa"), "--max-m", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_one_level_bound_serves_every_oracle_entry(monkeypatch, capsys):
    bound = oracle.DEFAULT_MAX_M
    assert inspect.signature(oracle.cross_check).parameters["max_m"].default == bound
    assert cli._parser().parse_args(["oracle-check", "m3.dfa"]).max_m == bound
    compares = count_calls(monkeypatch, oracle._compare)
    assert main(["classify", str(FIXTURES / "m3.dfa"), "--oracle-check", "3"]) == 0
    assert main(["oracle-check", str(FIXTURES / "m3.dfa"), "--max-len", "3"]) == 0
    assert [args[3] for args in compares] == [bound, bound]


# strings with quotes, backslashes, control characters, non-ASCII letters
# and characters outside the BMP, then any text
json_strings = st.text(st.sampled_from('a"\\/\x00\n\x1f\x7fé\u2028\U0001f600')) | st.text()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_strings,
    lambda inner: (
        st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(json_strings, inner)
    ),
    max_leaves=40,
)


@given(json_values)
def test_json_dump_matches_json_dumps(value):
    assert cli._json_dump(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_json_dump_rejects_what_it_does_not_render():
    with pytest.raises(TypeError, match="Object of type float is not JSON serializable"):
        cli._json_dump({"x": [0.5]})


def _text_read_error(path):
    """The message ``_read_dfa`` gave when it read in text mode, as the
    reference."""
    try:
        path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"


@pytest.mark.parametrize(
    "data",
    [
        b"\xff" + fixture_text("m2.dfa").encode(),
        b"# caf\xe9\r\n" + fixture_text("m2.dfa").encode(),
        fixture_text("m2.dfa").replace("\n", "\r").encode() + b"# \xe2\x82",
        fixture_text("m2.dfa").replace("\n", "\r\n").encode() + b"# \xed\xa0\x80\r\n",
    ],
    ids=["first-byte", "after-crlf", "truncated-at-end", "surrogate"],
)
def test_non_utf8_message_names_the_byte_as_a_text_read_does(tmp_path, data):
    bad = tmp_path / "bad.dfa"
    bad.write_bytes(data)
    with pytest.raises(ParseError) as err:
        cli._read_dfa(bad)
    assert str(err.value) == _text_read_error(bad)


def test_cli_non_utf8_file_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "latin1.dfa"
    bad.write_bytes(b"# caf\xe9\n" + fixture_text("m2.dfa").encode())
    with pytest.raises(ParseError) as err:
        cli._read_dfa(bad)
    assert str(bad) in str(err.value)
    assert main(["mplus", str(bad)]) == 1
    assert str(bad) in capsys.readouterr().err


def test_parse_error_keeps_the_file_path(tmp_path):
    assert ParseError("x", path="f").path == "f"
    assert ParseError("x").path is None
    bad = tmp_path / "bad.dfa"
    bad.write_text(fixture_text("m2.dfa").replace("0 b 0", "0 c 0"), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        cli._read_dfa(bad)
    assert err.value.path == bad
    assert err.value.line is not None


def test_cli_batch_reads_files_like_single_file_mode(capsys, tmp_path):
    (tmp_path / "good.dfa").write_text(export(mk_witness(1)))
    bad = tmp_path / "latin1.dfa"
    bad.write_bytes(b"# caf\xe9\n" + export(mk_witness(2)).encode())
    assert main(["classify", "--batch", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "language: good\n"
        "level 1/2 (union of shuffle ideals): yes\n"
        "  shuffle ideals: a\n"
        "co level 1/2: no\n"
        "m_plus: 0\n"
        "m_minus: 1\n"
        "minimal k, plus side: 1\n"
        "minimal k, co side: 2\n"
        "piecewise testable (level 1): yes\n"
    )
    assert captured.err.startswith(f"error: {bad}: not UTF-8 text")
    assert captured.err.count("\n") == 1


FILE_COMMANDS = ["classify", "mplus", "patterns", "closure", "decompose", "oracle-check", "export"]


def test_every_command_names_its_file_as_typed(capsys, monkeypatch, tmp_path):
    assert set(cli._parser()._commands) - set(FILE_COMMANDS) == {"gen-mk"}
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.dfa").write_text("alphabet: ab\nstates: 2\nstart: 0\naccepting: 1\n    0 a 7\n")
    for command in FILE_COMMANDS:
        assert main([command, "./bad.dfa"]) == 1
        assert capsys.readouterr().err == "error: ./bad.dfa: line 5, column 9: unknown state 7\n"
        assert main([command, "./missing.dfa"]) == 1
        assert capsys.readouterr().err.startswith("error: ./missing.dfa: "), command
    # a batch names each file as its directory was typed
    assert main(["classify", "--batch", "."]) == 1
    assert capsys.readouterr().err == "error: ./bad.dfa: line 5, column 9: unknown state 7\n"


def test_classify_reports_the_file_stem_as_the_language(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for name in ("one.dfa", "sub/two.dfa", "sub/three.x.dfa", "sub/.hidden.dfa", "sub/plain"):
        (tmp_path / name).write_text(export(mk_witness(1)))
    for path, stem in [
        ("one.dfa", "one"),
        ("./sub/two.dfa", "two"),
        (str(tmp_path / "sub" / "three.x.dfa"), "three.x"),
        ("sub/.hidden.dfa", ".hidden"),
        ("sub/plain", "plain"),
    ]:
        assert main(["classify", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["language"] == stem


def test_batch_lists_the_files_a_dfa_glob_lists(monkeypatch, tmp_path):
    # os.listdir in place of Path(DIR).glob("*.dfa"): hidden names and
    # directories count, the match is case-sensitive, and the names sort
    for name in ("b.dfa", ".hidden.dfa", ".dfa", "a b.dfa", "é.dfa", "A.dfa", "x.DFA", "y.dfa.txt", "z"):
        (tmp_path / name).write_text("")
    (tmp_path / "d.dfa").mkdir()
    (tmp_path / "e").mkdir()
    (tmp_path / "e" / "nested.dfa").write_text("")

    def names(directory):
        return [os.path.basename(path) for path in cli._dfa_files(directory)]

    def globbed(directory):
        return [path.name for path in sorted(Path(directory).glob("*.dfa"))]

    directory = str(tmp_path)
    assert names(directory) == globbed(directory) == [
        ".dfa", ".hidden.dfa", "A.dfa", "a b.dfa", "b.dfa", "d.dfa", "é.dfa"
    ]
    assert cli._dfa_files(directory)[0] == os.path.join(directory, ".dfa")
    assert cli._dfa_files(directory + "/")[0] == directory + "/.dfa"
    for missing in (str(tmp_path / "nope"), str(tmp_path / "b.dfa"), str(tmp_path / "e" / "nope")):
        assert names(missing) == globbed(missing) == []
    monkeypatch.chdir(tmp_path / "e")
    assert cli._dfa_files("") == ["nested.dfa"]
    assert names("") == globbed("") == names(".") == ["nested.dfa"]


def test_cli_batch_rejects_a_file_as_well(capsys, tmp_path):
    (tmp_path / "one.dfa").write_text(export(mk_witness(1)))
    assert main(["classify", str(FIXTURES / "m2.dfa"), "--batch", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: classify takes a FILE or --batch DIR, not both\n"


def test_cli_empty_batch_name_lists_the_working_directory(capsys, monkeypatch, tmp_path):
    # --batch '' is given, not absent: it names the working directory
    (tmp_path / "m2.dfa").write_text(fixture_text("m2.dfa"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["classify", "m2.dfa", "--json"]) == 0
    single = json.loads(capsys.readouterr().out)
    assert main(["classify", "--batch", "", "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == [single]


def test_cli_empty_batch_name_with_a_file_is_rejected(capsys, monkeypatch, tmp_path):
    (tmp_path / "m2.dfa").write_text(fixture_text("m2.dfa"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["classify", "m2.dfa", "--batch", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: classify takes a FILE or --batch DIR, not both\n"


def test_cli_batch_json_reports_good_files_past_a_bad_one(capsys, tmp_path):
    (tmp_path / "a.dfa").write_text(export(mk_witness(1)))
    (tmp_path / "b.dfa").write_text("alphabet: ab\nstates: 1\nstart: 0\naccepting:\n0 a 0\n")
    (tmp_path / "c.dfa").write_text(export(mk_witness(2)))
    (tmp_path / "d.dfa").mkdir()
    assert main(["classify", "--batch", str(tmp_path), "--json"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert [entry["language"] for entry in payload] == ["a", "c"]
    assert captured.err == (
        f"error: {tmp_path / 'b.dfa'}: missing transition for state 0 on 'b'\n"
        f"error: {tmp_path / 'd.dfa'}: Is a directory\n"
    )


def test_cli_batch_reports_past_a_file_over_the_word_cap(capsys, monkeypatch, tmp_path):
    # the cap stops one file's oracle check, not the batch: that file is
    # named on stderr and left out, the others are reported as they are
    # alone, and the exit code is the cap's
    monkeypatch.setenv("SUBSEQ_WORD_CAP", "100")
    wide = tmp_path / "a8.dfa"
    assert main(["gen-mk", "2", "--alphabet", "abcdefgh", "-o", str(wide)]) == 0
    (tmp_path / "m2.dfa").write_text(fixture_text("m2.dfa"))
    for extra in ([], ["--json"]):
        assert main(["classify", str(FIXTURES / "m2.dfa"), "--oracle-check", "3", *extra]) == 0
        alone = capsys.readouterr().out
        argv = ["classify", "--batch", str(tmp_path), "--oracle-check", "3", *extra]
        assert main(argv) == 2
        captured = capsys.readouterr()
        if extra:
            assert json.loads(captured.out) == [json.loads(alone)]
        else:
            assert captured.out == alone
        assert captured.err == f"error: {wide}: 8^3 words exceed the cap of 100\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--bogus", "m3.dfa"], "unrecognized arguments: --bogus"),
        (["gen-mk", "notanint"], "argument k: invalid int value: 'notanint'"),
    ],
    ids=["unknown-option", "bad-integer"],
)
def test_usage_errors_exit_2_with_a_usage_line(capsys, argv, message):
    # argparse shares exit code 2 with the word cap
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: subseq ")
    assert captured.err.endswith(f"error: {message}\n")


# command lines for the parse, none of which opens a file: every command's
# valid forms, with abbreviated options and the --x=y form; then help per
# command, "--", and each kind of usage error
VALID_ARGVS = [
    ["classify", "m3.dfa"],
    ["classify", "m3.dfa", "--json", "--witness"],
    ["classify", "--oracle-check", "3", "m3.dfa"],
    ["classify", "--oracle-check=3", "m3.dfa"],
    ["classify", "--batch", "corpus", "--json"],
    ["classify"],
    ["mplus", "m3.dfa", "--json"],
    ["patterns", "m3.dfa"],
    ["closure", "m3.dfa", "-o", "out.dfa"],
    ["decompose", "--json", "m3.dfa"],
    ["oracle-check", "m3.dfa", "--max-len", "4", "--max-m=2"],
    ["export", "m3.dfa", "--format", "dot", "--minimize", "--output=out.dot"],
    ["gen-mk", "3", "--alphabet", "abc", "--letter", "b"],
    ["gen-mk", "-3"],
    ["classify", "m3.dfa", "--js"],
    ["classify", "--bat", "corpus"],
    ["oracle-check", "m3.dfa", "--max-l", "4"],
    ["export", "m3.dfa", "--form=dot"],
    ["mplus", "--", "--json"],
    ["classify", "--", "m3.dfa"],
]
PARSE_ARGVS = VALID_ARGVS + [
    *(
        [command, "-h"]
        for command in (
            "classify", "mplus", "patterns", "closure", "decompose", "oracle-check",
            "export", "gen-mk",
        )
    ),
    ["classify", "--he"],
    ["oracle-check", "m2.dfa", "--max-len", "six"],
    ["export", "m3.dfa", "--format", "svg"],
    ["mplus"],
    ["classify", "m3.dfa", "--bogus"],
    ["classify", "--bogus", "m3.dfa"],
    ["mplus", "m3.dfa", "extra"],
    ["frobnicate", "m3.dfa"],
    ["-h"],
    ["--he"],
    ["--", "classify", "m3.dfa"],
    [],
]


def _parse_outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=lambda argv: " ".join(argv) or "(empty)")
def test_parse_args_agrees_with_the_whole_parser(argv):
    # exit code, stdout, stderr and namespace, against a parser built anew
    got = _parse_outcome(cli._parse_args, argv)
    assert got == _parse_outcome(cli.build_parser().parse_args, argv)


def test_parse_args_leaves_a_command_line_to_its_command_parser(monkeypatch):
    # the whole parser runs only for what its command's parser does not
    # take: no command, or an argument left over
    whole = []
    monkeypatch.setattr(cli._parser(), "parse_args", whole.append)
    for argv in VALID_ARGVS:
        assert cli._parse_args(argv).command == argv[0]
    assert whole == []
    for argv in (["classify", "m3.dfa", "--bogus"], ["frobnicate"], []):
        assert cli._parse_args(argv) is None
    assert whole == [["classify", "m3.dfa", "--bogus"], ["frobnicate"], []]


def test_python_dash_m_subseq_runs_the_cli():
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "subseq", "gen-mk", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    assert parse_dfa(result.stdout) == mk_witness(2)


def test_importing_the_cli_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize: about a third of
    # the package's import time, and none of it is used; pathlib, with the
    # fnmatch and urllib it loads, would serve a few calls that os and
    # open make; -S keeps the modules that site's own hooks load out of
    # the check
    src = str(Path(__file__).parent.parent / "src")
    unwanted = ("dataclasses", "inspect", "ast", "dis", "tokenize", "pathlib")
    code = "import sys, subseq, subseq.cli; print(*[m for m in sys.argv[1:] if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *unwanted],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
