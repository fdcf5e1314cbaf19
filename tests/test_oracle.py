import itertools
import random
import time
from pathlib import Path

import pytest

from subseq.alternation import _levels, l_plus, m_plus, mk_witness
from subseq.automata import Alphabet, complement, universal_language
from subseq.errors import WordCapExceededError
from subseq.oracle import chain_table, cross_check, enumerate_words
from subseq.patterns import is_piecewise_testable
from subseq.cli import main
from subseq.subword import is_subword, shuffle_ideal, upward_closure

from helpers import (
    AB,
    ab_star,
    bounded_level,
    build_chain_nfa,
    count_calls,
    lang_slice,
    nfa_is_empty,
    oracle_corpus,
    random_dfa,
    reach_level,
    substitute,
    words_up_to,
)

A_ONLY = Alphabet("a")
FIXTURES = Path(__file__).parent / "fixtures"


def never(_):
    return False


def always(_):
    return True


def test_enumerate_words_counts_and_order():
    assert enumerate_words(AB, 0) == [""]
    two = enumerate_words(AB, 2)
    assert len(two) == 7
    assert two == ["", "a", "b", "aa", "ab", "ba", "bb"]
    assert enumerate_words(A_ONLY, 3) == ["", "a", "aa", "aaa"]


def test_enumerate_words_respects_cap():
    with pytest.raises(WordCapExceededError):
        enumerate_words(AB, 8, cap=100)
    assert len(enumerate_words(AB, 8, cap=256)) == 511


def test_enumerate_words_refuses_a_huge_length_without_computing_its_power():
    message = r"^3\^10000000 words exceed the cap of 1000000$"
    start = time.perf_counter()
    with pytest.raises(WordCapExceededError, match=message):
        enumerate_words(Alphabet("abc"), 10**7)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"took {elapsed:.2f} s"


def test_enumerate_words_caps_a_one_letter_alphabet():
    with pytest.raises(WordCapExceededError, match="^21 words exceed the cap of 10$"):
        enumerate_words(A_ONLY, 20, cap=10)
    assert enumerate_words(A_ONLY, 9, cap=10) == ["a" * n for n in range(10)]


def test_chain_table_single_letter_ideal():
    # members never leave the language by extension, so no member-rooted
    # chain gets past depth zero
    ideal = shuffle_ideal("a", AB)
    table = chain_table(ideal.accepts, AB, 3)
    assert max(table.plus_depth.values()) == 0
    assert table.plus_depth["a"] == 0
    assert all(
        table.plus_depth[w] == (0 if table.member[w] else -1) for w in table.words
    )


def test_chain_table_witness_depths():
    m2 = mk_witness(2)
    table = chain_table(m2.accepts, AB, 5)
    assert max(table.plus_depth.values()) == 1
    assert max(table.minus_depth.values()) == 2
    # the canonical deepest chains: a < aa (plus), eps < a < aa (minus)
    assert table.plus_depth["aa"] == 1
    assert table.minus_depth["aa"] == 2


def test_chain_table_empty_language():
    table = chain_table(never, AB, 4)
    assert set(table.plus_depth.values()) == {-1}
    assert max(table.minus_depth.values()) == 0


def test_lower_bound_examples():
    m2 = chain_table(mk_witness(2).accepts, AB, 5)
    assert max(m2.plus_depth.values()) == 1
    assert max(m2.minus_depth.values()) == 2
    assert max(chain_table(ab_star().accepts, AB, 12).plus_depth.values()) >= 5
    assert max(chain_table(always, AB, 4).plus_depth.values()) == 0
    assert max(chain_table(never, AB, 4).plus_depth.values()) == -1


def test_lower_bound_monotone_in_length():
    rng = random.Random(500)
    for _ in range(10):
        d = random_dfa(rng, rng.randint(1, 4))
        bounds = [max(chain_table(d.accepts, AB, n).plus_depth.values()) for n in range(7)]
        assert bounds == sorted(bounds)


def test_lower_bound_never_exceeds_measure():
    rng = random.Random(501)
    for _ in range(20):
        d = random_dfa(rng, rng.randint(1, 4))
        measure = m_plus(d)
        bound = max(chain_table(d.accepts, AB, 7).plus_depth.values())
        if measure.is_finite:
            assert bound <= measure.value


def test_lower_bound_attains_small_finite_measures():
    fixtures = [mk_witness(k) for k in range(1, 5)]
    fixtures += [shuffle_ideal(w, AB) for w in ("", "a", "ab")]
    fixtures += [complement(universal_language(AB))]
    for d in fixtures:
        measure = m_plus(d)
        assert measure.is_finite and measure.value <= 4
        assert max(chain_table(d.accepts, AB, 8).plus_depth.values()) == measure.value


def test_level_zero_bounded_set_is_subword_upward_closure():
    m2 = mk_witness(2)
    members = lang_slice(m2, 5)
    expected = {
        v
        for v in words_up_to("ab", 5)
        if any(is_subword(w, v) for w in members if len(w) <= len(v))
    }
    assert reach_level(chain_table(m2.accepts, AB, 5).plus_reach, 0) == expected


def test_level_two_of_witness_is_empty():
    assert reach_level(chain_table(mk_witness(2).accepts, AB, 6).plus_reach, 2) == set()


def test_levels_of_empty_language_are_empty():
    table = chain_table(never, AB, 4)
    for m in range(3):
        assert reach_level(table.plus_reach, m) == set()


def test_bounded_levels_match_level_automata():
    rng = random.Random(502)
    for _ in range(12):
        d = random_dfa(rng, rng.randint(1, 4))
        table = chain_table(d.accepts, AB, 6)
        for m in range(4):
            machine = l_plus(d, m)
            expected = {w for w in words_up_to("ab", 6) if machine.accepts(w)}
            assert reach_level(table.plus_reach, m) == expected


def test_bounded_minus_levels_match_complement_plus():
    rng = random.Random(503)
    for _ in range(8):
        d = random_dfa(rng, rng.randint(1, 4))
        minus = chain_table(d.accepts, AB, 5).minus_reach
        plus_of_comp = chain_table(complement(d).accepts, AB, 5).plus_reach
        for m in range(3):
            assert reach_level(minus, m) == reach_level(plus_of_comp, m)


def test_reach_levels_match_a_second_walk_over_deletions():
    # the reach fields against a separate walk per level, for levels
    # 0..5 on both sides of every machine in the corpus
    corpus = oracle_corpus()
    assert len(corpus) == 469
    for d in corpus:
        table = chain_table(d.accepts, d.alphabet, 6 if len(d.alphabet) == 2 else 4)
        for depth, reach in (
            (table.plus_depth, table.plus_reach),
            (table.minus_depth, table.minus_reach),
        ):
            assert max(reach.values()) == max(depth.values())
            for m in range(6):
                assert reach_level(reach, m) == bounded_level(table, depth, m), (d, m)


def test_cross_check_is_clean_on_fixtures():
    for d in (mk_witness(1), mk_witness(3), shuffle_ideal("ab", AB), ab_star()):
        assert cross_check(d, 5) == []


def test_bounded_levels_match_explicit_chain_enumeration():
    # third, fully independent path: enumerate alternating chains directly
    # over explicit subword sets, no dynamic programming at all
    import functools
    import itertools as it

    def subwords(v):
        return {
            "".join(v[i] for i in keep)
            for r in range(len(v) + 1)
            for keep in it.combinations(range(len(v)), r)
        }

    def level_by_enumeration(member, m, max_len):
        words = words_up_to("ab", max_len)

        @functools.lru_cache(maxsize=None)
        def ends_chain(u, depth):
            if depth == 0:
                return member(u)
            return any(
                member(p) != member(u) and ends_chain(p, depth - 1)
                for p in subwords(u)
                if p != u
            )

        return {
            v for v in words if any(ends_chain(u, m) for u in subwords(v))
        }

    rng = random.Random(504)
    for _ in range(6):
        d = random_dfa(rng, rng.randint(1, 3))
        table = chain_table(d.accepts, AB, 4)
        for m in range(3):
            expected = level_by_enumeration(d.accepts, m, 4)
            assert reach_level(table.plus_reach, m) == expected
            machine = l_plus(d, m)
            assert {w for w in words_up_to("ab", 4) if machine.accepts(w)} == expected


def test_cross_check_walks_each_level_chain_once(capsys, monkeypatch):
    closures = count_calls(monkeypatch, upward_closure)
    assert main(["oracle-check", str(FIXTURES / "m3.dfa"), "--max-len", "6"]) == 0
    assert capsys.readouterr().out == "oracle check up to length 6: ok\n"
    # m3 is piecewise testable, so each side's chain is walked once to its
    # end: nonempty levels 0..2 and 0..3, each closing one empty level more
    assert len(closures) == 9


def test_cross_check_reports_wrong_predicate(monkeypatch):
    # a deliberately inconsistent pairing: the level chains of one
    # language, checked against the bounded sets of another, must be
    # flagged level by level and measure by measure
    m1 = mk_witness(1)
    m2 = mk_witness(2)
    substitute(monkeypatch, _levels, lambda dfa: _levels(m1 if dfa == m2 else complement(m1)))
    assert cross_check(m2, 4) == [
        "plus level 1: bounded sets disagree, e.g. ['aa', 'aaa', 'aab']",
        "minus level 2: bounded sets disagree, e.g. ['aa', 'aaa', 'aab']",
        "plus measure 0 is below the brute-force bound 1",
        "minus measure 1 is below the brute-force bound 2",
    ]


def test_cross_check_reports_each_kind_of_mismatch(monkeypatch):
    # a level chain that starts one level late is reported level by level,
    # with the shortlex-first sample words, and so are the measures that
    # its shortened walks give
    substitute(monkeypatch, _levels, lambda dfa: itertools.islice(_levels(dfa), 1, None))
    assert cross_check(mk_witness(2), 4) == [
        "plus level 0: bounded sets disagree, e.g. ['a', 'ab', 'ba']",
        "plus level 1: bounded sets disagree, e.g. ['aa', 'aaa', 'aab']",
        "minus level 0: bounded sets disagree, e.g. ['', 'b', 'bb']",
        "minus level 1: bounded sets disagree, e.g. ['a', 'ab', 'ba']",
        "minus level 2: bounded sets disagree, e.g. ['aa', 'aaa', 'aab']",
        "plus measure 0 is below the brute-force bound 1",
        "minus measure 1 is below the brute-force bound 2",
    ]


def test_level_walks_end_exactly_on_piecewise_testable_corpus_machines():
    # cross_check agrees with the brute force on every corpus machine; a
    # piecewise testable walk of k levels ends where the chain NFA first
    # turns empty, and every other walk keeps going
    finite = 0
    for d in oracle_corpus():
        assert cross_check(d, 4 if len(d.alphabet) == 2 else 3, max_m=5) == [], d
        if not is_piecewise_testable(d):
            assert len(list(itertools.islice(_levels(d), 6))) == 6, d
            continue
        finite += 1
        for side in (d, complement(d)):
            k = len(list(_levels(side)))
            assert nfa_is_empty(build_chain_nfa(side, k)), side
            if k > 0:
                assert not nfa_is_empty(build_chain_nfa(side, k - 1)), side
    assert finite == 256
