import random
import time
from pathlib import Path

import pytest

from subseq.alternation import l_plus, m_plus, mk_witness
from subseq.automata import Alphabet, complement, universal_language
from subseq.errors import WordCapExceededError
from subseq.oracle import (
    chain_table,
    cross_check,
    enumerate_words,
    l_minus_bounded,
    l_plus_bounded,
    m_minus_lower_bound,
    m_plus_lower_bound,
)
from subseq.cli import main
from subseq.subword import is_subword, shuffle_ideal, upward_closure

from helpers import AB, ab_star, count_calls, lang_slice, random_dfa, words_up_to

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
    m2 = mk_witness(2)
    assert m_plus_lower_bound(m2.accepts, AB, 5) == 1
    assert m_minus_lower_bound(m2.accepts, AB, 5) == 2
    assert m_plus_lower_bound(ab_star().accepts, AB, 12) >= 5
    assert m_plus_lower_bound(always, AB, 4) == 0
    assert m_plus_lower_bound(never, AB, 4) == -1


def test_lower_bound_monotone_in_length():
    rng = random.Random(500)
    for _ in range(10):
        d = random_dfa(rng, rng.randint(1, 4))
        bounds = [m_plus_lower_bound(d.accepts, AB, n) for n in range(7)]
        assert bounds == sorted(bounds)


def test_lower_bound_never_exceeds_measure():
    rng = random.Random(501)
    for _ in range(20):
        d = random_dfa(rng, rng.randint(1, 4))
        measure = m_plus(d)
        bound = m_plus_lower_bound(d.accepts, AB, 7)
        if measure.is_finite:
            assert bound <= measure.value


def test_lower_bound_attains_small_finite_measures():
    fixtures = [mk_witness(k) for k in range(1, 5)]
    fixtures += [shuffle_ideal(w, AB) for w in ("", "a", "ab")]
    fixtures += [complement(universal_language(AB))]
    for d in fixtures:
        measure = m_plus(d)
        assert measure.is_finite and measure.value <= 4
        assert m_plus_lower_bound(d.accepts, AB, 8) == measure.value


def test_level_zero_bounded_set_is_subword_upward_closure():
    m2 = mk_witness(2)
    members = lang_slice(m2, 5)
    expected = {
        v
        for v in words_up_to("ab", 5)
        if any(is_subword(w, v) for w in members if len(w) <= len(v))
    }
    assert l_plus_bounded(m2.accepts, AB, 0, 5) == expected


def test_level_two_of_witness_is_empty():
    assert l_plus_bounded(mk_witness(2).accepts, AB, 2, 6) == set()


def test_levels_of_empty_language_are_empty():
    for m in range(3):
        assert l_plus_bounded(never, AB, m, 4) == set()


def test_bounded_levels_match_level_automata():
    rng = random.Random(502)
    for _ in range(12):
        d = random_dfa(rng, rng.randint(1, 4))
        for m in range(4):
            machine = l_plus(d, m)
            expected = {w for w in words_up_to("ab", 6) if machine.accepts(w)}
            assert l_plus_bounded(d.accepts, AB, m, 6) == expected


def test_bounded_minus_levels_match_complement_plus():
    rng = random.Random(503)
    for _ in range(8):
        d = random_dfa(rng, rng.randint(1, 4))
        comp = complement(d)
        for m in range(3):
            assert l_minus_bounded(d.accepts, AB, m, 5) == l_plus_bounded(
                comp.accepts, AB, m, 5
            )


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
        for m in range(3):
            expected = level_by_enumeration(d.accepts, m, 4)
            assert l_plus_bounded(d.accepts, AB, m, 4) == expected
            machine = l_plus(d, m)
            assert {w for w in words_up_to("ab", 4) if machine.accepts(w)} == expected


def test_cross_check_walks_each_level_chain_once(capsys, monkeypatch):
    closures = count_calls(monkeypatch, upward_closure)
    assert main(["oracle-check", str(FIXTURES / "m3.dfa"), "--max-len", "6"]) == 0
    assert capsys.readouterr().out == "oracle check up to length 6: ok\n"
    # levels 0..3 on each side, then m3's two measure chains (levels
    # 0..3 and 0..4, each ending at its first empty level)
    assert len(closures) == 17


def test_cross_check_reports_wrong_predicate():
    # a deliberately inconsistent pairing: the automaton for one language,
    # checked against level sets of another, must be flagged
    from subseq import oracle

    m1 = mk_witness(1)
    m2 = mk_witness(2)
    table = oracle.chain_table(m2.accepts, AB, 4)
    expected = oracle._bounded_level(table, table.plus_depth, 1)
    actual = {w for w in table.words if l_plus(m1, 1).accepts(w)}
    assert expected != actual
