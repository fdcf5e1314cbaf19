import itertools
import random
import time
import tracemalloc
from array import array
from pathlib import Path

import pytest

from subseq import alternation
from subseq.alternation import _levels, _shifts, _walk, l_plus, m_plus, mk_witness
from subseq.automata import Alphabet, Dfa, complement, minimize, universal_language
from subseq.errors import WordCapExceededError
from subseq.oracle import (
    DEFAULT_WORD_CAP,
    _compare,
    _depths,
    _joint,
    _spread,
    _states,
    chain_table,
    cross_check,
    enumerate_words,
)
from subseq.patterns import is_piecewise_testable
from subseq.cli import main, parse_dfa
from subseq.subword import is_subword, shuffle_ideal, upward_closure

from helpers import (
    AB,
    ab_star,
    boolean_combinations,
    bounded_level,
    build_chain_nfa,
    count_calls,
    lang_slice,
    nfa_is_empty,
    oracle_corpus,
    random_dfa,
    reach_level,
    reference_chain_table,
    reference_chain_walk,
    reference_compare,
    reference_index_depths,
    reference_spread,
    substitute,
    words_up_to,
)

A_ONLY = Alphabet("a")
ALPHABETS = (A_ONLY, AB, Alphabet("abc"))
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
    assert reach_level(chain_table(m2.accepts, AB, 5).plus_depth, 0) == expected


def test_level_two_of_witness_is_empty():
    assert reach_level(chain_table(mk_witness(2).accepts, AB, 6).plus_depth, 2) == set()


def test_levels_of_empty_language_are_empty():
    table = chain_table(never, AB, 4)
    for m in range(3):
        assert reach_level(table.plus_depth, m) == set()


def test_bounded_levels_match_level_automata():
    rng = random.Random(502)
    for _ in range(12):
        d = random_dfa(rng, rng.randint(1, 4))
        table = chain_table(d.accepts, AB, 6)
        for m in range(4):
            machine = l_plus(d, m)
            expected = {w for w in words_up_to("ab", 6) if machine.accepts(w)}
            assert reach_level(table.plus_depth, m) == expected


def test_bounded_minus_levels_match_complement_plus():
    rng = random.Random(503)
    for _ in range(8):
        d = random_dfa(rng, rng.randint(1, 4))
        minus = chain_table(d.accepts, AB, 5).minus_depth
        plus_of_comp = chain_table(complement(d).accepts, AB, 5).plus_depth
        for m in range(3):
            assert reach_level(minus, m) == reach_level(plus_of_comp, m)


def test_depth_levels_match_a_second_walk_over_deletions():
    # the levels read off the depth fields against a separate walk per
    # level, for levels 0..5 on both sides of every machine in the corpus
    corpus = oracle_corpus()
    assert len(corpus) == 469
    for d in corpus:
        table = chain_table(d.accepts, d.alphabet, 6 if len(d.alphabet) == 2 else 4)
        for depth in (table.plus_depth, table.minus_depth):
            for m in range(6):
                assert reach_level(depth, m) == bounded_level(table, depth, m), (d, m)


def test_reference_reach_equals_the_depth_fields():
    # depth never falls along the subword order, so the reference walk's
    # reach, the deepest chain ending at any subword, is the library's
    # depth on both sides: over the corpus and over the 200 seeded
    # languages of the reference test on random predicates
    cases = [
        (d.accepts, d.alphabet, 6 if len(d.alphabet) == 2 else 4)
        for d in oracle_corpus()
    ]
    rng = random.Random(512)
    for i in range(200):
        alphabet = ALPHABETS[i % 3]
        max_len = (i // 3) % (11, 7, 5)[i % 3]
        density = rng.random()
        chosen = {
            w for w in words_up_to(alphabet.letters, max_len) if rng.random() < density
        }
        cases.append((chosen.__contains__, alphabet, max_len))
    assert len(cases) == 669
    for membership, alphabet, max_len in cases:
        table = chain_table(membership, alphabet, max_len)
        _, plus_reach, minus_reach = reference_chain_walk(membership, alphabet, max_len)
        assert plus_reach == table.plus_depth, (alphabet, max_len)
        assert minus_reach == table.minus_depth, (alphabet, max_len)


def test_chain_table_matches_the_string_keyed_reference_on_the_corpus():
    for d in oracle_corpus():
        n = 6 if len(d.alphabet) == 2 else 4
        assert chain_table(d.accepts, d.alphabet, n) == reference_chain_table(
            d.accepts, d.alphabet, n
        ), d


def test_chain_table_matches_the_string_keyed_reference_on_random_predicates():
    # 200 seeded languages with no automaton behind them, cycling through
    # one, two and three letters and every length bound from 0 up
    rng = random.Random(512)
    for i in range(200):
        alphabet = ALPHABETS[i % 3]
        max_len = (i // 3) % (11, 7, 5)[i % 3]
        density = rng.random()
        chosen = {
            w for w in words_up_to(alphabet.letters, max_len) if rng.random() < density
        }
        table = chain_table(chosen.__contains__, alphabet, max_len)
        assert table == reference_chain_table(chosen.__contains__, alphabet, max_len), i


def test_states_step_every_word_from_its_prefix():
    rng = random.Random(513)
    for alphabet, max_len in zip(ALPHABETS, (12, 8, 5)):
        words = enumerate_words(alphabet, max_len)
        for _ in range(20):
            d = random_dfa(rng, rng.randint(1, 6), alphabet)
            assert _states(d.delta, d.start, len(alphabet), len(words)) == [d.run(w) for w in words]


def test_cross_check_steps_automata_without_replaying_words(monkeypatch):
    def replay(self, word):
        raise AssertionError(f"replayed {word!r}")

    monkeypatch.setattr(Dfa, "accepts", replay)
    assert cross_check(mk_witness(3), 6) == []


def test_oracle_check_enumerates_the_words_once(capsys, monkeypatch):
    # cross_check works on the words' shortlex indices and tabulates the
    # depths from the input's membership list, without chain_table; it
    # spells the words out once, and only when some level disagrees
    enumerations = count_calls(monkeypatch, enumerate_words)
    tables = count_calls(monkeypatch, chain_table)
    assert main(["oracle-check", str(FIXTURES / "m3.dfa"), "--max-len", "6"]) == 0
    assert capsys.readouterr().out == "oracle check up to length 6: ok\n"
    assert len(enumerations) == 0
    assert len(tables) == 0
    substitute(monkeypatch, _levels, _walk_of_m1)
    assert len(cross_check(mk_witness(2), 4)) == 4
    assert len(enumerations) == 1
    assert len(tables) == 0


def test_cross_check_memory_follows_the_depths_not_the_words():
    # 131071 words up to length 16: the check keeps a few lists of one
    # entry per word, never the words themselves or their deletion rows
    tracemalloc.start()
    try:
        assert cross_check(mk_witness(3), 16) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_cross_check_is_clean_on_a_one_letter_alphabet():
    rng = random.Random(514)
    machines = [mk_witness(k, A_ONLY) for k in range(1, 5)]
    machines += [random_dfa(rng, rng.randint(1, 6), A_ONLY) for _ in range(20)]
    for d in machines:
        assert cross_check(d, 12, max_m=5) == [], d


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
            assert reach_level(table.plus_depth, m) == expected
            machine = l_plus(d, m)
            assert {w for w in words_up_to("ab", 4) if machine.accepts(w)} == expected


def test_cross_check_walks_each_level_chain_once(capsys, monkeypatch):
    closures = count_calls(monkeypatch, upward_closure)
    assert main(["oracle-check", str(FIXTURES / "m3.dfa"), "--max-len", "6"]) == 0
    assert capsys.readouterr().out == "oracle check up to length 6: ok\n"
    # m3 is piecewise testable and rejects ε, so one walk to the end of
    # its own chain gives both sides: nonempty levels 0..2, then the empty
    # level 3; the minus chain is Σ* followed by those levels
    assert len(closures) == 4


def _walk_of_m1(_):
    # the level chains of another language that rejects ε
    return _levels(mk_witness(1))


def _late_walk(minimal):
    # a level walk that starts one level late
    return itertools.islice(_levels(minimal), 1, None)


def test_cross_check_steps_each_level_once(monkeypatch):
    # one stepping pass per check, over the state tuples of the input and
    # the walked levels 0..max_m together, the levels shared by both sides
    # included; Σ* and the empty levels past the walk's end hold every word
    # and none, so nothing is stepped for them
    m3 = parse_dfa((FIXTURES / "m3.dfa").read_text(encoding="utf-8"))
    steps = count_calls(monkeypatch, _states)
    joint = count_calls(monkeypatch, _joint)
    for d in (mk_witness(1), mk_witness(3), complement(mk_witness(2)), m3):
        assert cross_check(d, 6) == []
    assert len(steps) == 4
    assert [len(machines) for machines, _ in joint] == [2, 4, 3, 4]


def test_joint_pass_builds_no_more_tuples_than_words(monkeypatch):
    # a piecewise testable input of 312 states, whose product with its
    # first four levels reaches 688 tuples; only the tuples of the 15 words
    # up to length 3 are built
    big = boolean_combinations(random.Random(1), 6, 6, 7)[5]
    assert big.n_states == 312
    built = []

    def joint(machines, max_len):
        bits, rows = _joint(machines, max_len)
        built.append((len(machines), len(bits)))
        return bits, rows

    substitute(monkeypatch, _joint, joint)
    assert cross_check(big, 3) == []
    assert len(built) == 1 and built[0][0] == 5
    assert built[0][1] <= len(enumerate_words(AB, 3)) == 15


def test_spread_repeats_each_block_k_times():
    # block sizes k^i with block² up to the length take the strided copies,
    # the larger ones a copy per block; each lane is its own index, so a
    # misplaced copy shows, in one-byte lanes and in wider ones
    for k in (1, 2, 3):
        for n in range(6):
            below = list(range(k**n))
            for i in range(n + 1):
                block = k**i
                by_definition = [
                    x
                    for start in range(0, len(below), block)
                    for _ in range(k)
                    for x in below[start : start + block]
                ]
                for typecode in "BH":
                    spread = _spread(array(typecode, below), block, k)
                    assert spread == array(typecode, by_definition), (k, n, i, typecode)
                assert list(reference_spread(below, block, k)) == by_definition, (k, n, i)


def test_depth_lanes_match_the_reference_lists():
    # every bound from 0 up, on the corpus machines' memberships and on
    # seeded random ones over one, two and three letters; a lane is the
    # reference's depth + 1
    longest = {1: 11, 2: 7, 3: 5}
    memberships = []
    for d in oracle_corpus():
        words = enumerate_words(d.alphabet, longest[len(d.alphabet)])
        memberships.append((list(map(d.accepts, words)), len(d.alphabet)))
    rng = random.Random(529)
    for _ in range(200):
        k = rng.randint(1, 3)
        n_words = len(enumerate_words(Alphabet("abc"[:k]), longest[k]))
        memberships.append(([rng.random() < 0.5 for _ in range(n_words)], k))
    for member, k in memberships:
        for max_len in range(longest[k] + 1):
            prefix = member[: sum(k**n for n in range(max_len + 1))]
            want = [d + 1 for d in reference_index_depths(prefix, k)]
            assert _depths(prefix, k).tolist() == want, (prefix, k)


def test_wide_lanes_give_the_closed_form_depths():
    # (aa)* holds ε and its chain a^0 ⊑ a^1 ⊑ ... alternates at every
    # letter, so the walked, minus side's lane at a^n is n: the largest
    # one-byte lanes hold at 127, two-byte ones past it
    even = Dfa(A_ONLY, 2, ((1,), (0,)), 0, frozenset({0}))
    for max_len in (127, 128, 300):
        table = chain_table(even.accepts, A_ONLY, max_len)
        plus = [table.plus_depth["a" * n] for n in range(max_len + 1)]
        minus = [table.minus_depth["a" * n] for n in range(max_len + 1)]
        assert plus == list(range(max_len + 1)), max_len
        assert minus == list(range(-1, max_len)), max_len
        assert cross_check(even, max_len) == [], max_len


def _compare_both(d, max_len, max_m):
    # the joint pass and the reference on one walk, which may be substituted
    walk = _walk(d, max_m + 1)
    problems = _compare(d, walk, max_len, max_m, DEFAULT_WORD_CAP)
    assert problems == reference_compare(d, walk, max_len, max_m, DEFAULT_WORD_CAP), (d, max_m)
    return problems


def test_joint_pass_matches_the_reference_comparison(monkeypatch):
    fixtures = [parse_dfa(p.read_text(encoding="utf-8")) for p in sorted(FIXTURES.glob("*.dfa"))]
    for d in oracle_corpus() + fixtures:
        assert _compare_both(d, 4 if len(d.alphabet) == 2 else 3, 5) == [], d
    for d in fixtures:
        assert _compare_both(d, 0, 3) == [], d
    # seeded random machines over one, two and three letters, each with ε
    # on both sides, compared through levels up to 0..4
    rng = random.Random(515)
    machines = []
    for alphabet in ALPHABETS:
        for _ in range(20):
            d = random_dfa(rng, rng.randint(1, 6), alphabet)
            machines += [d, complement(d)]
    for i, d in enumerate(machines):
        assert _compare_both(d, (10, 6, 4)[len(d.alphabet) - 1], i % 5) == [], d
    # walks that disagree, so the samples and measure problems are compared
    # too, on both shifts
    two_letters = [d for d in machines if d.alphabet == AB]
    two_letters += [mk_witness(2), complement(mk_witness(2))]
    mismatches = 0
    for walk, inputs in ((_walk_of_m1, two_letters), (_late_walk, machines)):
        with monkeypatch.context() as patch:
            substitute(patch, _levels, walk)
            for i, d in enumerate(inputs):
                mismatches += bool(_compare_both(d, (10, 6, 4)[len(d.alphabet) - 1], i % 5))
    assert (mismatches, len(two_letters) + len(machines)) == (129, 162)


def test_substitute_refuses_a_function_no_module_names(monkeypatch):
    # once replaced, _levels is named by no module, so a second substitute
    # of it must fail rather than leave the first replacement in place
    substitute(monkeypatch, _levels, _walk_of_m1)
    with pytest.raises(LookupError):
        substitute(monkeypatch, _levels, _late_walk)
    assert alternation._levels is _walk_of_m1


def test_cross_check_reports_wrong_predicate(monkeypatch):
    # a deliberately inconsistent pairing: the level chains of one
    # language, checked against the bounded sets of another, must be
    # flagged level by level and measure by measure
    substitute(monkeypatch, _levels, _walk_of_m1)
    assert cross_check(mk_witness(2), 4) == [
        "plus level 1: bounded sets disagree, e.g. ['aa', 'aaa', 'aab']",
        "minus level 2: bounded sets disagree, e.g. ['aa', 'aaa', 'aab']",
        "plus measure 0 is below the brute-force bound 1",
        "minus measure 1 is below the brute-force bound 2",
    ]


def test_cross_check_reports_wrong_predicate_when_epsilon_is_in(monkeypatch):
    # ε is in the complement of mk_witness(2), so its walk is the one of
    # mk_witness(2) and its plus side is the shifted one
    substitute(monkeypatch, _levels, _walk_of_m1)
    assert cross_check(complement(mk_witness(2)), 4) == [
        "plus level 2: bounded sets disagree, e.g. ['aa', 'aaa', 'aab']",
        "minus level 1: bounded sets disagree, e.g. ['aa', 'aaa', 'aab']",
        "plus measure 1 is below the brute-force bound 2",
        "minus measure 0 is below the brute-force bound 1",
    ]


def test_cross_check_reports_each_kind_of_mismatch(monkeypatch):
    # a level walk that starts one level late is reported level by level,
    # with the shortlex-first sample words, and so are the measures that
    # its shortened chains give; minus level 0 is Σ* whatever the walk
    substitute(monkeypatch, _levels, _late_walk)
    assert cross_check(mk_witness(2), 4) == [
        "plus level 0: bounded sets disagree, e.g. ['a', 'ab', 'ba']",
        "plus level 1: bounded sets disagree, e.g. ['aa', 'aaa', 'aab']",
        "minus level 1: bounded sets disagree, e.g. ['a', 'ab', 'ba']",
        "minus level 2: bounded sets disagree, e.g. ['aa', 'aaa', 'aab']",
        "plus measure 0 is below the brute-force bound 1",
        "minus measure 1 is below the brute-force bound 2",
    ]


def test_cross_check_reports_each_kind_of_mismatch_when_epsilon_is_in(monkeypatch):
    # the same late walk on the complement: plus level 0 is now Σ*
    substitute(monkeypatch, _levels, _late_walk)
    assert cross_check(complement(mk_witness(2)), 4) == [
        "plus level 1: bounded sets disagree, e.g. ['a', 'ab', 'ba']",
        "plus level 2: bounded sets disagree, e.g. ['aa', 'aaa', 'aab']",
        "minus level 0: bounded sets disagree, e.g. ['a', 'ab', 'ba']",
        "minus level 1: bounded sets disagree, e.g. ['aa', 'aaa', 'aab']",
        "plus measure 1 is below the brute-force bound 2",
        "minus measure 0 is below the brute-force bound 1",
    ]


def test_level_walks_end_exactly_on_piecewise_testable_corpus_machines():
    # cross_check agrees with the brute force on every corpus machine; a
    # piecewise testable walk of k levels ends where the chain NFA first
    # turns empty, on the shifted side after k + 1, and every other walk
    # keeps going
    finite = 0
    for d in oracle_corpus():
        assert cross_check(d, 4 if len(d.alphabet) == 2 else 3, max_m=5) == [], d
        if not is_piecewise_testable(d):
            assert len(list(itertools.islice(_levels(d), 6))) == 6, d
            continue
        finite += 1
        walked = len(list(_levels(d)))
        for side in (d, complement(d)):
            k = walked + _shifts(side.start in side.accepting)[0]
            assert nfa_is_empty(build_chain_nfa(side, k)), side
            if k > 0:
                assert not nfa_is_empty(build_chain_nfa(side, k - 1)), side
    assert finite == 256
