import random
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from subseq import subword
from subseq.alternation import _walk
from subseq.automata import (
    Alphabet,
    Dfa,
    _topological_order,
    complement,
    difference,
    is_empty,
    minimize,
    union,
    universal_language,
)
from subseq.cli import classify, export, main, parse_dfa
from subseq.errors import InputError, NotUpwardClosedError
from subseq.subword import (
    IdealDecomposition,
    decompose_level_half,
    is_co_level_one_half,
    is_level_one_half,
    is_subword,
    _is_upward_closed,
    shuffle_ideal,
    upward_closure,
)

from helpers import (
    AB,
    all_dfas,
    boolean_combinations,
    closure_witness,
    count_calls,
    dfa_from_rows,
    equivalent,
    lang_slice,
    naive_is_subword,
    oracle_corpus,
    random_dfa,
    reference_closure_subsets,
    reference_embedded_pair,
    reference_is_upward_closed,
    reference_minimal_words,
    reference_upward_closure,
    single_word,
    strongly_connected_dfa,
    walk_decomposition,
    witness_corpus,
    words_up_to,
)
from subseq.alternation import mk_witness

ABC = Alphabet("abc")
ab_words = st.text(alphabet="ab", max_size=7)


def test_is_subword_examples():
    assert is_subword("ab", "acb")
    assert not is_subword("ba", "ab")
    assert is_subword("", "abc")
    assert is_subword("", "")


@given(ab_words, ab_words)
def test_is_subword_matches_position_subset_oracle(w, v):
    assert is_subword(w, v) == naive_is_subword(w, v)


@given(ab_words)
def test_is_subword_reflexive(w):
    assert is_subword(w, w)


@given(ab_words, ab_words)
def test_is_subword_antisymmetric(w, v):
    if is_subword(w, v) and is_subword(v, w):
        assert w == v


@given(ab_words, st.data())
def test_is_subword_transitive(v, data):
    # build w below v and u above v, then w must sit below u
    keep = data.draw(st.lists(st.booleans(), min_size=len(v), max_size=len(v)))
    w = "".join(ch for ch, k in zip(v, keep) if k)
    padding = data.draw(st.lists(st.text(alphabet="ab", max_size=2), min_size=len(v) + 1, max_size=len(v) + 1))
    u = padding[0] + "".join(ch + pad for ch, pad in zip(v, padding[1:]))
    assert is_subword(w, v)
    assert is_subword(v, u)
    assert is_subword(w, u)


def test_shuffle_ideal_of_empty_word_is_universal():
    assert equivalent(shuffle_ideal("", AB), universal_language(AB))


def test_shuffle_ideal_single_letter():
    ideal = shuffle_ideal("a", AB)
    for w in words_up_to("ab", 5):
        assert ideal.accepts(w) == ("a" in w)


def test_shuffle_ideal_agrees_with_is_subword():
    ideal = shuffle_ideal("ab", AB)
    for w in words_up_to("ab", 5):
        assert ideal.accepts(w) == is_subword("ab", w)


def test_shuffle_ideal_is_already_minimal_and_canonical():
    for word in ["", "a", "ab", "bba", "abab"]:
        ideal = shuffle_ideal(word, AB)
        assert minimize(ideal) == ideal
        assert ideal.n_states == len(word) + 1


def test_shuffle_ideal_rejects_foreign_letters():
    with pytest.raises(InputError):
        shuffle_ideal("ax", AB)
    # the first foreign letter is the one named
    with pytest.raises(InputError, match="^letter 'x' is not in alphabet 'ab'$"):
        shuffle_ideal("axy", AB)


def test_upward_closure_fixes_ideals():
    for word in ["", "a", "ab", "ba"]:
        ideal = shuffle_ideal(word, AB)
        assert upward_closure(ideal) == ideal


def test_upward_closure_of_single_word_language():
    assert upward_closure(single_word("ab")) == shuffle_ideal("ab", AB)


def test_upward_closure_of_empty_is_empty():
    d = single_word("ab")
    nothing = complement(universal_language(AB))
    assert is_empty(upward_closure(nothing))


def test_upward_closure_membership_oracle():
    # v is in the closure exactly when some subword of v is accepted
    rng = random.Random(200)
    for _ in range(15):
        d = random_dfa(rng, rng.randint(1, 4))
        closed = upward_closure(d)
        accepted = lang_slice(d, 5)
        for v in words_up_to("ab", 5):
            expected = any(is_subword(w, v) for w in accepted if len(w) <= len(v))
            assert closed.accepts(v) == expected


def test_upward_closure_idempotent_and_extensive():
    rng = random.Random(201)
    for _ in range(15):
        d = random_dfa(rng, rng.randint(1, 4))
        closed = upward_closure(d)
        assert upward_closure(closed) == closed
        # extensive: nothing accepted is lost
        assert is_empty(difference(d, closed))


def _closed_by_walks(monkeypatch, machines):
    # every automaton the level walks close, to depth 4 on each side
    closures = count_calls(monkeypatch, upward_closure)
    for d in machines:
        _walk(d, 4)
    monkeypatch.undo()
    return [args[0] for args in closures]


def _full_steps(d, mask):
    """The subset ``mask`` steps to on each letter when every one of its
    states steps, as in ``reference_closure_subsets``."""
    targets = [mask] * len(d.alphabet)
    for s, row in enumerate(d.delta):
        if mask >> s & 1:
            for j, t in enumerate(row):
                targets[j] |= 1 << t
    return targets


def _check_subset_classes(d):
    """Check the subset -> class map that upward_closure renumbers against
    the construction that steps every state of every subset: the subsets
    reached are the reference's, every accepting subset is in the Σ* class
    0, and every class row is what each of its rejecting subsets steps to.
    Returns the map and the class rows."""
    classes, rows = subword._subset_classes(d)
    accept_mask = sum(1 << s for s in d.accepting)
    assert rows[0] == (0,) * len(d.alphabet), d
    for mask, c in classes.items():
        if mask & accept_mask:
            assert c == 0, d
            continue
        assert c > 0, d
        assert rows[c] == tuple(classes[t] for t in _full_steps(d, mask)), d
    # closed under the steps of rejecting subsets, and no larger
    assert len(classes) == reference_closure_subsets(d).n_states, d
    return classes, rows


def _check_closure(d):
    # the closure against the general subset construction, against the
    # minimized reference subset automaton, and its subset classes
    closed = upward_closure(d)
    assert closed == reference_upward_closure(d), d
    assert closed == minimize(reference_closure_subsets(d)), d
    _check_subset_classes(d)


def _check_closures_of_walks(monkeypatch, machines):
    for d in _closed_by_walks(monkeypatch, machines):
        _check_closure(d)


def test_upward_closure_matches_reference_on_strongly_connected_walks(monkeypatch):
    # a strongly connected machine with both accepting and rejecting
    # states is not piecewise testable, so its walk closes four levels,
    # and most subsets meet an accepting state early
    rng = random.Random(205)
    machines = [strongly_connected_dfa(rng, rng.randint(2, 8)) for _ in range(200)]
    _check_closures_of_walks(monkeypatch, machines)


def test_upward_closure_matches_reference_on_boolean_combination_walks(monkeypatch):
    _check_closures_of_walks(monkeypatch, boolean_combinations(random.Random(3), 6, 4, 6))


@st.composite
def small_dfas(draw):
    alphabet = draw(st.sampled_from([AB, ABC]))
    n = draw(st.integers(1, 6))
    state = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(*[state] * len(alphabet)), min_size=n, max_size=n))
    accepting = draw(st.frozensets(state))
    return Dfa(alphabet, n, tuple(rows), draw(state), accepting)


@given(small_dfas())
def test_upward_closure_matches_reference_on_random_small_dfas(d):
    _check_closure(d)
    # the closure is its own closure, and already in minimize's form
    closed = upward_closure(d)
    assert upward_closure(closed) == closed == minimize(closed)


def test_upward_closure_calls_no_minimize(monkeypatch):
    # the closure comes out minimal by construction, with no refinement pass
    calls = count_calls(monkeypatch, minimize)
    rng = random.Random(209)
    for _ in range(30):
        upward_closure(strongly_connected_dfa(rng, rng.randint(2, 8)))
    for k in range(1, 5):
        upward_closure(mk_witness(k))
    assert calls == []


def test_upward_closure_stops_at_accepting_subsets():
    # an accepting subset has the residual Σ*: it is in the class that
    # loops on every letter, and no subset is reached only through it
    rng = random.Random(206)
    machines = [strongly_connected_dfa(rng, rng.randint(2, 8)) for _ in range(30)]
    machines.append(mk_witness(4))
    stops = 0
    for d in machines:
        classes, rows = _check_subset_classes(d)
        accept_mask = sum(1 << s for s in d.accepting)
        stepped = {1 << d.start}
        for mask in classes:
            if mask & accept_mask:
                stops += 1
            else:
                stepped.update(_full_steps(d, mask))
        assert set(classes) == stepped, d
    # the corpus reaches accepting subsets, more than one per closure
    assert stops > len(machines)


def test_upward_closure_subset_count_of_a_boolean_combination(monkeypatch):
    # the subsets that the closures of one classify reach, summed: 31,734
    # when accepting subsets were expanded like any other
    sizes = []
    subset_classes = subword._subset_classes

    def counted(d):
        classes, rows = subset_classes(d)
        sizes.append(len(classes))
        return classes, rows

    monkeypatch.setattr(subword, "_subset_classes", counted)
    d = boolean_combinations(random.Random(5), 6, 5, 6)[1]
    assert d.n_states == 114
    report = classify(d)
    assert report.m_plus.value == 3
    assert sum(sizes) == 12_973


def test_classify_is_polynomial_on_a_boolean_combination_with_a_large_closure():
    # its level walk closes levels through 1,491, 3,720, 14,980 and 75,024
    # subsets; on a 2-vCPU x86 VM, stepping every state of each subset
    # took 8.1 s, stepping only the states each one adds about 1 s
    d = boolean_combinations(random.Random(1), 8, 6, 7)[4]
    assert d.n_states == 119
    start = time.perf_counter()
    report = classify(d)
    elapsed = time.perf_counter() - start
    assert (report.m_plus.value, report.m_minus.value) == (3, 4)
    assert elapsed < 4.0, f"took {elapsed:.2f} s"


def test_is_level_one_half_examples():
    assert is_level_one_half(shuffle_ideal("ab", AB))
    assert not is_level_one_half(mk_witness(2))
    assert is_level_one_half(complement(universal_language(AB)))


def test_is_level_one_half_minimizes_before_the_cycle_shortcut():
    # the accepting sink of the ideal of "a", split into two states that
    # swap on a: a cycle that is not a self-loop until the states merge
    split = dfa_from_rows([(1, 0), (2, 1), (1, 2)], {1, 2})
    assert _topological_order(split) is None
    assert is_level_one_half(split)
    assert decompose_level_half(split).words == ("a",)


def test_is_co_level_one_half_examples():
    assert is_co_level_one_half(complement(shuffle_ideal("a", AB)))
    assert is_co_level_one_half(universal_language(AB))
    assert not is_co_level_one_half(mk_witness(2))


def test_decompose_single_ideal():
    assert decompose_level_half(shuffle_ideal("ab", AB)).words == ("ab",)


def test_decompose_prunes_to_antichain():
    both = union(shuffle_ideal("a", AB), shuffle_ideal("ab", AB))
    assert decompose_level_half(both).words == ("a",)


def test_decompose_universal_language():
    assert decompose_level_half(universal_language(AB)).words == ("",)


def test_decompose_empty_language():
    nothing = complement(universal_language(AB))
    assert decompose_level_half(nothing).words == ()


def test_decompose_rejects_non_upward_closed_with_witness():
    with pytest.raises(NotUpwardClosedError) as err:
        decompose_level_half(mk_witness(2))
    w = err.value.witness
    # the counterexample extends an accepted word but is itself rejected
    assert not mk_witness(2).accepts(w)
    assert upward_closure(mk_witness(2)).accepts(w)


def test_decompose_rebuilds_the_language():
    rng = random.Random(202)
    for _ in range(20):
        closed = upward_closure(random_dfa(rng, rng.randint(1, 4)))
        ideals = decompose_level_half(closed).words
        rebuilt = complement(universal_language(AB))
        for w in ideals:
            rebuilt = union(rebuilt, shuffle_ideal(w, AB))
        assert equivalent(minimize(rebuilt), closed)


def test_decomposition_words_are_subword_minimal_members():
    closed = upward_closure(single_word("aba"))
    words = decompose_level_half(closed).words
    assert words == ("aba",)
    d = IdealDecomposition(("a", "b"))
    assert d.words == ("a", "b")
    with pytest.raises(ValueError):
        IdealDecomposition(("a", "ab"))


@pytest.mark.parametrize("n_states, n_closures", [(1, 2), (2, 5), (3, 16)])
def test_decompose_agrees_with_path_walk_on_all_small_closures(n_states, n_closures):
    closures = {upward_closure(d) for d in all_dfas(n_states)}
    assert len(closures) == n_closures
    for closed in closures:
        assert decompose_level_half(closed).words == walk_decomposition(closed)


def test_decompose_agrees_with_path_walk_on_random_unions_of_ideals():
    rng = random.Random(203)
    for i in range(240):
        alphabet = AB if i % 2 == 0 else ABC
        letters = "".join(alphabet.letters)
        words = [
            "".join(rng.choice(letters) for _ in range(rng.randint(0, 6)))
            for _ in range(rng.randint(2, 6))
        ]
        language = shuffle_ideal(words[0], alphabet)
        for w in words[1:]:
            language = minimize(union(language, shuffle_ideal(w, alphabet)))
        expected = sorted(
            {w for w in words if not any(u != w and is_subword(u, w) for u in words)},
            key=lambda w: (len(w), w),
        )
        got = decompose_level_half(language).words
        assert got == walk_decomposition(language) == tuple(expected), words


def _union_of(words, alphabet=AB):
    language = shuffle_ideal(words[0], alphabet)
    for w in words[1:]:
        language = minimize(union(language, shuffle_ideal(w, alphabet)))
    return language


def _three_ideals():
    # its state 1, reached by "a", drops the candidate "ab": "b" alone
    # already reaches the accepting sink from there
    text = (Path(__file__).parent / "fixtures" / "three_ideals.dfa").read_text(encoding="utf-8")
    return parse_dfa(text)


SIX_OF_LENGTH_THREE = ("aab", "aba", "abb", "baa", "bab", "bba")


def test_minimal_words_match_the_pruning_reference_at_every_state():
    # every state as a start, so every residual's Min is compared
    rng = random.Random(209)
    small = list({upward_closure(d) for n in (1, 2, 3) for d in all_dfas(n)})
    for i in range(120):
        alphabet = AB if i % 2 == 0 else ABC
        letters = "".join(alphabet.letters)
        words = [
            "".join(rng.choice(letters) for _ in range(rng.randint(0, 5)))
            for _ in range(rng.randint(2, 6))
        ]
        small.append(_union_of(words, alphabet))
    small += [_three_ideals(), _union_of(SIX_OF_LENGTH_THREE)]
    states = 0
    for closed in small:
        order = _topological_order(closed)
        for q in range(closed.n_states):
            rooted = closed._replace(start=q)
            assert subword._minimal_words(rooted, order) == reference_minimal_words(rooted, order)
            states += 1
    assert states == 311
    for closed in (_union_of_random_ideals(12)[1], shuffle_ideal(_long_word()[:300], AB)):
        closed = minimize(closed)
        order = _topological_order(closed)
        assert subword._minimal_words(closed, order) == reference_minimal_words(closed, order)


@given(st.lists(st.text(alphabet="ab", max_size=4), max_size=6))
def test_antichain_check_matches_the_check_over_every_pair(words):
    words = tuple(words)
    pair = reference_embedded_pair(words)
    if pair is None:
        assert IdealDecomposition(words).words == words
    else:
        message = f"decomposition is not an antichain: {pair[0]!r} embeds in {pair[1]!r}"
        with pytest.raises(ValueError) as err:
            IdealDecomposition(words)
        assert str(err.value) == message


def test_decompose_tests_subwords_only_across_lengths(monkeypatch):
    # the Min pass runs the automaton instead of testing subwords, and the
    # antichain check skips pairs of one length
    calls = count_calls(monkeypatch, is_subword)
    assert decompose_level_half(_union_of(SIX_OF_LENGTH_THREE)).words == SIX_OF_LENGTH_THREE
    assert calls == []
    three = _three_ideals()
    assert three == minimize(_union_of(["ab", "ba", "aaa"]))
    assert decompose_level_half(three).words == ("ab", "ba", "aaa")
    assert calls == [("ab", "aaa"), ("ba", "aaa")]


def test_minimal_words_runs_no_word_on_a_chain(monkeypatch):
    # every state of a single word's ideal has one letter that leaves it,
    # so no candidate needs a run, and the pass stays linear in the states
    runs = []
    run = Dfa.run
    monkeypatch.setattr(Dfa, "run", lambda self, *args: runs.append(args) or run(self, *args))
    word = _long_word()
    assert decompose_level_half(shuffle_ideal(word, AB)).words == (word,)
    assert runs == []
    assert decompose_level_half(_three_ideals()).words == ("ab", "ba", "aaa")
    assert runs


def test_decompose_is_polynomial_on_a_union_of_two_letter_powers():
    both = union(shuffle_ideal("a" * 8, AB), shuffle_ideal("b" * 8, AB))
    start = time.perf_counter()
    words = decompose_level_half(both).words
    elapsed = time.perf_counter() - start
    assert words == ("aaaaaaaa", "bbbbbbbb")
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def _long_word():
    rng = random.Random(204)
    return "".join(rng.choice("ab") for _ in range(1100))


def test_decompose_long_word_ideal_without_recursion():
    word = _long_word()
    assert decompose_level_half(shuffle_ideal(word, AB)).words == (word,)


def test_level_half_checks_are_near_linear_on_a_long_word_ideal():
    rng = random.Random(208)
    word = "".join(rng.choice("ab") for _ in range(5000))
    ideal = shuffle_ideal(word, AB)
    start = time.perf_counter()
    assert is_level_one_half(ideal)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"check took {elapsed:.2f} s"
    start = time.perf_counter()
    assert decompose_level_half(ideal).words == (word,)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"decomposition took {elapsed:.2f} s"


def test_cli_decompose_long_word_ideal(capsys, tmp_path):
    word = _long_word()
    path = tmp_path / "long.dfa"
    path.write_text(export(shuffle_ideal(word, AB)), encoding="utf-8")
    assert main(["decompose", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == word + "\n"
    assert captured.err == ""


def _insertion_verdicts(dfas):
    """Check the level-1/2 test and the decomposition's counterexample
    against the closure construction; returns how many were closed."""
    closed = 0
    for d in dfas:
        expected = closure_witness(d)
        assert is_level_one_half(d) == (expected is None), d
        try:
            decompose_level_half(d)
        except NotUpwardClosedError as exc:
            got = exc.witness
        else:
            got = None
        assert got == expected, d
        closed += expected is None
    return closed


def _random_dfas(seed, count, max_states):
    rng = random.Random(seed)
    for i in range(count):
        yield random_dfa(rng, rng.randint(1, max_states), AB if i % 2 == 0 else ABC)


CORPORA = {
    "ab-1-3-states": lambda: [d for n in (1, 2, 3) for d in all_dfas(n)],
    "abc-1-2-states": lambda: [d for n in (1, 2) for d in all_dfas(n, ABC)],
    "random-1-7-states": lambda: list(_random_dfas(205, 3000, 7)),
    "random-1-12-states": lambda: list(_random_dfas(206, 2000, 12)),
    "witness-corpus": witness_corpus,
    "oracle-corpus": oracle_corpus,
}


@pytest.mark.parametrize(
    "corpus, size, n_closed",
    [
        ("ab-1-3-states", 5898, 2663),
        ("abc-1-2-states", 258, 153),
        ("random-1-7-states", 3000, 1109),
    ],
)
def test_insertion_test_agrees_with_closure_construction(corpus, size, n_closed):
    dfas = CORPORA[corpus]()
    assert len(dfas) == size
    assert _insertion_verdicts(dfas) == n_closed


def _random_unions(seed, count):
    """Minimal automata of seeded unions of 1 to 6 ideals of words of up to
    8 letters over ab or abc, each once as drawn and once with one seeded
    rejecting state made accepting: large acyclic languages on both sides
    of upward closure.  Only a rejecting state is flipped, since the one
    accepting state of such an automaton is its universal sink."""
    rng = random.Random(seed)
    for i in range(count):
        alphabet = AB if i % 2 == 0 else ABC
        letters = "".join(alphabet.letters)
        words = [
            "".join(rng.choice(letters) for _ in range(rng.randint(0, 8)))
            for _ in range(rng.randint(1, 6))
        ]
        language = shuffle_ideal(words[0], alphabet)
        for w in words[1:]:
            language = minimize(union(language, shuffle_ideal(w, alphabet)))
        flipped = language.accepting
        rejecting = [q for q in range(language.n_states) if q not in flipped]
        if rejecting:
            flipped = flipped | {rng.choice(rejecting)}
        yield language
        yield minimize(
            Dfa(alphabet, language.n_states, language.delta, language.start, flipped)
        )


@pytest.mark.parametrize(
    "corpus, size, n_closed",
    [
        ("ab-1-3-states", 5898, 2663),
        ("abc-1-2-states", 258, 153),
        ("random-1-7-states", 3000, 1109),
        ("random-1-12-states", 2000, 432),
        ("random-unions", 1200, 966),
    ],
)
def test_pruned_insertion_search_agrees_with_all_pairs_search(corpus, size, n_closed):
    if corpus == "random-unions":
        dfas = list(_random_unions(207, size // 2))
    else:
        dfas = [minimize(d) for d in CORPORA[corpus]()]
    assert len(dfas) == size
    closed = 0
    for d in dfas:
        expected = reference_is_upward_closed(d)
        assert _is_upward_closed(d, _topological_order(d)) == expected, d
        closed += expected
    assert closed == n_closed


@pytest.mark.parametrize(
    "corpus, size",
    [
        ("ab-1-3-states", 5898),
        ("abc-1-2-states", 258),
        ("random-1-12-states", 2000),
        ("witness-corpus", 6198),
        ("oracle-corpus", 469),
    ],
)
def test_upward_closure_agrees_with_general_subset_construction(corpus, size):
    dfas = CORPORA[corpus]()
    assert len(dfas) == size
    for d in dfas:
        _check_closure(d)


def _union_of_random_ideals(k):
    """The unminimized product automaton of k seeded ideals of 8-letter words."""
    rng = random.Random(7)
    words = ["".join(rng.choice("ab") for _ in range(8)) for _ in range(k)]
    language = shuffle_ideal(words[0], AB)
    for w in words[1:]:
        language = union(language, shuffle_ideal(w, AB))
    return tuple(sorted(words)), language


def test_classify_is_polynomial_on_a_union_of_four_ideals():
    words, language = _union_of_random_ideals(4)
    assert language.n_states == 269
    start = time.perf_counter()
    report = classify(language)
    elapsed = time.perf_counter() - start
    assert report.ideal_decomposition == words
    assert not report.in_co_level_one_half
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_level_half_checks_are_polynomial_on_a_union_of_twelve_ideals():
    words, language = _union_of_random_ideals(12)
    assert language.n_states == 11871
    start = time.perf_counter()
    assert not is_co_level_one_half(language)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"co check took {elapsed:.2f} s"
    start = time.perf_counter()
    assert decompose_level_half(language).words == words
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"decomposition took {elapsed:.2f} s"
