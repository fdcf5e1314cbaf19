import random
import time

import pytest

from subseq.alternation import l_plus, mk_witness
from subseq.automata import (
    Alphabet,
    Dfa,
    _components,
    _hopcroft,
    _topological_order,
    complement,
    empty_language,
    intersection,
    is_empty,
    minimize,
    product,
    union,
    universal_language,
)
from subseq.errors import AlphabetMismatchError, InputError
from subseq.cli import export, parse_dfa
from subseq.patterns import _loop_letters
from subseq.subword import shuffle_ideal, upward_closure

from helpers import (
    AB,
    Nfa,
    _reach,
    all_dfas,
    build_chain_nfa,
    count_calls,
    determinize,
    dfa_from_rows,
    distinguishing_words,
    equivalent,
    moore_minimize,
    nfa_is_empty,
    random_dfa,
    reverse_det,
    shortest_accepted_word,
    symmetric_difference,
    witness_corpus,
    words_up_to,
)


def test_alphabet_validation():
    assert list(Alphabet("ba")) == ["b", "a"]
    with pytest.raises(InputError):
        Alphabet("")
    with pytest.raises(InputError):
        Alphabet("aa")
    with pytest.raises(InputError):
        Alphabet(["ab"])


def test_alphabet_order_is_part_of_the_value():
    assert Alphabet("ab") != Alphabet("ba")
    assert Alphabet("ab") == Alphabet("ab")


def test_dfa_validation_rejects_partial_tables():
    with pytest.raises(InputError):
        Dfa(AB, 2, ((0,), (0, 1)), 0, frozenset())
    with pytest.raises(InputError):
        Dfa(AB, 2, ((0, 2), (0, 1)), 0, frozenset())
    with pytest.raises(InputError):
        Dfa(AB, 1, ((0, 0),), 1, frozenset())
    with pytest.raises(InputError):
        Dfa(AB, 1, ((0, 0),), 0, frozenset({3}))


def test_run_on_empty_word_stays_at_start():
    ideal = shuffle_ideal("a", AB)
    assert ideal.run("") == ideal.start
    assert not ideal.accepts("")


def test_run_reaches_accepting_state_when_subword_present():
    ideal = shuffle_ideal("a", AB)
    assert ideal.run("ba") in ideal.accepting


def test_run_on_witness_counts_letters():
    # two occurrences of the counted letter is even, hence rejected
    m2 = mk_witness(2)
    member = lambda w: w.count("a") % 2 == 1 and w.count("a") <= 2
    assert m2.run("aa") not in m2.accepting
    for w in words_up_to("ab", 5):
        assert m2.accepts(w) == member(w)


def test_run_rejects_foreign_letters():
    ideal = shuffle_ideal("a", AB)
    with pytest.raises(InputError):
        ideal.run("ac")


def test_run_and_accepts_name_the_foreign_letter():
    # ``run`` reads the alphabet's index itself and falls back to
    # ``Alphabet.index`` only for its error, which must stay the same
    ideal = shuffle_ideal("a", AB)
    with pytest.raises(InputError) as expected:
        AB.index("c")
    assert str(expected.value) == "letter 'c' is not in alphabet 'ab'"
    for call in (
        lambda: ideal.run("ac"),
        lambda: ideal.run("c", 1),
        lambda: ideal.accepts("abc"),
    ):
        with pytest.raises(InputError) as raised:
            call()
        assert str(raised.value) == str(expected.value)
        assert raised.value.__suppress_context__


def test_determinize_no_accepting_state_gives_empty_language():
    nfa = Nfa(AB, 1, ((frozenset({0}), frozenset({0})),), frozenset({0}), frozenset())
    assert is_empty(determinize(nfa))


def test_determinize_preserves_deterministic_input_language():
    m2 = mk_witness(2)
    nfa = Nfa(
        m2.alphabet,
        m2.n_states,
        tuple(tuple(frozenset({t}) for t in row) for row in m2.delta),
        frozenset({m2.start}),
        m2.accepting,
    )
    assert equivalent(determinize(nfa), m2)


def test_determinize_guessed_self_loops_gives_ideal():
    # one guessed occurrence of the letter, everything else skipped
    nfa = Nfa(
        AB,
        2,
        (
            (frozenset({0, 1}), frozenset({0})),
            (frozenset({1}), frozenset({1})),
        ),
        frozenset({0}),
        frozenset({1}),
    )
    got = determinize(nfa)
    assert got.n_states == 2
    assert minimize(got) == shuffle_ideal("a", AB)


def test_determinize_empty_start_set_accepts_nothing():
    nfa = Nfa(AB, 1, ((frozenset(), frozenset()),), frozenset(), frozenset({0}))
    assert is_empty(determinize(nfa))


def test_minimize_removes_unreachable_states():
    # state 2 is unreachable and accepting; it must not survive
    d = dfa_from_rows([(0, 1), (1, 1), (2, 2)], {1, 2})
    m = minimize(d)
    assert m.n_states == 2
    assert equivalent(m, d)


def test_minimize_refines_for_unreachable_states_alone():
    # every reachable state accepts and only the unreachable ones reject,
    # so the refinement runs for them alone; the renumbering drops them
    d = dfa_from_rows([(1, 0), (0, 1), (3, 0), (2, 2)], {0, 1})
    assert minimize(d) == universal_language(AB)


def test_minimize_is_canonical_for_equal_languages():
    # the same language built two different ways
    direct = shuffle_ideal("ab", AB)
    padded = dfa_from_rows(
        [(1, 0), (1, 2), (2, 2), (3, 3)], {2}
    )  # extra unreachable state
    assert minimize(direct) == minimize(padded)
    assert minimize(direct).n_states == 3


def test_minimize_state_count_matches_brute_force_state_classes():
    # distinct residual behaviours of the two-letter ideal on words up to 6
    ideal = shuffle_ideal("ab", AB)
    suffixes = words_up_to("ab", 3)
    rows = {
        tuple(ideal.accepts(u + s) for s in suffixes) for u in words_up_to("ab", 3)
    }
    assert len(rows) == minimize(ideal).n_states == 3


def test_minimize_is_idempotent():
    rng = random.Random(100)
    for _ in range(25):
        m = minimize(random_dfa(rng, rng.randint(1, 5)))
        assert minimize(m) == m


def test_minimize_preserves_language():
    rng = random.Random(101)
    for _ in range(25):
        d = random_dfa(rng, rng.randint(1, 5))
        assert equivalent(minimize(d), d)


def test_minimize_agrees_with_moore_on_every_small_dfa():
    for n in range(1, 4):
        for d in all_dfas(n):
            assert minimize(d) == moore_minimize(d)


def test_minimize_agrees_with_moore_on_random_dfas():
    # random_dfa draws the start state too, so some states are unreachable
    rng = random.Random(102)
    for letters in ("a", "ab", "abc"):
        alphabet = Alphabet(letters)
        for _ in range(600):
            d = random_dfa(rng, rng.randint(1, 24), alphabet)
            assert minimize(d) == moore_minimize(d)


def _core_with_chain(rng: random.Random, alphabet: Alphabet) -> Dfa:
    """A random core of 1-20 states and a chain tail of 5-120 states on the
    first letter, whose last state steps back into the core; the tail's
    other letters lead into the core or along the chain.  Sometimes every
    state gets a twin with the same language, and the start is anywhere."""
    width = len(alphabet)
    core, tail = rng.randint(1, 20), rng.randint(5, 120)
    n = core + tail
    rows = [[rng.randrange(core) for _ in range(width)] for _ in range(core)]
    along = rng.random() < 0.5
    for s in range(core, n):
        nxt = s + 1 if s + 1 < n else rng.randrange(core)
        rows.append([nxt] + [nxt if along else rng.randrange(core) for _ in range(width - 1)])
    # a sparse accepting tail is peeled one state per Moore round
    density = rng.choice((0.0, 0.02, 0.5))
    accepting = {s for s in range(core) if rng.random() < 0.5}
    accepting |= {s for s in range(core, n) if rng.random() < density}
    if rng.random() < 0.5:
        rows += [[t + n * rng.randint(0, 1) for t in row] for row in rows]
        accepting |= {s + n for s in accepting}
        n *= 2
    return dfa_from_rows(rows, accepting, start=rng.randrange(n), alphabet=alphabet)


def _moore_rounds(dfa: Dfa, rounds: int) -> tuple[list[int], int]:
    """The partition {F, Q∖F} after ``rounds`` Moore rounds, numbered
    0..count-1, with its count."""
    block = [int(s in dfa.accepting) for s in range(dfa.n_states)]
    for _ in range(rounds):
        keys: dict[tuple[int, ...], int] = {}
        block = [
            keys.setdefault((b, *map(block.__getitem__, row)), len(keys))
            for b, row in zip(block, dfa.delta)
        ]
    ids: dict[int, int] = {}
    block = [ids.setdefault(b, len(ids)) for b in block]
    return block, len(ids)


def test_hopcroft_refines_any_moore_partition_to_the_languages():
    # two states share a block exactly when they accept the same language,
    # whether the loop starts from {F, Q∖F} or from a partition that Moore
    # rounds have already split
    rng = random.Random(105)
    inputs = [
        shuffle_ideal("".join(rng.choice("ab") for _ in range(80)), AB),
        mk_witness(1),
        mk_witness(3),
        mk_witness(40),
    ]
    for letters in ("a", "ab", "abc"):
        alphabet = Alphabet(letters)
        inputs += [_core_with_chain(rng, alphabet) for _ in range(8)]
        inputs += [random_dfa(rng, rng.randint(1, 24), alphabet) for _ in range(30)]
    for d in inputs:
        languages: dict[Dfa, int] = {}
        expected = [
            languages.setdefault(moore_minimize(d._replace(start=s)), len(languages))
            for s in range(d.n_states)
        ]
        for rounds in range(4):
            block, count = _moore_rounds(d, rounds)
            assert _hopcroft(d, block, count) == len(languages)
            assert sorted(set(block)) == list(range(len(languages)))
            # the same blocks, whatever the numbering
            assert len(set(zip(block, expected))) == len(languages)


def test_minimize_agrees_with_moore_with_and_without_handover(monkeypatch):
    # Moore rounds alone finish the random cores; a chain peeled one state
    # per round hands the partition over to Hopcroft's loop, and both must
    # reach the same partition
    handovers = count_calls(monkeypatch, _hopcroft)
    rng = random.Random(104)
    outcomes = set()
    for letters in ("a", "ab", "abc"):
        alphabet = Alphabet(letters)
        for _ in range(80):
            d = _core_with_chain(rng, alphabet)
            before = len(handovers)
            assert minimize(d) == moore_minimize(d)
            outcomes.add(len(handovers) > before)
    assert outcomes == {False, True}


def test_minimize_scales_on_long_chains():
    # Moore rounds alone need one round per state on these chains, O(n²)
    # in all, so ``minimize`` must hand them over to Hopcroft's
    # refinement; 4000 states also exceed the default recursion limit, so
    # the refinement must not recurse.
    rng = random.Random(103)
    ideal = shuffle_ideal("".join(rng.choice("ab") for _ in range(4000)), AB)
    witness = mk_witness(4000)
    began = time.perf_counter()
    assert minimize(ideal).n_states == 4001
    # the two saturated counts, 4000 and 4001, reject every suffix
    assert minimize(witness).n_states == witness.n_states - 1 == 4001
    assert time.perf_counter() - began < 1.0


def test_product_with_self_xor_is_empty():
    d = mk_witness(2)
    assert is_empty(product(d, d, lambda a, b: a != b))


def test_product_and_of_two_ideals():
    both = product(shuffle_ideal("a", AB), shuffle_ideal("b", AB), lambda a, b: a and b)
    for w in words_up_to("ab", 4):
        assert both.accepts(w) == ("a" in w and "b" in w)


def test_product_with_complement_or_is_universal():
    d = mk_witness(2)
    assert equivalent(product(d, complement(d), lambda a, b: a or b), universal_language(AB))


def test_product_requires_same_alphabet():
    with pytest.raises(AlphabetMismatchError):
        product(empty_language(AB), empty_language(Alphabet("ba")), lambda a, b: a)


def test_product_agrees_with_membership_for_all_operators():
    rng = random.Random(102)
    operators = [
        lambda a, b: a and b,
        lambda a, b: a or b,
        lambda a, b: a != b,
        lambda a, b: a and not b,
    ]
    for _ in range(10):
        d1 = random_dfa(rng, rng.randint(1, 4))
        d2 = random_dfa(rng, rng.randint(1, 4))
        for op in operators:
            combined = product(d1, d2, op)
            for w in words_up_to("ab", 4):
                assert combined.accepts(w) == op(d1.accepts(w), d2.accepts(w))


def test_complement_twice_is_identity_on_acceptance():
    rng = random.Random(103)
    d = random_dfa(rng, 4)
    twice = complement(complement(d))
    for w in words_up_to("ab", 4):
        assert twice.accepts(w) == d.accepts(w)


def test_complement_of_empty_accepts_empty_word():
    assert complement(empty_language(AB)).accepts("")


def test_complement_commutes_with_minimize():
    # the level chain complements the minimized input instead of minimizing
    # the complement; exhaustive over small tables, both must be canonical
    machines = [d for n in (1, 2, 3) for d in all_dfas(n)]
    machines += [d for n in (1, 2) for d in all_dfas(n, Alphabet("abc"))]
    assert len(machines) == 5898 + 258
    for d in machines:
        assert complement(minimize(d)) == minimize(complement(d))


def test_complement_of_witness_matches_brute_force():
    m2 = mk_witness(2)
    comp = complement(m2)
    for w in words_up_to("ab", 5):
        assert comp.accepts(w) == (not (w.count("a") == 1))


def test_reverse_det_twice_preserves_language():
    rng = random.Random(104)
    for _ in range(15):
        d = random_dfa(rng, rng.randint(1, 5))
        assert equivalent(reverse_det(reverse_det(d)), d)


def test_reverse_det_of_two_letter_ideal():
    assert reverse_det(shuffle_ideal("ab", AB)) == shuffle_ideal("ba", AB)
    for w in words_up_to("ab", 5):
        assert shuffle_ideal("ab", AB).accepts(w) == shuffle_ideal("ba", AB).accepts(w[::-1])


def test_reverse_det_fixes_palindromic_closed_language():
    ideal = shuffle_ideal("a", AB)
    assert equivalent(reverse_det(ideal), ideal)


def test_reverse_det_acceptance_mirrors_words():
    rng = random.Random(105)
    for _ in range(10):
        d = random_dfa(rng, rng.randint(1, 4))
        r = reverse_det(d)
        for w in words_up_to("ab", 4):
            assert r.accepts(w) == d.accepts(w[::-1])


def test_is_empty_basics():
    assert not is_empty(universal_language(AB))
    assert is_empty(empty_language(AB))


def test_is_empty_on_chain_nfa_of_witness():
    # no 2-alternation chain exists for the count-one language
    assert nfa_is_empty(build_chain_nfa(mk_witness(2), 2))


def test_is_empty_agrees_with_short_word_scan():
    # pumping: an automaton accepts something iff it accepts something
    # shorter than its state count
    rng = random.Random(106)
    for _ in range(30):
        d = random_dfa(rng, rng.randint(1, 5))
        short = any(d.accepts(w) for w in words_up_to("ab", d.n_states - 1))
        assert is_empty(d) == (not short)


def test_shortest_accepted_word_is_shortest_and_deterministic():
    assert shortest_accepted_word(empty_language(AB)) is None
    assert shortest_accepted_word(universal_language(AB)) == ""
    assert shortest_accepted_word(shuffle_ideal("ba", AB)) == "ba"
    # length ties break toward earlier alphabet letters
    either = union(shuffle_ideal("b", AB), shuffle_ideal("a", AB))
    assert shortest_accepted_word(either) == "a"


def test_equivalent_basics():
    rng = random.Random(107)
    d = random_dfa(rng, 4)
    assert equivalent(d, minimize(d))
    ideal = shuffle_ideal("a", AB)
    assert not equivalent(ideal, complement(ideal))


def test_equivalent_of_the_two_level_engines():
    rng = random.Random(108)
    for _ in range(10):
        d = random_dfa(rng, rng.randint(1, 3))
        for m in range(4):
            assert equivalent(
                minimize(determinize(build_chain_nfa(d, m))),
                l_plus(d, m),
            )


def test_equivalent_requires_same_alphabet():
    with pytest.raises(AlphabetMismatchError):
        equivalent(empty_language(AB), empty_language(Alphabet("xy")))


def test_distinguishable_pairs_never_contains_diagonal():
    rng = random.Random(109)
    for _ in range(10):
        d = random_dfa(rng, rng.randint(1, 5))
        for p, q in set(distinguishing_words(d)):
            assert p < q


def test_distinguishable_pairs_all_pairs_in_minimal_automaton():
    rng = random.Random(110)
    for _ in range(10):
        m = minimize(random_dfa(rng, rng.randint(2, 5)))
        pairs = set(distinguishing_words(m))
        expected = {(p, q) for p in range(m.n_states) for q in range(p + 1, m.n_states)}
        assert pairs >= expected


def test_distinguishing_word_for_witness_counter_states():
    # count-1 state accepts immediately, count-2 state does not
    m2 = mk_witness(2)
    words = distinguishing_words(m2)
    assert words[(1, 2)] == ""
    assert (1, 2) in set(distinguishing_words(m2))


def test_distinguishing_words_actually_distinguish():
    rng = random.Random(111)
    for _ in range(15):
        d = random_dfa(rng, rng.randint(1, 5))
        for (p, q), z in distinguishing_words(d).items():
            assert (d.run(z, p) in d.accepting) != (d.run(z, q) in d.accepting)


def test_operations_keep_tables_complete():
    # the library builds its automata without the constructor's checks,
    # so each result must survive a rebuild through the public
    # constructor, which validates completeness; exercise a chain of
    # operations
    rng = random.Random(112)
    d1 = random_dfa(rng, 4)
    d2 = random_dfa(rng, 3)
    for result in [
        minimize(d1),
        complement(d1),
        intersection(d1, d2),
        symmetric_difference(d1, d2),
        reverse_det(d1),
        determinize(build_chain_nfa(d1, 2)),
        upward_closure(d1),
        parse_dfa(export(d1)),
    ]:
        fields = (result.alphabet, result.n_states, result.delta, result.start, result.accepting)
        assert Dfa(*fields) == result
        assert len(result.delta) == result.n_states
        assert all(len(row) == len(result.alphabet) for row in result.delta)


def _check_cycle_questions(dfa):
    """``_topological_order`` of the minimal automaton and ``_loop_letters``
    of ``dfa`` against their definitions; returns whether the order exists."""
    minimal = minimize(dfa)
    order = _topological_order(minimal)
    closed = [_reach(minimal, s) for s in range(minimal.n_states)]
    if any(s != t and s in closed[t] for s in range(minimal.n_states) for t in closed[s]):
        assert order is None, dfa
    else:
        assert sorted(order) == list(range(minimal.n_states)), dfa
        position = {s: i for i, s in enumerate(order)}
        for s, row in enumerate(minimal.delta):
            assert all(position[s] < position[t] for t in row if t != s), dfa
    # from the start state, and from every state with the last first, so
    # that later roots fall into components an earlier one closed
    for starts in ([dfa.start], range(dfa.n_states - 1, -1, -1)):
        reach = {s: _reach(dfa, s) for s in set().union(*(_reach(dfa, s) for s in starts))}
        loops = {
            (s, j)
            for s in reach
            for p in reach[s]
            for j, t in enumerate(dfa.delta[p])
            if s in reach[t]
        }
        assert _letter_pairs(*_loop_letters(dfa.delta, starts)) == loops, (dfa, starts)
    return order is not None


def _letter_pairs(component, masks):
    """(state, letter index) pairs whose letter has its bit set in the mask
    of the state's component."""
    return {
        (s, j) for s, c in component.items() for j in range(masks[c].bit_length()) if masks[c] >> j & 1
    }


def test_component_pass_answers_both_cycle_questions_by_definition(monkeypatch):
    # None exactly when some state reaches itself through a distinct state,
    # else every edge between distinct states points forward; a letter
    # loops at s exactly when some p reachable from s steps on it to a
    # state that reaches s.  Half the random machines only stay put or
    # move up, so their order exists.
    rng = random.Random(2801)
    randoms = []
    for i in range(2000):
        alphabet = rng.choice((AB, Alphabet("abc")))
        n = rng.randint(2, 40)
        if i % 2:
            rows = tuple(tuple(rng.randrange(s, n) for _ in alphabet) for s in range(n))
            accepting = frozenset(s for s in range(n) if rng.random() < 0.5)
            randoms.append(Dfa(alphabet, n, rows, 0, accepting))
        else:
            randoms.append(random_dfa(rng, n, alphabet))
    passes = count_calls(monkeypatch, _components)
    ordered = 0
    corpus = witness_corpus() + randoms
    for d in corpus:
        ordered += _check_cycle_questions(d)
    # one pass per order and one per loop-letter set, of each start
    assert len(passes) == 3 * len(corpus)
    assert 2000 < ordered < len(corpus) - 2000


def test_component_pass_does_not_recurse():
    # 20,000 states, far past the recursion limit: the minimal automaton
    # of the ideal of a^19999, a chain, and the same states closed into
    # one a-cycle
    n = 20000
    chain = Dfa(AB, n, tuple((min(s + 1, n - 1), s) for s in range(n)), 0, frozenset({n - 1}))
    assert minimize(chain) == chain
    assert _topological_order(chain) == list(range(n))
    chain_loops = {(s, 1) for s in range(n)} | {(n - 1, 0)}
    assert _letter_pairs(*_loop_letters(chain.delta, [0])) == chain_loops
    cycle = Dfa(AB, n, tuple(((s + 1) % n, s) for s in range(n)), 0, frozenset({0}))
    assert _topological_order(cycle) is None
    cycle_loops = {(s, j) for s in range(n) for j in (0, 1)}
    assert _letter_pairs(*_loop_letters(cycle.delta, [0])) == cycle_loops
