import random

import pytest

from subseq.alternation import (
    AlternationMeasure,
    _walk,
    classify,
    in_boolean_level,
    l_minus,
    l_plus,
    m_minus,
    m_plus,
    mk_witness,
    normal_form_decomposition,
    reassemble_normal_form,
)
from subseq.automata import (
    Alphabet,
    complement,
    difference,
    empty_language,
    intersection,
    is_empty,
    minimize,
    union,
    universal_language,
)
from subseq.errors import InfiniteMeasureError, InputError, NotUpwardClosedError
from subseq.patterns import _access_words, detect_p3, is_piecewise_testable
from subseq.subword import (
    decompose_level_half,
    is_co_level_one_half,
    is_level_one_half,
    shuffle_ideal,
    upward_closure,
)

from helpers import (
    AB,
    ab_star,
    all_dfas,
    boolean_combinations,
    build_chain_nfa,
    count_calls,
    determinize,
    dfa_from_rows,
    equivalent,
    mk_predicate,
    nfa_is_empty,
    oracle_corpus,
    random_dfa,
    reference_report_dict,
    two_walk_chains,
    two_walk_measures,
    witness_corpus,
    words_up_to,
)


def empty_dfa():
    return complement(universal_language(AB))


def chain_nfa_m_plus(d):
    """Plus measure with every level built by the tuple-state automaton."""
    if detect_p3(d) is not None:
        return AlternationMeasure.infinite()
    depth = 0
    while not nfa_is_empty(build_chain_nfa(d, depth)):
        depth += 1
    return AlternationMeasure.finite(depth - 1)


def test_measure_ordering_and_edges():
    inf = AlternationMeasure.infinite()
    assert not inf.is_finite
    assert AlternationMeasure.finite(3) < inf
    assert not inf < inf
    assert inf == AlternationMeasure.infinite()
    assert AlternationMeasure.finite(-1) < AlternationMeasure.finite(0)
    assert str(inf) == "inf"
    assert str(AlternationMeasure.finite(2)) == "2"
    with pytest.raises(InputError):
        AlternationMeasure.finite(-2)


def test_chain_nfa_level_zero_is_upward_closure():
    rng = random.Random(300)
    for _ in range(10):
        d = random_dfa(rng, rng.randint(1, 4))
        assert minimize(determinize(build_chain_nfa(d, 0))) == upward_closure(d)


def test_chain_nfa_of_empty_language_is_empty():
    for m in range(4):
        assert nfa_is_empty(build_chain_nfa(empty_dfa(), m))


def test_chain_nfa_of_witness_dies_at_its_depth():
    m2 = mk_witness(2)
    assert not nfa_is_empty(build_chain_nfa(m2, 1))
    assert nfa_is_empty(build_chain_nfa(m2, 2))


def test_chain_nfa_states_are_reachable_tuples_only():
    # the one-state universal machine keeps a single tuple alive per level
    nfa = build_chain_nfa(universal_language(AB), 3)
    assert nfa.n_states == 1


def test_iterate_level_zero_is_upward_closure():
    rng = random.Random(301)
    for _ in range(10):
        d = random_dfa(rng, rng.randint(1, 4))
        assert l_plus(d, 0) == upward_closure(d)


def test_iterate_matches_chain_nfa_on_random_machines():
    rng = random.Random(302)
    for _ in range(25):
        d = random_dfa(rng, 3)
        for m in range(4):
            assert equivalent(
                minimize(determinize(build_chain_nfa(d, m))),
                l_plus(d, m),
            )


def test_iterate_empties_at_witness_depth():
    assert is_empty(l_plus(mk_witness(2), 2))


def test_level_automata_agree_between_engines_via_l_plus():
    rng = random.Random(303)
    for _ in range(10):
        d = random_dfa(rng, rng.randint(1, 3))
        for m in range(3):
            assert l_plus(d, m) == minimize(determinize(build_chain_nfa(d, m)))


def test_l_plus_level_zero_and_l_minus_identity():
    rng = random.Random(304)
    for _ in range(10):
        d = random_dfa(rng, rng.randint(1, 4))
        assert l_plus(d, 0) == upward_closure(d)
        for m in range(3):
            assert l_minus(d, m) == l_plus(complement(d), m)


def test_l_plus_of_witness_levels():
    m2 = mk_witness(2)
    assert not is_empty(l_plus(m2, 1))
    assert is_empty(l_plus(m2, 2))


def test_l_plus_closes_only_the_levels_it_reads(monkeypatch):
    # the complement of mk_witness(2) contains ε, so its plus level 0 is
    # Σ* and level m is level m - 1 of the walk of mk_witness(2), whose
    # own level 2 is the first empty one
    machines = (complement(mk_witness(2)), mk_witness(2))
    cases = [(d, two_walk_chains(d)[0]) for d in machines]
    closures = count_calls(monkeypatch, upward_closure)
    counts = []
    for d, plus in cases:
        for m in range(3):
            before = len(closures)
            level = l_plus(d, m)
            counts.append(len(closures) - before)
            assert level == (plus[m] if m < len(plus) else empty_language(AB))
    assert counts == [0, 1, 2, 1, 2, 3]


def test_walk_to_depth_zero_builds_no_level(monkeypatch):
    # counting a's mod 2 is strongly connected, so not piecewise testable,
    # and a walk that keeps no level needs neither the complement nor Σ*;
    # accepting {0} puts ε inside, accepting {1} outside
    machines = [minimize(dfa_from_rows([(1, 0), (0, 1)], {q})) for q in (0, 1)]
    complements = count_calls(monkeypatch, complement)
    universals = count_calls(monkeypatch, universal_language)
    closures = count_calls(monkeypatch, upward_closure)
    inf = AlternationMeasure.infinite()
    for m in machines:
        assert _walk(m, 0) == (inf, inf, [], [])
    assert (len(complements), len(universals), len(closures)) == (0, 0, 0)


@pytest.mark.parametrize("k", range(1, 7))
def test_measures_of_witness_family(k):
    mk = mk_witness(k)
    assert m_plus(mk) == AlternationMeasure.finite(k - 1)
    assert m_minus(mk) == AlternationMeasure.finite(k)


def test_measures_of_universal_and_empty():
    assert m_plus(universal_language(AB)) == AlternationMeasure.finite(0)
    assert m_minus(universal_language(AB)) == AlternationMeasure.finite(-1)
    assert m_plus(empty_dfa()) == AlternationMeasure.finite(-1)
    assert m_minus(empty_dfa()) == AlternationMeasure.finite(0)


def test_measures_of_strictly_alternating_language_are_infinite():
    # (ab)(ab)... embeds in a(ab)... embeds in (ab)(ab)(ab)..., flipping
    # membership at every step, so no finite depth can hold
    d = ab_star()
    assert m_plus(d) == AlternationMeasure.infinite()
    assert m_minus(d) == AlternationMeasure.infinite()


def test_measures_agree_between_engines():
    rng = random.Random(305)
    for _ in range(15):
        d = random_dfa(rng, rng.randint(1, 3))
        assert m_plus(d) == chain_nfa_m_plus(d)


def test_in_boolean_level_for_witness_family():
    for k in range(1, 6):
        mk = mk_witness(k)
        assert in_boolean_level(mk, k, "plus")
        assert not in_boolean_level(mk, k, "co")
        assert in_boolean_level(mk, k + 1, "co")


def test_in_boolean_level_edges():
    assert in_boolean_level(empty_dfa(), 1, "plus")
    for k in (1, 2, 3):
        assert not in_boolean_level(ab_star(), k, "plus")
        assert not in_boolean_level(ab_star(), k, "co")
    with pytest.raises(InputError):
        in_boolean_level(empty_dfa(), 0, "plus")
    with pytest.raises(InputError):
        in_boolean_level(empty_dfa(), 1, "sideways")


def test_minimal_boolean_level_of_witness():
    report = classify(mk_witness(3))
    assert report.minimal_k_plus == 3
    assert report.minimal_k_co == 4
    assert report.m_plus < report.m_minus  # strictly on the plus side
    assert report.m_plus.is_finite


def test_minimal_boolean_level_of_single_letter_ideal():
    # every extension of a member stays inside, so the plus depth is zero;
    # the empty word extends into a member, giving minus depth one
    report = classify(shuffle_ideal("a", AB))
    assert report.m_plus == AlternationMeasure.finite(0)
    assert report.m_minus == AlternationMeasure.finite(1)
    assert report.minimal_k_plus == 1
    assert report.minimal_k_co == 2


def test_minimal_boolean_level_outside_the_hierarchy():
    report = classify(ab_star())
    assert not report.m_plus.is_finite
    assert not report.m_minus.is_finite
    assert report.minimal_k_plus is None
    assert report.minimal_k_co is None


def test_mk_witness_languages_match_their_arithmetic():
    for k in range(1, 7):
        mk = mk_witness(k)
        member = mk_predicate(k)
        assert mk.n_states == k + 2
        for w in words_up_to("ab", max(4, k + 2)):
            assert mk.accepts(w) == member(w)


def test_mk_witness_small_cases():
    for w in words_up_to("ab", 4):
        assert mk_witness(1).accepts(w) == (w.count("a") >= 1)
        assert mk_witness(2).accepts(w) == (w.count("a") == 1)


def test_mk_witness_validation():
    with pytest.raises(InputError):
        mk_witness(0)
    with pytest.raises(InputError):
        mk_witness(2, AB, "z")


def test_normal_form_of_witness():
    m2 = mk_witness(2)
    chain = normal_form_decomposition(m2)
    assert len(chain) == 3
    assert equivalent(chain[0], universal_language(AB))
    assert equivalent(chain[1], shuffle_ideal("a", AB))
    assert equivalent(chain[2], shuffle_ideal("aa", AB))
    assert equivalent(reassemble_normal_form(chain, AB), m2)


def test_normal_form_chain_is_nested():
    for k in (1, 2, 3):
        chain = normal_form_decomposition(mk_witness(k))
        for bigger, smaller in zip(chain, chain[1:]):
            assert is_empty(difference(smaller, bigger))


def test_normal_form_of_empty_language():
    chain = normal_form_decomposition(empty_dfa())
    assert len(chain) == 1
    assert equivalent(chain[0], universal_language(AB))
    assert is_empty(reassemble_normal_form(chain, AB))


def test_normal_form_of_universal_language():
    chain = normal_form_decomposition(universal_language(AB))
    assert chain == []
    assert equivalent(reassemble_normal_form(chain, AB), universal_language(AB))


def test_normal_form_of_single_letter_ideal():
    ideal = shuffle_ideal("a", AB)
    chain = normal_form_decomposition(ideal)
    assert equivalent(reassemble_normal_form(chain, AB), ideal)


def test_normal_form_rejects_infinite_measures():
    with pytest.raises(InfiniteMeasureError):
        normal_form_decomposition(ab_star())


def test_normal_form_rebuilds_random_finite_languages():
    rng = random.Random(306)
    rebuilt = 0
    trials = 0
    while rebuilt < 12 and trials < 200:
        trials += 1
        d = random_dfa(rng, rng.randint(1, 4))
        if not m_plus(d).is_finite:
            continue
        chain = normal_form_decomposition(d)
        assert equivalent(reassemble_normal_form(chain, AB), d)
        rebuilt += 1
    assert rebuilt == 12


def test_level_inclusions_and_strict_shrinking():
    rng = random.Random(307)
    for _ in range(12):
        d = random_dfa(rng, rng.randint(1, 3))
        for m in range(3):
            plus_m = l_plus(d, m)
            plus_next = l_plus(d, m + 1)
            minus_m = l_minus(d, m)
            minus_next = l_minus(d, m + 1)
            upper = intersection(plus_m, minus_m)
            lower = union(plus_next, minus_next)
            assert is_empty(difference(lower, upper))
            if not is_empty(plus_m):
                assert is_empty(difference(plus_next, plus_m))
                assert not equivalent(plus_next, plus_m)
            if not is_empty(minus_m):
                assert is_empty(difference(minus_next, minus_m))
                assert not equivalent(minus_next, minus_m)


def test_levels_are_upward_closed():
    rng = random.Random(308)
    for _ in range(12):
        d = random_dfa(rng, rng.randint(1, 3))
        for m in range(3):
            for level in (l_plus(d, m), l_minus(d, m)):
                assert upward_closure(level) == level


def test_chain_level_validation():
    d = mk_witness(1)
    with pytest.raises(InputError):
        l_plus(d, -1)
    with pytest.raises(InputError):
        l_minus(d, -1)


def test_finite_measures_differ_by_one_off_the_edges():
    rng = random.Random(309)
    corpus = [mk_witness(k) for k in range(1, 6)]
    corpus += [shuffle_ideal(w, AB) for w in ("a", "ab", "bba")]
    corpus += [complement(shuffle_ideal("ab", AB))]
    corpus += [
        union(shuffle_ideal("aa", AB), complement(shuffle_ideal("b", AB))),
        intersection(mk_witness(2), shuffle_ideal("b", AB)),
    ]
    corpus += [random_dfa(rng, rng.randint(1, 4)) for _ in range(60)]
    # the empty and the universal language fit too: -1/0 and 0/-1
    corpus += [empty_dfa(), universal_language(AB)]
    checked = 0
    for d in corpus:
        plus = m_plus(d)
        if not plus.is_finite:
            continue
        minus = m_minus(d)
        assert abs(plus.value - minus.value) == 1
        checked += 1
    assert checked > 10


def _agrees_with_the_two_walks(d) -> bool:
    # piecewise testable machines: every level of both chains, both
    # measures and the normal form; the rest: both measures infinite and
    # the first 3 levels per side
    if not is_piecewise_testable(d):
        assert _walk(minimize(d), 3) == (*two_walk_measures(d), *two_walk_chains(d, 3)), d
        return False
    plus, minus, *chains = _walk(minimize(d))
    assert tuple(chains) == two_walk_chains(d), d
    assert (plus, minus) == two_walk_measures(d), d
    assert normal_form_decomposition(d) == chains[1], d
    return True


def test_one_walk_gives_both_chains_of_the_two_walks():
    corpus = oracle_corpus()
    for n in (1, 2, 3):
        corpus += all_dfas(n)
    for k in range(1, 20):
        corpus += [mk_witness(k), complement(mk_witness(k))]
    assert len(corpus) == 6405
    assert sum(_agrees_with_the_two_walks(d) for d in corpus) == 3270


def test_one_walk_gives_both_chains_of_boolean_combinations_of_ideals():
    corpus = boolean_combinations(random.Random(1), 6, 5, 4)
    assert all(_agrees_with_the_two_walks(d) for d in corpus)
    assert max(d.n_states for d in corpus) > 20


def test_infinite_measures_come_in_pairs():
    rng = random.Random(310)
    for _ in range(30):
        d = random_dfa(rng, rng.randint(1, 4))
        assert m_plus(d).is_finite == m_minus(d).is_finite


def test_engines_agree_over_three_letters():
    from subseq.automata import Alphabet

    abc = Alphabet("abc")
    rng = random.Random(311)
    for _ in range(15):
        d = random_dfa(rng, rng.randint(1, 3), alphabet=abc)
        for m in range(3):
            assert l_plus(d, m) == minimize(determinize(build_chain_nfa(d, m)))
        assert m_plus(d) == chain_nfa_m_plus(d)


def test_unary_alphabet_is_supported():
    # single-letter alphabets are accepted even though the interesting
    # hierarchy lives over two or more letters
    from subseq.automata import Alphabet, Dfa

    a_only = Alphabet("a")
    evens = Dfa(a_only, 2, ((1,), (0,)), 0, frozenset({0}))
    assert m_plus(evens) == AlternationMeasure.infinite()
    threshold = Dfa(a_only, 2, ((1,), (1,)), 0, frozenset({1}))  # at least one a
    assert m_plus(threshold) == AlternationMeasure.finite(0)
    assert m_minus(threshold) == AlternationMeasure.finite(1)
    for m in range(3):
        assert l_plus(threshold, m) == minimize(
            determinize(build_chain_nfa(threshold, m))
        )


def _public_verdicts(d):
    try:
        decomposition = decompose_level_half(d).words
    except NotUpwardClosedError:
        decomposition = None
    plus = m_plus(d)
    return (
        is_level_one_half(d),
        is_co_level_one_half(d),
        decomposition,
        plus,
        m_minus(d),
        None if plus.is_finite else detect_p3(d),
    )


def test_classify_agrees_with_the_public_functions():
    # classify minimizes once and feeds the private stages; each public
    # function minimizes on its own, so the two paths share no automaton
    abc = Alphabet("abc")
    corpus = [d for n in (1, 2, 3) for d in all_dfas(n)]
    corpus += [d for n in (1, 2) for d in all_dfas(n, abc)]
    rng = random.Random(15)
    randoms = [random_dfa(rng, rng.randint(2, 8)) for _ in range(300)]
    assert sum(len(_access_words(d)) < d.n_states for d in randoms) > 100
    for d in corpus + randoms:
        report = classify(d)
        got = (
            report.in_level_one_half,
            report.in_co_level_one_half,
            report.ideal_decomposition,
            report.m_plus,
            report.m_minus,
            report.pattern_witness,
        )
        assert got == _public_verdicts(d), d


def test_report_dict_matches_the_explicit_serializer():
    # to_dict reads the dataclass fields; the reference spells out each key
    # and witness slot, so a dropped, renamed or unconverted value shows
    for d in witness_corpus():
        report = classify(d)
        assert report.to_dict() == reference_report_dict(report), d
