import random
import time
from collections import Counter
from dataclasses import replace

from subseq.alternation import AlternationMeasure, m_plus, mk_witness
from subseq.automata import Alphabet, Dfa, complement, minimize, universal_language
from subseq.patterns import (
    PatternWitness,
    _access_words,
    _classes,
    _separator,
    detect_p1,
    detect_p2,
    detect_p3,
    find_loop_with_embedded_extension,
    is_piecewise_testable,
)
from subseq.cli import classify
from subseq.subword import is_subword, shuffle_ideal

from helpers import (
    AB,
    ab_star,
    all_dfas,
    ba_star,
    dfa_from_rows,
    distinguishing_words,
    random_dfa,
    reference_holds_in,
    reverse_det,
    witness_corpus,
    words_up_to,
)


def test_find_loop_on_alternating_loop():
    d = minimize(ab_star())
    found = find_loop_with_embedded_extension(d, 0, 1, "a")
    assert found == ("abab", "a")
    v, y = found
    assert d.run(v, 0) == 0
    assert d.run(y, 0) == 1
    assert is_subword(y + "a", v)


def test_find_loop_accepts_any_valid_witness_shape():
    d = minimize(ab_star())
    found = find_loop_with_embedded_extension(d, 0, 1, "b")
    v, y = found
    assert d.run(v, 0) == 0
    assert d.run(y, 0) == 1
    assert is_subword(y + "b", v)


def test_find_loop_on_absorbing_accepting_state():
    # the sink loops on everything, so a witness exists even though the
    # pattern as a whole cannot fire there (no distinguishable successor)
    ideal = shuffle_ideal("a", AB)
    assert find_loop_with_embedded_extension(ideal, 1, 1, "a") == ("a", "")


def test_find_loop_fails_when_target_unreachable():
    ideal = shuffle_ideal("a", AB)
    assert find_loop_with_embedded_extension(ideal, 1, 0, "a") is None


def test_detect_p1_on_alternating_language():
    d = minimize(ab_star())
    w = detect_p1(d)
    assert w is not None and w.kind == "P1"
    assert w.holds_in(d)
    assert w == PatternWitness(kind="P1", letter="a", v="ab", states=(0, 0, 1))


def test_detect_p1_absent_on_ideal_and_empty():
    assert detect_p1(shuffle_ideal("ab", AB)) is None
    assert detect_p1(complement(universal_language(AB))) is None


def test_detect_p2_on_reversed_alternating_language():
    d = minimize(ba_star())
    w = detect_p2(d)
    assert w is not None and w.kind == "P2"
    assert w.holds_in(d)


def test_detect_p2_absent_on_witness_and_trivial():
    assert detect_p2(mk_witness(3)) is None
    assert detect_p2(universal_language(AB)) is None


def test_detect_p3_on_both_orientations():
    for d in (minimize(ab_star()), minimize(ba_star())):
        w = detect_p3(d)
        assert w is not None and w.kind == "P3"
        assert w.holds_in(d)


def test_detect_p3_absent_on_witness_family():
    for k in range(1, 7):
        assert detect_p3(mk_witness(k)) is None


def test_is_piecewise_testable_examples():
    assert is_piecewise_testable(shuffle_ideal("ab", AB))
    assert is_piecewise_testable(mk_witness(4))
    assert not is_piecewise_testable(ab_star())
    assert not is_piecewise_testable(ba_star())


def _separation_corpus():
    """Every ``ab`` automaton with 1-3 states, then seeded random ones with
    1-12 states over ``ab`` and ``abc``."""
    corpus = [d for n in (1, 2, 3) for d in all_dfas(n)]
    rng = random.Random(400)
    corpus += [
        random_dfa(rng, rng.randint(1, 12), rng.choice((AB, Alphabet("abc"))))
        for _ in range(150)
    ]
    return corpus


def test_every_returned_witness_replays():
    for d in _separation_corpus():
        first, second, third = detect_p1(d), detect_p2(d), detect_p3(d)
        for w in (first, second, third):
            if w is not None:
                assert w.holds_in(d), (d, w)
        assert (third is None) == (first is None and second is None)


def _separates(d, z, p, q):
    return (d.run(z, p) in d.accepting) != (d.run(z, q) in d.accepting)


def test_classes_and_separators_agree_with_the_reference_table():
    # Myhill-Nerode: reachable states are distinguishable exactly when
    # they reach different states of the minimal automaton, and the
    # separator is the shortlex-least word that tells them apart
    for d in _separation_corpus():
        access = _access_words(d)
        classes = _classes(minimize(d), access)
        table = distinguishing_words(d)
        reachable = sorted(access)
        for i, p in enumerate(reachable):
            for q in reachable[i + 1 :]:
                assert (classes[p] != classes[q]) == ((p, q) in table), (d, p, q)
                if (p, q) not in table:
                    continue
                z = _separator(d, p, q)
                assert len(z) == len(table[(p, q)]) and _separates(d, z, p, q)
                least = next(
                    w for w in words_up_to(d.alphabet.letters, len(z)) if _separates(d, w, p, q)
                )
                assert z == least == _separator(d, q, p), (d, p, q)


def test_pattern_equivalences_on_random_machines():
    # presence of the third pattern must coincide with presence of either
    # of the others on the machine or its reversal, and with an infinite
    # measure, across a broad random sample
    rng = random.Random(401)
    finite = 0
    for _ in range(500):
        d = random_dfa(rng, rng.randint(4, 6))
        rev = reverse_det(d)
        has_p3 = detect_p3(d) is not None
        has_p1 = detect_p1(d) is not None or detect_p1(rev) is not None
        has_p2 = detect_p2(d) is not None or detect_p2(rev) is not None
        assert has_p3 == has_p1 == has_p2 == (not m_plus(d).is_finite)
        if not has_p3:
            finite += 1
    assert finite > 50  # the sample genuinely exercises both verdicts


def test_pattern_equivalences_exhaustby_two_states():
    for d in all_dfas(2):
        rev = reverse_det(d)
        has_p3 = detect_p3(d) is not None
        has_p1 = detect_p1(d) is not None or detect_p1(rev) is not None
        has_p2 = detect_p2(d) is not None or detect_p2(rev) is not None
        assert has_p3 == has_p1 == has_p2 == (not m_plus(d).is_finite)


def test_piecewise_testability_invariant_under_minimization():
    rng = random.Random(402)
    for _ in range(25):
        d = random_dfa(rng, rng.randint(1, 5))
        assert is_piecewise_testable(d) == is_piecewise_testable(minimize(d))


def test_piecewise_testability_invariant_under_reversal():
    rng = random.Random(403)
    for _ in range(25):
        d = random_dfa(rng, rng.randint(1, 5))
        assert is_piecewise_testable(d) == is_piecewise_testable(reverse_det(d))


def test_witness_from_p1_branch_has_empty_second_loop():
    w = detect_p3(minimize(ab_star()))
    assert w.u == "" and w.z_prime == ""
    assert is_subword(w.y + w.letter, w.v)


def test_p3_witness_comes_from_second_branch_when_first_is_absent():
    # "words starting with a": the first letter decides everything, there
    # is no productive loop-with-insertion at the start, but inserting a
    # in front of b flips membership forever, which is the second pattern
    starts_with_a = dfa_from_rows([(1, 2), (1, 1), (2, 2)], {1})
    assert detect_p1(starts_with_a) is None
    second = detect_p2(starts_with_a)
    assert second is not None and second.holds_in(starts_with_a)
    w = detect_p3(starts_with_a)
    assert w is not None and w.v == "" and w.y == ""
    assert w.holds_in(starts_with_a)


def _chain_words_from_witness(w, repeats):
    """The explicit extension chain a third-pattern witness generates.

    Pumping both loops i times, with and without the pivot letter, yields
    words each embedded in the next whose membership must flip every step.
    """
    chain = []
    for i in range(repeats):
        base = w.x + w.v * i + w.y
        tail = w.z + w.u * i + w.z_prime
        chain.append(base + tail)
        chain.append(base + w.letter + tail)
    return chain


def test_p3_witness_generates_a_real_alternating_chain():
    # direct semantic evidence for the infinite verdict: the witness words
    # form a subword chain whose membership alternates at every step
    rng = random.Random(404)
    machines = [minimize(ab_star()), minimize(ba_star())]
    machines += [random_dfa(rng, rng.randint(2, 5)) for _ in range(40)]
    exercised = 0
    for d in machines:
        w = detect_p3(d)
        if w is None:
            continue
        chain = _chain_words_from_witness(w, 4)
        for smaller, larger in zip(chain, chain[1:]):
            assert is_subword(smaller, larger), (d, w)
            assert d.accepts(smaller) != d.accepts(larger), (d, w)
        exercised += 1
    assert exercised >= 20


def test_pattern_equivalences_hold_over_three_letters():
    from subseq.automata import Alphabet

    abc = Alphabet("abc")
    rng = random.Random(405)
    for _ in range(60):
        d = random_dfa(rng, rng.randint(1, 4), alphabet=abc)
        rev = reverse_det(d)
        has_p3 = detect_p3(d) is not None
        has_p1 = detect_p1(d) is not None or detect_p1(rev) is not None
        has_p2 = detect_p2(d) is not None or detect_p2(rev) is not None
        assert has_p3 == has_p1 == has_p2 == (not m_plus(d).is_finite)
        w = detect_p3(d)
        if w is not None:
            assert w.holds_in(d)


def test_piecewise_testability_is_closed_under_complement():
    # classify takes one P3 verdict for both measures; this is the
    # closure property that makes that sound
    corpus = list(all_dfas(1)) + list(all_dfas(2))
    rng = random.Random(406)
    for letters in ("ab", "abc"):
        alphabet = Alphabet(letters)
        corpus += [random_dfa(rng, rng.randint(3, 5), alphabet=alphabet) for _ in range(40)]
    for d in corpus:
        assert (detect_p3(d) is None) == (detect_p3(complement(d)) is None)


def test_witness_replay_rejects_corrupted_witness():
    d = minimize(ab_star())
    w = detect_p1(d)
    broken = PatternWitness(
        kind="P1", letter=w.letter, x=w.x, v=w.v + "a", y=w.y, z=w.z, states=w.states
    )
    assert not broken.holds_in(d)


def _replay(replay, w, d):
    """What a replay answers, or the type of what it raises."""
    try:
        return replay(w, d)
    except Exception as exc:
        return type(exc)


def _edit(rng, word, letters):
    """``word`` with one letter of ``letters`` inserted, deleted or swapped."""
    i = rng.randrange(len(word) + 1)
    if i == len(word) or rng.random() < 0.5:
        return word[:i] + rng.choice(letters) + word[i:]
    if rng.random() < 0.5:
        return word[:i] + word[i + 1 :]
    return word[:i] + rng.choice([c for c in letters if c != word[i]]) + word[i + 1 :]


def _corrupted(rng, w, d):
    """Copies of ``w`` with one thing changed: each word slot, the letter,
    each state (to another of 0..n+1) and the kind.  Edited words keep to
    the alphabet."""
    letters = d.alphabet.letters
    for slot in ("x", "v", "y", "z", "u", "z_prime"):
        yield replace(w, **{slot: _edit(rng, getattr(w, slot), letters)})
    yield replace(w, letter=rng.choice([c for c in letters if c != w.letter]))
    for i, s in enumerate(w.states):
        t = rng.choice([t for t in range(d.n_states + 2) if t != s])
        yield replace(w, states=w.states[:i] + (t,) + w.states[i + 1 :])
    yield replace(w, kind=rng.choice([k for k in ("P1", "P2", "P3", "P4") if k != w.kind]))


def test_replay_of_the_third_pattern_form_matches_the_three_branch_replay():
    # holds_in replays every kind through _as_p3; the reference keeps one
    # equation list per kind.  Corrupted copies reach every equation, the
    # slots a kind ignores, states outside the automaton and bad kinds
    rng = random.Random(1801)
    seen = Counter()
    for d in witness_corpus():
        for detect in (detect_p1, detect_p2, detect_p3):
            w = detect(d)
            if w is None:
                continue
            for variant in (w, *_corrupted(rng, w, d)):
                want = _replay(reference_holds_in, variant, d)
                assert _replay(PatternWitness.holds_in, variant, d) == want, (d, variant)
                seen[variant.kind, want] += 1
    for kind in ("P1", "P2", "P3"):
        assert seen[kind, True] > 500 and seen[kind, False] > 500 and seen[kind, ValueError] > 100
    assert seen["P4", ValueError] > 500


def _forward_dfa(rng, n_states, alphabet):
    # mostly forward edges keep many of these acyclic apart from
    # self-loops, so both piecewise-testability verdicts come up often
    rows = tuple(
        tuple(
            rng.randrange(s, n_states) if rng.random() < 0.9 else rng.randrange(n_states)
            for _ in alphabet.letters
        )
        for s in range(n_states)
    )
    accepting = frozenset(s for s in range(n_states) if rng.random() < 0.5)
    return Dfa(alphabet, n_states, rows, 0, accepting)


def test_decision_procedure_agrees_with_pattern_search():
    abc = Alphabet("abc")
    corpus = [d for n in (1, 2, 3) for d in all_dfas(n)]
    corpus += [d for n in (1, 2) for d in all_dfas(n, abc)]
    rng = random.Random(407)
    alphabets = (AB, abc)
    corpus += [
        _forward_dfa(rng, rng.randint(3, 6), rng.choice(alphabets)) for _ in range(500)
    ]
    verdicts = {True: 0, False: 0}
    for d in corpus:
        verdict = is_piecewise_testable(d)
        assert verdict == (detect_p3(d) is None), d
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_decision_procedure_is_polynomial_on_the_witness_family():
    started = time.perf_counter()
    assert is_piecewise_testable(mk_witness(256))
    assert time.perf_counter() - started < 1.0


def test_classify_is_fast_on_a_deep_piecewise_testable_language():
    for d, plus, minus in (
        (mk_witness(32), 31, 32),
        (complement(mk_witness(32)), 32, 31),
    ):
        started = time.perf_counter()
        report = classify(d)
        assert time.perf_counter() - started < 2.0
        assert report.m_plus == AlternationMeasure.finite(plus)
        assert report.m_minus == AlternationMeasure.finite(minus)

