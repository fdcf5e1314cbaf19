import itertools
import random
import time
from collections import Counter
from pathlib import Path

from subseq.alternation import AlternationMeasure, m_plus, mk_witness
from subseq.automata import (
    Alphabet,
    Dfa,
    _minimize,
    _topological_order,
    complement,
    minimize,
    universal_language,
)
from subseq.patterns import (
    PatternWitness,
    _access,
    _as_p3,
    _cycle_witness,
    _detect_p2,
    _is_piecewise_testable,
    _loop_letters,
    _separator,
    _words,
    detect_p1,
    detect_p2,
    detect_p3,
    is_piecewise_testable,
)
from subseq.cli import classify, main, parse_dfa
from subseq.subword import is_subword, shuffle_ideal

from helpers import (
    AB,
    ab_star,
    all_dfas,
    ba_star,
    count_calls,
    dfa_from_rows,
    distinguishing_words,
    equivalent,
    random_dfa,
    reference_access_classes,
    reference_cycle_witness,
    reference_detect_p1,
    reference_detect_p2,
    reference_holds_in,
    reference_is_piecewise_testable,
    reverse_det,
    strongly_connected_dfa,
    witness_corpus,
    words_up_to,
)


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
    # separator is the shortlex-least word that tells them apart.  Every
    # state's class is the minimal state with its language; an unreachable
    # state's is -1 only when no reachable state has its language
    for d in _separation_corpus():
        access = _words(d.delta, d.alphabet.letters, d.start, -1)
        minimal, classes = _minimize(d)
        assert (access, {s: classes[s] for s in access}) == reference_access_classes(d), d
        starts = [d._replace(start=s) for s in access]
        for s, c in enumerate(classes):
            here = d._replace(start=s)
            if c >= 0:
                assert equivalent(here, minimal._replace(start=c)), (d, s)
            else:
                assert not any(equivalent(here, other) for other in starts), (d, s)
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
        yield w._replace(**{slot: _edit(rng, getattr(w, slot), letters)})
    yield w._replace(letter=rng.choice([c for c in letters if c != w.letter]))
    for i, s in enumerate(w.states):
        t = rng.choice([t for t in range(d.n_states + 2) if t != s])
        yield w._replace(states=w.states[:i] + (t,) + w.states[i + 1 :])
    yield w._replace(kind=rng.choice([k for k in ("P1", "P2", "P3", "P4") if k != w.kind]))


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


def _self_loop_acyclic_corpus():
    """320 seeded automata over ``ab`` and ``abc`` with 2-7 states whose
    only cycles are self-loops: P1 cannot fire there, so every witness is
    a P2 one, built from the square automaton's components."""
    rng = random.Random(1901)
    return [_self_loop_acyclic(rng, 2, 7) for _ in range(320)]


def _self_loop_acyclic(rng, least, most):
    """A random automaton over ``ab`` or ``abc`` with ``least`` to ``most``
    states whose every step stays put or moves to a higher state."""
    alphabet = rng.choice((AB, Alphabet("abc")))
    n = rng.randint(least, most)
    rows = tuple(tuple(rng.randrange(s, n) for _ in alphabet.letters) for s in range(n))
    accepting = frozenset(s for s in range(n) if rng.random() < 0.5)
    return Dfa(alphabet, n, rows, 0, accepting)


def _check_p2_against_its_reference(d):
    """``detect_p2``'s witness, checked: there is one exactly when the
    exhaustive reference finds one, and it replays."""
    got = detect_p2(d)
    assert (got is None) == (reference_detect_p2(d) is None), d
    assert got is None or (got.kind == "P2" and got.holds_in(d)), (d, got)
    return got


def test_detectors_match_the_two_search_references():
    # the one P1 search finds a witness exactly when the exhaustive search
    # over every (letter, s1, s2) does, and it is the cycle witness; the
    # P2 construction finds one exactly when the exhaustive reference
    # does, and every witness of either replays
    found = Counter()
    for d in witness_corpus() + _self_loop_acyclic_corpus():
        got = detect_p1(d)
        assert (got is None) == (reference_detect_p1(d) is None), d
        assert got == reference_cycle_witness(d), d
        assert got is None or got.holds_in(d), d
        second = _check_p2_against_its_reference(d)
        assert detect_p3(d) == _as_p3(d, got or second), d
        found["P1", got is not None] += 1
        found["P2", second is not None] += 1
    assert min(found.values()) > 500, found


def _with_copies(rng, dfa):
    """An automaton with every state of ``dfa`` twice over, each edge
    going to either copy of its target: same language, not minimal."""
    n = dfa.n_states
    rows = tuple(
        tuple(t + n * rng.randrange(2) for t in dfa.delta[s % n]) for s in range(2 * n)
    )
    accepting = frozenset(s for s in range(2 * n) if s % n in dfa.accepting)
    return Dfa(dfa.alphabet, 2 * n, rows, dfa.start, accepting)


def test_p2_construction_matches_the_exhaustive_reference():
    # acyclic minimal automata, with non-minimal copies of the small ones,
    # whose square automaton has components of more than one node, and
    # strongly connected ones, where it may have one large component
    rng = random.Random(3101)
    acyclic = [
        _forward_with_self_loops(rng, rng.randint(3, 10), rng.choice((AB, Alphabet("abc"))))
        for _ in range(200)
    ]
    corpus = acyclic + [_with_copies(rng, d) for d in acyclic if d.n_states <= 4]
    corpus += [
        strongly_connected_dfa(rng, rng.randint(2, 6), rng.choice((AB, Alphabet("abc"))))
        for _ in range(200)
    ]
    found = Counter(_check_p2_against_its_reference(d) is not None for d in corpus)
    assert min(found.values()) > 100, found


def test_p2_construction_is_polynomial():
    # the exhaustive search ran one loop search per (s1, a, t3, t4): 29 s
    # of classify at 28-31 acyclic states, and 1.6 s to search every
    # candidate of the 16-state piecewise-testable input
    acyclic = _forward_with_self_loops(random.Random(1), 34, Alphabet("abc"))
    assert acyclic.n_states == 29 and not is_piecewise_testable(acyclic)
    started = time.perf_counter()
    assert classify(acyclic).pattern_witness is not None
    assert time.perf_counter() - started < 0.5
    rng = random.Random(5)
    draws = (_forward_with_self_loops(rng, 21, AB) for _ in itertools.count())
    testable = next(d for d in draws if d.n_states >= 15 and is_piecewise_testable(d))
    assert testable.n_states == 16
    started = time.perf_counter()
    assert detect_p2(testable) is None
    assert time.perf_counter() - started < 0.1, testable.n_states
    cyclic = strongly_connected_dfa(random.Random(3102), 90, Alphabet("abc"))
    started = time.perf_counter()
    assert detect_p2(cyclic) is not None
    assert time.perf_counter() - started < 1.0


def _cyclic(dfa):
    return _topological_order(minimize(dfa)) is None


def test_cycle_witness_matches_its_reference(monkeypatch):
    # classify's one loop search against its witness spelled out by
    # definition: on every machine of the witness corpus, None exactly on
    # those whose minimal automaton is acyclic apart from self-loops, and
    # on seeded random cyclic machines; every witness it returns replays,
    # and no machine needs more than one component pass
    rng = random.Random(2401)
    randoms = []
    while len(randoms) < 2000:
        d = random_dfa(rng, rng.randint(2, 8), rng.choice((AB, Alphabet("abc"))))
        if _cyclic(d):
            randoms.append(d)
    found = 0
    passes = count_calls(monkeypatch, _loop_letters)
    for d in witness_corpus() + randoms:
        passes.clear()
        got = _cycle_witness(d, _minimize(d)[1], _access(d))
        assert len(passes) <= 1, d
        assert got == reference_cycle_witness(d), d
        assert (got is not None) == _cyclic(d), d
        if got is not None:
            assert got.holds_in(d), d
            found += 1
    assert found > 5000


def test_classify_skips_p1_on_acyclic_inputs(monkeypatch):
    # with every cycle of the minimal automaton a self-loop no P1 witness
    # exists, so classify's witness comes from one P2 search per input that
    # is not piecewise testable, and it is still detect_p3's
    a_first = parse_dfa((Path(__file__).parent / "fixtures" / "a_first.dfa").read_text())
    corpus = [a_first] + _self_loop_acyclic_corpus()
    rng = random.Random(2402)
    seeded = (_self_loop_acyclic(rng, 3, 10) for _ in itertools.count())
    corpus += itertools.islice((d for d in seeded if not is_piecewise_testable(d)), 200)
    second = count_calls(monkeypatch, _detect_p2)
    witnesses = [classify(d).pattern_witness for d in corpus]
    assert [args[0] for args in second] == [d for d in corpus if not is_piecewise_testable(d)]
    monkeypatch.undo()
    assert witnesses == [detect_p3(d) for d in corpus]
    assert witnesses[0] is not None
    assert sum(w is not None for w in witnesses) > 220


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


def test_confluence_pass_matches_the_joinability_reference():
    # one pass per letter pair over the reverse topological order against
    # one joinability search per state and letter pair, on the minimal
    # automata of the exhaustive corpora and of seeded mostly-forward ones
    abc, abcd = Alphabet("abc"), Alphabet("abcd")
    corpus = [d for n in (1, 2, 3) for d in all_dfas(n)]
    corpus += [d for n in (1, 2) for d in all_dfas(n, abc)]
    rng = random.Random(2101)
    corpus += [
        _forward_dfa(rng, rng.randint(3, 10), rng.choice((AB, abc, abcd)))
        for _ in range(3000)
    ]
    verdicts = Counter()
    for d in corpus:
        minimal = minimize(d)
        verdict = _is_piecewise_testable(minimal, _topological_order(minimal))
        assert verdict == reference_is_piecewise_testable(minimal), d
        verdicts[verdict] += 1
    assert min(verdicts.values()) > 3000, verdicts


def test_decision_procedure_is_polynomial_on_the_witness_family():
    for k in (256, 4096):
        started = time.perf_counter()
        assert is_piecewise_testable(mk_witness(k))
        assert time.perf_counter() - started < 1.0, k


def _forward_with_self_loops(rng, n, alphabet):
    """The minimal automaton of a random one with n states whose every
    step is a self-loop with probability 0.35, else an edge to one of the
    next five states; the last state has only self-loops, and each state
    accepts with probability 1/2."""
    rows = tuple(
        tuple(
            s if s == n - 1 or rng.random() < 0.35 else rng.randint(s + 1, min(s + 5, n - 1))
            for _ in alphabet.letters
        )
        for s in range(n)
    )
    accepting = frozenset(s for s in range(n) if rng.random() < 0.5)
    return minimize(Dfa(alphabet, n, rows, 0, accepting))


def test_detect_p1_is_polynomial_without_a_cycle():
    # no P1 witness exists on these, so an exhaustive search over every
    # (letter, s1, s2) ran all its loop searches: 0.7-2.5 s each
    acyclic = _forward_with_self_loops(random.Random(1), 34, Alphabet("abc"))
    assert acyclic.n_states == 29 and not is_piecewise_testable(acyclic)
    for d in (mk_witness(48), complement(mk_witness(48)), acyclic):
        started = time.perf_counter()
        assert detect_p1(d) is None
        assert time.perf_counter() - started < 0.1, d.n_states


def test_classify_witness_is_polynomial_on_a_chain_into_a_cycle():
    # a advances along a 400-letter chain into a 2-cycle on a, b loops
    # everywhere, odd states accept: the exhaustive P1 search grows like
    # n^3.7 here and took 1.5 s at 50 states; the one loop search finds
    # the cycle's first state
    n = 402
    rows = tuple((i + 1 if i < n - 1 else n - 2, i) for i in range(n))
    d = Dfa(AB, n, rows, 0, frozenset(range(1, n, 2)))
    started = time.perf_counter()
    report = classify(d)
    assert time.perf_counter() - started < 0.5
    assert report.pattern_witness == PatternWitness(
        kind="P3", letter="a", x="a" * 400, v="aa", states=(400, 400, 401, 400, 401)
    )


def _tail_into_two_cycle(n):
    """States 0..n-1 over ``ab``: a steps s to s + 1 and b stays, but state
    n - 1 steps back to n - 2 on a; only n - 1 accepts."""
    rows = tuple((s + 1 if s < n - 1 else n - 2, s) for s in range(n))
    return Dfa(AB, n, rows, 0, frozenset({n - 1}))


def test_detectors_read_classes_without_replaying_access_words(monkeypatch):
    # each state's class comes from the one minimization: replaying every
    # access word in the minimal automaton ran once per reachable state,
    # 2,011 runs for this classify and 502 for the detect_p1; what is left
    # is the witness's replay
    runs, run = [], Dfa.run

    def counted(self, *args, **kwargs):
        runs.append(args)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Dfa, "run", counted)
    tail = _tail_into_two_cycle(2000)
    assert classify(tail).pattern_witness is not None
    assert len(runs) <= 20
    runs.clear()
    assert detect_p1(mk_witness(500)) is None
    assert runs == []


def test_witness_runs_each_breadth_first_search_once(monkeypatch, capsys):
    # one table of access words serves both searches, and the P2 loop's
    # walk searches from each node once: on a_first, whose P2 loop walks
    # from node 7 for both of its letters and back, classify searched
    # (3 states, start 0) twice and (9 square nodes, start 7) three times
    a_first = Path(__file__).parent / "fixtures" / "a_first.dfa"
    searches = count_calls(monkeypatch, _words)
    expected = [(3, 0, -1), (9, 1, 3), (9, 7, 3)]
    assert classify(parse_dfa(a_first.read_text())).pattern_witness is not None
    assert [(len(delta), start, allowed) for delta, _, start, allowed in searches] == expected
    searches.clear()
    assert main(["patterns", str(a_first)]) == 0
    assert "P2: kind=P2" in capsys.readouterr().out
    assert [(len(delta), start, allowed) for delta, _, start, allowed in searches] == expected


def test_detectors_are_linear_on_long_chains():
    # the access-word replay cost the length of every access word: 1.2 s
    # for this classify and 0.96 s for the detect_p1
    tail = _tail_into_two_cycle(8000)
    started = time.perf_counter()
    report = classify(tail)
    assert time.perf_counter() - started < 0.5
    assert report.pattern_witness == PatternWitness(
        kind="P3", letter="a", x="a" * 7998, v="aa", states=(7998, 7998, 7999, 7998, 7999)
    )
    chain = mk_witness(8000)
    started = time.perf_counter()
    assert detect_p1(chain) is None
    assert time.perf_counter() - started < 0.5


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

