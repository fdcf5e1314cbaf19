"""Piecewise testability: a polynomial decision procedure, and
forbidden-pattern detection for witnesses.

A regular language is piecewise testable (a boolean combination of shuffle
ideals, level 1) exactly when its minimal automaton is acyclic apart from
self-loops and locally confluent (Klíma and Polák, DLT 2013, building on
Simon's theorem).  ``is_piecewise_testable`` checks those two properties in
polynomial time, and it is the toolkit's only yes/no test for level 1, so
also for whether the alternation measures are infinite.

The same languages are exactly those whose automaton is free of three
interlocking loop-plus-distinguisher configurations.  Whenever one is
present, pumping the loop while inserting the pivot letter builds
membership-alternating extension chains of unbounded depth.  The detectors
for them extract that evidence when the test says no, and serve as an
independent cross-check of the test.

Each detector returns a fully instantiated witness (words and states) that
can be replayed against the automaton, or None.  Two reachable states are
distinguishable exactly when they reach different states of the minimal
automaton (Myhill-Nerode), so one minimization filters every candidate
pair, and a separating word is searched only for the pair a witness
names; it is the shortlex-least one.  Detection is deterministic: letters
in alphabet order, states in index order, breadth-first shortest words
with alphabet-order tie-breaking.

There is one replay: the third pattern's equations, on a witness's
third-pattern form (``_as_p3``), which holds exactly when the witness
does.  A P1 witness gets an empty second loop (u = z' = ε, s4 = s2·z,
s5 = s3·z): the loop equations hold by construction, a + z never embeds
in ε, and z' = ε separates s4 from s5 exactly when z separates s2 from
s3.  A P2 witness gets an empty first loop (v = y = ε, s1 repeated): its
equations hold trivially, y + a never embeds in ε, and P2's remain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields, replace

from .automata import Dfa, _topological_order, minimize
from .subword import is_subword

__all__ = [
    "PatternWitness",
    "find_loop_with_embedded_extension",
    "detect_p1",
    "detect_p2",
    "detect_p3",
    "is_piecewise_testable",
]


@dataclass(frozen=True)
class PatternWitness:
    """Concrete instantiation of one of the three forbidden patterns.

    Word slots a pattern kind does not use stay empty, and ``states``
    holds (s1, s2, s3) for P1, (s1, s2, s3, s4) for P2 and five states for
    P3.  ``holds_in`` replays its third-pattern form (``_as_p3``); a state
    outside the automaton replays as False.
    """

    kind: str
    letter: str
    x: str = ""
    v: str = ""
    y: str = ""
    z: str = ""
    u: str = ""
    z_prime: str = ""
    states: tuple[int, ...] = ()

    def holds_in(self, dfa: Dfa) -> bool:
        if not all(0 <= s < dfa.n_states for s in self.states):
            return False
        w = _as_p3(dfa, self)
        s1, s2, s3, s4, s5 = w.states
        a = w.letter
        acc = dfa.accepting
        return (
            dfa.run(w.x) == s1
            and dfa.run(w.v, s1) == s1
            and dfa.run(w.y, s1) == s2
            and dfa.step(s2, a) == s3
            and dfa.run(w.z, s2) == s4
            and dfa.run(w.u, s4) == s4
            and dfa.run(w.z, s3) == s5
            and dfa.run(w.u, s5) == s5
            and (is_subword(w.y + a, w.v) or is_subword(a + w.z, w.u))
            and (dfa.run(w.z_prime, s4) in acc) != (dfa.run(w.z_prime, s5) in acc)
        )


_WITNESS_FIELDS = tuple(f.name for f in fields(PatternWitness) if f.name != "kind")


def _witness_fields(w: PatternWitness) -> dict:
    """A pattern witness as JSON values, without its kind."""
    values = {name: getattr(w, name) for name in _WITNESS_FIELDS}
    values["states"] = list(w.states)
    return values


def _as_p3(dfa: Dfa, w: PatternWitness | None) -> PatternWitness | None:
    """The third-pattern form of a witness whose states lie in ``dfa``, as
    the module docstring builds it; a P3 witness or None as given."""
    if w is None or w.kind == "P3":
        return w
    if w.kind == "P1":
        s1, s2, s3 = w.states
        states = (s1, s2, s3, dfa.run(w.z, s2), dfa.run(w.z, s3))
        return replace(w, kind="P3", u="", z_prime="", states=states)
    if w.kind == "P2":
        s1, s2, s3, s4 = w.states
        return replace(w, kind="P3", v="", y="", states=(s1, s1, s2, s3, s4))
    raise ValueError(f"unknown pattern kind {w.kind!r}")


def _access_words(dfa: Dfa) -> dict[int, str]:
    """Shortest word from the start state to each reachable state."""
    letters = dfa.alphabet.letters
    words = {dfa.start: ""}
    queue = deque([dfa.start])
    while queue:
        s = queue.popleft()
        for j, ch in enumerate(letters):
            t = dfa.delta[s][j]
            if t not in words:
                words[t] = words[s] + ch
                queue.append(t)
    return words


def _classes(minimal: Dfa, access: dict[int, str]) -> dict[int, int]:
    """The state of the minimal automaton each reachable state stands for;
    two reachable states are distinguishable exactly when theirs differ."""
    return {s: minimal.run(w) for s, w in access.items()}


def _separator(dfa: Dfa, p: int, q: int) -> str:
    """Shortlex-least word whose runs from the distinguishable states p and
    q disagree on acceptance: breadth-first search over state pairs driven
    by the same letter, letters in alphabet order."""
    acc = dfa.accepting
    words = {(p, q): ""}
    queue = deque(words)
    while True:
        s, t = pair = queue.popleft()
        if (s in acc) != (t in acc):
            return words[pair]
        for ch, target in zip(dfa.alphabet.letters, zip(dfa.delta[s], dfa.delta[t])):
            if target not in words:
                words[target] = words[pair] + ch
                queue.append(target)


def find_loop_with_embedded_extension(
    dfa: Dfa, s1: int, s2: int, letter: str
) -> tuple[str, str] | None:
    """Words (v, y) with v looping at s1, y running s1 -> s2, and y
    followed by ``letter`` embedded in v as a subword.

    Breadth-first search over (loop run, embedded-prefix run, letter
    placed).  Every consumed letter extends v; while the flag is down a
    letter may also extend y, and ``letter`` itself may be placed once the
    prefix run already sits at s2, which freezes y.  Success means the
    loop run is back at s1 with the flag up.  Shortest v wins, ties in
    alphabet order; None when no such pair of words exists.
    """
    width = len(dfa.alphabet)
    letters = dfa.alphabet.letters
    pivot = dfa.alphabet.index(letter)
    start = (s1, s1, False)
    goal = (s1, s2, True)
    parents: dict[tuple[int, int, bool], tuple | None] = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        p, q, placed = node
        for j in range(width):
            forward = dfa.delta[p][j]
            moves: list[tuple[tuple[int, int, bool], bool]] = [
                ((forward, q, placed), False)
            ]
            if not placed:
                moves.append(((forward, dfa.delta[q][j], False), True))
                if j == pivot and q == s2:
                    moves.append(((forward, s2, True), False))
            for target, into_y in moves:
                if target not in parents:
                    parents[target] = (node, j, into_y)
                    if target == goal:
                        return _rebuild_two_words(parents, target, letters)
                    queue.append(target)
    return None


def _rebuild_two_words(parents, node, letters) -> tuple[str, str]:
    all_parts: list[str] = []
    marked_parts: list[str] = []
    current = node
    while parents[current] is not None:
        previous, j, marked = parents[current]
        all_parts.append(letters[j])
        if marked:
            marked_parts.append(letters[j])
        current = previous
    return "".join(reversed(all_parts)), "".join(reversed(marked_parts))


def detect_p1(dfa: Dfa) -> PatternWitness | None:
    """First pattern: a loop at s1 embeds y plus the pivot letter, and the
    pivot step out of delta(s1, y) changes some later acceptance."""
    return _detect_p1(dfa, minimize(dfa))


def _detect_p1(dfa: Dfa, minimal: Dfa) -> PatternWitness | None:
    access = _access_words(dfa)
    reachable = sorted(access)
    classes = _classes(minimal, access)
    for j, a in enumerate(dfa.alphabet.letters):
        for s1 in reachable:
            for s2 in reachable:
                s3 = dfa.delta[s2][j]
                if classes[s2] == classes[s3]:
                    continue
                found = find_loop_with_embedded_extension(dfa, s1, s2, a)
                if found is None:
                    continue
                v, y = found
                return PatternWitness(
                    kind="P1",
                    letter=a,
                    x=access[s1],
                    v=v,
                    y=y,
                    z=_separator(dfa, s2, s3),
                    states=(s1, s2, s3),
                )
    return None


def _coupled_loop_search(
    dfa: Dfa, s1: int, s2: int, t3: int, t4: int, pivot: int
) -> tuple[str, str] | None:
    """Words (u, z) with u looping at both t3 and t4, z running s1 -> t3
    and s2 -> t4, and the pivot letter followed by z embedded in u.

    Nodes track the two loop runs, the two z runs and whether the pivot
    has been placed; z letters may only be placed after it.
    """
    width = len(dfa.alphabet)
    letters = dfa.alphabet.letters
    delta = dfa.delta
    start = (t3, t4, s1, s2, False)
    goal = (t3, t4, t3, t4, True)
    parents: dict[tuple, tuple | None] = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        g, h, p, q, placed = node
        for j in range(width):
            dg = delta[g][j]
            dh = delta[h][j]
            moves: list[tuple[tuple, bool]] = [((dg, dh, p, q, placed), False)]
            if placed:
                moves.append(((dg, dh, delta[p][j], delta[q][j], True), True))
            elif j == pivot:
                moves.append(((dg, dh, p, q, True), False))
            for target, into_z in moves:
                if target not in parents:
                    parents[target] = (node, j, into_z)
                    if target == goal:
                        return _rebuild_two_words(parents, target, letters)
                    queue.append(target)
    return None


def detect_p2(dfa: Dfa) -> PatternWitness | None:
    """Second pattern: a pivot step out of s1, then a shared word z driving
    both sides into a distinguishable pair of states that jointly loop on a
    word embedding the pivot followed by z."""
    return _detect_p2(dfa, minimize(dfa))


def _detect_p2(dfa: Dfa, minimal: Dfa) -> PatternWitness | None:
    access = _access_words(dfa)
    reachable = sorted(access)
    classes = _classes(minimal, access)
    for s1 in reachable:
        for j, a in enumerate(dfa.alphabet.letters):
            s2 = dfa.delta[s1][j]
            for t3 in reachable:
                for t4 in reachable:
                    if classes[t3] == classes[t4]:
                        continue
                    found = _coupled_loop_search(dfa, s1, s2, t3, t4, j)
                    if found is None:
                        continue
                    u, z = found
                    return PatternWitness(
                        kind="P2",
                        letter=a,
                        x=access[s1],
                        z=z,
                        u=u,
                        z_prime=_separator(dfa, t3, t4),
                        states=(s1, s2, t3, t4),
                    )
    return None


def detect_p3(dfa: Dfa) -> PatternWitness | None:
    """Third pattern, subsuming the other two: a P1 or P2 witness is one in
    its third-pattern form, and conversely the third pattern forces one of
    the other two to be present, so the disjunction is exact."""
    return _detect_p3(dfa, minimize(dfa))


def _detect_p3(dfa: Dfa, minimal: Dfa) -> PatternWitness | None:
    return _as_p3(dfa, _detect_p1(dfa, minimal) or _detect_p2(dfa, minimal))


def _joinable(dfa: Dfa, p: int, q: int, i: int, j: int) -> bool:
    """Some word w over letters i and j gives p.w == q.w: breadth-first
    search over state pairs driven by the same letter."""
    delta = dfa.delta
    seen = {(p, q)}
    queue = deque(seen)
    while queue:
        s, t = queue.popleft()
        if s == t:
            return True
        for c in (i, j):
            pair = (delta[s][c], delta[t][c])
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return False


def is_piecewise_testable(dfa: Dfa) -> bool:
    """Boolean combination of shuffle ideals, decided on the minimal
    automaton: every cycle is a self-loop, and for every state q and
    letters a < b some w over {a, b} gives q.aw == q.bw.

    O(k^2 n^3) at worst for n minimal states over k letters; the pattern
    detectors decide the same question by exhaustive search.
    """
    return _is_piecewise_testable(minimize(dfa))


def _is_piecewise_testable(minimal: Dfa) -> bool:
    if _topological_order(minimal) is None:
        return False
    width = len(minimal.alphabet)
    return all(
        _joinable(minimal, row[i], row[j], i, j)
        for row in minimal.delta
        for i in range(width)
        for j in range(i + 1, width)
    )
