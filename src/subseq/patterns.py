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
can be replayed against the automaton, or None.  Two states are
distinguishable exactly when their classes differ, the states of the
minimal automaton with their languages (Myhill-Nerode), which the one
minimization, ``_minimize``, lists.  The classes filter every candidate
pair, and a separating word is searched only for the pair a witness
names; it is the shortlex-least one.  Detection is deterministic: letters
in alphabet order, states in index order, and breadth-first searches that
try the letters in alphabet order.

There is one P1 search (``_cycle_witness``), polynomial: a P1 witness
with y = ε, so s2 = s1, whose loop v is found by one breadth-first search
over (state, pivot read yet).  A P1 witness exists exactly when the
minimal automaton has a cycle through distinct states.  If it has one, a
step of that cycle changes the minimal state, and following the cycle's
word from a reachable state repeats a state, which closes a loop that
reads the changing letter.  If not, every letter of a loop at s1 loops at
s1's minimal state, so do the y and pivot it embeds, and s2, s3 are not
distinguishable.

There is one P2 construction (``_detect_p2``), polynomial, on the square
automaton, whose node p·n + q steps p and q on the same letter, so a loop
at (t3, t4) loops at both.  Let B be the letters whose steps stay inside
the component of (t3, t4): every loop there reads a word over B, and
every word over B embeds in one that walks to a node whose step on the
next letter stays inside, takes it, and at the end walks back.  So
(s1, s1·a) has a P2 witness ending at (t3, t4) exactly when t3 and t4 are
distinguishable, a is in B, and a word z over B leads there.  One
component pass over the nodes reachable from every (s1, s1·a) gives each
target its B, one backward search per B marks the (s1, a) with a witness,
and for the first, s1 then a, a breadth-first search over B gives the
least target and z.  ``detect_p3`` and ``classify`` report the P1 witness
when there is one, the P2 one otherwise (``_witness``), as does the P3
line of ``patterns``.

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
from typing import NamedTuple

from .automata import Dfa, _components, _minimize, _topological_order, minimize
from .subword import is_subword

__all__ = [
    "PatternWitness",
    "detect_p1",
    "detect_p2",
    "detect_p3",
    "is_piecewise_testable",
]


class PatternWitness(NamedTuple):
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


_WITNESS_FIELDS = tuple(name for name in PatternWitness._fields if name != "kind")


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
        return w._replace(kind="P3", u="", z_prime="", states=states)
    if w.kind == "P2":
        s1, s2, s3, s4 = w.states
        return w._replace(kind="P3", v="", y="", states=(s1, s1, s2, s3, s4))
    raise ValueError(f"unknown pattern kind {w.kind!r}")


def _words(delta, letters: str, start: int, allowed: int) -> dict[int, str]:
    """Shortlex-least word from ``start`` to each node it reaches on the
    letters whose bit is set in ``allowed`` (-1: all), in breadth-first
    discovery order, letters in alphabet order."""
    words = {start: ""}
    queue = deque(words)
    while queue:
        s = queue.popleft()
        for j, t in enumerate(delta[s]):
            if allowed >> j & 1 and t not in words:
                words[t] = words[s] + letters[j]
                queue.append(t)
    return words


def _access(dfa: Dfa) -> dict[int, str]:
    """The shortlex-least word to each reachable state, in ``_words``'
    order: the access words every witness starts from."""
    return _words(dfa.delta, dfa.alphabet.letters, dfa.start, -1)


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


def _loop_letters(delta, starts) -> tuple[dict[int, int], dict[int, int]]:
    """The component in ``_components`` of each node reachable from
    ``starts``, and each component's letter mask: bit j is set when some
    step on letter j stays inside, so some loop at each node reads it."""
    component, roots = _components(delta, starts)
    masks = dict.fromkeys(roots, 0)
    for s, c in component.items():
        for j, t in enumerate(delta[s]):
            if component[t] == c:
                masks[c] |= 1 << j
    return component, masks


def _cycle_witness(dfa: Dfa, classes: list[int], access: dict[int, str]) -> PatternWitness | None:
    """The P1 witness with y = ε and s2 = s1 on an input whose minimal
    automaton has a cycle through distinct states, None on any other
    input, where no P1 witness exists (see the module docstring).

    The first letter a, then the first reachable state s1, such that the
    step s1·a changes minimal state and some loop at s1 reads a; v is the
    shortlex-least such loop.  A candidate whose loop search fails is
    dead.  The component pass is built lazily, at the first dead
    candidate, as ``_loop_letters``; from then on only the candidates it
    names are searched.  So at most one search fails, and the candidates,
    the searches and the component pass take O(k·n) steps; the
    separator's search over state pairs, O(k·n²), is the largest.
    ``access`` is ``_access(dfa)``.
    """
    letters = dfa.alphabet.letters
    reachable = sorted(access)
    masks = None
    for j, a in enumerate(letters):
        for s1 in reachable:
            s3 = dfa.delta[s1][j]
            if classes[s1] == classes[s3] or (masks and not masks[component[s1]] >> j & 1):
                continue
            v = _loop_reading(dfa.delta, letters, s1, j)
            if v is None:
                component, masks = _loop_letters(dfa.delta, [dfa.start])
                continue
            return PatternWitness(
                kind="P1",
                letter=a,
                x=access[s1],
                v=v,
                z=_separator(dfa, s1, s3),
                states=(s1, s1, s3),
            )
    return None


def _loop_reading(delta, letters: str, s1: int, pivot: int) -> str | None:
    """Shortlex-least word that runs from ``s1`` back to it and reads the
    pivot letter, None when there is none: breadth-first search over
    (state, pivot read yet), letters in alphabet order."""
    target = (s1, True)
    words = {(s1, False): ""}
    queue = deque(words)
    while queue:
        node = queue.popleft()
        s, read = node
        for j, t in enumerate(delta[s]):
            step = (t, read or j == pivot)
            if step not in words:
                words[step] = words[node] + letters[j]
                if step == target:
                    return words[step]
                queue.append(step)
    return None


def detect_p1(dfa: Dfa) -> PatternWitness | None:
    """First pattern: a loop at s1 embeds y plus the pivot letter, and the
    pivot step out of delta(s1, y) changes some later acceptance.  Here
    y = ε, so s2 = s1: the first letter a, then the first reachable s1 whose
    a-step changes minimal state and some loop at s1 reads a, with v the
    shortlex-least such loop (``_cycle_witness``)."""
    return _cycle_witness(dfa, _minimize(dfa)[1], _access(dfa))


def detect_p2(dfa: Dfa) -> PatternWitness | None:
    """Second pattern: a pivot step out of s1, then a shared word z driving
    both sides into a distinguishable pair of states that jointly loop on a
    word embedding the pivot followed by z."""
    return _detect_p2(dfa, _minimize(dfa)[1], _access(dfa))


def _detect_p2(dfa: Dfa, classes: list[int], access: dict[int, str]) -> PatternWitness | None:
    """The module docstring's P2 construction: the first reachable s1, then
    letter a, with a witness, and the least target (t3, t4) it reaches;
    ``access`` is ``_access(dfa)``."""
    n, letters = dfa.n_states, dfa.alphabet.letters
    square = [tuple(g * n + h for g, h in zip(p, q)) for p in dfa.delta for q in dfa.delta]
    sources = [s1 * n + s2 for s1 in sorted(access) for s2 in dfa.delta[s1]]
    component, masks = _loop_letters(square, sources)
    targets: dict[int, list[int]] = {}
    back: list[dict[int, set[int]]] = [{} for _ in letters]
    for node, c in component.items():
        if classes[node // n] != classes[node % n]:
            targets.setdefault(masks[c], []).append(node)
        for j, t in enumerate(square[node]):
            back[j].setdefault(t, set()).add(node)
    # per mask, the nodes with a path over its letters into its targets
    live: dict[int, set[int]] = {}
    for mask, group in targets.items():
        marked = live[mask] = set(group)
        stack = list(group)
        while stack:
            t = stack.pop()
            for j, predecessors in enumerate(back):
                if mask >> j & 1:
                    fresh = predecessors.get(t, set()) - marked
                    marked |= fresh
                    stack.extend(fresh)
    for s1 in sorted(access):
        for j, a in enumerate(letters):
            source = s1 * n + dfa.delta[s1][j]
            reached = {}
            for mask, marked in live.items():
                if mask >> j & 1 and source in marked:
                    words = _words(square, letters, source, mask)
                    reached.update((t, words[t]) for t in targets[mask] if t in words)
            if reached:
                target = min(reached)
                t3, t4 = divmod(target, n)
                return PatternWitness(
                    kind="P2",
                    letter=a,
                    x=access[s1],
                    z=reached[target],
                    u=_loop_through(square, letters, component, masks, target, a + reached[target]),
                    z_prime=_separator(dfa, t3, t4),
                    states=(s1, dfa.delta[s1][j], t3, t4),
                )
    return None


def _loop_through(square, letters: str, component, masks, target: int, word: str) -> str:
    """A loop at ``target`` that embeds ``word``, whose letters all loop
    there: for each letter c, a shortest walk to the nearest node whose
    c-step stays in the component, that step, and at the end a walk back.
    Each node's search runs once, however often the walk comes back to it."""
    home, node, parts = component[target], target, []
    searches: dict[int, dict[int, str]] = {}

    def words_from(start: int) -> dict[int, str]:
        if start not in searches:
            searches[start] = _words(square, letters, start, masks[home])
        return searches[start]

    for c in word:
        j = letters.index(c)
        words = words_from(node)
        p = next(p for p in words if component[square[p][j]] == home)
        parts.append(words[p] + c)
        node = square[p][j]
    parts.append(words_from(node)[target])
    return "".join(parts)


def detect_p3(dfa: Dfa) -> PatternWitness | None:
    """Third pattern, subsuming the other two: a P1 or P2 witness is one in
    its third-pattern form, and conversely the third pattern forces one of
    the other two to be present, so the disjunction is exact."""
    return _witness(dfa, _minimize(dfa)[1])


def _witness(dfa: Dfa, classes: list[int]) -> PatternWitness | None:
    """``detect_p3`` given ``classes``, each state's class from ``_minimize``;
    both searches share one table of access words."""
    access = _access(dfa)
    return _as_p3(dfa, _cycle_witness(dfa, classes, access) or _detect_p2(dfa, classes, access))


def is_piecewise_testable(dfa: Dfa) -> bool:
    """Boolean combination of shuffle ideals, decided on the minimal
    automaton: every cycle is a self-loop, and for every state q and
    letters a < b some w over {a, b} gives q.aw == q.bw.

    O(k^2 n) for n minimal states over k letters: one pass per letter pair
    over the states in reverse topological order.  With every cycle a
    self-loop the {a, b}-steps that change the state terminate, so by
    Newman's lemma local confluence is confluence: every state reaches
    exactly one state that loops on both letters, and q is confluent
    exactly when q.a and q.b reach the same one.  ``detect_p3`` decides
    the same question by its P1 search and its P2 construction.
    """
    minimal = minimize(dfa)
    return _is_piecewise_testable(minimal, _topological_order(minimal))


def _is_piecewise_testable(minimal: Dfa, order: list[int] | None) -> bool:
    """The test on ``minimal`` and its ``_topological_order``, None when
    some cycle is not a self-loop."""
    if order is None:
        return False
    width = len(minimal.alphabet)
    for i in range(width):
        for j in range(i + 1, width):
            sink = [0] * minimal.n_states
            for q in reversed(order):
                row = minimal.delta[q]
                ends = {sink[t] for t in (row[i], row[j]) if t != q}
                if len(ends) > 1:
                    return False
                sink[q] = ends.pop() if ends else q
    return True
