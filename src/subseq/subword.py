"""The subword (scattered subsequence) order and the bottom half-level of
the hierarchy: shuffle ideals, upward closure, the membership test for
upward closed regular languages, and their canonical decomposition into a
union of shuffle ideals.

Level 1/2 is tested without building the upward closure, whose subset
construction can be exponential in the states: a language is upward closed
exactly when inserting one letter anywhere never leaves it, which on a
complete automaton is the inclusion L_q <= L_{q.a} for every state q and
letter a.  One search over state pairs decides it on the minimal
automaton, skipping every pair that reachability and transitivity already
settle: at most O(k n^2) steps for n states and k letters, and close to
linear on the long chains of shuffle ideals of single words.

The upward closure itself, which every level of the alternation chains
needs, is a subset construction that stops at accepting subsets: once the
word read so far has an accepted subword, so has every extension of it,
so such a subset has the residual Σ* and nothing past it needs building.
Every state may stay put on every letter, so a subset contains the one it
was reached from, and it steps only the states it adds to that one: the
rest of its step is its predecessor's, already built.  As subsets only
grow, the subset automaton has no cycle but self-loops, and the closure is
built minimal in one bottom-up pass over it, with no partition refinement.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple

from .automata import Alphabet, Dfa, _topological_order, _unchecked_dfa, complement, minimize
from .errors import NotUpwardClosedError

__all__ = [
    "is_subword",
    "shuffle_ideal",
    "upward_closure",
    "is_level_one_half",
    "is_co_level_one_half",
    "IdealDecomposition",
    "decompose_level_half",
]


def is_subword(w: str, v: str) -> bool:
    """True when w occurs in v as a scattered subsequence.

    Letters must appear in order but need not be contiguous; the empty
    word is a subword of everything.  Greedy left-to-right matching.
    """
    letters = iter(v)
    return all(ch in letters for ch in w)


def shuffle_ideal(word: str, alphabet: Alphabet) -> Dfa:
    """Minimal automaton for the words containing ``word`` as a subword.

    State i means the first i letters of ``word`` have been matched; the
    final state is absorbing and accepting.  shuffle_ideal("", a) accepts
    every word over a.
    """
    n = len(word)
    width = len(alphabet)
    rows = []
    for i in range(n):
        advance = alphabet.index(word[i])
        rows.append(tuple(i + 1 if j == advance else i for j in range(width)))
    rows.append((n,) * width)
    return Dfa(alphabet, n + 1, tuple(rows), 0, frozenset({n}))


def upward_closure(dfa: Dfa) -> Dfa:
    """Minimal automaton for the words with some accepted word as a subword.

    These are the words the input accepts when it may skip letters at
    will, that is, with a self-loop on every letter at every state; this
    is the subset construction of that machine, done directly, and minimal
    by construction, with no call to ``minimize``.

    Subsets are bit masks on the input states, built depth-first from
    {start} with an explicit stack, and S steps on letter a to S | S.a
    through the per-state masks (1 << s) | (1 << s.a).  A subset only
    grows: a subset T first reached from S contains S, and the image of a
    union is the union of the images, so T's step on every letter is S's,
    OR-ed with the masks of the states in T & ~S, and T steps only the
    states it adds.  A subset that meets the accepting states is not
    expanded: reaching it means the word read so far has an accepted
    subword, which stays a subword of every extension, so its residual is
    Σ*, and every accepting subset is in that one class.  The number of
    subsets can still be exponential in the states.

    Since subsets only grow, every cycle of the subset automaton is a
    self-loop, and the search finishes a subset after every other subset
    it steps to.  A finishing subset S, which rejects, builds its row of
    successor classes with each self-loop marked, and takes its class in
    this order (Revuz, TCS 1992, for automata with no cycles at all):

    1. the class that a register, keyed on marked rows, holds for its row;
    2. else a successor class c other than Σ* whose row is the marked row
       with the marks read as c: S is equivalent to a larger subset;
    3. else a new class, whose row is the marked row with the marks read
       as the new class.

    The rule is exact.  Quotienting an automaton whose only cycles are
    self-loops leaves only self-loop cycles, so the class of S is either
    the class of one of its successors, which rule 2 finds, or a class
    whose transitions back into itself are exactly the self-loops of S.
    The first subset of such a class had no successor in it, so it
    registered the same marked row, and rule 1 finds it.  Rules 1 and 2
    match only rows that agree letter for letter, so the class they give
    is S's, and Σ*, which accepts, is never the class of a rejecting S.

    The classes reached are then numbered breadth-first from the start's,
    with letters in alphabet order, as ``minimize`` numbers its blocks, so
    the result is the value ``minimize`` gives on the subset automaton.
    """
    classes, rows = _subset_classes(dfa)
    canonical = [-1] * len(rows)
    first = classes[1 << dfa.start]
    canonical[first] = 0
    order = [first]
    out = []
    for c in order:
        row = []
        for t in rows[c]:
            if canonical[t] < 0:
                canonical[t] = len(order)
                order.append(t)
            row.append(canonical[t])
        out.append(tuple(row))
    accepting = frozenset({canonical[0]}) if canonical[0] >= 0 else frozenset()
    return _unchecked_dfa(dfa.alphabet, len(order), tuple(out), 0, accepting)


def _subset_classes(dfa: Dfa) -> tuple[dict[int, int], list[tuple[int, ...]]]:
    """The subsets ``upward_closure`` reaches, each with its class, keyed
    by its bit mask on the input states, and the row of successor classes
    of each class.  Class 0 is Σ*, the class of every accepting subset."""
    width = len(dfa.alphabet)
    move = [[(1 << s) | (1 << t) for t in row] for s, row in enumerate(dfa.delta)]
    accept_mask = sum(1 << s for s in dfa.accepting)
    rows = [(0,) * width]
    start = 1 << dfa.start
    if start & accept_mask:
        return {start: 0}, rows
    classes: dict[int, int] = {}
    register: dict[tuple[int, ...], int] = {}
    targets = move[dfa.start]
    # the open subsets, each with its targets and an iterator over them
    work = [(start, targets, iter(targets))]
    while work:
        mask, targets, untried = work[-1]
        for target in untried:
            if target == mask or target in classes:
                continue
            if target & accept_mask:
                classes[target] = 0
                continue
            stepped = targets.copy()
            added = target & ~mask
            while added:
                low = added & -added
                added ^= low
                for j, bits in enumerate(move[low.bit_length() - 1]):
                    stepped[j] |= bits
            work.append((target, stepped, iter(stepped)))
            break
        else:
            work.pop()
            marked = tuple([-1 if t == mask else classes[t] for t in targets])
            c = register.get(marked)
            if c is None:
                for c in marked:
                    if c > 0 and rows[c] == tuple(c if t < 0 else t for t in marked):
                        break
                else:
                    c = len(rows)
                    rows.append(tuple(c if t < 0 else t for t in marked))
                register[marked] = c
            classes[mask] = c
    return classes, rows


def _is_upward_closed(dfa: Dfa, order: list[int] | None) -> bool:
    """Does inserting one letter never leave the language?

    ``dfa`` must be minimal and ``order`` its ``_topological_order``.
    uv in L implies uav in L exactly when L_q <= L_{q.a} for every
    reachable state q and letter a.  In the minimal automaton of an
    upward closed language every cycle is a self-loop (see
    ``decompose_level_half``), so a None order answers False at once.
    Otherwise a depth-first search over state pairs (p, r), seeded with
    every edge (q, q.a) for q.a != q and stepping both states on the same
    letter, looks for p accepting while r rejects.  It never pushes a
    stepped pair (s, t) with t reachable from s: such a pair lies on a
    path of seed edges, each of which the search checks itself, and
    inclusion is transitive, so what the search accepts is a simulation
    up to transitivity.  Reachability is a bit set per state, filled in
    one pass in reverse topological order.  The pairs visited are a subset
    of all n^2; on the chain of a shuffle ideal of a word, each seed steps
    only into reachable pairs, and the search is linear in the states up
    to the bit-set operations.
    """
    if order is None:
        return False
    n = dfa.n_states
    delta = dfa.delta
    reach = [0] * n
    for q in reversed(order):
        bits = 1 << q
        for t in delta[q]:
            if t != q:
                bits |= reach[t]
        reach[q] = bits
    accepting = bytearray(n)
    for s in dfa.accepting:
        accepting[s] = 1
    seen = set()
    stack = []
    for q, row in enumerate(delta):
        for t in row:
            key = q * n + t
            if t != q and key not in seen:
                seen.add(key)
                stack.append(key)
    while stack:
        p, r = divmod(stack.pop(), n)
        if accepting[p] and not accepting[r]:
            return False
        for s, t in zip(delta[p], delta[r]):
            if not reach[s] >> t & 1:
                key = s * n + t
                if key not in seen:
                    seen.add(key)
                    stack.append(key)
    return True


def _insertion_witness(dfa: Dfa) -> str | None:
    """Shortlex-least u + a + v with u + v accepted and u + a + v rejected.

    Every shortest word of the upward closure outside the language has
    this form (delete letters one at a time down to an accepted subword;
    the last rejected word on the way is no longer), so this is also the
    shortlex-least word of closure minus language.  A node is a state
    before the letter is inserted, or a pair (p, r) after it, p running
    u + v and r running u + a + v; the search stops at the first pair with
    p accepting and r rejecting, None when there is none.  Inserting makes
    the search nondeterministic, so it runs breadth-first over groups:
    the nodes first reached by one word, expanded together one letter at a
    time in alphabet order, which reaches every node by its shortlex-least
    word.
    """
    n = dfa.n_states
    letters = dfa.alphabet.letters
    delta = dfa.delta
    accepting = dfa.accepting
    seen = {dfa.start}
    links: list[tuple[int, str]] = [(-1, "")]
    groups = deque([(0, [dfa.start])])
    while groups:
        index, nodes = groups.popleft()
        for j, ch in enumerate(letters):
            fresh = []
            for node in nodes:
                if node < n:
                    t = delta[node][j]
                    targets = (t, n + node * n + t) if t != node else (t,)
                else:
                    p, r = divmod(node - n, n)
                    s, t = delta[p][j], delta[r][j]
                    targets = (n + s * n + t,) if s != t else ()
                for target in targets:
                    if target in seen:
                        continue
                    seen.add(target)
                    fresh.append(target)
                    if target < n:
                        continue
                    p, r = divmod(target - n, n)
                    if p in accepting and r not in accepting:
                        parts = [ch]
                        while index > 0:
                            index, letter = links[index]
                            parts.append(letter)
                        return "".join(reversed(parts))
            if fresh:
                links.append((index, ch))
                groups.append((len(links) - 1, fresh))
    return None


def is_level_one_half(dfa: Dfa) -> bool:
    """Is the language a finite union of shuffle ideals?

    Equivalent to being upward closed, which is checked on the minimal
    automaton by single-letter insertion (see ``_is_upward_closed``),
    without the upward closure: at most O(k n^2) steps for n states and k
    letters, and about k n on the chain of a long word's ideal.
    """
    closed = minimize(dfa)
    return _is_upward_closed(closed, _topological_order(closed))


def is_co_level_one_half(dfa: Dfa) -> bool:
    """Is the complement a finite union of shuffle ideals?"""
    return is_level_one_half(complement(dfa))


class _DecompositionFields(NamedTuple):
    words: tuple[str, ...]


class IdealDecomposition(_DecompositionFields):
    """An upward closed language written as a union of shuffle ideals.

    ``words`` is an antichain under the subword order (no word embeds in
    another), sorted by length then alphabetically; two automata for the
    same language always decompose to the same value.  The constructor
    checks the antichain on the pairs with len(w) < len(v) alone: a
    subword of v as long as v is v itself, so it raises on exactly the
    inputs a check of every pair of distinct words raises on, naming the
    same pair, and makes no subword test when the words have one length.
    """

    __slots__ = ()

    def __new__(cls, words: tuple[str, ...]) -> IdealDecomposition:
        for w in words:
            for v in words:
                if len(w) < len(v) and is_subword(w, v):
                    raise ValueError(
                        f"decomposition is not an antichain: {w!r} embeds in {v!r}"
                    )
        return tuple.__new__(cls, (words,))

    @classmethod
    def _make(cls, iterable: Iterable) -> IdealDecomposition:
        # ``_replace`` builds its result here: keep it checked
        return cls(*iterable)


def decompose_level_half(dfa: Dfa) -> IdealDecomposition:
    """Canonical shuffle-ideal decomposition of an upward closed language.

    The returned words are the subword-minimal members of the language,
    computed on its minimal automaton, which once the check passes is also
    that of its upward closure.  Let Min(q) be the minimal words of the
    residual language L_q.  In an upward closed language L_q is contained
    in L_{q.a}, so states on a cycle have equal residuals, and in a
    minimal automaton every cycle is a self-loop; the states therefore
    have a topological order, and Min is filled in one pass in reverse of
    it (see ``_minimal_words`` for the rule), with at most one run of the
    automaton per candidate word and no subword test.  Every residual of a
    union of k ideals is a union of at most k ideals, so |Min(q)| <= k and
    the pass is polynomial in the states and k.

    Raises NotUpwardClosedError, carrying the shortlex-least word of the
    upward closure that the language rejects, when the language is not
    upward closed.
    """
    closed = minimize(dfa)
    order = _topological_order(closed)
    if not _is_upward_closed(closed, order):
        witness = _insertion_witness(closed)
        raise NotUpwardClosedError(
            f"language is not upward closed: {witness!r} extends an accepted word "
            "but is not accepted",
            witness=witness,
        )
    return IdealDecomposition(_minimal_words(closed, order))


def _minimal_words(closed: Dfa, order: list[int]) -> tuple[str, ...]:
    """The Min(q) pass of ``decompose_level_half``, on its minimal automaton.

    Min(q) is [""] when q accepts.  Otherwise it is exactly the words
    a + w with q.a != q, w in Min(q.a) and w not in L_q, and whether w
    is in L_q is one run of w from q.  Every minimal word of L_q has
    this form: it cannot start with a self-loop letter, since the word
    without that letter is still in L_q, and if a + w is minimal in L_q,
    w is minimal in L_{q.a}.  Conversely, a proper subword of a + w is
    either a + w'' with w'' a proper subword of w, and w'' is not in
    L_{q.a} because w is minimal there, or a subword of w itself; and if
    w is not in L_q, no subword of w is, because L_q is upward closed.
    The words a + w are distinct, so the kept list needs no
    deduplication.

    When a is the only letter that leaves q, every candidate is kept with
    no run: reading w from q stays at q until w's first a, then reads a
    proper subword of w from q.a, which is not in L_{q.a}.  So a long
    chain, where every state has one such letter, costs one string per
    state and no run, and stays linear in the states, where a run per
    state would make the ideal of one long word quadratic.

    The lists are left unsorted on the way; only the start state's words
    are sorted, by length then alphabetically.  With |Min(q)| <= k, a
    state costs at most k runs per letter that leaves it, each no longer
    than the longest minimal word, where the pruning by subword tests it
    replaces cost up to k^2 tests per state.
    """
    letters = closed.alphabet.letters
    accepting = closed.accepting
    run = closed.run
    minimal: dict[int, list[str]] = {}
    for q in reversed(order):
        if q in accepting:
            minimal[q] = [""]
            continue
        moves = [(a, t) for a, t in zip(letters, closed.delta[q]) if t != q]
        if len(moves) == 1:
            a, t = moves[0]
            minimal[q] = [a + w for w in minimal[t]]
        else:
            minimal[q] = [
                a + w for a, t in moves for w in minimal[t] if run(w, q) not in accepting
            ]
    words = minimal[closed.start]
    words.sort(key=lambda w: (len(w), w))
    return tuple(words)
