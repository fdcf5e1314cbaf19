"""Deterministic-automaton algebra everything else is built on: ordered
alphabets, complete deterministic automata, canonical minimization,
boolean products, complement and emptiness.  The one nondeterministic
construction the hierarchy needs, the upward closure, lives in ``subword``
and comes out minimal by construction, in the canonical form of
``minimize``; every other automaton that needs it, the level walk's
products included, is minimized here, by Moore's and Hopcroft's
refinements.

Deterministic automata are complete by construction: the transition table
is dense, so completeness is structural, and every operation returns a
machine that is still complete.  Minimization refines the partition in
Moore rounds, each one pass over the whole table, and hands chain-like
inputs, which Moore would peel one state per round, over to Hopcroft's
refinement; O(k·n log n) for k letters and n states in all.  A
breadth-first renumbering from the start state following alphabet order
follows.  The renumbering, not the order of the splits, makes equal
languages minimize to structurally identical values; golden tests rely on
that.

One component pass, ``_components`` (Tarjan, SIAM J. Comput. 1972),
answers every cycle question: ``_topological_order`` reads off it whether
every cycle is a self-loop, and ``patterns`` which letters loop at a state,
of the automaton or of its square.

All types are immutable after construction and operations are pure
functions, so values can be shared freely between threads.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import AlphabetMismatchError, InputError

__all__ = [
    "Alphabet",
    "Dfa",
    "minimize",
    "product",
    "complement",
    "intersection",
    "union",
    "difference",
    "is_empty",
    "empty_language",
    "universal_language",
]


class Alphabet:
    """Ordered, duplicate-free collection of single-character letters.

    Iteration order is the declared order; it drives state numbering and
    witness tie-breaking everywhere, so it is part of the value.
    """

    __slots__ = ("letters", "_index")

    def __init__(self, letters: Iterable[str]) -> None:
        letters = tuple(letters)
        if not letters:
            raise InputError("alphabet must contain at least one letter")
        index: dict[str, int] = {}
        for i, ch in enumerate(letters):
            # whitespace separates the tokens of the native format
            if not isinstance(ch, str) or len(ch) != 1 or not ch.isprintable() or ch.isspace():
                raise InputError(
                    f"alphabet letter {ch!r} is not a single printable non-space character"
                )
            if ch in index:
                raise InputError(f"duplicate alphabet letter {ch!r}")
            index[ch] = i
        self.letters = letters
        self._index = index

    def index(self, letter: str) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise InputError(
                f"letter {letter!r} is not in alphabet {''.join(self.letters)!r}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, letter: object) -> bool:
        return letter in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.letters)!r})"


class _DfaFields(NamedTuple):
    alphabet: Alphabet
    n_states: int
    delta: tuple[tuple[int, ...], ...]
    start: int
    accepting: frozenset[int]


class Dfa(_DfaFields):
    """Complete deterministic finite automaton.

    ``delta[s][j]`` is the successor of state ``s`` on the j-th letter of
    the alphabet; the table has one row per state and one column per
    letter, so there is no way to leave a transition undefined.
    """

    __slots__ = ()

    def __new__(
        cls,
        alphabet: Alphabet,
        n_states: int,
        delta: tuple[tuple[int, ...], ...],
        start: int,
        accepting: frozenset[int],
    ) -> Dfa:
        if n_states < 1:
            raise InputError("automaton needs at least one state")
        if len(delta) != n_states:
            raise InputError("transition table must have one row per state")
        width = len(alphabet)
        for s, row in enumerate(delta):
            if len(row) != width:
                raise InputError(f"state {s}: transition row must cover every letter")
            for t in row:
                if not 0 <= t < n_states:
                    raise InputError(f"state {s}: transition target {t} out of range")
        if not 0 <= start < n_states:
            raise InputError(f"start state {start} out of range")
        for s in accepting:
            if not 0 <= s < n_states:
                raise InputError(f"accepting state {s} out of range")
        return tuple.__new__(cls, (alphabet, n_states, delta, start, accepting))

    @classmethod
    def _make(cls, iterable: Iterable) -> Dfa:
        # ``_replace`` builds its result here: keep it checked
        return cls(*iterable)

    def step(self, state: int, letter: str) -> int:
        return self.delta[state][self.alphabet.index(letter)]

    def run(self, word: str, start: int | None = None) -> int:
        """State reached from ``start`` (default: the start state) on ``word``."""
        state = self.start if start is None else start
        index = self.alphabet._index
        delta = self.delta
        try:
            for ch in word:
                state = delta[state][index[ch]]
        except KeyError:
            # raises the InputError that names the letter and the alphabet
            self.alphabet.index(ch)
            raise
        return state

    def accepts(self, word: str) -> bool:
        return self.run(word) in self.accepting


def _unchecked_dfa(
    alphabet: Alphabet,
    n_states: int,
    delta: tuple[tuple[int, ...], ...],
    start: int,
    accepting: frozenset[int],
) -> Dfa:
    """A ``Dfa`` from values the caller built valid, without the checks of
    ``Dfa.__new__``, which visit every transition."""
    return tuple.__new__(Dfa, (alphabet, n_states, delta, start, accepting))


def _require_same_alphabet(d1: Dfa, d2: Dfa) -> None:
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {d1.alphabet!r} vs {d2.alphabet!r}"
        )


def _hopcroft(dfa: Dfa, block: list[int], count: int) -> int:
    """Hopcroft's refinement of the partition ``block`` (state -> block id
    in ``range(count)``).  Refines ``block`` in place to the coarsest
    congruence that refines it and returns its number of blocks.

    Every block starts pending: splitting by all of them is one O(k·n)
    pass over the preimages, and the halving rule below keeps the rest
    O(k·n log n).
    """
    delta = dfa.delta
    blocks: list[set[int]] = [set() for _ in range(count)]
    for s, b in enumerate(block):
        blocks[b].add(s)
    pending = list(range(count))

    # Pop a pending block B and split every block by the preimage a⁻¹B,
    # for every letter a.  A split keeps the larger part under the old id
    # and queues the smaller one, so a pending id still covers the larger
    # part, and a settled whole with its queued part settles the larger
    # part too.  A state is queued only when its block at least halves, so
    # O(log n) times, and costs its k preimage lists each time.
    inverse = [[[] for _ in delta] for _ in dfa.alphabet]
    for s, row in enumerate(delta):
        for pre, t in zip(inverse, row):
            pre[t].append(s)
    while pending:
        splitter = tuple(blocks[pending.pop()])
        for pre in inverse:
            touched: dict[int, list[int]] = {}
            for t in splitter:
                for p in pre[t]:
                    if block[p] in touched:
                        touched[block[p]].append(p)
                    else:
                        touched[block[p]] = [p]
            for b, hit in touched.items():
                members = blocks[b]
                if len(hit) == len(members):
                    continue
                part = set(hit)
                if 2 * len(part) <= len(members):
                    members -= part
                else:
                    part, blocks[b] = members - part, part
                pending.append(len(blocks))
                for p in part:
                    block[p] = len(blocks)
                blocks.append(part)
    return len(blocks)


def minimize(dfa: Dfa) -> Dfa:
    """Language-equivalent minimal automaton in canonical form.

    Moore's refinement over all states, handing over to Hopcroft's on
    chain-like inputs, in O(k·n log n) for k letters and n states, then a
    breadth-first renumbering from the start state with letters in
    alphabet order.  The refinement fixes only which states merge; the
    renumbering fixes their numbers and is the only reachability pass,
    dropping the blocks no reachable state is in, so two inputs with the
    same language come out structurally equal whatever order the blocks
    were split in.  Idempotent.

    A Moore round splits every block by the blocks of its states'
    successors, in one pass over the table; random automata need
    O(log n) rounds on average (Bassino, David and Nicaud, STACS 2009).
    A chain peeled one state per round would need n of them, so after a
    round that splits off a single block while fewer than n/4 exist, or
    after ``n.bit_length() + 2`` rounds, ``_hopcroft`` finishes the job.
    """
    return _minimize(dfa)[0]


def _minimize(dfa: Dfa) -> tuple[Dfa, list[int]]:
    """``minimize``, and each input state's class: the state of the result
    with its language, -1 when no reachable state has that language."""
    n = dfa.n_states
    delta = dfa.delta
    final = dfa.accepting
    block = [0] * n
    count = 1
    # one block is stable already: every state has the same language
    if 0 < len(final) < n:
        for s in final:
            block[s] = 1
        count = 2
        columns = list(zip(*delta))
        rounds_left = n.bit_length() + 2
        while count < n:
            ids: dict[tuple[int, ...], int] = {}
            block = [
                ids.setdefault(key, len(ids))
                for key in zip(block, *[map(block.__getitem__, c) for c in columns])
            ]
            split, count = len(ids) - count, len(ids)
            rounds_left -= 1
            # a partition of singletons is stable without another round
            if split == 0 or count == n:
                break
            if (split == 1 and 4 * count < n) or rounds_left == 0:
                count = _hopcroft(dfa, block, count)
                break

    # the final partition is a congruence, so any member represents its block
    representative = [-1] * count
    for s, b in enumerate(block):
        representative[b] = s

    canonical = [-1] * count
    canonical[block[dfa.start]] = 0
    block_order = [block[dfa.start]]
    rows = []
    for b in block_order:
        row = []
        for t in delta[representative[b]]:
            tb = block[t]
            if canonical[tb] < 0:
                canonical[tb] = len(block_order)
                block_order.append(tb)
            row.append(canonical[tb])
        rows.append(tuple(row))
    accepting = frozenset(
        canonical[b] for b in block_order if representative[b] in dfa.accepting
    )
    minimal = _unchecked_dfa(dfa.alphabet, len(block_order), tuple(rows), 0, accepting)
    return minimal, list(map(canonical.__getitem__, block))


def product(d1: Dfa, d2: Dfa, combine: Callable[[bool, bool], bool]) -> Dfa:
    """Boolean product: accepts w exactly when combine(w in L1, w in L2).

    Only state pairs reachable from the joint start are materialized.
    """
    _require_same_alphabet(d1, d2)
    start = (d1.start, d2.start)
    ids = {start: 0}
    pairs = [start]
    rows = []
    # the pairs in order of discovery are the breadth-first queue
    for p, q in pairs:
        row = []
        for target in zip(d1.delta[p], d2.delta[q]):
            if target not in ids:
                ids[target] = len(pairs)
                pairs.append(target)
            row.append(ids[target])
        rows.append(tuple(row))
    accepting = frozenset(
        i
        for i, (p, q) in enumerate(pairs)
        if combine(p in d1.accepting, q in d2.accepting)
    )
    return _unchecked_dfa(d1.alphabet, len(pairs), tuple(rows), 0, accepting)


def intersection(d1: Dfa, d2: Dfa) -> Dfa:
    return product(d1, d2, lambda a, b: a and b)


def union(d1: Dfa, d2: Dfa) -> Dfa:
    return product(d1, d2, lambda a, b: a or b)


def difference(d1: Dfa, d2: Dfa) -> Dfa:
    return product(d1, d2, lambda a, b: a and not b)


def complement(dfa: Dfa) -> Dfa:
    """Same machine with the accepting set inverted."""
    accepting = frozenset(range(dfa.n_states)) - dfa.accepting
    return _unchecked_dfa(dfa.alphabet, dfa.n_states, dfa.delta, dfa.start, accepting)


def is_empty(dfa: Dfa) -> bool:
    """True when no accepting state is reachable from the start state."""
    seen = {dfa.start}
    stack = [dfa.start]
    while stack:
        s = stack.pop()
        if s in dfa.accepting:
            return False
        for t in dfa.delta[s]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return True


def _components(delta, starts: Iterable[int]) -> tuple[dict[int, int], list[int]]:
    """Strongly connected components of the states reachable from
    ``starts`` in the transition table ``delta``: each state's component,
    named by its root, and the roots in the order their components close,
    which is a reverse topological order of the components.  Tarjan's
    algorithm with an explicit stack of (state, successors left), so deep
    automata need no recursion."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    component: dict[int, int] = {}
    roots, open_states, work = [], [], []
    for start in starts:
        if start in index:
            continue
        index[start] = low[start] = len(index)
        open_states.append(start)
        work.append((start, iter(delta[start])))
        while work:
            s, successors = work[-1]
            for t in successors:
                if t not in index:
                    index[t] = low[t] = len(index)
                    open_states.append(t)
                    work.append((t, iter(delta[t])))
                    break
                if t not in component and index[t] < low[s]:
                    low[s] = index[t]
            else:
                work.pop()
                if work and low[s] < low[work[-1][0]]:
                    low[work[-1][0]] = low[s]
                if low[s] == index[s]:
                    roots.append(s)
                    while True:
                        t = open_states.pop()
                        component[t] = s
                        if t == s:
                            break
    return component, roots


def _topological_order(dfa: Dfa) -> list[int] | None:
    """States ordered so that every edge s -> t with s != t points forward,
    None when some cycle is not a self-loop: the reversed roots of
    ``_components`` when every component is a single state.  ``dfa`` must
    be minimal, as every caller's is, so every state is reachable and the
    order holds them all."""
    component, roots = _components(dfa.delta, [dfa.start])
    return roots[::-1] if len(roots) == len(component) else None


def empty_language(alphabet: Alphabet) -> Dfa:
    width = len(alphabet)
    return Dfa(alphabet, 1, ((0,) * width,), 0, frozenset())


def universal_language(alphabet: Alphabet) -> Dfa:
    width = len(alphabet)
    return Dfa(alphabet, 1, ((0,) * width,), 0, frozenset({0}))
