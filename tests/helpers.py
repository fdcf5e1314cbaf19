"""Shared corpus builders and independent brute-force oracles for the tests.

The oracles here deliberately avoid the library's own algorithms: subword
checks go through explicit position subsets, language slices through
direct simulation, and chain levels through a tuple-state automaton that
guesses the whole chain at once, so agreement is meaningful.  The general
nondeterministic automaton, its subset construction, reversal and language
equivalence live here too: the library needs none of them, and the tests
use them as second constructions, as does the subset construction that
steps every state of every subset, the reference for the upward
closure's incremental one, and so do the string-keyed chain table
that the library's index-keyed one is checked against, with the reach
of each word beside it, a per-level walk over word deletions that the
levels read off the chain table's depth fields are checked against,
the oracle's comparison with one stepping pass per automaton, its
spread by lazy iterators and its depths by one list max per word, the
references for its joint pass over state tuples, its slice copies and
its depth lanes,
Moore's minimization over the reachable states, one state at a time,
the reference for the library's whole-table rounds and their handover
to Hopcroft's refinement, the unpruned all-pairs insertion search,
the reference for the
library's search that skips pairs settled by reachability, a backward
all-pairs table of separating words, the reference for the pattern
detectors' minimal-automaton classes and their separating words, and a
separate level walk per side, the reference for the single walk that
gives both chains, the minimal words of each residual by pairwise
subword pruning and the antichain check over every ordered pair, the
references for the decomposition's one run per candidate and its check
over length-increasing pairs, and a parser of the automaton file format
that keeps a (token, column) pair per token and a (state, letter)
table, the reference for the library's split-based one.  The witness replay with one
equation list per pattern kind is the reference for the library's single
replay of the third-pattern form.  The exhaustive P1 search over every
(letter, s1, s2), with its detector, is the independent oracle for
whether a P1 witness exists; the exhaustive P2 loop search over the
automaton itself, with its detector, is the independent oracle for
whether a P2 witness exists, against the library's construction on the
square automaton; and the access words with a minimal-automaton run per
state are the reference for the detectors' access words and classes.  The P1 witness, spelled
out by its definition with plain reachability and shortlex enumeration
of loop words, is the reference for the one P1 search.  A report serializer that
spells out every key is the reference for the one that reads the
record's fields.  A breadth-first joinability search per state and
letter pair is the reference for the piecewise-testability test's single
pass per letter pair.
"""

from __future__ import annotations

import itertools
import operator
import random
import re
import sys
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from subseq.alternation import (
    AlternationMeasure,
    ClassificationReport,
    _shifts,
    _Walk,
    mk_witness,
)
from subseq.automata import (
    Alphabet,
    Dfa,
    _topological_order,
    complement,
    intersection,
    is_empty,
    minimize,
    product,
    universal_language,
)
from subseq.errors import InputError, ParseError
from subseq import oracle
from subseq.oracle import BoundedChainTable
from subseq.patterns import PatternWitness, _separator, is_piecewise_testable
from subseq.subword import is_subword, shuffle_ideal, upward_closure

AB = Alphabet("ab")


def words_up_to(letters, n):
    """All words over ``letters`` of length at most n, shortest first."""
    out = []
    for length in range(n + 1):
        out.extend("".join(t) for t in itertools.product(letters, repeat=length))
    return out


def naive_is_subword(w, v):
    """Embedding check by trying every position subset of v."""
    return any(
        "".join(v[i] for i in positions) == w
        for positions in itertools.combinations(range(len(v)), len(w))
    )


def lang_slice(dfa, n, letters="ab"):
    """The words of length at most n that the automaton accepts."""
    return {w for w in words_up_to(letters, n) if dfa.accepts(w)}


def dfa_from_rows(rows, accepting, start=0, alphabet=AB):
    rows = tuple(tuple(r) for r in rows)
    return Dfa(alphabet, len(rows), rows, start, frozenset(accepting))


def random_dfa(rng: random.Random, n_states: int, alphabet=AB) -> Dfa:
    width = len(alphabet)
    rows = tuple(
        tuple(rng.randrange(n_states) for _ in range(width)) for _ in range(n_states)
    )
    accepting = frozenset(s for s in range(n_states) if rng.random() < 0.5)
    return Dfa(alphabet, n_states, rows, rng.randrange(n_states), accepting)


def strongly_connected_dfa(rng: random.Random, n_states: int, alphabet=AB) -> Dfa:
    """Random complete automaton in which every state reaches every other:
    a shuffled cycle through all states on random letters, the other
    moves random; accepting states drawn with probability 1/2."""
    width = len(alphabet)
    order = list(range(n_states))
    rng.shuffle(order)
    rows = [[None] * width for _ in range(n_states)]
    for i, s in enumerate(order):
        rows[s][rng.randrange(width)] = order[(i + 1) % n_states]
    rows = [[rng.randrange(n_states) if t is None else t for t in row] for row in rows]
    accepting = {s for s in range(n_states) if rng.random() < 0.5}
    return dfa_from_rows(rows, accepting, alphabet=alphabet)


def all_dfas(n_states: int, alphabet=AB):
    """Every complete automaton on the given state count: all transition
    tables crossed with all accepting sets, start state 0."""
    width = len(alphabet)
    for flat in itertools.product(range(n_states), repeat=n_states * width):
        rows = tuple(
            flat[i * width : (i + 1) * width] for i in range(n_states)
        )
        for acc_bits in range(2**n_states):
            accepting = frozenset(s for s in range(n_states) if acc_bits >> s & 1)
            yield Dfa(alphabet, n_states, rows, 0, accepting)


def witness_corpus() -> list[Dfa]:
    """Every automaton over ab with 1 to 3 states, then seeded random ones
    over ab and abc with 1 to 9 states."""
    corpus = [d for n in (1, 2, 3) for d in all_dfas(n)]
    rng = random.Random(4242)
    for alphabet in (AB, Alphabet("abc")):
        corpus += [random_dfa(rng, rng.randint(1, 9), alphabet) for _ in range(150)]
    return corpus


def oracle_corpus() -> list[Dfa]:
    """469 small machines for differential tests of the chain table: 300
    random ``ab`` DFAs with 1-6 states, 100 random ``abc`` DFAs with 1-4
    states, every 2-state ``ab`` DFA and the witnesses for k = 1..5."""
    rng = random.Random(507)
    corpus = [random_dfa(rng, rng.randint(1, 6)) for _ in range(300)]
    corpus += [random_dfa(rng, rng.randint(1, 4), Alphabet("abc")) for _ in range(100)]
    corpus += list(all_dfas(2))
    corpus += [mk_witness(k) for k in range(1, 6)]
    return corpus


def _deletions(word: str) -> Iterator[str]:
    seen = set()
    for i in range(len(word)):
        shorter = word[:i] + word[i + 1 :]
        if shorter not in seen:
            seen.add(shorter)
            yield shorter


def _depths(
    words: list[str], member: dict[str, bool], start_inside: bool
) -> tuple[dict[str, int], dict[str, int]]:
    # best_in / best_out track the deepest chain ending at any member /
    # non-member subword seen so far; deletions cover all proper subwords.
    # A word's reach is the larger of the two once the word itself is in.
    depth: dict[str, int] = {}
    best_in: dict[str, int] = {}
    best_out: dict[str, int] = {}
    for w in words:
        proper_in = -1
        proper_out = -1
        for d in _deletions(w):
            if best_in[d] > proper_in:
                proper_in = best_in[d]
            if best_out[d] > proper_out:
                proper_out = best_out[d]
        if member[w]:
            base = 0 if start_inside else -1
            via = proper_out + 1 if proper_out >= 0 else -1
            depth[w] = max(base, via)
            best_in[w] = max(proper_in, depth[w])
            best_out[w] = proper_out
        else:
            base = -1 if start_inside else 0
            via = proper_in + 1 if proper_in >= 0 else -1
            depth[w] = max(base, via)
            best_out[w] = max(proper_out, depth[w])
            best_in[w] = proper_in
    reach = {w: max(best_in[w], best_out[w]) for w in words}
    return depth, reach


def reference_chain_walk(
    membership: Callable[[str], bool], alphabet: Alphabet, max_len: int
) -> tuple[BoundedChainTable, dict[str, int], dict[str, int]]:
    """The chain table by string-keyed walks over each word's deletions,
    with separate member and non-member maxima, and the plus and minus
    reach that the walks give as the larger of the two: the deepest chain
    ending at any subword of a word, the word included."""
    words = words_up_to(alphabet.letters, max_len)
    member = {w: bool(membership(w)) for w in words}
    plus, plus_reach = _depths(words, member, start_inside=True)
    minus, minus_reach = _depths(words, member, start_inside=False)
    table = BoundedChainTable(max_len, tuple(words), member, plus, minus)
    return table, plus_reach, minus_reach


def reference_chain_table(
    membership: Callable[[str], bool], alphabet: Alphabet, max_len: int
) -> BoundedChainTable:
    """The table of ``reference_chain_walk``; the reference for the
    library's index-keyed table."""
    return reference_chain_walk(membership, alphabet, max_len)[0]


def reach_level(depth: dict[str, int], m: int) -> set[str]:
    """The bounded level m read off a chain table's depth field: the words
    that some chain of depth m or more ends at or below, which, since
    depth never falls along the subword order, are those of depth >= m."""
    return {w for w, d in depth.items() if d >= m}


def bounded_level(table: BoundedChainTable, depth: dict[str, int], m: int) -> set[str]:
    """Bounded level m by a second walk over every word's deletions, per
    level; the reference for the levels read off the chain table."""
    # A word belongs to level m exactly when some subword of it ends a
    # chain of depth >= m (depth parity is forced by membership, so no
    # separate parity check is needed).
    best: dict[str, int] = {}
    out: set[str] = set()
    for w in table.words:
        b = depth[w]
        for d in _deletions(w):
            if best[d] > b:
                b = best[d]
        best[w] = b
        if b >= m:
            out.add(w)
    return out


def reference_spread(below: list[int], block: int, k: int) -> Iterator[int]:
    """``below`` with each block of ``block`` entries repeated k times, by
    chained lazy iterators; the reference for the oracle's slice copies."""
    if block == 1:
        return itertools.chain.from_iterable(zip(*[below] * k))
    ends = range(block, len(below) + block, block)
    blocks = map(below.__getitem__, map(slice, range(0, len(below), block), ends))
    repeated = itertools.chain.from_iterable(map(itertools.repeat, blocks, itertools.repeat(k)))
    return itertools.chain.from_iterable(repeated)


def reference_index_depths(member: list[bool], k: int) -> list[int]:
    """The walked side's chain depths of every word over k letters up to
    some length, -1 for no chain, given the words' memberships in shortlex
    order: one list per length, an elementwise max over the spreads of the
    previous length's depths; the reference for the oracle's lanes."""
    epsilon_in = member[0]
    depths, below, length = [-1], [-1], 0
    while len(depths) < len(member):
        length += 1
        deepest = below * k
        for i in range(length - 1):
            deepest = [a if a >= b else b for a, b in zip(deepest, reference_spread(below, k**i, k))]
        inside = member[len(depths) : len(depths) + len(below) * k]
        below = [r + ((r + (m == epsilon_in)) & 1) for r, m in zip(deepest, inside)]
        depths += below
    return depths


def _reference_states(machine: Dfa, n_words: int) -> list[int]:
    delta = machine.delta
    states = [machine.start]
    for p in range((n_words - 1) // len(machine.alphabet)):
        states += delta[states[p]]
    return states


def reference_compare(dfa: Dfa, walk: _Walk, max_len: int, max_m: int, cap: int) -> list[str]:
    """The oracle's comparison with one stepping pass per automaton, Σ*
    included, and one list per level; the reference for its joint pass."""
    n_words = oracle._word_count(len(dfa.alphabet), max_len, cap)
    member = list(map(dfa.accepting.__contains__, _reference_states(dfa, n_words)))
    depths = reference_index_depths(member, len(dfa.alphabet))
    shifts = _shifts(member[0])
    machines = (universal_language(dfa.alphabet), *walk.walked)
    samples = []
    for depth in range(-1, max_m + 1):
        level = list(map(depth.__le__, depths))
        if depth + 1 < len(machines):
            machine = machines[depth + 1]
            inside = list(map(machine.accepting.__contains__, _reference_states(machine, n_words)))
        else:
            inside = [False] * n_words
        wrong = itertools.compress(itertools.count(), map(operator.ne, level, inside))
        samples.append([] if level == inside else list(itertools.islice(wrong, 3)))
    problems: list[str] = []
    words: list[str] = []
    for side, shift in zip(("plus", "minus"), shifts):
        for m in range(max_m + 1):
            if sample := samples[m - shift + 1]:
                words = words or oracle.enumerate_words(dfa.alphabet, max_len, cap)
                sample = [words[i] for i in sample]
                problems.append(f"{side} level {m}: bounded sets disagree, e.g. {sample}")
    for side, shift, measure in zip(("plus", "minus"), shifts, walk.measures):
        bound = max(depths) + shift
        if measure.is_finite and bound > measure.value:
            problems.append(f"{side} measure {measure} is below the brute-force bound {bound}")
    return problems


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic finite automaton with a set of start states; a
    transition set may be empty.  A plain record: the tests build only
    well-formed ones."""

    alphabet: Alphabet
    n_states: int
    delta: tuple[tuple[frozenset[int], ...], ...]
    starts: frozenset[int]
    accepting: frozenset[int]


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction over the reachable subsets, numbered in
    discovery order (breadth-first, letters in alphabet order).  The empty
    subset is the sink, so the result is complete even when the input has
    dead moves or no start state at all."""
    ids = {nfa.starts: 0}
    subsets = [nfa.starts]
    rows = []
    for subset in subsets:
        row = []
        for j in range(len(nfa.alphabet)):
            target = frozenset(t for s in subset for t in nfa.delta[s][j])
            if target not in ids:
                ids[target] = len(subsets)
                subsets.append(target)
            row.append(ids[target])
        rows.append(tuple(row))
    accepting = frozenset(i for i, subset in enumerate(subsets) if subset & nfa.accepting)
    return Dfa(nfa.alphabet, len(subsets), tuple(rows), 0, accepting)


def nfa_is_empty(nfa: Nfa) -> bool:
    """True when no accepting state is reachable from a start state; plain
    reachability, without the subset construction."""
    reached = set(nfa.starts)
    frontier = reached
    while frontier:
        frontier = {t for s in frontier for cell in nfa.delta[s] for t in cell} - reached
        reached |= frontier
    return not reached & nfa.accepting


def reference_upward_closure(dfa: Dfa) -> Dfa:
    """Upward closure by the general subset construction on the input with
    a self-loop on every letter at every state; the reference for
    subword.upward_closure."""
    width = len(dfa.alphabet)
    delta = tuple(
        tuple(frozenset({dfa.delta[s][j], s}) for j in range(width))
        for s in range(dfa.n_states)
    )
    looped = Nfa(dfa.alphabet, dfa.n_states, delta, frozenset({dfa.start}), dfa.accepting)
    return minimize(determinize(looped))


def reference_closure_subsets(dfa: Dfa) -> Dfa:
    """The subset automaton whose minimal form subword.upward_closure
    builds, breadth-first, stepping every state of every subset on every
    letter; the reference for the library's construction, which steps only
    the states a subset adds to the one that first reached it and gives
    each subset its class as it goes."""
    move = [[(1 << s) | (1 << t) for t in row] for s, row in enumerate(dfa.delta)]
    accept_mask = sum(1 << s for s in dfa.accepting)
    ids = {1 << dfa.start: 0}
    subsets = [1 << dfa.start]
    rows = []
    for mask in subsets:
        if mask & accept_mask:
            rows.append((len(rows),) * len(dfa.alphabet))
            continue
        targets = [0] * len(dfa.alphabet)
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            for j, bits in enumerate(move[low.bit_length() - 1]):
                targets[j] |= bits
        for j, target in enumerate(targets):
            if target not in ids:
                ids[target] = len(subsets)
                subsets.append(target)
            targets[j] = ids[target]
        rows.append(tuple(targets))
    accepting = frozenset(i for i, mask in enumerate(subsets) if mask & accept_mask)
    return Dfa(dfa.alphabet, len(subsets), tuple(rows), 0, accepting)


def reference_is_upward_closed(dfa: Dfa) -> bool:
    """Does inserting one letter never leave the language?

    uv in L implies uav in L exactly when L_q <= L_{q.a} for every
    reachable state q and letter a, so every state of ``dfa`` must be
    reachable.  A depth-first search over state pairs (p, r), seeded with
    (q, q.a) for q.a != q and stepping both states on the same letter,
    looks for p accepting while r rejects; pairs with p = r are skipped,
    since they cannot separate.  Each of the n^2 pairs is marked once in a
    bytearray and stepped on k letters: O(k n^2) time, n^2 bytes.  The
    reference for subword._is_upward_closed, which skips the pairs that
    reachability settles.
    """
    n = dfa.n_states
    delta = dfa.delta
    accepting = bytearray(n)
    for s in dfa.accepting:
        accepting[s] = 1
    seen = bytearray(n * n)
    stack = []
    for q, row in enumerate(delta):
        for t in row:
            key = q * n + t
            if t != q and not seen[key]:
                seen[key] = 1
                stack.append(key)
    while stack:
        p, r = divmod(stack.pop(), n)
        if accepting[p] and not accepting[r]:
            return False
        for s, t in zip(delta[p], delta[r]):
            key = s * n + t
            if s != t and not seen[key]:
                seen[key] = 1
                stack.append(key)
    return True


def moore_minimize(dfa: Dfa) -> Dfa:
    """Minimal automaton by Moore's refinement, one full pass over the
    states per round that splits a block, so O(k·n²) on long chains; the
    same breadth-first renumbering as ``minimize``, so the two agree
    structurally.  The reference for the library's refinement, which runs
    these rounds over the whole table at once and hands chains over to
    Hopcroft's."""
    width = len(dfa.alphabet)
    order = [dfa.start]
    seen = {dfa.start}
    queue = deque(order)
    while queue:
        s = queue.popleft()
        for j in range(width):
            t = dfa.delta[s][j]
            if t not in seen:
                seen.add(t)
                order.append(t)
                queue.append(t)

    block = {s: 1 if s in dfa.accepting else 0 for s in order}
    n_blocks = len(set(block.values()))
    while True:
        signatures: dict[tuple, int] = {}
        refined: dict[int, int] = {}
        for s in order:
            sig = (block[s], tuple(block[dfa.delta[s][j]] for j in range(width)))
            if sig not in signatures:
                signatures[sig] = len(signatures)
            refined[s] = signatures[sig]
        block = refined
        if len(signatures) == n_blocks:
            break
        n_blocks = len(signatures)

    representative: dict[int, int] = {}
    for s in order:
        representative.setdefault(block[s], s)

    canonical = {block[dfa.start]: 0}
    block_order = [block[dfa.start]]
    rows = []
    queue = deque(block_order)
    while queue:
        b = queue.popleft()
        rep = representative[b]
        row = []
        for j in range(width):
            tb = block[dfa.delta[rep][j]]
            if tb not in canonical:
                canonical[tb] = len(block_order)
                block_order.append(tb)
                queue.append(tb)
            row.append(canonical[tb])
        rows.append(tuple(row))
    accepting = frozenset(
        canonical[b] for b in block_order if representative[b] in dfa.accepting
    )
    return Dfa(dfa.alphabet, len(block_order), tuple(rows), 0, accepting)


def distinguishing_words(dfa: Dfa) -> dict[tuple[int, int], str]:
    """A separating word for every distinguishable unordered state pair.

    Keys are pairs (p, q) with p < q; the word's runs from p and from q
    disagree on acceptance.  Computed backward from the pairs already
    separated by the empty word, so the recorded words are short.
    """
    width = len(dfa.alphabet)
    letters = dfa.alphabet.letters
    predecessors: list[list[list[int]]] = [
        [[] for _ in range(width)] for _ in range(dfa.n_states)
    ]
    for s in range(dfa.n_states):
        for j in range(width):
            predecessors[dfa.delta[s][j]][j].append(s)

    words: dict[tuple[int, int], str] = {}
    queue: deque[tuple[int, int]] = deque()
    for p in range(dfa.n_states):
        for q in range(p + 1, dfa.n_states):
            if (p in dfa.accepting) != (q in dfa.accepting):
                words[(p, q)] = ""
                queue.append((p, q))
    while queue:
        p, q = queue.popleft()
        suffix = words[(p, q)]
        for j in range(width):
            for a in predecessors[p][j]:
                for b in predecessors[q][j]:
                    if a == b:
                        continue
                    pair = (a, b) if a < b else (b, a)
                    if pair not in words:
                        words[pair] = letters[j] + suffix
                        queue.append(pair)
    return words


def reverse_det(dfa: Dfa) -> Dfa:
    """Canonical minimal automaton for the reversed language, by the subset
    construction on the edge-reversed machine."""
    states = range(dfa.n_states)
    width = len(dfa.alphabet)
    delta = tuple(
        tuple(frozenset(s for s in states if dfa.delta[s][j] == t) for j in range(width))
        for t in states
    )
    backward = Nfa(dfa.alphabet, dfa.n_states, delta, dfa.accepting, frozenset({dfa.start}))
    return minimize(determinize(backward))


def symmetric_difference(d1: Dfa, d2: Dfa) -> Dfa:
    return product(d1, d2, lambda a, b: a != b)


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Language equality, via emptiness of the symmetric difference."""
    return is_empty(symmetric_difference(d1, d2))


def shortest_accepted_word(dfa: Dfa) -> str | None:
    """Shortest accepted word, length ties broken in alphabet order; None
    when the language is empty.  Breadth-first search with letters in
    alphabet order reaches every state of a deterministic automaton first
    by its shortlex-least word."""
    words = {dfa.start: ""}
    queue = deque([dfa.start])
    while queue:
        s = queue.popleft()
        if s in dfa.accepting:
            return words[s]
        for ch, t in zip(dfa.alphabet.letters, dfa.delta[s]):
            if t not in words:
                words[t] = words[s] + ch
                queue.append(t)
    return None


def build_chain_nfa(dfa: Dfa, m: int) -> Nfa:
    """Tuple-state automaton accepting the plus-side level m directly.

    A state is an (m+1)-tuple of runs, one per guessed chain word from
    smallest to largest.  Reading a letter advances some suffix of the
    runs: later chain words contain earlier ones, so a letter belongs to
    every word from some index on, possibly none (the letter only pads the
    final extension).  A tuple accepts when its components alternate
    acceptance starting accepting, which pins the membership flips of the
    chain.  Only tuples reachable from the all-start tuple are built.
    """
    if m < 0:
        raise InputError("chain level must be nonnegative")
    width = len(dfa.alphabet)
    start = (dfa.start,) * (m + 1)
    ids: dict[tuple[int, ...], int] = {start: 0}
    tuples = [start]
    rows: list[tuple[frozenset[int], ...]] = []
    queue = deque([start])
    while queue:
        current = queue.popleft()
        row = []
        for j in range(width):
            targets = []
            local = set()
            for keep in range(m + 2):
                successor = current[:keep] + tuple(
                    dfa.delta[s][j] for s in current[keep:]
                )
                if successor in local:
                    continue
                local.add(successor)
                if successor not in ids:
                    ids[successor] = len(tuples)
                    tuples.append(successor)
                    queue.append(successor)
                targets.append(ids[successor])
            row.append(frozenset(targets))
        rows.append(tuple(row))
    accepting = frozenset(
        ids[t]
        for t in tuples
        if all((s in dfa.accepting) == (i % 2 == 0) for i, s in enumerate(t))
    )
    return Nfa(dfa.alphabet, len(tuples), tuple(rows), frozenset({0}), accepting)


def reference_levels(dfa: Dfa) -> Iterator[Dfa]:
    """Minimal automata for the nonempty plus-side levels 0, 1, 2, ... in
    order, stopping at the first empty level: a closure-and-intersect walk
    of one side that reads nothing off the other side's chain."""
    base = minimize(dfa)
    flip = (complement(base), base)
    current = base
    for step in itertools.count():
        closed = upward_closure(current)
        if not closed.accepting:
            return
        yield closed
        current = minimize(intersection(closed, flip[step % 2]))


def two_walk_chains(dfa: Dfa, depth: int | None = None) -> tuple[list[Dfa], list[Dfa]]:
    """Plus-side and minus-side levels, at most ``depth`` of each, from a
    walk of the language and a second walk of its complement."""
    walks = (reference_levels(d) for d in (dfa, complement(dfa)))
    plus, minus = (list(itertools.islice(walk, depth)) for walk in walks)
    return plus, minus


def two_walk_measures(dfa: Dfa) -> tuple[AlternationMeasure, AlternationMeasure]:
    """Plus and minus measures, each from its own side's walk."""
    if not is_piecewise_testable(dfa):
        return AlternationMeasure.infinite(), AlternationMeasure.infinite()
    plus, minus = (len(list(reference_levels(d))) - 1 for d in (dfa, complement(dfa)))
    return AlternationMeasure.finite(plus), AlternationMeasure.finite(minus)


def boolean_combinations(rng: random.Random, count: int, ideals: int, length: int):
    """``count`` minimal ``ab`` automata, each folding ``ideals`` shuffle
    ideals of random words of ``length`` letters by random union,
    intersection, difference or symmetric difference, minimizing after each
    step; all piecewise testable."""
    operations = (
        lambda a, b: a or b,
        lambda a, b: a and b,
        lambda a, b: a and not b,
        lambda a, b: a != b,
    )
    out = []
    for _ in range(count):
        words = ["".join(rng.choice("ab") for _ in range(length)) for _ in range(ideals)]
        current = shuffle_ideal(words[0], AB)
        for w in words[1:]:
            combine = rng.choice(operations)
            current = minimize(product(current, shuffle_ideal(w, AB), combine))
        out.append(current)
    return out


def walk_decomposition(dfa: Dfa) -> tuple[str, ...]:
    """Subword-minimal words of an upward closed language, by listing the
    label of every simple start-to-accepting path of the minimal automaton
    and pruning the labels pairwise to an antichain.

    Exponential in the worst case and recursive, so only for small inputs;
    the reference that decompose_level_half is checked against.
    """
    machine = minimize(dfa)
    width = len(machine.alphabet)
    letters = machine.alphabet.letters
    found: set[str] = set()

    def walk(state: int, label: list[str], visited: set[int]) -> None:
        if state in machine.accepting:
            found.add("".join(label))
        for j in range(width):
            target = machine.delta[state][j]
            if target not in visited:
                label.append(letters[j])
                walk(target, label, visited | {target})
                label.pop()

    walk(machine.start, [], {machine.start})
    minimal = [w for w in found if not any(u != w and is_subword(u, w) for u in found)]
    minimal.sort(key=lambda w: (len(w), w))
    return tuple(minimal)


def reference_minimal_words(closed: Dfa, order: list[int]) -> tuple[str, ...]:
    """Min(start) of an upward closed minimal automaton by pruning: at each
    state, in reverse topological order, sort the candidates a + w with
    q.a != q and w in Min(q.a) by length, and keep those that no kept word
    embeds in.  The reference for the library's pass, which keeps a + w
    when one run shows w outside L_q."""
    letters = closed.alphabet.letters
    minimal: dict[int, list[str]] = {}
    for q in reversed(order):
        kept = [""] if q in closed.accepting else []
        candidates = {
            a + w for a, t in zip(letters, closed.delta[q]) if t != q for w in minimal[t]
        }
        for w in sorted(candidates, key=lambda w: (len(w), w)):
            if not any(is_subword(u, w) for u in kept):
                kept.append(w)
        minimal[q] = kept
    return tuple(minimal[closed.start])


def reference_embedded_pair(words) -> tuple[str, str] | None:
    """The first ordered pair (w, v) of different words of ``words`` with w
    a subword of v, trying every pair; None for an antichain."""
    for w in words:
        for v in words:
            if w != v and is_subword(w, v):
                return w, v
    return None


_TOKEN = re.compile(r"\S+")


def _tokens(content: str) -> list[tuple[str, int]]:
    """Whitespace-separated tokens with their 1-based column offsets."""
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(content)]


def _int_token(token: str, what: str, line: int, column: int | None = None) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line, column) from None


def reference_parse_dfa(text: str) -> Dfa:
    """The automaton file format parsed through a (token, column) pair per
    token and a (state, letter) -> target table; the reference that
    ``cli.parse_dfa`` is checked against.  Its columns count from the
    stripped line (on the accepting line, from the text after the key),
    so only its messages and lines are compared.  Lines end at LF, CRLF
    or a lone CR only."""
    lines = [
        (i + 1, stripped)
        for i, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"))
        if (stripped := raw.strip()) and not stripped.startswith("#")
    ]

    def header(idx: int, key: str) -> tuple[int, str]:
        if idx >= len(lines):
            raise ParseError(f"missing {key!r} line")
        lineno, content = lines[idx]
        if not content.startswith(key + ":"):
            raise ParseError(f"expected a {key!r} line, got {content!r}", lineno)
        return lineno, content[len(key) + 1 :].strip()

    lineno, letters = header(0, "alphabet")
    if not letters:
        raise ParseError("alphabet line is empty", lineno)
    try:
        alphabet = Alphabet(letters)
    except InputError as exc:
        raise ParseError(str(exc), lineno) from None

    lineno, body = header(1, "states")
    n_states = _int_token(body, "state count", lineno)
    if n_states < 1:
        raise ParseError("state count must be positive", lineno)

    lineno, body = header(2, "start")
    start = _int_token(body, "start state", lineno)
    if not 0 <= start < n_states:
        raise ParseError(f"start state {start} out of range", lineno)

    lineno, body = header(3, "accepting")
    accepting = set()
    for token, column in _tokens(body):
        state = _int_token(token, "accepting state", lineno, column)
        if not 0 <= state < n_states:
            raise ParseError(f"accepting state {state} out of range", lineno, column)
        accepting.add(state)

    width = len(alphabet)
    table: dict[tuple[int, int], int] = {}
    for lineno, content in lines[4:]:
        tokens = _tokens(content)
        if len(tokens) != 3:
            raise ParseError("expected '<state> <letter> <state>'", lineno)
        (src_tok, src_col), (letter, letter_col), (dst_tok, dst_col) = tokens
        src = _int_token(src_tok, "source state", lineno, src_col)
        if not 0 <= src < n_states:
            raise ParseError(f"unknown state {src}", lineno, src_col)
        if letter not in alphabet:
            raise ParseError(f"unknown letter {letter!r}", lineno, letter_col)
        dst = _int_token(dst_tok, "target state", lineno, dst_col)
        if not 0 <= dst < n_states:
            raise ParseError(f"unknown state {dst}", lineno, dst_col)
        key = (src, alphabet.index(letter))
        if key in table:
            raise ParseError(f"duplicate transition for state {src} on {letter!r}", lineno)
        table[key] = dst

    for s in range(n_states):
        for j, ch in enumerate(alphabet.letters):
            if (s, j) not in table:
                raise ParseError(f"missing transition for state {s} on {ch!r}")
    delta = tuple(tuple(table[(s, j)] for j in range(width)) for s in range(n_states))
    return Dfa(alphabet, n_states, delta, start, frozenset(accepting))


def reference_holds_in(self: PatternWitness, dfa: Dfa) -> bool:
    """The three-branch replay, one equation list per pattern kind, that
    ``PatternWitness.holds_in`` replaced with one replay of the third-pattern
    form; the reference for it."""
    acc = dfa.accepting
    a = self.letter
    if self.kind == "P1":
        s1, s2, s3 = self.states
        return (
            dfa.run(self.x) == s1
            and dfa.run(self.v, s1) == s1
            and dfa.run(self.y, s1) == s2
            and dfa.step(s2, a) == s3
            and is_subword(self.y + a, self.v)
            and (dfa.run(self.z, s2) in acc) != (dfa.run(self.z, s3) in acc)
        )
    if self.kind == "P2":
        s1, s2, s3, s4 = self.states
        return (
            dfa.run(self.x) == s1
            and dfa.step(s1, a) == s2
            and dfa.run(self.z, s1) == s3
            and dfa.run(self.u, s3) == s3
            and dfa.run(self.z, s2) == s4
            and dfa.run(self.u, s4) == s4
            and is_subword(a + self.z, self.u)
            and (dfa.run(self.z_prime, s3) in acc) != (dfa.run(self.z_prime, s4) in acc)
        )
    if self.kind == "P3":
        s1, s2, s3, s4, s5 = self.states
        return (
            dfa.run(self.x) == s1
            and dfa.run(self.v, s1) == s1
            and dfa.run(self.y, s1) == s2
            and dfa.step(s2, a) == s3
            and dfa.run(self.z, s2) == s4
            and dfa.run(self.u, s4) == s4
            and dfa.run(self.z, s3) == s5
            and dfa.run(self.u, s5) == s5
            and (is_subword(self.y + a, self.v) or is_subword(a + self.z, self.u))
            and (dfa.run(self.z_prime, s4) in acc) != (dfa.run(self.z_prime, s5) in acc)
        )
    raise ValueError(f"unknown pattern kind {self.kind!r}")


def reference_find_loop_with_embedded_extension(
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


def reference_coupled_loop_search(
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


def reference_access_classes(dfa: Dfa) -> tuple[dict[int, str], dict[int, int]]:
    """Shortest word from the start state to each reachable state, and the
    state of the minimal automaton that word runs to."""
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
    minimal = minimize(dfa)
    return words, {s: minimal.run(w) for s, w in words.items()}


def reference_detect_p1(dfa: Dfa) -> PatternWitness | None:
    """The exhaustive P1 search, one
    ``reference_find_loop_with_embedded_extension`` per (letter, s1, s2):
    the oracle for whether ``detect_p1`` finds a witness."""
    access, classes = reference_access_classes(dfa)
    reachable = sorted(access)
    for j, a in enumerate(dfa.alphabet.letters):
        for s1 in reachable:
            for s2 in reachable:
                s3 = dfa.delta[s2][j]
                if classes[s2] == classes[s3]:
                    continue
                found = reference_find_loop_with_embedded_extension(dfa, s1, s2, a)
                if found is not None:
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


def reference_detect_p2(dfa: Dfa) -> PatternWitness | None:
    """``detect_p2`` through ``reference_coupled_loop_search``."""
    access, classes = reference_access_classes(dfa)
    reachable = sorted(access)
    for s1 in reachable:
        for j, a in enumerate(dfa.alphabet.letters):
            s2 = dfa.delta[s1][j]
            for t3 in reachable:
                for t4 in reachable:
                    if classes[t3] == classes[t4]:
                        continue
                    found = reference_coupled_loop_search(dfa, s1, s2, t3, t4, j)
                    if found is not None:
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


def _reach(dfa: Dfa, s: int) -> set[int]:
    """Every state reachable from s, s included."""
    seen = {s}
    stack = [s]
    while stack:
        for t in dfa.delta[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def reference_cycle_witness(dfa: Dfa) -> PatternWitness | None:
    """``detect_p1``'s witness, with y = ε and s2 = s1, by its definition:
    the first letter a, then the first reachable state s1, whose a-step
    changes the minimal-automaton state and which some loop reading a
    passes through, that is some p reachable from s1 has p·a reaching s1
    back; v is the first word in shortlex order, up to length 2n, that
    loops at s1 and contains a.  None when no candidate exists."""
    access, classes = reference_access_classes(dfa)
    letters = dfa.alphabet.letters
    for a in letters:
        for s1 in sorted(access):
            s3 = dfa.step(s1, a)
            if classes[s1] == classes[s3]:
                continue
            if not any(s1 in _reach(dfa, dfa.step(p, a)) for p in _reach(dfa, s1)):
                continue
            loops = (
                "".join(w)
                for length in range(1, 2 * dfa.n_states + 1)
                for w in itertools.product(letters, repeat=length)
            )
            v = next(w for w in loops if a in w and dfa.run(w, s1) == s1)
            return PatternWitness(
                kind="P1",
                letter=a,
                x=access[s1],
                v=v,
                z=_separator(dfa, s1, s3),
                states=(s1, s1, s3),
            )
    return None


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


def reference_is_piecewise_testable(minimal: Dfa) -> bool:
    """The Klíma–Polák test on a minimal automaton with one joinability
    search per state and letter pair: O(k^2 n^3) at worst."""
    if _topological_order(minimal) is None:
        return False
    width = len(minimal.alphabet)
    return all(
        _joinable(minimal, row[i], row[j], i, j)
        for row in minimal.delta
        for i in range(width)
        for j in range(i + 1, width)
    )


def reference_report_dict(self: ClassificationReport) -> dict:
    """``ClassificationReport.to_dict`` with every key and witness slot
    spelled out, the reference for the one that reads the record's
    fields."""
    witness = None
    if self.pattern_witness is not None:
        w = self.pattern_witness
        witness = {
            "kind": w.kind,
            "letter": w.letter,
            "x": w.x,
            "v": w.v,
            "y": w.y,
            "z": w.z,
            "u": w.u,
            "z_prime": w.z_prime,
            "states": list(w.states),
        }
    return {
        "language": self.language,
        "in_level_one_half": self.in_level_one_half,
        "in_co_level_one_half": self.in_co_level_one_half,
        "ideal_decomposition": (
            list(self.ideal_decomposition)
            if self.ideal_decomposition is not None
            else None
        ),
        "m_plus": self.m_plus.json_value(),
        "m_minus": self.m_minus.json_value(),
        "minimal_k_plus": self.minimal_k_plus,
        "minimal_k_co": self.minimal_k_co,
        "piecewise_testable": self.piecewise_testable,
        "pattern_witness": witness,
    }


def closure_witness(dfa: Dfa) -> str | None:
    """Shortlex-least word of the upward closure that the language rejects,
    None when the language is upward closed; through the subset
    construction, the reference for the single-letter insertion test."""
    return shortest_accepted_word(symmetric_difference(upward_closure(dfa), dfa))


def substitute(monkeypatch, function, replacement) -> None:
    """Rebind a library function to ``replacement`` in every module of the
    package that names it, so callers see the substitute wherever they
    import it from.  Raises LookupError when no module names it, as after
    an earlier substitute of it, whose replacement would otherwise stay."""
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "subseq" and getattr(module, function.__name__, None) is function
    ]
    if not modules:
        raise LookupError(f"no module of the package names {function.__qualname__}")
    for module in modules:
        monkeypatch.setattr(module, function.__name__, replacement)


def count_calls(monkeypatch, function) -> list[tuple]:
    """Record every call of a library function, through whichever module
    of the package names it; returns the growing list of argument tuples."""
    calls: list[tuple] = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    substitute(monkeypatch, function, counted)
    return calls


def ab_star() -> Dfa:
    """Words alternating ab from scratch: (ab)(ab)...(ab) or empty."""
    return dfa_from_rows([(1, 2), (2, 0), (2, 2)], {0})


def ba_star() -> Dfa:
    return dfa_from_rows([(2, 1), (0, 2), (2, 2)], {0})


def single_word(word: str, alphabet=AB) -> Dfa:
    """Automaton accepting exactly {word}."""
    n = len(word)
    width = len(alphabet)
    sink = n + 1
    rows = []
    for i in range(n):
        advance = alphabet.index(word[i])
        rows.append(tuple(i + 1 if j == advance else sink for j in range(width)))
    rows.append((sink,) * width)
    rows.append((sink,) * width)
    return Dfa(alphabet, n + 2, tuple(rows), 0, frozenset({n}))


def mk_predicate(k: int, letter: str = "a"):
    """Membership predicate for the level-k witness language, straight
    from its arithmetic definition."""

    def member(word: str) -> bool:
        count = word.count(letter)
        if k % 2 == 1:
            return count % 2 == 1 or count > k
        return count % 2 == 1 and count <= k

    return member
