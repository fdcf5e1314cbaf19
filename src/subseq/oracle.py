"""Brute-force ground truth over bounded word sets.

Everything here works from a bare membership predicate, independent of the
automata pipeline, so it can cross-check that pipeline on small instances.
Chain depths come from dynamic programming over the subword lattice
restricted to words up to a length bound; single-letter deletions generate
the covering relation of that lattice, which keeps the tables cheap.  A
chain ending at a word only ever uses subwords of it, so the bounded
tables are self-contained and every reported depth is a true lower bound.

Words are handled by their position in the shortlex order of
``enumerate_words``.  Over k letters, word i > 0 is word (i - 1) // k
followed by letter (i - 1) % k, so the word p followed by letter a sits at
p·k + a + 1.  Two consequences keep the per-word work independent of the
word's length:

- The state an automaton reaches on word i is one step from the state of
  its prefix, so the rows of the transition table, taken in the order of
  the words' states, list the states of the next words (``_states``).
- Deleting any letter of a run of equal letters gives the same word, so a
  word has one distinct one-letter deletion per run.  The deletions of
  u·a are u itself and d·a for each deletion d of u; the two coincide
  exactly when u ends in a, since u's own last-letter deletion d then
  gives d·a = u.  So each word's deletions are built, as indices, from its
  prefix's, with that one repeat dropped (``_deletion_indices``).

One pass walks each word's deletions once.  Depth never falls along the
subword order: a chain ending at a subword of w ends at w too, after
replacing that subword by w or appending w.  So the deepest chain ending
at a proper subword of w is the deepest one ending at a deletion, r, and
w's depth is r or r + 1, whichever has the parity that w's membership
forces on the last word of a chain (-1, no chain, counts as odd).  For
the same reason a word's depth is also the deepest chain ending at any
of its subwords, so every bounded level m is the set of words whose
depth is at least m.

The pass walks the side whose chains start where ε is not, as
``alternation._chains`` does.  ε is a subword of every word, so it can
open every chain of the other side in place of its first word, and it
extends every chain of the walked side by one; the other side's depths
are the walked side's plus one.

``cross_check`` feeds that pass the input's membership on one enumeration
of the words and sets the depths against the levels and measures of one
``alternation._walk``, the one its report was read from under ``classify
--oracle-check``.  Every automaton it compares, the input included, is
stepped along the word order, never rerun from its start state.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from .alternation import _walk
from .automata import Alphabet, Dfa, empty_language, minimize
from .errors import InputError, WordCapExceededError

__all__ = [
    "DEFAULT_WORD_CAP",
    "enumerate_words",
    "BoundedChainTable",
    "chain_table",
    "cross_check",
]

DEFAULT_WORD_CAP = 10**6
DEFAULT_MAX_M = 3  # the highest level compared; the walk goes one deeper

Membership = Callable[[str], bool]


def enumerate_words(alphabet: Alphabet, max_len: int, cap: int = DEFAULT_WORD_CAP) -> list[str]:
    """Every word of length up to max_len, shortest first, alphabet order
    within a length.  Raises WordCapExceededError when the longest
    generation alone, or the max_len + 1 generations together, would
    exceed ``cap`` words."""
    if max_len < 0:
        raise InputError(f"word length bound must be nonnegative, got {max_len}")
    letters = alphabet.letters
    # two or more letters give len(letters) ** cap.bit_length() > cap, so
    # the exponent never needs to pass cap.bit_length()
    if len(letters) ** min(max_len, cap.bit_length()) > cap:
        raise WordCapExceededError(
            f"{len(letters)}^{max_len} words exceed the cap of {cap}"
        )
    if max_len + 1 > cap:
        raise WordCapExceededError(f"{max_len + 1} words exceed the cap of {cap}")
    words: list[str] = []
    for n in range(max_len + 1):
        words.extend(map("".join, itertools.product(letters, repeat=n)))
    return words


@dataclass(frozen=True)
class BoundedChainTable:
    """Alternation depths for every word up to a length bound.

    ``plus_depth[w]`` is the length of the longest membership-alternating
    subword chain that ends at w and starts inside the language, -1 when
    none exists; ``minus_depth`` is the same for chains starting outside.
    Depth never falls along the subword order, so the bounded plus-side
    level m is exactly ``{w : plus_depth[w] >= m}``, and the minus-side
    one is the same set read off ``minus_depth``.
    """

    max_len: int
    words: tuple[str, ...]
    member: dict[str, bool]
    plus_depth: dict[str, int]
    minus_depth: dict[str, int]


def _deletion_indices(k: int, n_words: int) -> Iterator[list[int]]:
    """The distinct one-letter deletions of each of the first n_words
    words over k letters, as shortlex indices, in word order; n_words
    counts every word up to some length.  Word p·k + a + 1 is word p
    followed by letter a.  Only the rows of words not yet extended are
    kept."""
    n_parents = (n_words - 1) // k
    pending: deque[list[int]] = deque([[]])
    yield []
    for p in range(n_parents):
        below = pending.popleft()
        last = (p - 1) % k if p else -1
        for a in range(k):
            row = [d * k + a + 1 for d in below]
            # when p ends in a, p itself is already in the row
            if a != last:
                row.append(p)
            if p * k + a + 1 < n_parents:
                pending.append(row)
            yield row


def _depths(member: list[bool], k: int) -> tuple[list[int], list[int]]:
    """The plus and the minus chain depths of every word over k letters up
    to some length, given the words' memberships in shortlex order."""
    # the walked side's chains start where ε is not, so they put the words
    # whose membership differs from ε's at even depths and the others at
    # odd ones, -1 included: a word's depth is r or r + 1, whichever gives
    # an even sum with (inside == ε's membership)
    epsilon_in = member[0]
    walked: list[int] = []
    get = walked.__getitem__
    for below, inside in zip(_deletion_indices(k, len(member)), member):
        r = max(map(get, below), default=-1)
        walked.append(r + ((r + (inside == epsilon_in)) & 1))
    shifted = [d + 1 for d in walked]
    return (shifted, walked) if epsilon_in else (walked, shifted)


def chain_table(
    membership: Membership,
    alphabet: Alphabet,
    max_len: int,
    cap: int = DEFAULT_WORD_CAP,
) -> BoundedChainTable:
    """Tabulate both sides' chain depths for all words up to max_len."""
    words = enumerate_words(alphabet, max_len, cap)
    member = [bool(membership(w)) for w in words]
    plus, minus = _depths(member, len(alphabet))
    return BoundedChainTable(
        max_len,
        tuple(words),
        dict(zip(words, member)),
        dict(zip(words, plus)),
        dict(zip(words, minus)),
    )


def _states(machine: Dfa, n_words: int) -> list[int]:
    """The state ``machine`` reaches on each of the first n_words words in
    shortlex order; n_words counts every word up to some length."""
    delta = machine.delta
    states = [machine.start]
    for p in range((n_words - 1) // len(machine.alphabet)):
        states += delta[states[p]]
    return states


def cross_check(
    dfa: Dfa,
    max_len: int,
    max_m: int = DEFAULT_MAX_M,
    cap: int = DEFAULT_WORD_CAP,
) -> list[str]:
    """Compare the automata pipeline against this module on one machine.

    Reads both chains and both measures off one ``_walk``: to its end when
    the language is piecewise testable, otherwise through level max_m.
    Checks that levels 0..max_m agree with the brute-force level sets word
    for word up to max_len, and, in the finite case, that the brute-force
    depth bounds never exceed the measures.  Returns human-readable
    mismatch descriptions; an empty list means full agreement.
    """
    if max_m < 0:
        raise InputError(f"level bound must be nonnegative, got {max_m}")
    return _compare(dfa, _walk(minimize(dfa), max_m + 1), max_len, max_m, cap)


def _compare(dfa: Dfa, walk: tuple, max_len: int, max_m: int, cap: int) -> list[str]:
    """``cross_check`` against ``walk``, a ``_walk`` of ``minimize(dfa)``
    whose depth is at least max_m + 1."""
    words = enumerate_words(dfa.alphabet, max_len, cap)
    n_words = len(words)
    member = list(map(dfa.accepting.__contains__, _states(dfa, n_words)))
    depth_lists = _depths(member, len(dfa.alphabet))
    empty = empty_language(dfa.alphabet)
    problems: list[str] = []
    too_small: list[str] = []
    for side, depths, measure, chain in zip(("plus", "minus"), depth_lists, walk[:2], walk[2:]):
        for m in range(max_m + 1):
            machine = chain[m] if m < len(chain) else empty
            accepting = machine.accepting
            wrong = [
                w
                for w, r, s in zip(words, depths, _states(machine, n_words))
                if (r >= m) != (s in accepting)
            ]
            if wrong:
                sample = sorted(wrong, key=lambda w: (len(w), w))[:3]
                problems.append(f"{side} level {m}: bounded sets disagree, e.g. {sample}")
        bound = max(depths)
        if measure.is_finite and bound > measure.value:
            too_small.append(f"{side} measure {measure} is below the brute-force bound {bound}")
    return problems + too_small
