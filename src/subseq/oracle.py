"""Brute-force ground truth over bounded word sets.

Everything here works from a bare membership predicate, independent of the
automata pipeline, so it can cross-check that pipeline on small instances.
Chain depths come from dynamic programming over the subword lattice
restricted to words up to a length bound; single-letter deletions generate
the covering relation of that lattice, which keeps the tables cheap.  A
chain ending at a word only ever uses subwords of it, so the bounded
tables are self-contained and every reported depth is a true lower bound.

One pass per side walks each word's deletions once and records two numbers
per word: its depth, and its reach, the deepest chain ending at any of its
subwords.  Every bounded level m is then the set of words whose reach is at
least m, with no further pass.

``cross_check`` sets those tables against the automata pipeline.  It
makes the single level walk that gives both sides' chains and reads both
the level automata and the measures off it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .alternation import _chains
from .automata import Alphabet, Dfa, empty_language
from .errors import InputError, WordCapExceededError
from .patterns import is_piecewise_testable

__all__ = [
    "DEFAULT_WORD_CAP",
    "enumerate_words",
    "BoundedChainTable",
    "chain_table",
    "cross_check",
]

DEFAULT_WORD_CAP = 10**6

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
        words.extend("".join(t) for t in itertools.product(letters, repeat=n))
    return words


@dataclass(frozen=True)
class BoundedChainTable:
    """Alternation depths for every word up to a length bound.

    ``plus_depth[w]`` is the length of the longest membership-alternating
    subword chain that ends at w and starts inside the language, -1 when
    none exists; ``minus_depth`` is the same for chains starting outside.
    ``plus_reach[w]`` is the largest plus depth of any subword of w, w
    included, so the bounded plus-side level m is exactly the words with
    ``plus_reach[w] >= m``; ``minus_reach`` is the same for the minus side.
    """

    max_len: int
    words: tuple[str, ...]
    member: dict[str, bool]
    plus_depth: dict[str, int]
    minus_depth: dict[str, int]
    plus_reach: dict[str, int]
    minus_reach: dict[str, int]


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


def chain_table(
    membership: Membership,
    alphabet: Alphabet,
    max_len: int,
    cap: int = DEFAULT_WORD_CAP,
) -> BoundedChainTable:
    """Tabulate chain depths and reaches for all words up to max_len."""
    words = enumerate_words(alphabet, max_len, cap)
    member = {w: bool(membership(w)) for w in words}
    plus, plus_reach = _depths(words, member, start_inside=True)
    minus, minus_reach = _depths(words, member, start_inside=False)
    return BoundedChainTable(
        max_len, tuple(words), member, plus, minus, plus_reach, minus_reach
    )


def cross_check(
    dfa: Dfa,
    max_len: int,
    max_m: int = 3,
    cap: int = DEFAULT_WORD_CAP,
) -> list[str]:
    """Compare the automata pipeline against this module on one machine.

    Reads both chains off one level walk: to its end when the language is
    piecewise testable, otherwise through level max_m.  Checks that levels
    0..max_m agree with the brute-force level sets word for word up to
    max_len, and, in the finite case, that the brute-force depth bounds
    never exceed the measures the chains give.  Returns human-readable
    mismatch descriptions; an empty list means full agreement.
    """
    if max_m < 0:
        raise InputError(f"level bound must be nonnegative, got {max_m}")
    table = chain_table(dfa.accepts, dfa.alphabet, max_len, cap)
    finite = is_piecewise_testable(dfa)
    plus_chain, minus_chain = _chains(dfa, None if finite else max_m + 1)
    empty = empty_language(dfa.alphabet)
    problems: list[str] = []
    too_small: list[str] = []
    for side, reach, depths, chain in (
        ("plus", table.plus_reach, table.plus_depth, plus_chain),
        ("minus", table.minus_reach, table.minus_depth, minus_chain),
    ):
        for m in range(max_m + 1):
            machine = chain[m] if m < len(chain) else empty
            wrong = [w for w in table.words if (reach[w] >= m) != machine.accepts(w)]
            if wrong:
                sample = sorted(wrong, key=lambda w: (len(w), w))[:3]
                problems.append(
                    f"{side} level {m}: bounded sets disagree, e.g. {sample}"
                )
        bound = max(depths.values())
        if finite and bound > len(chain) - 1:
            too_small.append(
                f"{side} measure {len(chain) - 1} is below the brute-force bound {bound}"
            )
    return problems + too_small
