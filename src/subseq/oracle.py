"""Brute-force ground truth over bounded word sets.

Everything here works from a bare membership predicate, independent of the
automata pipeline, so it can cross-check that pipeline on small instances.
Chain depths come from dynamic programming over the subword lattice
restricted to words up to a length bound; single-letter deletions generate
the covering relation of that lattice, which keeps the tables cheap.  A
chain ending at a word only ever uses subwords of it, so the bounded
tables are self-contained and every reported depth is a true lower bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .automata import Alphabet, Dfa, complement
from .errors import InputError, WordCapExceededError

__all__ = [
    "DEFAULT_WORD_CAP",
    "enumerate_words",
    "BoundedChainTable",
    "chain_table",
    "m_plus_lower_bound",
    "m_minus_lower_bound",
    "l_plus_bounded",
    "l_minus_bounded",
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
    """

    max_len: int
    words: tuple[str, ...]
    member: dict[str, bool]
    plus_depth: dict[str, int]
    minus_depth: dict[str, int]


def _deletions(word: str) -> Iterator[str]:
    seen = set()
    for i in range(len(word)):
        shorter = word[:i] + word[i + 1 :]
        if shorter not in seen:
            seen.add(shorter)
            yield shorter


def _depths(words: list[str], member: dict[str, bool], start_inside: bool) -> dict[str, int]:
    # best_in / best_out track the deepest chain ending at any member /
    # non-member subword seen so far; deletions cover all proper subwords.
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
    return depth


def chain_table(
    membership: Membership,
    alphabet: Alphabet,
    max_len: int,
    cap: int = DEFAULT_WORD_CAP,
) -> BoundedChainTable:
    """Tabulate chain depths for all words up to max_len."""
    words = enumerate_words(alphabet, max_len, cap)
    member = {w: bool(membership(w)) for w in words}
    plus = _depths(words, member, start_inside=True)
    minus = _depths(words, member, start_inside=False)
    return BoundedChainTable(max_len, tuple(words), member, plus, minus)


def m_plus_lower_bound(
    membership: Membership,
    alphabet: Alphabet,
    max_len: int,
    cap: int = DEFAULT_WORD_CAP,
) -> int:
    """Deepest plus-side chain visible among words up to max_len.

    Monotone in max_len and never larger than the true measure; equal to
    it once max_len covers the shortest deepest chain.
    """
    table = chain_table(membership, alphabet, max_len, cap)
    return max(table.plus_depth.values())


def m_minus_lower_bound(
    membership: Membership,
    alphabet: Alphabet,
    max_len: int,
    cap: int = DEFAULT_WORD_CAP,
) -> int:
    table = chain_table(membership, alphabet, max_len, cap)
    return max(table.minus_depth.values())


def _bounded_level(table: BoundedChainTable, depth: dict[str, int], m: int) -> set[str]:
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


def l_plus_bounded(
    membership: Membership,
    alphabet: Alphabet,
    m: int,
    max_len: int,
    cap: int = DEFAULT_WORD_CAP,
) -> set[str]:
    """Words of length up to max_len lying in the plus-side level m."""
    table = chain_table(membership, alphabet, max_len, cap)
    return _bounded_level(table, table.plus_depth, m)


def l_minus_bounded(
    membership: Membership,
    alphabet: Alphabet,
    m: int,
    max_len: int,
    cap: int = DEFAULT_WORD_CAP,
) -> set[str]:
    """Words of length up to max_len lying in the minus-side level m."""
    table = chain_table(membership, alphabet, max_len, cap)
    return _bounded_level(table, table.minus_depth, m)


def cross_check(
    dfa: Dfa,
    max_len: int,
    max_m: int = 3,
    cap: int = DEFAULT_WORD_CAP,
) -> list[str]:
    """Compare the automata pipeline against this module on one machine.

    Checks that each level automaton agrees with the brute-force level set
    word for word up to max_len, and that the brute-force depth bounds
    never exceed the computed measures.  Returns human-readable mismatch
    descriptions; an empty list means full agreement.
    """
    from .alternation import _levels, _measures

    if max_m < 0:
        raise InputError(f"level bound must be nonnegative, got {max_m}")
    table = chain_table(dfa.accepts, dfa.alphabet, max_len, cap)
    problems: list[str] = []
    for side, depths, language in (
        ("plus", table.plus_depth, dfa),
        ("minus", table.minus_depth, complement(dfa)),
    ):
        for m, machine in enumerate(itertools.islice(_levels(language), max_m + 1)):
            expected = _bounded_level(table, depths, m)
            actual = {w for w in table.words if machine.accepts(w)}
            if expected != actual:
                sample = sorted(expected ^ actual, key=lambda w: (len(w), w))[:3]
                problems.append(
                    f"{side} level {m}: bounded sets disagree, e.g. {sample}"
                )
    plus, minus = _measures(dfa)
    for side, depths, measure in (
        ("plus", table.plus_depth, plus),
        ("minus", table.minus_depth, minus),
    ):
        bound = max(depths.values())
        if measure.is_finite and bound > measure.value:
            problems.append(
                f"{side} measure {measure} is below the brute-force bound {bound}"
            )
    return problems
