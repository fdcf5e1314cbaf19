"""The subword (scattered subsequence) order and the bottom half-level of
the hierarchy: shuffle ideals, upward closure, the membership test for
upward closed regular languages, and their canonical decomposition into a
union of shuffle ideals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    Alphabet,
    Dfa,
    Nfa,
    _topological_order,
    complement,
    determinize,
    equivalent,
    minimize,
    shortest_accepted_word,
    symmetric_difference,
)
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
    for ch in word:
        alphabet.index(ch)
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

    A self-loop on every letter at every state lets the machine skip
    letters at will, so a word is accepted exactly when some subsequence of
    it was; determinize and minimize the result.
    """
    width = len(dfa.alphabet)
    delta = tuple(
        tuple(frozenset({dfa.delta[s][j], s}) for j in range(width))
        for s in range(dfa.n_states)
    )
    looped = Nfa(dfa.alphabet, dfa.n_states, delta, frozenset({dfa.start}), dfa.accepting)
    return minimize(determinize(looped))


def is_level_one_half(dfa: Dfa) -> bool:
    """Is the language a finite union of shuffle ideals?

    Equivalent to being upward closed, which is what is actually checked.
    """
    return equivalent(upward_closure(dfa), dfa)


def is_co_level_one_half(dfa: Dfa) -> bool:
    """Is the complement a finite union of shuffle ideals?"""
    return is_level_one_half(complement(dfa))


@dataclass(frozen=True)
class IdealDecomposition:
    """An upward closed language written as a union of shuffle ideals.

    ``words`` is an antichain under the subword order (no word embeds in
    another), sorted by length then alphabetically; two automata for the
    same language always decompose to the same value.
    """

    words: tuple[str, ...]

    def __post_init__(self) -> None:
        for w in self.words:
            for v in self.words:
                if w != v and is_subword(w, v):
                    raise ValueError(
                        f"decomposition is not an antichain: {w!r} embeds in {v!r}"
                    )


def decompose_level_half(dfa: Dfa) -> IdealDecomposition:
    """Canonical shuffle-ideal decomposition of an upward closed language.

    The returned words are the subword-minimal members of the language,
    computed on its upward closure, which is minimal and, once the check
    passes, accepts the same language.  Let Min(q) be the minimal words
    of the residual language L_q: [""] when q accepts, otherwise the
    subword-minimal words among a + w with q.a != q and w in Min(q.a).
    In an upward closed language L_q is contained in L_{q.a}, so states on
    a cycle have equal residuals, and in a minimal automaton every cycle
    is a self-loop; the states therefore have a topological order, and
    Min is filled in one pass in reverse of it.  A word starting with a
    self-loop letter is never minimal, since the word without that letter
    is still in L_q; and if a + w is minimal in L_q, w is minimal in
    L_{q.a}.
    Every residual of a union of k ideals is a union of at most k ideals,
    so |Min(q)| <= k and the pass is polynomial in the states and k.

    Raises NotUpwardClosedError, carrying a shortest counterexample word,
    when the language is not upward closed.
    """
    closed = upward_closure(dfa)
    witness = shortest_accepted_word(symmetric_difference(closed, dfa))
    if witness is not None:
        raise NotUpwardClosedError(
            f"language is not upward closed: {witness!r} extends an accepted word "
            "but is not accepted",
            witness=witness,
        )

    letters = closed.alphabet.letters
    minimal: dict[int, list[str]] = {}
    for q in reversed(_topological_order(closed)):
        kept = [""] if q in closed.accepting else []
        candidates = {
            a + w for a, t in zip(letters, closed.delta[q]) if t != q for w in minimal[t]
        }
        for w in sorted(candidates, key=lambda w: (len(w), w)):
            if not any(is_subword(u, w) for u in kept):
                kept.append(w)
        minimal[q] = kept
    return IdealDecomposition(tuple(minimal[closed.start]))
