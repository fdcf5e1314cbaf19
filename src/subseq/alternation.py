"""Membership-alternating subword-extension chains and the measures they
induce.

For a language L, the plus-side level m collects every word that extends
the endpoint of a chain w0 ⊑ w1 ⊑ ... ⊑ wm whose membership in L flips at
each step and starts inside L; the minus side starts outside.  The largest
m with a nonempty level is the alternation measure, and comparing it with
k decides membership in the k-th class of the difference hierarchy built
over the upward closed languages (plus measure below k).

Level automata come from one closure-and-intersect walk that stays within
minimized automata, one step per level, and stops at the first empty
level; the measures, the normal form and the oracle all read that walk.
The tests cross-check it against an independent tuple-state construction
that guesses the whole chain at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator

from .automata import (
    Alphabet,
    Dfa,
    complement,
    difference,
    empty_language,
    intersection,
    minimize,
    union,
)
from .errors import InfiniteMeasureError, InputError
from .patterns import is_piecewise_testable
from .subword import upward_closure

__all__ = [
    "AlternationMeasure",
    "l_plus",
    "l_minus",
    "m_plus",
    "m_minus",
    "in_boolean_level",
    "mk_witness",
    "normal_form_decomposition",
    "reassemble_normal_form",
]

@total_ordering
@dataclass(frozen=True, eq=True)
class AlternationMeasure:
    """Maximal alternation depth: a finite integer >= -1, or infinite.

    -1 means not even a depth-0 chain exists (the base level is empty);
    None encodes infinity and compares greater than every finite value.
    """

    value: int | None

    def __post_init__(self) -> None:
        if self.value is not None and self.value < -1:
            raise InputError(f"alternation depth {self.value} out of range")

    @classmethod
    def finite(cls, n: int) -> "AlternationMeasure":
        return cls(n)

    @classmethod
    def infinite(cls) -> "AlternationMeasure":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __lt__(self, other: "AlternationMeasure") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def json_value(self) -> int | str:
        return "inf" if self.value is None else self.value


def _levels(dfa: Dfa) -> Iterator[Dfa]:
    """Minimal automata for the nonempty plus-side levels 0, 1, 2, ... in
    order, stopping at the first empty level.

    Level m is the upward closure of the set of valid chain endpoints,
    which even steps push out of the language and odd steps pull back in.
    A minimal automaton is empty exactly when it has no accepting state.
    The walk ends after m_plus + 1 levels when the language is piecewise
    testable and never ends otherwise, so its length less one is the plus
    measure.  The complement of a complete minimal automaton is minimal,
    and canonical numbering ignores acceptance, so ``complement(base)`` is
    already the complement's canonical form.
    """
    base = minimize(dfa)
    flip = (complement(base), base)
    current = base
    for step in itertools.count():
        closed = upward_closure(current)
        if not closed.accepting:
            return
        yield closed
        current = minimize(intersection(closed, flip[step % 2]))


def l_plus(dfa: Dfa, m: int) -> Dfa:
    """Minimal automaton for the plus-side level m."""
    if m < 0:
        raise InputError("chain level must be nonnegative")
    return next(itertools.islice(_levels(dfa), m, None), empty_language(dfa.alphabet))


def l_minus(dfa: Dfa, m: int) -> Dfa:
    """Minimal automaton for the minus-side level m (chains starting outside)."""
    return l_plus(complement(dfa), m)


def _measures(dfa: Dfa) -> tuple[AlternationMeasure, AlternationMeasure]:
    """Plus and minus measures from one piecewise-testability verdict.

    Level 1 is closed under complement, so the measures are infinite
    together; otherwise each is the length of its own level walk, less one.
    """
    if not is_piecewise_testable(dfa):
        return AlternationMeasure.infinite(), AlternationMeasure.infinite()
    plus, minus = (len(list(_levels(d))) - 1 for d in (dfa, complement(dfa)))
    return AlternationMeasure.finite(plus), AlternationMeasure.finite(minus)


def m_plus(dfa: Dfa) -> AlternationMeasure:
    """Maximal depth of an alternating extension chain starting inside.

    Infinity is decided up front by the polynomial piecewise-testability
    test on the minimal automaton; the level walk then runs only in the
    finite case, where it ends after m_plus + 1 levels.  (Walking alone
    never ends on a language that is not piecewise testable; only a depth
    bound exponential in the automaton size would then settle infinity,
    which is not a practical algorithm.)
    """
    if not is_piecewise_testable(dfa):
        return AlternationMeasure.infinite()
    return AlternationMeasure.finite(len(list(_levels(dfa))) - 1)


def m_minus(dfa: Dfa) -> AlternationMeasure:
    """Chain depth starting outside: the plus measure of the complement."""
    return m_plus(complement(dfa))


def in_boolean_level(dfa: Dfa, k: int, side: str = "plus") -> bool:
    """Membership in the k-th difference-hierarchy class ("plus") or in
    the complement class ("co")."""
    if k < 1:
        raise InputError("hierarchy level k must be positive")
    if side not in ("plus", "co"):
        raise InputError(f"side must be 'plus' or 'co', not {side!r}")
    measure = m_plus(dfa) if side == "plus" else m_minus(dfa)
    return measure < AlternationMeasure.finite(k)


def mk_witness(k: int, alphabet: Alphabet | None = None, letter: str = "a") -> Dfa:
    """Counter automaton whose plus measure is k-1 and minus measure is k,
    separating the k-th hierarchy class from its co-class.

    Tracks min(count, k+1) occurrences of ``letter`` in k+2 states;
    accepts "count odd or above k" for odd k and "count odd and at most k"
    for even k.
    """
    if k < 1:
        raise InputError("witness index k must be positive")
    if alphabet is None:
        alphabet = Alphabet("ab")
    target = alphabet.index(letter)
    width = len(alphabet)
    rows = []
    for count in range(k + 2):
        bumped = min(count + 1, k + 1)
        rows.append(tuple(bumped if j == target else count for j in range(width)))
    odd_counts = {c for c in range(k + 1) if c % 2 == 1}
    if k % 2 == 1:
        accepting = frozenset(odd_counts | {k + 1})
    else:
        accepting = frozenset(odd_counts)
    return Dfa(alphabet, k + 2, tuple(rows), 0, accepting)


def normal_form_decomposition(dfa: Dfa) -> list[Dfa]:
    """Nested chain of minus-side levels whose alternating differences
    rebuild the language (see ``reassemble_normal_form``).

    Returns [level 0, ..., level m_minus], each minimal and each a
    superset of the next; empty when the language is everything.  Raises
    InfiniteMeasureError when the language is not piecewise testable,
    since then no finite chain exists.
    """
    if not is_piecewise_testable(dfa):
        raise InfiniteMeasureError("language has unbounded alternation depth")
    return list(_levels(complement(dfa)))


def reassemble_normal_form(levels: list[Dfa], alphabet: Alphabet) -> Dfa:
    """Rebuild a language from its minus-side level chain.

    Everything outside level 0, plus the words in level 1 but not level 2,
    plus those in level 3 but not level 4, and so on; levels past the end
    of the chain are empty.
    """

    def level(i: int) -> Dfa:
        return levels[i] if i < len(levels) else empty_language(alphabet)

    result = complement(level(0))
    for i in range(1, len(levels) + 1, 2):
        result = union(result, difference(level(i), level(i + 1)))
    return minimize(result)
