"""Membership-alternating subword-extension chains and the measures they
induce.

For a language L, the plus-side level m collects every word that extends
the endpoint of a chain w0 ⊑ w1 ⊑ ... ⊑ wm whose membership in L flips at
each step and starts inside L; the minus side starts outside.  The largest
m with a nonempty level is the alternation measure, and comparing it with
k decides membership in the k-th class of the difference hierarchy built
over the upward closed languages (plus measure below k).

Both chains come from one walk of the side whose start rejects ε; the
other side is Σ* followed by it (``_levels``, ``_shifts``).  ``_walk``
decides piecewise testability once and walks to the end only on a yes;
every measure here, and the oracle's comparison, read one ``_Walk``,
which each public function builds once from its input, minimizing it
once.  The walk stays within minimized automata, one step per level, and
stops at the first empty level.  The tests check it against two separate
walks and a tuple-state construction that guesses the whole chain at once.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple

from .automata import (
    Alphabet,
    Dfa,
    _minimize,
    _topological_order,
    complement,
    difference,
    empty_language,
    intersection,
    minimize,
    union,
    universal_language,
)
from .errors import InfiniteMeasureError, InputError
from .patterns import (
    PatternWitness,
    _is_piecewise_testable,
    _witness,
    _witness_fields,
)
from .subword import _minimal_words, upward_closure

__all__ = [
    "AlternationMeasure",
    "ClassificationReport",
    "classify",
    "l_plus",
    "l_minus",
    "m_plus",
    "m_minus",
    "in_boolean_level",
    "mk_witness",
    "normal_form_decomposition",
    "reassemble_normal_form",
]

class _MeasureFields(NamedTuple):
    value: int | None


class AlternationMeasure(_MeasureFields):
    """Maximal alternation depth: a finite integer >= -1, or infinite.

    -1 means not even a depth-0 chain exists (the base level is empty);
    None encodes infinity and compares greater than every finite value.
    """

    __slots__ = ()

    def __new__(cls, value: int | None) -> AlternationMeasure:
        if value is not None and value < -1:
            raise InputError(f"alternation depth {value} out of range")
        return tuple.__new__(cls, (value,))

    @classmethod
    def _make(cls, iterable: Iterable) -> AlternationMeasure:
        # ``_replace`` builds its result here: keep it checked
        return cls(*iterable)

    @classmethod
    def finite(cls, n: int) -> "AlternationMeasure":
        return cls(n)

    @classmethod
    def infinite(cls) -> "AlternationMeasure":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    # tuple defines every ordering, so all four are spelled out here: the
    # tuple's own would order (None,) against (3,) and raise TypeError
    @property
    def _rank(self) -> float:
        return float("inf") if self.value is None else self.value

    def __lt__(self, other: AlternationMeasure) -> bool:
        return self._rank < other._rank

    def __le__(self, other: AlternationMeasure) -> bool:
        return self._rank <= other._rank

    def __gt__(self, other: AlternationMeasure) -> bool:
        return self._rank > other._rank

    def __ge__(self, other: AlternationMeasure) -> bool:
        return self._rank >= other._rank

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def json_value(self) -> int | str:
        return "inf" if self.value is None else self.value


def _shifts(epsilon_in: bool) -> tuple[int, int]:
    """How many Σ* levels the plus and the minus side have ahead of the
    levels that ``_levels`` walks, given whether ε is in the language."""
    return (1, 0) if epsilon_in else (0, 1)


def _levels(minimal: Dfa) -> Iterator[Dfa]:
    """Minimal automata for the nonempty levels 0, 1, 2, ... of the side
    of ``minimal``'s language whose chains start where ε is not, up to the
    first empty level: after that side's measure + 1 levels when the
    language is piecewise testable, never otherwise.

    The other side is Σ* followed by these levels (the shift lemma): if
    ε ∈ L, plus level 0 is ↑L = Σ*, and plus level 1 is ↑(Σ* ∩ Lᶜ) = ↑Lᶜ,
    minus level 0; both then take the same steps, so plus level i+1 is
    minus level i.  If ε ∉ L the sides swap (``_shifts``).  Level m is the
    upward closure of the valid chain endpoints, which even steps push out
    of the walked language and odd steps pull back in.  The complement is
    built once, when the first level is read; the steps intersect with it
    and ``minimal``, as any other pair gives larger products.
    """
    outside = complement(minimal)
    if minimal.start in minimal.accepting:
        minimal, outside = outside, minimal
    flip = (outside, minimal)
    current = minimal
    for step in itertools.count():
        closed = upward_closure(current)
        if not closed.accepting:
            return
        yield closed
        current = minimize(intersection(closed, flip[step % 2]))


def l_plus(dfa: Dfa, m: int) -> Dfa:
    """Minimal automaton for the plus-side level m.

    Reads ``_levels`` only up to level m, so it closes at most m levels
    when ε ∈ L and m + 1 otherwise."""
    if m < 0:
        raise InputError("chain level must be nonnegative")
    dfa = minimize(dfa)
    shift = _shifts(dfa.start in dfa.accepting)[0]
    levels = itertools.chain([universal_language(dfa.alphabet)] * shift, _levels(dfa))
    return next(itertools.islice(levels, m, None), empty_language(dfa.alphabet))


def l_minus(dfa: Dfa, m: int) -> Dfa:
    """Minimal automaton for the minus-side level m (chains starting outside)."""
    return l_plus(complement(dfa), m)


class _Walk(NamedTuple):
    """One level walk of ``minimal``, the input's minimal automaton, whose
    state ``classes[s]`` has input state s's language (``_minimize``),
    after one piecewise-testability verdict, ``finite``.  On a yes,
    ``walked`` is all of ``_levels`` and each measure is its side's chain
    length less one; on a no, the walk would never end, both measures are
    infinite (level 1 is closed under complement) and ``walked`` is a
    prefix.  ``order`` is the verdict's ``_topological_order``, None when
    some cycle is not a self-loop."""

    minimal: Dfa
    classes: list[int]
    order: list[int] | None
    finite: bool
    walked: tuple[Dfa, ...]

    @property
    def measures(self) -> tuple[AlternationMeasure, AlternationMeasure]:
        """(m_plus, m_minus)."""
        shifts = _shifts(self.minimal.start in self.minimal.accepting)
        return tuple(
            AlternationMeasure(len(self.walked) - 1 + s if self.finite else None) for s in shifts
        )


def _walk(dfa: Dfa, depth: int = 0) -> _Walk:
    """The walk of ``dfa``'s one minimization: to its end if piecewise
    testable, else ``depth`` levels."""
    minimal, classes = _minimize(dfa)
    order = _topological_order(minimal)
    finite = _is_piecewise_testable(minimal, order)
    walked = tuple(itertools.islice(_levels(minimal), None if finite else depth))
    return _Walk(minimal, classes, order, finite, walked)


def m_plus(dfa: Dfa) -> AlternationMeasure:
    """Maximal depth of an alternating extension chain starting inside.

    Infinity is decided up front by the polynomial piecewise-testability
    test on the minimal automaton; the level walk then runs only in the
    finite case, where it ends after m_plus + 1 levels.  (Walking alone
    never ends on a language that is not piecewise testable; only a depth
    bound exponential in the automaton size would then settle infinity,
    which is not a practical algorithm.)
    """
    return _walk(dfa).measures[0]


def m_minus(dfa: Dfa) -> AlternationMeasure:
    """Chain depth starting outside: the plus measure of the complement."""
    return _walk(dfa).measures[1]


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
    rows = tuple(
        tuple(min(c + 1, k + 1) if j == target else c for j in range(len(alphabet)))
        for c in range(k + 2)
    )
    accepting = {c for c in range(k + 1) if c % 2 == 1}
    if k % 2 == 1:
        accepting.add(k + 1)
    return Dfa(alphabet, k + 2, rows, 0, frozenset(accepting))


def normal_form_decomposition(dfa: Dfa) -> list[Dfa]:
    """Nested chain of minus-side levels whose alternating differences
    rebuild the language (see ``reassemble_normal_form``).

    Returns [level 0, ..., level m_minus], each minimal and each a
    superset of the next; empty when the language is everything.  Raises
    InfiniteMeasureError when the language is not piecewise testable,
    since then no finite chain exists.
    """
    walk = _walk(dfa)
    if not walk.finite:
        raise InfiniteMeasureError("language has unbounded alternation depth")
    shift = _shifts(walk.minimal.start in walk.minimal.accepting)[1]
    return [universal_language(dfa.alphabet)] * shift + list(walk.walked)


def reassemble_normal_form(levels: list[Dfa], alphabet: Alphabet) -> Dfa:
    """Rebuild a language from its minus-side level chain.

    Everything outside level 0, plus the words in level 1 but not level 2,
    plus those in level 3 but not level 4, and so on; levels past the end
    of the chain are empty.
    """

    padded = list(levels) + [empty_language(alphabet)] * 2
    result = complement(padded[0])
    for i in range(1, len(levels) + 1, 2):
        result = union(result, difference(padded[i], padded[i + 1]))
    return minimize(result)


class ClassificationReport(NamedTuple):
    """Full verdict for one language: what ``classify`` decides, and the
    class verdicts that the criterion (L is in the k-th class exactly when
    m_plus < k) reads off the two measures, so no two of them disagree."""

    language: str
    ideal_decomposition: tuple[str, ...] | None
    m_plus: AlternationMeasure
    m_minus: AlternationMeasure
    pattern_witness: PatternWitness | None

    @property
    def in_level_one_half(self) -> bool:
        return self.m_plus < AlternationMeasure.finite(1)

    @property
    def in_co_level_one_half(self) -> bool:
        return self.m_minus < AlternationMeasure.finite(1)

    @property
    def minimal_k_plus(self) -> int | None:
        return None if self.m_plus.value is None else self.m_plus.value + 1

    @property
    def minimal_k_co(self) -> int | None:
        return None if self.m_minus.value is None else self.m_minus.value + 1

    @property
    def piecewise_testable(self) -> bool:
        return self.m_plus.is_finite

    def to_dict(self) -> dict:
        values = {name: getattr(self, name) for name in _REPORT_KEYS}
        if self.ideal_decomposition is not None:
            values["ideal_decomposition"] = list(self.ideal_decomposition)
        values["m_plus"] = self.m_plus.json_value()
        values["m_minus"] = self.m_minus.json_value()
        w = self.pattern_witness
        values["pattern_witness"] = None if w is None else {"kind": w.kind, **_witness_fields(w)}
        return values


_REPORT_KEYS = (
    "language", "in_level_one_half", "in_co_level_one_half", "ideal_decomposition",
    "m_plus", "m_minus", "minimal_k_plus", "minimal_k_co", "piecewise_testable",
    "pattern_witness",
)


def _check_report(report: ClassificationReport, dfa: Dfa) -> None:
    """Internal consistency constraints, asserted on every classification:
    a present witness must replay in ``dfa``, and finite measures differ by
    one, ∅ and Σ* included.  One walk gives both measures, so this checks
    the wiring; the two walks in ``tests/helpers.py`` check the shift lemma.
    """
    plus, minus = report.m_plus.value, report.m_minus.value
    w = report.pattern_witness
    ok = (w is None or w.holds_in(dfa)) and (None in (plus, minus) or abs(plus - minus) == 1)
    if not ok:
        raise AssertionError(
            f"inconsistent classification for {report.language!r}: {report.to_dict()}"
        )


def classify(dfa: Dfa, name: str = "language") -> ClassificationReport:
    """Run every classification the toolkit offers on one automaton.

    Every stage reads one level walk of the one minimization made here,
    whose verdict settles both measures; the class verdicts follow from
    the measures, the decomposition is read off the minimal automaton only
    when m_plus < 1, and a pattern search runs on ``dfa`` itself, with the
    walk's classes of its states, only when that verdict is no.  The
    witness is ``detect_p3``'s: the polynomial P1 search's when the
    minimal automaton has a cycle through distinct states, the polynomial
    P2 construction's otherwise, where no P1 witness exists.
    """
    return _classify(dfa, _walk(dfa), name)


def _classify(dfa: Dfa, walk: _Walk, name: str) -> ClassificationReport:
    """``classify`` reading its measures, the minimal automaton, its
    topological order and the classes of ``dfa``'s states off ``walk``,
    any ``_walk(dfa)``."""
    plus, minus = walk.measures
    decomposition = None
    if plus < AlternationMeasure.finite(1):
        decomposition = _minimal_words(walk.minimal, walk.order)
    witness = None
    if not walk.finite:
        witness = _witness(dfa, walk.classes)
        if witness is None:
            raise AssertionError(
                f"piecewise-testability verdicts disagree on {name!r}: "
                "is_piecewise_testable says no, the pattern search finds no witness"
            )
    report = ClassificationReport(name, decomposition, plus, minus, witness)
    _check_report(report, dfa)
    return report
