"""Membership-alternating subword-extension chains and the measures they
induce.

For a language L, the plus-side level m collects every word that extends
the endpoint of a chain w0 ⊑ w1 ⊑ ... ⊑ wm whose membership in L flips at
each step and starts inside L; the minus side starts outside.  The largest
m with a nonempty level is the alternation measure, and comparing it with
k decides membership in the k-th class of the difference hierarchy built
over the upward closed languages (plus measure below k).

Both chains come from one walk of the side whose start rejects ε; the
other side is Σ* followed by it (``_chains``).  ``_walk`` decides piecewise
testability once and walks to the end only on a yes; every measure and
chain here, and the oracle's comparison, read one ``_walk`` of the minimal
automaton, which each public function builds once.  The walk stays within
minimized automata, one step per level, and stops at the first empty
level.  The tests check it against two separate walks and a tuple-state
construction that guesses the whole chain at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import total_ordering
from typing import Iterator

from .automata import (
    Alphabet,
    Dfa,
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
from .patterns import PatternWitness, _detect_p3, _is_piecewise_testable, _witness_fields
from .subword import _is_upward_closed, _minimal_words, upward_closure

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


def _levels(minimal: Dfa) -> Iterator[Dfa]:
    """Minimal automata for the nonempty plus-side levels 0, 1, 2, ... in
    order, stopping at the first empty level: after m_plus + 1 levels when
    the language is piecewise testable, never otherwise.

    Level m is the upward closure of the valid chain endpoints, which even
    steps push out of the language and odd steps pull back in; a minimal
    automaton is empty exactly when it has no accepting state.  The one
    caller, ``_chains``, passes the minimal automaton: the steps intersect
    with it and its complement, and any other gives larger products.
    """
    flip = (complement(minimal), minimal)
    current = minimal
    for step in itertools.count():
        closed = upward_closure(current)
        if not closed.accepting:
            return
        yield closed
        current = minimize(intersection(closed, flip[step % 2]))


def _chains(minimal: Dfa) -> tuple[Iterator[Dfa], Iterator[Dfa]]:
    """Both sides' levels, lazily, off one walk of the side that rejects ε
    (the shift lemma): if ε ∈ L, plus level 0 is ↑L = Σ*, and level 1 is
    ↑(Σ* ∩ Lᶜ) = ↑Lᶜ, minus level 0; both then take the same steps, so
    plus level i+1 is minus level i.  If ε ∉ L the sides swap.  Each level
    is closed once, when the first side reads it, and nothing is built
    before a level is read."""
    inside = minimal.start in minimal.accepting

    def walk() -> Iterator[Dfa]:
        yield from _levels(complement(minimal) if inside else minimal)

    walked, copy = itertools.tee(walk())

    def shifted() -> Iterator[Dfa]:
        yield universal_language(minimal.alphabet)
        yield from copy

    return (shifted(), walked) if inside else (walked, shifted())


def l_plus(dfa: Dfa, m: int) -> Dfa:
    """Minimal automaton for the plus-side level m.

    Reads the plus side of ``_chains`` only up to level m, so it closes at
    most m levels when ε ∈ L and m + 1 otherwise."""
    if m < 0:
        raise InputError("chain level must be nonnegative")
    dfa = minimize(dfa)
    plus, _ = _chains(dfa)
    return next(itertools.islice(plus, m, None), empty_language(dfa.alphabet))


def l_minus(dfa: Dfa, m: int) -> Dfa:
    """Minimal automaton for the minus-side level m (chains starting outside)."""
    return l_plus(complement(dfa), m)


def _walk(
    minimal: Dfa, depth: int = 0
) -> tuple[AlternationMeasure, AlternationMeasure, list[Dfa], list[Dfa]]:
    """(m_plus, m_minus, plus levels, minus levels) of the minimal automaton
    ``minimal``, from one piecewise-testability verdict: if yes, the walk
    runs to its end and each measure is its side's chain length less one;
    if no, the walk would never end, both measures are infinite (level 1
    is closed under complement) and each side keeps its first ``depth``."""
    finite = _is_piecewise_testable(minimal)
    plus, minus = (list(itertools.islice(c, None if finite else depth)) for c in _chains(minimal))
    measures = (len(plus) - 1, len(minus) - 1) if finite else (None, None)
    return (*map(AlternationMeasure, measures), plus, minus)


def m_plus(dfa: Dfa) -> AlternationMeasure:
    """Maximal depth of an alternating extension chain starting inside.

    Infinity is decided up front by the polynomial piecewise-testability
    test on the minimal automaton; the level walk then runs only in the
    finite case, where it ends after m_plus + 1 levels.  (Walking alone
    never ends on a language that is not piecewise testable; only a depth
    bound exponential in the automaton size would then settle infinity,
    which is not a practical algorithm.)
    """
    return _walk(minimize(dfa))[0]


def m_minus(dfa: Dfa) -> AlternationMeasure:
    """Chain depth starting outside: the plus measure of the complement."""
    return _walk(minimize(dfa))[1]


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
    _, minus, _, levels = _walk(minimize(dfa))
    if not minus.is_finite:
        raise InfiniteMeasureError("language has unbounded alternation depth")
    return levels


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


@dataclass(frozen=True)
class ClassificationReport:
    """Full verdict for one language."""

    language: str
    in_level_one_half: bool
    in_co_level_one_half: bool
    ideal_decomposition: tuple[str, ...] | None
    m_plus: AlternationMeasure
    m_minus: AlternationMeasure
    minimal_k_plus: int | None
    minimal_k_co: int | None
    piecewise_testable: bool
    pattern_witness: PatternWitness | None

    def to_dict(self) -> dict:
        values = {name: getattr(self, name) for name in _REPORT_FIELDS}
        if self.ideal_decomposition is not None:
            values["ideal_decomposition"] = list(self.ideal_decomposition)
        values["m_plus"] = self.m_plus.json_value()
        values["m_minus"] = self.m_minus.json_value()
        w = self.pattern_witness
        values["pattern_witness"] = None if w is None else {"kind": w.kind, **_witness_fields(w)}
        return values


_REPORT_FIELDS = tuple(f.name for f in fields(ClassificationReport))


def _check_report(report: ClassificationReport, dfa: Dfa) -> None:
    """Internal consistency constraints, asserted on every classification.

    They tie independent constructions together: the level-1/2 booleans
    come from the single-letter insertion test and the measures from the
    level chain of upward closures, so the two must agree at level one;
    witness presence must agree with finiteness, and a witness must replay.
    Finite measures differ by one, ∅ and Σ* included: one walk gives both, so
    this checks the wiring; the two walks in ``tests/helpers.py`` check it.
    """
    plus, minus = report.m_plus, report.m_minus
    one = AlternationMeasure.finite(1)
    ok = (
        report.piecewise_testable == plus.is_finite
        and plus.is_finite == minus.is_finite
        and report.in_level_one_half == (plus < one)
        and report.in_co_level_one_half == (minus < one)
        and (report.pattern_witness is None) == plus.is_finite
        and (plus.is_finite or report.pattern_witness.holds_in(dfa))
        and report.minimal_k_plus == (plus.value + 1 if plus.is_finite else None)
        and report.minimal_k_co == (minus.value + 1 if minus.is_finite else None)
        and (not plus.is_finite or abs(plus.value - minus.value) == 1)
    )
    if not ok:
        raise AssertionError(
            f"inconsistent classification for {report.language!r}: {report.to_dict()}"
        )


def classify(dfa: Dfa, name: str = "language") -> ClassificationReport:
    """Run every classification the toolkit offers on one automaton.

    Every stage reads the one minimal automaton built here, whose order
    serves both level-1/2 checks as the complement has the same graph, and
    one level walk of it, whose verdict settles both measures; the pattern
    search runs on ``dfa`` itself, and only when that verdict is no.
    """
    minimal = minimize(dfa)
    return _classify(dfa, minimal, _walk(minimal), name)


def _classify(dfa: Dfa, minimal: Dfa, walk: tuple, name: str) -> ClassificationReport:
    """``classify`` reading its measures off ``walk``, any ``_walk`` of ``minimal``."""
    order = _topological_order(minimal)
    decomposition = None
    if _is_upward_closed(minimal, order):
        decomposition = _minimal_words(minimal, order)
    plus, minus = walk[:2]
    witness = None
    if not plus.is_finite:
        witness = _detect_p3(dfa, minimal)
        if witness is None:
            raise AssertionError(
                f"piecewise-testability verdicts disagree on {name!r}: "
                "is_piecewise_testable says no, detect_p3 finds no witness"
            )
    report = ClassificationReport(
        language=name,
        in_level_one_half=decomposition is not None,
        in_co_level_one_half=order is not None and _is_upward_closed(complement(minimal), order),
        ideal_decomposition=decomposition,
        m_plus=plus,
        m_minus=minus,
        minimal_k_plus=plus.value + 1 if plus.is_finite else None,
        minimal_k_co=minus.value + 1 if minus.is_finite else None,
        piecewise_testable=plus.is_finite,
        pattern_witness=witness,
    )
    _check_report(report, dfa)
    return report
