"""Brute-force ground truth over bounded word sets.

``chain_table`` works from a bare membership predicate, independent of
the automata pipeline.  ``cross_check``, which checks that pipeline on
small instances, steps the input and the walked levels together over the
words (``_joint``) but takes only memberships from them: the chain depths
it checks the levels against come from the input's memberships alone.
Chain depths come from dynamic programming over the subword lattice
restricted to words up to a length bound; single-letter deletions generate
the covering relation of that lattice, which keeps the tables cheap.  A
chain ending at a word only ever uses subwords of it, so the bounded
tables are self-contained and every reported depth is a true lower bound.

Words are handled by their position in the shortlex order of
``enumerate_words``.  Over k letters, word i > 0 is word (i - 1) // k
followed by letter (i - 1) % k, so the word p followed by letter a sits at
p·k + a + 1.  Two consequences keep the work in whole lists, one word
length at a time:

- The state an automaton reaches on word i is one step from the state of
  its prefix, so the rows of the transition table, taken in the order of
  the words' states, list the states of the next words (``_states``).
- Within its length ℓ, a word of rank x = hi·k·B + c·B + lo, with
  B = k^(ℓ-1-i) and c its letter at position i, loses that letter to
  become the word of rank hi·B + lo of length ℓ - 1.  So the depths of
  the words' deletions at position i are the previous length's lanes
  with each block of B lanes repeated k times (``_spread``, by slice
  copies: one strided copy per offset and copy when B² is at most the
  previous length, else one per block), and the lanewise max of the ℓ
  spreads gives every word's deepest deletion.
  At i = 0, B is the whole previous length, so that spread is its lanes
  repeated k times.  A run of equal letters repeats a deletion, which
  does not change a max; over one letter every B is 1, every deletion
  the same word, and the spread at i = 0 the only one taken.

``_depths`` holds each length's depths as one lane per word of a typed
``array``, storing depth + 1 so that 0 is no chain, and takes the max
with a spread in a few big-int operations on ``int.from_bytes`` of the
lanes, SIMD within a register (Fisher & Dietz, LCPC 1998): with H the
top bit of every lane, a guard that the lanes keep clear, the lanes of
(a | H) - b that keep H are those where a >= b, and adding a - b there to
b gives the max.  A depth is at most its word's length, so one-byte
lanes cover every bound up to 127, every call over two or more letters
under the default word cap among them; a one-letter alphabet past that
takes wider ones.

Depth never falls along the subword order: a chain ending at a subword
of w ends at w too, after replacing that subword by w or appending w.  So
the deepest chain ending at a proper subword of w is the deepest one
ending at a deletion, r, and w's depth is r or r + 1, whichever has the
parity that w's membership forces on the last word of a chain (-1, no
chain, counts as odd), one masked add over a length's lanes.  For the
same reason a word's depth is also the deepest chain ending at any of
its subwords, so every bounded level m is the set of words whose depth
is at least m.

The pass walks the side whose chains start where ε is not, as
``alternation._levels`` does.  ε is a subword of every word, so it can
open every chain of the other side in place of its first word, and it
extends every chain of the walked side by one; the other side's depths
are the walked side's plus one.

``cross_check`` sets those depths, from the input's membership, against
the levels and measures of one ``alternation._walk``, the one its report
was read from under ``classify --oracle-check``.  One breadth-first
search steps the input and the walked levels 0..max_m together over
their state tuples (``_joint``), expanding only the tuples that words
shorter than the length bound reach, so it builds no more tuples than
there are words; each tuple carries the input's membership and a bit per
level that accepts it, and one pass of ``_states`` over the tuples' rows
gives every word its tuple.  A level of the other side is a walked level
one depth lower, so each walked depth is compared once: a word of walked
depth d belongs to levels 0..d, its expected bits are looked up by its
lane, and one list comparison of the words' bits settles every level.
Σ*, the shifted side's extra level, holds every word, so it is neither
stepped nor compared.  Words are spelled out only for the sample of a
level that disagrees.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from operator import getitem, xor
from typing import Callable, NamedTuple, Sequence

from .alternation import _Walk, _shifts, _walk
from .automata import Alphabet, Dfa
from .errors import InputError, WordCapExceededError

__all__ = [
    "DEFAULT_WORD_CAP",
    "enumerate_words",
    "BoundedChainTable",
    "chain_table",
    "cross_check",
]

DEFAULT_WORD_CAP = 10**6
DEFAULT_MAX_M = 3  # the highest level compared; the walk takes max_m + 1 levels

Membership = Callable[[str], bool]


def _word_count(k: int, max_len: int, cap: int) -> int:
    """The number of words over k letters up to length max_len, after the
    cap checks that ``enumerate_words`` documents."""
    if max_len < 0:
        raise InputError(f"word length bound must be nonnegative, got {max_len}")
    # two or more letters give k ** cap.bit_length() > cap, so the
    # exponent never needs to pass cap.bit_length()
    if k ** min(max_len, cap.bit_length()) > cap:
        raise WordCapExceededError(f"{k}^{max_len} words exceed the cap of {cap}")
    if max_len + 1 > cap:
        raise WordCapExceededError(f"{max_len + 1} words exceed the cap of {cap}")
    return sum(k**n for n in range(max_len + 1))


def enumerate_words(alphabet: Alphabet, max_len: int, cap: int = DEFAULT_WORD_CAP) -> list[str]:
    """Every word of length up to max_len, shortest first, alphabet order
    within a length.  Raises WordCapExceededError when the longest
    generation alone, or the max_len + 1 generations together, would
    exceed ``cap`` words."""
    letters = alphabet.letters
    _word_count(len(letters), max_len, cap)
    words: list[str] = []
    for n in range(max_len + 1):
        words.extend(map("".join, itertools.product(letters, repeat=n)))
    return words


class BoundedChainTable(NamedTuple):
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


def _spread(below: array, block: int, k: int) -> array:
    """``below`` with each block of ``block`` lanes repeated k times."""
    n = len(below)
    if block * block <= n:
        # block·k strided copies of n / block lanes: the lanes at one
        # offset within their blocks, into one of the k copies, over a
        # buffer of the right size whose every lane they overwrite
        out = below * k
        for offset in range(block):
            column = below[offset::block]
            for first in range(offset, block * k, block):
                out[first :: block * k] = column
        return out
    # n / block slice copies of block lanes
    out = array(below.typecode)
    for start in range(0, n, block):
        out += below[start : start + block] * k
    return out


def _depths(member: list[bool], k: int) -> array:
    """The walked side's chain depths plus one, one lane per word over k
    letters up to some length, given the words' memberships in shortlex
    order; 0 is no chain."""
    longest, count = 0, 1
    while count < len(member):
        longest += 1
        count += k**longest
    # a lane holds at most longest, below its guard bit, the top one
    typecode = next(t for t in "BHIQ" if longest < 1 << (8 * array(t).itemsize - 1))
    width = array(typecode).itemsize
    guard = 8 * width - 1
    order = sys.byteorder
    epsilon_in = member[0]
    lanes, below = array(typecode, [0]), array(typecode, [0])  # ε ends no chain
    for _ in range(longest):
        n = len(below) * k
        low = int.from_bytes(array(typecode, [1]) * n, order)
        high = low << guard
        # one spread per letter position, the first letter's deletion, whose
        # block is the whole previous length, first, then blocks 1, k, k², ...
        # below it: none over one letter, where every deletion is one word.
        # Each max keeps the guard bit of (a | high) - b, set in the lanes
        # where a >= b, and adds a - b to b there
        deepest = int.from_bytes(below * k, order)
        block = 1
        while block < len(below):
            spread = int.from_bytes(_spread(below, block, k), order)
            diff = (deepest | high) - spread
            keep = diff & high
            deepest = spread + (diff & (keep - (keep >> guard)))
            block *= k
        # the walked side's chains start where ε is not, so they put the
        # words whose membership differs from ε's at even depths, odd
        # lanes, and the others at odd depths or -1, even lanes: a word's
        # lane is its deepest deletion's, r, or r + 1, whichever has that
        # parity, so 1 is added where r's low bit is not the word's in
        # ``differs``
        start = len(lanes)
        inside = int.from_bytes(array(typecode, member[start : start + n]), order)
        differs = inside ^ (low if epsilon_in else 0)
        deepest += (deepest ^ differs) & low
        below = array(typecode, deepest.to_bytes(n * width, order))
        lanes += below
    return lanes


def chain_table(
    membership: Membership,
    alphabet: Alphabet,
    max_len: int,
    cap: int = DEFAULT_WORD_CAP,
) -> BoundedChainTable:
    """Tabulate both sides' chain depths for all words up to max_len."""
    words = enumerate_words(alphabet, max_len, cap)
    member = [bool(membership(w)) for w in words]
    lanes = _depths(member, len(alphabet))
    plus, minus = (map((shift - 1).__add__, lanes) for shift in _shifts(member[0]))
    return BoundedChainTable(
        max_len,
        tuple(words),
        dict(zip(words, member)),
        dict(zip(words, plus)),
        dict(zip(words, minus)),
    )


def _states(delta: Sequence[Sequence[int]], start: int, k: int, n_words: int) -> list[int]:
    """The state that the transition rows ``delta`` over k letters reach
    from ``start`` on each of the first n_words words in shortlex order;
    n_words counts every word up to some length."""
    states = [start]
    for p in range((n_words - 1) // k):
        states += delta[states[p]]
    return states


def _joint(machines: Sequence[Dfa], max_len: int) -> tuple[list[int], list[list[int]]]:
    """The state tuples that ``machines`` reach together on the words up to
    max_len, breadth first from the tuple of start states: each tuple's
    acceptance bits, bit i set when machine i accepts, and the successor
    indices by letter of the tuples that words shorter than max_len reach.

    Only those tuples are expanded, so there are never more tuples than
    words, whatever the size of the full product."""
    deltas = [machine.delta for machine in machines]
    index = {tuple(machine.start for machine in machines): 0}
    rows: list[list[int]] = []
    for _ in range(max_len):
        for states in list(index)[len(rows) :]:
            successors = zip(*map(getitem, deltas, states))
            rows.append([index.setdefault(t, len(index)) for t in successors])
    accepting = [machine.accepting for machine in machines]
    bits = [sum(1 << i for i, (q, acc) in enumerate(zip(t, accepting)) if q in acc) for t in index]
    return bits, rows


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
    return _compare(dfa, _walk(dfa, max_m + 1), max_len, max_m, cap)


def _compare(dfa: Dfa, walk: _Walk, max_len: int, max_m: int, cap: int) -> list[str]:
    """``cross_check`` against ``walk``, any ``_walk`` of ``dfa`` that
    holds at least max_m + 1 levels or ends before."""
    k = len(dfa.alphabet)
    n_words = _word_count(k, max_len, cap)
    bits, rows = _joint((dfa, *walk.walked[: max_m + 1]), max_len)
    reached = _states(rows, 0, k, n_words)  # the tuple of each word
    member = [bool(b & 1) for b in bits]
    lanes = _depths(list(map(member.__getitem__, reached)), k)
    deepest = max(lanes) - 1
    # bit i of a word's mask is set when walked level i accepts it, and a
    # word of walked depth d belongs to levels 0..d, so its expected mask,
    # indexed by its lane d + 1, has bits 0..min(d, max_m); levels past
    # the walk's end are empty and never set their bits
    masks = [b >> 1 for b in bits]
    expected = [(1 << min(lane, max_m + 1)) - 1 for lane in range(deepest + 2)]
    observed = list(map(masks.__getitem__, reached))
    wanted = list(map(expected.__getitem__, lanes))
    problems: list[str] = []
    shifts = _shifts(member[0])
    if observed != wanted:
        words = enumerate_words(dfa.alphabet, max_len, cap)
        wrong = list(map(xor, observed, wanted))
        samples = [
            list(itertools.islice(itertools.compress(words, (w >> i & 1 for w in wrong)), 3))
            for i in range(max_m + 1)
        ]
        for side, shift in zip(("plus", "minus"), shifts):
            for m in range(shift, max_m + 1):
                if sample := samples[m - shift]:
                    problems.append(f"{side} level {m}: bounded sets disagree, e.g. {sample}")
    for side, shift, measure in zip(("plus", "minus"), shifts, walk.measures):
        bound = deepest + shift
        if measure.is_finite and bound > measure.value:
            problems.append(f"{side} measure {measure} is below the brute-force bound {bound}")
    return problems
