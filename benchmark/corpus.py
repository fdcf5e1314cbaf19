"""Seeded input corpora for the benchmark workloads, with their known answers.

Inputs are built here from the seed alone, without importing the program
under test, so a change to the program cannot change what it is fed.  Seed
``s`` draws from ``random.Random(f"{workload}:{s}")``, so one seed always
yields byte-identical files, and another seed fresh files of the same
composition.  Keeping the composition fixed is what keeps the figures
steady from seed to seed.

``check_output`` compares one CLI call against the known answer and
returns "ok", "wrong" or "failed" (the call ended without an answer).
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass

WORKLOADS = ("pt-ladder", "random-mix", "ideal-decompose", "oracle-xcheck")

# (alphabet, ks, copies) of the mk_witness ladder; each copy renames the
# states anew.  Per-file cost grows about as k^5: k = 6 over "ab" and k = 5
# over "abc" cost ~0.12 s on a 2-vCPU x86 VM, k = 8 over "ab" three times
# that.  This ladder keeps a pass near 5 s, so that a run holds several
# passes, with at least 100 files, and the deepest files make up more than
# the top tenth, so that p90 falls among them.  A shallower ladder would
# leave more than a tenth of the time to the fixed cost of a CLI call.
LADDER = (("ab", range(1, 7), 2), ("abc", range(1, 6), 2))

# Random strongly connected DFAs: RANDOM_DRAWS files per size, 120 in all.
# Cost grows steeply with size (64 states over "ab" take ~0.4 s, 44 ~0.1 s),
# so many mid-size files rather than a few large ones keep a pass short.
RANDOM_SIZES = (("ab", range(8, 45)), ("abc", range(8, 31)))
RANDOM_DRAWS = 2
# A file's cost follows the number of subsets reached when the upward
# closure of its automaton is determinized (their logarithms correlate at
# 0.97), and that number varies by a factor of two and more between draws
# of one size.  So a draw is kept only when its log lies within
# SUBSET_BAND of a + b * size, the median of 24 draws per size, fitted per
# alphabet; then every seed gives files of one cost per size, and the seed
# no longer moves p90.
SUBSET_FIT = {"ab": (2.271, 0.1209), "abc": (2.013, 0.2054)}
SUBSET_BAND = 0.15

# Unions of k random words of one length: (alphabet, length, ks, repeats,
# fewest states of the union's automaton).  Longer words, or six words over
# "abc", make the simple-path enumeration in decompose_level_half explode
# (four words of length 6 over "ab" take ~17 s), and a few such files would
# decide every timing metric; these stay below ~40 ms each.  Six words of
# length 3 over "ab" cost ~30 ms once their automaton has 54 states or more,
# and a third of that below.  Drawing 24 such large ones puts p90 inside
# one class of cost, not at the edge of two, where the seed would move it.
UNIONS = (
    ("ab", 3, range(2, 6), 12, 0),
    ("ab", 3, range(6, 7), 24, 54),
    ("ab", 4, range(2, 4), 12, 0),
    ("abc", 2, range(2, 6), 12, 0),
    ("abc", 3, range(2, 4), 12, 0),
)
# Single-word shuffle ideals over "ab", with few but large automata, on both
# sides of Python's default recursion limit of 1000.  Past it, the path walk
# of the parent commit raises RecursionError, after ~5 s of minimizing.
LONG_WORDS = (300, 1050)

# Small random strongly connected DFAs over "ab" for the brute-force
# cross-check, 105 in all.  A call costs ~45 ms at length 8 and four times
# that at length 10, which would leave room for too few passes of 100
# files.  From 9 states on, one draw in ten costs two to six times the
# rest, and which ones a seed draws moved p90 by 12% from seed to seed.
ORACLE_SIZES = range(2, 9)
ORACLE_REPEATS = 15
ORACLE_MAX_LEN = 8


@dataclass(frozen=True)
class Case:
    """One input file: its stem, its text and what the answer must be."""

    name: str
    text: str
    answer: object


def argv_for(workload: str, path: str) -> list[str]:
    """The CLI call a user makes on one file of this workload."""
    if workload == "ideal-decompose":
        return ["decompose", "--json", path]
    if workload == "oracle-xcheck":
        return ["oracle-check", path, "--max-len", str(ORACLE_MAX_LEN)]
    return ["classify", "--json", path]


def generate(workload: str, seed: int) -> list[Case]:
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)


def dfa_text(alphabet: str, delta, start: int, accepting) -> str:
    """The program's native automaton format."""
    lines = [
        f"alphabet: {alphabet}",
        f"states: {len(delta)}",
        f"start: {start}",
        "accepting:" + "".join(f" {s}" for s in sorted(accepting)),
    ]
    for s, row in enumerate(delta):
        for j, ch in enumerate(alphabet):
            lines.append(f"{s} {ch} {row[j]}")
    return "\n".join(lines) + "\n"


# --- pt-ladder ---------------------------------------------------------------


def _witness(k: int, alphabet: str, letter: str):
    """The mk_witness(k) counter automaton: plus measure k-1, minus measure k."""
    pivot = alphabet.index(letter)
    delta = [
        tuple(min(c + 1, k + 1) if j == pivot else c for j in range(len(alphabet)))
        for c in range(k + 2)
    ]
    odd = {c for c in range(k + 1) if c % 2 == 1}
    return delta, (odd | {k + 1}) if k % 2 == 1 else odd


def _relabel(rng: random.Random, delta, start: int, accepting):
    """Rename the states by a random permutation: same language, new file."""
    perm = list(range(len(delta)))
    rng.shuffle(perm)
    renamed = [()] * len(delta)
    for s, row in enumerate(delta):
        renamed[perm[s]] = tuple(perm[t] for t in row)
    return renamed, perm[start], {perm[s] for s in accepting}


def _ladder(rng: random.Random) -> list[Case]:
    cases = []
    for alphabet, ks, copies in LADDER:
        for letter in alphabet:
            for k in ks:
                delta, accepting = _witness(k, alphabet, letter)
                for complemented in (False, True):
                    if complemented:
                        accepting = set(range(k + 2)) - accepting
                    plus, minus = (k, k - 1) if complemented else (k - 1, k)
                    for copy in range(copies):
                        name = f"mk{k}-{alphabet}-{letter}" + ("-co" if complemented else "")
                        name += f"-{copy}"
                        text = dfa_text(alphabet, *_relabel(rng, delta, 0, accepting))
                        cases.append(Case(name, text, _ladder_report(name, letter, plus, minus)))
    return cases


def _ladder_report(name: str, letter: str, plus: int, minus: int) -> dict:
    """The whole classify --json report, from the two measures alone."""
    return {
        "language": name,
        "in_level_one_half": plus == 0,
        "in_co_level_one_half": minus == 0,
        # plus == 0 only for mk_witness(1): "at least one pivot letter".
        "ideal_decomposition": [letter] if plus == 0 else None,
        "m_plus": plus,
        "m_minus": minus,
        "minimal_k_plus": plus + 1,
        "minimal_k_co": minus + 1,
        "piecewise_testable": True,
        "pattern_witness": None,
    }


# --- random-mix --------------------------------------------------------------


def _strongly_connected(rng: random.Random, alphabet: str, n: int):
    """A random complete DFA on n states in which every state reaches every
    other, with both accepting and rejecting states.

    Its minimal automaton is then strongly connected with at least two
    states, so it has a cycle through distinct states: the language is not
    piecewise testable, and the first forbidden pattern appears at once.
    """
    width = len(alphabet)
    order = list(range(n))
    rng.shuffle(order)
    delta = [[None] * width for _ in range(n)]
    for i, s in enumerate(order):
        delta[s][rng.randrange(width)] = order[(i + 1) % n]
    for row in delta:
        for j in range(width):
            if row[j] is None:
                row[j] = rng.randrange(n)
    while True:
        accepting = {s for s in range(n) if rng.random() < 0.5}
        if 0 < len(accepting) < n:
            return [tuple(row) for row in delta], accepting


def _random_mix(rng: random.Random) -> list[Case]:
    cases = []
    for alphabet, sizes in RANDOM_SIZES:
        a, b = SUBSET_FIT[alphabet]
        for n in sizes:
            for draw in range(RANDOM_DRAWS):
                while True:
                    delta, accepting = _strongly_connected(rng, alphabet, n)
                    if abs(math.log(_closure_subsets(delta)) - (a + b * n)) <= SUBSET_BAND:
                        break
                name = f"rand-{alphabet}-{n}-{draw}"
                text = dfa_text(alphabet, delta, 0, accepting)
                cases.append(Case(name, text, (alphabet, delta, accepting)))
    return cases


def _closure_subsets(delta) -> int:
    """Number of state sets reached from {0} when the upward closure of the
    automaton is determinized: on each letter, a set keeps its states and
    adds their successors.

    Sets are bitmasks; the successors of a set are looked up eight states
    at a time in per-letter tables.
    """
    n = len(delta)
    tables = []
    for j in range(len(delta[0])):
        chunks = []
        for base in range(0, n, 8):
            table = [0] * 256
            for c in range(1, 256):
                low = c & -c
                q = base + low.bit_length() - 1
                table[c] = table[c ^ low] | (1 << delta[q][j] if q < n else 0)
            chunks.append(table)
        tables.append(chunks)
    seen = {1}
    stack = [1]
    while stack:
        s = stack.pop()
        for chunks in tables:
            t = rest = s
            for table in chunks:
                t |= table[rest & 255]
                rest >>= 8
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return len(seen)


# --- ideal-decompose ---------------------------------------------------------


def _union_of_ideals(alphabet: str, words) -> tuple[list, set]:
    """DFA for the words containing one of ``words`` as a subword.

    A state records how much of each word has been matched greedily; only
    the tuples reachable from the all-zero start are built.
    """
    start = (0,) * len(words)
    ids = {start: 0}
    states = [start]
    delta = []
    queue = deque(states)
    while queue:
        progress = queue.popleft()
        row = []
        for ch in alphabet:
            nxt = tuple(
                p + 1 if p < len(w) and w[p] == ch else p for p, w in zip(progress, words)
            )
            if nxt not in ids:
                ids[nxt] = len(states)
                states.append(nxt)
                queue.append(nxt)
            row.append(ids[nxt])
        delta.append(tuple(row))
    accepting = {
        i for i, progress in enumerate(states)
        if any(p == len(w) for p, w in zip(progress, words))
    }
    return delta, accepting


def _ideal_decompose(rng: random.Random) -> list[Case]:
    cases = []
    for alphabet, length, ks, repeats, fewest in UNIONS:
        for k in ks:
            for r in range(repeats):
                while True:
                    words: set[str] = set()
                    while len(words) < k:
                        words.add("".join(rng.choice(alphabet) for _ in range(length)))
                    # Distinct words of one length form an antichain, so the
                    # decomposition is exactly the generating set.
                    ideals = sorted(words)
                    delta, accepting = _union_of_ideals(alphabet, ideals)
                    if len(delta) >= fewest:
                        break
                name = f"union-{alphabet}{length}-k{k}-{r}"
                cases.append(Case(name, dfa_text(alphabet, delta, 0, accepting), ideals))
    for length in LONG_WORDS:
        word = "".join(rng.choice("ab") for _ in range(length))
        delta, accepting = _union_of_ideals("ab", [word])
        text = dfa_text("ab", delta, 0, accepting)
        cases.append(Case(f"word-ab-{length}", text, [word]))
    return cases


# --- oracle-xcheck -----------------------------------------------------------


def _oracle(rng: random.Random) -> list[Case]:
    # Strongly connected, as in random-mix: an unconstrained draw is now and
    # then a trivial language (empty, everything), whose level chain costs
    # 20 to 50 times a typical file, so per-seed figures would be luck.
    cases = []
    for n in ORACLE_SIZES:
        for r in range(ORACLE_REPEATS):
            delta, accepting = _strongly_connected(rng, "ab", n)
            name = f"small-{n}-{r}"
            cases.append(Case(name, dfa_text("ab", delta, 0, accepting), None))
    return cases


_GENERATORS = {
    "pt-ladder": _ladder,
    "random-mix": _random_mix,
    "ideal-decompose": _ideal_decompose,
    "oracle-xcheck": _oracle,
}


# --- known-answer checks -----------------------------------------------------


def check_output(workload: str, case: Case, rc: int, stdout: str) -> str:
    """Judge one completed CLI call: "ok", "wrong" or "failed"."""
    if workload == "oracle-xcheck":
        if rc == 0 and stdout == f"oracle check up to length {ORACLE_MAX_LEN}: ok\n":
            return "ok"
        # A MISMATCH line is an answer, and a wrong one.
        return "wrong" if rc == 0 or stdout.startswith("MISMATCH") else "failed"
    if rc != 0:
        return "failed"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "wrong"
    if workload == "pt-ladder":
        good = report == case.answer
    elif workload == "ideal-decompose":
        good = report == {"ideals": sorted(case.answer, key=lambda w: (len(w), w))}
    else:
        good = _check_random(case, report)
    return "ok" if good else "wrong"


def _check_random(case: Case, report: dict) -> bool:
    alphabet, delta, accepting = case.answer
    witness = report.get("pattern_witness")
    expected = {
        "language": case.name,
        "in_level_one_half": False,
        "in_co_level_one_half": False,
        "ideal_decomposition": None,
        "m_plus": "inf",
        "m_minus": "inf",
        "minimal_k_plus": None,
        "minimal_k_co": None,
        "piecewise_testable": False,
        "pattern_witness": witness,
    }
    return (
        report == expected
        and isinstance(witness, dict)
        and _p3_replays(alphabet, delta, accepting, witness)
    )


def _embeds(w: str, v: str) -> bool:
    letters = iter(v)
    return all(ch in letters for ch in w)


def _p3_replays(alphabet: str, delta, accepting, w: dict) -> bool:
    """Replay every equation of a third-pattern witness on the generated
    automaton, independently of the program's own replay code."""

    def run(word: str, state: int = 0) -> int:
        for ch in word:
            state = delta[state][alphabet.index(ch)]
        return state

    try:
        a = w["letter"]
        x, v, y, z, u, z2 = (w[k] for k in ("x", "v", "y", "z", "u", "z_prime"))
        s1, s2, s3, s4, s5 = w["states"]
        return (
            w["kind"] == "P3"
            and run(x) == s1
            and run(v, s1) == s1
            and run(y, s1) == s2
            and run(a, s2) == s3
            and run(z, s2) == s4
            and run(u, s4) == s4
            and run(z, s3) == s5
            and run(u, s5) == s5
            and (_embeds(y + a, v) or _embeds(a + z, u))
            and (run(z2, s4) in accepting) != (run(z2, s5) in accepting)
        )
    except (KeyError, TypeError, ValueError, IndexError):
        return False
