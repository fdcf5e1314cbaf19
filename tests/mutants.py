"""Mutants of the package that the tests must kill, and their runner.

Each entry names a module of ``src/subseq``, a text that occurs in it
exactly once, the text that replaces it, and the tests that must fail on
the result.  The runner copies ``src/`` to a temporary directory, applies
one mutant to the copy, and runs only that mutant's tests in a subprocess
with the copy first on the path; the source tree is never written.  The
run fails when a listed test passes on its mutant, or when a mutant's old
text no longer occurs exactly once: a test change that stops catching a
mutant, or a code change that rewrites the mutated lines, shows here.
First, every listed test runs on an unmutated copy and must pass, so that
a failure on a mutant is the mutant's.

The equivalent mutants are listed with the reason each one changes no
answer; the runner checks only that their old text is still there.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

The test suite does not collect this file, whose name does not start
with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    module: str  # file name under src/subseq
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root


HOPCROFT_SEED = "    pending = list(range(count))\n"
HOPCROFT_TEST = "tests/test_automata.py::test_hopcroft_refines_any_moore_partition_to_the_languages"

MUTANTS = [
    # the scan for an edge into the start, taking the start's own
    # self-loop for a cycle
    Mutant(
        "automata.py",
        "        if start in row and s != start:\n",
        "        if start in row:\n",
        (
            "tests/test_automata.py::test_topological_order_equals_the_component_pass_alone",
            "tests/test_automata.py::test_component_pass_does_not_recurse",
        ),
    ),
    # the level walk ending at a nonempty step, not at an empty one
    Mutant(
        "alternation.py",
        "        if not endpoints.accepting:\n            return\n",
        "        if endpoints.accepting:\n            return\n",
        (
            "tests/test_alternation.py::test_l_plus_closes_only_the_levels_it_reads",
            "tests/test_alternation.py::test_measures_of_witness_family[3]",
        ),
    ),
    # Hopcroft's refinement with no block pending, or only the first
    Mutant("automata.py", HOPCROFT_SEED, "    pending = []\n", (HOPCROFT_TEST,)),
    Mutant("automata.py", HOPCROFT_SEED, "    pending = [0]\n", (HOPCROFT_TEST,)),
    # every verdict of the text report printed as a yes
    Mutant(
        "cli.py",
        '    return "yes" if flag else "no"\n',
        '    return "Yes"\n',
        (
            "tests/test_cli_golden.py::test_cli_output_matches_golden[classify a_first.dfa]",
            "tests/test_cli_golden.py::test_cli_output_matches_golden[patterns a_first.dfa]",
        ),
    ),
]

EQUIVALENT = [
    (
        Mutant("automata.py", HOPCROFT_SEED, "    pending = list(range(1, count))\n", ()),
        "every block but one pending is Hopcroft's own seeding: each state has "
        "one successor per letter, so the preimage of the last block is what "
        "the preimages of the others leave, and splits by them split by it",
    ),
]


def _run(src: Path, tests: list[str]) -> tuple[int, set[str], str]:
    """Run ``tests`` against the package in ``src``: the exit code, the
    node ids that failed, and the output."""
    # no bytecode cache: a mutant and its restored original can share a
    # size and an mtime second, and a cached module would then be stale
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    # -o pythonpath= drops pyproject's pythonpath = ["src"], which would put
    # the unmutated tree ahead of the copy
    command = [
        sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
        "-o", "pythonpath=", *tests,
    ]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    failed = {
        line[len("FAILED "):].split(" - ")[0]
        for line in done.stdout.splitlines()
        if line.startswith("FAILED ")
    }
    return done.returncode, failed, done.stdout + done.stderr


def main() -> int:
    problems = []
    for mutant in MUTANTS + [m for m, _ in EQUIVALENT]:
        if (ROOT / "src" / "subseq" / mutant.module).read_text(encoding="utf-8").count(mutant.old) != 1:
            problems.append(f"{mutant.module}: old text not found exactly once: {mutant.old!r}")
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        package = (src / "subseq").resolve()
        probe = subprocess.run(
            [sys.executable, "-c", "import subseq; print(subseq.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        if Path(probe.stdout.strip()).resolve().parent != package:
            print(f"the copy is not the package imported: {probe.stdout}{probe.stderr}")
            return 1
        everything = sorted({t for m in MUTANTS for t in m.tests})
        code, _, output = _run(src, everything)
        if code != 0:
            print(f"the listed tests fail without a mutant:\n{output}")
            return 1
        for mutant in MUTANTS:
            path = src / "subseq" / mutant.module
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                code, failed, output = _run(src, list(mutant.tests))
            finally:
                path.write_text(original, encoding="utf-8")
            survivors = [t for t in mutant.tests if t not in failed]
            label = f"{mutant.module}: {mutant.old.strip()!r} -> {mutant.new.strip()!r}"
            if code == 1 and not survivors:
                print(f"killed    {label}")
            else:
                problems.append(label)
                print(f"SURVIVED  {label}: exit {code}, passed {survivors}\n{output}")
    for mutant, reason in EQUIVALENT:
        print(f"equivalent {mutant.module}: {mutant.new.strip()!r}: {reason}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
