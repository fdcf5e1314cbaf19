"""Toolkit for placing a regular language, given as a DFA, within the
boolean hierarchy over level 1/2 of the Straubing-Therien hierarchy:
upward-closure tests, alternation measures, forbidden-pattern detection
and piecewise-testability, with brute-force oracles for cross-checking.
"""

from .alternation import (
    AlternationMeasure,
    in_boolean_level,
    l_minus,
    l_plus,
    m_minus,
    m_plus,
    mk_witness,
    normal_form_decomposition,
    reassemble_normal_form,
)
from .automata import (
    Alphabet,
    Dfa,
    complement,
    difference,
    empty_language,
    intersection,
    is_empty,
    minimize,
    product,
    union,
    universal_language,
)
from .cli import ClassificationReport, classify, export, parse_dfa
from .errors import (
    AlphabetMismatchError,
    InfiniteMeasureError,
    InputError,
    NotUpwardClosedError,
    ParseError,
    ToolkitError,
    WordCapExceededError,
)
from .patterns import (
    PatternWitness,
    detect_p1,
    detect_p2,
    detect_p3,
    is_piecewise_testable,
)
from .subword import (
    IdealDecomposition,
    decompose_level_half,
    is_co_level_one_half,
    is_level_one_half,
    is_subword,
    shuffle_ideal,
    upward_closure,
)

__version__ = "0.1.0"
