"""End-to-end acceptance suite.

One test per criterion, each printing a single pass/fail line (run pytest
with -s to watch them) and enforcing its runtime budget.  Every expected
value is exact; the shared corpus is fixed by seed so failures reproduce.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from subseq.alternation import (
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
from subseq.automata import (
    complement,
    difference,
    intersection,
    is_empty,
    minimize,
    union,
    universal_language,
)
from subseq.cli import export, main, parse_dfa
from subseq.oracle import chain_table
from subseq.patterns import detect_p1, detect_p2, detect_p3
from subseq.subword import (
    decompose_level_half,
    is_level_one_half,
    shuffle_ideal,
    upward_closure,
)

from helpers import (
    AB,
    ab_star,
    all_dfas,
    ba_star,
    build_chain_nfa,
    determinize,
    equivalent,
    random_dfa,
    reach_level,
    reverse_det,
)

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(label: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, f"{label}: took {elapsed:.1f}s, budget {budget_seconds}s"
    print(f"{label}: PASS ({elapsed:.1f}s)")


def _random_corpus():
    rng = random.Random(2024)
    return [random_dfa(rng, rng.randint(1, 4)) for _ in range(200)]


def _curated_corpus():
    fixtures = [mk_witness(k) for k in range(1, 5)]
    fixtures += [shuffle_ideal(w, AB) for w in ("", "a", "ab")]
    fixtures += [
        complement(universal_language(AB)),
        universal_language(AB),
        minimize(ab_star()),
        minimize(ba_star()),
    ]
    return fixtures


def test_criterion_1_witness_family_measures(capsys, tmp_path):
    with criterion("criterion 1 (witness family measures)", 10):
        for k in range(1, 7):
            mk = mk_witness(k)
            assert m_plus(mk) == AlternationMeasure.finite(k - 1), k
            assert m_minus(mk) == AlternationMeasure.finite(k), k
            assert in_boolean_level(mk, k, "plus"), k
            assert not in_boolean_level(mk, k, "co"), k
            target = tmp_path / f"m{k}.dfa"
            target.write_text(export(mk))
            assert main(["mplus", str(target)]) == 0
            assert capsys.readouterr().out == f"m_plus: {k - 1}\nm_minus: {k}\n"


def test_criterion_2_level_one_half_suite():
    with criterion("criterion 2 (level 1/2 membership and decomposition)", 30):
        rng = random.Random(2025)
        for _ in range(50):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            assert is_level_one_half(shuffle_ideal(w, AB)), w
        for _ in range(100):
            d = random_dfa(rng, rng.randint(1, 4))
            closed = equivalent(upward_closure(d), d)
            assert is_level_one_half(d) == closed
            if closed:
                ideals = decompose_level_half(d).words
                rebuilt = complement(universal_language(AB))
                for word in ideals:
                    rebuilt = union(rebuilt, shuffle_ideal(word, AB))
                assert equivalent(minimize(rebuilt), d)


def test_criterion_3_cross_engine_equality():
    with criterion("criterion 3 (cross-engine level equality)", 60):
        for d in _random_corpus():
            for m in range(4):
                direct = minimize(determinize(build_chain_nfa(d, m)))
                iterated = l_plus(d, m)
                assert direct == iterated, (d, m)


def test_criterion_4_level_lattice_properties():
    with criterion("criterion 4 (level inclusion lattice)", 60):
        for d in _random_corpus():
            comp = complement(d)
            plus = [l_plus(d, m) for m in range(4)]
            minus = [l_minus(d, m) for m in range(4)]
            for m in range(3):
                upper = intersection(plus[m], minus[m])
                lower = union(plus[m + 1], minus[m + 1])
                assert is_empty(difference(lower, upper)), (d, m)
                if not is_empty(plus[m]):
                    assert is_empty(difference(plus[m + 1], plus[m]))
                    assert not equivalent(plus[m + 1], plus[m])
                if not is_empty(minus[m]):
                    assert is_empty(difference(minus[m + 1], minus[m]))
                    assert not equivalent(minus[m + 1], minus[m])
            for m in range(4):
                assert upward_closure(plus[m]) == plus[m]
                assert upward_closure(minus[m]) == minus[m]
                assert minus[m] == l_plus(comp, m)


def test_criterion_5_pattern_characterization_sweep():
    with criterion("criterion 5 (pattern characterization, exhaustive 2-3 states)", 300):
        infinite_seen = 0
        sampled_bounds = []
        for n_states in (2, 3):
            for d in all_dfas(n_states):
                rev = reverse_det(d)
                w3 = detect_p3(d)
                w1, w1r = detect_p1(d), detect_p1(rev)
                w2, w2r = detect_p2(d), detect_p2(rev)
                has_p3 = w3 is not None
                assert has_p3 == ((w1 is not None) or (w1r is not None))
                assert has_p3 == ((w2 is not None) or (w2r is not None))
                assert has_p3 == (not m_plus(d).is_finite)
                for witness, machine in ((w3, d), (w1, d), (w2, d), (w1r, rev), (w2r, rev)):
                    if witness is not None:
                        assert witness.holds_in(machine)
                if has_p3:
                    if infinite_seen % 100 == 0:
                        table = chain_table(d.accepts, AB, 10)
                        sampled_bounds.append(max(table.plus_depth.values()))
                    infinite_seen += 1
        assert sampled_bounds and min(sampled_bounds) >= 4
        print(
            f"  [{infinite_seen} infinite machines; "
            f"{len(sampled_bounds)} oracle-confirmed with bound >= {min(sampled_bounds)}]"
        )


def test_criterion_6_normal_form_reassembly():
    with criterion("criterion 6 (normal-form reassembly)", 60):
        rebuilt = 0
        for d in _curated_corpus() + _random_corpus():
            measure = m_plus(d)
            if not measure.is_finite or measure.value > 4:
                continue
            chain = normal_form_decomposition(d)
            assert equivalent(reassemble_normal_form(chain, AB), d)
            rebuilt += 1
        assert rebuilt >= 50


def test_criterion_7_oracle_agreement():
    with criterion("criterion 7 (oracle agreement)", 120):
        corpus = _curated_corpus() + _random_corpus()
        for d in corpus:
            table = chain_table(d.accepts, AB, 7)
            for m in range(4):
                expected = reach_level(table.plus_depth, m)
                machine = l_plus(d, m)
                actual = {w for w in table.words if machine.accepts(w)}
                assert expected == actual, (d, m)
        for d in corpus:
            bound = max(chain_table(d.accepts, AB, 8).plus_depth.values())
            measure = m_plus(d)
            if measure.is_finite:
                assert bound <= measure.value
        finite_fixtures = [d for d in _curated_corpus() if m_plus(d).is_finite]
        assert len(finite_fixtures) >= 8
        for d in finite_fixtures:
            assert max(chain_table(d.accepts, AB, 8).plus_depth.values()) == m_plus(d).value


def test_criterion_8_cli_round_trip_and_json(capsys):
    with criterion("criterion 8 (CLI round trip and JSON report)", 30):
        for path in sorted(FIXTURES.glob("*.dfa")):
            text = path.read_text(encoding="utf-8")
            assert export(parse_dfa(text)) == text, path.name
        target = FIXTURES / "m3.dfa"
        assert parse_dfa(target.read_text()) == mk_witness(3)
        assert main(["classify", str(target), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m_plus"] == 2
        assert payload["m_minus"] == 3
        assert payload["piecewise_testable"] is True
