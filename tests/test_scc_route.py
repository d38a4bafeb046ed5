"""The per-component route against the per-state route it replaces.

Cycle entropies and density witnesses are computed once per strongly
connected component; the per-state constructions (one cycle automaton and
one determinization per state) serve here as the oracle.
"""

import random
from fractions import Fraction

import pytest

from omegafract import (
    DEFAULT_ENUMERATION_CAP,
    Automaton,
    DigitVector,
    NotTrimError,
    classify_properties,
    cycle_automaton,
    cycle_entropies,
    density_classifier,
    entropy,
    hausdorff_dimension,
    prefix_determinization,
    scc_decompose,
    states_on_cycles,
    trim,
)
from omegafract.core import require_trim
from omegafract.dimension import (
    REPORT_TOL,
    DensityReport,
    _complete_cycle_states,
    _cycle_prefixes_complete,
)
from helpers_random import (
    random_automaton,
    random_multi_scc,
    reference_run_word,
    reference_shortest_word_to,
)

SEEDS = range(40)


def _multi_state_components(a):
    scc = scc_decompose(a)
    return [
        comp
        for cid, comp in enumerate(scc.components)
        if not scc.trivial[cid] and len(comp) > 1
    ]


@pytest.mark.parametrize("deterministic", [True, False])
def test_cycle_entropies_match_per_state_route(deterministic):
    rng = random.Random(2024 + deterministic)
    for _ in SEEDS:
        a = random_multi_scc(
            rng, base=rng.choice([2, 3]), deterministic=deterministic
        )
        assert len(_multi_state_components(a)) >= 2
        assert classify_properties(a).deterministic == deterministic
        got = cycle_entropies(a)
        assert list(got) == list(states_on_cycles(a))
        for q in states_on_cycles(a):
            assert got[q] == pytest.approx(
                entropy(cycle_automaton(a, q)), abs=1e-12
            )


def _complete_by_subsets(a, q):
    """Per-state oracle: determinize q's cycle automaton and look for a
    reachable subset missing a digit."""
    det = prefix_determinization(cycle_automaton(a, q))
    full = a.base**a.arity
    degree = {s: 0 for s in det.states}
    for src, _, _ in det.transitions:
        degree[src] += 1
    return all(d == full for d in degree.values())


@pytest.mark.parametrize("deterministic", [True, False])
def test_density_witnesses_match_per_state_check(deterministic):
    rng = random.Random(77 + deterministic)
    complete_seen = 0
    for i in SEEDS:
        a = random_multi_scc(
            rng,
            base=rng.choice([2, 3]),
            deterministic=deterministic,
            full_last=i % 2 == 0,
        )
        per_state = [
            q
            for q in states_on_cycles(a)
            if _cycle_prefixes_complete(
                a, a.state_index[q], DEFAULT_ENUMERATION_CAP
            )
        ]
        assert per_state == [
            q for q in states_on_cycles(a) if _complete_by_subsets(a, q)
        ]
        assert (
            _complete_cycle_states(a, DEFAULT_ENUMERATION_CAP)
            == per_state
        )
        complete_seen += bool(per_state)
    assert complete_seen >= 5


def _density_per_state(a):
    """The classifier as a per-state loop: every witness found by its own
    determinization, rerooted and its dimension computed, with nothing
    shared between the states of one component."""
    witnesses = [q for q in states_on_cycles(a) if _complete_by_subsets(a, q)]
    if not witnesses:
        return DensityReport(True, False, None)
    for q in witnesses:
        u = reference_shortest_word_to(a, q)
        rerooted = trim(a.replace(start=reference_run_word(a, u)))
        if hausdorff_dimension(rerooted) < 1.0 - REPORT_TOL:
            left = sum(
                (Fraction(sym[0], a.base ** (i + 1)) for i, sym in enumerate(u)),
                Fraction(0),
            )
            interval = (left, left + Fraction(1, a.base ** len(u)))
            return DensityReport(False, True, interval, q, u)
    first = witnesses[0]
    return DensityReport(
        False, True, None, first, reference_shortest_word_to(a, first)
    )


@pytest.mark.parametrize("deterministic", [True, False])
def test_density_classifier_matches_per_state_loop(deterministic):
    rng = random.Random(5 + deterministic)
    dense = codense = 0
    for i in SEEDS:
        a = random_multi_scc(
            rng, base=2, deterministic=deterministic, full_last=i % 3 != 0
        )
        expected = _density_per_state(a)
        assert density_classifier(a) == expected
        dense += expected.somewhere_dense
        codense += expected.dense_codense_on_interval is not None
    # a complete deterministic component can never be left, so it holds an
    # accept state and gives dimension 1: only NFAs certify codensity here
    assert dense >= 10 and (codense == 0 if deterministic else codense >= 3)


def test_density_nfa_checks_each_witness_of_a_component():
    # f and g share a complete component, but the access word of f also
    # reaches the full loop h while that of g reaches g alone: only the
    # rerooting at g certifies codensity, so an NFA component cannot be
    # decided from its first witness
    def sym(d):
        return DigitVector((d,))

    a = Automaton(
        base=2,
        arity=1,
        states=("root", "f", "g", "h", "tail"),
        transitions=(
            ("root", sym(0), "f"),
            ("root", sym(0), "h"),
            ("root", sym(1), "g"),
            ("f", sym(0), "f"),
            ("f", sym(1), "g"),
            ("f", sym(0), "tail"),
            ("g", sym(0), "g"),
            ("g", sym(1), "f"),
            ("h", sym(0), "h"),
            ("h", sym(1), "h"),
            ("tail", sym(0), "tail"),
        ),
        start=frozenset({"root"}),
        accept=frozenset({"h", "tail"}),
    )
    report = density_classifier(a)
    assert report == _density_per_state(a)
    assert report.witness_state == "g"
    assert report.dense_codense_on_interval == (Fraction(1, 2), Fraction(1))


def test_density_decides_a_deterministic_block_once(monkeypatch):
    # two_rings is an NFA (n0 has two edges on digit 1), but each ring's
    # own edges are deterministic: one completeness check per ring
    from omegafract import dimension
    from test_perron import two_rings

    a = two_rings(100)
    assert not classify_properties(a).deterministic
    calls = []
    original = dimension._cycle_prefixes_complete

    def counting(a, q, cap):
        calls.append(q)
        return original(a, q, cap)

    monkeypatch.setattr(dimension, "_cycle_prefixes_complete", counting)
    report = density_classifier(a)
    assert len(calls) == 2
    assert report.nowhere_dense


def test_require_trim_agrees_with_flag():
    rng = random.Random(31)
    for _ in range(200):
        a = random_automaton(rng, n_states=rng.randint(1, 6), nondet=0.3)
        if classify_properties(a).trim:
            require_trim(a)
        else:
            with pytest.raises(NotTrimError):
                require_trim(a)
