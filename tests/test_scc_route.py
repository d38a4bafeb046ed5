"""The per-component route against the per-state route it replaces.

Cycle entropies and density witnesses are computed once per strongly
connected component; the per-state constructions (one cycle automaton and
one determinization per state) serve here as the oracle.
"""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from omegafract import (
    DEFAULT_ENUMERATION_CAP,
    Automaton,
    DigitVector,
    NotTrimError,
    classify_properties,
    cycle_entropies,
    density_classifier,
    dimension_report,
    entropy,
    trim,
)
from omegafract import core, dimension
from omegafract.core import require_trim
from omegafract.dimension import REPORT_TOL, DensityReport, _complete_cycle_states
from omegafract.errors import CapExceededError
from helpers_random import (
    complete_nfa_block,
    subset_automaton,
    random_automaton,
    random_multi_scc,
    random_strongly_connected,
    reference_cycle_prefixes_complete,
    reference_run_word,
    reference_shortest_word_to,
)

SEEDS = range(40)


def _multi_state_components(a):
    return [b for b in a.sccs.blocks.values() if len(b.nodes) > 1]


def _on_cycles(a):
    comp = a.sccs.component_of.tolist()
    return [q for q, c in zip(a.states, comp) if c in a.sccs.blocks]


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
        assert list(got) == _on_cycles(a)
        for q in _on_cycles(a):
            assert got[q] == pytest.approx(
                entropy(trim(a.replace(start=[q], accept=[q]))), abs=1e-12
            )


def _complete_by_subsets(a, q):
    """Per-state oracle: determinize q's cycle automaton and look for a
    reachable subset missing a digit."""
    det = subset_automaton(trim(a.replace(start=[q], accept=[q])))
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
            for q in _on_cycles(a)
            if reference_cycle_prefixes_complete(
                a, a.state_index[q], DEFAULT_ENUMERATION_CAP
            )
        ]
        assert per_state == [
            q for q in _on_cycles(a) if _complete_by_subsets(a, q)
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
    witnesses = [q for q in _on_cycles(a) if _complete_by_subsets(a, q)]
    if not witnesses:
        return DensityReport(True, False, None)
    for q in witnesses:
        u = reference_shortest_word_to(a, q)
        rerooted = trim(a.replace(start=reference_run_word(a, u)))
        if dimension_report(rerooted).hausdorff < 1.0 - REPORT_TOL:
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


def _count_prefix_graphs(monkeypatch) -> list:
    calls = []
    original = dimension._prefix_graph

    def counting(e, block, starts, cap):
        result = original(e, block, starts, cap)
        calls.append(len(result[2]))
        return result

    monkeypatch.setattr(dimension, "_prefix_graph", counting)
    return calls


def test_density_builds_one_prefix_graph_per_block(monkeypatch):
    # two_rings is an NFA (n0 has two edges on digit 1), but each ring's
    # own edges are deterministic: one prefix graph per ring, rooted at
    # all its nodes
    from test_perron import two_rings

    a = two_rings(100)
    assert not classify_properties(a).deterministic
    calls = _count_prefix_graphs(monkeypatch)
    report = density_classifier(a)
    assert calls == [len(b.nodes) for b in a.sccs.blocks.values()]
    assert report.nowhere_dense
    rng = random.Random(14)
    for _ in range(10):
        a = random_multi_scc(rng, n_blocks=4, deterministic=False, full_last=True)
        calls.clear()
        density_classifier(a)
        assert len(calls) == len(a.sccs.blocks) == 4


def _complete_nfa_blocks():
    return [complete_nfa_block(n, n // 2, n) for n in range(10, 15)]


def test_density_on_a_complete_nfa_block_matches_per_state_loop():
    for a in _complete_nfa_blocks():
        report = density_classifier(a)
        assert report == _density_per_state(a)
        assert report.dense_codense_on_interval == (Fraction(0), Fraction(1))
        assert report.witness_state == "b0"


def test_density_reads_codensity_off_the_cycle_entropies(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("density classification re-analysed a rerooted automaton")

    monkeypatch.setattr(core, "trim", fail)
    monkeypatch.setattr(dimension, "trim", fail, raising=False)
    monkeypatch.setattr(dimension, "dimension_report", fail)
    for a in _complete_nfa_blocks():
        report = density_classifier(a)
        assert report.dense_codense_on_interval == (Fraction(0), Fraction(1))


def _union_prefix_graph(a, block):
    return core._prefix_graph(a.edges, block, None, DEFAULT_ENUMERATION_CAP)


@pytest.mark.parametrize("deterministic", [True, False])
def test_prefix_graph_of_every_singleton_matches_explicit_starts(deterministic):
    rng = random.Random(1410 + deterministic)
    for _ in range(60):
        a = random_strongly_connected(
            rng, rng.randint(1, 7), extra=rng.randint(0, 12), deterministic=deterministic
        )
        for block in a.sccs.blocks.values():
            starts = [1 << i for i in range(len(block.nodes))]
            explicit = core._prefix_graph(a.edges, block, starts, DEFAULT_ENUMERATION_CAP)
            p, pd, roots = _union_prefix_graph(a, block)
            assert roots == explicit[2] == list(range(len(block.nodes)))
            for name in ("src", "sym", "dst"):
                assert np.array_equal(getattr(p, name), getattr(explicit[0], name))
            assert np.array_equal(pd.component_of, explicit[1].component_of)


def test_density_on_deterministic_rings_takes_linear_memory():
    # each ring's own edges are deterministic, so its prefix graph is the
    # ring itself: rooting it at all its nodes must not build one bitmask
    # per node (quadratic: about 140 MB at this length)
    from test_perron import two_rings

    a = two_rings(30_000)
    a.sccs
    tracemalloc.start()
    try:
        report = density_classifier(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.nowhere_dense
    assert peak < 1000 * len(a.states)


@pytest.mark.parametrize("deterministic", [True, False])
def test_one_component_prefix_graph_has_no_complete_root(deterministic):
    # the density check skips the backward search on a prefix graph that
    # is one component; the search itself must find every root reaching a
    # short node there
    rng = random.Random(1400 + deterministic)
    one_component = 0
    for _ in range(300):
        a = random_strongly_connected(
            rng,
            rng.randint(2, 7),
            base=rng.choice([2, 3]),
            extra=rng.randint(0, 12),
            deterministic=deterministic,
        )
        for block in a.sccs.blocks.values():
            p, pd, roots = _union_prefix_graph(a, block)
            short = np.flatnonzero(np.bincount(p.src, minlength=p.n) < a.base**a.arity)
            if short.size and not pd.component_of.any():
                b = core._block_edges(a.edges, block)
                one_component += core._deterministic(b) == deterministic
                assert core._backward_reachable(p, short.tolist())[roots].all()
    assert one_component >= 30


def test_density_cap_counts_the_union_construction_once():
    a = complete_nfa_block(12, 6, 12)
    (block,) = [b for b in a.sccs.blocks.values() if len(b.nodes) == 12]
    p = _union_prefix_graph(a, block)[0]
    assert density_classifier(a, cap=p.n) == density_classifier(a)
    with pytest.raises(CapExceededError):
        density_classifier(a, cap=p.n - 1)


def test_density_cap_fails_where_every_per_state_construction_fits():
    # the cap counts a block's union construction, which here is twice the
    # largest construction from one of its states
    a = random_strongly_connected(random.Random(70), 6, extra=10)
    (block,) = a.sccs.blocks.values()
    union = _union_prefix_graph(a, block)[0].n
    b = core._block_edges(a.edges, block)
    per_state = [len(core._subset_construction(b, [1 << i], union)[0]) for i in range(b.n)]
    assert 2 * max(per_state) <= union
    assert density_classifier(a, cap=union) == density_classifier(a)
    with pytest.raises(CapExceededError):
        density_classifier(a, cap=union - 1)


def test_require_trim_agrees_with_flag():
    rng = random.Random(31)
    for _ in range(200):
        a = random_automaton(rng, n_states=rng.randint(1, 6), nondet=0.3)
        if classify_properties(a).trim:
            require_trim(a)
        else:
            with pytest.raises(NotTrimError):
                require_trim(a)
