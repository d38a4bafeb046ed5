"""The key-prefix series of every state from one sweep over the
condensation agree with one transient graph and one dense solve per key
state, and the measure from one prefix graph per keyed block agrees with
one per key state, on the bundled and on random unambiguous automata."""

import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from omegafract import measure
from omegafract import (
    CapExceededError,
    check_unambiguous,
    cycle_entropies,
    hausdorff_measure,
    trim,
)
from omegafract.core import (
    DEFAULT_ENUMERATION_CAP,
    _block_edges,
    _deterministic,
    _prefix_graph,
)
from conftest import bundled
from helpers_random import (
    comb,
    guessing_automaton,
    key_series,
    random_deterministic_trim,
    random_multi_scc,
    random_trim_automaton,
    reference_key_prefix_series,
    reference_key_state_terms,
)
from test_measure import chain_to_full_scc

REL_TOL = 1e-12


def _unambiguous_inputs():
    out = [
        (name, bundled(name))
        for name in [
            "cantor",
            "cantor_pair",
            "dyadic_unambiguous",
            "full_binary",
            "golden_mean",
        ]
    ]
    out.append(("chain", chain_to_full_scc()))
    rng = random.Random(2024)
    while len(out) < 260:
        i = len(out)
        kind = i % 4
        if kind == 0:
            a = random_multi_scc(rng, base=rng.choice([2, 3]), full_last=i % 8 == 0)
        elif kind == 1:
            a = random_multi_scc(rng, base=rng.choice([2, 3]), deterministic=False)
        elif kind == 2:
            a = random_deterministic_trim(rng, n_states=rng.randint(2, 7))
        else:
            a = random_trim_automaton(rng, n_states=rng.randint(2, 6))
        if check_unambiguous(a):
            out.append((f"random-{i}-{kind}", a))
    # guessing automata: nondeterministic blocks keyed at several states
    # (see _keyed_unions)
    out += [(f"guess-comb-{n}", trim(guessing_automaton(comb(n)))) for n in (1, 2, 3, 5)]
    while len(out) < 300:
        a = random_deterministic_trim(rng, n_states=rng.randint(2, 7))
        out.append((f"guess-{len(out)}", trim(guessing_automaton(a))))
    # rare draws whose keyed prefix graphs hold a block upstream of another
    for n, base, nondet, seed in SPLIT_DRAWS:
        a = random_trim_automaton(
            random.Random(seed), n_states=n, nondet=nondet, base=base
        )
        out.append((f"split-{n}-{base}-{seed}", a))
    return out


# (states, base, nondet, seed) of random_trim_automaton draws, about 1 in
# 200 of the unambiguous ones
SPLIT_DRAWS = [
    (4, 3, 0.5, 543),
    (4, 3, 0.5, 617),
    (4, 3, 0.5, 1317),
    (5, 3, 0.5, 186),
    (5, 3, 0.5, 619),
    (6, 2, 0.2, 93),
    (6, 2, 0.5, 575),
    (6, 2, 0.5, 2208),
]


INPUTS = _unambiguous_inputs()


def _same(value: float, reference: float) -> bool:
    if math.isinf(reference) or math.isinf(value):
        return value == reference
    return math.isclose(value, reference, rel_tol=REL_TOL, abs_tol=0.0)


def _accepting_block(a, q) -> bool:
    d = a.sccs
    c = int(d.component_of[a.state_index[q]])
    return c in d.blocks and any(
        int(d.component_of[a.state_index[p]]) == c for p in a.accept
    )


def _keyed_unions(a):
    """The number of keys and the condensation of the prefix graph of
    every nondeterministic keyed block of ``a``, rooted at all its keys."""
    d = a.sccs
    keys: dict[int, list[int]] = {}
    for q in hausdorff_measure(a).per_key_state:
        keys.setdefault(int(d.component_of[a.state_index[q]]), []).append(
            a.state_index[q]
        )
    for c, nodes in keys.items():
        block = d.blocks[c]
        if not _deterministic(_block_edges(a.edges, block)):
            starts = np.searchsorted(block.nodes, nodes)
            _, pd, _ = _prefix_graph(a.edges, block, starts, DEFAULT_ENUMERATION_CAP)
            yield len(nodes), pd


def test_inputs_cover_every_generator():
    kinds = [name.rsplit("-", 1)[1] for name, _ in INPUTS if name.startswith("random")]
    assert len(kinds) >= 200
    assert all(kinds.count(k) >= 20 for k in "0123")
    unions = [union for _, a in INPUTS for union in _keyed_unions(a)]
    # a union of several keys that splits, and a block upstream of another
    assert sum(n >= 2 and pd.component_of.max() > 0 for n, pd in unions) >= 20
    assert sum(len(pd.blocks) >= 2 for _, pd in unions) >= len(SPLIT_DRAWS)


@pytest.mark.parametrize("alpha_of", ["alpha", "half_plus", "fixed"])
def test_key_prefix_series_matches_reference(alpha_of):
    keys = infinite = 0
    for name, a in INPUTS + [("comb", comb(200))]:
        alpha = hausdorff_measure(a).alpha
        alpha = {"alpha": alpha, "half_plus": alpha / 2 + 0.3, "fixed": 1.7}[alpha_of]
        for q in filter(lambda q: _accepting_block(a, q), a.states):
            value = key_series(a, q, alpha)
            expected = reference_key_prefix_series(a, q, alpha)
            # both are None exactly on the states no key prefix reaches
            assert (value is None) == (expected is None), (name, q)
            if expected is not None:
                assert _same(value, expected), (name, q, alpha, value, expected)
                keys += 1
                infinite += math.isinf(expected)
    assert keys >= 400
    assert infinite > 0 or alpha_of == "fixed"  # no block here grows like k^1.7


def test_measure_terms_match_reference():
    for name, a in INPUTS + [("comb", comb(200))]:
        report = hausdorff_measure(a)
        expected = reference_key_state_terms(a, report.alpha)
        assert list(report.per_key_state) == list(expected), name
        for q, (series, m, contribution) in expected.items():
            got = report.per_key_state[q]
            assert _same(got.prefix_series, series), (name, q)
            assert _same(got.scc_measure, m), (name, q)
            assert _same(got.component_measure, contribution), (name, q)


def test_comb_measure_at_scale():
    a = comb(1000)
    a.sccs  # decomposed outside the timed call, as any analysis would
    started = time.perf_counter()
    report = hausdorff_measure(a)
    elapsed = time.perf_counter() - started
    assert len(report.per_key_state) == 1000
    assert abs(report.total - 1.0) <= 1e-9
    assert elapsed < 5.0
    assert elapsed < 0.25


def test_measure_of_many_keys_of_a_deterministic_block_takes_linear_memory():
    # every a_i keys ring a, entered from the chain n of trivial components:
    # no dense solve, and rooting the ring at all its keys must not build
    # one bitmask per key (quadratic: 26 MB against 13 MB at this length)
    a = comb(16_000, closed=False)
    a.sccs
    tracemalloc.start()
    try:
        report = hausdorff_measure(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.per_key_state) == 16_000
    assert abs(report.total - 1.0) <= 1e-9
    assert peak < 600 * len(a.states)


def test_comb_measure_solves_its_ring_once(monkeypatch):
    # every a_i keys the one deterministic ring a, which is its own prefix
    # graph whatever the key, so one vector solve serves all 1000 keys
    # (the other solve is the key-prefix series' divergence test on ring n)
    calls = []
    original = measure.perron

    def counting(*args, **kwargs):
        calls.append(kwargs.get("vector", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(measure, "perron", counting)
    report = hausdorff_measure(comb(1000))
    assert len(report.per_key_state) == 1000
    assert len(calls) <= 2 and calls.count(True) == 1


def test_guessing_comb_measure_builds_one_prefix_graph(monkeypatch):
    # every a_i^b keys the one nondeterministic ring block: one subset
    # construction rooted at all 2L keys, and as many Perron solves at
    # either size
    calls = {"graphs": 0, "solves": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(measure, "_prefix_graph", counted("graphs", _prefix_graph))
    monkeypatch.setattr(measure, "perron", counted("solves", measure.perron))
    solves = []
    for length in (50, 100):
        a = trim(guessing_automaton(comb(length)))
        calls.update(graphs=0, solves=0)
        report = hausdorff_measure(a)
        assert len(report.per_key_state) == 2 * length
        assert abs(report.total - 1.0) <= 1e-9
        assert calls["graphs"] == 1
        solves.append(calls["solves"])
    assert solves[0] == solves[1]


def test_keyed_block_counts_its_union_against_cap_once():
    # u^0 and u^1 both start and key the one block; from either alone the
    # subset construction holds 2 subsets, as do the pair product and the
    # entropy, but from both at once it holds 3
    a = trim(guessing_automaton(bundled("full_binary")))
    block = a.sccs.blocks[0]
    assert [_prefix_graph(a.edges, block, [s], 2)[0].n for s in (1, 2)] == [2, 2]
    check_unambiguous(a, cap=2)
    cycle_entropies(a, cap=2)
    with pytest.raises(CapExceededError, match="subset construction exceeded cap 2"):
        hausdorff_measure(a, cap=2)
    assert hausdorff_measure(a, cap=3) == hausdorff_measure(a)
