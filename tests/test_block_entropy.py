"""Entropy as a maximum over strongly connected blocks, against the
whole-automaton determinization it replaced (``reference_entropy``): the
probe from all of a block's nodes, its drop rule and its cap, the
deterministic blocks that need no subset construction, and the one-class
sweep of period-1 blocks."""

import json
import math
import random

import numpy as np
import pytest

from omegafract import CapExceededError, serialize_automaton
from omegafract import core, dimension, spectral
from omegafract.cli import main
from omegafract.core import (
    _Dropped,
    _is_deterministic,
    _start_mask,
    _subset_construction,
)
from omegafract.dimension import cycle_entropies
from omegafract.spectral import _ClassSweep, entropy
from conftest import bundled
from helpers_random import (
    disjoint_union,
    irreducible_blocks,
    random_dense_nfa,
    random_deterministic_trim,
    random_multi_scc,
    random_strongly_connected,
    reference_entropy,
)

BUNDLED = [
    "cantor",
    "cantor_pair",
    "dyadic",
    "dyadic_unambiguous",
    "full_binary",
    "golden_mean",
]


def _constructions(monkeypatch) -> list[tuple[int, int, int, int | None]]:
    """Record (start, floor, edges of the graph, subsets built, or None when
    the probe was dropped) for every subset construction the package runs."""
    calls = []
    original = core._subset_construction

    def recording(e, starts, cap, floor=0):
        (start,) = starts
        try:
            subsets, d = original(e, starts, cap, floor)
        except _Dropped:
            calls.append((start, floor, len(e.src), None))
            raise
        calls.append((start, floor, len(e.src), len(subsets)))
        return subsets, d

    monkeypatch.setattr(core, "_subset_construction", recording)
    monkeypatch.setattr(spectral, "_subset_construction", recording)
    return calls


def _shapes():
    """Random trim NFAs of four shapes: one block, a chain of blocks,
    nearly deterministic (a ring and a few extra edges) and dense."""
    rng = random.Random(1301)
    for _ in range(12):
        n = rng.randint(4, 24)
        base = rng.choice((2, 3))
        yield "single", random_strongly_connected(rng, n, base=base, extra=n)
        yield "multi", random_multi_scc(
            rng, n_blocks=rng.randint(2, 4), base=base, deterministic=False
        )
        yield "nearly-deterministic", random_strongly_connected(
            rng, 3 * n, extra=n // 2
        )
        yield "near-universal", random_dense_nfa(rng, n, second=0.45)


SHAPES = list(_shapes())


def _relative(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


@pytest.mark.parametrize("name", BUNDLED)
def test_entropy_matches_reference_on_bundled(name):
    a = bundled(name)
    assert entropy(a) == pytest.approx(reference_entropy(a), rel=1e-12, abs=0)


def test_entropy_matches_reference_on_random_shapes():
    seen = set()
    for shape, a in SHAPES:
        assert _relative(entropy(a), reference_entropy(a)) <= 1e-12, shape
        seen.add((shape, len(a.sccs.blocks) > 1, _is_deterministic(a)))
    assert ("multi", True, False) in seen
    assert {shape for shape, _, deterministic in seen if not deterministic} == {
        "single",
        "multi",
        "nearly-deterministic",
        "near-universal",
    }


def test_entropy_is_bit_identical_where_the_graph_is_the_same(monkeypatch):
    """A single block entered at its first node whose probe is dropped is
    determinized from that node: the whole automaton's construction."""
    calls = _constructions(monkeypatch)
    same_graph = 0
    for _, a in SHAPES:
        (block, *rest) = a.sccs.blocks.values()
        calls.clear()
        value = entropy(a)
        if rest or _start_mask(a) != 1 << int(block.nodes[0]):
            continue
        if not calls or calls[0][3] is not None:
            continue  # deterministic, or the probe completed
        assert [(start, floor) for start, floor, _, _ in calls[1:]] == [(1, 0)]
        assert value == reference_entropy(a)
        same_graph += 1
    assert same_graph >= 5


@pytest.mark.parametrize("seed", range(6))
def test_probe_alone_serves_a_near_universal_nfa(monkeypatch, seed):
    a = random_dense_nfa(random.Random(seed), 16, second=0.9)
    (block,) = a.sccs.blocks.values()
    calls = _constructions(monkeypatch)
    value = entropy(a)
    full = (1 << len(block.nodes)) - 1
    assert len(calls) == 1
    start, floor, edges, subsets = calls[0]
    half = (len(block.nodes) + 1) // 2
    assert (start, floor, edges) == (full, half, len(block.edges))
    assert subsets is not None and subsets <= len(block.edges)
    assert _relative(value, reference_entropy(a)) <= 1e-12


def test_dropped_probe_leaves_the_cap_to_the_rooted_construction(monkeypatch):
    """Its probe drops at subset number 3; the construction from s0 holds
    5 300 subsets, against 12 194 from all 200 states."""
    a = random_strongly_connected(random.Random(4), 200, extra=100)
    calls = _constructions(monkeypatch)
    assert entropy(a, cap=5300) == reference_entropy(a)
    assert [(start, subsets) for start, _, _, subsets in calls] == [
        ((1 << 200) - 1, None),
        (1, 5300),
    ]
    with pytest.raises(CapExceededError):
        entropy(a, cap=5299)


def test_cli_entropy_cap_on_a_dropped_probe(tmp_path, capsys):
    path = tmp_path / "strongly-connected-200.json"
    a = random_strongly_connected(random.Random(4), 200, extra=100)
    path.write_text(serialize_automaton(a), encoding="utf-8")
    assert main(["entropy", str(path), "--cap", "5299"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "cap-exceeded"
    assert main(["entropy", str(path), "--cap", "5300"]) == 0


def _deterministic_inputs():
    rng = random.Random(1302)
    yield bundled("cantor")
    yield bundled("golden_mean")
    yield bundled("full_binary")
    for _ in range(8):
        yield random_deterministic_trim(rng, n_states=rng.randint(2, 12))
    for _ in range(4):
        yield random_multi_scc(rng, n_blocks=3)


def test_disjoint_union_of_deterministic_copies_runs_no_construction(monkeypatch):
    calls = _constructions(monkeypatch)
    for d in _deterministic_inputs():
        assert _is_deterministic(d)
        union = disjoint_union(d, d)
        assert not _is_deterministic(union)  # two start states
        assert entropy(union) == entropy(d)
    assert calls == []


def test_entropy_and_cycle_entropies_take_one_root_per_block(monkeypatch):
    roots = []
    original = spectral._block_root

    def recording(e, block, cap):
        roots.append(block)
        return original(e, block, cap)

    monkeypatch.setattr(spectral, "_block_root", recording)
    monkeypatch.setattr(dimension, "_block_root", recording)
    for shape, a in SHAPES:
        blocks = list(a.sccs.blocks.values())
        for analysis in (entropy, cycle_entropies):
            roots.clear()
            analysis(a)
            assert len(roots) == len(blocks), shape
            assert all(r is b for r, b in zip(roots, blocks)), shape


def test_cycle_entropies_agree_with_the_rooted_construction():
    """Every state of a block has the block's growth rate, so a probed
    block's cycle entropy is that of its first node's cycle language."""
    for shape, a in SHAPES:
        per_state = cycle_entropies(a)
        e = a.edges
        for block in a.sccs.blocks.values():
            pd = core._prefix_graph(e, block, [1], core.DEFAULT_ENUMERATION_CAP)[1]
            want = math.log(max(spectral.perron(b).root for b in pd.blocks.values()))
            got = per_state[a.states[int(block.nodes[0])]]
            assert _relative(got, want) <= 1e-12, shape


# ---------------------------------------------------------------------------
# the drop rule of the subset construction
# ---------------------------------------------------------------------------


def _full_set_probe(a):
    (block,) = a.sccs.blocks.values()
    b = core._block_edges(a.edges, block)
    return b, [(1 << b.n) - 1]


def test_floor_of_one_only_changes_what_the_cap_raises():
    a = random_dense_nfa(random.Random(3), 16, second=0.9)
    b, full = _full_set_probe(a)
    subsets, d = _subset_construction(b, full, 10**6)
    probed, dp = _subset_construction(b, full, 10**6, 1)
    assert probed == subsets
    assert [x.tolist() for x in (dp.src, dp.sym, dp.dst)] == [
        x.tolist() for x in (d.src, d.sym, d.dst)
    ]
    assert dp.successors == d.successors
    with pytest.raises(CapExceededError):
        _subset_construction(b, full, len(subsets) - 1)
    with pytest.raises(_Dropped):
        _subset_construction(b, full, len(subsets) - 1, 1)
    assert len(_subset_construction(b, full, len(subsets), 1)[0]) == len(subsets)


def test_floor_drops_at_the_first_smaller_subset():
    a = random_dense_nfa(random.Random(4), 16, second=0.45)
    b, full = _full_set_probe(a)
    subsets = _subset_construction(b, full, 10**6)[0]
    smallest = min(s.bit_count() for s in subsets)
    assert 1 < smallest < 16
    assert _subset_construction(b, full, 10**6, smallest)[0] == subsets
    with pytest.raises(_Dropped):
        _subset_construction(b, full, 10**6, smallest + 1)


# ---------------------------------------------------------------------------
# the one-class sweep of a period-1 block
# ---------------------------------------------------------------------------


def test_period_one_sweep_is_the_block_matrix():
    """On an aperiodic block of several nodes the sweep is one bincount over
    the block's own edges: B x exactly, for a multigraph and integer x."""
    rng = np.random.default_rng(1303)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(2, 30))
        src = rng.integers(0, n, size=3 * n)
        dst = rng.integers(0, n, size=3 * n)
        for block in irreducible_blocks(n, src, dst):
            m = len(block.nodes)
            if block.period != 1 or m < 2:
                continue
            # entry w of the block's matrix as w parallel edges
            w = rng.integers(1, 5, size=len(src))[block.edges]
            (multi,) = irreducible_blocks(
                m, np.repeat(block.src, w), np.repeat(block.dst, w)
            )
            sweep = _ClassSweep(multi)
            assert sweep.order.tolist() == list(range(m)) and sweep.n0 == m
            x = rng.integers(1, 9, size=m).astype(float)
            y, exponent = sweep.apply(x)
            dense = np.zeros((m, m))
            np.add.at(dense, (block.src, block.dst), w)
            assert np.array_equal(np.ldexp(y, exponent), dense @ x)
            checked += 1
    assert checked >= 10
