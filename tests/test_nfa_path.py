"""The nondeterministic path against its references: the packed-image
subset construction, the enumeration oracle on the same kernel, the
adjacent-repeat determinism test, and the condensation whose periods come
from the depths of its depth-first search."""

import random

import numpy as np
import pytest

from omegafract import (
    Automaton,
    CapExceededError,
    DigitVector,
    NotTrimError,
    accepts,
    enumerate_prefixes,
    prefix_count,
)
from omegafract import core
from omegafract.core import (
    EdgeList,
    _condensation,
    _deterministic,
    _subset_construction,
)
from omegafract.dimension import _shortest_word_to
from conftest import bundled
from helpers_random import (
    _symbols,
    disjoint_union,
    subset_automaton,
    random_automaton,
    random_deterministic_trim,
    random_multi_scc,
    random_strongly_connected,
    reference_accepts,
    reference_condensation,
    reference_shortest_word_to,
    reference_enumerate_prefixes,
    reference_prefix_determinization,
)

BUNDLED = [
    "cantor",
    "cantor_pair",
    "dyadic",
    "dyadic_unambiguous",
    "full_binary",
    "golden_mean",
]


def _kernel_nfas():
    """Strongly connected NFAs of 9-80 states (subsets span one to ten
    bytes, and more than 64 bits from 65 states on) over unary and binary
    alphabets of base 2 and 3, entered at one to three start states."""
    rng = random.Random(1201)
    for n in (9, 12, 16, 17, 24, 31, 33, 40, 48, 63, 65, 72, 80):
        for base, arity in ((2, 1), (3, 1), (2, 2), (3, 2)):
            a = random_strongly_connected(
                rng,
                n_states=n,
                base=base,
                arity=arity,
                extra=n,
            )
            starts = rng.sample(a.states, rng.randint(1, 3))
            yield a.replace(start=starts)


KERNEL_NFAS = list(_kernel_nfas())


def test_kernel_inputs_span_several_bytes_and_alphabets():
    sizes = [len(a.states) for a in KERNEL_NFAS]
    assert min(sizes) == 9 and max(sizes) == 80
    assert sum(n > 64 for n in sizes) >= 8
    assert any(a.base == 3 and a.arity == 2 for a in KERNEL_NFAS if len(a.states) > 64)
    assert sum(not core._is_deterministic(a) for a in KERNEL_NFAS) >= 40


def test_subset_construction_matches_reference():
    for a in [bundled(name) for name in BUNDLED] + KERNEL_NFAS:
        assert subset_automaton(a) == reference_prefix_determinization(a)


def test_subset_cap_is_exact():
    for a in KERNEL_NFAS[::5]:
        subsets = len(subset_automaton(a).states)
        with pytest.raises(CapExceededError):
            subset_automaton(a, cap=subsets - 1)
        assert len(subset_automaton(a, cap=subsets).states) == subsets


def test_subset_construction_emits_its_edges_in_csr_order():
    for a in KERNEL_NFAS:
        d = _subset_construction(a.edges, [core._start_mask(a)], 10**6)[1]
        start, order = d.adjacency
        assert np.array_equal(order, np.arange(len(d.src)))
        assert np.array_equal(start, np.searchsorted(d.src, np.arange(d.n + 1)))


def test_acceptance_builds_the_kernel_once_per_automaton(monkeypatch):
    built = []
    original = core._image_kernel

    def counting(e):
        built.append(e)
        return original(e)

    monkeypatch.setattr(core, "_image_kernel", counting)
    a = bundled("dyadic")
    word = [(1,), (0,), (1,)]
    assert accepts(a, word) == reference_accepts(a, word)
    assert accepts(a, [(0,)]) == reference_accepts(a, [(0,)])
    assert built == [a.edges]


def test_enumeration_and_acceptance_match_reference():
    rng = random.Random(1202)
    for a in [bundled(name) for name in BUNDLED] + KERNEL_NFAS[::3]:
        alphabet = _symbols(a.base, a.arity)
        for depth in range(4):
            want = reference_enumerate_prefixes(a, depth)
            assert enumerate_prefixes(a, depth) == want
            assert prefix_count(a, depth) == len(want)
        for _ in range(20):
            w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            assert accepts(a, w) == reference_accepts(a, w)


def _member_image(e: EdgeList, subset: int) -> int:
    packed = 0
    for q, c, d in zip(e.src.tolist(), e.sym.tolist(), e.dst.tolist()):
        if subset >> q & 1:
            packed |= 1 << (c * e.n + d)
    return packed


def test_kernel_sparse_and_byte_paths_agree_with_members():
    """Subsets of 1 to n/4 members on graphs of 130-1000 nodes, so that
    both sides of the one-member-per-8-bytes switch are read, and the
    byte memo is reused across subsets."""
    rng = random.Random(1204)
    for n, n_sym in ((130, 1), (300, 3), (1000, 2)):
        m = 3 * n
        e = EdgeList(
            n,
            np.sort(rng.choices(range(n), k=m)),
            np.array(rng.choices(range(n_sym), k=m)),
            np.array(rng.choices(range(n), k=m)),
        )
        image = core._image_kernel(e)
        width = (n + 7) // 8
        sizes = [1, 2, width // 8 - 1, width // 8, width // 8 + 1, n // 4]
        for size in sizes * 4:
            subset = sum(1 << q for q in rng.sample(range(n), max(size, 1)))
            assert image(subset) == _member_image(e, subset)


def test_large_sparse_subsets_match_reference():
    """A deterministic automaton of a few hundred states beside a copy of
    itself: two-member subsets of a 20-byte-wide bitmask."""
    rng = random.Random(1205)
    d = random_deterministic_trim(rng, n_states=160, base=2, arity=1)
    a = disjoint_union(d, d)
    assert len(a.states) > 160
    assert subset_automaton(a) == reference_prefix_determinization(a)
    alphabet = _symbols(a.base, a.arity)
    for _ in range(20):
        w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 200)))
        assert accepts(a, w) == reference_accepts(a, w)


# ---------------------------------------------------------------------------
# one edge per (node, symbol): adjacent repeats against a full sort
# ---------------------------------------------------------------------------


def _unique_answer(e: EdgeList) -> bool:
    key = e.src * (int(e.sym.max(initial=0)) + 1) + e.sym
    return len(np.unique(key)) == len(key)


def test_adjacent_repeat_test_matches_unique():
    rng = random.Random(1203)
    inputs = [bundled(name) for name in BUNDLED]
    inputs += [
        random_automaton(
            rng,
            n_states=rng.randint(1, 12),
            base=rng.choice([2, 3]),
            arity=rng.choice([1, 2]),
            nondet=rng.choice([0.0, 0.1, 0.4]),
        )
        for _ in range(300)
    ]
    checked = answers = 0
    for a in inputs:
        e = a.edges
        lists = [e] + [
            EdgeList(len(b.nodes), b.src, e.sym[b.edges], b.dst)
            for b in a.sccs.blocks.values()
        ]
        for sub in lists:
            assert _deterministic(sub) == _unique_answer(sub)
            checked += 1
            answers += _deterministic(sub)
    assert checked >= 400 and 50 <= answers <= checked - 50
    for a in KERNEL_NFAS:
        d = _subset_construction(a.edges, [core._start_mask(a)], 10**6)[1]
        assert _deterministic(d) and _unique_answer(d)


# ---------------------------------------------------------------------------
# periods from depth-first depths against breadth-first levels
# ---------------------------------------------------------------------------


def _assert_same_condensation(e: EdgeList) -> core.Condensation:
    got = _condensation(e)
    want = reference_condensation(EdgeList(e.n, e.src, e.sym, e.dst))
    assert np.array_equal(got.component_of, want.component_of)
    assert list(got.blocks) == list(want.blocks)
    for cid, block in got.blocks.items():
        other = want.blocks[cid]
        for field in ("nodes", "edges", "src", "dst", "classes"):
            assert np.array_equal(getattr(block, field), getattr(other, field)), field
        assert block.period == other.period
    return got


def _edge_list(n: int, edges: list[tuple[int, int]]) -> EdgeList:
    src = [u for u, _ in edges]
    return EdgeList.from_lists(n, src, [0] * len(edges), [v for _, v in edges])


def _periodic_block(rng: random.Random, period: int) -> list[tuple[int, int]]:
    """Edges of a strongly connected digraph of period exactly ``period``
    on nodes 0..m-1, node i in class i mod period: a ring through every
    node in class order, a chord closing a cycle of length ``period``, and
    random chords from each class to the next."""
    m = period * rng.randint(1, 4)
    edges = [(i, (i + 1) % m) for i in range(m)] + [(period - 1, 0)]
    for _ in range(rng.randint(0, 2 * m)):
        u = rng.randrange(m)
        v = rng.choice([w for w in range(m) if w % period == (u + 1) % period])
        edges.append((u, v))
    return edges


def test_condensation_matches_reference_on_random_digraphs():
    rng = random.Random(1204)
    periods = set()
    for _ in range(300):
        n = rng.randint(1, 40)
        edges = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 3 * n))
        ]
        edges += [(u, u) for u in rng.sample(range(n), rng.randint(0, min(n, 2)))]
        edges += rng.sample(edges, min(len(edges), rng.randint(0, 3)))  # parallel
        rng.shuffle(edges)
        got = _assert_same_condensation(_edge_list(n, edges))
        periods.update(b.period for b in got.blocks.values())
    assert {1, 2} <= periods


def test_condensation_matches_reference_on_rings_of_every_period():
    rng = random.Random(1205)
    for period in range(1, 13):
        for _ in range(5):
            edges = _periodic_block(rng, period)
            n = max(max(u, v) for u, v in edges) + 1
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in edges]
            rng.shuffle(edges)
            (block,) = _assert_same_condensation(_edge_list(n, edges)).blocks.values()
            assert block.period == period


def test_condensation_matches_reference_on_multi_block_graphs():
    rng = random.Random(1206)
    for _ in range(60):
        edges, spans = [], []
        for _ in range(rng.randint(2, 5)):
            first = spans[-1][1] if spans else 0
            block = _periodic_block(rng, rng.randint(1, 6))
            size = max(max(u, v) for u, v in block) + 1
            edges += [(first + u, first + v) for u, v in block]
            spans.append((first, first + size))
        n = spans[-1][1]
        for i, (lo, hi) in enumerate(spans[:-1]):
            for _ in range(rng.randint(1, 3)):
                later = rng.choice(spans[i + 1 :])
                edges.append((rng.randrange(lo, hi), rng.randrange(*later)))
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in edges]
        rng.shuffle(edges)
        got = _assert_same_condensation(_edge_list(n, edges))
        assert len(got.blocks) == len(spans)


def test_condensation_matches_reference_on_subset_graphs():
    rng = random.Random(1207)
    blocks = 0
    for _ in range(12):
        n = rng.randint(24, 28)
        a = random_strongly_connected(rng, n_states=n, base=2, extra=n)
        d = _subset_construction(a.edges, [core._start_mask(a)], 10**6)[1]
        blocks += len(_assert_same_condensation(d).blocks)
    assert blocks >= 12


def test_declaration_order_need_not_be_name_order():
    """An automaton's edges are sorted by state name and its nodes numbered
    in declaration order, so the edges leaving a node need not be one run
    of the columns; the CSR adjacency sorts them, stably."""
    zero, one = DigitVector((0,)), DigitVector((1,))
    a = Automaton(
        2,
        1,
        ["z", "a"],
        [("a", zero, "z"), ("a", one, "a"), ("z", zero, "a"), ("z", one, "z")],
        ["z"],
        ["a"],
    )
    assert a.edges.src.tolist() == [1, 1, 0, 0]
    start, order = a.edges.adjacency
    assert start.tolist() == [0, 2, 4] and order.tolist() == [2, 3, 0, 1]
    rng = random.Random(1208)
    scattered = 0
    for _ in range(800):
        if rng.random() < 0.5:
            a = random_automaton(rng, n_states=rng.randint(1, 14), nondet=0.4)
        else:
            a = random_multi_scc(
                rng, n_blocks=rng.randint(2, 4), deterministic=rng.random() < 0.5
            )
        states = list(a.states)
        rng.shuffle(states)
        a = a.replace(states=states)
        scattered += bool(np.any(np.diff(a.edges.src) < 0))
        _assert_same_condensation(a.edges)
        for q in a.states:
            try:
                want = reference_shortest_word_to(a, q)
            except NotTrimError:
                with pytest.raises(NotTrimError):
                    _shortest_word_to(a, q)
            else:
                assert _shortest_word_to(a, q) == want
    assert scattered >= 500


def test_tarjan_depths_are_dfs_depths():
    # 0 -> 1 -> 0 and 0 -> 2 -> 0, node 2 found after node 1 finishes: by
    # depth both sit one step from 0, giving period 2; discovery indices
    # (0, 1, 2) would give period 1.  Then a path 3 -> 4 -> ... -> 8 with a
    # back edge to 5 (period 4), its depths counted from the second root 3.
    # Components are numbered by reverse completion: the later block first.
    edges = [(0, 1), (1, 0), (0, 2), (2, 0), (3, 4), (4, 5), (5, 6)]
    edges += [(6, 7), (7, 8), (8, 5)]
    got = _assert_same_condensation(_edge_list(9, edges))
    blocks = list(got.blocks.values())
    assert [b.nodes.tolist() for b in blocks] == [[5, 6, 7, 8], [0, 1, 2]]
    assert [b.period for b in blocks] == [4, 2]
    assert [b.classes.tolist() for b in blocks] == [[0, 1, 2, 3], [0, 1, 1]]
