"""The integer front end: parsing interns each symbol and validates it once,
every edge list builds its adjacency once, and one list-indexed Tarjan
serves both the automaton graph and the ambiguity check's pair graph.  Each
piece is checked against the earlier implementation kept in
``helpers_random``."""

import json
import random

import numpy as np
import pytest

from omegafract import (
    OmegafractError,
    automaton_to_dict,
    check_unambiguous,
    classify_properties,
    parse_automaton,
    trim,
)
from omegafract import core
from omegafract.core import require_trim, tarjan_components

from conftest import AUTOMATA_DIR, bundled
from helpers_random import (
    random_automaton,
    random_deterministic_trim,
    random_multi_scc,
    random_strongly_connected,
    reference_check_unambiguous,
    reference_parse_automaton,
    reference_tarjan_components,
)

BUNDLED = [
    "cantor",
    "cantor_pair",
    "dyadic",
    "dyadic_unambiguous",
    "full_binary",
    "golden_mean",
]


def _document(name: str) -> str:
    return (AUTOMATA_DIR / f"{name}.json").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _scrambled_document(rng: random.Random, a) -> str:
    """``a`` as a document with its states, start and accept states and
    transitions listed in random order."""
    doc = automaton_to_dict(a)
    for key in ("states", "start", "accept", "transitions"):
        rng.shuffle(doc[key])
    return json.dumps(doc)


def _random_documents():
    rng = random.Random(808)
    for i in range(60):
        if i % 3 == 0:
            a = random_automaton(
                rng,
                n_states=rng.randint(1, 7),
                base=rng.choice([2, 3]),
                arity=rng.choice([1, 2]),
                nondet=0.4,
            )
        elif i % 3 == 1:
            a = random_multi_scc(rng, base=rng.choice([2, 3]), deterministic=i % 2 == 0)
        else:
            a = random_strongly_connected(rng, n_states=rng.randint(1, 6), extra=6)
        yield _scrambled_document(rng, a)


def _assert_same_record(a, ref) -> None:
    assert (a.base, a.arity, a.states) == (ref.base, ref.arity, ref.states)
    assert a.transitions == ref.transitions
    assert a.symbols_used == ref.symbols_used
    assert a.start == ref.start and a.accept == ref.accept
    e, r = a.edges, ref.edges
    assert e.n == r.n
    for got, want in [(e.src, r.src), (e.sym, r.sym), (e.dst, r.dst)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_parse_matches_reference_on_bundled_and_scrambled_documents():
    texts = [_document(name) for name in BUNDLED] + list(_random_documents())
    for text in texts:
        _assert_same_record(parse_automaton(text), reference_parse_automaton(text))


def test_parse_shares_one_symbol_object_per_distinct_symbol():
    shared = 0
    for name in BUNDLED:
        a = parse_automaton(_document(name))
        objects = {id(sym) for _, sym, _ in a.transitions}
        assert len(objects) == len(a.symbols_used)
        shared += len(objects) < len(a.transitions)
    assert shared == 3


def _with_symbols(name: str, symbols: dict) -> str:
    """The bundled document ``name`` with transition i's symbol replaced by
    ``symbols[i]``."""
    doc = json.loads(_document(name))
    for i, sym in symbols.items():
        doc["transitions"][i]["symbol"] = sym
    return json.dumps(doc)


def _with_duplicate(name: str, symbols: dict | None = None) -> str:
    """The bundled document ``name`` with a second copy of its last
    transition, and the symbols replaced as in :func:`_with_symbols`."""
    doc = json.loads(_with_symbols(name, symbols or {}))
    doc["transitions"].append(dict(doc["transitions"][-1]))
    return json.dumps(doc)


#: Bad symbols at transition 2, each in a unary and a binary document.  A
#: valid ``[1]`` or ``[1, 1]`` sits at transition 1, so an interning lookup
#: made before the type check would find it for ``[true]`` or ``[1.0]``.
BAD_SYMBOLS = {
    "bool": ([True], [True, True]),
    "float": ([1.0], [1.0, 1.0]),
    "bool-after-int": ([1, True], [1, 1, True]),
    "nested": ([[1]], [[1], 1]),
    "string": (["1"], ["1", "1"]),
    "out-of-range": ([2], [0, 3]),
    "negative": ([-1], [-1, 0]),
    "empty": ([], []),
    "arity": ([0, 0], [0]),
    "arity-long": ([0, 0, 0], [0, 0, 0]),
    "not-a-list": (1, {"0": 1}),
}

MALFORMED = {}
for label, (unary, binary) in BAD_SYMBOLS.items():
    MALFORMED[f"unary-{label}"] = _with_symbols("golden_mean", {1: [1], 2: unary})
    MALFORMED[f"binary-{label}"] = _with_symbols(
        "cantor_pair", {1: [1, 1], 2: binary}
    )
MALFORMED["unary-duplicate"] = _with_duplicate("golden_mean")
MALFORMED["binary-duplicate"] = _with_duplicate("cantor_pair")
MALFORMED["out-of-range-then-duplicate"] = _with_duplicate("golden_mean", {0: [2]})
#: Two bad transitions: the error of the first to fail must still win.
TWO_BAD = [
    ([2], [-1]),
    ([-1], [2]),
    ([2], [0, 0]),
    ([0, 0], [2]),
    ([2], [True]),
    ([True], [2]),
    ([2], [2]),
    ([3], [2]),
    ([[0]], [1.0]),
    ([-1], [-2]),
]
for i, (first, second) in enumerate(TWO_BAD):
    MALFORMED[f"two-bad-{i}"] = _with_symbols("golden_mean", {0: first, 2: second})


@pytest.mark.parametrize("text", MALFORMED.values(), ids=list(MALFORMED))
def test_parse_errors_match_reference(text):
    with pytest.raises(OmegafractError) as want:
        reference_parse_automaton(text)
    with pytest.raises(OmegafractError) as got:
        parse_automaton(text)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# Tarjan
# ---------------------------------------------------------------------------


def _random_digraph(rng: random.Random, n: int) -> list[list[int]]:
    """Successor lists with self-loops and parallel edges."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for _ in range(rng.randint(0, 3 * n)):
        u = rng.randrange(n)
        v = u if rng.random() < 0.1 else rng.randrange(n)
        succ[u] += [v] * rng.choice([1, 1, 2])
    return succ


def test_tarjan_matches_reference_on_random_digraphs():
    rng = random.Random(909)
    for _ in range(400):
        n = rng.randint(1, 40)
        succ = _random_digraph(rng, n)
        nodes = list(range(n))
        if rng.random() < 0.5:
            rng.shuffle(nodes)
        assert tarjan_components(nodes, succ) == reference_tarjan_components(
            nodes, succ
        )


@pytest.mark.parametrize("ring", [False, True])
def test_tarjan_runs_a_long_chain_and_ring_without_recursion(ring):
    n = 100_000
    succ = [[u + 1] for u in range(n - 1)] + [[0] if ring else []]
    components = tarjan_components(range(n), succ)
    assert components == reference_tarjan_components(range(n), succ)
    assert len(components) == (1 if ring else n)


# ---------------------------------------------------------------------------
# the ambiguity check and the adjacency
# ---------------------------------------------------------------------------


def _count_tarjan_runs(monkeypatch) -> list:
    runs = []
    original = core.tarjan_components

    def counting(nodes, successors, depth=None):
        runs.append(len(nodes))
        return original(nodes, successors, depth)

    monkeypatch.setattr(core, "tarjan_components", counting)
    return runs


def test_deterministic_inputs_skip_the_pair_product(monkeypatch):
    rng = random.Random(910)
    inputs = [bundled(name) for name in BUNDLED]
    inputs += [
        random_deterministic_trim(
            rng, n_states=rng.randint(2, 8), base=rng.choice([2, 3])
        )
        for _ in range(30)
    ]
    inputs += [random_multi_scc(rng, base=2) for _ in range(10)]
    deterministic = [a for a in inputs if core._is_deterministic(a)]
    assert len(deterministic) >= 35
    for a in deterministic:
        assert check_unambiguous(a) == reference_check_unambiguous(a)
    runs = _count_tarjan_runs(monkeypatch)
    for a in deterministic:
        check_unambiguous(parse_automaton(json.dumps(automaton_to_dict(a))))
    assert runs == []


def test_one_adjacency_per_edge_list(monkeypatch):
    rng = random.Random(911)
    for _ in range(10):
        a = random_multi_scc(rng, base=2, deterministic=False)
        a = parse_automaton(json.dumps(automaton_to_dict(a)))
        built = []
        original = core._grouped

        def counting(n, key, value):
            built.append(n)
            return original(n, key, value)

        monkeypatch.setattr(core, "_grouped", counting)
        require_trim(a)
        assert trim(a) is a
        classify_properties(a)
        a.sccs
        check_unambiguous(a)
        monkeypatch.undo()
        # the successor lists and the predecessor lists, once each
        assert built == [len(a.states)] * 2
