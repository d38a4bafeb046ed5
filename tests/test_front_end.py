"""The integer front end: parsing makes the edge columns in one pass and
validates each symbol once, ``transitions`` is derived only when read,
every edge list builds its adjacency once, one live-state mask serves every
trim check on an automaton, and one list-indexed Tarjan serves both the
automaton graph and the ambiguity check's pair graph.  Each piece is
checked against the earlier implementation kept in ``helpers_random``."""

import hashlib
import json
import random

import numpy as np
import pytest

from omegafract import (
    Automaton,
    OmegafractError,
    automaton_to_dict,
    check_unambiguous,
    classify_properties,
    density_classifier,
    dimension_report,
    entropy,
    hausdorff_measure,
    mw_alpha,
    parse_automaton,
    serialize_automaton,
    trim,
)
from omegafract import core
from omegafract.cli import main
from omegafract.core import require_trim, tarjan_components

from conftest import AUTOMATA_DIR, bundled
from helpers_random import (
    ReferenceAutomaton,
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


def _with_fields(doc: dict | str, changes: dict, extra: tuple = ()) -> str:
    """The document ``doc`` (or the bundled one of that name) with the
    fields of transition i set as in ``changes[i]``, a value of ``None``
    deleting the field, and the entries ``extra`` appended to its
    transitions (the string "last" stands for a copy of the last one)."""
    doc = json.loads(_document(doc) if isinstance(doc, str) else json.dumps(doc))
    entries = doc["transitions"]
    for i, fields in changes.items():
        for key, value in fields.items():
            if value is None:
                del entries[i][key]
            else:
                entries[i][key] = value
    entries += [dict(entries[-1]) if e == "last" else e for e in extra]
    return json.dumps(doc)


#: States named by numerals, so that integer ids name them too.
NUMERAL_STATES = {
    "base": 2,
    "arity": 1,
    "states": ["0", "1"],
    "start": ["0"],
    "accept": ["1"],
    "transitions": [
        {"from": "0", "symbol": [1], "to": "1"},
        {"from": "1", "symbol": [0], "to": "0"},
    ],
}

#: An unknown state name met in the same pass as other faults: the pass
#: that numbers the states must keep the order of the checks.
MALFORMED.update(
    {
        "unknown-from-then-out-of-range": _with_fields(
            "golden_mean", {1: {"from": "nope"}, 2: {"symbol": [2]}}
        ),
        "out-of-range-then-unknown-from": _with_fields(
            "golden_mean", {1: {"symbol": [2]}, 2: {"from": "nope"}}
        ),
        "unknown-from-then-negative": _with_fields(
            "golden_mean", {1: {"from": "nope"}, 2: {"symbol": [-1]}}
        ),
        "negative-then-unknown-from": _with_fields(
            "golden_mean", {1: {"symbol": [-1]}, 2: {"from": "nope"}}
        ),
        "unknown-from-and-to": _with_fields(
            "golden_mean", {1: {"from": "nope", "to": "nada"}}
        ),
        "unknown-to-then-missing-key": _with_fields(
            "golden_mean", {0: {"to": "nope"}, 2: {"symbol": None}}
        ),
        "unknown-to-then-not-an-object": _with_fields(
            "golden_mean", {0: {"to": "nope"}}, extra=([0],)
        ),
        "integer-ids-duplicate": _with_fields(
            NUMERAL_STATES, {}, extra=({"from": 0, "symbol": [1], "to": 1},)
        ),
        "integer-id-unknown": _with_fields(NUMERAL_STATES, {1: {"to": 2}}),
        "float-and-list-ids": _with_fields(
            NUMERAL_STATES, {0: {"from": 0.0}, 1: {"to": [0]}}
        ),
        "duplicate-after-unknown-name": _with_fields(
            "golden_mean", {0: {"from": "nope"}}, extra=("last",)
        ),
    }
)
#: Faults of the document as a whole next to faults of its transitions: the
#: parser reports an empty or negative symbol before a bad base or arity,
#: the constructor after them.
for label, field, value in [("base", "base", 1), ("arity", "arity", 0)]:
    for symbol in ([], [-1]):
        doc = json.loads(_with_fields("golden_mean", {2: {"symbol": symbol}}))
        doc[field] = value
        MALFORMED[f"bad-{label}-and-symbol-{symbol}"] = json.dumps(doc)


def test_integer_ids_name_the_states_of_their_numerals():
    text = _with_fields(NUMERAL_STATES, {0: {"from": 0}, 1: {"from": 1, "to": 0}})
    _assert_same_record(parse_automaton(text), reference_parse_automaton(text))
    assert parse_automaton(text) == parse_automaton(json.dumps(NUMERAL_STATES))


@pytest.mark.parametrize("text", MALFORMED.values(), ids=list(MALFORMED))
def test_parse_errors_match_reference(text):
    with pytest.raises(OmegafractError) as want:
        reference_parse_automaton(text)
    with pytest.raises(OmegafractError) as got:
        parse_automaton(text)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def _constructor_arguments(text: str) -> dict | None:
    """The arguments of ``Automaton(...)`` that the document ``text``
    spells out, ids and symbols as decoded, or None if some transition is
    not an object with the three fields (a fault only a document has)."""
    doc = json.loads(text)
    entries = doc["transitions"]
    fields = {"from", "symbol", "to"}
    if not all(isinstance(e, dict) and e.keys() >= fields for e in entries):
        return None
    return {
        "base": doc["base"],
        "arity": doc["arity"],
        "states": doc["states"],
        "transitions": [(e["from"], e["symbol"], e["to"]) for e in entries],
        "start": doc["start"],
        "accept": doc["accept"],
    }


#: The malformed documents as constructor arguments, and arguments whose
#: faults the parser never sees: ids that are not strings (the parser makes
#: them strings), an unhashable id next to an unknown one, and symbols as
#: digit vectors.
CONSTRUCTOR_CASES = {
    label: arguments
    for label, text in MALFORMED.items()
    if (arguments := _constructor_arguments(text)) is not None
}
CONSTRUCTOR_CASES.update(
    {
        "integer-id": dict(NUMERAL_STATES, transitions=[(0, (1,), "1")]),
        "integer-to": dict(NUMERAL_STATES, transitions=[("0", (1,), 1)]),
        "unknown-then-unhashable-id": dict(
            NUMERAL_STATES, transitions=[("0", (1,), "2"), ("1", (0,), ["0"])]
        ),
        "unhashable-then-unknown-id": dict(
            NUMERAL_STATES, transitions=[("0", (1,), ["1"]), ("2", (0,), "0")]
        ),
        "unhashable-id-bad-base": dict(
            NUMERAL_STATES, base=1, transitions=[(["0"], (1,), "1")]
        ),
        "unknown-then-empty-vector": dict(
            NUMERAL_STATES, transitions=[("0", (1,), "2"), ("1", (), "0")]
        ),
    }
)


@pytest.mark.parametrize(
    "arguments", CONSTRUCTOR_CASES.values(), ids=list(CONSTRUCTOR_CASES)
)
def test_constructor_errors_match_reference(arguments):
    """``Automaton(...)`` checks as the six-field record did: a state id in
    a transition stands for itself, and a fault of a transition comes after
    a bad base or arity and after the faults of the transitions before it.
    (A ``TypeError`` is Python's own, so only its type is compared; an
    unhashable digit raises it where it is met.)"""
    try:
        ReferenceAutomaton(**arguments)
    except (OmegafractError, TypeError) as exc:
        want = exc
    else:
        want = None
    if want is None:
        Automaton(**arguments)
        return
    with pytest.raises((OmegafractError, TypeError)) as got:
        Automaton(**arguments)
    assert type(got.value) is type(want)
    if not isinstance(want, TypeError):
        assert str(got.value) == str(want)


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
        # the successor lists, once: reachability reads the condensation
        assert built == [len(a.states)]


# ---------------------------------------------------------------------------
# the stored columns and what is derived from them
# ---------------------------------------------------------------------------


def _random_automata(seed: int, count: int) -> list:
    """Random automata, trim or not, deterministic or not."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 3 == 2:
            out.append(random_multi_scc(rng, base=2, deterministic=i % 2 == 0))
        else:
            out.append(
                random_automaton(
                    rng,
                    n_states=rng.randint(1, 7),
                    base=rng.choice([2, 3]),
                    arity=rng.choice([1, 2]),
                    nondet=0.4,
                )
            )
    return out


def _tuple_built(a: Automaton, rng: random.Random, record=Automaton):
    """``a`` made anew by the constructor of ``record``, from its
    transitions in random order."""
    transitions = list(a.transitions)
    rng.shuffle(transitions)
    return record(
        base=a.base,
        arity=a.arity,
        states=a.states,
        transitions=tuple(transitions),
        start=a.start,
        accept=a.accept,
    )


def _as_dataclass(a: Automaton, ref: ReferenceAutomaton) -> None:
    """``a`` hashes and prints as the frozen dataclass of the six fields
    ``ref`` did.  (A frozenset prints its members in an order that may
    depend on the order they were added in, so ``ref`` must be made from
    the same arguments.)"""
    assert hash(a) == hash(ref)
    assert repr(a) == "Automaton" + repr(ref).removeprefix("ReferenceAutomaton")


def test_analyses_never_derive_transitions_and_check_trim_once(monkeypatch):
    computed = []
    live = Automaton.__dict__["_live_mask"]
    original = live.func

    def counting(a):
        computed.append(a)
        return original(a)

    monkeypatch.setattr(live, "func", counting)
    analyses = [
        entropy,
        dimension_report,
        hausdorff_measure,
        mw_alpha,
        density_classifier,
        check_unambiguous,
    ]
    for name in BUNDLED:
        a = parse_automaton(_document(name))
        ran = 0
        for analysis in analyses:
            try:
                analysis(a)
                ran += 1
            except OmegafractError:  # not strongly connected, ambiguous, ...
                pass
        assert ran >= 4
        assert "transitions" not in vars(a)
        assert [b is a for b in computed] == [True]
        computed.clear()


def test_transitions_equality_hash_and_repr_match_the_tuple_built_automaton():
    rng = random.Random(912)
    inputs = [bundled(name) for name in BUNDLED] + _random_automata(913, 40)
    for a in inputs:
        text = json.dumps(automaton_to_dict(a))
        parsed = parse_automaton(text)
        assert "transitions" not in vars(parsed)
        _as_dataclass(parsed, reference_parse_automaton(text))
        state = rng.getstate()
        built = _tuple_built(a, rng)
        rng.setstate(state)
        _as_dataclass(built, _tuple_built(a, rng, ReferenceAutomaton))
        assert parsed.transitions == built.transitions == a.transitions
        assert parsed == built and not parsed != built
        assert hash(parsed) == hash(built)
        other_accept = built.replace(accept=built.states)
        assert (other_accept == parsed) is (other_accept.accept == parsed.accept)
        if built.transitions:
            assert built.replace(transitions=built.transitions[1:]) != parsed


def test_restrict_keeps_the_rows_the_constructor_would_build():
    rng = random.Random(914)
    checked = 0
    for a in _random_automata(915, 60):
        kept = {q for q in a.states if rng.random() < 0.6} | {min(a.start)}
        restricted = [(kept, a.restrict(kept))]
        try:
            trimmed = trim(a)
            restricted.append((set(trimmed.states), trimmed))
        except OmegafractError:  # accepts no infinite word
            pass
        for kept, got in restricted:
            want = Automaton(
                base=a.base,
                arity=a.arity,
                states=tuple(q for q in a.states if q in kept),
                transitions=tuple(
                    t for t in a.transitions if t[0] in kept and t[2] in kept
                ),
                start=a.start & kept,
                accept=a.accept & kept,
            )
            assert got == want
            assert got.symbols_used == want.symbols_used
            assert got.state_index == want.state_index
            e, f = got.edges, want.edges
            assert e.n == f.n
            for x, y in [(e.src, f.src), (e.sym, f.sym), (e.dst, f.dst)]:
                assert x.dtype == y.dtype and np.array_equal(x, y)
            checked += got is not a
    assert checked >= 60


# ---------------------------------------------------------------------------
# the canonical serialization and its hash
# ---------------------------------------------------------------------------

#: Characters that JSON escapes: quotes, backslashes, control characters,
#: non-ASCII letters and a character outside the Basic Multilingual Plane.
ODD_CHARACTERS = '"\\\n\t\x00\x7féü€\u2603\U0001f600ab'


def _odd_names(a: Automaton, rng: random.Random) -> Automaton:
    """``a`` with each state renamed to a distinct string of characters
    that JSON must escape."""
    names = {}
    for i, q in enumerate(a.states):
        odd = "".join(rng.choice(ODD_CHARACTERS) for _ in range(rng.randint(0, 4)))
        names[q] = f"{odd}{i}"
    return Automaton(
        base=a.base,
        arity=a.arity,
        states=tuple(names[q] for q in a.states),
        transitions=tuple((names[p], s, names[q]) for p, s, q in a.transitions),
        start=frozenset(names[q] for q in a.start),
        accept=frozenset(names[q] for q in a.accept),
    )


def test_serialization_from_columns_matches_json_dumps_of_the_dict(tmp_path, capsys):
    rng = random.Random(916)
    inputs = [bundled(name) for name in BUNDLED] + _random_automata(917, 30)
    for i, a in enumerate(inputs):
        a = _odd_names(a, rng)
        want = json.dumps(automaton_to_dict(a), separators=(", ", ": "))
        assert serialize_automaton(a) == want
        assert parse_automaton(want) == a
        if i % 6 == 0:  # the CLI hashes the same bytes
            path = tmp_path / f"odd-{i}.json"
            path.write_text(want, encoding="utf-8")
            main(["check", str(path)])
            report = json.loads(capsys.readouterr().out)
            digest = hashlib.sha256(want.encode("utf-8")).hexdigest()
            assert report["automaton_sha256"] == digest
