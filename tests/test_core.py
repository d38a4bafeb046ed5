import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegafract import (
    Automaton,
    CapExceededError,
    DigitVector,
    EmptyLanguageError,
    FormatError,
    NotTrimError,
    ValidationError,
    accepts,
    box_cover,
    check_unambiguous,
    classify_properties,
    closure,
    dimension_report,
    entropy,
    enumerate_prefixes,
    parse_automaton,
    prefix_count,
    serialize_automaton,
    trim,
)
from helpers_random import (
    disjoint_union,
    subset_automaton,
    random_automaton,
    random_trim_automaton,
    reference_multigraph_to_digraph,
)

DYADIC_DOC = """
{"base": 2, "arity": 1,
 "states": ["q0", "q1"], "start": ["q0"], "accept": ["q1"],
 "transitions": [
   {"from": "q0", "symbol": [0], "to": "q0"},
   {"from": "q0", "symbol": [1], "to": "q0"},
   {"from": "q0", "symbol": [0], "to": "q1"},
   {"from": "q1", "symbol": [0], "to": "q1"}]}
"""


def sym(*digits):
    return DigitVector(tuple(digits))


def word(*digits):
    return tuple(sym(d) for d in digits)


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------


def test_parse_dyadic_document():
    a = parse_automaton(DYADIC_DOC)
    assert a.states == ("q0", "q1")
    assert a.start == frozenset({"q0"})
    assert a.accept == frozenset({"q1"})
    assert len(a.transitions) == 4
    q0_on_0 = [d for s, c, d in a.transitions if (s, c) == ("q0", sym(0))]
    assert q0_on_0 == ["q0", "q1"]


def test_parse_digit_out_of_range():
    doc = json.loads(DYADIC_DOC)
    doc["transitions"][0]["symbol"] = [2]
    with pytest.raises(ValidationError, match="digit out of range"):
        parse_automaton(json.dumps(doc))


def test_parse_single_state_full():
    doc = {
        "base": 2,
        "arity": 1,
        "states": ["u"],
        "start": ["u"],
        "accept": ["u"],
        "transitions": [
            {"from": "u", "symbol": [0], "to": "u"},
            {"from": "u", "symbol": [1], "to": "u"},
        ],
    }
    a = parse_automaton(json.dumps(doc))
    assert len(a.states) == 1
    assert enumerate_prefixes(a, 3) == {word(*w) for w in
                                        [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                                         (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]}


def test_parse_malformed_json_mentions_line():
    with pytest.raises(FormatError, match="line"):
        parse_automaton("{\n  broken\n}")


def test_parse_unknown_state():
    doc = json.loads(DYADIC_DOC)
    doc["transitions"][0]["to"] = "nope"
    with pytest.raises(ValidationError, match="unknown state"):
        parse_automaton(json.dumps(doc))


def test_parse_empty_start():
    doc = json.loads(DYADIC_DOC)
    doc["start"] = []
    with pytest.raises(ValidationError, match="start"):
        parse_automaton(json.dumps(doc))


def test_duplicate_transition_rejected():
    doc = json.loads(DYADIC_DOC)
    doc["transitions"].append({"from": "q1", "symbol": [0], "to": "q1"})
    with pytest.raises(ValidationError, match="duplicate transition"):
        parse_automaton(json.dumps(doc))


def test_serialization_is_canonical_and_round_trips(cantor, dyadic):
    for a in (cantor, dyadic):
        text = serialize_automaton(a)
        assert parse_automaton(text) == a
        assert serialize_automaton(parse_automaton(text)) == text


def test_serialization_golden(cantor):
    assert serialize_automaton(cantor) == (
        '{"base": 3, "arity": 1, "states": ["c"], "start": ["c"], '
        '"accept": ["c"], "transitions": '
        '[{"from": "c", "symbol": [0], "to": "c"}, '
        '{"from": "c", "symbol": [2], "to": "c"}]}'
    )


def test_serialization_sorts_transitions():
    a = Automaton(
        base=2,
        arity=1,
        states=("b", "a"),
        transitions=(("b", sym(1), "a"), ("a", sym(0), "b"), ("b", sym(0), "b")),
        start=frozenset({"b"}),
        accept=frozenset({"a"}),
    )
    froms = [t[0] for t in a.transitions]
    assert froms == sorted(froms)


# ---------------------------------------------------------------------------
# property flags
# ---------------------------------------------------------------------------


def test_classify_dyadic(dyadic):
    flags = classify_properties(dyadic)
    # two 0-successors at q0, so the automaton is nondeterministic (no
    # deterministic automaton exists for an eventually-constant tail set)
    assert not flags.deterministic
    assert flags.trim and flags.finite_trim
    assert not flags.closed
    assert flags.weak


def test_classify_cantor(cantor):
    flags = classify_properties(cantor)
    assert flags.deterministic and flags.trim and flags.closed and flags.weak


def test_classify_unreachable_state_breaks_finite_trim(dyadic):
    a = dyadic.replace(
        states=dyadic.states + ("dead",),
        transitions=dyadic.transitions + (("dead", sym(0), "dead"),),
    )
    flags = classify_properties(a)
    assert not flags.finite_trim and not flags.trim


# ---------------------------------------------------------------------------
# trim and closure
# ---------------------------------------------------------------------------


def test_trim_fixed_point(dyadic):
    assert trim(dyadic) == dyadic


def test_trim_removes_dangling_state_and_preserves_prefixes(dyadic):
    padded = dyadic.replace(
        states=dyadic.states + ("dead",),
        transitions=dyadic.transitions + (("dead", sym(1), "dead"),),
    )
    trimmed = trim(padded)
    assert "dead" not in trimmed.states
    for n in (0, 3, 10):
        assert enumerate_prefixes(trimmed, n) == enumerate_prefixes(dyadic, n)


def test_trim_empty_language():
    a = Automaton(
        base=2,
        arity=1,
        states=("q0", "q1"),
        transitions=(("q0", sym(0), "q1"),),
        start=frozenset({"q0"}),
        accept=frozenset({"q1"}),  # accepting but on no cycle
    )
    with pytest.raises(EmptyLanguageError):
        trim(a)


def test_closure_dyadic_accepts_everything(dyadic):
    closed = closure(dyadic)
    assert closed.accept == frozenset(dyadic.states)
    assert classify_properties(closed).closed
    for w in [word(1, 1, 1), word(0, 1, 0)]:
        assert accepts(closed, w)


def test_accepts_rejects_symbols_outside_the_alphabet(golden_mean):
    # golden_mean reads one binary digit per symbol and forbids 11
    assert accepts(golden_mean, [(1,), (0,)])
    assert not accepts(golden_mean, [(1,), (1,)])
    for bad in ([(0, 0)], [(7,)], [(2,)], [()], [(-1,)], [(1,), (1,), (7,)]):
        with pytest.raises(ValidationError):
            accepts(golden_mean, bad)


def test_closure_requires_trim(dyadic):
    padded = dyadic.replace(
        states=dyadic.states + ("dead",),
        transitions=dyadic.transitions + (("dead", sym(1), "dead"),),
    )
    with pytest.raises(NotTrimError):
        closure(padded)


def test_closure_idempotent(cantor, dyadic, golden_mean):
    for a in (cantor, dyadic, golden_mean):
        assert closure(closure(a)) == closure(a)


def test_closure_preserves_prefixes_random():
    rng = random.Random(7)
    for _ in range(15):
        a = random_trim_automaton(rng, n_states=4, base=rng.choice([2, 3]))
        for n in (1, 4, 7):
            assert enumerate_prefixes(closure(a), n) == enumerate_prefixes(a, n)


# ---------------------------------------------------------------------------
# SCC decomposition
# ---------------------------------------------------------------------------


def test_scc_dyadic(dyadic):
    scc = dyadic.sccs
    assert scc.component_of.tolist() == [0, 1]
    assert list(scc.blocks) == [0, 1]  # both have self-loops
    e = dyadic.edges
    cross = scc.component_of[e.src] != scc.component_of[e.dst]
    assert set(zip(e.src[cross].tolist(), e.dst[cross].tolist())) == {(0, 1)}
    assert [scc.component_of[dyadic.state_index[q]] for q in dyadic.accept] == [1]


def test_scc_single_state_no_transitions():
    a = Automaton(
        base=2, arity=1, states=("s",), transitions=(),
        start=frozenset({"s"}), accept=frozenset(),
    )
    scc = a.sccs
    assert scc.component_of.tolist() == [0] and scc.blocks == {}


def test_scc_complete_automaton_single_component():
    states = ("a", "b", "c")
    transitions = tuple(
        (p, sym(d), q) for p in states for q in states for d in (0, 1)
    )
    a = Automaton(base=2, arity=1, states=states, transitions=transitions,
                  start=frozenset({"a"}), accept=frozenset(states))
    scc = a.sccs
    assert scc.component_of.tolist() == [0, 0, 0] and list(scc.blocks) == [0]


def test_scc_dag_topological():
    rng = random.Random(11)
    for _ in range(10):
        a = random_automaton(rng, n_states=5)
        comp = a.sccs.component_of
        src, dst = comp[a.edges.src], comp[a.edges.dst]
        assert all(i < j for i, j in zip(src.tolist(), dst.tolist()) if i != j)
        assert len(comp) == len(a.states)
        assert set(comp.tolist()) == set(range(comp.max() + 1))


# ---------------------------------------------------------------------------
# cycle automata
# ---------------------------------------------------------------------------


def test_cycle_automaton_dyadic_q0(dyadic):
    c = trim(dyadic.replace(start=["q0"], accept=["q0"]))
    assert c.states == ("q0",)
    assert len(c.transitions) == 2  # loops on both digits
    assert enumerate_prefixes(c, 8) == enumerate_prefixes(
        parse_automaton(DYADIC_DOC).replace(accept=("q0", "q1")), 8
    )


def test_cycle_automaton_dyadic_q1(dyadic):
    c = trim(dyadic.replace(start=["q1"], accept=["q1"]))
    assert c.states == ("q1",)
    assert len(c.transitions) == 1
    assert accepts(c, word(0, 0, 0)) and not accepts(c, word(1))


def test_cycle_automaton_acyclic_state():
    a = Automaton(
        base=2,
        arity=1,
        states=("q0", "q1"),
        transitions=(("q0", sym(0), "q1"), ("q1", sym(0), "q1")),
        start=frozenset({"q0"}),
        accept=frozenset({"q1"}),
    )
    with pytest.raises(EmptyLanguageError):
        trim(a.replace(start=["q0"], accept=["q0"]))


def test_cycle_language_star_closed():
    rng = random.Random(3)
    for _ in range(8):
        a = random_trim_automaton(rng, n_states=4)
        for q in a.states:
            try:
                c = trim(a.replace(start=[q], accept=[q]))
            except EmptyLanguageError:
                continue
            words = [
                w
                for n in range(0, 5)
                for w in enumerate_prefixes(c, n)
                if accepts(c, w)
            ]
            for u in words[:12]:
                for v in words[:12]:
                    if len(u) + len(v) <= 8:
                        assert accepts(c, u + v)


# ---------------------------------------------------------------------------
# multigraph -> digraph
# ---------------------------------------------------------------------------


def test_digraph_prefix_equality_random():
    rng = random.Random(5)
    from helpers_random import random_deterministic_trim

    for _ in range(10):
        a = random_deterministic_trim(rng, n_states=4, base=rng.choice([2, 3]))
        dg = reference_multigraph_to_digraph(a)
        assert len({(s, d) for s, _, d in dg.transitions}) == len(dg.transitions)
        for n in (1, 4, 8, 10):
            assert enumerate_prefixes(dg, n) == enumerate_prefixes(a, n)
        # the analytic route sees the same set
        assert math.isclose(entropy(dg), entropy(a), rel_tol=1e-12)
        ra, rd = dimension_report(a), dimension_report(dg)
        assert math.isclose(rd.box, ra.box, rel_tol=1e-12)
        assert math.isclose(rd.hausdorff, ra.hausdorff, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# unambiguity
# ---------------------------------------------------------------------------


def test_deterministic_automata_are_unambiguous(cantor, full_binary, golden_mean):
    for a in (cantor, full_binary, golden_mean):
        assert check_unambiguous(a).unambiguous


def test_two_cantor_copies_are_ambiguous(cantor):
    both = disjoint_union(cantor, cantor)
    report = check_unambiguous(both)
    assert not report.unambiguous
    assert report.witness == ()  # 000... already has two accepting runs


def test_dyadic_merging_runs_are_ambiguous(dyadic, dyadic_unambiguous):
    # q0 -0-> {q0, q1} lets 0^w accept along every switch point
    assert not check_unambiguous(dyadic).unambiguous
    assert check_unambiguous(dyadic_unambiguous).unambiguous


def test_remerging_runs_are_still_distinct():
    # two runs of 000... diverge at step 1 and remerge at step 2; they are
    # different runs of one word, so the automaton is ambiguous
    a = Automaton(
        base=2,
        arity=1,
        states=("s", "a", "b", "c"),
        transitions=(
            ("s", sym(0), "a"),
            ("s", sym(0), "b"),
            ("a", sym(0), "c"),
            ("b", sym(0), "c"),
            ("c", sym(0), "c"),
        ),
        start=frozenset({"s"}),
        accept=frozenset({"c"}),
    )
    report = check_unambiguous(a)
    assert not report.unambiguous
    assert report.witness == (sym(0),)


def test_divergence_without_double_acceptance_is_unambiguous():
    # runs may split, but the branch through b never accepts, so every
    # accepted word keeps a single accepting run
    a = Automaton(
        base=2,
        arity=1,
        states=("s", "a", "b"),
        transitions=(
            ("s", sym(0), "a"),
            ("s", sym(0), "b"),
            ("a", sym(0), "a"),
            ("b", sym(0), "b"),
            ("b", sym(1), "a"),
        ),
        start=frozenset({"s"}),
        accept=frozenset({"a"}),
    )
    assert check_unambiguous(a).unambiguous


def test_random_deterministic_always_unambiguous():
    rng = random.Random(13)
    from helpers_random import random_deterministic_trim

    for _ in range(10):
        a = random_deterministic_trim(rng, n_states=5)
        assert check_unambiguous(a).unambiguous


# ---------------------------------------------------------------------------
# prefix enumeration
# ---------------------------------------------------------------------------


def test_enumerate_dyadic_depth3(dyadic):
    assert len(enumerate_prefixes(dyadic, 3)) == 8


def test_enumerate_cantor_depth2(cantor):
    assert enumerate_prefixes(cantor, 2) == {
        word(0, 0), word(0, 2), word(2, 0), word(2, 2)
    }


def test_enumerate_depth_zero(cantor):
    assert enumerate_prefixes(cantor, 0) == {()}


def test_enumerate_cap(cantor):
    with pytest.raises(CapExceededError):
        enumerate_prefixes(cantor, 10, cap=3**9)


@pytest.mark.parametrize("oracle", [prefix_count, enumerate_prefixes, box_cover])
def test_deep_enumeration_is_refused_at_once(cantor, oracle):
    # (3^1)^(10^8) has about 48 million digits: the guard must not build it
    started = time.monotonic()
    with pytest.raises(CapExceededError) as exc:
        oracle(cantor, 10**8)
    assert time.monotonic() - started < 1.0
    message = str(exc.value)
    assert "3^100000000" in message and "deepest depth it allows is 13" in message


def test_prefix_determinization_is_deterministic_closed(dyadic):
    det = subset_automaton(dyadic)
    flags = classify_properties(det)
    assert flags.deterministic and flags.closed
    for n in (1, 4, 8):
        assert enumerate_prefixes(det, n) == enumerate_prefixes(dyadic, n)


def test_prefix_counts_invariant_under_determinization():
    # the bridge the entropy computation rests on: the determinized
    # automaton has exactly the same distinct prefixes at every depth
    from omegafract import prefix_count

    rng = random.Random(17)
    for _ in range(10):
        a = random_trim_automaton(rng, n_states=4, base=rng.choice([2, 3]))
        det = subset_automaton(a)
        for n in range(11):
            assert prefix_count(det, n) == prefix_count(a, n)


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------


@st.composite
def trimmable_automata(draw):
    base = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4))
    states = tuple(f"s{i}" for i in range(n))
    symbols = [DigitVector((d,)) for d in range(base)]
    table = draw(
        st.sets(
            st.tuples(
                st.sampled_from(states),
                st.sampled_from(symbols),
                st.sampled_from(states),
            ),
            min_size=1,
            max_size=n * base + 2,
        )
    )
    start = draw(st.sets(st.sampled_from(states), min_size=1, max_size=n))
    accept = draw(st.sets(st.sampled_from(states), min_size=1, max_size=n))
    return Automaton(
        base=base,
        arity=1,
        states=states,
        transitions=tuple(table),
        start=frozenset(start),
        accept=frozenset(accept),
    )


@given(trimmable_automata())
@settings(max_examples=60, deadline=None)
def test_trim_idempotent_and_prefix_stable(a):
    try:
        t = trim(a)
    except EmptyLanguageError:
        return
    assert trim(t) == t
    assert classify_properties(t).trim
    # run prefixes of the trim part are prefixes of accepted words, hence
    # stable under closure
    for n in (1, 3):
        assert enumerate_prefixes(closure(t), n) == enumerate_prefixes(t, n)


@given(trimmable_automata())
@settings(max_examples=40, deadline=None)
def test_deterministic_check_matches_definition(a):
    flags = classify_properties(a)
    keys = [(q, s) for q, s, _ in a.transitions]
    by_hand = len(a.start) == 1 and len(set(keys)) == len(keys)
    assert flags.deterministic == by_hand
    if flags.trim and flags.deterministic:
        assert check_unambiguous(a).unambiguous
