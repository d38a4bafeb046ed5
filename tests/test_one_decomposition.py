"""Every per-component analysis reads the blocks of one decomposition of
``Automaton.edges``: no sub-automaton is built after parsing, the input
graph is decomposed once, and the caller's enumeration cap reaches every
subset construction."""

import json
import math
import random

import pytest

from omegafract import (
    Automaton,
    CapExceededError,
    NotStronglyConnectedError,
    check_unambiguous,
    cycle_entropies,
    density_classifier,
    dimension_report,
    hausdorff_measure,
    mw_alpha,
    parse_automaton,
    serialize_automaton,
)
from omegafract import core, dimension, measure, spectral
from omegafract.cli import main
from conftest import bundled
from helpers_random import random_multi_scc, random_strongly_connected

BUNDLED = [
    "cantor",
    "cantor_pair",
    "dyadic",
    "dyadic_unambiguous",
    "full_binary",
    "golden_mean",
]

#: Unambiguous NFA, one strongly connected component; its key state s1 is
#: not the component's first state.  The cycle entropy, rooted at s0,
#: determinizes into 5 subsets; the component entered at s1 into 7.
KEY_NOT_FIRST = {
    "base": 2,
    "arity": 1,
    "states": ["s0", "s1", "s2", "s3", "s4"],
    "start": ["s1"],
    "accept": ["s0", "s1", "s2", "s3", "s4"],
    "transitions": [
        {"from": "s0", "symbol": [1], "to": "s1"},
        {"from": "s0", "symbol": [1], "to": "s3"},
        {"from": "s1", "symbol": [0], "to": "s2"},
        {"from": "s1", "symbol": [1], "to": "s4"},
        {"from": "s2", "symbol": [1], "to": "s3"},
        {"from": "s3", "symbol": [0], "to": "s4"},
        {"from": "s4", "symbol": [0], "to": "s0"},
    ],
}


def _inputs():
    out = [(name, bundled(name)) for name in BUNDLED]
    out.append(("key-not-first", parse_automaton(json.dumps(KEY_NOT_FIRST))))
    rng = random.Random(404)
    for i in range(8):
        for deterministic in (True, False):
            a = random_multi_scc(
                rng, base=rng.choice([2, 3]), deterministic=deterministic
            )
            out.append((f"multi-{deterministic}-{i}", a))
        a = random_strongly_connected(
            rng, n_states=4, base=2, deterministic=i % 2 == 0
        )
        out.append((f"strong-{i}", a))
    return out


INPUTS = _inputs()


def _fresh(a: Automaton) -> Automaton:
    """The same automaton parsed anew, with nothing cached on it."""
    return parse_automaton(serialize_automaton(a))


def _count_constructions(monkeypatch) -> list:
    built = []
    original = Automaton.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Automaton, "__post_init__", counting)
    return built


def _count_tarjan_runs(monkeypatch) -> list:
    """Record the graph of every Tarjan run as (nodes, successors)."""
    runs = []
    original = core.tarjan_components

    def recording(nodes, successors, depth=None):
        nodes = list(nodes)
        runs.append((nodes, {u: list(successors[u]) for u in nodes}))
        return original(nodes, successors, depth)

    for module in (core, spectral):
        if hasattr(module, "tarjan_components"):
            monkeypatch.setattr(module, "tarjan_components", recording)
    return runs


def _runs_on(a: Automaton, runs) -> int:
    """How many recorded Tarjan runs had ``a``'s transition graph (states
    named or numbered) as their graph."""
    index = a.state_index
    edges = {(index[p], index[q]) for p, _, q in a.transitions}

    def number(v):
        return index.get(v, -1) if isinstance(v, str) else v

    count = 0
    for nodes, succ in runs:
        if sorted(map(number, nodes)) != list(range(len(a.states))):
            continue
        if {(number(u), number(v)) for u in nodes for v in succ[u]} == edges:
            count += 1
    return count


def _ids(value):
    return value if isinstance(value, str) else ""


def _strongly_connected(a):
    return 0 in a.sccs.blocks and not a.sccs.component_of.any()


@pytest.mark.parametrize("name, a", INPUTS, ids=_ids)
def test_per_component_analyses_build_no_automaton(monkeypatch, name, a):
    unambiguous = bool(check_unambiguous(a))
    strongly_connected = _strongly_connected(a)
    a = _fresh(a)
    built = _count_constructions(monkeypatch)
    cycle_entropies(a)
    dimension_report(a)
    if unambiguous:
        hausdorff_measure(a)
    if strongly_connected:
        mw_alpha(a)
    else:
        with pytest.raises(NotStronglyConnectedError):
            mw_alpha(a)
    assert built == []


#: Inputs the measure runs on: unambiguous, and of two or more states (on
#: one state the self-product of the ambiguity check has the input's graph
#: too).
MEASURED = [(n, a) for n, a in INPUTS if len(a.states) >= 2 and check_unambiguous(a)]


@pytest.mark.parametrize("name, a", MEASURED, ids=_ids)
def test_measure_decomposes_its_input_once(monkeypatch, name, a):
    a = _fresh(a)
    runs = _count_tarjan_runs(monkeypatch)
    hausdorff_measure(a)
    assert _runs_on(a, runs) == 1


def test_measured_inputs_include_nfas():
    nondeterministic = [a for _, a in MEASURED if not core._is_deterministic(a)]
    assert len(MEASURED) >= 10 and len(nondeterministic) >= 2


# ---------------------------------------------------------------------------
# the cap reaches every subset construction
# ---------------------------------------------------------------------------


def test_measure_cap_reaches_key_state_determinization():
    a = parse_automaton(json.dumps(KEY_NOT_FIRST))
    assert len(cycle_entropies(a, cap=5)) == 5
    for cap in (5, 6):
        with pytest.raises(CapExceededError):
            hausdorff_measure(a, cap=cap)
    report = hausdorff_measure(a, cap=7)
    assert report.total == pytest.approx(0.6059142771389351, rel=1e-12)


def test_cli_measure_cap_reaches_key_state_determinization(tmp_path, capsys):
    path = tmp_path / "key-not-first.json"
    path.write_text(json.dumps(KEY_NOT_FIRST), encoding="utf-8")
    code = main(["measure", str(path), "--cap", "5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"]["code"] == "cap-exceeded"
    assert report["config"]["enumeration_cap"] == 5
    assert main(["measure", str(path), "--cap", "7"]) == 0


# ---------------------------------------------------------------------------
# key-state candidates and Perron solves
# ---------------------------------------------------------------------------


def _key_candidates(a: Automaton) -> list[str]:
    """States that can key an accepting run: in a non-trivial component
    holding an accept state, and a start or entered by a transition from
    another component."""
    component = dict(zip(a.states, a.sccs.component_of.tolist()))
    keyed = {component[q] for q in a.accept} & a.sccs.blocks.keys()
    entered = set(a.start) | {
        q for p, _, q in a.transitions if component[p] != component[q]
    }
    return [q for q in a.states if component[q] in keyed and q in entered]


@pytest.mark.parametrize("name, a", MEASURED, ids=_ids)
def test_measure_builds_key_prefixes_of_candidates_only(monkeypatch, name, a):
    a = _fresh(a)
    calls = []
    original = measure._key_prefix_series

    def counting(e, d, starts, base, alpha):
        if e is a.edges:
            calls.append(d)
        return original(e, d, starts, base, alpha)

    monkeypatch.setattr(measure, "_key_prefix_series", counting)
    report = hausdorff_measure(a)
    assert calls == [a.sccs]
    assert set(report.per_key_state) <= set(_key_candidates(a))


def _count_perron_calls(monkeypatch) -> list:
    calls = []
    original = spectral.perron

    def counting(block, *args, **kwargs):
        calls.append(block)
        return original(block, *args, **kwargs)

    for module in (spectral, dimension, measure):
        if hasattr(module, "perron"):
            monkeypatch.setattr(module, "perron", counting)
    return calls


STRONGLY_CONNECTED = [(n, a) for n, a in INPUTS if _strongly_connected(a)]


@pytest.mark.parametrize("name, a", STRONGLY_CONNECTED, ids=_ids)
def test_mw_alpha_solves_each_prefix_block_once(monkeypatch, name, a):
    """One block root per call: the critical exponent is the clamp of its
    logarithm, the block's cycle entropy."""
    roots = []

    def recording(*args):
        roots.append(spectral._block_root(*args))
        return roots[-1]

    monkeypatch.setattr(dimension, "_block_root", recording)
    value = mw_alpha(a)
    assert len(roots) == 1
    assert value == dimension._critical_exponent(math.log(roots[0]), a)


@pytest.mark.parametrize("name, a", INPUTS, ids=_ids)
def test_cli_dim_solves_each_prefix_block_once(monkeypatch, tmp_path, capsys, name, a):
    """dim solves nothing beyond the dimension report and, on unary input,
    the density classification: each block's critical exponent is read off
    the cycle entropy of its first state."""
    path = tmp_path / "a.json"
    path.write_text(serialize_automaton(a), encoding="utf-8")
    calls = _count_perron_calls(monkeypatch)
    dimension_report(a)
    if a.arity == 1:
        density_classifier(a)
    expected = len(calls)
    assert main(["dim", str(path)]) == 0
    assert len(calls) == 2 * expected >= 2
    result = json.loads(capsys.readouterr().out)["result"]
    entropies = result["per_state_cycle_entropy_nat"]
    alphas = result["mw_alpha_per_scc"]
    assert len(alphas) == len(a.sccs.blocks)
    for key, value in alphas.items():
        first = key.split("+")[0]
        assert value == dimension._critical_exponent(entropies[first], a)
