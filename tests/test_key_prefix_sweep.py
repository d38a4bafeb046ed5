"""The key-prefix series of every state from one sweep over the
condensation agree with one transient graph and one dense solve per key
state, on the bundled and on random unambiguous automata."""

import math
import random
import time

import pytest

from omegafract import measure
from omegafract import (
    UnreachableStateError,
    check_unambiguous,
    hausdorff_measure,
    key_prefix_series,
)
from conftest import bundled
from helpers_random import (
    comb,
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
    return out


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


def test_inputs_cover_every_generator():
    kinds = [name.rsplit("-", 1)[1] for name, _ in INPUTS if name.startswith("random")]
    assert len(kinds) >= 200
    assert all(kinds.count(k) >= 20 for k in "0123")


def _series_or_error(series, a, q, alpha):
    try:
        return series(a, q, alpha)
    except UnreachableStateError:
        return None


@pytest.mark.parametrize("alpha_of", ["alpha", "half_plus", "fixed"])
def test_key_prefix_series_matches_reference(alpha_of):
    keys = infinite = 0
    for name, a in INPUTS + [("comb", comb(200))]:
        alpha = hausdorff_measure(a).alpha
        alpha = {"alpha": alpha, "half_plus": alpha / 2 + 0.3, "fixed": 1.7}[alpha_of]
        for q in filter(lambda q: _accepting_block(a, q), a.states):
            value = _series_or_error(key_prefix_series, a, q, alpha)
            expected = _series_or_error(reference_key_prefix_series, a, q, alpha)
            # both raise exactly on the states no key prefix reaches
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
