import math
import random

import pytest

import omegafract
from omegafract import (
    Automaton,
    NotTrimError,
    OmegafractError,
    entropy,
    entropy_estimate,
    prefix_count,
    spectral,
)
from helpers_random import (
    dense_root,
    disjoint_union,
    random_trim_automaton,
    reference_prefix_growth,
)

PHI = (1 + math.sqrt(5)) / 2


def test_dense_layer_and_name_keyed_adjacency_stay_removed():
    # every analysis runs on ``Automaton.edges``; neither the dense matrix
    # constructors nor the name-keyed successor dicts come back
    removed = [
        "CountMatrix",
        "counting_matrix",
        "transfer_matrix",
        "spectral_radius",
        "_delta",
        "out_edges",
        "delta",
        "step_set",
        "transition_counts",
    ]
    for owner in (omegafract, spectral, Automaton):
        assert [name for name in removed if hasattr(owner, name)] == []
    for name in omegafract.__all__:
        getattr(omegafract, name)


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------


def test_spectral_radius_scalar():
    assert dense_root([[2]]) == 2.0


def test_spectral_radius_golden_ratio():
    # root of x^2 - x - 1, frozen from the characteristic polynomial
    rho = dense_root([[1, 1], [1, 0]])
    assert rho == pytest.approx(PHI, rel=1e-12)


def test_spectral_radius_nilpotent_exact_zero():
    assert dense_root([[0, 1], [0, 0]]) == 0.0
    assert dense_root([[0, 1, 1], [0, 0, 1], [0, 0, 0]]) == 0.0


def test_spectral_radius_imprimitive_cycle():
    # period-2 matrices defeat naive power iteration; the shift does not
    assert dense_root([[0, 1], [1, 0]]) == pytest.approx(1.0, rel=1e-12)
    assert dense_root([[0, 2], [3, 0]]) == pytest.approx(math.sqrt(6), rel=1e-12)


def test_spectral_radius_reducible_blocks():
    rho = dense_root([[2, 5], [0, 3]])
    assert rho == pytest.approx(3.0, rel=1e-12)
    # two identical blocks: the Perron root has multiplicity two across blocks
    rho = dense_root([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]])
    assert rho == pytest.approx(PHI, rel=1e-12)


def test_spectral_radius_long_imprimitive_ring():
    n = 12
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 2
    assert dense_root(rows) == pytest.approx(2.0, rel=1e-10)


# ---------------------------------------------------------------------------
# growth sequences
# ---------------------------------------------------------------------------


def test_prefix_growth_dyadic_counts_runs(dyadic):
    # the dyadic automaton is nondeterministic (q0 has two 0-successors),
    # so the recurrence counts runs: 2^(n+1) - 1, not the 2^n strings
    assert list(reference_prefix_growth(dyadic, 4)) == [1, 3, 7, 15, 31]
    assert [prefix_count(dyadic, n) for n in range(5)] == [1, 2, 4, 8, 16]


def test_prefix_growth_matches_enumeration_deterministic():
    rng = random.Random(21)
    from helpers_random import random_deterministic_trim

    for _ in range(6):
        a = random_deterministic_trim(rng, n_states=4, base=rng.choice([2, 3]))
        growth = reference_prefix_growth(a, 12)
        for n in range(13):
            assert growth[n] == prefix_count(a, n)


def test_prefix_growth_monotone_on_trim():
    rng = random.Random(22)
    for _ in range(10):
        a = random_trim_automaton(rng, n_states=4)
        values = list(reference_prefix_growth(a, 8))
        assert all(x <= y for x, y in zip(values, values[1:]))
        alphabet = a.base**a.arity
        # string counts respect the alphabet bound; run counts can exceed it
        counts = [prefix_count(a, n) for n in range(9)]
        assert all(y <= alphabet * x for x, y in zip(counts, counts[1:]))


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_cantor(cantor):
    assert entropy(cantor) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_full(full_binary):
    assert entropy(full_binary) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_dyadic_counts_strings_not_runs(dyadic):
    # the run-count growth rate is also 2 here, but the value must come from
    # the determinized prefix automaton
    assert entropy(dyadic) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_golden_mean(golden_mean):
    assert entropy(golden_mean) == pytest.approx(math.log(PHI), abs=1e-12)


def test_entropy_requires_trim(dyadic):
    from omegafract import DigitVector

    padded = dyadic.replace(
        states=dyadic.states + ("dead",),
        transitions=dyadic.transitions + (("dead", DigitVector((1,)), "dead"),),
    )
    with pytest.raises(NotTrimError):
        entropy(padded)


def test_entropy_equals_closure_entropy():
    rng = random.Random(31)
    from omegafract import closure

    for _ in range(8):
        a = random_trim_automaton(rng, n_states=4, base=rng.choice([2, 3]))
        assert entropy(closure(a)) == pytest.approx(entropy(a), abs=1e-9)


def test_entropy_bounds():
    rng = random.Random(32)
    for _ in range(10):
        a = random_trim_automaton(rng, n_states=5, base=rng.choice([2, 3]))
        h = entropy(a)
        assert -1e-12 <= h <= a.arity * math.log(a.base) + 1e-12


def test_entropy_monotone_under_added_transitions():
    rng = random.Random(33)
    from omegafract import Automaton, DigitVector

    for _ in range(8):
        a = random_trim_automaton(rng, n_states=4)
        existing = set(a.transitions)
        candidates = [
            (p, DigitVector((d,)), q)
            for p in a.states
            for d in range(a.base)
            for q in a.states
            if (p, DigitVector((d,)), q) not in existing
        ]
        if not candidates:
            continue
        bigger = a.replace(transitions=a.transitions + (rng.choice(candidates),))
        assert entropy(bigger) >= entropy(a) - 1e-9


def test_entropy_union_is_max():
    rng = random.Random(34)
    for _ in range(6):
        a = random_trim_automaton(rng, n_states=3, base=2)
        b = random_trim_automaton(rng, n_states=3, base=2)
        u = disjoint_union(a, b)
        assert entropy(u) == pytest.approx(max(entropy(a), entropy(b)), abs=1e-9)


# ---------------------------------------------------------------------------
# enumeration estimate and substring automaton
# ---------------------------------------------------------------------------


def test_entropy_estimate_exact_for_cantor(cantor):
    assert entropy_estimate(cantor, 10) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_estimate_full(full_binary):
    assert entropy_estimate(full_binary, 8) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_estimate_dyadic(dyadic):
    assert entropy_estimate(dyadic, 12) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_estimate_one_over_n_convergence(golden_mean, cantor, dyadic):
    # fit the constant at n = 8 (with oscillation headroom) and check the
    # remaining depths stay under C/n; base 3 needs the cap lifted at n = 14
    cap = 3**14
    for a in (golden_mean, cantor, dyadic):
        h = entropy(a)
        c = 1.05 * 8 * abs(entropy_estimate(a, 8, cap=cap) - h) + 1e-9
        for n in range(9, 15):
            assert abs(entropy_estimate(a, n, cap=cap) - h) <= c / n


def test_entropy_estimate_depth_below_one_is_a_semantic_error(cantor):
    with pytest.raises(OmegafractError, match="estimate needs depth >= 1") as exc:
        entropy_estimate(cantor, 0)
    assert exc.value.code == "semantic-error"


def test_substring_automaton_entropy_equality(cantor, dyadic, golden_mean):
    for a in (cantor, dyadic, golden_mean):
        sub = a.replace(start=a.states, accept=a.states)
        assert set(sub.start) == set(sub.states) == set(sub.accept)
        assert entropy(sub) == pytest.approx(entropy(a), abs=1e-9)


def test_substring_entropy_equality_random():
    rng = random.Random(35)
    for _ in range(8):
        a = random_trim_automaton(rng, n_states=4, base=rng.choice([2, 3]))
        assert entropy(a.replace(start=a.states, accept=a.states)) == pytest.approx(
            entropy(a), abs=1e-9
        )


def test_single_symbol_loop_entropy_zero():
    from omegafract import Automaton, DigitVector

    a = Automaton(
        base=2,
        arity=1,
        states=("s",),
        transitions=(("s", DigitVector((0,)), "s"),),
        start=frozenset({"s"}),
        accept=frozenset({"s"}),
    )
    assert entropy(a) == 0.0
    assert entropy(a.replace(start=a.states, accept=a.states)) == 0.0
