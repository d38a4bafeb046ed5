import math
import random

import pytest

from omegafract import (
    AmbiguousError,
    Automaton,
    DigitVector,
    NonCriticalExponentWarning,
    NotStronglyConnectedError,
    OmegafractError,
    closure,
    dimension_report,
    hausdorff_measure,
    scc_measure,
)
from helpers_random import key_series, random_strongly_connected

LOG23 = math.log(2) / math.log(3)


def sym(d):
    return DigitVector((d,))


def chain_to_full_scc():
    """s --0--> q, with q a two-loop accepting component (base 2)."""
    return Automaton(
        base=2,
        arity=1,
        states=("s", "q"),
        transitions=(
            ("s", sym(0), "q"),
            ("q", sym(0), "q"),
            ("q", sym(1), "q"),
        ),
        start=frozenset({"s"}),
        accept=frozenset({"q"}),
    )


# ---------------------------------------------------------------------------
# component measure
# ---------------------------------------------------------------------------


def test_scc_measure_cantor_critical(cantor):
    assert scc_measure(cantor, LOG23) == pytest.approx(1.0, abs=1e-9)


def test_scc_measure_full_interval(full_binary):
    assert scc_measure(full_binary, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_scc_measure_off_critical_warns(cantor):
    with pytest.warns(NonCriticalExponentWarning):
        assert scc_measure(cantor, 0.9) == 0.0
    with pytest.warns(NonCriticalExponentWarning):
        assert scc_measure(cantor, 0.3) == math.inf


def test_scc_measure_negative_exponent_is_a_semantic_error(cantor):
    with pytest.raises(OmegafractError, match="exponent must be nonnegative") as exc:
        scc_measure(cantor, -1.0)
    assert exc.value.code == "semantic-error"


def test_scc_measure_requires_strong_connectivity(dyadic):
    with pytest.raises(NotStronglyConnectedError):
        scc_measure(dyadic, 0.0)


def test_scc_measure_multi_state_component():
    # golden-mean component: eigenvector entries differ across states
    a = Automaton(
        base=2,
        arity=1,
        states=("g0", "g1"),
        transitions=(
            ("g0", sym(0), "g0"),
            ("g0", sym(1), "g1"),
            ("g1", sym(0), "g0"),
        ),
        start=frozenset({"g0"}),
        accept=frozenset({"g0", "g1"}),
    )
    phi = (1 + math.sqrt(5)) / 2
    alpha = math.log(phi) / math.log(2)
    m0 = scc_measure(a, alpha)
    m1 = scc_measure(a.replace(start=["g1"]), alpha)
    # transfer rows give m0 = x(m0 + m1), m1 = x m0 at x = 2^-alpha = 1/phi
    assert m0 == pytest.approx(1.0, abs=1e-9)
    assert m1 == pytest.approx(1 / phi, abs=1e-9)


# ---------------------------------------------------------------------------
# key prefixes
# ---------------------------------------------------------------------------


def test_key_prefix_series_cantor_is_one(cantor):
    assert key_series(cantor, "c", LOG23) == 1.0


def test_key_prefix_series_chain():
    a = chain_to_full_scc()
    assert key_series(a, "q", 1.0) == pytest.approx(0.5, abs=0)


def test_key_prefix_series_divergent(dyadic_unambiguous):
    assert key_series(dyadic_unambiguous, "r", 0.0) == math.inf


def test_key_prefix_series_convergent_infinite(dyadic_unambiguous):
    # at alpha = 2 the weighted count of words ending in their last 1 is
    # sum_n 2^(n-1) 4^-n + 1 (empty prefix) = 3/2
    assert key_series(dyadic_unambiguous, "r", 2.0) == pytest.approx(
        1.5, abs=1e-12
    )


def test_key_prefix_series_partial_sums_bracket_solver():
    # certified check of the geometric-series evaluation: exact partial sums
    # plus a spectral tail bound must bracket the solver's value
    a = Automaton(
        base=2,
        arity=1,
        states=("p", "r"),
        transitions=(
            ("p", sym(0), "p"),
            ("p", sym(1), "p"),
            ("p", sym(1), "r"),
            ("r", sym(0), "r"),
        ),
        start=frozenset({"p", "r"}),
        accept=frozenset({"r"}),
    )
    alpha = 2.0
    value = key_series(a, "r", alpha)
    x = 2.0**-alpha
    rho = 2.0  # transient growth rate
    terms = [1.0] + [2 ** (n - 1) * x**n for n in range(1, 60)]
    partial = sum(terms[: 4 * 2])
    tail_start = 4 * 2
    tail = (2 ** (tail_start - 1) * x**tail_start) / (1 - rho * x)
    assert partial <= value <= partial + tail + 1e-12


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_measure_cantor_total_one(cantor):
    report = hausdorff_measure(cantor)
    assert report.alpha == pytest.approx(LOG23, abs=1e-9)
    assert report.total == pytest.approx(1.0, abs=1e-9)
    assert set(report.per_key_state) == {"c"}


def test_measure_full_interval_lebesgue(full_binary):
    report = hausdorff_measure(full_binary)
    assert report.alpha == pytest.approx(1.0, abs=1e-12)
    assert report.total == pytest.approx(1.0, abs=1e-9)


def test_measure_dyadic_counting_infinite(dyadic_unambiguous):
    report = hausdorff_measure(dyadic_unambiguous)
    assert report.alpha == 0.0
    assert report.total == math.inf
    assert report.per_key_state["r"].prefix_series == math.inf
    assert report.per_key_state["r"].scc_measure == pytest.approx(1.0)


def test_measure_rejects_ambiguous(dyadic):
    with pytest.raises(AmbiguousError):
        hausdorff_measure(dyadic)


def test_measure_chain_is_half_lebesgue():
    # the component [0,1] is reached only below the prefix 0
    report = hausdorff_measure(chain_to_full_scc())
    assert report.alpha == pytest.approx(1.0, abs=1e-12)
    assert report.total == pytest.approx(0.5, abs=1e-9)


def test_one_symbol_prefix_scaling_divides_series_exactly():
    # prefixing the single key prefix with one symbol scales its term by
    # exactly k^-alpha (identical float product path)
    a = chain_to_full_scc()
    b = Automaton(
        base=2,
        arity=1,
        states=("s0",) + a.states,
        transitions=(("s0", sym(1), "s"),) + a.transitions,
        start=frozenset({"s0"}),
        accept=a.accept,
    )
    for alpha in (1.0, 0.7, LOG23):
        s_a = key_series(a, "q", alpha)
        s_b = key_series(b, "q", alpha)
        assert s_b == s_a * (2.0**-alpha)


def test_closed_strongly_connected_total_in_unit_interval():
    rng = random.Random(51)
    for _ in range(10):
        a = random_strongly_connected(
            rng,
            n_states=rng.randint(1, 4),
            base=rng.choice([2, 3]),
            deterministic=True,
            accept_all=True,
        )
        report = hausdorff_measure(a)
        assert -1e-12 <= report.total <= 1.0 + 1e-9


def test_closure_measure_equality_strongly_connected():
    rng = random.Random(52)
    for _ in range(10):
        a = random_strongly_connected(
            rng,
            n_states=rng.randint(1, 4),
            base=rng.choice([2, 3]),
            deterministic=True,
        )
        alpha = dimension_report(a).hausdorff
        closed = closure(a)
        assert dimension_report(closed).hausdorff == pytest.approx(alpha, abs=1e-9)
        total_a = hausdorff_measure(a).total
        total_closed = hausdorff_measure(closed).total
        if math.isinf(total_a) or math.isinf(total_closed):
            assert total_a == total_closed
        else:
            assert total_a == pytest.approx(total_closed, abs=1e-9)


def test_finite_components_sum_consistency():
    rng = random.Random(53)
    from helpers_random import random_deterministic_trim

    checked = 0
    for _ in range(20):
        a = random_deterministic_trim(rng, n_states=4, base=rng.choice([2, 3]))
        report = hausdorff_measure(a)
        parts = [cm.component_measure for cm in report.per_key_state.values()]
        if any(math.isinf(p) for p in parts):
            assert report.total == math.inf
        else:
            assert report.total == pytest.approx(sum(parts), abs=1e-9)
            checked += 1
    assert checked > 0


def test_disjoint_subalphabet_union_additivity():
    # base 4: one component on digits {0,3}, one on {1,2}; equal critical
    # exponent log2/log4, measures 1 each, union totals 2
    def two_digit_loop(name, digits):
        return Automaton(
            base=4,
            arity=1,
            states=(name,),
            transitions=tuple((name, sym(d), name) for d in digits),
            start=frozenset({name}),
            accept=frozenset({name}),
        )

    from helpers_random import disjoint_union

    a = two_digit_loop("u", (0, 3))
    b = two_digit_loop("v", (1, 2))
    ta = hausdorff_measure(a).total
    tb = hausdorff_measure(b).total
    union = disjoint_union(a, b)
    report = hausdorff_measure(union)
    assert report.alpha == pytest.approx(0.5, abs=1e-12)
    assert report.total == pytest.approx(ta + tb, abs=1e-9)
    assert report.total == pytest.approx(2.0, abs=1e-9)


def test_component_whose_determinization_splits():
    # unambiguous but nondeterministic: reading 1 at s1 forks, yet the next
    # symbol forces the branch retroactively.  The prefix determinization
    # of the (single) component gains a transient subset state, so the
    # component measure is re-assembled from the split automaton's own
    # key-state decomposition: series 1/phi times eigenvector entry 1/phi.
    a = Automaton(
        base=2,
        arity=1,
        states=("s0", "s1"),
        transitions=(
            ("s0", sym(0), "s1"),
            ("s1", sym(1), "s0"),
            ("s1", sym(1), "s1"),
        ),
        start=frozenset({"s0"}),
        accept=frozenset({"s0", "s1"}),
    )
    from omegafract import check_unambiguous, classify_properties

    assert check_unambiguous(a).unambiguous
    assert not classify_properties(a).deterministic
    phi = (1 + math.sqrt(5)) / 2
    report = hausdorff_measure(a)
    assert report.alpha == pytest.approx(math.log(phi) / math.log(2), abs=1e-9)
    assert report.total == pytest.approx(1 / phi**2, abs=1e-9)


def test_critical_block_with_outflow_has_infinite_closed_measure():
    from omegafract.core import EdgeList, _condensation
    from omegafract.measure import _closed_measures

    cases = [
        # u -> v, each one node with two self-loops: at base 2 and alpha 1
        # both have radius 1, so v's measure is its Perron vector and u's
        # series of paths out to v diverges
        ([0, 0, 0, 1, 1], [0, 1, 1, 0, 1], [0, 0, 1, 1, 1], [math.inf, 1.0]),
        # u -> v -> w, u with one self-loop, v and w with two: v is critical
        # with outflow, so u's sub-critical block solves against an infinite
        # right-hand side
        (
            [0, 0, 1, 1, 1, 2, 2],
            [0, 1, 0, 1, 1, 0, 1],
            [0, 1, 1, 1, 2, 2, 2],
            [math.inf, math.inf, 1.0],
        ),
    ]
    for src, sym, dst, expected in cases:
        e = EdgeList.from_lists(len(expected), src, sym, dst)
        measures, radius = _closed_measures(2, e, _condensation(e), 1.0)
        assert measures.tolist() == expected
        assert radius == pytest.approx(1.0, abs=1e-12)


def test_counting_measure_of_single_point():
    # dimension 0 means counting measure; one recognized point, measure 1
    a = Automaton(
        base=2,
        arity=1,
        states=("s",),
        transitions=(("s", sym(0), "s"),),
        start=frozenset({"s"}),
        accept=frozenset({"s"}),
    )
    report = hausdorff_measure(a)
    assert report.alpha == 0.0
    assert report.total == pytest.approx(1.0, abs=1e-12)


def test_counting_measure_of_two_points():
    # recognizes exactly {0, 1/2}: counting measure 2 at dimension 0
    a = Automaton(
        base=2,
        arity=1,
        states=("s", "p", "q"),
        transitions=(
            ("s", sym(0), "p"),
            ("s", sym(1), "q"),
            ("p", sym(0), "p"),
            ("q", sym(0), "q"),
        ),
        start=frozenset({"s"}),
        accept=frozenset({"p", "q"}),
    )
    report = hausdorff_measure(a)
    assert report.alpha == 0.0
    assert report.total == pytest.approx(2.0, abs=1e-12)
    assert set(report.per_key_state) == {"p", "q"}


def test_states_never_entered_first_are_not_key_states():
    # the two-state component is only ever entered at q, so r contributes
    # no component of its own
    a = Automaton(
        base=2,
        arity=1,
        states=("s", "q", "r"),
        transitions=(
            ("s", sym(0), "q"),
            ("q", sym(1), "r"),
            ("r", sym(0), "q"),
        ),
        start=frozenset({"s"}),
        accept=frozenset({"q"}),
    )
    report = hausdorff_measure(a)
    assert set(report.per_key_state) == {"q"}
    assert key_series(a, "r", report.alpha) is None


def test_report_alpha_matches_dimension():
    rng = random.Random(54)
    from helpers_random import random_deterministic_trim

    for _ in range(8):
        a = random_deterministic_trim(rng, n_states=4)
        report = hausdorff_measure(a)
        assert report.alpha == pytest.approx(dimension_report(a).hausdorff, abs=1e-9)
        dims = [cm.scc_dimension for cm in report.per_key_state.values()]
        assert max(dims) == pytest.approx(report.alpha, abs=1e-9)


# ---------------------------------------------------------------------------
# eigenvector iteration budget
# ---------------------------------------------------------------------------


def test_perron_vector_budget_exhausted_raises(monkeypatch, golden_mean):
    from omegafract import NotConvergedError
    from omegafract import spectral

    alpha = dimension_report(golden_mean).hausdorff
    monkeypatch.setattr(spectral, "_MAX_PERRON_STEPS", 3)
    with pytest.raises(NotConvergedError) as info:
        scc_measure(golden_mean, alpha)
    assert info.value.code == "not-converged"
    with pytest.raises(NotConvergedError):
        hausdorff_measure(golden_mean)
    monkeypatch.undo()
    assert scc_measure(golden_mean, alpha) > 0
