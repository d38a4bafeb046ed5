import json
import math
import random
from fractions import Fraction

import pytest

from omegafract import (
    ArityError,
    Automaton,
    DigitVector,
    EmptyLanguageError,
    NotStronglyConnectedError,
    NotTrimError,
    closure,
    density_classifier,
    dimension_report,
    entropy,
    estimate_box_dimension,
    mw_alpha,
    serialize_automaton,
    trim,
)
from omegafract.cli import main
from helpers_random import (
    forbidden_factor_automaton,
    random_multi_scc,
    random_strongly_connected,
    random_trim_automaton,
    reference_multigraph_to_digraph,
    reference_mw_alpha,
)

LOG23 = math.log(2) / math.log(3)


# ---------------------------------------------------------------------------
# headline values
# ---------------------------------------------------------------------------


def test_dyadic_dimensions(dyadic):
    r = dimension_report(dyadic)
    assert r.hausdorff == 0.0
    assert r.box == pytest.approx(1.0, abs=1e-9)
    assert (r.gap, r.box_witness if r.gap else None) == (True, "q0")


def test_cantor_dimensions(cantor):
    r = dimension_report(cantor)
    assert r.hausdorff == pytest.approx(LOG23, abs=1e-9)
    assert r.box == pytest.approx(LOG23, abs=1e-9)
    assert entropy(cantor) / math.log(3) == pytest.approx(LOG23, abs=1e-9)
    assert (r.gap, r.box_witness if r.gap else None) == (False, None)


def test_full_binary_dimensions(full_binary):
    r = dimension_report(full_binary)
    assert r.hausdorff == pytest.approx(1.0, abs=1e-12)
    assert r.box == pytest.approx(1.0, abs=1e-12)
    assert entropy(full_binary) / math.log(2) == pytest.approx(1.0, abs=1e-12)
    assert (r.gap, r.box_witness if r.gap else None) == (False, None)


def test_closure_of_dyadic_has_dimension_one(dyadic):
    assert entropy(closure(dyadic)) / math.log(2) == pytest.approx(1.0, abs=1e-12)


def test_golden_mean_dimensions(golden_mean):
    phi = (1 + math.sqrt(5)) / 2
    expected = math.log(phi) / math.log(2)
    r = dimension_report(golden_mean)
    assert r.hausdorff == pytest.approx(expected, abs=1e-9)
    assert r.box == pytest.approx(expected, abs=1e-9)


def test_cantor_pair_dimensions(cantor_pair):
    expected = math.log(4) / math.log(3)  # two-dimensional Cantor dust
    r = dimension_report(cantor_pair)
    assert r.hausdorff == pytest.approx(expected, abs=1e-9)
    assert r.box == pytest.approx(expected, abs=1e-9)


def test_dimension_requires_trim(dyadic):
    from omegafract import DigitVector

    padded = dyadic.replace(
        states=dyadic.states + ("dead",),
        transitions=dyadic.transitions + (("dead", DigitVector((1,)), "dead"),),
    )
    with pytest.raises(NotTrimError):
        dimension_report(padded)


def test_dimension_report_fields(dyadic):
    report = dimension_report(dyadic)
    assert report.hausdorff == 0.0 and report.box == pytest.approx(1.0)
    assert report.gap
    assert report.hausdorff_witness == "q1"
    assert report.box_witness == "q0"
    assert report.per_state == {
        "q0": pytest.approx(math.log(2)),
        "q1": 0.0,
    }


# ---------------------------------------------------------------------------
# laws on random automata
# ---------------------------------------------------------------------------


def test_hausdorff_below_box_random():
    rng = random.Random(41)
    for _ in range(15):
        a = random_trim_automaton(rng, n_states=5, base=rng.choice([2, 3]))
        report = dimension_report(a)
        assert report.hausdorff <= report.box + 1e-9
        assert -1e-9 <= report.hausdorff and report.box <= a.arity + 1e-9
        assert report.gap == (report.box - report.hausdorff > 1e-9)


def test_box_equals_hausdorff_of_closure_random():
    rng = random.Random(42)
    for _ in range(12):
        a = random_trim_automaton(rng, n_states=5, base=rng.choice([2, 3]))
        assert dimension_report(a).box == pytest.approx(
            dimension_report(closure(a)).hausdorff, abs=1e-9
        )


def test_closed_case_equalities_random():
    rng = random.Random(43)
    for _ in range(12):
        a = closure(random_trim_automaton(rng, n_states=5, base=rng.choice([2, 3])))
        c, r = entropy(a) / math.log(a.base), dimension_report(a)
        assert abs(c - r.hausdorff) <= 1e-9
        assert abs(c - r.box) <= 1e-9


def test_single_loop_state_automata_have_no_gap():
    # one state that is both start and accept: the cycle-automaton shape
    rng = random.Random(44)
    for _ in range(10):
        a = random_trim_automaton(rng, n_states=4, base=2)
        for q in a.states:
            try:
                r = dimension_report(trim(a.replace(start=[q], accept=[q])))
            except EmptyLanguageError:
                continue
            assert abs(r.hausdorff - r.box) <= 1e-9


def test_start_state_independence_strongly_connected():
    rng = random.Random(45)
    for _ in range(8):
        a = random_strongly_connected(rng, n_states=4, base=rng.choice([2, 3]))
        dims = {
            q: dimension_report(a.replace(start=[q])).hausdorff
            for q in a.states
        }
        values = list(dims.values())
        assert max(values) - min(values) <= 1e-9


def test_gap_with_cantor_like_accept_component():
    # dense transient part over all three digits, accepting tail restricted
    # to {0,2}: hausdorff is the tail's dimension, box is 1
    def s(d):
        return DigitVector((d,))

    a = trim(
        Automaton(
            base=3,
            arity=1,
            states=("q0", "q1"),
            transitions=(
                ("q0", s(0), "q0"),
                ("q0", s(1), "q0"),
                ("q0", s(2), "q0"),
                ("q0", s(0), "q1"),
                ("q1", s(0), "q1"),
                ("q1", s(2), "q1"),
            ),
            start=frozenset({"q0"}),
            accept=frozenset({"q1"}),
        )
    )
    r = dimension_report(a)
    assert r.hausdorff == pytest.approx(LOG23, abs=1e-9)
    assert r.box == pytest.approx(1.0, abs=1e-9)
    assert (r.gap, r.box_witness if r.gap else None) == (True, "q0")
    assert estimate_box_dimension(a, 4, 10) == pytest.approx(1.0, abs=0.01)


def test_tied_cycle_entropies_mean_no_gap():
    # the non-accept state's cycle entropy equals the accept state's, so
    # the dimensions agree even though the accept set is proper
    def s(d):
        return DigitVector((d,))

    a = Automaton(
        base=3,
        arity=1,
        states=("q0", "q1"),
        transitions=(
            ("q0", s(0), "q0"),
            ("q0", s(1), "q0"),
            ("q0", s(0), "q1"),
            ("q1", s(0), "q1"),
            ("q1", s(2), "q1"),
        ),
        start=frozenset({"q0"}),
        accept=frozenset({"q1"}),
    )
    r = dimension_report(a)
    assert r.hausdorff == pytest.approx(LOG23, abs=1e-9)
    assert r.box == pytest.approx(LOG23, abs=1e-9)
    assert (r.gap, r.box_witness if r.gap else None) == (False, None)


# ---------------------------------------------------------------------------
# Mauldin-Williams cross-check
# ---------------------------------------------------------------------------


def test_mw_alpha_cantor(cantor):
    # the transfer matrix pins 2 * (1/3)^alpha = 1
    assert mw_alpha(cantor) == pytest.approx(LOG23, abs=1e-9)


def test_mw_alpha_full(full_binary):
    assert mw_alpha(full_binary) == pytest.approx(1.0, abs=1e-12)


def test_mw_alpha_single_symbol_loop():
    from omegafract import Automaton, DigitVector

    a = Automaton(
        base=2,
        arity=1,
        states=("s",),
        transitions=(("s", DigitVector((0,)), "s"),),
        start=frozenset({"s"}),
        accept=frozenset({"s"}),
    )
    assert mw_alpha(a) == 0.0


def test_mw_alpha_full_arity_three_is_exact():
    # log(125) / log(5) rounds to 3.0000000000000004 and log(1000) / log(10)
    # to 2.9999999999999996; the endpoint is exact
    for base in (5, 10):
        symbols = [
            DigitVector((i, j, k))
            for i in range(base)
            for j in range(base)
            for k in range(base)
        ]
        a = Automaton(
            base=base,
            arity=3,
            states=("s",),
            transitions=tuple(("s", sym, "s") for sym in symbols),
            start=frozenset({"s"}),
            accept=frozenset({"s"}),
        )
        assert mw_alpha(a) == 3.0


def test_mw_alpha_matches_bisection_oracle(tmp_path, capsys):
    # the closed form against the unit-radius bisection, within two of its
    # 2^-40 cells: mw_alpha of strongly connected automata, and each block
    # exponent CLI dim reports for multi-block NFAs against the bisection
    # on the cycle automaton of the block's first state
    rng = random.Random(48)
    for i in range(200):
        a = random_strongly_connected(
            rng,
            n_states=rng.randint(1, 6),
            base=rng.choice([2, 3]),
            extra=rng.randint(0, 8),
            deterministic=i % 2 == 0,
        )
        assert abs(mw_alpha(a) - reference_mw_alpha(a)) <= 2.0**-39
    path = tmp_path / "a.json"
    for _ in range(30):
        a = random_multi_scc(
            rng, n_blocks=rng.randint(2, 4), base=rng.choice([2, 3]), deterministic=False
        )
        path.write_text(serialize_automaton(a), encoding="utf-8")
        assert main(["dim", str(path)]) == 0
        alphas = json.loads(capsys.readouterr().out)["result"]["mw_alpha_per_scc"]
        assert len(alphas) >= 2
        for key, value in alphas.items():
            q = key.split("+")[0]
            ref = reference_mw_alpha(trim(a.replace(start=[q], accept=[q])))
            assert abs(value - ref) <= 2.0**-39


def test_mw_alpha_requires_strong_connectivity(dyadic):
    with pytest.raises(NotStronglyConnectedError):
        mw_alpha(dyadic)


def test_mw_alpha_matches_entropy_random():
    rng = random.Random(46)
    for _ in range(12):
        a = random_strongly_connected(
            rng,
            n_states=rng.randint(1, 5),
            base=rng.choice([2, 3]),
            deterministic=rng.random() < 0.5,
        )
        assert mw_alpha(a) == pytest.approx(
            entropy(a.replace(accept=a.states)) / math.log(a.base), abs=1e-9
        )


def test_mw_alpha_agrees_with_digraph_route():
    rng = random.Random(47)
    for _ in range(8):
        a = random_strongly_connected(
            rng, n_states=3, base=rng.choice([2, 3]), deterministic=True
        )
        dg = reference_multigraph_to_digraph(a.replace(accept=a.states))
        # the start tag state may be transient; reroot onto the recurrent
        # component, which corresponds to the input's single component
        blocks = list(dg.sccs.blocks.values())
        assert len(blocks) == 1
        sub = trim(dg.replace(start=[dg.states[blocks[0].nodes[0]]]))
        assert mw_alpha(sub) == pytest.approx(mw_alpha(a), abs=1e-9)


# ---------------------------------------------------------------------------
# prefix omission bounds
# ---------------------------------------------------------------------------

FORBIDDEN_CASES = [
    (2, [1, 1]),
    (2, [0, 1]),
    (2, [0, 0]),
    (2, [1, 0, 1]),
    (2, [1, 1, 0]),
    (3, [2, 2]),
    (3, [0, 1]),
    (3, [1, 2, 0]),
    (3, [2, 0, 2]),
    (3, [0, 0, 1]),
]


@pytest.mark.parametrize("base,pattern", FORBIDDEN_CASES)
def test_prefix_omission_bound(base, pattern):
    # m-state single-loop-state automaton omitting a length-n prefix:
    # box dimension is at most log(k^(m+n) - 1) / ((m+n) log k) < 1
    a = trim(forbidden_factor_automaton(base, pattern))
    m = n = len(pattern)
    bound = math.log(base ** (m + n) - 1) / ((m + n) * math.log(base))
    assert dimension_report(a).box <= bound + 1e-9
    assert bound < 1


@pytest.mark.parametrize("base,pattern", FORBIDDEN_CASES[:4])
def test_prefix_omission_strict_gap_below_one(base, pattern):
    a = trim(forbidden_factor_automaton(base, pattern))
    assert dimension_report(a).box < 1 - 1e-9


# ---------------------------------------------------------------------------
# density classification
# ---------------------------------------------------------------------------


def test_density_dyadic(dyadic):
    report = density_classifier(dyadic)
    assert report.somewhere_dense and not report.nowhere_dense
    assert report.dense_codense_on_interval == (Fraction(0), Fraction(1))
    assert report.witness_state == "q0"


def test_density_cantor(cantor):
    report = density_classifier(cantor)
    assert report.nowhere_dense and not report.somewhere_dense
    assert report.dense_codense_on_interval is None


def test_density_full(full_binary):
    report = density_classifier(full_binary)
    assert report.somewhere_dense
    assert report.dense_codense_on_interval is None


def test_density_full_set_with_extra_state():
    # recognizes all of [0,1] despite a non-accepting detour state: dense,
    # and the dimension certificate correctly refuses to call it codense
    from omegafract import Automaton, DigitVector

    a = Automaton(
        base=2,
        arity=1,
        states=("q0", "q1"),
        transitions=(
            ("q0", DigitVector((0,)), "q0"),
            ("q0", DigitVector((1,)), "q0"),
            ("q0", DigitVector((0,)), "q1"),
            ("q1", DigitVector((0,)), "q0"),
        ),
        start=frozenset({"q0"}),
        accept=frozenset({"q0"}),
    )
    report = density_classifier(a)
    assert report.somewhere_dense
    assert report.dense_codense_on_interval is None


def test_density_deep_witness_interval():
    # dense only below the prefix 1: the witness interval is [1/2, 1]
    from omegafract import Automaton, DigitVector

    a = Automaton(
        base=2,
        arity=1,
        states=("root", "f", "tail"),
        transitions=(
            ("root", DigitVector((1,)), "f"),
            ("f", DigitVector((0,)), "f"),
            ("f", DigitVector((1,)), "f"),
            ("f", DigitVector((0,)), "tail"),
            ("tail", DigitVector((0,)), "tail"),
        ),
        start=frozenset({"root"}),
        accept=frozenset({"tail"}),
    )
    report = density_classifier(a)
    assert report.somewhere_dense
    assert report.dense_codense_on_interval == (Fraction(1, 2), Fraction(1, 1))


def test_density_requires_unary(cantor_pair):
    with pytest.raises(ArityError):
        density_classifier(cantor_pair)
