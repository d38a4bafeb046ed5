import math
import random
from fractions import Fraction

import pytest

from omegafract import (
    ArityError,
    Automaton,
    DigitVector,
    ValidationError,
    box_cover,
    dimension_report,
    enumerate_prefixes,
    estimate_box_dimension,
    nu_k,
    prefix_count,
    render,
)
from helpers_random import (
    random_deterministic_trim,
    random_trim_automaton,
    reference_prefix_growth,
)


def sym(*digits):
    return DigitVector(tuple(digits))


def word(*digits):
    return tuple(sym(d) for d in digits)


# ---------------------------------------------------------------------------
# valuation
# ---------------------------------------------------------------------------


def test_nu_k_first_digit_one():
    box = nu_k(word(1), base=2)
    assert box.intervals == ((Fraction(1, 2), Fraction(1)),)


def test_nu_k_base3():
    box = nu_k(word(0, 2), base=3)
    assert box.intervals == ((Fraction(2, 9), Fraction(3, 9)),)


def test_nu_k_pair():
    box = nu_k([sym(1, 0)], base=2)
    assert box.intervals == (
        (Fraction(1, 2), Fraction(1)),
        (Fraction(0), Fraction(1, 2)),
    )


def test_nu_k_empty_word_needs_arity():
    assert nu_k([], base=2, arity=1).intervals == ((Fraction(0), Fraction(1)),)
    with pytest.raises(ValidationError):
        nu_k([], base=2)


def test_nu_k_digit_range():
    with pytest.raises(ValidationError):
        nu_k(word(2), base=2)


# ---------------------------------------------------------------------------
# covers and counts
# ---------------------------------------------------------------------------


def test_box_cover_cantor_depth2(cantor):
    cover = box_cover(cantor, 2)
    assert {box.corner for box in cover} == {(0,), (2,), (6,), (8,)}


def test_box_cover_full_depth1(full_binary):
    assert len(box_cover(full_binary, 1)) == 2


def test_box_cover_dyadic_depth3(dyadic):
    assert len(box_cover(dyadic, 3)) == 8


def test_box_count_oracle_values(cantor, full_binary):
    assert prefix_count(cantor, 3) == 8
    assert prefix_count(full_binary, 4) == 16


def test_box_count_single_point():
    a = Automaton(
        base=2,
        arity=1,
        states=("s",),
        transitions=(("s", sym(0), "s"),),
        start=frozenset({"s"}),
        accept=frozenset({"s"}),
    )
    assert prefix_count(a, 5) == 1


def test_cover_matches_enumeration(cantor):
    cover = box_cover(cantor, 4)
    words = enumerate_prefixes(cantor, 4)
    assert cover == frozenset(nu_k(w, cantor.base) for w in words)


def test_cover_contains_random_walk_prefixes(golden_mean):
    rng = random.Random(61)
    cover = box_cover(golden_mean, 6)
    for _ in range(25):
        state = next(iter(golden_mean.start))
        w = []
        for _ in range(6):
            symb, dst = rng.choice(
                [(c, d) for s, c, d in golden_mean.transitions if s == state]
            )
            w.append(symb)
            state = dst
        assert nu_k(w, golden_mean.base) in cover


def test_cover_nesting(cantor, golden_mean):
    for a in (cantor, golden_mean):
        parents = box_cover(a, 3)
        for child in box_cover(a, 4):
            parent_corner = tuple(z // a.base for z in child.corner)
            matches = [b for b in parents if b.corner == parent_corner]
            assert len(matches) == 1


def test_count_consistency_with_growth():
    rng = random.Random(62)
    for _ in range(6):
        a = random_deterministic_trim(rng, n_states=4, base=rng.choice([2, 3]))
        growth = reference_prefix_growth(a, 8)
        for n in range(9):
            assert prefix_count(a, n) == growth[n]


# ---------------------------------------------------------------------------
# dimension estimation
# ---------------------------------------------------------------------------


def test_estimate_cantor(cantor):
    expected = math.log(2) / math.log(3)
    assert estimate_box_dimension(cantor, 4, 10) == pytest.approx(expected, abs=0.01)


def test_estimate_full_exact(full_binary):
    assert estimate_box_dimension(full_binary, 2, 8) == pytest.approx(1.0, abs=1e-9)


def test_estimate_dyadic(dyadic):
    assert estimate_box_dimension(dyadic, 4, 12) == pytest.approx(1.0, abs=0.01)


def test_estimate_cantor_pair(cantor_pair):
    expected = math.log(4) / math.log(3)  # 4^n boxes of side 3^-n
    assert estimate_box_dimension(cantor_pair, 2, 6, cap=9**6) == pytest.approx(
        expected, abs=0.01
    )


def test_estimate_close_to_analytic_random():
    # zero-dimension draws are redrawn: their box counts grow polynomially,
    # so the finite-depth slope is biased by O(log n / n), below the
    # resolution any depth-12 window can certify
    rng = random.Random(63)
    drawn = 0
    while drawn < 5:
        a = random_trim_automaton(rng, n_states=4, base=2)
        dim = dimension_report(a).box
        if dim < 0.2:
            continue
        drawn += 1
        est = estimate_box_dimension(a, 4, 12)
        assert abs(est - dim) <= 0.05


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_render_interval_list_cantor(cantor):
    assert render(cantor, 2, "interval") == (
        "0/1 1/9\n2/9 1/3\n2/3 7/9\n8/9 1/1\n"
    )


def test_render_full_merges_to_unit_interval(full_binary):
    assert render(full_binary, 1, "interval") == "0/1 1/1\n"


def test_render_bitmap_cantor_pair(cantor_pair):
    assert render(cantor_pair, 1, "pbm") == "P1\n3 3\n101\n000\n101\n"


def test_render_bitmap_unary(cantor):
    assert render(cantor, 1, "pbm") == "P1\n3 1\n101\n"


def test_render_arity_errors(cantor_pair):
    with pytest.raises(ArityError):
        render(cantor_pair, 1, "interval")
    triple = Automaton(
        base=2,
        arity=3,
        states=("s",),
        transitions=(("s", sym(0, 0, 0), "s"),),
        start=frozenset({"s"}),
        accept=frozenset({"s"}),
    )
    with pytest.raises(ArityError):
        render(triple, 1, "pbm")


def test_render_unknown_format(cantor):
    with pytest.raises(ValidationError):
        render(cantor, 1, "svg")


@pytest.mark.parametrize("fmt", ["interval-list", "bitmap"])
def test_render_takes_one_name_per_format(cantor, fmt):
    with pytest.raises(ValidationError):
        render(cantor, 1, fmt)


def test_render_deterministic(cantor):
    assert render(cantor, 3, "interval") == render(cantor, 3, "interval")


def test_merged_lengths_sum_exactly(cantor, dyadic, golden_mean):
    for a in (cantor, dyadic, golden_mean):
        n = 4
        count = prefix_count(a, n)
        text = render(a, n, "interval")
        total = Fraction(0)
        for line in text.strip().splitlines():
            lo, hi = line.split()
            total += Fraction(hi) - Fraction(lo)
        assert total == Fraction(count, a.base**n)
