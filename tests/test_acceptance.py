"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; every criterion is checked at its stated tolerance and runtime budget.
"""

import math
import random
import time

from omegafract import (
    closure,
    dimension_report,
    entropy,
    enumerate_prefixes,
    estimate_box_dimension,
    hausdorff_measure,
    mw_alpha,
    prefix_count,
    trim,
)
from conftest import BUNDLED_UNARY, bundled
from helpers_random import (
    disjoint_union,
    forbidden_factor_automaton,
    random_deterministic_trim,
    random_strongly_connected,
    key_series,
    random_trim_automaton,
    reference_multigraph_to_digraph,
    reference_mw_alpha,
    reference_prefix_growth,
)

TOL = 1e-9


class _Criterion:
    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds
        self.failures = []
        self.started = time.monotonic()

    def check(self, condition, detail):
        if not condition:
            self.failures.append(detail)

    def conclude(self):
        elapsed = time.monotonic() - self.started
        if elapsed >= self.budget:
            self.failures.append(f"runtime {elapsed:.1f}s exceeded {self.budget}s")
        status = "PASS" if not self.failures else "FAIL"
        print(
            f"criterion {self.number}: {status} ({elapsed:.2f}s) - {self.description}"
        )
        assert not self.failures, f"criterion {self.number}: {self.failures}"


def test_criterion_1_dyadic_dimension_gap():
    c = _Criterion(1, "dyadic rationals: hausdorff 0, box 1, gap with witness", 1.0)
    a = bundled("dyadic")
    r = dimension_report(a)
    c.check(r.hausdorff == 0.0, "hausdorff dimension not exactly 0")
    c.check(abs(r.box - 1.0) <= TOL, "box dimension not 1")
    gap, witness = r.gap, r.box_witness if r.gap else None
    c.check(gap, "gap not detected")
    c.check(witness is not None and witness not in a.accept, "witness not non-accept")
    c.conclude()


def test_criterion_2_cantor_values():
    c = _Criterion(2, "cantor set: dimensions, oracle slope, unit measure", 5.0)
    a = bundled("cantor")
    expected = math.log(2) / math.log(3)
    r = dimension_report(a)
    c.check(abs(r.hausdorff - expected) <= TOL, "hausdorff off")
    c.check(abs(r.box - expected) <= TOL, "box off")
    closed = entropy(a) / math.log(a.base)
    c.check(abs(closed - expected) <= TOL, "closed-case equality off")
    c.check(
        abs(estimate_box_dimension(a, 4, 10) - expected) <= 0.01,
        "depth 4-10 slope estimate off by more than 0.01",
    )
    c.check(abs(hausdorff_measure(a).total - 1.0) <= TOL, "measure not 1")
    c.conclude()


def test_criterion_3_closed_case_equalities():
    c = _Criterion(3, "20 random closed automata: three dimensions agree", 30.0)
    rng = random.Random(103)
    for i in range(20):
        a = closure(
            random_trim_automaton(
                rng, n_states=rng.randint(2, 6), base=rng.choice([2, 3])
            )
        )
        cd = entropy(a) / math.log(a.base)
        r = dimension_report(a)
        hd, bd = r.hausdorff, r.box
        c.check(abs(cd - hd) <= TOL, f"#{i}: closed {cd} vs hausdorff {hd}")
        c.check(abs(cd - bd) <= TOL, f"#{i}: closed {cd} vs box {bd}")
    c.conclude()


def test_criterion_4_mauldin_williams_cross_check():
    c = _Criterion(4, "20 random strongly connected: unit-radius root = entropy/log k", 30.0)
    rng = random.Random(104)
    for i in range(20):
        a = random_strongly_connected(
            rng,
            n_states=rng.randint(1, 6),
            base=rng.choice([2, 3]),
            deterministic=rng.random() < 0.5,
            accept_all=True,
        )
        alpha = mw_alpha(a)
        h = entropy(a) / math.log(a.base)
        c.check(abs(alpha - h) <= TOL, f"#{i}: alpha {alpha} vs entropy route {h}")
        ref = reference_mw_alpha(a)
        c.check(abs(alpha - ref) <= TOL, f"#{i}: alpha {alpha} vs bisection {ref}")
    c.conclude()


def test_criterion_5_oracle_agreement():
    c = _Criterion(
        5,
        "bundled + 10 random trim: slope within 0.05 of analytic, exact growth",
        60.0,
    )
    for name in BUNDLED_UNARY:
        a = bundled(name)
        err = abs(estimate_box_dimension(a, 4, 12) - dimension_report(a).box)
        c.check(err <= 0.05, f"{name}: slope error {err:.4f}")
    # zero-dimension draws are redrawn: their polynomially-growing counts
    # give slope bias O(log n / n), below depth-12 resolution
    rng = random.Random(0)
    samples = []
    for base in (2, 3):
        drawn = 0
        while drawn < 5:
            a = random_trim_automaton(rng, n_states=4, base=base, density=0.6)
            dim = dimension_report(a).box
            if dim < 0.2:
                continue
            drawn += 1
            samples.append(a)
            err = abs(estimate_box_dimension(a, 4, 12) - dim)
            c.check(err <= 0.05, f"random base {base} #{drawn}: slope error {err:.4f}")
    rng2 = random.Random(105)
    for i in range(4):
        a = random_deterministic_trim(rng2, n_states=4, base=rng2.choice([2, 3]))
        growth = reference_prefix_growth(a, 12)
        for n in range(13):
            c.check(
                growth[n] == prefix_count(a, n),
                f"det #{i}: growth[{n}] {growth[n]} != enumeration {prefix_count(a, n)}",
            )
        for n in range(9):
            c.check(
                growth[n] == len(enumerate_prefixes(a, n)),
                f"det #{i}: growth[{n}] vs materialized prefixes",
            )
    c.conclude()


def test_criterion_6_closure_laws():
    c = _Criterion(6, "prefix equality under closure and digraph form", 30.0)
    rng = random.Random(106)
    for i in range(10):
        a = random_trim_automaton(rng, n_states=4, base=rng.choice([2, 3]))
        for n in (0, 3, 7, 10):
            c.check(
                enumerate_prefixes(closure(a), n) == enumerate_prefixes(a, n),
                f"closure law #{i} depth {n}",
            )
    for i in range(10):
        a = random_deterministic_trim(rng, n_states=4, base=rng.choice([2, 3]))
        dg = reference_multigraph_to_digraph(a)
        for n in (0, 3, 7, 10):
            c.check(
                enumerate_prefixes(dg, n) == enumerate_prefixes(a, n),
                f"digraph law #{i} depth {n}",
            )
        ra, rd = dimension_report(a), dimension_report(dg)
        for name, x, y in [
            ("entropy", entropy(a), entropy(dg)),
            ("box", ra.box, rd.box),
            ("hausdorff", ra.hausdorff, rd.hausdorff),
        ]:
            c.check(math.isclose(y, x, rel_tol=1e-12), f"digraph law #{i} {name}")
    c.conclude()


def test_criterion_7_measure_pipeline():
    c = _Criterion(7, "measure: Lebesgue unit, counting infinity, prefix scaling", 10.0)
    full = bundled("full_binary")
    c.check(abs(hausdorff_measure(full).total - 1.0) <= TOL, "full interval not 1")
    du = bundled("dyadic_unambiguous")
    report = hausdorff_measure(du)
    c.check(report.alpha == 0.0, "dyadic alpha not 0")
    c.check(report.total == math.inf, "dyadic counting measure not infinite")
    from omegafract import Automaton, DigitVector

    chain = Automaton(
        base=2,
        arity=1,
        states=("s", "q"),
        transitions=(
            ("s", DigitVector((0,)), "q"),
            ("q", DigitVector((0,)), "q"),
            ("q", DigitVector((1,)), "q"),
        ),
        start=frozenset({"s"}),
        accept=frozenset({"q"}),
    )
    prefixed = Automaton(
        base=2,
        arity=1,
        states=("s0",) + chain.states,
        transitions=(("s0", DigitVector((1,)), "s"),) + chain.transitions,
        start=frozenset({"s0"}),
        accept=chain.accept,
    )
    for alpha in (1.0, 0.5):
        s = key_series(chain, "q", alpha)
        s_prefixed = key_series(prefixed, "q", alpha)
        c.check(
            s_prefixed == s * 2.0**-alpha,
            f"prefix scaling not exact at alpha {alpha}",
        )
    c.conclude()


def test_criterion_8_entropy_laws():
    c = _Criterion(8, "substring equality and union max law on random automata", 30.0)
    rng = random.Random(108)
    for i in range(10):
        a = random_trim_automaton(rng, n_states=4, base=rng.choice([2, 3]))
        h = entropy(a)
        hs = entropy(a.replace(start=a.states, accept=a.states))
        c.check(abs(h - hs) <= TOL, f"#{i}: substring entropy {hs} vs {h}")
        b = random_trim_automaton(rng, n_states=3, base=a.base)
        hu = entropy(disjoint_union(a, b))
        c.check(
            abs(hu - max(h, entropy(b))) <= TOL,
            f"#{i}: union entropy {hu} vs max({h}, {entropy(b)})",
        )
    c.conclude()


def test_criterion_9_prefix_omission_bound():
    c = _Criterion(9, "single-loop-state automata respect the omission bound", 10.0)
    cases = [
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
    for base, pattern in cases:
        a = trim(forbidden_factor_automaton(base, pattern))
        m = n = len(pattern)
        bound = math.log(base ** (m + n) - 1) / ((m + n) * math.log(base))
        bd = dimension_report(a).box
        c.check(
            bd <= bound + TOL,
            f"base {base} pattern {pattern}: box {bd} above bound {bound}",
        )
    c.conclude()
