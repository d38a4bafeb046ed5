"""The certified Perron solver on edge lists, and the integer-indexed core
routines that feed it (edge form, subset construction, ambiguity check)."""

import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from omegafract import (
    REPORT_TOL,
    Automaton,
    CapExceededError,
    DigitVector,
    NotConvergedError,
    accepts,
    check_unambiguous,
    classify_properties,
    density_classifier,
    dimension_report,
    trim,
    entropy,
    scc_measure,
)
from omegafract import dimension, measure, spectral
from omegafract.core import _bits, _reached
from omegafract.dimension import _shortest_word_to
from omegafract.spectral import perron
from conftest import bundled, child_env
from helpers_random import (
    dense_root,
    disjoint_union,
    edges_of,
    guessing_automaton,
    irreducible_blocks,
    subset_automaton,
    random_automaton,
    random_deterministic_trim,
    random_multi_scc,
    random_strongly_connected,
    random_trim_automaton,
    reference_accepts,
    reference_check_unambiguous,
    reference_prefix_determinization,
    reference_product_pairs,
    reference_run_word,
    reference_shortest_word_to,
)

BUNDLED = [
    "cantor",
    "cantor_pair",
    "dyadic",
    "dyadic_unambiguous",
    "full_binary",
    "golden_mean",
]


def cycle(length: int) -> Automaton:
    """Base-2 ring c0 -> c1 -> ... -> c0 carrying digits 0 and 1 on every
    edge but the last, which carries 0 only: entropy (L-1)/L log 2."""
    states = tuple(f"c{i}" for i in range(length))
    transitions = []
    for i, q in enumerate(states):
        for d in (0,) if i == length - 1 else (0, 1):
            transitions.append((q, DigitVector((d,)), states[(i + 1) % length]))
    return Automaton(
        base=2,
        arity=1,
        states=states,
        transitions=tuple(transitions),
        start=frozenset({states[0]}),
        accept=frozenset(states),
    )


def random_periodic(rng: random.Random, period: int) -> np.ndarray:
    """Integer matrix on a multiple of ``period`` nodes, node i in cyclic
    class i mod ``period``, whose edges only run from class c to c + 1 mod
    ``period``; a ring through every node makes it irreducible."""
    n = period * rng.randint(1, 3)
    matrix = np.zeros((n, n), dtype=int)
    for i in range(n):
        matrix[i, (i + 1) % n] = rng.randint(1, 3)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if j % period == (i + 1) % period:
            matrix[i, j] = rng.randint(1, 3)
    return matrix


def brute_period(block: np.ndarray) -> int:
    """gcd of the k <= m with a closed walk of length k in an irreducible
    block: every simple cycle has length <= m and every closed walk is a
    sum of simple cycles, so this is the gcd of all cycle lengths."""
    m = block.shape[0]
    reach = np.eye(m, dtype=bool)
    adj = block > 0
    g = 0
    for k in range(1, m + 1):
        reach = (reach.astype(int) @ adj.astype(int)) > 0
        if np.trace(reach):
            g = math.gcd(g, k)
    return g


def check_brackets(matrix: np.ndarray) -> None:
    n, src, dst = edges_of(matrix)
    for block in irreducible_blocks(n, src, dst):
        dense = matrix[np.ix_(block.nodes, block.nodes)].astype(float)
        rho = float(np.max(np.abs(np.linalg.eigvals(dense))))
        solve = perron(block)
        slack = 1e-12 * solve.hi
        assert solve.lo - slack <= rho <= solve.hi + slack
        assert solve.hi - solve.lo <= 1e-12 * solve.hi
        assert block.period == brute_period(dense)
    eig = np.max(np.abs(np.linalg.eigvals(matrix.astype(float)))) if n else 0.0
    assert dense_root(matrix) == pytest.approx(eig, rel=1e-11, abs=1e-12)


# ---------------------------------------------------------------------------
# the solver against np.linalg.eigvals
# ---------------------------------------------------------------------------


def test_bracket_holds_eigvals_root_on_random_reducible_matrices():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 9)
        matrix = np.array(
            [[rng.choice([0, 0, 0, 1, 2, 3]) for _ in range(n)] for _ in range(n)]
        )
        check_brackets(matrix)


@pytest.mark.parametrize("period", [2, 3, 4, 5, 6, 7])
def test_bracket_and_period_on_periodic_blocks(period):
    rng = random.Random(100 + period)
    for _ in range(6):
        matrix = random_periodic(rng, period)
        (block,) = irreducible_blocks(*edges_of(matrix))
        assert block.period % period == 0
        check_brackets(matrix)


def test_nilpotent_has_no_blocks_and_radius_exactly_zero():
    rng = random.Random(72)
    for _ in range(10):
        n = rng.randint(1, 8)
        matrix = np.triu(
            np.array([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]), k=1
        )
        assert irreducible_blocks(*edges_of(matrix)) == []
        assert dense_root(matrix) == 0.0


@pytest.mark.parametrize("period", [2, 5, 7])
def test_perron_vector_of_periodic_block(period):
    rng = random.Random(200 + period)
    for _ in range(5):
        matrix = random_periodic(rng, period)
        n, src, dst = edges_of(matrix)
        (block,) = irreducible_blocks(n, src, dst)
        solve = perron(block, vector=True)
        v = np.zeros(n)
        v[block.nodes] = solve.vector
        assert v.min() > 0 and v.max() == 1.0
        # certified to 1e-12; the dense product here rounds on its own
        assert np.max(np.abs(matrix @ v - solve.root * v)) <= 1e-11 * solve.root


# ---------------------------------------------------------------------------
# long cycles: the period-L block that stalled the B + I iteration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("length", [600, 2000])
def test_long_cycle_entropy(length):
    assert entropy(cycle(length)) == pytest.approx(
        (length - 1) / length * math.log(2), abs=1e-12
    )


def test_400_cycle_measure_at_radius_one_meets_tolerance():
    length = 400
    a = cycle(length)
    alpha = (length - 1) / length
    value = scc_measure(a, alpha)
    e = a.edges
    x = 2.0**-alpha
    (block,) = irreducible_blocks(e.n, e.src, e.dst)
    solve = perron(block, tol=measure._EIGENVECTOR_TOL, vector=True)
    # the transfer matrix is x times the counting matrix, its radius x rho
    radius = x * solve.root
    assert abs(radius - 1.0) <= REPORT_TOL
    dense = np.zeros((e.n, e.n))
    np.add.at(dense, (e.src, e.dst), x)
    v = solve.vector
    residual = np.max(np.abs(dense @ v - radius * v)) / radius
    assert residual <= measure._EIGENVECTOR_TOL
    assert value == v[a.state_index["c0"]]
    # v_{i+1} = v_i / (2 * 2^-alpha) around the ring: v_i = 2^(-i/L)
    exact = 2.0 ** (-np.arange(length) / length)
    assert np.max(np.abs(v - exact)) <= 1e-12


# ---------------------------------------------------------------------------
# never a guess: the step cap and underflow raise
# ---------------------------------------------------------------------------


def test_step_cap_raises(monkeypatch, golden_mean):
    monkeypatch.setattr(spectral, "_MAX_PERRON_STEPS", 3)
    with pytest.raises(NotConvergedError) as info:
        dense_root([[1, 1], [1, 0]])
    assert info.value.code == "not-converged"
    with pytest.raises(NotConvergedError):
        entropy(golden_mean)
    # a period above the cap cannot make one step of B^p
    with pytest.raises(NotConvergedError):
        entropy(cycle(12).replace(accept=["c0"]))
    monkeypatch.undo()
    assert entropy(golden_mean) == pytest.approx(
        math.log((1 + math.sqrt(5)) / 2), abs=1e-12
    )


def test_underflowing_vector_raises():
    # a ring of 5000 nodes with doubled edges on its first half: rho^5000
    # = 2^2500 is exact, but the Perron vector spans 2^1250, beyond the
    # range of normal floats
    length = 5000
    count = np.where(np.arange(length) < length // 2, 2, 1)
    src = np.repeat(np.arange(length), count)
    (block,) = irreducible_blocks(length, src, (src + 1) % length)
    assert block.period == length
    with pytest.raises(NotConvergedError, match="vector .* underflowed"):
        perron(block)


# ---------------------------------------------------------------------------
# seed, then certify: the dense-squaring start and the class sweep
# ---------------------------------------------------------------------------


def plain_steps(block, tol=spectral.DEFAULT_SPECTRAL_TOL) -> int:
    """Products x <- Bx from x = 1 after which the Collatz-Wielandt bracket
    of an aperiodic block first has relative width at most ``tol``."""
    m = len(block.nodes)
    x, steps = np.ones(m), 0
    while True:
        y = np.bincount(block.src, weights=x[block.dst], minlength=m)
        steps += 1
        ratios = y / x
        if ratios.max() - ratios.min() <= tol * ratios.max():
            return steps
        x = y / y.max()


def test_seeded_bracket_overlaps_plain_start_and_holds_eigvals_root(monkeypatch):
    rng = random.Random(78)
    matrices = [
        np.array([[rng.choice([0, 0, 0, 1, 2, 3]) for _ in range(n)] for _ in range(n)])
        for n in [rng.randint(1, 9) for _ in range(40)]
    ]
    matrices += [random_periodic(rng, p) for p in range(2, 8) for _ in range(4)]
    seeded_periodic = 0
    for matrix in matrices:
        for block in irreducible_blocks(*edges_of(matrix)):
            seeded = perron(block)
            monkeypatch.setattr(spectral, "_DENSE_SEED_NODES", 0)
            plain = perron(block)
            monkeypatch.undo()
            ulps = 4 * math.ulp(max(seeded.hi, plain.hi))
            assert seeded.lo <= plain.hi + ulps and plain.lo <= seeded.hi + ulps
            dense = matrix[np.ix_(block.nodes, block.nodes)].astype(float)
            rho = float(np.max(np.abs(np.linalg.eigvals(dense))))
            slack = 1e-12 * seeded.hi
            assert seeded.lo - slack <= rho <= seeded.hi + slack
            seeded_periodic += block.period > 1 and np.sum(block.classes == 0) > 1
    assert seeded_periodic >= 5


def counted_perron(monkeypatch, block):
    """``perron(block)`` with the products by B it spent: the power
    of B the dense seed reached plus p for each class sweep."""
    spent = []
    seed, apply = spectral._dense_seed, spectral._ClassSweep.apply

    def seeding(*args):
        x, power = seed(*args)
        spent.append(power)
        return x, power

    def applying(self, x):
        spent.append(block.period)
        return apply(self, x)

    monkeypatch.setattr(spectral, "_dense_seed", seeding)
    monkeypatch.setattr(spectral._ClassSweep, "apply", applying)
    solve = perron(block)
    monkeypatch.undo()
    return solve, sum(spent)


def test_step_cap_just_below_and_above_what_the_seed_needs(monkeypatch):
    rng = random.Random(79)
    checked = 0
    while checked < 8:
        n = rng.randint(3, 10)
        matrix = np.array(
            [[rng.choice([0, 0, 0, 1, 2]) for _ in range(n)] for _ in range(n)]
        )
        for block in irreducible_blocks(*edges_of(matrix)):
            need = plain_steps(block) if block.period == 1 else 0
            if need < 16:
                continue
            solve, steps = counted_perron(monkeypatch, block)
            # the squarings reach some p 2^s; certifying takes more products
            assert steps >= need
            monkeypatch.setattr(spectral, "_MAX_PERRON_STEPS", steps)
            assert perron(block) == solve
            monkeypatch.setattr(spectral, "_MAX_PERRON_STEPS", need - 1)
            with pytest.raises(NotConvergedError):
                perron(block)
            monkeypatch.undo()
            checked += 1


def ring_edges(length: int, split: bool):
    """Ring 0 -> 1 -> ... -> length-1 -> 0 with two parallel edges at every
    step but the last (one edge); with ``split`` a second doubled path
    0 -> length -> 2 puts two nodes in cyclic class 1, so that rho = 2
    exactly."""
    src = list(range(length)) + ([0, length] if split else [])
    dst = [(i + 1) % length for i in range(length)] + ([length, 2] if split else [])
    count = np.full(len(src), 2)
    count[length - 1] = 1
    return length + split, np.repeat(src, count), np.repeat(dst, count)


@pytest.mark.parametrize("split", [False, True])
def test_class_sweep_bincounts_do_not_grow_with_the_period(monkeypatch, split):
    calls = []
    bincount = np.bincount

    def counting(*args, **kwargs):
        calls.append(1)
        return bincount(*args, **kwargs)

    counts = []
    for length in [100, 10_000]:
        n, src, dst = ring_edges(length, split)
        (block,) = irreducible_blocks(n, src, dst)
        assert block.period == length
        calls.clear()
        monkeypatch.setattr(np, "bincount", counting)
        solve = perron(block, vector=True)
        monkeypatch.undo()
        counts.append(len(calls))
        # the ring's scalar product is exact, and so is its root
        exact = 2.0 if split else 2.0 ** ((length - 1) / length)
        assert solve.lo == solve.hi == solve.root == exact
        v = solve.vector
        bv = np.bincount(src, weights=v[dst], minlength=n)
        assert np.max(np.abs(bv - exact * v)) <= 1e-12 * exact
    assert counts[0] == counts[1] <= 12


def two_rings(length: int) -> Automaton:
    """Ring n (length + 1 states, not accepting) entering ring a (length
    states, accepting at a0) by n0 -1-> a0; every ring edge carries both
    digits but the last.  Hausdorff dimension (L-1)/L, box L/(L+1)."""
    transitions = [("n0", DigitVector((1,)), "a0")]
    states = []
    for name, size in [("n", length + 1), ("a", length)]:
        states += [f"{name}{i}" for i in range(size)]
        for i in range(size):
            for d in (0,) if i == size - 1 else (0, 1):
                transitions.append(
                    (f"{name}{i}", DigitVector((d,)), f"{name}{(i + 1) % size}")
                )
    return Automaton(
        base=2,
        arity=1,
        states=tuple(states),
        transitions=tuple(transitions),
        start=frozenset({"n0"}),
        accept=frozenset({"a0"}),
    )


def test_two_rings_solve_in_time_linear_in_the_period():
    blocks = []
    for length in [20_000, 20_001]:
        (block,) = irreducible_blocks(*ring_edges(length, split=False))
        blocks.append(block)
    started = time.perf_counter()
    solves = [perron(block) for block in blocks]
    assert time.perf_counter() - started < 0.5
    assert [s.root for s in solves] == [
        2.0 ** (19_999 / 20_000),
        2.0 ** (20_000 / 20_001),
    ]
    a = two_rings(10_000)
    started = time.perf_counter()
    report = dimension_report(a)
    assert time.perf_counter() - started < 1.0
    assert report.hausdorff == pytest.approx(9_999 / 10_000, abs=1e-15)
    assert report.box == pytest.approx(10_000 / 10_001, abs=1e-15)
    assert report.gap


# ---------------------------------------------------------------------------
# integer-indexed core against the name-based reference routines
# ---------------------------------------------------------------------------


def test_edge_form_matches_transitions():
    for name in BUNDLED:
        a = bundled(name)
        e = a.edges
        assert e.n == len(a.states)
        assert [
            (a.states[s], a.symbols_used[c], a.states[d])
            for s, c, d in zip(e.src.tolist(), e.sym.tolist(), e.dst.tolist())
        ] == list(a.transitions)


def _scrambled(rng: random.Random, a: Automaton) -> Automaton:
    """``a`` with states renamed so that name order and declaration order
    disagree, and with two or three start states."""
    names = [f"x{i}" for i in range(len(a.states))]
    rng.shuffle(names)
    rename = dict(zip(a.states, names))
    return trim(
        Automaton(
            base=a.base,
            arity=a.arity,
            states=tuple(names),
            transitions=tuple(
                (rename[s], sym, rename[d]) for s, sym, d in a.transitions
            ),
            start=frozenset(rng.sample(names, min(len(names), rng.randint(2, 3)))),
            accept=frozenset(rename[q] for q in a.accept),
        )
    )


def _random_nfas():
    rng = random.Random(73)
    for i in range(90):
        if i % 3 == 1:
            nfa = random_trim_automaton(rng, n_states=rng.randint(3, 7), nondet=0.4)
            yield _scrambled(rng, nfa)
        elif i % 3 == 2:
            yield random_multi_scc(rng, n_blocks=rng.randint(2, 3), deterministic=False)
        else:
            yield random_trim_automaton(
                rng,
                n_states=rng.randint(2, 7),
                base=rng.choice([2, 3]),
                arity=rng.choice([1, 1, 2]),
                nondet=0.4,
            )


def test_prefix_determinization_matches_reference():
    for a in [bundled(name) for name in BUNDLED] + list(_random_nfas()):
        assert subset_automaton(a) == reference_prefix_determinization(a)


def _larger_ambiguity_inputs(rng: random.Random) -> list[Automaton]:
    """NFAs of 9-30 states, ambiguous and unambiguous, several of them not
    trim, with one to three start states: their pair graphs have many
    components."""

    def deterministic(base: int, low: int, high: int) -> Automaton:
        while True:
            d = random_deterministic_trim(
                rng, n_states=rng.randint(low, high), base=base
            )
            if len(d.states) >= low:
                return d

    out = []
    for _ in range(12):
        n = rng.randint(9, 30)
        a = random_strongly_connected(rng, n_states=n, extra=n // 2)
        out.append(a.replace(start=rng.sample(a.states, rng.randint(1, 3))))
        base = rng.choice([2, 3])
        out.append(guessing_automaton(deterministic(base, -(-9 // base), 30 // base)))
        d = deterministic(2, 5, 15)
        out.append(disjoint_union(d, d))
    return out


def _behind_dead_pairs(rng: random.Random) -> Automaton:
    """An ambiguous automaton whose witness 1^k, k in 3..5, sits behind
    off-diagonal pairs that reach no good component.  The start s reads 0
    into ring n (not accepting, both digits on every edge but its exit,
    which reads 1 into an accepting 1-loop f) and into ring a (accepting,
    digit 0 only): the pairs of n x a and a x n, from depth 1 on, only run
    round their rings.  A chain of 1s leads to u and v, which read 0 into
    n0 and a0 respectively, and 1 into one accepting state g: the search
    from (u, v) at depth k first meets (n0, a0), marked at depth 1, then
    the diagonal pair (g, g)."""
    zero, one = DigitVector((0,)), DigitVector((1,))
    n_ring, a_ring, k = rng.randint(2, 5), rng.randint(2, 5), rng.randint(3, 5)
    chain = ["s"] + [f"c{i}" for i in range(1, k)]
    t = [("s", zero, "n0"), ("s", zero, "a0"), ("f", one, "f")]
    for i in range(n_ring):
        after = f"n{(i + 1) % n_ring}"
        t.append((f"n{i}", zero, after))
        t.append((f"n{i}", one, "f" if i == n_ring - 1 else after))
    t += [(f"a{i}", zero, f"a{(i + 1) % a_ring}") for i in range(a_ring)]
    t += [(x, one, y) for x, y in zip(chain, chain[1:])]
    t += [(chain[-1], one, "u"), (chain[-1], one, "v")]
    t += [("u", zero, "n0"), ("v", zero, "a0")]
    t += [("u", one, "g"), ("v", one, "g"), ("g", zero, "g"), ("g", one, "g")]
    a_states = [f"a{i}" for i in range(a_ring)]
    return Automaton(
        base=2,
        arity=1,
        states=tuple(chain[1:] + [f"n{i}" for i in range(n_ring)] + a_states)
        + ("s", "f", "u", "v", "g"),
        transitions=tuple(t),
        start=frozenset({"s"}),
        accept=frozenset(a_states + ["f", "g"]),
    )


def _stops_inside_a_cycle(rng: random.Random) -> Automaton:
    """Runs x and y split on the first 0 and walk a cycle of m pairs in
    step, 0 closing it and 1 merging them into an accepting state g: the
    search from (x0, y0) closes the cycle, lowering the low-links of the
    pairs on its stack, and stops at (g, g) with all m pairs unfinished."""
    zero, one = DigitVector((0,)), DigitVector((1,))
    m = rng.randint(2, 6)
    t = [("s", zero, "x0"), ("s", zero, "y0"), ("g", zero, "g"), ("g", one, "g")]
    for r in "xy":
        t += [(f"{r}{i}", zero, f"{r}{(i + 1) % m}") for i in range(m)]
        t.append((f"{r}{m - 1}", one, "g"))
    return Automaton(
        base=2,
        arity=1,
        states=("s", "g") + tuple(f"{r}{i}" for r in "xy" for i in range(m)),
        transitions=tuple(t),
        start=frozenset({"s"}),
        accept=frozenset({"g"}),
    )


def _smaller_word_found_later() -> Automaton:
    """Starts s0 and s1 split into two runs each, s0 on digit 1 and s1 on
    digit 0, and every run then reads 0 into one accepting state g.  The
    pairs the breadth-first search reaches first at depth 1 come from
    (s0, s0) and spell 1; those from (s1, s1) spell 0, the witness."""
    zero, one = DigitVector((0,)), DigitVector((1,))
    t = [("s0", one, "x0"), ("s0", one, "x1"), ("s1", zero, "y0"), ("s1", zero, "y1")]
    t += [(r, zero, "g") for r in ("x0", "x1", "y0", "y1")]
    t += [("g", zero, "g"), ("g", one, "g")]
    return Automaton(
        base=2,
        arity=1,
        states=("s0", "s1", "x0", "x1", "y0", "y1", "g"),
        transitions=tuple(t),
        start=frozenset({"s0", "s1"}),
        accept=frozenset({"g"}),
    )


def _with_unproductive(rng: random.Random, a: Automaton) -> Automaton:
    """``a`` with three states no accepting run passes through: an
    accepting dead end d and a non-accepting two-cycle z0 <-> z1, entered
    on used symbols from random states of ``a``."""
    used = a.symbols_used
    extra = {(rng.choice(a.states), rng.choice(used), z) for z in ("d", "z0", "z1")}
    extra |= {(rng.choice(a.states), rng.choice(used), "d") for _ in range(2)}
    extra |= {("z0", rng.choice(used), "z1"), ("z1", rng.choice(used), "z0")}
    return a.replace(
        states=a.states + ("d", "z0", "z1"),
        transitions=a.transitions + tuple(sorted(extra)),
        accept=a.accept | {"d"},
    )


def _staged_ambiguity_inputs(rng: random.Random) -> dict[str, list[Automaton]]:
    """Inputs that exercise the stages of the ambiguity search: marks
    reused across levels, unproductive states, witnesses at depth 0 from
    several start states, a search stopping inside a cycle, and a level
    whose least word is not the one reached first."""
    return {
        "behind": [_behind_dead_pairs(rng) for _ in range(8)],
        "unproductive": [
            _with_unproductive(
                rng, random_strongly_connected(rng, n_states=rng.randint(3, 9), extra=4)
            )
            for _ in range(20)
        ],
        "unions": [
            disjoint_union(d, d)
            for d in (
                random_deterministic_trim(rng, n_states=rng.randint(2, 9), base=b)
                for b in (2, 3, 2, 3, 2)
            )
        ],
        "cycle": [_stops_inside_a_cycle(rng) for _ in range(5)],
        "order": [_smaller_word_found_later()],
    }


def test_check_unambiguous_matches_reference():
    seen_ambiguous = 0
    rng = random.Random(74)
    extra = [
        random_strongly_connected(rng, n_states=rng.randint(2, 6), extra=6)
        for _ in range(30)
    ]
    extra += [
        a.replace(start=rng.sample(a.states, rng.randint(2, min(3, len(a.states)))))
        for a in (
            random_strongly_connected(rng, n_states=rng.randint(2, 8), extra=4)
            for _ in range(20)
        )
    ]
    untrimmed = [
        random_automaton(
            rng,
            n_states=rng.randint(3, 10),
            base=rng.choice([2, 3]),
            arity=rng.choice([1, 2]),
            nondet=0.4,
        )
        for _ in range(40)
    ]
    larger = _larger_ambiguity_inputs(rng)
    for a in [bundled(name) for name in BUNDLED] + list(_random_nfas()) + extra:
        got, want = check_unambiguous(a), reference_check_unambiguous(a)
        assert (got.unambiguous, got.witness) == (want.unambiguous, want.witness)
        seen_ambiguous += not got.unambiguous
    assert seen_ambiguous >= 10
    staged = _staged_ambiguity_inputs(rng)
    for kind, inputs in staged.items():
        for a in inputs:
            got, want = check_unambiguous(a), reference_check_unambiguous(a)
            assert (got.unambiguous, got.witness) == (want.unambiguous, want.witness)
            if kind == "behind":
                assert len(got.witness) >= 3 and set(got.witness) == {DigitVector((1,))}
            elif kind == "unproductive":
                assert not classify_properties(a).trim
            elif kind == "unions":
                assert len(a.start) == 2 and got.witness == ()
            else:
                assert got.witness == (DigitVector((0,)),)
    assert sum(not check_unambiguous(a) for a in staged["unproductive"]) >= 5
    verdicts = []
    for a in untrimmed + larger:
        got, want = check_unambiguous(a), reference_check_unambiguous(a)
        assert (got.unambiguous, got.witness) == (want.unambiguous, want.witness)
        verdicts.append((got.unambiguous, classify_properties(a).trim))
    assert sum(not trimmed for _, trimmed in verdicts) >= 20
    assert all(9 <= len(a.states) <= 30 for a in larger)
    unambiguous = sum(ok for ok, _ in verdicts[len(untrimmed) :])
    assert 10 <= unambiguous <= len(larger) - 10


def _trim_guessing_automata(rng: random.Random, count: int) -> list[Automaton]:
    """Trim nondeterministic unambiguous guessing automata: the check
    finds no witness, so it builds every reachable pair."""
    out = []
    while len(out) < count:
        d = random_deterministic_trim(
            rng, n_states=rng.randint(6, 15), base=rng.choice([2, 3])
        )
        a = trim(guessing_automaton(d))
        if not classify_properties(a).deterministic:
            out.append(a)
    return out


def test_ambiguity_pair_cap_is_exact():
    # the cap counts the pairs of two distinct states
    for a in _trim_guessing_automata(random.Random(75), 4):
        pairs = sum(p != q for p, q in reference_product_pairs(a))
        assert check_unambiguous(a, cap=pairs).unambiguous
        with pytest.raises(CapExceededError):
            check_unambiguous(a, cap=pairs - 1)


def test_ambiguity_check_stops_at_its_witness():
    # 127 626 reachable pairs, of which the check builds a few thousand
    a = random_strongly_connected(random.Random(3), 1000, extra=500)
    assert len(reference_product_pairs(a)) == 127_626
    report = check_unambiguous(a, cap=20_000)
    assert not report.unambiguous
    assert [s.digits for s in report.witness] == [(0,), (0,), (1,), (1,)] * 2


def _run_set(a, word):
    return frozenset(a.states[q] for q in _bits(_reached(a, word)))


def test_walks_on_the_edge_arrays_match_reference():
    rng = random.Random(76)
    inputs = [bundled(name) for name in BUNDLED]
    inputs += [_scrambled(rng, a) for a in inputs + list(_random_nfas())]
    unused = 0
    for a in inputs:
        for q in a.states:
            u = _shortest_word_to(a, q)
            assert u == reference_shortest_word_to(a, q)
            assert _run_set(a, u) == reference_run_word(a, u)
        alphabet = [DigitVector(d) for d in np.ndindex(*(a.base,) * a.arity)]
        for _ in range(20):
            w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            assert accepts(a, w) == reference_accepts(a, w)
            assert _run_set(a, w) == reference_run_word(a, w)
            unused += any(s not in a.symbols_used for s in w)
    assert len(inputs) >= 100 and unused >= 100


def test_density_on_deterministic_input_skips_the_reroot(monkeypatch):
    # a complete deterministic component always reroots to dimension 1
    def fail(*args, **kwargs):
        raise AssertionError("rerooted on deterministic input")

    rng = random.Random(75)
    dense = 0
    for _ in range(20):
        a = random_multi_scc(rng, n_blocks=rng.randint(2, 3), full_last=True)
        monkeypatch.setattr(dimension, "_block_root", fail)
        report = density_classifier(a)
        monkeypatch.undo()
        assert report == density_classifier(a)
        dense += report.somewhere_dense
    assert dense == 20


# ---------------------------------------------------------------------------
# tooling
# ---------------------------------------------------------------------------


def test_import_pulls_in_neither_scipy_nor_numba():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, omegafract;"
            " print(sorted(m for m in ('scipy', 'numba') if m in sys.modules))",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
