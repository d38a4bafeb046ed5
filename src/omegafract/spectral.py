"""Counting and weighted adjacency matrices, Perron spectral radius, and
entropy of prefix languages.

Entropy here is the exponential growth rate, in natural-log units, of the
number of distinct length-n prefixes of the accepted language.  For a
deterministic trim automaton that rate is the logarithm of the Perron root
of the integer counting matrix; nondeterministic inputs are first
determinized as finite automata on their (prefix-closed, regular) prefix
language, so strings are counted rather than runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_ENUMERATION_CAP,
    Automaton,
    _is_deterministic,
    prefix_count,
    prefix_determinization,
    require_trim,
    tarjan_components,
)

DEFAULT_SPECTRAL_TOL = 1e-12

_MAX_POWER_ITERATIONS = 500_000


@dataclass(frozen=True)
class CountMatrix:
    """Square nonnegative matrix indexed by automaton states in declaration
    order.  Two flavors share the type: exact integer transition counts and
    real weighted entries."""

    entries: tuple[tuple[float, ...], ...]
    states: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.states)
        rows = tuple(tuple(row) for row in self.entries)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square with one row per state")
        if any(value < 0 for row in rows for value in row):
            raise ValueError("matrix entries must be nonnegative")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[float]], states: Sequence[str] | None = None
    ) -> "CountMatrix":
        if states is None:
            states = tuple(str(i) for i in range(len(rows)))
        return cls(entries=tuple(tuple(row) for row in rows), states=tuple(states))

    @property
    def n(self) -> int:
        return len(self.states)

    def to_numpy(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)


def weighted_matrix(a: Automaton, s: float) -> CountMatrix:
    """Weighted adjacency matrix with entries (c_ij / k)^s, where c_ij is
    the number of symbols carrying a transition from state i to state j.

    Zero-count entries stay 0 at every exponent (0^0 = 0 convention), so
    s = 0 yields the 0/1 reachability indicator and k * entries at s = 1
    recovers the integer counting matrix.
    """
    if s < 0:
        raise ValueError("exponent must be nonnegative")
    counts = a.transition_counts()
    rows = []
    for src in a.states:
        row = []
        for dst in a.states:
            c = counts.get((src, dst), 0)
            row.append(0 if c == 0 else (c / a.base) ** s if s != 0 else 1)
        rows.append(tuple(row))
    return CountMatrix(entries=tuple(rows), states=a.states)


def transfer_matrix(a: Automaton, s: float) -> CountMatrix:
    """Transfer operator of the digit maps at exponent ``s``: entry (i, j)
    sums (1/k)^s over the c_ij parallel transitions, i.e. c_ij * k^(-s).

    On a true digraph (c_ij <= 1 everywhere) this coincides with
    :func:`weighted_matrix`; on multigraphs it is the matrix whose unit
    spectral radius characterizes the critical exponent, since every
    transition contracts the box by 1/k per coordinate.  At s = 0 the
    entries are the exact integer transition counts.
    """
    if s < 0:
        raise ValueError("exponent must be nonnegative")
    counts = a.transition_counts()
    weight = 1 if s == 0 else float(a.base) ** (-s)
    rows = []
    for src in a.states:
        row = tuple(
            counts.get((src, dst), 0) * weight for dst in a.states
        )
        rows.append(row)
    return CountMatrix(entries=tuple(rows), states=a.states)


def counting_matrix(a: Automaton) -> CountMatrix:
    """Exact integer counting matrix: entry (i, j) is the number of symbols
    with a transition i -> j."""
    return transfer_matrix(a, 0)


@dataclass(frozen=True)
class GrowthSequence:
    """Exact per-length counts |L^pre|_0 .. |L^pre|_N as big integers."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.values):
            raise ValueError("growth counts must be nonnegative")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)


# ---------------------------------------------------------------------------
# Perron spectral radius
# ---------------------------------------------------------------------------


def _block_radius_power(block: np.ndarray, tol: float) -> float:
    """Certified Perron root of an irreducible nonnegative block.

    Power iteration on the shifted matrix B + I (aperiodic, so convergent)
    with Collatz-Wielandt enclosure: for any positive x,
    min_i (Bx)_i/x_i <= rho(B) <= max_i (Bx)_i/x_i, and the enclosure
    tightens geometrically.  Returns the midpoint once the bracket is below
    tolerance.  Falls back to sign bisection of det(xI - B) inside the last
    bracket if the iteration budget runs out.
    """
    n = block.shape[0]
    if n == 1:
        return float(block[0, 0])
    shifted = block + np.eye(n)
    x = np.ones(n)
    lo, hi = 0.0, float(np.max(shifted.sum(axis=1)))
    for _ in range(_MAX_POWER_ITERATIONS):
        y = shifted @ x
        ratios = y / x
        lo = max(lo, float(ratios.min()))
        hi = min(hi, float(ratios.max()))
        if hi - lo <= tol * max(1.0, hi):
            return (lo + hi) / 2 - 1.0
        x = y / y.max()
    # Stalled: bisect the characteristic polynomial of the shifted block
    # inside the last bracket.  The Perron root of an irreducible block is
    # simple, so det(xI - shifted) is negative just below it and positive
    # just above, provided the bracket excludes the other real eigenvalues.
    def det_sign(x: float) -> float:
        return float(np.linalg.slogdet(x * np.eye(n) - shifted)[0])

    if det_sign(lo) < 0:
        while hi - lo > tol * max(1.0, hi):
            mid = (lo + hi) / 2
            if det_sign(mid) < 0:
                lo = mid
            else:
                hi = mid
    return (lo + hi) / 2 - 1.0


def spectral_radius(
    m: CountMatrix | np.ndarray, tol: float = DEFAULT_SPECTRAL_TOL
) -> float:
    """Perron root of a nonnegative square matrix to relative tolerance.

    Accepts a :class:`CountMatrix` or a square float array.  The matrix
    digraph is decomposed into strongly connected blocks; the radius is the
    maximum of the block radii, with cycle-free blocks contributing exactly
    0 (so nilpotent matrices return 0.0 exactly).
    """
    if isinstance(m, CountMatrix):
        array = m.to_numpy()
    else:
        array = np.asarray(m, dtype=float)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise ValueError("matrix must be square")
        if np.any(array < 0):
            raise ValueError("matrix entries must be nonnegative")
    n = array.shape[0]
    succ = {i: [j for j in range(n) if array[i, j] > 0] for i in range(n)}
    best = 0.0
    for comp in tarjan_components(list(range(n)), succ):
        if len(comp) == 1:
            i = comp[0]
            if array[i, i] > 0:
                best = max(best, float(array[i, i]))
            continue
        idx = np.array(sorted(comp))
        block = array[np.ix_(idx, idx)]
        best = max(best, _block_radius_power(block, tol))
    return best


# ---------------------------------------------------------------------------
# growth, entropy and the enumeration cross-check
# ---------------------------------------------------------------------------


def prefix_growth(a: Automaton, N: int) -> GrowthSequence:
    """Exact run counts per length, via big-integer vector iteration over
    per-state counts seeded with the start indicator.

    For deterministic automata the value at n equals the number of distinct
    length-n prefixes; for nondeterministic automata runs are counted, so
    the values over-approximate string counts.
    """
    require_trim(a)
    if N < 0:
        raise ValueError("depth must be nonnegative")
    counts = a.transition_counts()
    index = a.state_index
    n_states = len(a.states)
    matrix = [[0] * n_states for _ in range(n_states)]
    for (src, dst), c in counts.items():
        matrix[index[src]][index[dst]] = c
    vec = [1 if q in a.start else 0 for q in a.states]
    values = [sum(vec)]
    for _ in range(N):
        vec = [
            sum(vec[i] * matrix[i][j] for i in range(n_states))
            for j in range(n_states)
        ]
        values.append(sum(vec))
    return GrowthSequence(values=tuple(values))


def entropy(a: Automaton, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Growth rate of the number of distinct prefixes, in natural-log units.

    Computed as log of the Perron root of the integer counting matrix of
    the prefix-determinized automaton; deterministic inputs are used as-is.
    The value lies in [0, d * log k] and equals the entropy of the accepted
    infinite-word language.
    """
    require_trim(a)
    b = a if _is_deterministic(a) else prefix_determinization(a, cap=cap)
    return math.log(spectral_radius(counting_matrix(b)))


def entropy_estimate(a: Automaton, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """log(number of distinct length-n prefixes) / n, by brute-force
    enumeration: a string-counting oracle independent of the matrix
    machinery.  Converges to :func:`entropy` as n grows."""
    require_trim(a)
    if n < 1:
        raise ValueError("estimate needs depth >= 1")
    return math.log(prefix_count(a, n, cap=cap)) / n


def substring_automaton(a: Automaton) -> Automaton:
    """Automaton whose prefix language is the set of substrings of the
    input's prefixes: every state of the trim part becomes both initial and
    accepting.  Entropy is preserved, which is exposed as a cross-check."""
    require_trim(a)
    return a.replace(start=a.states, accept=a.states)
