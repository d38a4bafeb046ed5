"""Counting and weighted adjacency matrices, the certified Perron solver,
and entropy of prefix languages.

Entropy here is the exponential growth rate, in natural-log units, of the
number of distinct length-n prefixes of the accepted language.  For a
deterministic trim automaton that rate is the logarithm of the Perron root
of the integer counting matrix; nondeterministic inputs are first
determinized as finite automata on their (prefix-closed, regular) prefix
language, so strings are counted rather than runs.

Every Perron root and vector in the package comes from one routine,
:func:`perron`, working on an edge list (``src``/``dst`` node arrays and
one weight per edge) rather than a dense matrix.  For each non-trivial
strongly connected block (:func:`irreducible_blocks`) it finds the period
p from breadth-first levels, iterates x <- B^p x with ``np.bincount``
products costing O(transitions) each, stops once the Collatz-Wielandt
bracket of B^p has relative width at most the tolerance, and, when asked,
recovers B's Perron vector as sum_{j<p} (B/rho)^j x with a checked
residual.  Hitting the step cap or an underflowing entry raises
:class:`~omegafract.errors.NotConvergedError`; no unconverged value is
returned.  :func:`counting_matrix`, :func:`transfer_matrix` and
:class:`CountMatrix` remain as public constructors; :func:`spectral_radius`
converts them to an edge list at the API edge.
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
    _subset_construction,
    prefix_count,
    require_trim,
    tarjan_components,
)
from .errors import NotConvergedError

DEFAULT_SPECTRAL_TOL = 1e-12

#: Matrix-vector products one Perron solve may spend before it gives up.
_MAX_PERRON_STEPS = 500_000

#: Entries below the smallest normal float count as underflowed.
_TINY = np.finfo(float).tiny


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
# the certified Perron solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """One non-trivial strongly connected block of an edge list.

    ``nodes`` holds the block's node numbers in increasing order, ``edges``
    the numbers of the edges inside it; ``src``/``dst`` are those edges'
    endpoints renumbered as positions in ``nodes``.  ``period`` is the gcd of
    the block's cycle lengths.
    """

    nodes: np.ndarray
    edges: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    period: int


@dataclass(frozen=True)
class Perron:
    """Perron root of a block with its Collatz-Wielandt bracket
    ``lo <= root <= hi`` (exact up to float rounding) and, when asked for,
    the positive right Perron vector (max entry 1, indexed like the block's
    ``nodes``)."""

    root: float
    lo: float
    hi: float
    vector: np.ndarray | None = None


def irreducible_blocks(n: int, src: np.ndarray, dst: np.ndarray) -> list[Block]:
    """Non-trivial strongly connected blocks of the digraph on nodes 0..n-1
    with edges ``src[e] -> dst[e]``, each with its period: the gcd of
    level(u) + 1 - level(v) over the block's edges u -> v, for breadth-first
    levels from any node of the block (Lind & Marcus, section 4.5)."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(src.tolist(), dst.tolist()):
        succ[u].append(v)
    components = tarjan_components(range(n), succ)
    comp_list = [0] * n
    for i, comp in enumerate(components):
        for u in comp:
            comp_list[u] = i
    comp_of = np.array(comp_list, dtype=np.intp)
    inside = np.flatnonzero(comp_of[src] == comp_of[dst])
    if inside.size == 0:
        return []
    inside = inside[np.argsort(comp_of[src[inside]], kind="stable")]
    cids, first = np.unique(comp_of[src[inside]], return_index=True)
    cids = cids.tolist()
    # breadth-first levels inside each block, from its least node
    level = [-1] * n
    for cid in cids:
        root = min(components[cid])
        level[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in succ[u]:
                    if level[v] < 0 and comp_list[v] == cid:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
    levels = np.array(level, dtype=np.intp)
    local = np.empty(n, dtype=np.intp)
    blocks = []
    for cid, edges in zip(cids, np.split(inside, first[1:])):
        nodes = np.array(sorted(components[cid]), dtype=np.intp)
        es, ed = src[edges], dst[edges]
        period = int(np.gcd.reduce(np.abs(levels[es] + 1 - levels[ed])))
        local[nodes] = np.arange(len(nodes))
        blocks.append(Block(nodes, edges, local[es], local[ed], period))
    return blocks


def _root(r: float, exponent: int, p: int) -> float:
    """The p-th root of r * 2^exponent, exact for p = 1 and without
    overflow for large exponents."""
    if p == 1:
        return math.ldexp(r, exponent)
    return 2.0 ** ((math.log2(r) + exponent) / p)


def perron(
    block: Block,
    weight: np.ndarray,
    tol: float = DEFAULT_SPECTRAL_TOL,
    max_steps: int | None = None,
    vector: bool = False,
) -> Perron:
    """Certified Perron root (and optionally vector) of the block's matrix
    B, whose (i, j) entry sums ``weight[e]`` over the block's edges i -> j.

    With p the block's period, B^p restricted to each cyclic class is
    primitive, so iterating x <- B^p x from x = 1 converges on every class
    without the B + I shift (which stalls on long cycles).  Each product is
    one ``np.bincount`` over the block's edges, O(transitions), rescaled by
    a power of two (exactly) to stay in range.  For positive x,
    min_i (B^p x)_i / x_i <= rho^p <= max_i (B^p x)_i / x_i (Collatz-
    Wielandt); the iteration stops once that bracket's relative width is at
    most ``tol``, so the root's bracket is p times narrower still.  When
    ``vector`` is set, B's Perron vector is recovered as
    sum_{j<p} (B/rho)^j x and its residual max |Bv - rho v| / rho, with
    max v = 1, must also be at most ``tol``; otherwise iteration goes on.

    Raises :class:`NotConvergedError` when more than ``max_steps`` products
    (default ``_MAX_PERRON_STEPS``) would be needed or an entry underflows;
    it never returns an uncertified value.
    """
    if max_steps is None:
        max_steps = _MAX_PERRON_STEPS
    m, p = len(block.nodes), block.period
    src, dst, w = block.src, block.dst, weight[block.edges]

    def apply(x: np.ndarray) -> np.ndarray:
        return np.bincount(src, weights=w * x[dst], minlength=m)

    x = np.ones(m)
    steps = 0
    while steps + p <= max_steps:
        y, exponent = x, 0
        for _ in range(p):
            y = apply(y)
            e = math.frexp(float(y.max()))[1]
            y = np.ldexp(y, -e)
            exponent += e
        steps += p
        if not y.min() >= _TINY:
            raise NotConvergedError(
                f"Perron iteration on a {m}-state block underflowed after"
                f" {steps} steps"
            )
        ratios = y / x
        r_lo, r_hi = float(ratios.min()), float(ratios.max())
        x = y
        if r_hi - r_lo > tol * r_hi:
            continue
        lo, hi = _root(r_lo, exponent, p), _root(r_hi, exponent, p)
        root = (lo + hi) / 2
        if not vector:
            return Perron(root, lo, hi)
        v, term = x.copy(), x
        for _ in range(p - 1):
            term = apply(term) / root
            v += term
        v /= v.max()
        residual = float(np.max(np.abs(apply(v) - root * v))) / root
        if residual <= tol and v.min() >= _TINY:
            return Perron(root, lo, hi, v)
    raise NotConvergedError(
        f"Perron iteration on a {m}-state block of period {p} did not"
        f" converge to tolerance {tol:.3g} within {max_steps} steps"
    )


def max_root(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
    tol: float = DEFAULT_SPECTRAL_TOL,
) -> float:
    """Largest certified Perron root over the blocks of a weighted edge
    list; exactly 0.0 when the digraph has no cycle."""
    return max(
        (perron(b, weight, tol).root for b in irreducible_blocks(n, src, dst)),
        default=0.0,
    )


def spectral_radius(
    m: CountMatrix | np.ndarray, tol: float = DEFAULT_SPECTRAL_TOL
) -> float:
    """Perron root of a nonnegative square matrix to relative tolerance.

    Accepts a :class:`CountMatrix` or a square float array, converted to an
    edge list of its positive entries.  The radius is the maximum over the
    strongly connected blocks (see :func:`perron`), with cycle-free blocks
    contributing exactly 0, so nilpotent matrices return 0.0 exactly.
    """
    if isinstance(m, CountMatrix):
        array = m.to_numpy()
    else:
        array = np.asarray(m, dtype=float)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise ValueError("matrix must be square")
        if np.any(array < 0):
            raise ValueError("matrix entries must be nonnegative")
    src, dst = np.nonzero(array > 0)
    return max_root(array.shape[0], src, dst, array[src, dst], tol)


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
    e = a.edges if _is_deterministic(a) else _subset_construction(a, cap)[1]
    return math.log(max_root(e.n, e.src, e.dst, np.ones(len(e.src))))


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
