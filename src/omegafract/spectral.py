"""Counting and transfer matrices, the certified Perron solver, and
entropy of prefix languages.

Entropy here is the exponential growth rate, in natural-log units, of the
number of distinct length-n prefixes of the accepted language.  For a
deterministic trim automaton that rate is the logarithm of the Perron root
of the integer counting matrix; nondeterministic inputs are first
determinized as finite automata on their (prefix-closed, regular) prefix
language, so strings are counted rather than runs.

Every Perron root and vector in the package comes from one routine,
:func:`perron`, working on one block of an edge list (``src``/``dst``
node arrays and one weight per edge) rather than on a dense matrix.  The
blocks are the non-trivial strongly connected components of
:attr:`~omegafract.core.Automaton.sccs` (or, after a subset construction,
of :func:`~omegafract.core.irreducible_blocks` on its edges), each with its
period p.  The solver iterates x <- B^p x with ``np.bincount`` products
costing O(transitions) each, stops once the Collatz-Wielandt bracket of
B^p has relative width at most the tolerance, and, when asked, recovers
B's Perron vector as sum_{j<p} (B/rho)^j x with a checked residual.
Hitting the step cap or an underflowing entry raises
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
    Block,
    _is_deterministic,
    _start_mask,
    _subset_construction,
    irreducible_blocks,
    prefix_count,
    require_trim,
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


def transfer_matrix(a: Automaton, s: float) -> CountMatrix:
    """Transfer operator of the digit maps at exponent ``s``: entry (i, j)
    sums (1/k)^s over the c_ij parallel transitions, i.e. c_ij * k^(-s).

    Its unit spectral radius characterizes the critical exponent, since
    every transition contracts the box by 1/k per coordinate.  At s = 0
    the entries are the exact integer transition counts.
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


# ---------------------------------------------------------------------------
# the certified Perron solver
# ---------------------------------------------------------------------------


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


def max_root(blocks, weight: np.ndarray, tol: float = DEFAULT_SPECTRAL_TOL) -> float:
    """Largest certified Perron root over ``blocks`` of one weighted edge
    list; exactly 0.0 when there is no block (the digraph has no cycle)."""
    return max((perron(b, weight, tol).root for b in blocks), default=0.0)


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
    return max_root(irreducible_blocks(array.shape[0], src, dst), array[src, dst], tol)


# ---------------------------------------------------------------------------
# growth, entropy and the enumeration cross-check
# ---------------------------------------------------------------------------


def prefix_growth(a: Automaton, N: int) -> tuple[int, ...]:
    """Exact run counts per length, via big-integer vector iteration over
    per-state counts seeded with the start indicator, one pass over the
    edges per length.

    For deterministic automata the value at n equals the number of distinct
    length-n prefixes; for nondeterministic automata runs are counted, so
    the values over-approximate string counts.
    """
    require_trim(a)
    if N < 0:
        raise ValueError("depth must be nonnegative")
    e = a.edges
    pairs = list(zip(e.src.tolist(), e.dst.tolist()))
    vec = [1 if q in a.start else 0 for q in a.states]
    values = [sum(vec)]
    for _ in range(N):
        nxt = [0] * e.n
        for i, j in pairs:
            nxt[j] += vec[i]
        vec = nxt
        values.append(sum(vec))
    return tuple(values)


def entropy(a: Automaton, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Growth rate of the number of distinct prefixes, in natural-log units.

    Computed as log of the Perron root of the integer counting matrix of
    the prefix-determinized automaton; deterministic inputs are used as-is.
    The value lies in [0, d * log k] and equals the entropy of the accepted
    infinite-word language.
    """
    require_trim(a)
    if _is_deterministic(a):
        e, blocks = a.edges, a.sccs.blocks.values()
    else:
        e = _subset_construction(a.edges, _start_mask(a), cap)[1]
        blocks = irreducible_blocks(e.n, e.src, e.dst)
    return math.log(max_root(blocks, np.ones(len(e.src))))


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
