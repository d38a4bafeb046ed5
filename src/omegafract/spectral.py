"""The certified Perron solver and entropy of prefix languages.

Entropy here is the exponential growth rate, in natural-log units, of the
number of distinct length-n prefixes of the accepted language.  For a trim
automaton that rate is the largest over its strongly connected blocks of
the growth rate of the words with a run inside the block (Lind & Marcus,
section 4.4).  A block with at most one edge per node and symbol counts
those words with its own integer counting matrix; any other block is
first determinized on its own edges, so strings are counted rather than
runs, with at most ``cap`` subsets per block.

Every Perron root and vector in the package comes from one routine,
:func:`perron`, working on the integer counting matrix of one block of an
edge list (``src``/``dst`` node arrays, one unit per edge, parallel edges
counted) rather than on a dense matrix.  The blocks are the non-trivial
strongly connected components of :attr:`~omegafract.core.Automaton.sccs`
(or, after a subset construction, of the condensation of its edges), each
with its period p and cyclic classes.  The solver seeds, then certifies.
The certificate is the Collatz-Wielandt bracket of B^p on cyclic class 0,
which holds for any positive vector: iteration x <- B^p x stops once the
bracket has relative width at most the tolerance, and, when asked, B's
Perron vector is recovered as sum_{j<p} (B/rho)^j x with a checked
residual.  Each B^p is one sweep over the classes p-1 -> 0, one
``np.bincount`` over each class's own edges and one exact integer scalar
for a run of one-node classes, so it costs O(transitions + p).  Only the
start is chosen for speed: on blocks of at most ``_DENSE_SEED_NODES``
nodes it is the row sums of the dense B^p on class 0 squared until they
settle, and every power of B so reached counts against the step cap.
Hitting the cap or an underflowing entry raises
:class:`~omegafract.errors.NotConvergedError`; no unconverged value is
returned.  No dense counting or transfer matrix is built, and every solve
is of a counting matrix C: the transfer matrix at exponent alpha is
k^(-alpha) C, with root k^(-alpha) rho(C) and the same Perron vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_ENUMERATION_CAP,
    Automaton,
    Block,
    EdgeList,
    _block_edges,
    _condensation,
    _deterministic,
    _Dropped,
    _subset_construction,
    prefix_count,
    require_trim,
)
from .errors import NotConvergedError, ValidationError

DEFAULT_SPECTRAL_TOL = 1e-12

#: Matrix-vector products one Perron solve may spend before it gives up.
_MAX_PERRON_STEPS = 500_000

#: Blocks of at most this many nodes start from a dense-squaring seed;
#: above it a dense product costs more than the iteration it saves.
_DENSE_SEED_NODES = 160

#: Entries below the smallest normal float count as underflowed.
_TINY = np.finfo(float).tiny


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


def _scalar_product(factors: np.ndarray) -> tuple[float, int]:
    """The product of the positive integer ``factors`` as (mantissa,
    exponent), exact up to one final rounding."""
    ints = factors.astype(object)
    while len(ints) > 1:  # pairwise, so that few products are large
        if len(ints) % 2:
            ints = np.append(ints, 1)
        ints = ints[0::2] * ints[1::2]
    n = int(ints[0])
    e = n.bit_length()
    return n / (1 << e), e


class _ClassSweep:
    """B^p of a block of period p, applied to a vector on cyclic class 0.

    Every edge runs from class c to class c + 1, so (B^p x) on class 0 is
    one sweep over the classes p-1, ..., 0: the values on class c are one
    ``np.bincount`` over class c's own edges of the values on class c + 1.
    A run of one-node classes, each feeding a one-node class, multiplies by
    one scalar, the exact product of its edge counts taken once.  One
    application therefore costs O(transitions + p), and a ring's root is
    exact.  The sweep numbers the nodes by class (stably, so class 0 is in
    block order), which makes each class one slice.  A block of period 1
    and several nodes is one class in block order, one bincount over the
    block's own edges, so it needs no renumbering.
    """

    def __init__(self, block: Block) -> None:
        m, p = len(block.nodes), block.period
        if p == 1 and m > 1:  # one class, in block order: the block's edges
            self.order = np.arange(m)
            self.m = self.n0 = m
            self.stages = [("bincount", slice(0, m), block.src, block.dst, m)]
            return
        classes = block.classes
        self.order = np.argsort(classes, kind="stable")
        rank = np.empty(m, dtype=np.intp)
        rank[self.order] = np.arange(m)
        bounds = np.concatenate(([0], np.cumsum(np.bincount(classes, minlength=p))))
        edge_class = classes[block.src]
        by_class = np.argsort(edge_class, kind="stable")
        src = (rank[block.src] - bounds[edge_class])[by_class]
        dst = rank[block.dst][by_class]
        row_count = np.bincount(edge_class, minlength=p)
        edge_bounds = np.concatenate(([0], np.cumsum(row_count))).tolist()
        starts = bounds.tolist()
        single = [starts[c + 1] - starts[c] == 1 for c in range(p)]
        self.m, self.n0 = m, starts[1]
        self.stages = []
        c = p - 1
        while c >= 0:
            if single[c] and single[(c + 1) % p]:
                top = c
                while c >= 0 and single[c] and single[(c + 1) % p]:
                    c -= 1
                run = np.arange(top, c, -1)
                factors = row_count[run]
                self.stages.append(
                    (
                        "scalar",
                        bounds[run],
                        starts[(top + 1) % p],
                        factors,
                        *_scalar_product(factors),
                    )
                )
                continue
            edges = slice(edge_bounds[c], edge_bounds[c + 1])
            self.stages.append(
                (
                    "bincount",
                    slice(starts[c], starts[c + 1]),
                    src[edges],
                    dst[edges],
                    starts[c + 1] - starts[c],
                )
            )
            c -= 1

    def apply(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """B^p x on class 0 as (y, exponent), y * 2^exponent exactly, each
        class rescaled by a power of two to stay in range."""
        z = np.empty(self.m)
        z[: self.n0] = x
        exponent = 0
        for stage in self.stages:
            if stage[0] == "scalar":
                _, nodes, source, _, mantissa, e_run = stage
                value, e = math.frexp(float(z[source]) * mantissa)
                z[nodes[-1]] = value
                exponent += e + e_run
            else:
                _, out, src, dst, n = stage
                y = np.bincount(src, weights=z[dst], minlength=n)
                e = math.frexp(float(y.max()))[1]
                z[out] = np.ldexp(y, -e)
                exponent += e
        return z[: self.n0], exponent

    def vector(self, x: np.ndarray, root: float) -> np.ndarray:
        """sum_{j<p} (B/root)^j x over the whole block, in block order: x
        on class 0 and (B/root)^(p-c) x on class c, from one sweep."""
        v = np.empty(self.m)
        v[: self.n0] = x
        with np.errstate(over="ignore"):
            for stage in self.stages:
                if stage[0] == "scalar":
                    _, nodes, source, factors, _, _ = stage
                    v[nodes] = v[source] * np.cumprod(factors / root)
                else:
                    _, out, src, dst, n = stage
                    v[out] = np.bincount(src, weights=v[dst], minlength=n) / root
        v[: self.n0] = x
        in_block_order = np.empty(self.m)
        in_block_order[self.order] = v
        return in_block_order


def _dense_seed(
    block: Block, tol: float, max_steps: int
) -> tuple[np.ndarray | None, int]:
    """Start vector M^(2^s) 1 for a small block, with M the dense matrix of
    B^p on cyclic class 0, returned with the power of B it reached,
    p 2^s.  M is squared, rescaled by its max, until the max-normalized
    row sums change by at most ``tol`` or one more squaring would leave
    ``max_steps`` no room for a step of the certified iteration.  None
    when the result is not finite or underflows."""
    m, p = len(block.nodes), block.period
    if 2 * p > max_steps:
        return None, 0
    dense = np.bincount(block.src * m + block.dst, minlength=m * m)
    dense = dense.reshape(m, m).astype(float)
    if p == 1:
        mat = dense
    else:
        members = [np.flatnonzero(block.classes == c) for c in range(p)]
        mat = np.eye(len(members[0]))
        for c in range(p - 1, -1, -1):
            mat = dense[np.ix_(members[c], members[(c + 1) % p])] @ mat
            mat /= mat.max()
    power = p
    rows = mat.sum(axis=1)
    rows /= rows.max()
    with np.errstate(all="ignore"):
        while 2 * power + p <= max_steps:
            mat = mat @ mat
            mat /= mat.max()
            power *= 2
            new = mat.sum(axis=1)
            new /= new.max()
            change = float(np.max(np.abs(new - rows)))
            rows = new
            if not change > tol:  # converged, or not finite
                break
    if not (np.isfinite(rows).all() and rows.min() >= _TINY):
        return None, 0
    return rows, power


def perron(
    block: Block, tol: float = DEFAULT_SPECTRAL_TOL, vector: bool = False
) -> Perron:
    """Certified Perron root (and optionally vector) of the block's
    counting matrix B, whose (i, j) entry is the number of the block's
    edges i -> j.  The transfer matrix at exponent alpha, k^(-alpha) B,
    has root k^(-alpha) rho and the same vector.

    Seed, then certify.  With p the block's period, B^p restricted to
    cyclic class 0 is primitive, so iterating x <- B^p x on that class
    converges without the B + I shift (which stalls on long cycles).  Each
    product is one sweep over the classes (see :class:`_ClassSweep`),
    O(transitions + p), rescaled by powers of two (exactly) to stay in
    range.  For positive x, min_i (B^p x)_i / x_i <= rho^p <=
    max_i (B^p x)_i / x_i (Collatz-Wielandt); the iteration stops once
    that bracket's relative width is at most ``tol``, so the root's
    bracket is p times narrower still.  The bracket holds for any positive
    x, so only the start is chosen for speed: x = 1, or, on a block of at
    most ``_DENSE_SEED_NODES`` nodes, the row sums of a repeatedly squared
    dense B^p (see :func:`_dense_seed`), whose p 2^s products count
    against the step cap.  For p > 1, and when ``vector`` is set, B's
    Perron vector is recovered as sum_{j<p} (B/rho)^j x; no root is
    returned when that vector underflows, and when ``vector`` is set its
    residual max |Bv - rho v| / rho, with max v = 1, must also be at most
    ``tol``; otherwise iteration goes on.

    Raises :class:`NotConvergedError` when more than ``_MAX_PERRON_STEPS``
    products, read at each call, would be needed or an entry underflows;
    it never returns an uncertified value.
    """
    max_steps = _MAX_PERRON_STEPS
    m, p = len(block.nodes), block.period
    sweep = _ClassSweep(block)
    x, steps = None, 0
    if m <= _DENSE_SEED_NODES and sweep.n0 > 1:
        x, steps = _dense_seed(block, tol, max_steps)
    if x is None:
        x = np.ones(sweep.n0)
    while steps + p <= max_steps:
        y, exponent = sweep.apply(x)
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
        if p == 1 and not vector:
            return Perron(root, lo, hi)
        v = sweep.vector(x, root)
        with np.errstate(invalid="ignore"):
            v /= v.max()
        if not v.min() >= _TINY:
            raise NotConvergedError(
                f"Perron vector of a {m}-state block of period {p} underflowed"
            )
        if not vector:
            return Perron(root, lo, hi)
        bv = np.bincount(block.src, weights=v[block.dst], minlength=m)
        residual = float(np.max(np.abs(bv - root * v))) / root
        if residual <= tol:
            return Perron(root, lo, hi, v)
    raise NotConvergedError(
        f"Perron iteration on a {m}-state block of period {p} did not"
        f" converge to tolerance {tol:.3g} within {max_steps} steps"
    )


# ---------------------------------------------------------------------------
# entropy and the enumeration cross-check
# ---------------------------------------------------------------------------


def _block_root(e: EdgeList, block: Block, cap: int) -> float:
    """Certified Perron root whose logarithm is the growth rate of the
    words with a run inside ``block`` of ``e``.

    Every nonempty set of the block's nodes, as the start of such runs,
    gives the same growth rate, since the block is irreducible (Lind &
    Marcus, section 4.4), so the cheaper of two is used.  A block with at
    most one edge per node and symbol is its own deterministic counting
    graph.  Any other block first
    tries the subset construction of its own edges from all its nodes,
    which stays small when every image of the full set is large.  That
    probe is dropped at the first subset of fewer than half the block's
    nodes, or once it would hold more subsets than the block has edges or
    than ``cap``.  A dropped block is determinized from its first node, as
    in :func:`~omegafract.core._prefix_graph`, with at most ``cap``
    subsets.
    """
    b = _block_edges(e, block)
    if _deterministic(b):
        return perron(block).root
    n = len(block.nodes)
    try:
        full = [(1 << n) - 1]
        d = _subset_construction(b, full, min(cap, len(b.src)), (n + 1) // 2)[1]
    except _Dropped:
        d = _subset_construction(b, [1], cap)[1]
    return max(perron(c).root for c in _condensation(d).blocks.values())


def entropy(a: Automaton, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Growth rate of the number of distinct prefixes, in natural-log units.

    The prefix language of a trim automaton grows at the largest rate of
    the words with a run inside one of its strongly connected blocks (Lind
    & Marcus, section 4.4), so this is log of the largest
    :func:`_block_root` over the blocks of :attr:`Automaton.sccs`: one
    Perron root of an integer counting matrix per block, of the block
    itself when it is deterministic, else of a determinization of the
    block alone, with at most ``cap`` subsets each.  The value lies in
    [0, d * log k] and equals the entropy of the accepted infinite-word
    language.
    """
    require_trim(a)
    e = a.edges
    return math.log(max(_block_root(e, b, cap) for b in a.sccs.blocks.values()))


def entropy_estimate(a: Automaton, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """log(number of distinct length-n prefixes) / n, by brute-force
    enumeration: a string-counting oracle independent of the matrix
    machinery.  Converges to :func:`entropy` as n grows."""
    require_trim(a)
    if n < 1:
        raise ValidationError("estimate needs depth >= 1")
    return math.log(prefix_count(a, n, cap=cap)) / n
