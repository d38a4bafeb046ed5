"""Hausdorff and box-counting dimension of the recognized point set.

Both dimensions reduce to entropies of cycle languages: the Hausdorff
dimension maximizes over accept states on cycles, the box-counting
dimension over all states on cycles, each normalized by log k.  The closed
case collapses to a single prefix-language entropy.  The critical exponent
of a strongly connected block, the unit-spectral-radius root of its
transfer matrix, is its cycle entropy over log k, clamped to [0, d].
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .core import (
    DEFAULT_ENUMERATION_CAP,
    Automaton,
    DigitVector,
    Word,
    _accepting,
    _bits,
    _is_deterministic,
    _prefix_graph,
    _reach,
    _reached,
    _single_block,
    _successor_table,
    require_trim,
)
from .errors import ArityError, NotTrimError
from .spectral import _block_root

#: Guard band for dimension comparisons, an order of magnitude above the
#: spectral tolerance the underlying quantities are computed to.
REPORT_TOL = 1e-9


@dataclass(frozen=True)
class DimensionReport:
    """Dimensions plus the per-state cycle entropies they maximize over.

    ``per_state`` maps each state lying on a cycle to the entropy of its
    cycle language (natural log), in declaration order.  The value is
    computed once per strongly connected component and shared by all its
    states (see :func:`cycle_entropies` for why it is constant there).
    Witnesses are the first states, in declaration order, attaining each
    maximum.
    """

    arity: int
    hausdorff: float
    box: float
    per_state: dict[str, float]
    hausdorff_witness: str
    box_witness: str
    gap: bool

    def __post_init__(self) -> None:
        if self.hausdorff > self.box + REPORT_TOL:
            raise ValueError("hausdorff dimension cannot exceed box dimension")
        if not (-REPORT_TOL <= self.hausdorff and self.box <= self.arity + REPORT_TOL):
            raise ValueError("dimensions must lie in [0, arity]")


@dataclass(frozen=True)
class DensityReport:
    """Topological classification of a unary recognized set."""

    nowhere_dense: bool
    somewhere_dense: bool
    dense_codense_on_interval: tuple[Fraction, Fraction] | None
    witness_state: str | None = None
    witness_prefix: Word | None = None


def cycle_entropies(a: Automaton, cap: int = DEFAULT_ENUMERATION_CAP) -> dict[str, float]:
    """Entropy of the cycle language of every state that lies on a cycle,
    keyed in declaration order.

    The entropy is the same for all states of a strongly connected
    component: for q, p in one component with words u: q -> p and
    v: p -> q, the map w -> v w u injects the cycle language of q into that
    of p (and symmetrically), so the two grow at the same rate, which is
    also that of the words with a run inside the component.  It is
    therefore computed once per block of :attr:`Automaton.sccs`, by the
    routine whose maximum :func:`~omegafract.spectral.entropy` takes: the
    block's own counting matrix when it is deterministic, else the
    determinization of its edges from all its states or, when that probe
    is dropped, from its first state in declaration order, with at most
    ``cap`` subsets.
    """
    require_trim(a)
    d = a.sccs
    per_component = {
        c: math.log(_block_root(a.edges, block, cap)) for c, block in d.blocks.items()
    }
    return {
        q: per_component[c]
        for q, c in zip(a.states, d.component_of.tolist())
        if c in per_component
    }


def _witnessed_dimension(
    a: Automaton, entropies: dict[str, float], accept_only: bool
) -> tuple[str, float]:
    """First state in declaration order attaining the maximum cycle entropy
    over the accept states on cycles (``accept_only``) or over all states on
    cycles, and that maximum divided by log k."""
    candidates = [q for q in entropies if not accept_only or q in a.accept]
    witness = max(candidates, key=entropies.__getitem__)  # the first maximum
    return witness, entropies[witness] / math.log(a.base)


def dimension_report(a: Automaton, cap: int = DEFAULT_ENUMERATION_CAP) -> DimensionReport:
    """Full dimension analysis in one pass over the cycle entropies."""
    entropies = cycle_entropies(a, cap=cap)
    h_witness, hausdorff = _witnessed_dimension(a, entropies, accept_only=True)
    b_witness, box = _witnessed_dimension(a, entropies, accept_only=False)
    return DimensionReport(
        arity=a.arity,
        hausdorff=hausdorff,
        box=box,
        per_state=entropies,
        hausdorff_witness=h_witness,
        box_witness=b_witness,
        gap=box - hausdorff > REPORT_TOL,
    )


def mw_alpha(a: Automaton) -> float:
    """Critical exponent of a strongly connected automaton: the root
    alpha in [0, d] of sprad(transfer(alpha)) = 1.

    The transfer-matrix entries are string-faithful only when runs and
    words are in bijection, so nondeterministic inputs are determinized on
    their prefix language first.  Since transfer(alpha) = k^(-alpha) * C
    with C the integer counting matrix, the root is log sprad(C) / log k,
    clamped to [0, d].  The growth rate of a strongly connected block does
    not depend on where it is entered, so log sprad(C) is the block's
    cycle entropy, one certified root (see :func:`cycle_entropies`).
    """
    block = _single_block(a, "critical exponent")
    root = _block_root(a.edges, block, DEFAULT_ENUMERATION_CAP)
    return _critical_exponent(math.log(root), a)


def _critical_exponent(h: float, a: Automaton) -> float:
    """Critical exponent of a block of ``a`` with cycle entropy ``h``
    (natural log): h / log k clamped to [0, d].  The endpoints are returned
    exactly, since neither log(k^d) / log k nor a quotient just below it
    need round to d."""
    if h <= 0.0:
        return 0.0
    if h >= math.log(a.base**a.arity):
        return float(a.arity)
    return min(h / math.log(a.base), float(a.arity))


# ---------------------------------------------------------------------------
# density classification (unary sets)
# ---------------------------------------------------------------------------


def _shortest_word_to(a: Automaton, target: str) -> Word:
    """Shortest word labeling a run from a start state to ``target``: the
    first found by a breadth-first search from the start states in name
    order that tries each state's transitions in ``transitions`` order."""
    if target in a.start:
        return ()
    goal = a.state_index[target]
    starts = [a.state_index[q] for q in sorted(a.start)]
    table = _successor_table(a.edges)
    parent: list[tuple[int, int] | None] = [None] * len(a.states)
    seen = [False] * len(a.states)
    for q in starts:
        seen[q] = True
    frontier = deque(starts)
    while frontier and parent[goal] is None:
        q = frontier.popleft()
        for c, dsts in enumerate(table[q]):
            for dst in dsts:
                if not seen[dst]:
                    seen[dst] = True
                    parent[dst] = (q, c)
                    frontier.append(dst)
    if parent[goal] is None:
        raise NotTrimError(f"state {target!r} is unreachable")
    word: list[DigitVector] = []
    step = parent[goal]
    while step is not None:
        node, c = step
        word.append(a.symbols_used[c])
        step = parent[node]
    word.reverse()
    return tuple(word)


def _complete_cycle_states(a: Automaton, cap: int) -> list[str]:
    """States on cycles whose cycle-prefix set is complete, in declaration
    order.

    A state's cycle-prefix set is the prefix language of its block rooted
    at it, so it is complete iff no node its root reaches in the block's
    prefix graph is missing an outgoing digit.  Each block gets one prefix
    graph, rooted at all its nodes at once (see
    :func:`~omegafract.core._prefix_graph`; the union of a
    nondeterministic block's constructions counts against ``cap`` once per
    block), and one backward sweep over that graph's condensation from its
    short nodes (see :func:`~omegafract.core._reach`).  A graph with no
    short node is complete at every root, without the sweep.
    """
    e, full = a.edges, a.base**a.arity
    complete = np.zeros(len(a.states), dtype=bool)
    for block in a.sccs.blocks.values():
        p, pd, roots = _prefix_graph(e, block, None, cap)
        short = np.bincount(p.src, minlength=p.n) < full
        if not short.any():
            complete[block.nodes] = True
        else:
            complete[block.nodes] = ~_reach(p, pd, short, backward=True)[roots]
    return [a.states[q] for q in np.flatnonzero(complete).tolist()]


def density_classifier(
    a: Automaton, cap: int = DEFAULT_ENUMERATION_CAP
) -> DensityReport:
    """Classify a unary recognized set as nowhere dense or somewhere dense,
    certifying dense-and-codense-on-an-interval where possible.

    The set is dense in some interval iff some state q on a cycle has a
    complete cycle-prefix set (:func:`_complete_cycle_states`, decided
    once per block); the access word u to q then pins the interval
    [nu(u0...), nu(u(k-1)...)].  Codensity on that interval is certified
    by a dimension defect: if the sub-automaton rerooted below u has
    Hausdorff dimension < 1 its points are Lebesgue-null there, so the
    complement is dense.  (A dense part of full dimension is reported as
    not codense; the full dichotomy needs machinery beyond this tool.)
    Since ``a`` is trim, that sub-automaton keeps exactly the states
    reachable from the run set of u: whole blocks of ``a``, with their
    cycle entropies unchanged.  So its dimension is the largest
    :func:`cycle_entropies` value of an accepting block among them,
    computed once per block and only for the blocks read, with no
    rerooted automaton built.  ``cap`` bounds each block's prefix graph,
    all its roots together, and each determinization of an entropy.
    """
    if a.arity != 1:
        raise ArityError("density classification is defined for arity 1")
    require_trim(a)
    deterministic = _is_deterministic(a)
    witnesses = _complete_cycle_states(a, cap)
    if not witnesses:
        return DensityReport(
            nowhere_dense=True,
            somewhere_dense=False,
            dense_codense_on_interval=None,
        )
    # On a deterministic automaton a complete component has all k digits
    # inside it at every state, so no run leaves it; trimness then puts an
    # accept state in it, and the automaton rerooted at any of its states
    # has Hausdorff dimension 1.  The dimension defect never certifies
    # codensity there, so only NFAs are checked.
    candidates = [] if deterministic else witnesses
    accepting = _accepting(a)
    blocks = [b for b in a.sccs.blocks.values() if accepting[b.nodes].any()]
    block_entropy = cache(lambda i: math.log(_block_root(a.edges, blocks[i], cap)))
    for q in candidates:
        u = _shortest_word_to(a, q)
        kept = _reach(a.edges, a.sccs, _bits(_reached(a, u)), backward=False)
        best = max(block_entropy(i) for i, b in enumerate(blocks) if kept[b.nodes[0]])
        if best / math.log(a.base) < 1.0 - REPORT_TOL:
            left = Fraction(0)
            for i, sym in enumerate(u):
                left += Fraction(sym[0], a.base ** (i + 1))
            right = left + Fraction(1, a.base ** len(u))
            return DensityReport(
                nowhere_dense=False,
                somewhere_dense=True,
                dense_codense_on_interval=(left, right),
                witness_state=q,
                witness_prefix=u,
            )
    return DensityReport(
        nowhere_dense=False,
        somewhere_dense=True,
        dense_codense_on_interval=None,
        witness_state=witnesses[0],
        witness_prefix=_shortest_word_to(a, witnesses[0]),
    )
