"""Hausdorff measure in the critical dimension.

The accepted language of an unambiguous automaton partitions by key state:
the state at which the unique accepting run permanently enters a strongly
connected component.  Each part contributes the measure of that component's
set, scaled by a geometric series over the key prefixes leading to it; the
measure of a closed strongly connected component itself comes from the
Perron eigenvector of its transfer matrix at the critical exponent, which
is k^(-alpha) times its integer counting matrix and shares its vector.  That
exponent alpha, the Hausdorff dimension, and the per-state cycle entropies
are read from :func:`~omegafract.dimension.dimension_report`.

Components are the blocks of ``Automaton.sccs``, the one decomposition of
``Automaton.edges``.  The key-prefix series of every state come from one
sweep over that condensation in topological order: each component passes
the weighted count of the paths reaching it along the edges that leave
it, with one linear solve of its own size per block.  Each keyed block
has one prefix graph, rooted at all its key states and determinized under
the caller's cap, and one sweep over its components, sinks first, gives
the measure at every root.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_ENUMERATION_CAP,
    Automaton,
    Block,
    Condensation,
    EdgeList,
    _accepting,
    _between,
    _nodes,
    _prefix_graph,
    _single_block,
    _start_mask,
    check_unambiguous,
    require_trim,
)
from .dimension import REPORT_TOL, dimension_report
from .errors import AmbiguousError, NonCriticalExponentWarning, ValidationError
from .spectral import perron

#: Residual tolerance of the Perron vector behind a component measure (see
#: :func:`omegafract.spectral.perron`).
_EIGENVECTOR_TOL = 1e-13


@dataclass(frozen=True)
class ComponentMeasure:
    """One key state's contribution to the total measure."""

    scc_measure: float
    prefix_series: float
    component_measure: float
    scc_dimension: float


@dataclass(frozen=True)
class MeasureReport:
    """Measure of the recognized set at its critical dimension ``alpha``.

    ``total`` is the sum of the per-key-state component measures, with
    infinity absorbing.  Values may be 0, positive finite, or ``math.inf``.
    """

    alpha: float
    per_key_state: dict[str, ComponentMeasure]
    total: float


def scc_measure(a: Automaton, alpha: float) -> float:
    """Measure at exponent ``alpha`` of the closed set recognized by a
    strongly connected automaton, read off the Perron eigenvector of its
    transfer matrix.

    The eigenvector equation expresses each state's measure as the
    k^(-alpha)-weighted sum of its successors' measures, so it is valid
    when runs and words coincide; nondeterministic inputs are determinized
    on their prefix language first (the closure of a closed set is itself),
    summed over its components when that splits (see :func:`_closed_measures`).
    Returns the measure of the start state's set, in [0, 1] for strongly
    connected deterministic input, when the radius is 1 to within 1e-9.
    Away from that critical value the measure degenerates: 0 below,
    infinity above, each reported with a
    :class:`NonCriticalExponentWarning`.
    """
    block = _single_block(a, "component measure")
    if alpha < 0:
        raise ValidationError("exponent must be nonnegative")
    p, pd, (root,) = _prefix_graph(
        a.edges, block, [_start_mask(a)], DEFAULT_ENUMERATION_CAP
    )
    measures, radius = _closed_measures(a.base, p, pd, alpha)
    if abs(radius - 1.0) > REPORT_TOL:
        warnings.warn(
            f"transfer radius {radius:.12g} differs from 1: exponent"
            f" {alpha:.12g} is not this component's critical dimension",
            NonCriticalExponentWarning,
            stacklevel=2,
        )
    return float(measures[root])


def _closed_measures(
    base: int, p: EdgeList, pd: Condensation, alpha: float
) -> tuple[np.ndarray, float]:
    """Measure at exponent ``alpha`` of the closed set that the prefix graph
    ``p``, with condensation ``pd``, recognizes from each node, and the
    largest transfer radius of its blocks: 0 everywhere below radius 1,
    infinity above (off by more than 1e-9).  With x = k^(-alpha), a block
    with counting matrix B has transfer matrix x B, so its transfer radius
    is x rho(B) and its Perron vector that of B.  The measure at a node v
    of component C is C's Perron vector at v, max entry 1, if C is a block
    of radius 1, else 0, plus the x^length-weighted measures at the ends of
    the paths from v that leave C by their last edge.  One sweep over the
    components, sinks first, adds that sum: the outflow of a trivial
    component, or on a block the solution of (I - x B) y = outflow (see
    :func:`_series_solve`), which is infinite on a block of radius 1 that
    some edge leaves."""
    x = float(base) ** (-alpha)
    measures = np.zeros(p.n)
    radius = 0.0
    critical = set()
    for c, block in pd.blocks.items():
        solve = perron(block, _EIGENVECTOR_TOL, vector=True)
        transfer = x * solve.root
        radius = max(radius, transfer)
        if abs(transfer - 1.0) <= REPORT_TOL:
            measures[block.nodes] = solve.vector
            critical.add(c)
    if abs(radius - 1.0) > REPORT_TOL:
        return np.full(p.n, 0.0 if radius < 1.0 else math.inf), radius
    for c, edges in reversed(_leaving(p, pd)):
        heads = measures[p.dst[edges]]
        block = pd.blocks.get(c)
        if block is None:
            measures[p.src[edges[0]]] = x * heads.sum()
            continue
        tails = np.searchsorted(block.nodes, p.src[edges])
        outflow = x * np.bincount(tails, heads, minlength=len(block.nodes))
        if c in critical and outflow.any():
            measures[block.nodes] = math.inf
        elif outflow.any():
            measures[block.nodes] += _series_solve(block, outflow, x, transpose=False)
    return measures, radius


# ---------------------------------------------------------------------------
# key prefixes
# ---------------------------------------------------------------------------


def _entered(e: EdgeList, d: Condensation, starts: list[int]) -> np.ndarray:
    """Mask of the nodes that can key a run: the start nodes and the heads
    of the edges of ``e`` between two components of its condensation
    ``d``."""
    comp = d.component_of
    entered = np.zeros(e.n, dtype=bool)
    entered[e.dst[comp[e.src] != comp[e.dst]]] = True
    entered[starts] = True
    return entered


def _leaving(e: EdgeList, d: Condensation) -> list[tuple[int, np.ndarray]]:
    """The edges of ``e`` between two components of its condensation
    ``d``, grouped by the component they leave: (component, edge numbers)
    pairs in topological order, each group in edge order (see
    :func:`~omegafract.core._between`)."""
    leaving = _between(e, d)
    if not len(leaving):
        return []
    tails, first = np.unique(d.component_of[e.src[leaving]], return_index=True)
    return list(zip(tails.tolist(), np.split(leaving, first[1:])))


def _series_solve(
    block: Block, rhs: np.ndarray, x: float, transpose: bool
) -> np.ndarray | float:
    """Solution y of (I - x B) y = ``rhs`` on ``block``, with B its counting
    matrix (B^T when ``transpose``), by one dense solve; or infinity on the
    block when ``rhs`` is infinite.  The caller decides that the series of
    x^n B^n converges."""
    if np.isinf(rhs).any():
        return math.inf
    matrix = np.eye(len(block.nodes))
    rows, cols = (block.dst, block.src) if transpose else (block.src, block.dst)
    np.add.at(matrix, (rows, cols), -x)
    return np.linalg.solve(matrix, rhs)


def _key_prefix_series(
    e: EdgeList, d: Condensation, starts: list[int], base: int, alpha: float
) -> np.ndarray:
    """Key-prefix series of every node q of ``e``: the sum of
    k^(-alpha * |u|) over the paths u from a start node to q that do not
    touch q's component before their last node, with ``d`` the
    condensation of ``e``.  On an unambiguous graph paths and words
    coincide.

    The condensation is a DAG, so a path to a node u outside q's
    component C never touched C: with x = k^(-alpha) and F(u) the sum of
    x^|w| over all paths w from a start to u, series(q) = [q is a start]
    + x * sum F(u) over the edges u -> q entering C.  One sweep over the
    components in topological order pushes F along those edges: F is the
    series on a trivial component, and on a block with counting matrix B
    the solution of (I - x B^T) F = series, or infinity on the block (and
    so downstream) when its inflow is infinite or rho(B) >= k^alpha.  A
    component no edge leaves needs no F."""
    x = float(base) ** (-alpha)
    limit = float(base) ** alpha - 1e-12
    series = np.zeros(e.n)
    series[starts] = 1.0
    reach = np.zeros(e.n)  # F, on the components some edge leaves
    for c, edges in _leaving(e, d):
        block = d.blocks.get(c)
        if block is None:
            u = int(e.src[edges[0]])
            reach[u] = series[u]
        else:
            inflow = series[block.nodes]
            if np.isinf(inflow).any() or perron(block).root >= limit:
                reach[block.nodes] = math.inf
            else:
                reach[block.nodes] = _series_solve(block, inflow, x, transpose=True)
        np.add.at(series, e.dst[edges], x * reach[e.src[edges]])
    return series


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def hausdorff_measure(
    a: Automaton, cap: int = DEFAULT_ENUMERATION_CAP
) -> MeasureReport:
    """Measure of the recognized set at its own Hausdorff dimension.

    alpha and the per-state cycle entropies come from
    :func:`~omegafract.dimension.dimension_report`.  For every state q
    whose component contains an accept state and is actually entered there
    by some accepting run, the contribution is (key-prefix series at
    alpha) x (component measure at alpha), where the component measure is
    taken on the closure of the component entered at q.  A zero-measure
    component contributes 0 even when its prefix series diverges; a
    positive-measure component with divergent series contributes infinity.
    Every step reads the blocks of :attr:`Automaton.sccs`; the unambiguity
    check builds at most ``cap`` pairs of distinct states, and each keyed
    block has one prefix graph, rooted at all its key states, with at most
    ``cap`` subsets.  Keys come in increasing node order.
    """
    require_trim(a)
    if not check_unambiguous(a, cap=cap):
        raise AmbiguousError("measure decomposition requires an unambiguous automaton")
    report = dimension_report(a, cap=cap)
    alpha, log_k = report.hausdorff, math.log(a.base)
    e, d, starts = a.edges, a.sccs, _nodes(a, a.start)
    comp = d.component_of
    keyed = np.bincount(comp[_accepting(a)], minlength=e.n) > 0
    series = _key_prefix_series(e, d, starts, a.base, alpha)
    keys: dict[int, list[int]] = {}
    for q in np.flatnonzero(_entered(e, d, starts)).tolist():
        c = int(comp[q])
        if c in d.blocks and keyed[c]:
            keys.setdefault(c, []).append(q)
    measure: dict[int, float] = {}
    for c, block_keys in keys.items():
        positions = np.searchsorted(d.blocks[c].nodes, block_keys)
        p, pd, roots = _prefix_graph(e, d.blocks[c], positions, cap)
        measures = _closed_measures(a.base, p, pd, alpha)[0]
        measure.update(zip(block_keys, measures[roots].tolist()))
    per_key_state: dict[str, ComponentMeasure] = {}
    total = 0.0
    for q in sorted(measure):
        m, s = measure[q], float(series[q])
        if m == 0.0:
            contribution = 0.0
        elif math.isinf(s) or math.isinf(m):
            contribution = math.inf
        else:
            contribution = s * m
        name = a.states[q]
        per_key_state[name] = ComponentMeasure(
            scc_measure=m,
            prefix_series=s,
            component_measure=contribution,
            scc_dimension=report.per_state[name] / log_k,
        )
        total += contribution  # inf absorbs
    dims = [cm.scc_dimension for cm in per_key_state.values()]
    if not dims or max(dims) != alpha:
        raise RuntimeError(
            "internal inconsistency: key-state component dimensions do not"
            " attain the Hausdorff dimension"
        )
    return MeasureReport(alpha=alpha, per_key_state=per_key_state, total=total)
