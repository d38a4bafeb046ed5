"""Hausdorff measure in the critical dimension.

The accepted language of an unambiguous automaton partitions by key state:
the state at which the unique accepting run permanently enters a strongly
connected component.  Each part contributes the measure of that component's
set, scaled by a geometric series over the key prefixes leading to it; the
measure of a closed strongly connected component itself comes from the
Perron eigenvector of its transfer matrix at the critical exponent.

Components are the blocks of ``Automaton.sccs``, the one decomposition of
``Automaton.edges``, entered at their key states and determinized under
the caller's cap; key prefixes form an index set over the same arrays.
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
    _backward_reachable,
    _forward_reachable,
    _nodes,
    _prefix_graph,
    _single_block,
    _start_mask,
    check_unambiguous,
    require_trim,
)
from .dimension import REPORT_TOL, _witnessed_dimension, cycle_entropies
from .errors import (
    AmbiguousError,
    NonCriticalExponentWarning,
    UnreachableStateError,
)
from .spectral import perron

#: Residual tolerance and step cap of the Perron vector behind a component
#: measure (see :func:`omegafract.spectral.perron`).
_EIGENVECTOR_TOL = 1e-13
_MAX_EIGENVECTOR_ITERATIONS = 500_000


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
    on their prefix language first (the closure of a closed set is itself).
    When that determinization splits into several components, the measure
    is re-assembled from the split graph's own key-state decomposition.
    Returns the measure of the start state's set, in [0, 1] for strongly
    connected deterministic input, when the radius is 1 to within 1e-9.
    Away from that critical value the measure degenerates: 0 below,
    infinity above, each reported with a
    :class:`NonCriticalExponentWarning`.
    """
    block = _single_block(a, "component measure")
    if alpha < 0:
        raise ValueError("exponent must be nonnegative")
    value, radius = _block_measure(
        a.base, a.edges, block, _start_mask(a), alpha, DEFAULT_ENUMERATION_CAP
    )
    if abs(radius - 1.0) > REPORT_TOL:
        warnings.warn(
            f"transfer radius {radius:.12g} differs from 1: exponent"
            f" {alpha:.12g} is not this component's critical dimension",
            NonCriticalExponentWarning,
            stacklevel=2,
        )
    return value


def _block_measure(
    base: int, e: EdgeList, block: Block, start: int, alpha: float, cap: int
) -> tuple[float, float]:
    """Measure at exponent ``alpha`` of the closure of ``block`` entered at
    its nodes in ``start`` (a bitmask over positions in ``block.nodes``),
    with the transfer radius it was read at: 0 below radius 1, infinity
    above (off by more than 1e-9)."""
    p, pd, root = _prefix_graph(e, block, start, cap)
    weight = np.full(len(p.src), 1.0 if alpha == 0 else float(base) ** (-alpha))
    blocks = list(pd.blocks.values())
    # the root and the vector of a strongly connected prefix graph come
    # from one solve
    whole = len(blocks) == 1 and len(blocks[0].nodes) == p.n
    solves = [
        perron(
            b,
            weight,
            tol=_EIGENVECTOR_TOL,
            max_steps=_MAX_EIGENVECTOR_ITERATIONS,
            vector=whole,
        )
        for b in blocks
    ]
    radius = max(solve.root for solve in solves)
    if abs(radius - 1.0) > REPORT_TOL:
        return (0.0 if radius < 1.0 else math.inf), radius
    if not whole:
        # Only a subset construction can split (the block is strongly
        # connected).  It is closed, so every non-trivial component is
        # accepting and can key accepting runs: sum the key-state terms,
        # eigenvector leaves.
        total = 0.0
        accepting = np.ones(p.n, dtype=bool)
        for _, _, contribution in _key_state_terms(
            base, p, pd, [root], accepting, alpha, cap
        ).values():
            total += contribution  # inf absorbs
        return total, radius
    return float(solves[0].vector[root]), radius


# ---------------------------------------------------------------------------
# key prefixes
# ---------------------------------------------------------------------------


def _transient(
    e: EdgeList, d: Condensation, q: int, starts: list[int]
) -> tuple[EdgeList, list[int], list[Block]] | None:
    """The key-prefix graph of node ``q``: its paths from a start node to
    the last node spell the key prefixes of q, the words labeling a run
    from a start to the first arrival in q, never touching q's component
    on the way.  ``d`` is the condensation of ``e``.

    It is an index set over ``e``: the edges leaving nodes outside q's
    component, minus those entering it elsewhere than at q, with q's entry
    edges redirected to one fresh key node, restricted to the nodes on a
    path from a start to the key and renumbered in increasing order (the
    key last).  Returned with its start nodes and its non-trivial blocks,
    the blocks of ``d`` it keeps, renumbered.  None when no key prefix
    exists (``q`` is then never a key state).
    """
    outside = d.component_of != d.component_of[q]
    kept = np.flatnonzero(outside[e.src] & (outside[e.dst] | (e.dst == q)))
    src = e.src[kept]
    dst = np.where(e.dst[kept] == q, e.n, e.dst[kept])
    key_starts = [s for s in starts if outside[s]] + ([e.n] if q in starts else [])
    t = EdgeList(e.n + 1, src, e.sym[kept], dst)
    useful = _forward_reachable(t, key_starts) & _backward_reachable(t, [e.n])
    if not useful[e.n] or not useful[key_starts].any():
        return None
    local = np.cumsum(useful) - 1
    inner = useful[src] & useful[dst]
    restricted = EdgeList(
        int(useful.sum()), local[src[inner]], t.sym[inner], local[dst[inner]]
    )
    # a block of d outside q's component is useful whole or not at all
    position = kept[inner]  # edge number in e of each edge kept
    blocks = [
        Block(
            local[b.nodes],
            np.searchsorted(position, b.edges),
            b.src,
            b.dst,
            b.period,
            b.classes,
        )
        for b in d.blocks.values()
        if outside[b.nodes[0]] and useful[b.nodes[0]]
    ]
    return restricted, [int(local[s]) for s in key_starts if useful[s]], blocks


def _key_prefix_series(
    t: EdgeList, starts: list[int], blocks: list[Block], base: int, alpha: float
) -> float:
    """Sum of k^(-alpha * |u|) over the words ``u`` spelled by the paths of
    the key-prefix graph ``t`` from ``starts`` to its last node, whose
    non-trivial components are ``blocks`` (see :func:`_transient`).  Counts
    are exact big integers (one accepting run per word, by unambiguity of
    the source automaton)."""
    n = t.n
    key = n - 1
    x = float(base) ** (-alpha)
    if blocks:
        counts = np.ones(len(t.src))
        radius = max(perron(block, counts).root for block in blocks)
        if radius >= float(base) ** alpha - 1e-12:
            return math.inf
        array = np.zeros((n, n))
        np.add.at(array, (t.src, t.dst), 1.0)
        target = np.zeros(n)
        target[key] = 1.0
        solution = np.linalg.solve(np.eye(n) - x * array, target)
        return float(sum(solution[s] for s in starts))
    # Cycle-free transient part: the series is a finite sum; accumulate it
    # with exact integer counts and iterated float powers of k^(-alpha).
    pairs = list(zip(t.src.tolist(), t.dst.tolist()))
    vec = [0] * n
    for s in starts:
        vec[s] = 1
    total = float(vec[key])
    term = 1.0
    for _ in range(n):
        nxt = [0] * n
        for i, j in pairs:
            nxt[j] += vec[i]
        vec = nxt
        term *= x
        total += vec[key] * term
    return total


def _key_state_terms(
    base: int,
    e: EdgeList,
    d: Condensation,
    starts: list[int],
    accepting: np.ndarray,
    alpha: float,
    cap: int,
) -> dict[int, tuple[float, float, float]]:
    """Key-state decomposition of an unambiguous trim graph ``e`` with
    condensation ``d``, start nodes ``starts`` and accepting node mask
    ``accepting``, at exponent ``alpha``: for every node q whose
    non-trivial component holds an accepting node and is entered at q by
    some path from a start, the key-prefix series, the measure of the
    component's closure rooted at q, and their product, q's contribution.
    A zero-measure component contributes 0 even when its series diverges;
    a positive-measure one with a divergent series contributes infinity.
    Keys come in increasing node order; subset constructions take at most
    ``cap`` subsets."""
    comp = d.component_of
    keyed = np.bincount(comp[accepting], minlength=e.n) > 0
    # only a start or a node entered from another component can be a key
    entered = np.zeros(e.n, dtype=bool)
    entered[e.dst[comp[e.src] != comp[e.dst]]] = True
    entered[starts] = True
    terms: dict[int, tuple[float, float, float]] = {}
    for q in np.flatnonzero(entered).tolist():
        c = int(comp[q])
        block = d.blocks.get(c)
        if block is None or not keyed[c]:
            continue
        t = _transient(e, d, q, starts)
        if t is None:
            continue
        series = _key_prefix_series(*t, base, alpha)
        root = int(np.searchsorted(block.nodes, q))
        m = _block_measure(base, e, block, 1 << root, alpha, cap)[0]
        if m == 0.0:
            contribution = 0.0
        elif math.isinf(series) or math.isinf(m):
            contribution = math.inf
        else:
            contribution = series * m
        terms[q] = (series, m, contribution)
    return terms


def key_prefix_series(a: Automaton, q: str, alpha: float) -> float:
    """Weighted count of q's key prefixes: sum of k^(-alpha*|u|) over all
    words u running from a start state to the first arrival in q's
    component at q.

    Requires a trim unambiguous automaton and a state whose component
    contains an accept state.  Returns ``math.inf`` when infinitely many
    key prefixes exist and their counting matrix grows at rate >= k^alpha.
    """
    require_trim(a)
    if q not in a.state_index:
        raise UnreachableStateError(f"unknown state {q!r}")
    if not check_unambiguous(a):
        raise AmbiguousError("key-prefix decomposition requires an unambiguous automaton")
    d = a.sccs
    i = a.state_index[q]
    c = int(d.component_of[i])
    if c not in d.blocks or not _accepting(a)[d.component_of == c].any():
        raise UnreachableStateError(
            f"state {q!r} cannot key an accepting run: its component has no"
            " accepting cycle"
        )
    t = _transient(a.edges, d, i, _nodes(a, a.start))
    if t is None:
        raise UnreachableStateError(f"no accepting run enters its component at {q!r}")
    return _key_prefix_series(*t, a.base, alpha)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def hausdorff_measure(
    a: Automaton, cap: int = DEFAULT_ENUMERATION_CAP
) -> MeasureReport:
    """Measure of the recognized set at its own Hausdorff dimension.

    For every state q whose component contains an accept state and is
    actually entered there by some accepting run, the contribution is
    (key-prefix series at alpha) x (component measure at alpha), where the
    component measure is taken on the closure of the component entered at
    q.  A zero-measure component contributes 0 even when its prefix series
    diverges; a positive-measure component with divergent series
    contributes infinity.  Every step reads the blocks of
    :attr:`Automaton.sccs`; subset constructions take at most ``cap``
    subsets.
    """
    require_trim(a)
    if not check_unambiguous(a):
        raise AmbiguousError("measure decomposition requires an unambiguous automaton")
    entropies = cycle_entropies(a, cap=cap)
    _, alpha = _witnessed_dimension(a, entropies, accept_only=True)
    log_k = math.log(a.base)
    per_key_state: dict[str, ComponentMeasure] = {}
    total = 0.0
    terms = _key_state_terms(
        a.base, a.edges, a.sccs, _nodes(a, a.start), _accepting(a), alpha, cap
    )
    for q, (series, m, contribution) in terms.items():
        name = a.states[q]
        per_key_state[name] = ComponentMeasure(
            scc_measure=m,
            prefix_series=series,
            component_measure=contribution,
            scc_dimension=entropies[name] / log_k,
        )
        total += contribution  # inf absorbs
    dims = [cm.scc_dimension for cm in per_key_state.values()]
    if not dims or abs(max(dims) - alpha) > REPORT_TOL:
        raise RuntimeError(
            "internal inconsistency: key-state component dimensions do not"
            " attain the Hausdorff dimension"
        )
    return MeasureReport(alpha=alpha, per_key_state=per_key_state, total=total)
