"""Hausdorff measure in the critical dimension.

The accepted language of an unambiguous automaton partitions by key state:
the state at which the unique accepting run permanently enters a strongly
connected component.  Each part contributes the measure of that component's
set, scaled by a geometric series over the key prefixes leading to it; the
measure of a closed strongly connected component itself comes from the
Perron eigenvector of its transfer matrix at the critical exponent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_ENUMERATION_CAP,
    Automaton,
    SccDecomposition,
    Transition,
    _backward_reachable,
    _component_sub_automaton,
    _forward_reachable,
    _is_deterministic,
    _subset_automaton,
    _subset_construction,
    check_unambiguous,
    require_trim,
    scc_decompose,
)
from .dimension import REPORT_TOL, _witnessed_dimension, cycle_entropies
from .errors import (
    AmbiguousError,
    NonCriticalExponentWarning,
    NotStronglyConnectedError,
    UnreachableStateError,
)
from .spectral import irreducible_blocks, perron

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
    is re-assembled from the split automaton's own key-state decomposition.
    Returns the measure of the start state's set, in [0, 1] for strongly
    connected deterministic input, when the radius is 1 to within 1e-9.
    Away from that critical value the measure degenerates: 0 below,
    infinity above, each reported with a
    :class:`NonCriticalExponentWarning`.
    """
    scc = scc_decompose(a)
    if len(scc) != 1 or scc.trivial[0]:
        raise NotStronglyConnectedError(
            "component measure requires a single non-trivial strongly"
            " connected component covering all states"
        )
    if alpha < 0:
        raise ValueError("exponent must be nonnegative")
    if _is_deterministic(a):
        edges = a.edges
        (start_state,) = a.start
        start = a.state_index[start_state]
    else:
        subsets, edges = _subset_construction(a, DEFAULT_ENUMERATION_CAP)
        start = 0
    weight = np.full(len(edges.src), 1.0 if alpha == 0 else float(a.base) ** (-alpha))
    blocks = irreducible_blocks(edges.n, edges.src, edges.dst)
    # the root and the vector of a strongly connected b come from one solve
    whole = len(blocks) == 1 and len(blocks[0].nodes) == edges.n
    solves = [
        perron(
            block,
            weight,
            tol=_EIGENVECTOR_TOL,
            max_steps=_MAX_EIGENVECTOR_ITERATIONS,
            vector=whole,
        )
        for block in blocks
    ]
    radius = max(solve.root for solve in solves)
    if abs(radius - 1.0) > REPORT_TOL:
        warnings.warn(
            f"transfer radius {radius:.12g} differs from 1: exponent"
            f" {alpha:.12g} is not this component's critical dimension",
            NonCriticalExponentWarning,
            stacklevel=2,
        )
        return 0.0 if radius < 1.0 else math.inf
    if not whole:
        # Only a determinization b of an NFA can split (a is strongly
        # connected).  b is closed, so every non-trivial component is
        # accepting and can key accepting runs: sum the key-state terms,
        # eigenvector leaves.
        b = _subset_automaton(a, subsets, edges)
        total = 0.0
        for _, _, contribution in _key_state_terms(
            b, scc_decompose(b), alpha
        ).values():
            total += contribution  # inf absorbs
        return total
    return float(solves[0].vector[start])


# ---------------------------------------------------------------------------
# key prefixes
# ---------------------------------------------------------------------------

_KEY = "<key>"


def _transient_automaton(
    a: Automaton, scc: SccDecomposition, q: str
) -> Automaton | None:
    """Finite automaton accepting exactly the key prefixes of ``q``: words
    labeling a run from a start state to the first arrival in ``q``, never
    touching q's strongly connected component on the way.  ``scc`` is the
    decomposition of ``a``.

    The component is deleted and replaced by a fresh final copy of ``q``
    entered exactly at first arrival.  Returns None when no key prefix
    exists (``q`` is then never a key state).
    """
    component = set(scc.components[scc.component_of[q]])
    key = _KEY
    while key in a.state_index:
        key += "'"
    start = (a.start - component) | ({key} if q in a.start else set())
    if not start:
        return None
    outside = [s for s in a.states if s not in component]
    transitions: list[Transition] = []
    for src, sym, dst in a.transitions:
        if src in component:
            continue
        if dst == q:
            transitions.append((src, sym, key))
        elif dst not in component:
            transitions.append((src, sym, dst))
    t = Automaton(
        base=a.base,
        arity=a.arity,
        states=tuple(outside) + (key,),
        transitions=tuple(transitions),
        start=frozenset(start),
        accept=frozenset({key}),
    )
    # finite-trim: keep states reachable from a start and co-reachable to
    # the key copy (zero length allowed).
    useful = _forward_reachable(t, t.start) & _backward_reachable(t, {key})
    if key not in useful or not (t.start & useful):
        return None
    return t.restrict(useful)


def _key_prefix_series(t: Automaton, base: int, alpha: float) -> float:
    """Sum of k^(-alpha * |u|) over the words ``u`` the transient automaton
    accepts.  Counts are exact big integers (one accepting run per word, by
    unambiguity of the source automaton)."""
    e = t.edges
    n = e.n
    index = t.state_index
    blocks = irreducible_blocks(n, e.src, e.dst)
    x = float(base) ** (-alpha)
    if blocks:
        counts = np.ones(len(e.src))
        radius = max(perron(block, counts).root for block in blocks)
        if radius >= float(base) ** alpha - 1e-12:
            return math.inf
        array = np.zeros((n, n))
        np.add.at(array, (e.src, e.dst), 1.0)
        target = np.zeros(n)
        for acc in t.accept:
            target[index[acc]] = 1.0
        solution = np.linalg.solve(np.eye(n) - x * array, target)
        return float(sum(solution[index[s]] for s in t.start))
    # Cycle-free transient part: the series is a finite sum; accumulate it
    # with exact integer counts and iterated float powers of k^(-alpha).
    pairs = list(zip(e.src.tolist(), e.dst.tolist()))
    vec = [1 if s in t.start else 0 for s in t.states]
    accept_idx = [index[s] for s in t.accept]
    total = float(sum(vec[i] for i in accept_idx))
    term = 1.0
    for _ in range(n):
        nxt = [0] * n
        for i, j in pairs:
            nxt[j] += vec[i]
        vec = nxt
        term *= x
        total += sum(vec[i] for i in accept_idx) * term
    return total


def _key_state_terms(
    a: Automaton, scc: SccDecomposition, alpha: float
) -> dict[str, tuple[float, float, float]]:
    """Key-state decomposition of an unambiguous trim automaton at exponent
    ``alpha``: for every state q whose non-trivial component contains an
    accept state and is entered at q by some run from a start state, the
    key-prefix series, the measure of the component's closure rooted at q,
    and their product, q's contribution.  A zero-measure component
    contributes 0 even when its series diverges; a positive-measure one
    with a divergent series contributes infinity.  ``scc`` is the
    decomposition of ``a``; keys come in declaration order."""
    terms: dict[str, tuple[float, float, float]] = {}
    for q in a.states:
        cid = scc.component_of[q]
        if not scc.contains_accept[cid] or scc.trivial[cid]:
            continue
        t = _transient_automaton(a, scc, q)
        if t is None:
            continue
        series = _key_prefix_series(t, a.base, alpha)
        sub = _component_sub_automaton(a, scc.components, cid, q)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonCriticalExponentWarning)
            m = scc_measure(sub, alpha)
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
    scc = scc_decompose(a)
    cid = scc.component_of[q]
    if not scc.contains_accept[cid] or scc.trivial[cid]:
        raise UnreachableStateError(
            f"state {q!r} cannot key an accepting run: its component has no"
            " accepting cycle"
        )
    t = _transient_automaton(a, scc, q)
    if t is None:
        raise UnreachableStateError(f"no accepting run enters its component at {q!r}")
    return _key_prefix_series(t, a.base, alpha)


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
    component measure is taken on the closure of the component
    sub-automaton.  A zero-measure component contributes 0 even when its
    prefix series diverges; a positive-measure component with divergent
    series contributes infinity.
    """
    require_trim(a)
    if not check_unambiguous(a):
        raise AmbiguousError("measure decomposition requires an unambiguous automaton")
    entropies = cycle_entropies(a, cap=cap)
    _, alpha = _witnessed_dimension(a, entropies, accept_only=True)
    log_k = math.log(a.base)
    per_key_state: dict[str, ComponentMeasure] = {}
    total = 0.0
    for q, (series, m, contribution) in _key_state_terms(
        a, scc_decompose(a), alpha
    ).items():
        per_key_state[q] = ComponentMeasure(
            scc_measure=m,
            prefix_series=series,
            component_measure=contribution,
            scc_dimension=entropies[q] / log_k,
        )
        total += contribution  # inf absorbs
    dims = [cm.scc_dimension for cm in per_key_state.values()]
    if not dims or abs(max(dims) - alpha) > REPORT_TOL:
        raise RuntimeError(
            "internal inconsistency: key-state component dimensions do not"
            " attain the Hausdorff dimension"
        )
    return MeasureReport(alpha=alpha, per_key_state=per_key_state, total=total)
