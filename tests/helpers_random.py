"""Seeded random automaton generators used across the test suite."""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from omegafract import Automaton, DigitVector, PropertyFlags, trim
from omegafract.core import (
    DEFAULT_ENUMERATION_CAP,
    AmbiguityReport,
    Block,
    Condensation,
    EdgeList,
    Transition,
    Word,
    _accepting,
    _bits,
    _block_edges,
    _checked_symbol,
    _condensation,
    _deterministic,
    _is_deterministic,
    _nodes,
    _prefix_graph,
    _single_block,
    _start_mask,
    _subset_construction,
    require_trim,
    tarjan_components,
)
from omegafract.errors import (
    CapExceededError,
    EmptyLanguageError,
    FormatError,
    NotStronglyConnectedError,
    NotTrimError,
    ValidationError,
)
from omegafract.dimension import REPORT_TOL
from omegafract.measure import (
    _EIGENVECTOR_TOL,
    _entered,
    _key_prefix_series,
)
from omegafract.spectral import DEFAULT_SPECTRAL_TOL, perron


def _symbols(base: int, arity: int) -> list[DigitVector]:
    if arity == 1:
        return [DigitVector((d,)) for d in range(base)]
    out = []
    for d0 in range(base):
        for d1 in range(base):
            out.append(DigitVector((d0, d1)))
    return out


def random_automaton(
    rng: random.Random,
    n_states: int = 4,
    base: int = 2,
    arity: int = 1,
    density: float = 0.6,
    nondet: float = 0.2,
) -> Automaton:
    """Structurally valid automaton; may fail to be trim or may accept nothing."""
    states = tuple(f"s{i}" for i in range(n_states))
    symbols = _symbols(base, arity)
    transitions = set()
    for q in states:
        for sym in symbols:
            if rng.random() < density:
                transitions.add((q, sym, rng.choice(states)))
                if rng.random() < nondet:
                    transitions.add((q, sym, rng.choice(states)))
    n_accept = rng.randint(1, n_states)
    accept = frozenset(rng.sample(states, n_accept))
    start = frozenset({rng.choice(states)})
    if rng.random() < nondet and n_states > 1:
        start = start | {rng.choice(states)}
    return Automaton(
        base=base,
        arity=arity,
        states=states,
        transitions=tuple(transitions),
        start=start,
        accept=accept,
    )


def random_trim_automaton(rng: random.Random, **kwargs) -> Automaton:
    while True:
        try:
            return trim(random_automaton(rng, **kwargs))
        except EmptyLanguageError:
            continue


def random_deterministic_trim(
    rng: random.Random,
    n_states: int = 4,
    base: int = 2,
    arity: int = 1,
    density: float = 0.7,
) -> Automaton:
    states = tuple(f"s{i}" for i in range(n_states))
    symbols = _symbols(base, arity)
    while True:
        transitions = []
        for q in states:
            for sym in symbols:
                if rng.random() < density:
                    transitions.append((q, sym, rng.choice(states)))
        accept = frozenset(rng.sample(states, rng.randint(1, n_states)))
        a = Automaton(
            base=base,
            arity=arity,
            states=states,
            transitions=tuple(transitions),
            start=frozenset({states[0]}),
            accept=accept,
        )
        try:
            return trim(a)
        except EmptyLanguageError:
            continue


def random_strongly_connected(
    rng: random.Random,
    n_states: int = 4,
    base: int = 2,
    arity: int = 1,
    extra: int = 3,
    deterministic: bool = False,
    accept_all: bool = False,
) -> Automaton:
    """A ring through every state guarantees one non-trivial component."""
    states = tuple(f"s{i}" for i in range(n_states))
    symbols = _symbols(base, arity)
    transitions: set = set()
    used: set = set()
    for i, q in enumerate(states):
        sym = rng.choice(symbols)
        transitions.add((q, sym, states[(i + 1) % n_states]))
        used.add((q, sym))
    for _ in range(extra):
        q = rng.choice(states)
        sym = rng.choice(symbols)
        if deterministic and (q, sym) in used:
            continue
        transitions.add((q, sym, rng.choice(states)))
        used.add((q, sym))
    accept = (
        frozenset(states)
        if accept_all
        else frozenset(rng.sample(states, rng.randint(1, n_states)))
    )
    return Automaton(
        base=base,
        arity=arity,
        states=states,
        transitions=tuple(transitions),
        start=frozenset({states[0]}),
        accept=accept,
    )


def random_dense_nfa(
    rng: random.Random, n_states: int, base: int = 2, second: float = 0.45
) -> Automaton:
    """Dense strongly connected NFA, shaped like the benchmark's: a ring
    through the states in random order, then per state and digit one random
    target with probability 0.7 and another with probability ``second``.
    The start is s0 and about 30% of the states accept."""
    states = [f"s{i}" for i in range(n_states)]
    symbols = _symbols(base, 1)
    ring = list(range(n_states))
    rng.shuffle(ring)
    transitions = {
        (states[q], rng.choice(symbols), states[ring[(i + 1) % n_states]])
        for i, q in enumerate(ring)
    }
    for q in states:
        for sym in symbols:
            for share in (0.7, second):
                if rng.random() < share:
                    transitions.add((q, sym, rng.choice(states)))
    accept = [q for q in states if rng.random() < 0.3] or [states[0]]
    return Automaton(
        base=base,
        arity=1,
        states=tuple(states),
        transitions=tuple(transitions),
        start=frozenset({states[0]}),
        accept=frozenset(accept),
    )


def disjoint_union(a: Automaton, b: Automaton) -> Automaton:
    """Rename apart and juxtapose; starts and accepts are unioned."""
    assert a.base == b.base and a.arity == b.arity

    def rn(prefix, name):
        return f"{prefix}.{name}"

    states = tuple(rn("a", q) for q in a.states) + tuple(rn("b", q) for q in b.states)
    transitions = tuple(
        (rn("a", s), sym, rn("a", t)) for s, sym, t in a.transitions
    ) + tuple((rn("b", s), sym, rn("b", t)) for s, sym, t in b.transitions)
    return Automaton(
        base=a.base,
        arity=a.arity,
        states=states,
        transitions=transitions,
        start=frozenset(rn("a", q) for q in a.start)
        | frozenset(rn("b", q) for q in b.start),
        accept=frozenset(rn("a", q) for q in a.accept)
        | frozenset(rn("b", q) for q in b.accept),
    )


def guessing_automaton(a: Automaton) -> Automaton:
    """Unambiguous NFA for the words of the unary automaton ``a``: state
    (q, b) guesses that the next digit is b and reads only b, going to
    every (r, b') with q -b-> r in ``a``.  On a deterministic ``a`` each
    word keeps at most one run alive, though every state has ``base``
    targets per digit and every start state ``base`` copies; a state of
    ``a`` without a b-edge leaves (q, b) a dead end, so the result is
    seldom trim."""
    assert a.arity == 1

    def name(q: str, b: int) -> str:
        return f"{q}^{b}"

    digits = range(a.base)
    return Automaton(
        base=a.base,
        arity=1,
        states=tuple(name(q, b) for q in a.states for b in digits),
        transitions=tuple(
            (name(q, sym[0]), sym, name(r, b))
            for q, sym, r in a.transitions
            for b in digits
        ),
        start=frozenset(name(q, b) for q in a.start for b in digits),
        accept=frozenset(name(q, b) for q in a.accept for b in digits),
    )


def forbidden_factor_automaton(base: int, pattern: list[int]) -> Automaton:
    """Automaton over [base] whose language avoids ``pattern`` as a factor,
    with the empty-match state as the unique start and accept state.

    State i tracks the longest suffix of the input matching a prefix of the
    pattern; the transition that would complete the pattern is omitted, so
    no word of the language has the pattern as a prefix (or factor).  Uses
    the classic border (failure) function for fallback transitions.
    """
    n = len(pattern)
    assert n >= 1 and all(0 <= d < base for d in pattern)
    border = [0] * (n + 1)
    k = 0
    for i in range(1, n):
        while k > 0 and pattern[i] != pattern[k]:
            k = border[k]
        if pattern[i] == pattern[k]:
            k += 1
        border[i + 1] = k
    states = tuple(f"m{i}" for i in range(n))
    transitions = []
    for i in range(n):
        for c in range(base):
            j = i
            while j > 0 and c != pattern[j]:
                j = border[j]
            if c == pattern[j]:
                j += 1
            if j == n:
                continue  # would complete the forbidden factor
            transitions.append((states[i], DigitVector((c,)), states[j]))
    return Automaton(
        base=base,
        arity=1,
        states=states,
        transitions=tuple(transitions),
        start=frozenset({states[0]}),
        accept=frozenset({states[0]}),
    )


def random_multi_scc(
    rng: random.Random,
    n_blocks: int = 3,
    base: int = 2,
    deterministic: bool = True,
    full_last: bool = False,
) -> Automaton:
    """Unary chain of strongly connected blocks of 2-4 states each.

    Every block is a ring with extra internal edges, block i has an edge
    into block i + 1 and may have more into later blocks, and the last
    block holds an accept state, so the result is trim and every block is
    a multi-state non-trivial component.  States are declared in shuffled
    order.  With ``full_last`` the last block has every digit on every
    state going back into the block (a complete component).  Nondeterministic
    output adds parallel targets on used digits and sometimes a second start.
    """
    symbols = _symbols(base, 1)
    blocks = [
        [f"b{i}_{j}" for j in range(rng.randint(2, 4))] for i in range(n_blocks)
    ]
    transitions: set = set()
    used: set = set()

    def add(q, sym, dst):
        if deterministic and (q, sym) in used:
            return
        transitions.add((q, sym, dst))
        used.add((q, sym))

    for i, block in enumerate(blocks):
        last = i == n_blocks - 1
        for j, q in enumerate(block):
            add(q, rng.choice(symbols), block[(j + 1) % len(block)])
        if not last:
            q = rng.choice(block)
            sym = rng.choice([s for s in symbols if (q, s) not in used])
            add(q, sym, rng.choice(blocks[i + 1]))
        for q in block:
            for sym in symbols:
                if (last and full_last) or rng.random() < 0.3:
                    add(q, sym, rng.choice(block))
                elif not last and rng.random() < 0.3:
                    add(q, sym, rng.choice(rng.choice(blocks[i + 1 :])))
                elif not deterministic and rng.random() < 0.2:
                    transitions.add((q, sym, rng.choice(block)))
    states = [q for block in blocks for q in block]
    accept = {rng.choice(blocks[-1])} | set(rng.sample(states, rng.randint(0, 3)))
    start = {blocks[0][0]}
    if not deterministic and rng.random() < 0.5:
        start.add(rng.choice(states))
    rng.shuffle(states)
    return trim(
        Automaton(
            base=base,
            arity=1,
            states=tuple(states),
            transitions=tuple(transitions),
            start=frozenset(start),
            accept=frozenset(accept),
        )
    )


def complete_nfa_block(n: int, extra: int, seed: int) -> Automaton:
    """Unary base-2 NFA whose states b0..b{n-1} form one complete,
    non-accepting, nondeterministic block: a ring with both digits on
    every edge plus ``extra`` random edges inside it.  b{n-1} exits on
    digit 0 into the accepting Cantor-like ring c0 -0-> c1 -0,1-> c0, of
    dimension 1/2.  Starts at b0, so b0 witnesses density and the set is
    dense and codense on [0, 1]."""
    rng = random.Random(seed)
    zero, one = DigitVector((0,)), DigitVector((1,))
    ring = [f"b{i}" for i in range(n)]
    transitions = {
        (q, sym, ring[(i + 1) % n]) for i, q in enumerate(ring) for sym in (zero, one)
    }
    while len(transitions) < 2 * n + extra:
        transitions.add((rng.choice(ring), rng.choice((zero, one)), rng.choice(ring)))
    transitions |= {
        (ring[-1], zero, "c0"),
        ("c0", zero, "c1"),
        ("c1", zero, "c0"),
        ("c1", one, "c0"),
    }
    return Automaton(
        base=2,
        arity=1,
        states=(*ring, "c0", "c1"),
        transitions=tuple(sorted(transitions, key=str)),
        start=frozenset({"b0"}),
        accept=frozenset({"c0"}),
    )


def irreducible_blocks(n: int, src, dst) -> list[Block]:
    """Non-trivial strongly connected blocks of the digraph on nodes 0..n-1
    with edges ``src[e] -> dst[e]``, in topological order."""
    src, dst = np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)
    e = EdgeList(n, src, np.zeros_like(src), dst)
    return list(_condensation(e).blocks.values())


def edges_of(rows) -> tuple[int, np.ndarray, np.ndarray]:
    """The multigraph of the nonnegative integer square matrix ``rows``:
    its size and the endpoints of its edges, entry m at (i, j) as m
    parallel edges i -> j, in row-major order."""
    matrix = np.asarray(rows, dtype=int)
    src, dst = np.nonzero(matrix)
    count = matrix[src, dst]
    return len(matrix), np.repeat(src, count), np.repeat(dst, count)


def dense_root(rows, tol: float = DEFAULT_SPECTRAL_TOL) -> float:
    """Perron root of the nonnegative integer square matrix ``rows``: the
    largest certified root over the strongly connected blocks of its
    multigraph (see :func:`edges_of`), exactly 0.0 when they form no
    cycle."""
    blocks = irreducible_blocks(*edges_of(rows))
    return max((perron(b, tol).root for b in blocks), default=0.0)


# ---------------------------------------------------------------------------
# reference routines: earlier implementations, kept verbatim as oracles for
# the ones in omegafract.  They read the name-keyed adjacency below, built
# from ``a.transitions``, instead of the integer edge arrays; the parser at
# the end builds its own record, validating every transition's symbol.
# ---------------------------------------------------------------------------


def _delta(a: Automaton) -> dict[tuple[str, DigitVector], tuple[str, ...]]:
    """(state, symbol) -> the successor states, in ``transitions`` order."""
    table: dict[tuple[str, DigitVector], list[str]] = {}
    for src, sym, dst in a.transitions:
        table.setdefault((src, sym), []).append(dst)
    return {key: tuple(v) for key, v in table.items()}


def _out_edges(a: Automaton) -> dict[str, tuple[tuple[DigitVector, str], ...]]:
    """state -> its (symbol, successor) pairs, in ``transitions`` order."""
    table: dict[str, list[tuple[DigitVector, str]]] = {q: [] for q in a.states}
    for src, sym, dst in a.transitions:
        table[src].append((sym, dst))
    return {q: tuple(v) for q, v in table.items()}


def _step_set(delta, states, symbol: DigitVector) -> frozenset[str]:
    """Image of a state set under one symbol."""
    out: set[str] = set()
    for q in states:
        out.update(delta.get((q, symbol), ()))
    return frozenset(out)


def _walk(edges, seeds) -> set:
    """The nodes reachable (in zero or more steps) from ``seeds`` along
    ``edges``, (tail, head) pairs of hashable nodes: a plain depth-first
    search, on state names or node numbers alike."""
    succ: dict = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for v in succ.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def reference_reach(e: EdgeList, seeds, backward: bool) -> np.ndarray:
    """Mask of the nodes of ``e`` reachable from the node numbers
    ``seeds`` or, with ``backward``, that reach one, by :func:`_walk`."""
    src, dst = e.src.tolist(), e.dst.tolist()
    mask = np.zeros(e.n, dtype=bool)
    mask[list(_walk(zip(dst, src) if backward else zip(src, dst), seeds))] = True
    return mask


def _pairs(a: Automaton) -> list[tuple[str, str]]:
    """The (from, to) state pairs of the transitions of ``a``."""
    return [(p, q) for p, _, q in a.transitions]


def reference_trim_states(a: Automaton) -> tuple[str, ...]:
    """The states of ``trim(a)`` in declaration order, empty when the
    language is: the fixpoint of repeatedly dropping the states that are
    unreachable from a start state or have no nonzero-length path to an
    accept state, each round on the sub-automaton the last one left."""
    kept = set(a.states)
    while True:
        pairs = [(p, q) for p, q in _pairs(a) if p in kept and q in kept]
        reachable = _walk(pairs, a.start & kept)
        coreachable = _walk([(q, p) for p, q in pairs], a.accept & kept)
        productive = {p for p, q in pairs if q in coreachable}
        if reachable & productive == kept:
            return tuple(q for q in a.states if q in kept)
        kept = reachable & productive


def reference_properties(a: Automaton) -> PropertyFlags:
    """The property flags of ``a`` from their definitions, on state names:
    trim asks every state for a path from a start state and a
    nonzero-length path to an accept state, finite trim allows that path
    zero length, and weak asks that no two mutually reachable states
    differ in accepting."""
    pairs = _pairs(a)
    reachable = _walk(pairs, a.start)
    coreachable = _walk([(q, p) for p, q in pairs], a.accept)
    productive = {p for p, q in pairs if q in coreachable}
    states = set(a.states)
    trim = reachable & productive == states
    reach = {q: _walk(pairs, [q]) for q in a.states}
    labels = [(p, sym) for p, sym, _ in a.transitions]
    return PropertyFlags(
        deterministic=len(a.start) == 1 and len(set(labels)) == len(labels),
        finite_trim=reachable & coreachable == states,
        trim=trim,
        closed=trim and a.accept == states,
        weak=not any(
            p in reach[q] and q in reach[p]
            for p in a.accept
            for q in states - a.accept
        ),
    )


def reference_accepts(a: Automaton, word) -> bool:
    """Finite-automaton semantics: does some run of ``word`` from a start
    state end in an accept state?"""
    delta = _delta(a)
    current = frozenset(a.start)
    for sym in word:
        sym = sym if isinstance(sym, DigitVector) else DigitVector(tuple(sym))
        current = _step_set(delta, current, sym)
        if not current:
            return False
    return bool(current & a.accept)


def reference_shortest_word_to(a: Automaton, target: str) -> Word:
    """Shortest word labeling a run from a start state to ``target``."""
    if target in a.start:
        return ()
    out_edges = _out_edges(a)
    parent: dict[str, tuple[str, DigitVector]] = {}
    seen = set(a.start)
    frontier = deque(sorted(a.start))
    while frontier and target not in parent:
        q = frontier.popleft()
        for sym, dst in out_edges[q]:
            if dst not in seen:
                seen.add(dst)
                parent[dst] = (q, sym)
                frontier.append(dst)
    if target not in parent:
        raise NotTrimError(f"state {target!r} is unreachable")
    word: list[DigitVector] = []
    node = target
    while node in parent:
        node, sym = parent[node]
        word.append(sym)
    word.reverse()
    return tuple(word)


def reference_multigraph_to_digraph(a: Automaton) -> Automaton:
    """Equivalent automaton whose transition graph is a true digraph: at
    most one transition between any ordered pair of states.

    States are (state, incoming-symbol) pairs of the trim part, so parallel
    edges of the original become edges between distinct pair states.  The
    start tag uses the lexicographically least alphabet symbol, which makes
    the construction reproducible.  Input must be deterministic; the
    accepted infinite-word language is preserved, and closed inputs yield
    closed outputs.
    """
    sigma0 = DigitVector((0,) * a.arity)

    def name(q: str, sym: DigitVector) -> str:
        return f"{q}|{'-'.join(str(d) for d in sym.digits)}"

    out_edges = _out_edges(a)
    (s0,) = a.start
    pair_states: list[tuple[str, DigitVector]] = [(s0, sigma0)]
    seen = {(s0, sigma0)}
    transitions: list[Transition] = []
    frontier = deque(pair_states)
    while frontier:
        q, tag = frontier.popleft()
        for sym, dst in out_edges[q]:
            target = (dst, sym)
            transitions.append((name(q, tag), sym, name(dst, sym)))
            if target not in seen:
                seen.add(target)
                pair_states.append(target)
                frontier.append(target)
    product = Automaton(
        base=a.base,
        arity=a.arity,
        states=tuple(name(q, sym) for q, sym in pair_states),
        transitions=tuple(transitions),
        start=frozenset({name(s0, sigma0)}),
        accept=frozenset(
            name(q, sym) for q, sym in pair_states if q in a.accept
        ),
    )
    return trim(product)


def reference_run_word(a: Automaton, word: Word) -> frozenset[str]:
    delta = _delta(a)
    current = frozenset(a.start)
    for sym in word:
        current = _step_set(delta, current, sym)
    return current


def reference_cycle_prefixes_complete(a: Automaton, q: int, cap: int) -> bool:
    """Does every finite digit string extend to a word of the cycle
    language of state number ``q``?  Decided exactly on the prefix graph of
    q's block rooted at q (the prefix language of its cycle language):
    complete iff no node of it is missing an outgoing digit."""
    block = a.sccs.blocks[int(a.sccs.component_of[q])]
    root = int(np.searchsorted(block.nodes, q))
    p = _prefix_graph(a.edges, block, [1 << root], cap)[0]
    return bool(np.all(np.bincount(p.src, minlength=p.n) == a.base**a.arity))


def reference_tarjan_components(nodes, successors) -> list[list]:
    """Iterative Tarjan SCC over any hashable nodes; components come out in
    reverse topological order, nodes inside a component in discovery order."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list[list] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(successors[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(successors[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    q = stack.pop()
                    on_stack.discard(q)
                    comp.append(q)
                    if q == node:
                        break
                components.append(comp)
    return components


def reference_condensation(e: EdgeList) -> Condensation:
    """Tarjan's components of the digraph of ``e``, and for each
    non-trivial one its period: the gcd of level(u) + 1 - level(v) over the
    block's edges u -> v, for breadth-first levels from the block's least
    node, and its cyclic classes, the levels mod the period (Lind & Marcus,
    section 4.5)."""
    n, src, dst, succ = e.n, e.src, e.dst, e.successors
    components = tarjan_components(range(n), succ)
    components.reverse()  # topological order: sources first
    comp_list = [0] * n
    for i, comp in enumerate(components):
        for u in comp:
            comp_list[u] = i
    comp_of = np.array(comp_list, dtype=np.intp)
    inside = np.flatnonzero(comp_of[src] == comp_of[dst])
    if inside.size == 0:
        return Condensation(comp_of, {})
    inside = inside[np.argsort(comp_of[src[inside]], kind="stable")]
    cids, first = np.unique(comp_of[src[inside]], return_index=True)
    cids = cids.tolist()
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
    blocks = {}
    for cid, edges in zip(cids, np.split(inside, first[1:])):
        nodes = np.array(sorted(components[cid]), dtype=np.intp)
        es, ed = src[edges], dst[edges]
        period = int(np.gcd.reduce(np.abs(levels[es] + 1 - levels[ed])))
        local[nodes] = np.arange(len(nodes))
        blocks[cid] = Block(
            nodes, edges, local[es], local[ed], period, levels[nodes] % period
        )
    return Condensation(comp_of, blocks)


def reference_enumerate_prefixes(a: Automaton, n: int) -> set[Word]:
    """All length-n words with a run from a start state, grown one symbol
    at a time on state sets."""
    delta = _delta(a)
    level: dict[Word, frozenset[str]] = {(): frozenset(a.start)}
    for _ in range(n):
        nxt: dict[Word, frozenset[str]] = {}
        for word, states in level.items():
            for sym in a.symbols_used:
                target = _step_set(delta, states, sym)
                if target:
                    nxt[word + (sym,)] = target
        level = nxt
    return set(level)


def reference_prefix_growth(a: Automaton, n: int) -> tuple[int, ...]:
    """Exact run counts from a start state at lengths 0..n, by big-integer
    vector iteration over per-state counts; on a deterministic automaton
    these are the numbers of distinct prefixes."""
    pairs = list(zip(a.edges.src.tolist(), a.edges.dst.tolist()))
    vec = [int(q in a.start) for q in a.states]
    values = [sum(vec)]
    for _ in range(n):
        nxt = [0] * len(vec)
        for i, j in pairs:
            nxt[j] += vec[i]
        vec = nxt
        values.append(sum(vec))
    return tuple(values)


def reference_check_unambiguous(a: Automaton) -> AmbiguityReport:
    """Decide whether every accepted infinite word has exactly one accepting run.

    Works on the self-product over ordered state pairs: the automaton is
    ambiguous iff some reachable pair of distinct states can reach (within
    the product) a non-trivial strongly connected component in which both
    coordinates pass through accept states, i.e. one shared word carries
    two accepting runs that differ at least once.  Deterministic automata
    are always unambiguous.
    """
    delta = _delta(a)
    starts = sorted(a.start)
    init = [(p, q) for p in starts for q in starts]
    # BFS keeps, per product pair, a shortest word reaching it.
    word_to: dict[tuple[str, str], Word] = {pair: () for pair in init}
    frontier = deque(init)
    succ: dict[tuple[str, str], list[tuple[str, str]]] = {pair: [] for pair in init}
    while frontier:
        p, q = frontier.popleft()
        here = word_to[(p, q)]
        for sym in a.symbols_used:
            for p2 in delta.get((p, sym), ()):
                for q2 in delta.get((q, sym), ()):
                    succ[(p, q)].append((p2, q2))
                    if (p2, q2) not in word_to:
                        word_to[(p2, q2)] = here + (sym,)
                        succ.setdefault((p2, q2), [])
                        frontier.append((p2, q2))
    pairs = list(word_to)
    decoded = reference_tarjan_components(pairs, succ)
    comp_of: dict[tuple[str, str], int] = {}
    for i, comp in enumerate(decoded):
        for pair in comp:
            comp_of[pair] = i
    nontrivial = set()
    for pair in pairs:
        for nxt in succ[pair]:
            if comp_of[nxt] == comp_of[pair]:
                nontrivial.add(comp_of[pair])
    good = {
        i
        for i, comp in enumerate(decoded)
        if i in nontrivial
        and any(p in a.accept for p, _ in comp)
        and any(q in a.accept for _, q in comp)
    }
    # pairs that can reach a good component
    reach_good: set[tuple[str, str]] = set()
    for i in good:
        reach_good.update(decoded[i])
    changed = True
    while changed:
        changed = False
        for pair in pairs:
            if pair not in reach_good and any(n in reach_good for n in succ[pair]):
                reach_good.add(pair)
                changed = True
    witnesses = [
        word_to[pair] for pair in pairs if pair[0] != pair[1] and pair in reach_good
    ]
    if not witnesses:
        return AmbiguityReport(unambiguous=True)
    witness = min(witnesses, key=lambda w: (len(w), tuple(s.digits for s in w)))
    return AmbiguityReport(unambiguous=False, witness=witness)


def reference_product_pairs(a: Automaton) -> set[tuple[str, str]]:
    """The state pairs of the self-product of ``a`` reachable from its
    start pairs."""
    delta = _delta(a)
    starts = sorted(a.start)
    seen = {(p, q) for p in starts for q in starts}
    frontier = deque(seen)
    while frontier:
        p, q = frontier.popleft()
        for sym in a.symbols_used:
            for p2 in delta.get((p, sym), ()):
                for q2 in delta.get((q, sym), ()):
                    if (p2, q2) not in seen:
                        seen.add((p2, q2))
                        frontier.append((p2, q2))
    return seen


def subset_automaton(a: Automaton, cap: int = DEFAULT_ENUMERATION_CAP) -> Automaton:
    """``_subset_construction`` of ``a`` from its start set, as an automaton
    named like :func:`reference_prefix_determinization`: every subset
    ``{q1,q2,...}`` accepting, its members in declaration order."""
    subsets, e = _subset_construction(a.edges, [_start_mask(a)], cap)
    names = ["{" + ",".join(a.states[q] for q in _bits(s)) + "}" for s in subsets]
    used = a.symbols_used
    transitions = [
        (names[i], used[c], names[j])
        for i, c, j in zip(e.src.tolist(), e.sym.tolist(), e.dst.tolist())
    ]
    return a.replace(
        states=names, transitions=transitions, start=names[:1], accept=names
    )


def reference_prefix_determinization(
    a: Automaton, cap: int = DEFAULT_ENUMERATION_CAP
) -> Automaton:
    """Deterministic automaton for the prefix language of ``a``.

    Subset construction over the trim input with every subset accepting:
    the prefix language of a trim automaton is prefix-closed and regular,
    so runs of the result are in bijection with distinct prefixes.  The
    result is trim, closed and deterministic.
    """
    require_trim(a)
    delta = _delta(a)
    order = a.state_index

    def name(subset: frozenset[str]) -> str:
        return "{" + ",".join(sorted(subset, key=order.__getitem__)) + "}"

    start = frozenset(a.start)
    subsets: list[frozenset[str]] = [start]
    seen = {start}
    transitions: list[Transition] = []
    frontier = deque([start])
    while frontier:
        subset = frontier.popleft()
        for sym in a.symbols_used:
            target = _step_set(delta, subset, sym)
            if not target:
                continue
            transitions.append((name(subset), sym, name(target)))
            if target not in seen:
                seen.add(target)
                subsets.append(target)
                frontier.append(target)
                if len(subsets) > cap:
                    raise CapExceededError(
                        f"subset construction exceeded cap {cap}"
                    )
    names = tuple(name(s) for s in subsets)
    return Automaton(
        base=a.base,
        arity=a.arity,
        states=names,
        transitions=tuple(transitions),
        start=frozenset({name(start)}),
        accept=frozenset(names),
    )


def reference_entropy(a: Automaton, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Growth rate of the number of distinct prefixes, in natural-log units,
    from the whole automaton: log of the Perron root of the integer
    counting matrix of its prefix determinization from the start states;
    deterministic inputs are used as-is."""
    require_trim(a)
    if _is_deterministic(a):
        e, blocks = a.edges, a.sccs.blocks.values()
    else:
        e = _subset_construction(a.edges, [_start_mask(a)], cap)[1]
        blocks = _condensation(e).blocks.values()
    return math.log(max(perron(b).root for b in blocks))


def reference_mw_alpha(a: Automaton, tol: float = DEFAULT_SPECTRAL_TOL) -> float:
    """Critical exponent of a strongly connected automaton: the root
    alpha in [0, d] of sprad(transfer(alpha)) = 1, found by bisection.

    The transfer-matrix entries are string-faithful only when runs and
    words are in bijection, so nondeterministic inputs are determinized on
    their prefix language first.  The map alpha -> sprad is continuous and
    strictly decreasing whenever a cycle exists; monotonicity is verified
    at the bracket endpoints before bisecting.  Returns 0 when even the
    exponent-0 radius is below 1.

    Since transfer(alpha) = k^(-alpha) * C with C the integer counting
    matrix, C's root is found once and every step scales it by
    k^(-alpha).
    """
    block = _single_block(a, "critical exponent")
    pd = _prefix_graph(a.edges, block, [_start_mask(a)], DEFAULT_ENUMERATION_CAP)[1]
    rho = max(perron(b, tol=tol).root for b in pd.blocks.values())

    def radius(alpha: float) -> float:
        return float(a.base) ** (-alpha) * rho

    lo, hi = 0.0, float(a.arity)
    f_lo, f_hi = radius(lo), radius(hi)
    if f_lo <= 1.0:
        # strictly decreasing map: a radius already at or below 1 at
        # exponent 0 pins the root there
        return 0.0
    if f_lo < f_hi:
        raise NotStronglyConnectedError(
            "transfer radius failed to decrease across the bracket"
        )
    if f_hi >= 1.0:
        return hi
    iterations = 0
    while hi - lo > tol and iterations < 200:
        mid = (lo + hi) / 2
        if radius(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return (lo + hi) / 2


@dataclass(frozen=True)
class ReferenceAutomaton:
    """The automaton record as parsed and validated before symbols were
    interned: finite/Buchi automaton over the alphabet of base-``base`` digit
    vectors of arity ``arity``.

    ``states`` is an ordered set: declaration order fixes every matrix
    indexing downstream.  Transitions are stored canonically sorted by
    (from, symbol, to); duplicates are rejected rather than merged.
    """

    base: int
    arity: int
    states: tuple[str, ...]
    transitions: tuple[Transition, ...]
    start: frozenset[str]
    accept: frozenset[str]

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValidationError(f"base must be >= 2, got {self.base}")
        if self.arity < 1:
            raise ValidationError(f"arity must be >= 1, got {self.arity}")
        states = tuple(str(s) for s in self.states)
        if len(set(states)) != len(states):
            raise ValidationError("duplicate state identifiers")
        if not states:
            raise ValidationError("automaton needs at least one state")
        declared = set(states)
        cooked: list[Transition] = []
        for src, sym, dst in self.transitions:
            sym = _checked_symbol(sym, self.base, self.arity)
            if src not in declared:
                raise ValidationError(f"transition from unknown state {src!r}")
            if dst not in declared:
                raise ValidationError(f"transition to unknown state {dst!r}")
            cooked.append((src, sym, dst))
        if len(set(cooked)) != len(cooked):
            raise ValidationError("duplicate transition triple")
        cooked.sort(key=lambda t: (t[0], t[1].digits, t[2]))
        start = frozenset(str(s) for s in self.start)
        accept = frozenset(str(s) for s in self.accept)
        if not start:
            raise ValidationError("start set must be nonempty")
        if not start <= declared:
            raise ValidationError(f"start states {sorted(start - declared)} undeclared")
        if not accept <= declared:
            raise ValidationError(
                f"accept states {sorted(accept - declared)} undeclared"
            )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", tuple(cooked))
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "accept", accept)

    # -- derived structure (cached; the dataclass is frozen, caches are safe) --

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {q: i for i, q in enumerate(self.states)}

    @cached_property
    def symbols_used(self) -> tuple[DigitVector, ...]:
        return tuple(sorted({sym for _, sym, _ in self.transitions}))

    @cached_property
    def edges(self) -> EdgeList:
        """The transitions as an :class:`EdgeList` (states in declaration
        order, symbols in ``symbols_used`` order)."""
        index = self.state_index
        symbol = {sym: i for i, sym in enumerate(self.symbols_used)}
        return EdgeList.from_lists(
            len(self.states),
            [index[src] for src, _, _ in self.transitions],
            [symbol[sym] for _, sym, _ in self.transitions],
            [index[dst] for _, _, dst in self.transitions],
        )


def reference_parse_automaton(text: str) -> ReferenceAutomaton:
    """Parse the JSON automaton document format.

    Expected shape::

        {"base": k, "arity": d, "states": [...], "start": [...],
         "accept": [...],
         "transitions": [{"from": id, "symbol": [d0,...], "to": id}, ...]}

    Raises :class:`FormatError` on malformed JSON (with line/column for
    a syntax error), on an integer literal too long to convert, or on
    nesting too deep to parse, and :class:`ValidationError` on
    structural violations (with the offending field in the message).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # e.g. an integer past the digit limit
        raise FormatError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("JSON nested too deeply to parse") from exc
    if not isinstance(doc, dict):
        raise FormatError("top-level value must be an object")
    for key in ("base", "arity", "states", "start", "accept", "transitions"):
        if key not in doc:
            raise ValidationError(f"missing required field {key!r}")
    if not isinstance(doc["base"], int) or isinstance(doc["base"], bool):
        raise ValidationError("field 'base' must be an integer")
    if not isinstance(doc["arity"], int) or isinstance(doc["arity"], bool):
        raise ValidationError("field 'arity' must be an integer")
    for key in ("states", "start", "accept", "transitions"):
        if not isinstance(doc[key], list):
            raise ValidationError(f"field {key!r} must be an array")
    transitions = []
    for i, entry in enumerate(doc["transitions"]):
        if not isinstance(entry, dict):
            raise ValidationError(f"transitions[{i}] must be an object")
        for key in ("from", "symbol", "to"):
            if key not in entry:
                raise ValidationError(f"transitions[{i}] missing field {key!r}")
        sym = entry["symbol"]
        if not isinstance(sym, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) for d in sym
        ):
            raise ValidationError(
                f"transitions[{i}].symbol must be an array of integers"
            )
        transitions.append((str(entry["from"]), DigitVector(tuple(sym)), str(entry["to"])))
    states = [str(s) for s in doc["states"]]
    return ReferenceAutomaton(
        base=doc["base"],
        arity=doc["arity"],
        states=tuple(states),
        transitions=tuple(transitions),
        start=frozenset(str(s) for s in doc["start"]),
        accept=frozenset(str(s) for s in doc["accept"]),
    )


# ---------------------------------------------------------------------------
# key prefixes, one transient graph and one dense solve per key state
# ---------------------------------------------------------------------------


def comb(length: int, closed: bool = True) -> Automaton:
    """Deterministic comb in base 2: ring n (``length`` states joined by
    digit 0), digit 1 from n_i to a_i, and ring a (``length`` states, both
    digits on every edge).  Starts at n0 and accepts at a0: every a_i is a
    key state, and the total measure is 1 (1 - 2^-length when not
    ``closed``: then n is a chain of trivial components, cut before n0)."""
    zero, one = DigitVector((0,)), DigitVector((1,))
    transitions = []
    for i in range(length):
        after = (i + 1) % length
        if closed or after:
            transitions.append((f"n{i}", zero, f"n{after}"))
        transitions += [
            (f"n{i}", one, f"a{i}"),
            (f"a{i}", zero, f"a{after}"),
            (f"a{i}", one, f"a{after}"),
        ]
    return Automaton(
        base=2,
        arity=1,
        states=tuple(f"{ring}{i}" for ring in "na" for i in range(length)),
        transitions=tuple(transitions),
        start=frozenset({"n0"}),
        accept=frozenset({"a0"}),
    )


def _reference_transient(
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
    useful = reference_reach(t, key_starts, False) & reference_reach(t, [e.n], True)
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


def _reference_series(
    t: EdgeList, starts: list[int], blocks: list[Block], base: int, alpha: float
) -> float:
    """Sum of k^(-alpha * |u|) over the words ``u`` spelled by the paths of
    the key-prefix graph ``t`` from ``starts`` to its last node, whose
    non-trivial components are ``blocks`` (see :func:`_reference_transient`).  Counts
    are exact big integers (one accepting run per word, by unambiguity of
    the source automaton)."""
    n = t.n
    key = n - 1
    x = float(base) ** (-alpha)
    if blocks:
        radius = max(perron(block).root for block in blocks)
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


def key_series(a: Automaton, q: str, alpha: float) -> float | None:
    """``_key_prefix_series`` at state ``q``; None when no path from a start
    enters q's component at q."""
    starts, i = _nodes(a, a.start), a.state_index[q]
    if _entered(a.edges, a.sccs, starts)[i]:
        return float(_key_prefix_series(a.edges, a.sccs, starts, a.base, alpha)[i])


def reference_key_prefix_series(a: Automaton, q: str, alpha: float) -> float | None:
    """Key-prefix series of state ``q`` of a trim unambiguous automaton,
    from its own key-prefix graph; None when no key prefix of q exists."""
    t = _reference_transient(a.edges, a.sccs, a.state_index[q], _nodes(a, a.start))
    return None if t is None else _reference_series(*t, a.base, alpha)


# The per-key measure: one prefix graph and one set of Perron solves per
# key state, a split prefix graph summed through its own key-state
# decomposition (the library solves one prefix graph per keyed block).


def _reference_block_measure(
    base: int, e: EdgeList, block: Block, start: int, alpha: float, cap: int
) -> tuple[float, float]:
    """Measure at exponent ``alpha`` of the closure of ``block`` entered at
    its nodes in ``start`` (a bitmask over positions in ``block.nodes``),
    with the transfer radius it was read at: 0 below radius 1, infinity
    above (off by more than 1e-9)."""
    p, pd, (root,) = _prefix_graph(e, block, [start], cap)
    return _reference_rooted_measure(base, p, pd, alpha, cap)(root)


def _reference_rooted_measure(
    base: int, p: EdgeList, pd: Condensation, alpha: float, cap: int
) -> Callable[[int], tuple[float, float]]:
    """The measure at exponent ``alpha`` of the closed set that the prefix
    graph ``p`` (with condensation ``pd``) recognizes from a root node, as
    a function of the root, with the transfer radius it was read at (see
    :func:`_reference_block_measure`).  The Perron solves are made here, once, so
    every root of one graph shares them."""
    blocks = list(pd.blocks.values())
    # the root and the vector of a strongly connected prefix graph come
    # from one solve
    whole = len(blocks) == 1 and len(blocks[0].nodes) == p.n
    solves = [perron(b, tol=_EIGENVECTOR_TOL, vector=whole) for b in blocks]
    radius = float(base) ** (-alpha) * max(solve.root for solve in solves)

    def at(root: int) -> tuple[float, float]:
        if abs(radius - 1.0) > REPORT_TOL:
            return (0.0 if radius < 1.0 else math.inf), radius
        if not whole:
            # Only a subset construction can split (the block is strongly
            # connected).  It is closed, so every non-trivial component is
            # accepting and can key accepting runs: sum the key-state
            # terms, eigenvector leaves.
            total = 0.0
            accepting = np.ones(p.n, dtype=bool)
            for _, _, contribution in _reference_key_state_terms(
                base, p, pd, [root], accepting, alpha, cap
            ).values():
                total += contribution  # inf absorbs
            return total, radius
        return float(solves[0].vector[root]), radius

    return at


def _reference_key_state_terms(
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
    every_series = _key_prefix_series(e, d, starts, base, alpha)
    terms: dict[int, tuple[float, float, float]] = {}
    # A deterministic block entered at one node is its own prefix graph,
    # whatever the node, so one set of solves serves all its keys.
    shared: dict[int, Callable[[int], tuple[float, float]]] = {}
    for q in np.flatnonzero(_entered(e, d, starts)).tolist():
        c = int(comp[q])
        block = d.blocks.get(c)
        if block is None or not keyed[c]:
            continue
        series = float(every_series[q])
        root = int(np.searchsorted(block.nodes, q))
        measure_at = shared.get(c)
        if measure_at is None:
            p, pd, (root,) = _prefix_graph(e, block, [1 << root], cap)
            measure_at = _reference_rooted_measure(base, p, pd, alpha, cap)
            if _deterministic(_block_edges(e, block)):
                shared[c] = measure_at
        m = measure_at(root)[0]
        if m == 0.0:
            contribution = 0.0
        elif math.isinf(series) or math.isinf(m):
            contribution = math.inf
        else:
            contribution = series * m
        terms[q] = (series, m, contribution)
    return terms


def reference_key_state_terms(
    a: Automaton, alpha: float
) -> dict[str, tuple[float, float, float]]:
    """The (series, component measure, contribution) triple of every key
    state of a trim unambiguous automaton at exponent ``alpha``: each
    state of a non-trivial component holding an accept state that has a
    key prefix, its series from :func:`reference_key_prefix_series`."""
    d = a.sccs
    accepting = _accepting(a)
    terms = {}
    for q, c in zip(a.states, d.component_of.tolist()):
        block = d.blocks.get(c)
        if block is None or not accepting[d.component_of == c].any():
            continue
        series = reference_key_prefix_series(a, q, alpha)
        if series is None:
            continue
        root = int(np.searchsorted(block.nodes, a.state_index[q]))
        m = _reference_block_measure(
            a.base, a.edges, block, 1 << root, alpha, DEFAULT_ENUMERATION_CAP
        )[0]
        if m == 0.0:
            contribution = 0.0
        elif math.isinf(series) or math.isinf(m):
            contribution = math.inf
        else:
            contribution = series * m
        terms[q] = (series, m, contribution)
    return terms
