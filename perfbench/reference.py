"""Reference values computed without the code being timed.

Everything here works from the transition list of a corpus document:
closed forms where they exist, ``np.linalg.eigvals`` on counting matrices
built here (after an own subset construction for nondeterministic input),
an own pair-graph ambiguity check, exact prefix counts with Python
integers, and an own key-state decomposition for the Hausdorff measure.
``omegafract`` is never imported.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from corpus import Graph, make_doc, path_counts, perron_root

#: Relative agreement required of analytic values (entropies, dimensions,
#: measures) with their reference; the program computes them to 1e-12.
REL_TOL = 1e-8
#: Allowed distance between the oracle's box-counting slope and the box
#: dimension over depths 4..12.
SLOPE_TOL = 0.05
#: Blocks larger than this get the sparse power iteration below instead of
#: a dense eigvals call, which would dominate set-up time.
DENSE_LIMIT = 600


class ReferenceUnavailable(RuntimeError):
    """A reference value could not be computed (never a program failure)."""


def close(x: float, y: float, tol: float = REL_TOL) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


# ---------------------------------------------------------------------------
# Perron roots
# ---------------------------------------------------------------------------


def _sparse_root(src: np.ndarray, dst: np.ndarray, n: int) -> float:
    """Perron root of an irreducible 0/1-edge-list matrix by power
    iteration on A + I with a Collatz-Wielandt bracket."""
    x = np.ones(n)
    for _ in range(200_000):
        y = x + np.bincount(src, weights=x[dst], minlength=n)
        ratios = y / x
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= 1e-13 * hi:
            return (lo + hi) / 2 - 1.0
        x = y / y.max()
    raise ReferenceUnavailable("sparse power iteration did not converge")


def det_root(g: Graph, members) -> float:
    """Perron root of the counting matrix of ``members`` (an SCC)."""
    if len(members) <= DENSE_LIMIT:
        return perron_root(g.counting_matrix(members))
    pos = {q: i for i, q in enumerate(members)}
    src, dst = [], []
    for q in members:
        for _, t in g.edges[q]:
            if t in pos:
                src.append(pos[q])
                dst.append(pos[t])
    return _sparse_root(np.array(src), np.array(dst), len(members))


def determinized(g: Graph) -> Graph:
    """Own prefix subset construction, as a deterministic Graph."""
    built = g.subsets()
    if built is None:
        raise ReferenceUnavailable("subset construction over the limit")
    subsets, edges = built
    names = [f"S{i}" for i in range(len(subsets))]
    # every subset edge carries one distinct symbol; the symbol itself does
    # not matter for counting, so label edges by their rank out of the source
    rank: dict[int, int] = {}
    transitions = []
    for s, t in edges:
        r = rank.get(s, 0)
        rank[s] = r + 1
        transitions.append((names[s], (r,), names[t]))
    base = max(2, max(rank.values(), default=1))
    return Graph(make_doc(base, names, [names[0]], names, transitions))


def entropy(g: Graph) -> float:
    """log of the Perron root of the (determinized) counting matrix."""
    d = g if g.deterministic else determinized(g)
    return math.log(max(det_root(d, m) for m in d.nontrivial_sccs()))


def cycle_entropy(length: int) -> float:
    return (length - 1) / length * math.log(2)


# ---------------------------------------------------------------------------
# dimensions, mw_alpha and density (deterministic SCCs)
# ---------------------------------------------------------------------------


def _sub_graph(g: Graph, members, start) -> Graph:
    return Graph(g.sub_doc(members, start))


def scc_entropies(g: Graph) -> list[tuple[list[int], float]]:
    """(members, cycle-language entropy) of every non-trivial SCC; the
    entropy is constant on an SCC.  Nondeterministic SCCs are determinized
    on the cycle language of their first state."""
    out = []
    for members in g.nontrivial_sccs():
        sub = _sub_graph(g, members, members[0])
        if sub.deterministic:
            out.append((members, math.log(det_root(sub, range(sub.n)))))
        else:
            out.append((members, entropy(sub)))
    return out


def dimensions(g: Graph) -> dict:
    """Hausdorff and box dimension, gap flag, per-state entropies, and the
    per-SCC critical exponents keyed like the CLI ("a+b+c")."""
    log_k = math.log(g.base)
    ent = scc_entropies(g)
    per_state = {g.names[q]: h for m, h in ent for q in m}
    hausdorff = max(h for m, h in ent if g.accept & set(m)) / log_k
    box = max(h for _, h in ent) / log_k
    return {
        "hausdorff": hausdorff,
        "box": box,
        "gap": box - hausdorff > 1e-9,
        "per_state": per_state,
        "alphas": {
            "+".join(g.names[q] for q in m): max(h, 0.0) / log_k for m, h in ent
        },
    }


def complete_states(g: Graph) -> set[str]:
    """States on a cycle whose cycle language extends every digit string:
    every subset of the determinized cycle automaton has all k^d symbols."""
    full = g.base**g.arity
    out = set()
    for members in g.nontrivial_sccs():
        for q in members:
            sub = _sub_graph(g, members, q)
            d = sub if sub.deterministic else determinized(sub)
            # one edge per symbol out of every (subset) state
            if all(len(e) == full for e in d.edges):
                out.add(g.names[q])
    return out


# ---------------------------------------------------------------------------
# Hausdorff measure: own key-state decomposition
# ---------------------------------------------------------------------------


def _reach(edges, sources) -> set[int]:
    seen = set(sources)
    stack = list(seen)
    while stack:
        q = stack.pop()
        for t in edges[q]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _perron_vector(block: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eig(block)
    v = np.abs(np.real(vectors[:, int(np.argmax(np.abs(values)))]))
    return v / v.max()


def measure(g: Graph) -> dict:
    """alpha and total Hausdorff measure of an unambiguous automaton whose
    accepting SCCs are deterministic: sum over key states q of (weighted
    count of key prefixes of q) x (Perron-vector entry of q at the critical
    exponent, normalized to maximum 1)."""
    log_k = math.log(g.base)
    ent = scc_entropies(g)
    alpha = max(h for m, h in ent if g.accept & set(m)) / log_k
    x = float(g.base) ** (-alpha)
    total = 0.0
    for members, h in ent:
        inside = set(members)
        if not g.accept & inside:
            continue
        block = g.counting_matrix(members)
        sub = _sub_graph(g, members, members[0])
        if not sub.deterministic:
            raise ReferenceUnavailable("measure reference needs deterministic SCCs")
        critical = abs(h / log_k - alpha) <= 1e-9
        vector = _perron_vector(block) if critical else None
        outside = [q for q in range(g.n) if q not in inside]
        succ = {q: [t for _, t in g.edges[q] if t not in inside] for q in outside}
        pred: dict[int, list[int]] = {q: [] for q in outside}
        for q in outside:
            for t in succ[q]:
                pred[t].append(q)
        starts_out = [s for s in g.start if s not in inside]
        forward = _reach(succ, starts_out)
        for i, q in enumerate(members):
            entering = [p for p in forward for _, t in g.edges[p] if t == q]
            useful = forward & _reach(pred, set(entering))
            has_key = q in g.start or bool(useful)
            if not has_key:
                continue
            m = float(vector[i]) if critical else 0.0
            if m == 0.0:
                continue
            nodes = sorted(useful)
            pos = {p: j for j, p in enumerate(nodes)}
            a = np.zeros((len(nodes), len(nodes)))
            b = np.zeros(len(nodes))
            for p in nodes:
                for _, t in g.edges[p]:
                    if t in pos:
                        a[pos[p], pos[t]] += 1.0
                    elif t == q:
                        b[pos[p]] += x
            series = 1.0 if q in g.start else 0.0
            if nodes:
                if perron_root(a) >= 1.0 / x - 1e-12:
                    total = math.inf
                    continue
                sol = np.linalg.solve(np.eye(len(nodes)) - x * a, b)
                series += sum(float(sol[pos[s]]) for s in g.start if s in pos)
            total += series * m
    return {"alpha": alpha, "total": total}


# ---------------------------------------------------------------------------
# ambiguity: own pair-graph check
# ---------------------------------------------------------------------------


def ambiguity(g: Graph) -> dict:
    """Unambiguity over the self-product: ambiguous iff a reachable pair of
    distinct states reaches a non-trivial pair SCC where both coordinates
    visit accept states.  Returns the flag, the shortest witness length and
    the set of witness pairs."""
    delta: dict[tuple[int, int], list[int]] = {}
    for q in range(g.n):
        for s, t in g.edges[q]:
            delta.setdefault((q, s), []).append(t)
    init = [(p, q) for p in g.start for q in g.start]
    depth = {pair: 0 for pair in init}
    order = list(init)
    succ: dict[tuple[int, int], list[tuple[int, int]]] = {}
    head = 0
    while head < len(order):
        p, q = order[head]
        head += 1
        out = []
        for s in range(len(g.symbols)):
            for p2 in delta.get((p, s), ()):
                for q2 in delta.get((q, s), ()):
                    out.append((p2, q2))
                    if (p2, q2) not in depth:
                        depth[(p2, q2)] = depth[(p, q)] + 1
                        order.append((p2, q2))
        succ[(p, q)] = out
    names = {pair: i for i, pair in enumerate(order)}
    pair_doc = make_doc(
        2,
        [str(i) for i in range(len(order))],
        ["0"],
        [],
        [(str(names[u]), (0,), str(names[v])) for u in order for v in set(succ[u])],
    )
    pg = Graph(pair_doc)
    good = set()
    for members in pg.nontrivial_sccs():
        pairs = [order[i] for i in members]
        if any(p in g.accept for p, _ in pairs) and any(
            q in g.accept for _, q in pairs
        ):
            good.update(pairs)
    pred: dict[tuple[int, int], list[tuple[int, int]]] = {u: [] for u in order}
    for u in order:
        for v in succ[u]:
            pred[v].append(u)
    reach_good = _reach(pred, good)
    witnesses = {u for u in reach_good if u[0] != u[1]}
    return {
        "unambiguous": not witnesses,
        "witness_length": min((depth[u] for u in witnesses), default=None),
        "witness_pairs": witnesses,
        "delta": delta,
        "init": init,
    }


def witness_ok(g: Graph, ref: dict, word) -> bool:
    """Does ``word`` (a list of digit lists) have the shortest witness
    length and lead from the start pairs to a witness pair?"""
    if len(word) != ref["witness_length"]:
        return False
    sym_index = {s: i for i, s in enumerate(g.symbols)}
    pairs = set(ref["init"])
    for digits in word:
        s = sym_index.get(tuple(digits))
        if s is None:
            return False
        pairs = {
            (p2, q2)
            for p, q in pairs
            for p2 in ref["delta"].get((p, s), ())
            for q2 in ref["delta"].get((q, s), ())
        }
    return bool(pairs & ref["witness_pairs"])


# ---------------------------------------------------------------------------
# enumeration oracles: exact counts and rasters
# ---------------------------------------------------------------------------


def prefix_counts(g: Graph, depth: int) -> list[int]:
    """Exact number of distinct length-n prefixes, n = 0..depth, counted
    as paths of the determinized automaton with Python integers."""
    return path_counts(g if g.deterministic else determinized(g), depth)


def prefixes(g: Graph, depth: int) -> set[tuple]:
    """All length-``depth`` words with a run from a start state."""
    level = {(): frozenset(g.start)}
    for _ in range(depth):
        nxt: dict[tuple, set[int]] = {}
        for word, states in level.items():
            for q in states:
                for s, t in g.edges[q]:
                    nxt.setdefault(word + (g.symbols[s],), set()).add(t)
        level = {w: frozenset(v) for w, v in nxt.items()}
    return set(level)


def raster(g: Graph, depth: int, fmt: str) -> str:
    """Depth-n cover as merged exact intervals (arity 1) or PBM text."""
    corners = set()
    for word in prefixes(g, depth):
        corner = [0] * g.arity
        for sym in word:
            corner = [c * g.base + d for c, d in zip(corner, sym)]
        corners.add(tuple(corner))
    side = g.base**depth
    if fmt in ("interval", "interval-list"):
        runs: list[list[int]] = []
        for (z,) in sorted(corners):
            if runs and runs[-1][1] == z:
                runs[-1][1] = z + 1
            else:
                runs.append([z, z + 1])
        lines = []
        for lo, hi in runs:
            a, b = Fraction(lo, side), Fraction(hi, side)
            lines.append(f"{a.numerator}/{a.denominator} {b.numerator}/{b.denominator}")
        return "\n".join(lines) + "\n"
    if g.arity == 1:
        cells = {(0, c[0]) for c in corners}
        height = 1
    else:
        cells = {(c[1], c[0]) for c in corners}
        height = side
    rows = [
        "".join("1" if (r, c) in cells else "0" for c in range(side))
        for r in range(height)
    ]
    return f"P1\n{side} {height}\n" + "\n".join(rows) + "\n"

