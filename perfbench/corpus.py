"""Seeded corpus generator for the benchmark workloads.

Self-contained on purpose: it imports nothing from ``omegafract`` or from
the test suite, so neither a library nor a test refactor can change the
inputs silently.  Every input is a plain automaton document (the JSON
shape ``omegafract`` parses) plus metadata computed here from the
transition list: states, transitions, non-trivial SCCs, subset count,
cycle period, determinism, dimension gap and the SHA-256 of the canonical
serialization.  The same seed always yields the same documents and hashes.

Every generated input is drawn once from a fixed generator seed
(``SHAPE_SEED``); the run's seed only draws the order in which a document
lists its transitions.  The program sorts transitions when it parses a
document, so its work is the same for every seed, while the documents
differ (their canonical SHA-256 does not).  When the seed drew the graphs,
or only the names and order of the states, single call times moved by 10%
to a third from seed to seed, more than the regression bounds absorb.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

#: The six automata bundled with the package, frozen here so that the
#: corpus does not follow edits to the package's example files.
BUNDLED = {
    "cantor": {
        "base": 3, "arity": 1, "states": ["c"], "start": ["c"], "accept": ["c"],
        "transitions": [
            {"from": "c", "symbol": [0], "to": "c"},
            {"from": "c", "symbol": [2], "to": "c"},
        ],
    },
    "cantor_pair": {
        "base": 3, "arity": 2, "states": ["c"], "start": ["c"], "accept": ["c"],
        "transitions": [
            {"from": "c", "symbol": [0, 0], "to": "c"},
            {"from": "c", "symbol": [0, 2], "to": "c"},
            {"from": "c", "symbol": [2, 0], "to": "c"},
            {"from": "c", "symbol": [2, 2], "to": "c"},
        ],
    },
    "dyadic": {
        "base": 2, "arity": 1, "states": ["q0", "q1"], "start": ["q0"],
        "accept": ["q1"],
        "transitions": [
            {"from": "q0", "symbol": [0], "to": "q0"},
            {"from": "q0", "symbol": [1], "to": "q0"},
            {"from": "q0", "symbol": [0], "to": "q1"},
            {"from": "q1", "symbol": [0], "to": "q1"},
        ],
    },
    "dyadic_unambiguous": {
        "base": 2, "arity": 1, "states": ["p", "r"], "start": ["p", "r"],
        "accept": ["r"],
        "transitions": [
            {"from": "p", "symbol": [0], "to": "p"},
            {"from": "p", "symbol": [1], "to": "p"},
            {"from": "p", "symbol": [1], "to": "r"},
            {"from": "r", "symbol": [0], "to": "r"},
        ],
    },
    "full_binary": {
        "base": 2, "arity": 1, "states": ["u"], "start": ["u"], "accept": ["u"],
        "transitions": [
            {"from": "u", "symbol": [0], "to": "u"},
            {"from": "u", "symbol": [1], "to": "u"},
        ],
    },
    "golden_mean": {
        "base": 2, "arity": 1, "states": ["g0", "g1"], "start": ["g0"],
        "accept": ["g0", "g1"],
        "transitions": [
            {"from": "g0", "symbol": [0], "to": "g0"},
            {"from": "g0", "symbol": [1], "to": "g1"},
            {"from": "g1", "symbol": [0], "to": "g0"},
        ],
    },
}

#: Subset constructions larger than this are reported as not computed.
SUBSET_LIMIT = 100_000


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def make_doc(base, states, start, accept, transitions, arity=1) -> dict:
    """Automaton document; ``transitions`` holds (src, digits, dst) triples."""
    return {
        "base": base,
        "arity": arity,
        "states": list(states),
        "start": list(start),
        "accept": list(accept),
        "transitions": [
            {"from": s, "symbol": list(d), "to": t} for s, d, t in transitions
        ],
    }


def canonical(doc: dict) -> str:
    """Canonical serialization: states in declaration order, start and
    accept in declaration order, transitions sorted by (from, symbol, to),
    separators ", " and ": "."""
    order = {q: i for i, q in enumerate(doc["states"])}
    transitions = sorted(
        doc["transitions"], key=lambda t: (t["from"], tuple(t["symbol"]), t["to"])
    )
    return json.dumps(
        {
            "base": doc["base"],
            "arity": doc["arity"],
            "states": list(doc["states"]),
            "start": sorted(set(doc["start"]), key=order.__getitem__),
            "accept": sorted(set(doc["accept"]), key=order.__getitem__),
            "transitions": [
                {"from": t["from"], "symbol": list(t["symbol"]), "to": t["to"]}
                for t in transitions
            ],
        },
        separators=(", ", ": "),
    )


# ---------------------------------------------------------------------------
# graph structure computed from the transition list
# ---------------------------------------------------------------------------


def sccs(n: int, succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of nodes 0..n-1 (Kosaraju,
    iterative), each sorted."""
    order: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                stack.pop()
                order.append(node)
    preds: list[list[int]] = [[] for _ in range(n)]
    for q in range(n):
        for t in succ[q]:
            preds[t].append(q)
    comp = [-1] * n
    components: list[list[int]] = []
    for root in reversed(order):
        if comp[root] >= 0:
            continue
        members = [root]
        comp[root] = len(components)
        stack = [root]
        while stack:
            q = stack.pop()
            for p in preds[q]:
                if comp[p] < 0:
                    comp[p] = len(components)
                    members.append(p)
                    stack.append(p)
        components.append(sorted(members))
    return components


class Graph:
    """Integer-indexed view of a document: ``edges[i]`` lists (symbol
    index, target) pairs of state i; symbols are indexed in sorted order."""

    def __init__(self, doc: dict):
        self.base = doc["base"]
        self.arity = doc["arity"]
        self.names = list(doc["states"])
        self.index = {q: i for i, q in enumerate(self.names)}
        self.n = len(self.names)
        self.symbols = sorted({tuple(t["symbol"]) for t in doc["transitions"]})
        sym_index = {s: i for i, s in enumerate(self.symbols)}
        self.edges: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for t in doc["transitions"]:
            self.edges[self.index[t["from"]]].append(
                (sym_index[tuple(t["symbol"])], self.index[t["to"]])
            )
        self.start = sorted(self.index[q] for q in set(doc["start"]))
        self.accept = {self.index[q] for q in doc["accept"]}

    @property
    def deterministic(self) -> bool:
        if len(self.start) != 1:
            return False
        return all(
            len({s for s, _ in out}) == len(out) for out in self.edges
        )

    def sub_doc(self, members, start: int) -> dict:
        """Component sub-automaton: the states ``members`` and the
        transitions among them, started at ``start``, all accepting."""
        names = [self.names[q] for q in members]
        inside = set(members)
        transitions = [
            (self.names[q], self.symbols[s], self.names[t])
            for q in members
            for s, t in self.edges[q]
            if t in inside
        ]
        return make_doc(self.base, names, [self.names[start]], names, transitions,
                        self.arity)

    def counting_matrix(self, members=None) -> np.ndarray:
        """Entry (i, j): number of symbols on transitions i -> j, restricted
        to ``members`` (in the given order) when given."""
        members = list(range(self.n)) if members is None else list(members)
        pos = {q: i for i, q in enumerate(members)}
        m = np.zeros((len(members), len(members)))
        for q in members:
            for _, t in self.edges[q]:
                if t in pos:
                    m[pos[q], pos[t]] += 1.0
        return m

    def sccs(self) -> list[list[int]]:
        return sccs(self.n, [[t for _, t in out] for out in self.edges])

    def nontrivial_sccs(self) -> list[list[int]]:
        out = []
        for members in self.sccs():
            inside = set(members)
            if any(t in inside for q in members for _, t in self.edges[q]):
                out.append(members)
        return out

    def period(self, members: list[int]) -> int:
        """gcd of level differences over the edges of one strongly
        connected component (Lind & Marcus, section 4.5)."""
        inside = set(members)
        level = {members[0]: 0}
        frontier = [members[0]]
        while frontier:
            nxt = []
            for q in frontier:
                for _, t in self.edges[q]:
                    if t in inside and t not in level:
                        level[t] = level[q] + 1
                        nxt.append(t)
            frontier = nxt
        g = 0
        for q in members:
            for _, t in self.edges[q]:
                if t in inside:
                    g = math.gcd(g, level[q] + 1 - level[t])
        return g

    def subsets(self, limit: int = SUBSET_LIMIT):
        """Prefix subset construction over bitmasks: (subsets, edges) where
        ``subsets`` lists reachable nonempty state sets in BFS order and
        ``edges`` holds (source index, target index) per symbol transition.
        Returns None when more than ``limit`` subsets are reachable."""
        # per symbol and byte of the mask: union of the targets of the
        # states whose bits are set in that byte
        chunks = (self.n + 7) // 8
        tables = []
        for s in range(len(self.symbols)):
            single = [0] * (chunks * 8)
            for q in range(self.n):
                for sym, t in self.edges[q]:
                    if sym == s:
                        single[q] |= 1 << t
            table = []
            for c in range(chunks):
                row = [0] * 256
                for byte in range(1, 256):
                    low = byte & -byte
                    row[byte] = row[byte ^ low] | single[c * 8 + low.bit_length() - 1]
                table.append(row)
            tables.append(table)
        first = 0
        for q in self.start:
            first |= 1 << q
        ids = {first: 0}
        order = [first]
        edges: list[tuple[int, int]] = []
        head = 0
        while head < len(order):
            mask = order[head]
            parts = [(c, mask >> (8 * c) & 255) for c in range(chunks)]
            parts = [(c, byte) for c, byte in parts if byte]
            for table in tables:
                target = 0
                for c, byte in parts:
                    target |= table[c][byte]
                if not target:
                    continue
                if target not in ids:
                    if len(order) >= limit:
                        return None
                    ids[target] = len(order)
                    order.append(target)
                edges.append((head, ids[target]))
            head += 1
        return order, edges


def largest_block(subsets, edges) -> int:
    """Size of the largest SCC of a subset construction."""
    succ: list[list[int]] = [[] for _ in subsets]
    for s, t in edges:
        succ[s].append(t)
    return max(len(c) for c in sccs(len(subsets), succ))


def perron_root(matrix: np.ndarray) -> float:
    """Largest eigenvalue modulus, via LAPACK; 0 for an empty matrix."""
    if matrix.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


# ---------------------------------------------------------------------------
# inputs and their metadata
# ---------------------------------------------------------------------------


@dataclass
class Input:
    name: str
    doc: dict
    text: str = ""
    sha256: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.text = json.dumps(self.doc)
        self.sha256 = hashlib.sha256(canonical(self.doc).encode("utf-8")).hexdigest()
        g = Graph(self.doc)
        nontrivial = g.nontrivial_sccs()
        built = g.subsets()
        # box > Hausdorff needs a non-trivial SCC without accept states
        # whose entropy beats every accepting one
        gap = False
        if any(not g.accept & set(m) for m in nontrivial):
            from reference import dimensions

            gap = dimensions(g)["gap"]
        self.meta = {
            "states": g.n,
            "transitions": len(self.doc["transitions"]),
            "nontrivial_sccs": len(nontrivial),
            "largest_scc": max((len(m) for m in nontrivial), default=0),
            "subsets": None if built is None else len(built[0]),
            "subset_block": None if built is None else largest_block(*built),
            "period": max((g.period(m) for m in nontrivial), default=0),
            "deterministic": g.deterministic,
            "gap": gap,
            "sha256": self.sha256,
        }


def _block(rng, names, base, density, edges):
    """Random deterministic strongly connected block over ``names``: a
    Hamiltonian cycle on a random permutation through free slots, then each
    free (state, symbol) slot gets a random in-block target with
    probability ``density``.  Adds to ``edges`` ({(src, symbol): dst})."""
    perm = list(names)
    rng.shuffle(perm)
    for i, q in enumerate(perm):
        free = [s for s in range(base) if (q, s) not in edges]
        edges[(q, rng.choice(free))] = perm[(i + 1) % len(perm)]
    for q in names:
        for s in range(base):
            if (q, s) not in edges and rng.random() < density:
                edges[(q, s)] = rng.choice(names)


def det_automaton(rng, base, blocks, accept_blocks, accept_share=0.3):
    """Deterministic trim automaton made of strongly connected blocks
    ``blocks`` = [(size, density), ...] chained in order: block i has an
    edge into block i + 1 and up to two random edges into later blocks.
    Only blocks listed in ``accept_blocks`` hold accept states; the last
    block must be one of them, so every state is trim."""
    members: list[list[str]] = []
    count = 0
    for size, _ in blocks:
        members.append([f"s{count + i}" for i in range(size)])
        count += size
    edges: dict[tuple[str, int], str] = {}
    for b in range(len(members) - 1):
        edges[(rng.choice(members[b]), rng.randrange(base))] = rng.choice(
            members[b + 1]
        )
    for (_, density), names in zip(blocks, members):
        _block(rng, names, base, density, edges)
    for b in range(len(members) - 1):
        later = [q for m in members[b + 1:] for q in m]
        for _ in range(2):
            slot = (rng.choice(members[b]), rng.randrange(base))
            if slot not in edges:
                edges[slot] = rng.choice(later)
    accept = []
    for b in accept_blocks:
        names = members[b]
        accept += [q for q in names if rng.random() < accept_share] or [names[0]]
    states = [q for names in members for q in names]
    transitions = [(q, (s,), t) for (q, s), t in edges.items()]
    return make_doc(base, states, [rng.choice(members[0])], accept, transitions)


def nfa_strong(rng, n, base=2, extra=0.25):
    """Nondeterministic strongly connected automaton: a Hamiltonian cycle
    plus, per (state, symbol), one random target and with probability
    ``extra`` a second one."""
    names = [f"n{i}" for i in range(n)]
    trans = set()
    perm = list(range(n))
    rng.shuffle(perm)
    for i in range(n):
        trans.add((perm[i], rng.randrange(base), perm[(i + 1) % n]))
    for q in range(n):
        for s in range(base):
            if rng.random() < 0.7:
                trans.add((q, s, rng.randrange(n)))
            if rng.random() < extra:
                trans.add((q, s, rng.randrange(n)))
    accept = [names[q] for q in range(n) if rng.random() < 0.3] or [names[0]]
    transitions = [(names[q], (s,), names[t]) for q, s, t in sorted(trans)]
    return make_doc(base, names, [names[0]], accept, transitions)


def periodic_cycle(length: int, single: int = -1) -> dict:
    """L-cycle in base 2 with both digits on every edge but edge ``single``
    (default: the last): entropy (L - 1) / L * log 2, period L."""
    names = [f"c{i}" for i in range(length)]
    single %= length
    transitions = []
    for i, q in enumerate(names):
        nxt = names[(i + 1) % length]
        transitions.append((q, (0,), nxt))
        if i != single:
            transitions.append((q, (1,), nxt))
    return make_doc(2, names, [names[0]], [names[0]], transitions)


def dense_base3(rng) -> dict:
    """Deterministic strongly connected 4-state base-3 automaton with at
    least 10 of its 12 slots used (entropy close to log 3), for the
    enumeration oracles."""
    names = ["d0", "d1", "d2", "d3"]
    while True:
        edges: dict[tuple[str, int], str] = {}
        _block(rng, names, 3, 0.9, edges)
        if len(edges) >= 10:
            break
    accept = [q for q in names if rng.random() < 0.5] or [names[0]]
    transitions = [(q, (s,), t) for (q, s), t in edges.items()]
    return make_doc(3, names, [names[0]], accept, transitions)


def shuffled(doc: dict, rng) -> dict:
    """The same automaton with its transitions listed in random order."""
    transitions = list(doc["transitions"])
    rng.shuffle(transitions)
    return {**doc, "transitions": transitions}


def path_counts(g: Graph, depth: int) -> list[int]:
    """Number of paths of length 0..depth from the start state (= distinct
    prefixes for deterministic input), with Python integers."""
    vec = {g.start[0]: 1}
    counts = [1]
    for _ in range(depth):
        nxt: dict[int, int] = {}
        for q, c in vec.items():
            for _, t in g.edges[q]:
                nxt[t] = nxt.get(t, 0) + c
        vec = nxt
        counts.append(sum(vec.values()))
    return counts


# ---------------------------------------------------------------------------
# workload corpora: fixed schedules and graphs, seeded transition order
# ---------------------------------------------------------------------------

#: det-scc: (label, base, [(block size, fill density), ...], accepting blocks).
#: The graphs come from SHAPE_SEED; the run's seed only shuffles their
#: transition lists.
#: Block 0 of "multi" and "gap" is transient with cycles; "gap" has a
#: dense non-accepting block, so box > Hausdorff dimension.
DET_SCHEDULE = [
    ("single-50", 2, [(50, 0.8)], [0]),
    ("single-64", 3, [(64, 0.5)], [0]),
    ("single-80", 2, [(80, 0.8)], [0]),
    ("single-100", 3, [(100, 0.5)], [0]),
    ("single-120", 2, [(120, 0.8)], [0]),
    ("multi-88", 2, [(24, 0.3), (40, 0.8), (24, 0.6)], [1, 2]),
    ("gap-64", 3, [(16, 1.0), (48, 0.35)], [1]),
]

#: nfa-periodic NFAs: target subset counts of their prefix determinization.
#: Six share the cheapest target, where the median call falls, and five
#: share 1000, where the tail percentile falls, so that neither rests on
#: one call.  An
#: input is accepted when its count lands within NFA_BAND of the target;
#: from GIANT_FROM subsets on, its largest SCC must also hold GIANT_SHARE of
#: them, so that the Perron solve and its memory see one large block; below
#: it, at most SPLIT_SHARE, so that the small ones are split into blocks.
NFA_TARGETS = [350] * 6 + [500, 650] + [1000] * 5 + [1400, 1700, 1900]
NFA_BAND = 0.05
GIANT_FROM = 650
GIANT_SHARE = 0.9
SPLIT_SHARE = 0.5
#: (largest target, states, second-target rates) for the NFA generator.
NFA_SHAPES = [
    (480, (24, 24), (0.45, 0.45)),
    (600, (24, 24), (0.3, 0.3)),
    (2000, (24, 28), (0.1, 0.2)),
]

#: nfa-periodic cycles: L = start + an offset in [0, 5), so 100 <= L <= 200.
CYCLE_STARTS = [100, 124, 148, 172, 196]

#: cli-oracle generated inputs: count and the band of depth-12 prefix
#: counts, which sets the enumeration cost.
DENSE_COUNT = 3
DENSE_BAND = (40_000, 55_000)


#: Seed of the generator that draws the generated inputs.
SHAPE_SEED = "shape"


def det_scc(seed: int) -> list[Input]:
    rng = random.Random(f"det-scc/{SHAPE_SEED}")
    listing = random.Random(f"det-scc/{seed}")
    out = []
    for label, base, blocks, accepting in DET_SCHEDULE:
        while True:
            inp = Input(label, det_automaton(rng, base, blocks, accepting))
            if inp.meta["nontrivial_sccs"] == len(blocks) and inp.meta[
                "gap"
            ] == label.startswith("gap"):
                break
        out.append(Input(label, shuffled(inp.doc, listing)))
    return out


def nfa_periodic(seed: int) -> list[Input]:
    rng = random.Random(f"nfa-periodic/{SHAPE_SEED}")
    listing = random.Random(f"nfa-periodic/{seed}")
    out = []
    for target in NFA_TARGETS:
        _, sizes, rates = next(shape for shape in NFA_SHAPES if target <= shape[0])
        lo, hi = target * (1 - NFA_BAND), target * (1 + NFA_BAND)
        while True:
            doc = nfa_strong(rng, rng.randint(*sizes), extra=rng.uniform(*rates))
            g = Graph(doc)
            built = g.subsets(limit=int(hi))
            if built is None or len(built[0]) < lo or g.deterministic:
                continue
            share = largest_block(*built) / len(built[0])
            if (share >= GIANT_SHARE) == (target >= GIANT_FROM) and (
                share >= GIANT_SHARE or share <= SPLIT_SHARE
            ):
                break
        out.append(Input(f"nfa-{target}-{len(out)}", shuffled(doc, listing)))
    for start in CYCLE_STARTS:
        length = start + rng.randrange(5)
        doc = periodic_cycle(length, rng.randrange(length))
        out.append(Input(f"cycle-{length}", shuffled(doc, listing)))
    return out


def cli_oracle(seed: int) -> list[Input]:
    rng = random.Random(f"cli-oracle/{SHAPE_SEED}")
    listing = random.Random(f"cli-oracle/{seed}")
    out = [Input(name, doc) for name, doc in BUNDLED.items()]
    while len(out) < len(BUNDLED) + DENSE_COUNT:
        doc = dense_base3(rng)
        if DENSE_BAND[0] <= path_counts(Graph(doc), 12)[12] <= DENSE_BAND[1]:
            name = f"dense3-{len(out) - len(BUNDLED)}"
            out.append(Input(name, shuffled(doc, listing)))
    return out


CORPORA = {"cli-oracle": cli_oracle, "det-scc": det_scc, "nfa-periodic": nfa_periodic}
