"""Automaton data model, JSON parsing/serialization and structural operations.

The single :class:`Automaton` representation carries both semantics: read as
a finite automaton it accepts finite digit strings, read as a Buchi
automaton it accepts infinite digit strings whose runs visit an accept
state infinitely often.  Symbols are :class:`DigitVector` values, i.e.
d-tuples of base-k digits, so the recognized infinite words are base-k
expansions of points of the unit box [0,1]^d.

All types are immutable after construction; every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property, reduce
from itertools import chain, compress
from operator import getitem, itemgetter, or_
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    CapExceededError,
    EmptyLanguageError,
    FormatError,
    NotStronglyConnectedError,
    NotTrimError,
    ValidationError,
)

#: Default limit on the number of strings any enumeration may touch.
DEFAULT_ENUMERATION_CAP = 2**22


@dataclass(frozen=True, order=True)
class DigitVector:
    """One alphabet symbol: a d-tuple of digits, each in [0, k).

    Range checks against a concrete base/arity happen where an automaton
    context is available (parsing and :class:`Automaton` validation).
    """

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        digits = tuple(int(d) for d in self.digits)
        object.__setattr__(self, "digits", digits)
        if len(digits) < 1:
            raise ValidationError("symbol must have at least one digit")
        if any(d < 0 for d in digits):
            raise ValidationError(f"negative digit in symbol {digits}")

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __getitem__(self, i: int) -> int:
        return self.digits[i]

    def __str__(self) -> str:
        return ",".join(str(d) for d in self.digits)


#: A finite word: tuple of symbols.
Word = tuple[DigitVector, ...]

#: One transition: (source state, symbol, target state).
Transition = tuple[str, DigitVector, str]


@dataclass(frozen=True)
class EdgeList:
    """Integer form of a transition graph on ``n`` states numbered 0..n-1:
    edge e runs from ``src[e]`` to ``dst[e]`` on symbol number ``sym[e]``.

    For an automaton the states are numbered in declaration order, the
    symbols in ``symbols_used`` order and the edges sorted by (from,
    symbol, to) on the names and digits.  Parallel edges stay separate, so
    counting the edges per (src, dst) pair gives the counting matrix.

    Every edge list built in this module lists the edges of one (src, sym)
    pair as one contiguous run: an automaton's are sorted by (from,
    symbol, to); a block's sub-list keeps that order under an injective
    renumbering; a subset construction emits its edges in (subset, symbol)
    order.  :func:`_deterministic` relies on it.
    """

    n: int
    src: np.ndarray
    sym: np.ndarray
    dst: np.ndarray

    @classmethod
    def from_lists(cls, n: int, src, sym, dst) -> "EdgeList":
        return cls(
            n=n,
            src=np.array(src, dtype=np.intp),
            sym=np.array(sym, dtype=np.intp),
            dst=np.array(dst, dtype=np.intp),
        )

    # the adjacency, built once per edge list (frozen, so caching is safe)

    @cached_property
    def successors(self) -> list[list[int]]:
        """``successors[u]``: the heads of the edges leaving node u, in
        edge order."""
        return _grouped(self.n, self.src, self.dst)

    @cached_property
    def image(self) -> Callable[[int], int]:
        """The packed image kernel of the graph (see :func:`_image_kernel`),
        its per-byte memo kept across calls."""
        return _image_kernel(self)


def _grouped(n: int, key: np.ndarray, value: np.ndarray) -> list[list[int]]:
    """``out[i]``: the entries of ``value`` whose ``key`` is i, for i in
    0..n-1, each list in array order."""
    out: list[list[int]] = [[] for _ in range(n)]
    for k, v in zip(key.tolist(), value.tolist()):
        out[k].append(v)
    return out


def _checked_symbol(
    sym: DigitVector | Sequence[int], base: int, arity: int
) -> DigitVector:
    """``sym`` as a :class:`DigitVector`, checked against the alphabet of
    base-``base`` digit vectors of arity ``arity``."""
    sym = sym if isinstance(sym, DigitVector) else DigitVector(tuple(sym))
    if len(sym) != arity:
        raise ValidationError(f"symbol {sym} has arity {len(sym)}, expected {arity}")
    if any(d >= base for d in sym):
        raise ValidationError(f"digit out of range in symbol {sym} for base {base}")
    return sym


class Automaton:
    """Finite/Buchi automaton over the alphabet of base-``base`` digit
    vectors of arity ``arity``.

    ``states`` is an ordered set: declaration order fixes every matrix
    indexing downstream.  The automaton is stored as integer columns:
    ``edges`` numbers the states in declaration order and the symbols in
    ``symbols_used`` order (digit order), and lists the transitions sorted
    by (from, symbol, to); duplicates are rejected rather than merged.
    ``state_index`` maps each state to its number.  ``transitions``, the
    same edges as (from, symbol, to) triples, is derived on first read.
    Equality, hashing and ``repr`` are those of a frozen dataclass with
    the fields ``base``, ``arity``, ``states``, ``transitions``, ``start``
    and ``accept``.
    """

    base: int
    arity: int
    states: tuple[str, ...]
    start: frozenset[str]
    accept: frozenset[str]
    state_index: dict[str, int]
    symbols_used: tuple[DigitVector, ...]
    edges: EdgeList

    def __init__(
        self,
        base: int,
        arity: int,
        states: Iterable[str],
        transitions: Iterable[Transition],
        start: Iterable[str],
        accept: Iterable[str],
    ) -> None:
        triples = (
            (p, s.digits if isinstance(s, DigitVector) else tuple(s), q)
            for p, s, q in transitions
        )
        vars(self).update(_numbered(base, arity, states, triples, start, accept))
        self.__post_init__()

    def __post_init__(self) -> None:
        """Every automaton passes through here once its fields are set:
        the edge columns become read only, as the structure cached on the
        automaton and its edge list is derived from them."""
        e = self.edges
        for column in (e.src, e.sym, e.dst):
            column.setflags(write=False)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return (self.base, self.arity, self.states, self.start, self.accept)

    def __eq__(self, other) -> bool:
        # equal states and symbols make equal transitions equal columns
        if other.__class__ is not self.__class__:
            return NotImplemented
        e, f = self.edges, other.edges
        return (
            self._key() == other._key()
            and self.symbols_used == other.symbols_used
            and all(map(np.array_equal, (e.src, e.sym, e.dst), (f.src, f.sym, f.dst)))
        )

    def __hash__(self) -> int:
        base, arity, states, start, accept = self._key()
        return hash((base, arity, states, self.transitions, start, accept))

    def __repr__(self) -> str:
        return (
            f"Automaton(base={self.base!r}, arity={self.arity!r},"
            f" states={self.states!r}, transitions={self.transitions!r},"
            f" start={self.start!r}, accept={self.accept!r})"
        )

    # -- derived structure (cached; the automaton is frozen, caches are safe) --

    @cached_property
    def transitions(self) -> tuple[Transition, ...]:
        """The edges as (from, symbol, to) triples, in ``edges`` order."""
        e, name = self.edges, self.states.__getitem__
        src, sym, dst = e.src.tolist(), e.sym.tolist(), e.dst.tolist()
        symbol = self.symbols_used.__getitem__
        return tuple(zip(map(name, src), map(symbol, sym), map(name, dst)))

    @cached_property
    def sccs(self) -> "Condensation":
        """The strongly connected components of :attr:`edges`; every
        per-component analysis reads this one decomposition."""
        return _condensation(self.edges)

    @cached_property
    def _reachable_mask(self) -> np.ndarray:
        """The states reachable from a start state, read only."""
        seeds = _nodes(self, self.start)
        return _read_only(_reach(self.edges, self.sccs, seeds, backward=False))

    @cached_property
    def _productive_mask(self) -> np.ndarray:
        """The states that reach (in zero or more steps) an accept state
        inside a non-trivial block of :attr:`sccs`, read only."""
        cyclic = np.zeros(len(self.states), dtype=bool)
        for block in self.sccs.blocks.values():
            cyclic[block.nodes] = True
        seeds = cyclic & _accepting(self)
        return _read_only(_reach(self.edges, self.sccs, seeds, backward=True))

    @cached_property
    def _live_mask(self) -> np.ndarray:
        """The states some accepting run passes through, read only: those
        reachable from a start state that reach an accept state on a cycle.
        It is the fixpoint of pruning the states that are unreachable or
        have no nonzero-length path to an accept state: a state on an
        accepting run survives every round, and a state of the fixpoint is
        reachable and has a nonzero-length path inside it to an accept
        state, from there to another, and so on until one recurs, on a
        cycle.  So this is the state set of :func:`trim`, and the automaton
        is trim iff it holds every state."""
        return _read_only(self._reachable_mask & self._productive_mask)

    def replace(
        self,
        *,
        states: Sequence[str] | None = None,
        transitions: Iterable[Transition] | None = None,
        start: Iterable[str] | None = None,
        accept: Iterable[str] | None = None,
    ) -> "Automaton":
        return Automaton(
            base=self.base,
            arity=self.arity,
            states=tuple(states) if states is not None else self.states,
            transitions=tuple(transitions)
            if transitions is not None
            else self.transitions,
            start=frozenset(start) if start is not None else self.start,
            accept=frozenset(accept) if accept is not None else self.accept,
        )

    def restrict(self, kept: Iterable[str]) -> "Automaton":
        """Sub-automaton induced by ``kept`` (start/accept intersected)."""
        keep = set(kept)
        if not self.start & keep:
            raise EmptyLanguageError("no start state survives the restriction")
        return _restricted(self, np.array([q in keep for q in self.states]))


def _made(fields: dict) -> Automaton:
    """An automaton with the checked ``fields`` (see :func:`_numbered`)."""
    a = object.__new__(Automaton)
    vars(a).update(fields)
    a.__post_init__()
    return a


def _numbered(
    base: int,
    arity: int,
    states: Iterable,
    triples: Iterable[tuple],
    start: Iterable,
    accept: Iterable,
) -> dict:
    """The fields of an automaton, checked: the one routine that numbers
    states and symbols, for the constructor and the parser alike.

    ``triples`` yields (from, digits, to) per transition, ``digits`` a
    hashable tuple.  It is read to the end before anything else is
    checked, so an error it raises (a malformed document) wins.  Then
    come, in this order: the base, the arity and the states; the first
    transition with a symbol that is no digit vector of the alphabet
    (checked where the symbol first appears) or an unknown or unhashable
    state, checked in that order within a transition; a repeated triple;
    the start and accept sets.  A state in ``states``, ``start`` and
    ``accept`` stands for its ``str``, one in ``triples`` for itself.
    """
    states = tuple(map(str, states))
    index = {q: i for i, q in enumerate(states)}
    get = index.get
    number: dict[tuple, int] = {}  # digits -> number in order of appearance
    first: list[int] = []  # the transition where each symbol first appears
    rows: list[int] = []
    unknown = None  # (transition, 1, error) of the first with an unknown state
    for p, s, q in triples:
        c = number.get(s)
        if c is None:
            c = number[s] = len(first)
            first.append(len(rows) // 3)
        try:
            i, j = get(p), get(q)
        except TypeError:  # an unhashable id
            i = j = None
        if (i is None or j is None) and unknown is None:
            unknown = (len(rows) // 3, 1, _endpoint_error(index, p, q))
        rows += (i, c, j)
    if base < 2:
        raise ValidationError(f"base must be >= 2, got {base}")
    if arity < 1:
        raise ValidationError(f"arity must be >= 1, got {arity}")
    if len(index) != len(states):
        raise ValidationError("duplicate state identifiers")
    if not states:
        raise ValidationError("automaton needs at least one state")
    failures = [] if unknown is None else [unknown]
    vectors: list[DigitVector] = []
    for digits, at in zip(number, first):
        try:
            vectors.append(_checked_symbol(digits, base, arity))
        except ValidationError as exc:
            failures.append((at, 0, exc))
            break
    if failures:
        raise min(failures)[2]
    # symbols renumbered in digit order, names ranked in string order; a
    # repeated triple then shows as two equal neighbouring edges
    used = sorted({v.digits: v for v in vectors}.values())
    rank = {v.digits: r for r, v in enumerate(used)}
    name_rank = np.empty(len(states), dtype=np.intp)
    name_rank[[index[q] for q in sorted(states)]] = np.arange(len(states))
    edges = np.array(rows, dtype=np.intp).reshape(-1, 3).T
    edges[1] = np.array([rank[v.digits] for v in vectors], dtype=np.intp)[edges[1]]
    order = np.lexsort((name_rank[edges[2]], edges[1], name_rank[edges[0]]))
    edges = edges.take(order, axis=1)  # one contiguous row per array
    if (edges[:, 1:] == edges[:, :-1]).all(axis=0).any():
        raise ValidationError("duplicate transition triple")
    start, accept = frozenset(map(str, start)), frozenset(map(str, accept))
    if not start:
        raise ValidationError("start set must be nonempty")
    declared = index.keys()
    if not start <= declared:
        raise ValidationError(f"start states {sorted(start - declared)} undeclared")
    if not accept <= declared:
        raise ValidationError(f"accept states {sorted(accept - declared)} undeclared")
    return dict(
        base=base,
        arity=arity,
        states=states,
        state_index=index,
        symbols_used=tuple(used),
        edges=EdgeList(len(states), *edges),
        start=start,
        accept=accept,
    )


def _endpoint_error(index: dict[str, int], p, q) -> Exception:
    """The error of a transition from ``p`` to ``q`` whose states are not
    both in ``index``: the first unknown one, or the ``TypeError`` of an
    unhashable one."""
    for end, name in (("from", p), ("to", q)):
        try:
            known = name in index
        except TypeError as exc:
            return exc
        if not known:
            return ValidationError(f"transition {end} unknown state {name!r}")
    raise AssertionError("both states are known")


def _restricted(a: Automaton, keep: np.ndarray) -> Automaton:
    """The sub-automaton of ``a`` on the states of the mask ``keep``, which
    holds a start state: the edges between kept states, in their order
    (the canonical one, as renumbering keeps the order of names and
    symbols), with states and symbols renumbered."""
    e = a.edges
    rows = keep[e.src] & keep[e.dst]
    present = np.zeros(len(a.symbols_used), dtype=bool)
    present[e.sym[rows]] = True
    states = tuple(compress(a.states, keep.tolist()))
    index = {q: i for i, q in enumerate(states)}
    new_state, new_symbol = np.cumsum(keep) - 1, np.cumsum(present) - 1
    return _made(
        dict(
            base=a.base,
            arity=a.arity,
            states=states,
            state_index=index,
            symbols_used=tuple(compress(a.symbols_used, present.tolist())),
            edges=EdgeList(
                len(states),
                new_state[e.src[rows]],
                new_symbol[e.sym[rows]],
                new_state[e.dst[rows]],
            ),
            start=a.start.intersection(index),
            accept=a.accept.intersection(index),
        )
    )


@dataclass(frozen=True)
class PropertyFlags:
    """Structural property flags of an automaton."""

    deterministic: bool
    finite_trim: bool
    trim: bool
    closed: bool
    weak: bool


@dataclass(frozen=True)
class AmbiguityReport:
    """Result of the unambiguity check.

    ``witness`` is a shortest word prefix after which two in-progress
    accepting runs of one common word occupy different states (present
    only when the automaton is ambiguous).
    """

    unambiguous: bool
    witness: Word | None = None

    def __bool__(self) -> bool:
        return self.unambiguous


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------


def parse_automaton(text: str) -> Automaton:
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
    return _made(
        _numbered(
            doc["base"],
            doc["arity"],
            doc["states"],
            _document_triples(doc["transitions"]),
            # sets of names, as a caller of the constructor passes them: a
            # set rebuilt from another may list its members in a new order
            frozenset(map(str, doc["start"])),
            frozenset(map(str, doc["accept"])),
        )
    )


def _document_triples(entries: list) -> Iterator[tuple]:
    """(from, digits, to) of each transition object of a document, the
    state ids as strings, after checking its shape: an object with the
    three fields whose symbol is a nonempty array of nonnegative integers.
    ``json.loads`` makes exact ints, so ``type(d) is int`` excludes bools;
    the digits are typed before they are hashed, as (True,) == (1,) and
    hash(1.0) == hash(1).  One sweep over every digit at once usually
    finds them all typed, and then each symbol only needs to be an array:
    the sweep allocates nothing per transition, and on
    ``two_rings(100 000)`` the parse takes about 10% less time than with
    a check of each symbol on its own."""
    try:
        typed = {*map(type, chain.from_iterable(map(itemgetter("symbol"), entries)))}
        typed = typed <= {int}
    except (KeyError, TypeError):  # not every entry has a symbol to sweep
        typed = False
    made = set()  # the digit tuples met so far, each a DigitVector
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValidationError(f"transitions[{i}] must be an object")
        try:
            src, sym, dst = entry["from"], entry["symbol"], entry["to"]
        except KeyError:
            key = next(k for k in ("from", "symbol", "to") if k not in entry)
            raise ValidationError(f"transitions[{i}] missing field {key!r}") from None
        if type(sym) is not list or not (typed or all(type(d) is int for d in sym)):
            raise ValidationError(
                f"transitions[{i}].symbol must be an array of integers"
            )
        digits = tuple(sym)
        if digits not in made:
            DigitVector(digits)  # an empty or negative symbol fails in this pass
            made.add(digits)
        yield str(src), digits, str(dst)


def automaton_to_dict(a: Automaton) -> dict:
    """Canonical plain-dict form: states in declaration order, start/accept
    in declaration order, transitions sorted by (from, symbol, to)."""
    order = a.state_index
    return {
        "base": a.base,
        "arity": a.arity,
        "states": list(a.states),
        "start": sorted(a.start, key=order.__getitem__),
        "accept": sorted(a.accept, key=order.__getitem__),
        "transitions": [
            {"from": src, "symbol": list(sym.digits), "to": dst}
            for src, sym, dst in a.transitions
        ],
    }


def serialize_automaton(a: Automaton) -> str:
    """Bit-exact canonical serialization of the automaton document: the
    text of ``json.dumps(automaton_to_dict(a), separators=(", ", ": "))``,
    built from the edge columns with each state name and each symbol
    encoded once."""
    names = list(map(json.dumps, a.states))
    symbols = [json.dumps(list(v.digits)) for v in a.symbols_used]
    e = a.edges
    transitions = ", ".join(
        [
            f'{{"from": {names[i]}, "symbol": {symbols[c]}, "to": {names[j]}}}'
            for i, c, j in zip(e.src.tolist(), e.sym.tolist(), e.dst.tolist())
        ]
    )
    start, accept = (
        ", ".join(names[i] for i in _nodes(a, ends)) for ends in (a.start, a.accept)
    )
    return (
        f'{{"base": {json.dumps(a.base)}, "arity": {json.dumps(a.arity)},'
        f' "states": [{", ".join(names)}], "start": [{start}],'
        f' "accept": [{accept}], "transitions": [{transitions}]}}'
    )


def load_automaton(path: str) -> Automaton:
    """Parse the automaton document in the UTF-8 file at ``path``; a file
    that is not valid UTF-8 raises :class:`FormatError`."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"not valid UTF-8 at byte {exc.start}: {exc.reason}"
        ) from exc
    return parse_automaton(text)


# ---------------------------------------------------------------------------
# reachability and property flags
# ---------------------------------------------------------------------------


def _between(e: EdgeList, d: Condensation) -> np.ndarray:
    """The numbers of the edges of ``e`` between two components of its
    condensation ``d``, sorted stably by the component they leave: in
    topological order of their tails, and in edge order within one."""
    comp = d.component_of
    between = np.flatnonzero(comp[e.src] != comp[e.dst])
    return between[np.argsort(comp[e.src[between]], kind="stable")]


def _reach(
    e: EdgeList, d: Condensation, seeds: np.ndarray | list[int], backward: bool
) -> np.ndarray:
    """Mask of the nodes of ``e`` reachable (in zero or more steps) from
    the nodes ``seeds`` (a node mask or node numbers), or with
    ``backward`` those that reach one, for ``d`` the condensation of ``e``.

    A component is reached whole or not at all, so one pass over the edges
    between components (see :func:`_between`) marks the components
    reached.  Components are numbered in topological order, so the
    forward pass meets an edge after every edge into its tail, and the
    reversed pass meets it after every edge out of its head."""
    comp = d.component_of
    between = _between(e, d)
    tails, heads = comp[e.src[between]], comp[e.dst[between]]
    if backward:
        tails, heads = heads[::-1], tails[::-1]
    hit = np.zeros(e.n, dtype=bool)
    hit[comp[seeds]] = True
    hit = hit.tolist()
    for t, h in zip(tails.tolist(), heads.tolist()):
        if hit[t]:
            hit[h] = True
    return np.array(hit, dtype=bool)[comp]


def _read_only(mask: np.ndarray) -> np.ndarray:
    """``mask``, made read only so that an automaton can cache it."""
    mask.setflags(write=False)
    return mask


def _nodes(a: Automaton, names: Iterable[str]) -> list[int]:
    """Numbers of the states ``names``, in declaration order."""
    return sorted(a.state_index[q] for q in names)


def _accepting(a: Automaton) -> np.ndarray:
    """Mask of the accept states."""
    mask = np.zeros(len(a.states), dtype=bool)
    mask[_nodes(a, a.accept)] = True
    return mask


def classify_properties(a: Automaton) -> PropertyFlags:
    """Compute the deterministic / finite-trim / trim / closed / weak flags.

    Trim uses the strict reading: every state must be reachable from a
    start state and have a path of *nonzero* length to an accept state.
    ``finite_trim`` allows the zero-length path (the state may itself be
    accepting with no continuation).
    """
    deterministic = _is_deterministic(a)
    accepting = _accepting(a)
    coacc0 = _reach(a.edges, a.sccs, accepting, backward=True)
    finite_trim = bool(np.all(a._reachable_mask & coacc0))
    trim = bool(a._live_mask.all())
    closed = trim and a.accept == frozenset(a.states)
    comp_of = a.sccs.component_of
    weak = not set(comp_of[accepting].tolist()) & set(comp_of[~accepting].tolist())
    return PropertyFlags(
        deterministic=deterministic,
        finite_trim=finite_trim,
        trim=trim,
        closed=closed,
        weak=weak,
    )


def _is_deterministic(a: Automaton) -> bool:
    """One start state and at most one successor per state and symbol."""
    return len(a.start) == 1 and _deterministic(a.edges)


def require_trim(a: Automaton) -> None:
    """Raise :class:`NotTrimError` unless ``a`` is trim; computes only the
    trim flag of :func:`classify_properties`."""
    if not a._live_mask.all():
        raise NotTrimError("operation requires a trim automaton")


# ---------------------------------------------------------------------------
# trim / closure
# ---------------------------------------------------------------------------


def trim(a: Automaton) -> Automaton:
    """Largest sub-automaton in which every state is reachable from a start
    state and has a nonzero-length path to an accept state.

    The accepted infinite-word language is preserved: the kept states are
    those some accepting run passes through (see ``Automaton._live_mask``),
    so one restriction reaches the fixpoint of pruning.  Raises
    :class:`EmptyLanguageError` when nothing survives, which happens
    exactly when the automaton accepts no infinite word.
    """
    keep = a._live_mask
    if not keep.any():
        raise EmptyLanguageError("trimming removed every state")
    if keep.all():
        return a
    return _restricted(a, keep)


def closure(a: Automaton) -> Automaton:
    """Same structure with every state accepting.

    Defined on trim automata only; the result recognizes the topological
    closure of the point set the input recognizes.
    """
    require_trim(a)
    return a.replace(accept=a.states)


# ---------------------------------------------------------------------------
# strongly connected components
# ---------------------------------------------------------------------------


def tarjan_components(nodes, successors, depth=None) -> list[list[int]]:
    """Iterative Tarjan SCC (Tarjan 1972) on the nodes 0..n-1 listed in
    ``nodes``, roots tried in that order, with ``successors[u]`` the heads
    of u's edges.  Components come out in reverse topological order, each
    listed from its last discovered node back to its root.  A ``depth``
    list of length n, when given, receives each node's depth in the
    depth-first forest, set when the node is discovered."""
    n = len(nodes)
    if depth is None:
        depth = [0] * n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in nodes:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        depth[root] = 0
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(successors[root]))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if index[nxt] < 0:
                    index[nxt] = low[nxt] = counter
                    depth[nxt] = len(work)
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(successors[nxt])))
                    break
                if on_stack[nxt] and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    top = len(stack) - 1
                    while stack[top] != node:
                        top -= 1
                    comp = stack[top:]
                    del stack[top:]
                    comp.reverse()
                    for q in comp:
                        on_stack[q] = False
                    components.append(comp)
    return components


@dataclass(frozen=True)
class Block:
    """One non-trivial strongly connected block of an edge list.

    ``nodes`` holds the block's node numbers in increasing order, ``edges``
    the numbers of the edges inside it, also increasing; ``src``/``dst`` are
    those edges' endpoints renumbered as positions in ``nodes``.
    ``period`` is the gcd of the block's cycle lengths and ``classes`` the
    cyclic class of each node, 0..period-1: every edge runs from a node
    of class c to one of class c + 1 mod ``period``, and ``nodes[0]`` is
    in class 0.
    """

    nodes: np.ndarray
    edges: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    period: int
    classes: np.ndarray


@dataclass(frozen=True)
class Condensation:
    """Strongly connected components of a digraph on nodes 0..n-1,
    numbered in topological order: every edge between two components runs
    from the lower number to the higher.  ``component_of[v]`` is the
    component of node v; ``blocks`` maps the number of every non-trivial
    component (one holding an edge) to its :class:`Block`, in increasing
    order."""

    component_of: np.ndarray
    blocks: dict[int, Block]


def _condensation(e: EdgeList) -> Condensation:
    """Tarjan's components of the digraph of ``e``, and for each
    non-trivial one its period: the gcd of depth(u) + 1 - depth(v) over the
    block's edges u -> v, and its cyclic classes, depth - depth(nodes[0])
    mod the period (Lind & Marcus, section 4.5), for the depths of Tarjan's
    depth-first forest.  The forest's path from a component's root to any
    member stays inside the component, so a difference of depths is the
    length of a walk inside the block: any such potential gives the
    period as that gcd, and the classes up to the shift that puts
    ``nodes[0]`` in class 0."""
    n, src, dst = e.n, e.src, e.dst
    depth = [0] * n
    components = tarjan_components(range(n), e.successors, depth)
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
    depths = np.array(depth, dtype=np.intp)
    local = np.empty(n, dtype=np.intp)
    blocks = {}
    for cid, edges in zip(cids.tolist(), np.split(inside, first[1:])):
        nodes = np.array(sorted(components[cid]), dtype=np.intp)
        es, ed = src[edges], dst[edges]
        period = int(np.gcd.reduce(np.abs(depths[es] + 1 - depths[ed])))
        local[nodes] = np.arange(len(nodes))
        classes = (depths[nodes] - depths[nodes[0]]) % period
        blocks[cid] = Block(nodes, edges, local[es], local[ed], period, classes)
    return Condensation(comp_of, blocks)


def _single_block(a: Automaton, operation: str) -> Block:
    """The block of a strongly connected automaton, which covers every state;
    raises :class:`NotStronglyConnectedError` for any other automaton."""
    blocks = list(a.sccs.blocks.values())
    if len(blocks) != 1 or len(blocks[0].nodes) != len(a.states):
        raise NotStronglyConnectedError(
            f"{operation} requires a single non-trivial strongly"
            " connected component covering all states"
        )
    return blocks[0]


# ---------------------------------------------------------------------------
# unambiguity
# ---------------------------------------------------------------------------


def _successor_table(
    e: EdgeList, keep: np.ndarray | None = None
) -> list[list[list[int]]]:
    """``table[q][c]``: the heads of the edges leaving node q on symbol
    number c, in edge order, for symbol numbers 0..max(``e.sym``); with a
    node mask ``keep``, only the edges between two kept nodes.  On an
    automaton's edges, whose transitions are sorted by (from, symbol, to),
    walking ``table[q]`` by symbol number visits q's transitions in
    ``transitions`` order."""
    n_sym = int(e.sym.max()) + 1 if len(e.sym) else 0
    src, sym, dst = e.src, e.sym, e.dst
    if keep is not None:
        kept = keep[src] & keep[dst]
        src, sym, dst = src[kept], sym[kept], dst[kept]
    table: list[list[list[int]]] = [[[] for _ in range(n_sym)] for _ in range(e.n)]
    for q, c, d in zip(src.tolist(), sym.tolist(), dst.tolist()):
        table[q][c].append(d)
    return table


# Search marks of a pair in :func:`check_unambiguous`: not searched yet,
# reaches no good component, reaches one.  A pair on the search stack is
# marked with its low-link instead, which is nonnegative.
_UNSEEN, _NO, _YES = -1, -2, -3
# Back pointers of the start pairs and of the pairs no level holds yet.
_START, _UNREACHED = -1, -2


def check_unambiguous(
    a: Automaton, cap: int = DEFAULT_ENUMERATION_CAP
) -> AmbiguityReport:
    """Decide whether every accepted infinite word has exactly one accepting run.

    Works on the self-product over ordered state pairs (Weber & Seidl
    1991): the automaton is ambiguous iff some reachable pair of distinct
    states can reach (within the product) a non-trivial strongly connected
    component in which both coordinates pass through accept states, i.e.
    one shared word carries two accepting runs that differ at least once.
    The witness is a shortest word leading to such a pair: among the words
    by which the breadth-first search from the start pairs first reaches
    each such pair, the least in digit order of the least length.
    Deterministic automata are always unambiguous, and are answered
    without the product.

    Only the pairs the answer needs are built.  A state is productive when
    some accepting run passes through it; a pair with an unproductive
    state reaches no good component, so the product leaves those states
    out, and a diagonal pair (r, r) of productive states reaches the
    diagonal copy of r's accepting lasso.  The breadth-first levels are
    built one at a time, and the distinct pairs of each are tested in the
    order of their words, each by one depth-first search with Tarjan's
    low-links, on the fly as in Couvreur (1999).  The search stops at the
    first diagonal pair it meets or the first good component it closes;
    every other component it closes is marked, and later searches skip
    it.  The first pair that passes gives the witness; when the levels run
    out, the automaton is unambiguous.  Every pair of two distinct states
    built counts against ``cap``, and :class:`CapExceededError` is raised
    past it; the diagonal pairs, at most one per state, are not counted.
    """
    if _is_deterministic(a):
        return AmbiguityReport(unambiguous=True)
    n, used = len(a.states), a.symbols_used
    n_sym = len(used)
    accepting = _accepting(a)
    productive = a._productive_mask
    table = _successor_table(a.edges, None if productive.all() else productive)
    accept = accepting.tolist()
    # Pair (p, q) has the key p * n + q and is numbered 0, 1, ... as it is
    # built.  Per pair: its key, its successor list (built once, on first
    # use, by the levels or by a search), its search mark, and its back
    # pointer, parent * n_sym + symbol number, to the pair whose expansion
    # first reached it in breadth-first order: the word it spells is the
    # first (hence a shortest) word reaching the pair.
    number: dict[int, int] = {}
    keys: list[int] = []
    succ: list[list[int] | None] = []
    mark: list[int] = []
    back: list[int] = []

    distinct = 0  # pairs of two distinct states built, against the cap

    def add(key: int) -> int:
        nonlocal distinct
        j = number[key] = len(keys)
        keys.append(key)
        succ.append(None)
        back.append(_UNREACHED)
        if key // n == key % n:
            mark.append(_YES)
        else:
            distinct += 1
            if distinct > cap:
                raise CapExceededError(f"ambiguity pair product exceeded cap {cap}")
            mark.append(_UNSEEN)
        return j

    def successors(i: int) -> list[int]:
        out = succ[i]
        if out is None:
            out = succ[i] = []
            for p_next, q_next in zip(table[keys[i] // n], table[keys[i] % n]):
                if q_next:
                    for p2 in p_next:
                        row = p2 * n
                        for q2 in q_next:
                            j = number.get(row + q2)
                            out.append(add(row + q2) if j is None else j)
        return out

    def reaches_good(t: int) -> bool:
        # Tarjan's search, with a pair's position on the search stack as
        # its discovery index: components leave the stack whole, from the
        # top, so the positions of the pairs still on it keep their
        # discovery order, and a low-link names a pair still on it.
        out = successors(t)
        if not out:
            mark[t] = _NO
            return False
        mark[t] = 0
        stack, path, its = [t], [t], [iter(out)]
        while its:
            node = path[-1]
            for nxt in its[-1]:
                m = mark[nxt]
                if m == _UNSEEN:
                    mark[nxt] = len(stack)
                    stack.append(nxt)
                    path.append(nxt)
                    its.append(iter(successors(nxt)))
                    break
                if m == _YES:
                    return True
                if 0 <= m < mark[node]:
                    mark[node] = m
            else:
                path.pop()
                its.pop()
                low = mark[node]
                if path and low < mark[path[-1]]:
                    mark[path[-1]] = low
                if stack[low] == node:
                    comp = stack[low:]
                    del stack[low:]
                    if (
                        (len(comp) > 1 or node in succ[node])
                        and any(accept[keys[i] // n] for i in comp)
                        and any(accept[keys[i] % n] for i in comp)
                    ):
                        return True
                    for i in comp:
                        mark[i] = _NO
        return False

    def word(i: int) -> Word:
        out: list[DigitVector] = []
        while back[i] >= 0:
            i, c = divmod(back[i], n_sym)
            out.append(used[c])
        out.reverse()
        return tuple(out)

    starts = [
        q for q in (a.state_index[s] for s in sorted(a.start)) if productive[q]
    ]
    level = [add(p * n + q) for p in starts for q in starts]
    for i in level:
        back[i] = _START
    # A level's words have one length, so their order is the order of
    # their numbers in base n_sym.
    codes = [0] * len(level)
    while level:
        for _, i in sorted(zip(codes, level)):
            if mark[i] == _UNSEEN and reaches_good(i):
                return AmbiguityReport(unambiguous=False, witness=word(i))
        below: list[int] = []
        below_codes: list[int] = []
        for i, code in zip(level, codes):
            out = successors(i)
            if not out:
                continue
            pos, code = 0, code * n_sym
            for c, (p_next, q_next) in enumerate(
                zip(table[keys[i] // n], table[keys[i] % n])
            ):
                end = pos + len(p_next) * len(q_next)
                for j in out[pos:end]:
                    if back[j] == _UNREACHED:
                        back[j] = i * n_sym + c
                        below.append(j)
                        below_codes.append(code + c)
                pos = end
        level, codes = below, below_codes
    return AmbiguityReport(unambiguous=True)


# ---------------------------------------------------------------------------
# prefix enumeration (the brute-force oracle)
# ---------------------------------------------------------------------------


def _max_depth(a: Automaton, cap: int) -> int:
    """Largest depth n whose worst case (k^d)^n strings fits under ``cap``,
    -1 when not even depth 0 does; at most log2(cap) multiplications,
    without building (k^d)^n for any n past it."""
    if cap < 1:
        return -1
    alphabet, n, size = a.base**a.arity, 0, 1
    while size <= cap // alphabet:
        n, size = n + 1, size * alphabet
    return n


def _check_cap(a: Automaton, n: int, cap: int) -> None:
    if n < 0:
        raise ValidationError("depth must be nonnegative")
    deepest = _max_depth(a, cap)
    if n > deepest:
        raise CapExceededError(
            f"depth {n} needs up to {a.base**a.arity}^{n} strings, cap is {cap}:"
            f" the deepest depth it allows is {deepest}"
        )


def _prefix_levels(a: Automaton, n: int) -> Iterator[dict[int, int]]:
    """Levels 0..n of the prefix enumeration, in one pass: level m maps
    every length-m word with a run from a start state, packed as an integer
    over the used-symbol alphabet, to the set of states its runs reach (a
    bitmask, bit i the i-th declared state)."""
    n_sym, size = len(a.symbols_used), len(a.states)
    radix, full, image = max(n_sym, 1), (1 << size) - 1, a.edges.image
    level = {0: _start_mask(a)}
    yield level
    for _ in range(n):
        nxt: dict[int, int] = {}
        for code, states in level.items():
            packed, code = image(states), code * radix
            for c in range(n_sym):
                target = packed >> c * size & full
                if target:
                    nxt[code + c] = target
        level = nxt
        yield level


def _decode_word(code: int, n: int, used: tuple[DigitVector, ...]) -> Word:
    radix = max(len(used), 1)
    out: list[DigitVector] = []
    for _ in range(n):
        code, i = divmod(code, radix)
        out.append(used[i])
    out.reverse()
    return tuple(out)


def prefix_count(a: Automaton, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Number of distinct length-n words with a run from a start state
    (= ``len(enumerate_prefixes(a, n))``, without materializing the words)."""
    _check_cap(a, n, cap)
    return len(deque(_prefix_levels(a, n), maxlen=1)[0])


def enumerate_prefixes(
    a: Automaton, n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> set[Word]:
    """All length-n words with a run from a start state.

    On a trim automaton these are exactly the length-n prefixes of the
    accepted infinite words.  Guarded by the enumeration cap: depth n must
    satisfy (k^d)^n <= cap.
    """
    _check_cap(a, n, cap)
    used = a.symbols_used
    level = deque(_prefix_levels(a, n), maxlen=1)[0]
    return {_decode_word(code, n, used) for code in level}


def accepts(a: Automaton, word: Iterable[DigitVector | Sequence[int]]) -> bool:
    """Finite-automaton semantics: does some run of ``word`` from a start
    state end in an accept state?  A symbol of the wrong arity or with a
    digit of at least the base raises :class:`ValidationError`."""
    word = [_checked_symbol(sym, a.base, a.arity) for sym in word]
    return bool(_reached(a, word) & sum(1 << q for q in _nodes(a, a.accept)))


def _reached(a: Automaton, word: Iterable[DigitVector]) -> int:
    """The states the runs of ``word`` from a start state end in, as a
    bitmask (bit i is the i-th declared state); a symbol no transition
    carries ends every run."""
    number = {sym: c for c, sym in enumerate(a.symbols_used)}
    size, image = len(a.states), a.edges.image
    full = (1 << size) - 1
    current = _start_mask(a)
    for sym in word:
        c = number.get(sym)
        if c is None or not current:
            return 0
        current = image(current) >> c * size & full
    return current


# ---------------------------------------------------------------------------
# prefix-language determinization (subset construction)
# ---------------------------------------------------------------------------


def _bits(subset: int) -> list[int]:
    """Members of a bitmask subset, in increasing order."""
    out = []
    while subset:
        low = subset & -subset
        out.append(low.bit_length() - 1)
        subset ^= low
    return out


def _start_mask(a: Automaton) -> int:
    """The start states as a bitmask (bit i is the i-th declared state)."""
    return sum(1 << q for q in _nodes(a, a.start))


class _ByteImages(dict):
    """The packed images of the values of one byte of a subset, whose bit
    j stands for node ``first`` + j, each built on first use: a one-node
    byte from that node's edges, any other byte as the OR of the images of
    its lowest bit and of the rest."""

    __slots__ = ("positions", "first")

    def __init__(self, positions: list[list[int]], first: int) -> None:
        super().__init__({0: 0})
        self.positions, self.first = positions, first

    def __missing__(self, byte: int) -> int:
        low = byte & -byte
        if byte == low:
            packed = 0
            for bit in self.positions[self.first + low.bit_length() - 1]:
                packed |= 1 << bit
        else:
            packed = self[low] | self[byte ^ low]
        self[byte] = packed
        return packed


def _image_kernel(e: EdgeList) -> Callable[[int], int]:
    """``image(subset)``: the successors of a bitmask subset of the n nodes
    of ``e`` (bit i is node i) on every symbol at once, packed: bits c*n ..
    c*n + n - 1 hold the successors on symbol number c, so the targets come
    out as ``image(subset) >> c * n & (1 << n) - 1``.

    A subset's image is the OR of one image per nonzero byte of
    ``subset.to_bytes(ceil(n/8), "little")``.  Each per-byte image is
    memoized on first use, per byte position and value, so the memo holds
    at most 255 * ceil(n/8) entries of (symbols * n) bits, and only the
    bytes the subsets met cost any.  That reads every byte position, so a
    sparse subset, with fewer than one member per 8 byte positions, ORs
    the one-node images of its members instead: a subset costs about
    min(ceil(n/8), 8 * members) lookups.  Every step still shifts and ORs
    integers of (symbols * n) bits, so on a large automaton walked by small
    subsets a step costs O(n) bit operations whatever the subset's size,
    and about 1.5 times what separate n-bit masks per node and symbol
    would cost there.
    """
    n = e.n
    positions: list[list[int]] = [[] for _ in range(n)]  # bits of q's image
    for q, c, d in zip(e.src.tolist(), e.sym.tolist(), e.dst.tolist()):
        positions[q].append(c * n + d)
    width = (n + 7) // 8
    memos = [_ByteImages(positions, 8 * i) for i in range(width)]

    def image(subset: int) -> int:
        if subset.bit_count() * 8 < width:
            packed = 0
            for q in _bits(subset):
                packed |= memos[q >> 3][1 << (q & 7)]
            return packed
        return reduce(or_, map(getitem, memos, subset.to_bytes(width, "little")))

    return image


class _Dropped(Exception):
    """A probing subset construction gave up (see
    :func:`_subset_construction`)."""


def _subset_construction(
    e: EdgeList, starts: list[int], cap: int, floor: int = 0
) -> tuple[list[int], EdgeList]:
    """Subset construction on bitmask subsets of the nodes of ``e`` (bit i
    is node i), from the distinct nonempty subsets ``starts``, numbered 0..
    len(starts) - 1 in the order given.  Further subsets are numbered in
    breadth-first discovery order, trying symbols in increasing number;
    the empty set is never entered.  Returns the subsets and the edges
    between their numbers (symbol numbers as in ``e``), whose
    ``successors`` come already built.  Raises :class:`CapExceededError`
    at the first new subset that brings the count, starts included, past
    ``cap``.

    A positive ``floor`` makes the construction a probe that gives up
    cheaply: it raises :class:`_Dropped` instead, at the first new subset
    of fewer than ``floor`` members or once more than ``cap`` subsets
    appear."""
    n, image = e.n, e.image
    n_sym = int(e.sym.max()) + 1 if len(e.sym) else 0
    full = (1 << n) - 1
    subsets = list(starts)
    number = {start: i for i, start in enumerate(subsets)}
    src: list[int] = []
    sym: list[int] = []
    dst: list[int] = []
    successors: list[list[int]] = []
    i = 0
    while i < len(subsets):
        packed = image(subsets[i])
        out: list[int] = []
        for c in range(n_sym):
            target = packed >> c * n & full
            if not target:
                continue
            j = number.get(target)
            if j is None:
                if target.bit_count() < floor:
                    raise _Dropped
                j = number[target] = len(subsets)
                subsets.append(target)
                if len(subsets) > cap:
                    if floor:
                        raise _Dropped
                    raise CapExceededError(
                        f"subset construction exceeded cap {cap}"
                    )
            src.append(i)
            sym.append(c)
            dst.append(j)
            out.append(j)
        successors.append(out)
        i += 1
    d = EdgeList.from_lists(len(subsets), src, sym, dst)
    vars(d)["successors"] = successors  # what the cached property would build
    return subsets, d


def _deterministic(e: EdgeList) -> bool:
    """At most one edge of ``e`` per node and symbol.  The edges of one
    (node, symbol) pair form one run (see :class:`EdgeList`), so a repeat
    is two adjacent edges."""
    return not np.any((e.src[1:] == e.src[:-1]) & (e.sym[1:] == e.sym[:-1]))


def _block_edges(e: EdgeList, block: Block) -> EdgeList:
    """The edge sub-list of ``block``, its nodes renumbered by position in
    ``block.nodes``."""
    return EdgeList(len(block.nodes), block.src, e.sym[block.edges], block.dst)


def _own_block(b: EdgeList, block: Block) -> Block:
    """``block`` as the one block of its own edge sub-list ``b`` (see
    :func:`_block_edges`): every node and edge of ``b``, numbered by
    position."""
    return Block(
        np.arange(b.n), np.arange(len(b.src)), b.src, b.dst, block.period, block.classes
    )


def _prefix_graph(
    e: EdgeList, block: Block, starts: list[int] | np.ndarray | None, cap: int
) -> tuple[EdgeList, Condensation, list[int]]:
    """A graph whose paths from its i-th root spell, each exactly once,
    the words with a run inside ``block`` from the block's nodes in
    ``starts[i]`` (a bitmask over positions in ``block.nodes``); returned
    with its condensation and its roots.  An integer array of positions
    stands for those singletons, ``None`` for all, in position order.

    When every start is one node and the block has at most one edge per
    node and symbol, that graph is the block itself, renumbered by
    position and already decomposed: one component holding every node,
    rooted at the start positions, so it costs time linear in the block.
    Otherwise it is the subset construction from all the starts at once
    (roots 0 .. len(starts) - 1, at most ``cap`` subsets in all, so a
    graph rooted at many starts counts its union against ``cap`` once).
    Nodes and edges keep the order of ``e``, so every solve on the result
    sees the arrays it would see on the component alone.
    """
    b = _block_edges(e, block)
    if starts is None:
        starts = np.arange(b.n)
    singles = isinstance(starts, np.ndarray)
    if (singles or all(s & (s - 1) == 0 for s in starts)) and _deterministic(b):
        whole = _own_block(b, block)
        roots = starts.tolist() if singles else [s.bit_length() - 1 for s in starts]
        return b, Condensation(np.zeros(b.n, dtype=np.intp), {0: whole}), roots
    if singles:
        starts = [1 << i for i in starts.tolist()]
    d = _subset_construction(b, starts, cap)[1]
    return d, _condensation(d), list(range(len(starts)))
