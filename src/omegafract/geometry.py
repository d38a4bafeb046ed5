"""Digit valuation, grid box covers and the brute-force dimension oracle.

A length-n digit-vector string names one grid box of side k^(-n): the
product of intervals [z_i k^(-n), (z_i + 1) k^(-n)] whose corners are the
base-k integers spelled by the string, coordinate by coordinate.  Covering
the recognized set with one box per enumerated prefix over-counts the
minimal grid cover by at most 3^d, which a log-log slope cannot see, so the
regression over prefix counts estimates the box-counting dimension without
any spectral machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    DEFAULT_ENUMERATION_CAP,
    Automaton,
    DigitVector,
    _check_cap,
    _prefix_levels,
    enumerate_prefixes,
)
from .errors import ArityError, ValidationError


@dataclass(frozen=True)
class Box:
    """Depth-n grid box: corner integers z_i in [0, k^n) per coordinate,
    standing for the product of intervals [z_i k^(-n), (z_i+1) k^(-n)]."""

    depth: int
    corner: tuple[int, ...]
    base: int

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValidationError("box depth must be nonnegative")
        side = self.base**self.depth
        if any(not (0 <= z < side) for z in self.corner):
            raise ValidationError(
                f"corner {self.corner} out of range for depth {self.depth}"
            )

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        scale = Fraction(1, self.base**self.depth)
        return tuple((z * scale, (z + 1) * scale) for z in self.corner)


def nu_k(
    word: Iterable[DigitVector | Sequence[int]],
    base: int,
    arity: int | None = None,
) -> Box:
    """Box named by a finite digit-vector string: per coordinate, the
    corner integer has exactly the string's digits in base k, so the box
    covers every point whose expansion starts with the string."""
    symbols = [s if isinstance(s, DigitVector) else DigitVector(tuple(s)) for s in word]
    if symbols:
        arity = len(symbols[0])
    elif arity is None:
        raise ValidationError("empty string needs an explicit arity")
    corner = [0] * arity
    for sym in symbols:
        if len(sym) != arity:
            raise ValidationError("mixed arities in digit string")
        if any(d >= base for d in sym):
            raise ValidationError(f"digit out of range for base {base} in {sym}")
        for i in range(arity):
            corner[i] = corner[i] * base + sym[i]
    return Box(depth=len(symbols), corner=tuple(corner), base=base)


def box_cover(
    a: Automaton, n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> frozenset[Box]:
    """One depth-n box per enumerated prefix; covers the recognized set."""
    return frozenset(
        nu_k(word, a.base, a.arity) for word in enumerate_prefixes(a, n, cap=cap)
    )


def _box_count_fit(
    a: Automaton, n_min: int, n_max: int, cap: int
) -> tuple[list[int], float]:
    """Box counts (prefix counts, within a factor 3^d of the minimal grid
    count, which the slope cannot see) at every depth in [n_min, n_max],
    from one level-by-level enumeration pass, and the least-squares slope
    of log(count) against n log k."""
    if not 0 <= n_min < n_max:
        raise ValidationError("need 0 <= n_min < n_max")
    _check_cap(a, n_max, cap)
    counts = [len(level) for level in _prefix_levels(a, n_max)][n_min:]
    log_k = math.log(a.base)
    xs = [n * log_k for n in range(n_min, n_max + 1)]
    ys = [math.log(count) for count in counts]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return counts, sxy / sxx


def estimate_box_dimension(
    a: Automaton, n_min: int, n_max: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """Least-squares slope of log(box count) against n log k over the depth
    range; converges to the box-counting dimension as depths grow."""
    return _box_count_fit(a, n_min, n_max, cap)[1]


def _merged_intervals(
    boxes: Iterable[Box], base: int, depth: int
) -> list[tuple[Fraction, Fraction]]:
    corners = sorted(box.corner[0] for box in boxes)
    scale = Fraction(1, base**depth)
    merged: list[tuple[int, int]] = []
    for z in corners:
        if merged and merged[-1][1] == z:
            merged[-1] = (merged[-1][0], z + 1)
        else:
            merged.append((z, z + 1))
    return [(lo * scale, hi * scale) for lo, hi in merged]


def render(
    a: Automaton,
    n: int,
    fmt: str = "interval",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> str:
    """Deterministic text rendering of the depth-n cover in format ``fmt``,
    ``"interval"`` or ``"pbm"``.

    ``interval`` (arity 1): one line per maximal merged run of cover
    boxes, as exact lowest-terms rationals "p/q r/s", sorted.

    ``pbm`` (arity <= 2): PBM P1 text; width k^n, height k^n for arity 2
    and 1 for arity 1; row-major with the all-zero corner at the top left,
    one '1' byte per cover box.
    """
    if fmt == "interval":
        if a.arity != 1:
            raise ArityError("interval rendering needs arity 1")
        cover = box_cover(a, n, cap=cap)
        lines = [
            f"{lo.numerator}/{lo.denominator} {hi.numerator}/{hi.denominator}"
            for lo, hi in _merged_intervals(cover, a.base, n)
        ]
        return "\n".join(lines) + "\n"
    if fmt == "pbm":
        if a.arity > 2:
            raise ArityError("pbm rendering needs arity <= 2")
        cover = box_cover(a, n, cap=cap)
        side = a.base**n
        if a.arity == 1:
            width, height = side, 1
            cells = {(0, box.corner[0]) for box in cover}
        else:
            width, height = side, side
            cells = {(box.corner[1], box.corner[0]) for box in cover}
        rows = [
            "".join("1" if (r, c) in cells else "0" for c in range(width))
            for r in range(height)
        ]
        return f"P1\n{width} {height}\n" + "\n".join(rows) + "\n"
    raise ValidationError(f"unknown render format {fmt!r}")
