"""Exact algebra of typical hesitant fuzzy elements.

A typical hesitant fuzzy element (THFE) is a finite non-empty set of
membership degrees, each an exact rational in [0, 1].  The canonical
representation is a strictly ascending duplicate-free tuple, so structural
equality coincides with set equality.  Two combination operations act on
THFEs: the inf-combination (pairwise minimum) and the sup-combination
(pairwise maximum).  The partial order ``leq`` is derived from the
sup-combination: X is below Y exactly when joining X into Y changes nothing.

No combination creates a degree its operands lack, so each one has a closed
form that selects degrees from the operands instead of forming all pairwise
results: the inf-combination keeps every degree up to the smaller of the
two maxima, the sup-combination every degree from the larger of the two
minima.  Both run as one merge of two sorted tuples, and their results are
wrapped without re-parsing.  The literal pairwise definitions live in the
oracle module, which the tests check these forms against.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import ClosureBudgetExceeded, DegreeOutOfRange, InvalidDegree, InvalidTHFE

__all__ = [
    "Thfe",
    "ZERO",
    "ONE",
    "parse_degree",
    "format_degree",
    "inf_combination",
    "sup_combination",
    "sup_combination_n",
    "leq",
    "is_degenerate",
    "generated_closure",
    "DEFAULT_CLOSURE_BUDGET",
]

DEFAULT_CLOSURE_BUDGET = 100_000

_FRACTION_RE = re.compile(r"(\d+)/(\d+)\Z")
_DECIMAL_RE = re.compile(r"(\d+)(?:\.(\d{1,18}))?\Z")


def parse_degree(value: str | int | Fraction) -> Fraction:
    """Parse a membership degree into an exact Fraction in [0, 1].

    Accepted text forms are "p/q" with non-negative integers and q > 0, or a
    decimal literal with at most 18 fractional digits; both parse exactly
    ("0.3" becomes 3/10).  Floats are rejected because they do not round-trip.
    """
    if isinstance(value, float):
        raise InvalidDegree(f"float degree {value!r} rejected, use a string or Fraction")
    if isinstance(value, Fraction):
        degree = value
    elif isinstance(value, int):
        degree = Fraction(value)
    elif isinstance(value, str):
        if m := _FRACTION_RE.match(value):
            num, den = _integer(m.group(1)), _integer(m.group(2))
            if den == 0:
                raise InvalidDegree(f"zero denominator in {value!r}")
            degree = Fraction(num, den)
        elif m := _DECIMAL_RE.match(value):
            whole, digits = m.group(1), m.group(2) or ""
            degree = Fraction(_integer(whole + digits), 10 ** len(digits))
        else:
            raise InvalidDegree(f"cannot parse degree {value!r}")
    else:
        raise InvalidDegree(f"cannot parse degree of type {type(value).__name__}")
    if not 0 <= degree <= 1:
        raise DegreeOutOfRange(f"degree {degree} outside [0, 1]")
    return degree


def _integer(digits: str) -> int:
    """``int(digits)``, or InvalidDegree where int() refuses that many digits."""
    try:
        return int(digits)
    except ValueError:
        raise InvalidDegree(f"cannot parse a degree with {len(digits)} digits") from None


def format_degree(degree: Fraction) -> str:
    """Render a degree as reduced "p/q" text; 0 and 1 appear as plain integers."""
    if degree.denominator == 1:
        return str(degree.numerator)
    return f"{degree.numerator}/{degree.denominator}"


class Thfe:
    """A typical hesitant fuzzy element in canonical form.

    The constructor canonicalizes: degrees are parsed exactly, deduplicated,
    and sorted ascending.  Instances are immutable by convention, hashable,
    and compare equal exactly when their degree tuples are identical.
    """

    __slots__ = ("degrees",)

    degrees: tuple[Fraction, ...]

    def __init__(self, degrees: Iterable[str | int | Fraction]):
        parsed = sorted({parse_degree(d) for d in degrees})
        if not parsed:
            raise InvalidTHFE("a THFE must contain at least one degree")
        object.__setattr__(self, "degrees", tuple(parsed))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Thfe instances are immutable")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Thfe):
            return self.degrees == other.degrees
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.degrees)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.degrees)

    def __len__(self) -> int:
        return len(self.degrees)

    def __contains__(self, degree: object) -> bool:
        return degree in self.degrees

    def __repr__(self) -> str:
        inner = ", ".join(repr(format_degree(d)) for d in self.degrees)
        return f"Thfe([{inner}])"

    def __str__(self) -> str:
        return "{" + ", ".join(format_degree(d) for d in self.degrees) + "}"


def _trusted(degrees: tuple[Fraction, ...]) -> Thfe:
    """Wrap a degree tuple that is already canonical (non-empty, ascending,
    duplicate-free, within [0, 1]) without parsing it again.  The
    combinations below call it on tuples selected from canonical operands,
    and the oracle's pairwise operations on sorted sets of such degrees."""
    x = object.__new__(Thfe)
    object.__setattr__(x, "degrees", degrees)
    return x


ZERO = Thfe([0])
ONE = Thfe([1])


def _merge(xs: tuple[Fraction, ...], ys: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Ascending duplicate-free union of two ascending duplicate-free tuples."""
    if not ys:
        return xs
    if not xs:
        return ys
    out = []
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        x, y = xs[i], ys[j]
        if x is y or x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    out.extend(xs[i:])
    out.extend(ys[j:])
    return tuple(out)


def inf_combination(x: Thfe, y: Thfe) -> Thfe:
    """Pairwise minimum of two THFEs: {min(a, b) for a in x, b in y}.

    In closed form, every degree of either operand up to the smaller of
    the two maxima: {v in x | y : v <= min(max x, max y)}.
    """
    xs, ys = x.degrees, y.degrees
    if ys[-1] < xs[-1]:
        xs, ys = ys, xs
    # All of xs lies at or below max xs = min(max x, max y).
    return _trusted(_merge(xs, ys[: bisect_right(ys, xs[-1])]))


def sup_combination(x: Thfe, y: Thfe) -> Thfe:
    """Pairwise maximum of two THFEs: {max(a, b) for a in x, b in y}.

    In closed form, every degree of either operand from the larger of the
    two minima up: {v in x | y : v >= max(min x, min y)}.
    """
    xs, ys = x.degrees, y.degrees
    if xs[0] < ys[0]:
        xs, ys = ys, xs
    # All of xs lies at or above min xs = max(min x, min y).
    return _trusted(_merge(xs, ys[bisect_left(ys, xs[0]):]))


def sup_combination_n(family: Iterable[Thfe]) -> Thfe:
    """The sup-combination of a whole family, {0} (its identity) when empty.

    In one pass: every degree of every member from the largest member
    minimum up, {v in x1 | ... | xn : v >= max(min x1, ..., min xn)}.  This
    equals the left fold of sup_combination from {0}.
    """
    members = list(family)
    if not members:
        return ZERO
    if len(members) == 1:
        return members[0]
    floor = max(x.degrees[0] for x in members)
    acc: tuple[Fraction, ...] = ()
    for x in members:
        xs = x.degrees
        acc = _merge(acc, xs[bisect_left(xs, floor):])
    return _trusted(acc)


def leq(x: Thfe, y: Thfe) -> bool:
    """The derived partial order: x is below y iff sup_combination(x, y) == y.

    In closed form: min x <= min y, and every degree of x from min y up is
    a degree of y.
    """
    xs, ys = x.degrees, y.degrees
    if ys[0] < xs[0]:
        return False
    return len(_merge(ys, xs[bisect_left(xs, ys[0]):])) == len(ys)


def is_degenerate(x: Thfe) -> bool:
    """True iff x is a singleton, i.e. an embedded ordinary fuzzy degree."""
    return len(x) == 1


def generated_closure(
    seed: Iterable[Thfe], max_size: int | None = None
) -> frozenset[Thfe]:
    """Smallest superset of ``seed`` closed under both combinations.

    Worklist saturation: every new element is combined with everything known
    so far.  Closure is finite because no combination introduces degrees
    beyond those already present in the seed, but a configurable element
    budget guards against mistakes instead of looping forever.
    """
    if max_size is None:
        max_size = DEFAULT_CLOSURE_BUDGET
    known: set[Thfe] = set()
    frontier = list(dict.fromkeys(seed))
    if not frontier:
        raise InvalidTHFE("generated_closure requires a non-empty seed")
    while frontier:
        x = frontier.pop()
        if x in known:
            continue
        known.add(x)
        if len(known) > max_size:
            raise ClosureBudgetExceeded(
                f"closure exceeded {max_size} elements during saturation"
            )
        for y in list(known):
            for combined in (inf_combination(x, y), sup_combination(x, y)):
                if combined not in known:
                    frontier.append(combined)
    return frozenset(known)
