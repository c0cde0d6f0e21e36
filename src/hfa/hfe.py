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

For the same reason every value a machine computes is a subset of one
sorted universe: the degrees its weights and final values mention, plus 0
and 1.  DegreeCodec numbers that universe and encodes a THFE as an int with
one bit per degree, so a join is a few integer operations; values become
Thfe again only where a caller reads them.

The closed forms and ``parse_degree`` compare degrees on their integers:
a = p/q lies below b = r/s exactly when p*s < r*q, and a == b exactly when
(p, q) == (r, s).  This is exact because a Fraction is always reduced and
keeps its denominator positive, and it skips Fraction's own comparison,
which is Python code that checks both operands' types on every call.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DegreeOutOfRange, InvalidDegree, InvalidTHFE

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
    "DegreeCodec",
]

_FRACTION_RE = re.compile(r"(\d+)/(\d+)\Z")
_DECIMAL_RE = re.compile(r"(\d+)(?:\.(\d{1,18}))?\Z")


def parse_degree(value: str | int | Fraction) -> Fraction:
    """Parse a membership degree into an exact Fraction in [0, 1].

    Accepted text forms are "p/q" with non-negative integers and q > 0, or a
    decimal literal with at most 18 fractional digits; both parse exactly
    ("0.3" becomes 3/10).  Floats are rejected because they do not round-trip.
    The range is checked on the reduced integers, as 0 <= p <= q.
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
    if not 0 <= degree.numerator <= degree.denominator:
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
        # Reduced integer pairs are equal iff the Fractions are, and skip the modular
        # inverse of Fraction.__hash__.  No cache: most Thfes the kernel makes are never hashed.
        return hash(tuple([d.as_integer_ratio() for d in self.degrees]))

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


# Canonical already, so they are wrapped without parsing.
ZERO = _trusted((Fraction(0),))
ONE = _trusted((Fraction(1),))


def _ratios(degrees: tuple[Fraction, ...]) -> list[tuple[int, int]]:
    """Each degree's (numerator, denominator): reduced, denominator positive."""
    return [d.as_integer_ratio() for d in degrees]


def _from(rs: list[tuple[int, int]], r: int, s: int) -> int:
    """The index of the first of the ascending ratios ``rs`` that is at least
    r/s, len(rs) if none is: a/b < r/s exactly when a*s < r*b."""
    k, n = 0, len(rs)
    while k < n and rs[k][0] * s < r * rs[k][1]:
        k += 1
    return k


def _merge(
    xs: tuple[Fraction, ...], rx: list[tuple[int, int]],
    ys: tuple[Fraction, ...], ry: list[tuple[int, int]],
) -> tuple[tuple[Fraction, ...], list[tuple[int, int]]]:
    """Ascending duplicate-free union of two ascending duplicate-free tuples,
    given with their ratios, and the union's ratios."""
    if not ys:
        return xs, rx
    if not xs:
        return ys, ry
    out, rout = [], []
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        (p, q), (r, s) = rx[i], ry[j]
        ps, rq = p * s, r * q
        if rq < ps:
            out.append(ys[j])
            rout.append(ry[j])
            j += 1
        else:
            out.append(xs[i])
            rout.append(rx[i])
            i += 1
            if ps == rq:  # an equal pair: keep one
                j += 1
    out.extend(xs[i:])
    out.extend(ys[j:])
    rout.extend(rx[i:])
    rout.extend(ry[j:])
    return tuple(out), rout


def inf_combination(x: Thfe, y: Thfe) -> Thfe:
    """Pairwise minimum of two THFEs: {min(a, b) for a in x, b in y}.

    In closed form, every degree of either operand up to the smaller of
    the two maxima: {v in x | y : v <= min(max x, max y)}.  Degrees are
    compared on their integers, p/q < r/s as p*s < r*q.
    """
    xs, ys = x.degrees, y.degrees
    rx, ry = _ratios(xs), _ratios(ys)
    (p, q), (r, s) = rx[-1], ry[-1]
    if r * q < p * s:
        xs, ys, rx, ry, p, q = ys, xs, ry, rx, r, s
    # All of xs lies at or below max xs = p/q = min(max x, max y); cut ys there.
    n = len(ys)
    while n and p * ry[n - 1][1] < ry[n - 1][0] * q:
        n -= 1
    return _trusted(_merge(xs, rx, ys[:n], ry[:n])[0])


def sup_combination(x: Thfe, y: Thfe) -> Thfe:
    """Pairwise maximum of two THFEs: {max(a, b) for a in x, b in y}.

    This is the join of the family {x, y}, whose closed form
    sup_combination_n computes.
    """
    return sup_combination_n((x, y))


def sup_combination_n(family: Iterable[Thfe]) -> Thfe:
    """The sup-combination of a whole family, {0} (its identity) when empty.

    In one pass: every degree of every member from the largest member
    minimum up, {v in x1 | ... | xn : v >= max(min x1, ..., min xn)}.  This
    equals the left fold of sup_combination from {0}.  Degrees are compared
    on their integers, p/q < r/s as p*s < r*q.
    """
    members = list(family)
    if not members:
        return ZERO
    if len(members) == 1:
        return members[0]
    ratios = [_ratios(x.degrees) for x in members]
    # r/s becomes the largest member minimum, where the join starts.
    r, s = ratios[0][0]
    for rs in ratios:
        p, q = rs[0]
        if r * q < p * s:
            r, s = p, q
    acc: tuple[Fraction, ...] = ()
    racc: list[tuple[int, int]] = []
    for x, rs in zip(members, ratios):
        k = _from(rs, r, s)
        acc, racc = _merge(acc, racc, x.degrees[k:], rs[k:])
    return _trusted(acc)


class DegreeCodec:
    """THFEs over one finite universe of degrees as int bitmasks.

    ``universe`` is the sorted set of the degrees of ``values`` together
    with 0 and 1; bit i of a mask stands for ``universe[i]``.  Since 0 is
    the least degree, bit 0 stands for it and the mask of {0} is 1.
    """

    __slots__ = ("universe", "_bits")

    def __init__(self, values: Iterable[Thfe]):
        degrees = {Fraction(0), Fraction(1)}
        for x in values:
            degrees.update(x.degrees)
        self.universe = tuple(sorted(degrees))
        self._bits = {d: 1 << i for i, d in enumerate(self.universe)}

    def encode(self, x: Thfe) -> int:
        """The mask of ``x``; its degrees must lie in the universe."""
        mask = 0
        for d in x.degrees:
            mask |= self._bits[d]
        return mask

    def decode(self, mask: int) -> Thfe:
        """The THFE of a non-zero mask."""
        return _trusted(tuple(d for i, d in enumerate(self.universe) if mask >> i & 1))

    @staticmethod
    def join(masks: Iterable[int]) -> int:
        """sup_combination_n on masks: every bit of every member from the
        highest of their lowest set bits up, the mask of {0} when empty."""
        union = floor = 0
        for mask in masks:
            union |= mask
            floor = max(floor, mask & -mask)
        # floor is a power of two, so -floor keeps exactly the bits from it up.
        return union & -floor if floor else 1


def leq(x: Thfe, y: Thfe) -> bool:
    """The derived partial order: x is below y iff sup_combination(x, y) == y.

    In closed form: min x <= min y, and every degree of x from min y up is
    a degree of y.  Degrees are compared on their integers, p/q < r/s as
    p*s < r*q, and two degrees are equal exactly when their ratios are.
    """
    rx, ry = _ratios(x.degrees), _ratios(y.degrees)
    (p, q), (r, s) = rx[0], ry[0]
    if r * q < p * s:
        return False
    return set(ry).issuperset(rx[_from(rx, r, s):])
