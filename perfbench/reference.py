"""The benchmark's own model of its inputs and their expected answers.

Generated machines are kept here in a raw form: degrees are integers over a
common denominator, and a THFE is a frozenset of them.  Every expected answer
the benchmark checks against is computed from this raw form with the literal
definitions (pairwise min / max), so no check depends on code in ``hfa``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

ZERO = frozenset({0})


def farey(n: int) -> list[Fraction]:
    """All reduced fractions in [0, 1] whose denominator is at most n."""
    return sorted({Fraction(p, q) for q in range(1, n + 1) for p in range(q + 1)})


def common_scale(pool: list[Fraction]) -> int:
    return math.lcm(*(d.denominator for d in pool))


def sup(x: frozenset, y: frozenset) -> frozenset:
    return frozenset(max(a, b) for a in x for b in y)


def inf(x: frozenset, y: frozenset) -> frozenset:
    return frozenset(min(a, b) for a in x for b in y)


def join(values) -> frozenset:
    """n-ary sup-combination; the empty join is {0}."""
    return reduce(sup, values, ZERO)


@dataclass
class Weighted:
    """A THFE-weighted machine (the raw form of an Nthfa)."""

    scale: int
    states: list[str]
    alphabet: list[str]
    weights: dict[tuple[str, str, str], frozenset]
    finals: dict[str, frozenset]

    def __post_init__(self):
        index = {q: i for i, q in enumerate(self.states)}
        self._incoming = {
            a: [
                [(index[q], w) for (q, b, t), w in self.weights.items() if b == a and t == p]
                for p in self.states
            ]
            for a in self.alphabet
        }
        self._final_list = [self.finals.get(q, ZERO) for q in self.states]

    def start(self) -> tuple:
        return tuple(frozenset({self.scale}) if i == 0 else ZERO for i in range(len(self.states)))

    def step(self, vector: tuple, a: str) -> tuple:
        return tuple(
            join(inf(vector[i], w) for i, w in incoming) for incoming in self._incoming[a]
        )

    def value_of(self, vector: tuple) -> frozenset:
        return join(inf(v, f) for v, f in zip(vector, self._final_list))

    def value(self, word) -> frozenset:
        vector = self.start()
        for a in word:
            vector = self.step(vector, a)
        return self.value_of(vector)

    def saturate(self, cap: int) -> list[tuple] | None:
        """Reachable value vectors in breadth-first order, or None past ``cap``."""
        order = [self.start()]
        seen = {order[0]}
        i = 0
        while i < len(order):
            for a in self.alphabet:
                nxt = self.step(order[i], a)
                if nxt not in seen:
                    if len(order) >= cap:
                        return None
                    seen.add(nxt)
                    order.append(nxt)
            i += 1
        return order


@dataclass
class Crisp:
    """A crisp machine with THFE finals: targets are sets (Cnthfa) or, when
    every set is a singleton and the map is total, a Cdthfa."""

    scale: int
    states: list[str]
    alphabet: list[str]
    delta: dict[tuple[str, str], frozenset]
    finals: dict[str, frozenset]

    def reached(self, word) -> frozenset:
        current = frozenset({self.states[0]})
        for a in word:
            current = frozenset(p for q in current for p in self.delta.get((q, a), ()))
        return current

    def value(self, word) -> frozenset:
        return join(self.finals.get(q, ZERO) for q in self.reached(word))


def degree_text(scale: int, v: int) -> str:
    d = Fraction(v, scale)
    return str(d.numerator) if d.denominator == 1 else f"{d.numerator}/{d.denominator}"


def to_fractions(scale: int, x: frozenset) -> list[Fraction]:
    return [Fraction(v, scale) for v in sorted(x)]


def from_degrees(scale: int, degrees) -> frozenset:
    """Raw form of degrees the code under test returned; a degree off the
    common scale cannot be right and maps to -1 so that it never matches."""
    out = set()
    for d in degrees:
        v = Fraction(d) * scale
        out.add(int(v) if v.denominator == 1 else -1)
    return frozenset(out)


def parse_thfe_text(scale: int, text: str) -> frozenset:
    """Raw form of a THFE printed as "{1/2, 3/5}"."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"not a THFE: {text!r}")
    return from_degrees(scale, (Fraction(t) for t in body[1:-1].split(", ")))


def document(kind: str, m: Crisp) -> str:
    """A canonical cnthfa or cdthfa document for ``m``."""
    rows = []
    for q in m.states:
        for a in m.alphabet:
            targets = m.delta.get((q, a))
            if not targets:
                continue
            ordered = [p for p in m.states if p in targets]
            rows.append({"from": q, "symbol": a, "to": ordered[0] if kind == "cdthfa" else ordered})
    final = {
        q: [degree_text(m.scale, v) for v in sorted(m.finals[q])]
        for q in m.states
        if m.finals.get(q, ZERO) != ZERO
    }
    doc = {
        "kind": kind,
        "alphabet": m.alphabet,
        "states": m.states,
        "initial": m.states[0],
        "transitions": rows,
        "final": final,
    }
    return json.dumps(doc, indent=2) + "\n"
