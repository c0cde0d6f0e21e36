"""Brute-force reference implementations.

Everything here is deliberately naive: the element operations form every
pairwise minimum or maximum, the n-ary join folds them from {0}, the path
recursion is evaluated literally with no memoization, and language
comparisons enumerate words exhaustively.  These are the ground truth the
closed-form element operations, the vector fold and the product search are
certified against, so they must not share their algorithms.

The one memoized reference, reference_fold, computes each subterm of the
same recursion once, one prefix at a time, so that words of any length can
be checked.  It shares with the code only the definition's left-to-right
order: no closed form, no skip of {0} entries, no incoming table, no degree
codec and no view.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .constructions import EquivalenceVerdict, _require_same_alphabet
from .errors import UnknownState, WordTooLong
from .hfe import ONE, ZERO, Thfe, _trusted
from .hesitant import Nthfa

__all__ = [
    "DEFAULT_RECURSION_BOUND",
    "pairwise_inf",
    "pairwise_sup",
    "pairwise_sup_n",
    "pairwise_leq",
    "iter_words",
    "reference_psi_hat",
    "reference_eval",
    "reference_fold",
    "empirical_range",
    "languages_agree_up_to",
]

# The literal recursion costs |Q|^|w| THFE operations; six symbols keeps a
# worst case of |Q| = 3 near 10^5 operations.
DEFAULT_RECURSION_BOUND = 6


def _keyed(x: Thfe) -> dict[tuple[int, int], Fraction]:
    """The degrees of ``x`` keyed by reduced (numerator, denominator), so
    that a/b <= c/d is decided by the integer comparison a*d <= c*b."""
    return {(d.numerator, d.denominator): d for d in x.degrees}


def _collect(chosen: set[tuple[int, int]], degrees: dict[tuple[int, int], Fraction]) -> Thfe:
    # Every chosen degree comes from an already validated operand, so the
    # sorted degrees form the canonical tuple; parsing them again would only
    # repeat the range checks.
    return _trusted(tuple(sorted(degrees[key] for key in chosen)))


def pairwise_inf(x: Thfe, y: Thfe) -> Thfe:
    """The inf-combination by definition: {min(a, b) for a in x, b in y}."""
    xs, ys = _keyed(x), _keyed(y)
    return _collect({a if a[0] * b[1] <= b[0] * a[1] else b for a in xs for b in ys}, xs | ys)


def pairwise_sup(x: Thfe, y: Thfe) -> Thfe:
    """The sup-combination by definition: {max(a, b) for a in x, b in y}."""
    xs, ys = _keyed(x), _keyed(y)
    return _collect({a if a[0] * b[1] >= b[0] * a[1] else b for a in xs for b in ys}, xs | ys)


def pairwise_sup_n(family: Iterable[Thfe]) -> Thfe:
    """Left fold of pairwise_sup from {0}, the identity of the join."""
    acc = ZERO
    for x in family:
        acc = pairwise_sup(acc, x)
    return acc


def pairwise_leq(x: Thfe, y: Thfe) -> bool:
    """The order by definition: joining x into y leaves y unchanged."""
    return pairwise_sup(x, y) == y


def iter_words(alphabet: Sequence[str], max_length: int) -> Iterator[tuple[str, ...]]:
    """All words of length 0..max_length, shortest first, then in the order
    induced by the alphabet sequence."""
    for length in range(max_length + 1):
        yield from itertools.product(alphabet, repeat=length)


def reference_psi_hat(
    m: Nthfa,
    q: str,
    w: Sequence[str],
    p: str,
    max_length: int = DEFAULT_RECURSION_BOUND,
) -> Thfe:
    """Literal structural recursion for the extended transition weight."""
    if len(w) > max_length:
        raise WordTooLong(f"reference recursion limited to {max_length} symbols")
    if not w:
        return ONE if q == p else ZERO
    prefix, last = tuple(w[:-1]), w[-1]
    return pairwise_sup_n(
        pairwise_inf(
            reference_psi_hat(m, q, prefix, mid, max_length), m.psi_value(mid, last, p)
        )
        for mid in m.states
    )


def reference_eval(
    m: Nthfa, w: Sequence[str], max_length: int = DEFAULT_RECURSION_BOUND
) -> Thfe:
    """Machine value of ``w`` computed from the literal recursion."""
    return pairwise_sup_n(
        pairwise_inf(
            reference_psi_hat(m, m.initial, w, q, max_length), m.final_map[q]
        )
        for q in m.states
    )


def reference_fold(m: Nthfa, w: Sequence[str], q: str | None = None) -> dict[str, Thfe]:
    """ψ̂(q, w, r) for every state r, from the initial state by default.

    The recursion of reference_psi_hat, ψ̂(q, va, r) = ⊔_p ψ̂(q, v, p) ⊗
    ψ(p, a, r), with the join over p in state order, computed bottom up:
    ψ̂(q, w[:n], r) once per prefix length n and state r, with pairwise_inf
    and pairwise_sup_n.  It costs O(|w|·|Q|²) pairwise operations, so it
    takes no length bound.
    """
    q = m.initial if q is None else q
    if q not in m.states:
        raise UnknownState(f"unknown state {q!r}")
    row = {r: ONE if r == q else ZERO for r in m.states}
    for a in w:
        row = {
            r: pairwise_sup_n(pairwise_inf(row[p], m.psi_value(p, a, r)) for p in m.states)
            for r in m.states
        }
    return row


def empirical_range(m: Nthfa, max_length: int) -> frozenset[Thfe]:
    """All values the machine takes on words of length at most ``max_length``."""
    return frozenset(m.eval(w) for w in iter_words(m.alphabet, max_length))


def languages_agree_up_to(a, b, max_length: int) -> EquivalenceVerdict:
    """Pointwise comparison of two hesitant automata over every word of
    length at most ``max_length``; the counterexample, if any, is the first
    mismatch in enumeration order."""
    _require_same_alphabet(a, b)
    for w in iter_words(a.alphabet, max_length):
        if a.eval(w) != b.eval(w):
            return EquivalenceVerdict(equivalent=False, counterexample=w)
    return EquivalenceVerdict(equivalent=True, counterexample=None)
