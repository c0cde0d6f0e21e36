"""Brute-force reference implementations.

Everything here is deliberately naive: the path recursion is evaluated
literally with no memoization, and language comparisons enumerate words
exhaustively.  These are the ground truth the efficient vector-fold and
product-reachability paths are certified against, so they must not share
their algorithms.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .constructions import EquivalenceVerdict, _require_same_alphabet
from .errors import WordTooLong
from .hfe import ONE, ZERO, Thfe, inf_combination, sup_combination_n
from .hesitant import Nthfa

__all__ = [
    "DEFAULT_RECURSION_BOUND",
    "iter_words",
    "reference_psi_hat",
    "reference_eval",
    "empirical_range",
    "languages_agree_up_to",
]

# The literal recursion costs |Q|^|w| THFE operations; six symbols keeps a
# worst case of |Q| = 3 near 10^5 operations.
DEFAULT_RECURSION_BOUND = 6


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
    return sup_combination_n(
        inf_combination(
            reference_psi_hat(m, q, prefix, mid, max_length), m.psi_value(mid, last, p)
        )
        for mid in m.states
    )


def reference_eval(
    m: Nthfa, w: Sequence[str], max_length: int = DEFAULT_RECURSION_BOUND
) -> Thfe:
    """Machine value of ``w`` computed from the literal recursion."""
    return sup_combination_n(
        inf_combination(
            reference_psi_hat(m, m.initial, w, q, max_length), m.final_map[q]
        )
        for q in m.states
    )


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
