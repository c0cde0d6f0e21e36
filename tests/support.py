"""Seeded random generators shared across the test modules.

Everything takes an explicit random.Random so each test controls its seed;
no generator touches the global RNG state.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from hfa import Cdthfa, Cnthfa, Nthfa, Thfe, ZERO, inf_combination, sup_combination
from hfa.errors import ClosureBudgetExceeded, InvalidTHFE

# Small degree pool keeping THFE operations cheap and collisions likely.
SMALL_POOL = tuple(Fraction(n, 4) for n in range(5))

TIGHT_POOL = (Fraction(0), Fraction(1, 2), Fraction(1))


def farey_pool(max_denominator: int = 10) -> tuple[Fraction, ...]:
    """All reduced fractions p/q in [0,1] with q at most max_denominator."""
    return tuple(
        sorted(
            {
                Fraction(p, q)
                for q in range(1, max_denominator + 1)
                for p in range(q + 1)
            }
        )
    )


def random_thfe(
    rng: random.Random,
    pool: Sequence[Fraction] = SMALL_POOL,
    max_cardinality: int = 3,
) -> Thfe:
    k = rng.randint(1, min(max_cardinality, len(pool)))
    return Thfe(rng.sample(pool, k))


def _random_states(rng: random.Random, max_states: int) -> list[str]:
    return [f"q{i}" for i in range(rng.randint(1, max_states))]


def _random_alphabet(rng: random.Random, max_symbols: int) -> list[str]:
    return ["a", "b", "c"][: rng.randint(1, max_symbols)]


def random_nthfa(
    rng: random.Random,
    max_states: int = 3,
    max_symbols: int = 2,
    pool: Sequence[Fraction] = SMALL_POOL,
    max_cardinality: int = 3,
    density: float = 0.8,
    alphabet: Sequence[str] | None = None,
) -> Nthfa:
    states = _random_states(rng, max_states)
    if alphabet is None:
        alphabet = _random_alphabet(rng, max_symbols)
    psi = {}
    for q in states:
        for a in alphabet:
            for p in states:
                if rng.random() < density:
                    value = random_thfe(rng, pool, max_cardinality)
                    if value != ZERO:
                        psi[(q, a, p)] = value
    final = {q: random_thfe(rng, pool, max_cardinality) for q in states}
    return Nthfa(states, alphabet, psi, states[0], final)


def random_zero_one_nthfa(
    rng: random.Random,
    max_states: int = 3,
    max_symbols: int = 2,
    pool: Sequence[Fraction] = SMALL_POOL,
    max_cardinality: int = 3,
    density: float = 0.6,
    alphabet: Sequence[str] | None = None,
) -> Nthfa:
    """Machine with {0}/{1} transition weights but arbitrary final values."""
    states = _random_states(rng, max_states)
    if alphabet is None:
        alphabet = _random_alphabet(rng, max_symbols)
    psi = {
        (q, a, p): Thfe([1])
        for q in states
        for a in alphabet
        for p in states
        if rng.random() < density
    }
    final = {q: random_thfe(rng, pool, max_cardinality) for q in states}
    return Nthfa(states, alphabet, psi, states[0], final)


def random_cnthfa(
    rng: random.Random,
    max_states: int = 3,
    max_symbols: int = 2,
    pool: Sequence[Fraction] = SMALL_POOL,
    max_cardinality: int = 3,
    density: float = 0.5,
    alphabet: Sequence[str] | None = None,
) -> Cnthfa:
    states = _random_states(rng, max_states)
    if alphabet is None:
        alphabet = _random_alphabet(rng, max_symbols)
    delta = {}
    for q in states:
        for a in alphabet:
            targets = {p for p in states if rng.random() < density}
            if targets:
                delta[(q, a)] = targets
    final = {q: random_thfe(rng, pool, max_cardinality) for q in states}
    return Cnthfa(states, alphabet, delta, states[0], final)


def random_cdthfa(
    rng: random.Random,
    max_states: int = 3,
    max_symbols: int = 2,
    pool: Sequence[Fraction] = SMALL_POOL,
    max_cardinality: int = 3,
    alphabet: Sequence[str] | None = None,
) -> Cdthfa:
    states = _random_states(rng, max_states)
    if alphabet is None:
        alphabet = _random_alphabet(rng, max_symbols)
    delta = {(q, a): rng.choice(states) for q in states for a in alphabet}
    final = {q: random_thfe(rng, pool, max_cardinality) for q in states}
    return Cdthfa(states, alphabet, delta, states[0], final)


def random_small_range_nthfa(
    rng: random.Random,
    max_vectors: int = 8,
    attempts: int = 500,
) -> tuple[Nthfa, int]:
    """A random machine whose reachable-vector count stays small, found by
    rejection sampling, together with that count."""
    for _ in range(attempts):
        m = random_nthfa(
            rng, max_states=2, max_symbols=2, pool=TIGHT_POOL, max_cardinality=2
        )
        count = len(reachable_vectors(m))
        if count <= max_vectors:
            return m, count
    raise RuntimeError(f"no machine with at most {max_vectors} vectors found")


def reachable_vectors(m: Nthfa) -> list[dict[str, Thfe]]:
    """All value vectors the machine can reach, in discovery order."""
    view = m._view()
    view.explore()
    return [dict(zip(m.states, vector)) for vector in view.states]


def perturb_nthfa(rng: random.Random, m: Nthfa) -> Nthfa:
    """Copy of ``m`` with one transition weight or final value re-rolled;
    the result usually computes a different language (but may not)."""
    psi = dict(m.psi)
    final = dict(m.final_map)
    if rng.random() < 0.5:
        q = rng.choice(m.states)
        final[q] = random_thfe(rng)
    else:
        q = rng.choice(m.states)
        a = rng.choice(m.alphabet)
        p = rng.choice(m.states)
        value = random_thfe(rng)
        if value == ZERO:
            psi.pop((q, a, p), None)
        else:
            psi[(q, a, p)] = value
    return Nthfa(m.states, m.alphabet, psi, m.initial, final)


def h_union_pointwise(
    f1_eval: Callable[[Sequence[str]], Thfe],
    f2_eval: Callable[[Sequence[str]], Thfe],
    w: Sequence[str],
) -> Thfe:
    """Pointwise join of two language evaluators; the union oracle."""
    return sup_combination(f1_eval(w), f2_eval(w))


def constant_automaton(x: Thfe, alphabet: Sequence[str]) -> Nthfa:
    """Two-state machine whose language is constantly ``x``: every transition
    weight and every final value equals ``x``."""
    states = ["q0", "q1"]
    psi = {(q, a, p): x for q in states for a in alphabet for p in states}
    return Nthfa(states, alphabet, psi, "q0", {q: x for q in states})


def hyperbolic_language_eval(w: Sequence[str]) -> Thfe:
    """Value {1/(2^i + 1) : 0 <= i <= |w|}; a language whose range grows with
    the word length and therefore fits no finite-range machine."""
    return Thfe(Fraction(1, 2**i + 1) for i in range(len(w) + 1))


DEFAULT_CLOSURE_BUDGET = 100_000


def is_degenerate(x: Thfe) -> bool:
    """True iff x is a singleton, i.e. an embedded ordinary fuzzy degree."""
    return len(x) == 1


def generated_closure(
    seed: Iterable[Thfe], max_size: int = DEFAULT_CLOSURE_BUDGET
) -> frozenset[Thfe]:
    """Smallest superset of ``seed`` closed under both combinations.

    Worklist saturation: every new element is combined with everything known
    so far.  Closure is finite because no combination introduces degrees
    beyond those already present in the seed, but an element budget guards
    against mistakes instead of looping forever.
    """
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
