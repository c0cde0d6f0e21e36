"""Hesitant automata: THFE-weighted transitions (Nthfa) and the two crisp
variants that keep THFE-valued final maps (Cnthfa, Cdthfa).

An Nthfa assigns every (state, symbol, state) triple a THFE weight; the
weight of a word along a path combines transition weights with the
inf-combination, and the machine value of a word joins all path weights with
the sup-combination.  Evaluation runs as a single left-to-right fold over a
per-state value vector, costing |Q|^2 THFE operations per symbol, instead of
enumerating the exponentially many paths (the literal path recursion lives in
the oracle module as the reference implementation).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .classic import Dfa, Nfa, check_alphabet, check_states
from .errors import UnknownState, UnknownSymbol
from .hfe import ONE, ZERO, Thfe, inf_combination, sup_combination_n

__all__ = ["Nthfa", "Cnthfa", "Cdthfa"]

StateValueVector = dict[str, Thfe]


def _as_thfe(value: Thfe | Iterable) -> Thfe:
    return value if isinstance(value, Thfe) else Thfe(value)


def _total_final_map(
    states: Sequence[str], final_map: Mapping[str, Thfe | Iterable]
) -> dict[str, Thfe]:
    """The final map over every state, {0} where ``final_map`` is silent."""
    declared = set(states)
    for q in final_map:
        if q not in declared:
            raise UnknownState(f"final map mentions unknown state {q!r}")
    return {q: _as_thfe(final_map[q]) if q in final_map else ZERO for q in states}


class Nthfa:
    """Automaton with THFE-valued transitions and a THFE-valued final map.

    The transition map is stored sparsely: triples whose value is {0} are
    dropped on construction, and lookups of absent triples return {0}.  The
    final map is total; states missing from the given mapping default to {0}.
    """

    def __init__(
        self,
        states: Sequence[str],
        alphabet: Sequence[str],
        psi: Mapping[tuple[str, str, str], Thfe | Iterable],
        initial: str,
        final_map: Mapping[str, Thfe | Iterable],
        metadata: Mapping[str, object] | None = None,
    ):
        self.alphabet = check_alphabet(alphabet)
        self.states = check_states(states, initial)
        self.initial = initial
        self._state_set = frozenset(self.states)
        self.psi: dict[tuple[str, str, str], Thfe] = {}
        for (q, a, p), raw in psi.items():
            if q not in self._state_set or p not in self._state_set:
                raise UnknownState(f"transition ({q!r}, {a!r}, {p!r}) uses an unknown state")
            if a not in self.alphabet:
                raise UnknownSymbol(f"transition from {q!r} uses unknown symbol {a!r}")
            value = _as_thfe(raw)
            if value != ZERO:
                self.psi[(q, a, p)] = value
        self.final_map = _total_final_map(self.states, final_map)
        self.metadata = dict(metadata) if metadata else {}

    def psi_value(self, q: str, a: str, p: str) -> Thfe:
        """Transition weight of the triple; absent triples weigh {0}."""
        if q not in self._state_set or p not in self._state_set:
            raise UnknownState(f"unknown state in ({q!r}, {a!r}, {p!r})")
        if a not in self.alphabet:
            raise UnknownSymbol(f"unknown symbol {a!r}")
        return self.psi.get((q, a, p), ZERO)

    def is_zero_one(self) -> bool:
        """True iff every transition weight is {0} or {1}."""
        return all(value == ONE for value in self.psi.values())

    def initial_vector(self, q: str | None = None) -> StateValueVector:
        """The start-of-word vector: {1} at ``q`` (default initial), {0} elsewhere."""
        if q is None:
            q = self.initial
        elif q not in self._state_set:
            raise UnknownState(f"unknown state {q!r}")
        return {p: (ONE if p == q else ZERO) for p in self.states}

    def advance(self, vector: StateValueVector, a: str) -> StateValueVector:
        """One evaluation step: push the vector across all ``a``-transitions."""
        if a not in self.alphabet:
            raise UnknownSymbol(f"unknown symbol {a!r}")
        result: StateValueVector = {}
        for p in self.states:
            terms = []
            for q in self.states:
                weight = self.psi.get((q, a, p))
                if weight is not None and vector[q] != ZERO:
                    terms.append(inf_combination(vector[q], weight))
            result[p] = sup_combination_n(terms)
        return result

    def value_of(self, vector: StateValueVector) -> Thfe:
        """Join every state's vector entry combined with its final value."""
        return sup_combination_n(
            inf_combination(vector[q], self.final_map[q]) for q in self.states
        )

    def psi_hat(self, q: str, w: Sequence[str], p: str) -> Thfe:
        """Weight of reading ``w`` from ``q`` to ``p``, over all paths."""
        if p not in self._state_set:
            raise UnknownState(f"unknown state {p!r}")
        vector = self.initial_vector(q)
        for a in w:
            vector = self.advance(vector, a)
        return vector[p]

    def eval(self, w: Sequence[str]) -> Thfe:
        """The THFE value the machine assigns to ``w``."""
        vector = self.initial_vector()
        for a in w:
            vector = self.advance(vector, a)
        return self.value_of(vector)


class _Crisp:
    """Shared by the crisp kinds: the transitions form a classical automaton,
    which checks their structure, and a total final map assigns each state
    a THFE."""

    _classical: type[Nfa] | type[Dfa]

    def __init__(
        self,
        states: Sequence[str],
        alphabet: Sequence[str],
        delta: Mapping[tuple[str, str], Iterable[str] | str],
        initial: str,
        final_map: Mapping[str, Thfe | Iterable],
        metadata: Mapping[str, object] | None = None,
    ):
        self._machine = self._classical(states, alphabet, delta, initial, finals=())
        self.states = self._machine.states
        self.alphabet = self._machine.alphabet
        self.delta = self._machine.delta
        self.initial = initial
        self.final_map = _total_final_map(self.states, final_map)
        self.metadata = dict(metadata) if metadata else {}


class Cnthfa(_Crisp):
    """Crisp-nondeterministic hesitant automaton: classical transition sets,
    THFE-valued final map.  The transition map may be partial; a word whose
    run reaches the empty state set evaluates to {0} (the empty join)."""

    _classical = Nfa

    def as_nfa(self, finals: Iterable[str] = ()) -> Nfa:
        """The underlying crisp NFA, with the given final states."""
        return Nfa(self.states, self.alphabet, self.delta, self.initial, finals)

    def reachable(self, w: Sequence[str]) -> frozenset[str]:
        return self._machine.extended(self.initial, w)

    def eval(self, w: Sequence[str]) -> Thfe:
        """Join of the final values over all states the crisp run reaches."""
        reached = self.reachable(w)
        return sup_combination_n(self.final_map[q] for q in self.states if q in reached)


class Cdthfa(_Crisp):
    """Crisp-deterministic hesitant automaton: a total transition function,
    THFE-valued final map; a word's value is the final value of the unique
    state its run reaches."""

    _classical = Dfa

    def extended(self, q: str, w: Sequence[str]) -> str:
        return self._machine.extended(q, w)

    def eval(self, w: Sequence[str]) -> Thfe:
        return self.final_map[self.extended(self.initial, w)]

    def as_cnthfa(self) -> Cnthfa:
        """View with each deterministic target wrapped as a singleton set."""
        delta = {key: {p} for key, p in self.delta.items()}
        return Cnthfa(self.states, self.alphabet, delta, self.initial, self.final_map)
