"""Hesitant automata: THFE-weighted transitions (Nthfa) and the two crisp
variants that keep THFE-valued final maps (Cnthfa, Cdthfa).

An Nthfa assigns every (state, symbol, state) triple a THFE weight.  A
word's value is a left-to-right fold over a per-state value vector: reading
a symbol sets each entry p to the join over r of entry r combined (inf) with
psi(r, a, p), and the value joins each entry combined with its final value.
Since distributivity fails, that is not the join over paths of their
weights (README, "Known non-laws"); the oracle module computes the same
recursion literally.  The kernel is one meet-join over a flat row of
(state index, weight) pairs built at construction: a step applies it to
each state's row of incoming transitions on the symbol, and the value is
one more step, into the row of the non-{0} final values.  Each kind is a
classic._Machine and declares only the machine it runs; eval and the view
derive from it.  The fold and every Nthfa lookup check the names they get
with classic.known.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Mapping, Sequence

from .classic import (
    Dfa, Nfa, _Machine, checked_header, known, raise_first, transition_errors, undeclared,
)
from .errors import UnknownState
from .hfe import ONE, ZERO, DegreeCodec, Thfe, inf_combination, sup_combination_n

__all__ = ["Nthfa", "Cnthfa", "Cdthfa"]

StateValueVector = dict[str, Thfe]
# The same vector as a tuple in state order, as the evaluation kernel uses it.
_Vector = tuple[Thfe, ...]


def _as_thfe(value: Thfe | Iterable) -> Thfe:
    return value if isinstance(value, Thfe) else Thfe(value)


def _total_final_map(
    states: Sequence[str], final_map: Mapping[str, Thfe | Iterable]
) -> dict[str, Thfe]:
    """The final map over every state, {0} where ``final_map`` is silent."""
    raise_first(undeclared("final map state", final_map, set(states)))
    return {q: _as_thfe(final_map[q]) if q in final_map else ZERO for q in states}


def _meet_join(vector: _Vector, row: tuple) -> Thfe:
    """The evaluation kernel: the join of vector[i] (x) w over the flat
    (i, w) pairs of ``row``.  Entries that are the {0} constant are skipped,
    since their terms are {0} and {0} never changes a join."""
    pairs = iter(row)
    return sup_combination_n([
        inf_combination(vector[i], w) for i, w in zip(pairs, pairs) if vector[i] is not ZERO
    ])


class Nthfa(_Machine):
    """Automaton with THFE-valued transitions and a THFE-valued final map.

    The transition map is stored sparsely: triples whose value is {0} are
    dropped on construction, and lookups of absent triples return {0}.  The
    final map is total; states missing from the given mapping default to {0}.
    The transition map is read in one loop at construction, which checks each
    triple, drops {0} weights and fills the kernel's per-symbol incoming rows.
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
        self.alphabet, self.states = checked_header(alphabet, states, initial)
        self.initial = initial
        # State name to its position in ``states`` and in the kernel's vectors.
        self._index = index = {q: i for i, q in enumerate(self.states)}
        self.psi: dict[tuple[str, str, str], Thfe] = {}
        # Per symbol, per target state: source index and weight of each
        # incoming transition, flattened into one tuple to keep it small.
        incoming: dict[str, list[list]] = {a: [[] for _ in self.states] for a in self.alphabet}
        for (q, a, p), raw in psi.items():
            if q not in index or a not in incoming or p not in index:
                raise_first(transition_errors((q, a, p), (p,), index, self.alphabet))
            value = _as_thfe(raw)
            if value != ZERO:
                self.psi[(q, a, p)] = value
                incoming[a][index[p]] += (index[q], value)
        self._incoming = {a: tuple(map(tuple, rows)) for a, rows in incoming.items()}
        self.final_map = _total_final_map(self.states, final_map)
        # The final values as one more row; a {0} final would add only a {0} term.
        self._finals = tuple(x for i, f in enumerate(self.final_map.values()) if f != ZERO
                             for x in (i, f))
        self.metadata = dict(metadata) if metadata else {}
        self._start = self._unit(self.initial)

    def _unit(self, q: str) -> _Vector:
        """The vector with {1} at ``q`` and {0} elsewhere."""
        return tuple(ONE if p == q else ZERO for p in self.states)

    def _step(self, vector: _Vector, a: str) -> _Vector:
        """The vector after reading ``a``: each entry meet-joins its incoming a-row."""
        return tuple([_meet_join(vector, row) for row in self._incoming[a]])

    def _value(self, vector: _Vector) -> Thfe:
        """The step into the final row."""
        return _meet_join(vector, self._finals)

    def _as_tuple(self, vector: StateValueVector) -> _Vector:
        try:
            return tuple(vector[q] for q in self.states)
        except KeyError as exc:
            raise UnknownState(f"the vector has no entry for state {exc.args[0]!r}") from None

    def psi_value(self, q: str, a: str, p: str) -> Thfe:
        """Transition weight of the triple; absent triples weigh {0}."""
        if q not in self._index or p not in self._index:
            raise UnknownState(f"unknown state in ({q!r}, {a!r}, {p!r})")
        return self.psi.get((q, known("symbol", a, self.alphabet), p), ZERO)

    def is_zero_one(self) -> bool:
        """True iff every transition weight is {0} or {1}."""
        return all(value == ONE for value in self.psi.values())

    def initial_vector(self, q: str | None = None) -> StateValueVector:
        """The start-of-word vector: {1} at ``q`` (default initial), {0} elsewhere."""
        q = self.initial if q is None else known("state", q, self._index)
        return dict(zip(self.states, self._unit(q)))

    def advance(self, vector: StateValueVector, a: str) -> StateValueVector:
        """One evaluation step: push the vector across all ``a``-transitions.
        A vector that lacks a state is reported before an unknown symbol."""
        entries = self._as_tuple(vector)
        return dict(zip(self.states, self._step(entries, known("symbol", a, self.alphabet))))

    def value_of(self, vector: StateValueVector) -> Thfe:
        """Join every state's vector entry combined with its final value."""
        return self._value(self._as_tuple(vector))

    def psi_hat(self, q: str, w: Sequence[str], p: str) -> Thfe:
        """The extended transition weight: entry ``p`` of the fold over ``w`` from {1} at ``q``."""
        i = self._index[known("state", p, self._index)]
        return self._run(self._unit(known("state", q, self._index)), w)[i]


class _Crisp(_Machine):
    """Shared by the crisp kinds: the transitions form a classical automaton,
    which checks their structure and whose start, step and state names are
    the kind's own, and a total final map assigns each state a THFE."""

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
        m = self._classical(states, alphabet, delta, initial, finals=())
        self.states = m.states
        self.alphabet = m.alphabet
        self.delta = m.delta
        self.initial = initial
        self.final_map = _total_final_map(self.states, final_map)
        self.metadata = dict(metadata) if metadata else {}
        self._start, self._step, self._name = m._start, m._step, m._name


class Cnthfa(_Crisp):
    """Crisp-nondeterministic hesitant automaton: classical transition sets,
    THFE-valued final map.  The transition map may be partial; a word whose
    run reaches the empty state set evaluates to {0} (the empty join)."""

    _classical = Nfa

    @functools.cached_property
    def _value(self) -> Callable[[int], Thfe]:
        """The value of a subset mask: the join of its members' final values,
        which are encoded once, so the join runs on codec masks."""
        codec = DegreeCodec(self.final_map.values())
        finals = [codec.encode(f) for f in self.final_map.values()]  # in state order
        return lambda s: codec.decode(codec.join(f for i, f in enumerate(finals) if s >> i & 1))


class Cdthfa(_Crisp):
    """Crisp-deterministic hesitant automaton: a total transition function,
    THFE-valued final map; a word's value is the final value of the unique
    state its run reaches."""

    _classical = Dfa

    def _value(self, q: str) -> Thfe:
        return self.final_map[q]

    def as_cnthfa(self) -> Cnthfa:
        """View with each deterministic target wrapped as a singleton set."""
        delta = {key: {p} for key, p in self.delta.items()}
        return Cnthfa(self.states, self.alphabet, delta, self.initial, self.final_map)
