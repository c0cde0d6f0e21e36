"""Classical finite automata: complete DFAs, possibly partial NFAs, and the
subset construction connecting them.

State and symbol order is significant everywhere: it fixes iteration order,
construction output, and therefore byte-level reproducibility of anything
serialized downstream.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

from .errors import ClosureBudgetExceeded, IncompleteTransition, UnknownState, UnknownSymbol

__all__ = ["Dfa", "Nfa", "subset_name", "WORD_SEPARATOR"]

# Reserved on the command line to separate multi-character symbols in a word.
WORD_SEPARATOR = "."


def check_alphabet(symbols: Sequence[str]) -> tuple[str, ...]:
    symbols = tuple(symbols)
    if not symbols:
        raise ValueError("alphabet must be non-empty")
    seen = set()
    for s in symbols:
        if not isinstance(s, str) or not s:
            raise ValueError(f"alphabet symbol {s!r} must be a non-empty string")
        if any(c.isspace() for c in s) or WORD_SEPARATOR in s:
            raise ValueError(
                f"alphabet symbol {s!r} may not contain whitespace or {WORD_SEPARATOR!r}"
            )
        if s in seen:
            raise ValueError(f"duplicate alphabet symbol {s!r}")
        seen.add(s)
    return symbols


def check_states(names: Sequence[str], initial: str) -> tuple[str, ...]:
    names = tuple(names)
    if not names:
        raise ValueError("state set must be non-empty")
    seen = set()
    for n in names:
        if not isinstance(n, str) or not n:
            raise ValueError(f"state name {n!r} must be a non-empty string")
        if n in seen:
            raise ValueError(f"duplicate state name {n!r}")
        seen.add(n)
    if initial not in seen:
        raise UnknownState(f"initial state {initial!r} is not a declared state")
    return names


class _Exploration(NamedTuple):
    order: list  # states in discovery order; index 0 is the start
    delta: dict[tuple[int, str], int]  # (source index, symbol) -> target index
    parents: list[tuple[int, str] | None]  # BFS parent (index, symbol); None at 0
    stopped: int | None  # index of the state that satisfied ``stop``, if any

    def named_delta(self, names: Sequence[str]) -> dict[tuple[str, str], str]:
        """The transitions with state indices replaced by ``names``."""
        return {(names[i], a): names[j] for (i, a), j in self.delta.items()}


def _explore(
    start: Hashable,
    step: Callable[[Hashable, str], Hashable],
    alphabet: Sequence[str],
    budget: int | None = None,
    stop: Callable[[Hashable], bool] | None = None,
) -> _Exploration:
    """Breadth-first search from ``start`` taking successors in alphabet order.

    The discovery order, and every name derived from it, is reproducible, and
    following the parents back from a state spells its earliest access word
    in length-then-alphabet order.  More than ``budget`` states raise
    ClosureBudgetExceeded; the search ends at the first state in discovery
    order that satisfies ``stop``.
    """
    order = [start]
    index = {start: 0}
    delta: dict[tuple[int, str], int] = {}
    parents: list[tuple[int, str] | None] = [None]
    # ``order`` grows while it is iterated, which makes it the BFS queue.
    for i, state in enumerate(order):
        if stop is not None and stop(state):
            return _Exploration(order, delta, parents, i)
        for a in alphabet:
            target = step(state, a)
            j = index.get(target)
            if j is None:
                if budget is not None and len(order) >= budget:
                    raise ClosureBudgetExceeded(f"more than {budget} reachable states")
                j = index[target] = len(order)
                order.append(target)
                parents.append((i, a))
            delta[(i, a)] = j
    return _Exploration(order, delta, parents, None)


def _escape(name: str) -> str:
    return name.replace("\\", "\\\\").replace(",", "\\,")


def subset_name(members: Iterable[str]) -> str:
    """Canonical name of a state subset: sorted members, comma-joined, braced.

    Backslashes and commas inside member names are backslash-escaped, so
    distinct subsets always get distinct names."""
    return "{" + ",".join(_escape(m) for m in sorted(members)) + "}"


def _pair_name(pair: tuple[str, str]) -> str:
    """Name of a product state, "(q,p)", escaped like subset names."""
    return f"({_escape(pair[0])},{_escape(pair[1])})"


class Dfa:
    """Deterministic finite automaton with a total transition function."""

    def __init__(
        self,
        states: Sequence[str],
        alphabet: Sequence[str],
        delta: Mapping[tuple[str, str], str],
        initial: str,
        finals: Iterable[str],
    ):
        self.alphabet = check_alphabet(alphabet)
        self.states = check_states(states, initial)
        self.initial = initial
        self._state_set = frozenset(self.states)
        self.finals = frozenset(finals)
        for f in self.finals:
            if f not in self._state_set:
                raise UnknownState(f"final state {f!r} is not a declared state")
        self.delta = dict(delta)
        for (q, a), p in self.delta.items():
            if q not in self._state_set or p not in self._state_set:
                raise UnknownState(f"transition ({q!r}, {a!r}) -> {p!r} uses an unknown state")
            if a not in self.alphabet:
                raise UnknownSymbol(f"transition from {q!r} uses unknown symbol {a!r}")
        for q in self.states:
            for a in self.alphabet:
                if (q, a) not in self.delta:
                    raise IncompleteTransition(f"no transition for ({q!r}, {a!r})")

    def extended(self, q: str, w: Sequence[str]) -> str:
        """Fold the transition function over ``w`` starting at ``q``."""
        if q not in self._state_set:
            raise UnknownState(f"unknown state {q!r}")
        for a in w:
            if a not in self.alphabet:
                raise UnknownSymbol(f"unknown symbol {a!r}")
            q = self.delta[(q, a)]
        return q

    def accepts(self, w: Sequence[str]) -> bool:
        return self.extended(self.initial, w) in self.finals


class Nfa:
    """Nondeterministic finite automaton; the transition map may be partial,
    an absent (state, symbol) entry means the empty successor set."""

    def __init__(
        self,
        states: Sequence[str],
        alphabet: Sequence[str],
        delta: Mapping[tuple[str, str], Iterable[str]],
        initial: str,
        finals: Iterable[str],
    ):
        self.alphabet = check_alphabet(alphabet)
        self.states = check_states(states, initial)
        self.initial = initial
        self._state_set = frozenset(self.states)
        self.finals = frozenset(finals)
        for f in self.finals:
            if f not in self._state_set:
                raise UnknownState(f"final state {f!r} is not a declared state")
        self.delta: dict[tuple[str, str], frozenset[str]] = {}
        for (q, a), targets in delta.items():
            if q not in self._state_set:
                raise UnknownState(f"transition source {q!r} is not a declared state")
            if a not in self.alphabet:
                raise UnknownSymbol(f"transition from {q!r} uses unknown symbol {a!r}")
            targets = frozenset(targets)
            for p in targets:
                if p not in self._state_set:
                    raise UnknownState(f"transition target {p!r} is not a declared state")
            if targets:
                self.delta[(q, a)] = targets

    def successors(self, q: str, a: str) -> frozenset[str]:
        if a not in self.alphabet:
            raise UnknownSymbol(f"unknown symbol {a!r}")
        return self.delta.get((q, a), frozenset())

    def extended(self, q: str, w: Sequence[str]) -> frozenset[str]:
        """All states reachable from ``q`` along ``w``; may be empty."""
        if q not in self._state_set:
            raise UnknownState(f"unknown state {q!r}")
        current = frozenset({q})
        for a in w:
            current = self._step(current, a)
        return current

    def accepts(self, w: Sequence[str]) -> bool:
        return bool(self.extended(self.initial, w) & self.finals)

    def _step(self, subset: frozenset[str], a: str) -> frozenset[str]:
        return frozenset(p for q in subset for p in self.successors(q, a))

    def _subsets(self) -> tuple[list[frozenset[str]], list[str], dict[tuple[str, str], str]]:
        """Reachable subsets in discovery order, their names, and the named
        transitions between them."""
        found = _explore(frozenset({self.initial}), self._step, self.alphabet)
        names = [subset_name(s) for s in found.order]
        return found.order, names, found.named_delta(names)

    def to_dfa(self) -> Dfa:
        """Reachable-only subset construction.

        Subsets are discovered breadth-first in alphabet order and named
        canonically, so the result is reproducible.  The empty subset, when
        reachable, becomes an explicit non-final sink.
        """
        subsets, names, delta = self._subsets()
        finals = [name for name, s in zip(names, subsets) if s & self.finals]
        return Dfa(names, self.alphabet, delta, names[0], finals)
