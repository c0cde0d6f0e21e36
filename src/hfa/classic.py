"""Classical finite automata: complete DFAs, possibly partial NFAs, and the
subset construction connecting them.

State and symbol order is significant everywhere: it fixes iteration order,
construction output, and therefore byte-level reproducibility of anything
serialized downstream.

Inside an Nfa a subset of states is an int with bit i set for the i-th
declared state, and one step ORs the successor masks of its members, which
are built once per symbol at construction.  Subsets become frozensets of
names only at the API boundary (``extended``) and get a name (subset_name)
only when a construction names its states.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Sequence

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


class _View:
    """A deterministic machine over ``alphabet``, built on demand from a
    start state, a step, a value per state and, to name states, ``name``.
    States are numbered in the order ``step`` first returns them (the start
    is 0); each state's successors and value are computed once, and the
    step that first reached a state is kept as its parent."""

    def __init__(self, alphabet: Sequence[str], start: Hashable,
                 step: Callable[[Hashable, str], Hashable], value: Callable,
                 name: Callable[[int, Hashable], str] | None = None):
        self.alphabet = alphabet
        self.states = [start]
        self.values = [value(start)]
        self.parents: list[tuple[int, str] | None] = [None]
        self.delta: dict[tuple[int, str], int] = {}  # (state, symbol) -> state
        self._index = {start: 0}
        self._step, self._value, self._name = step, value, name

    def step(self, i: int, a: str) -> int:
        j = self.delta.get((i, a))
        if j is None:
            target = self._step(self.states[i], a)
            j = self.delta[(i, a)] = self._index.setdefault(target, len(self.states))
            if j == len(self.states):
                self.states.append(target)
                self.values.append(self._value(target))
                self.parents.append((i, a))
        return j

    def name(self, i: int) -> str:
        return self._name(i, self.states[i])

    def explore(self, budget: int | None = None, stop: Callable | None = None) -> int | None:
        """Breadth-first search taking successors in alphabet order.

        The numbering, and every name derived from it, is reproducible, and
        following the parents back from a state spells its earliest access
        word in length-then-alphabet order.  More than ``budget`` states raise
        ClosureBudgetExceeded.  Returns the first state in number order that
        satisfies ``stop``, or None once every reachable state is numbered.
        """
        # ``states`` grows while it is iterated, which makes it the BFS queue.
        for i, _ in enumerate(self.states):
            if stop is not None and stop(i):
                return i
            for a in self.alphabet:
                self.step(i, a)
                if budget is not None and len(self.states) > budget:
                    raise ClosureBudgetExceeded(f"more than {budget} reachable states")
        return None

    def named_delta(self, names: Sequence[str]) -> dict[tuple[str, str], str]:
        """The transitions with state numbers replaced by ``names``."""
        return {(names[i], a): names[j] for (i, a), j in self.delta.items()}


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
        # State name to its bit in subset masks.
        self._position = {q: i for i, q in enumerate(self.states)}
        self.finals = frozenset(finals)
        for f in self.finals:
            if f not in self._position:
                raise UnknownState(f"final state {f!r} is not a declared state")
        self.delta: dict[tuple[str, str], frozenset[str]] = {}
        successors = {a: [0] * len(self.states) for a in self.alphabet}
        for (q, a), targets in delta.items():
            if q not in self._position:
                raise UnknownState(f"transition source {q!r} is not a declared state")
            if a not in self.alphabet:
                raise UnknownSymbol(f"transition from {q!r} uses unknown symbol {a!r}")
            targets = frozenset(targets)
            for p in targets:
                if p not in self._position:
                    raise UnknownState(f"transition target {p!r} is not a declared state")
            if targets:
                self.delta[(q, a)] = targets
                successors[a][self._position[q]] = self._mask(targets)
        # Per symbol, per state position: the mask of that state's successors.
        self._successors = {a: tuple(row) for a, row in successors.items()}

    def _mask(self, states: Iterable[str]) -> int:
        """The subset mask of some declared states."""
        mask = 0
        for q in states:
            mask |= 1 << self._position[q]
        return mask

    def _members(self, subset: int) -> list[str]:
        """The states of a subset mask, in declaration order."""
        return [q for i, q in enumerate(self.states) if subset >> i & 1]

    def successors(self, q: str, a: str) -> frozenset[str]:
        if a not in self.alphabet:
            raise UnknownSymbol(f"unknown symbol {a!r}")
        return self.delta.get((q, a), frozenset())

    def extended(self, q: str, w: Sequence[str]) -> frozenset[str]:
        """All states reachable from ``q`` along ``w``; may be empty."""
        if q not in self._position:
            raise UnknownState(f"unknown state {q!r}")
        current = self._mask([q])
        for a in w:
            current = self._step(current, a)
        return frozenset(self._members(current))

    def accepts(self, w: Sequence[str]) -> bool:
        return bool(self.extended(self.initial, w) & self.finals)

    def _step(self, subset: int, a: str) -> int:
        """The subset mask reached from ``subset`` by reading ``a``."""
        try:
            successors = self._successors[a]
        except KeyError:
            raise UnknownSymbol(f"unknown symbol {a!r}") from None
        out = 0
        while subset:
            low = subset & -subset
            out |= successors[low.bit_length() - 1]
            subset ^= low
        return out

    def to_dfa(self, max_states: int | None = None) -> Dfa:
        """Reachable-only subset construction.

        Subsets are discovered breadth-first in alphabet order and named
        canonically, so the result is reproducible.  The empty subset, when
        reachable, becomes an explicit non-final sink.  More than
        ``max_states`` subsets raise ClosureBudgetExceeded.
        """
        finals = self._mask(self.finals)
        view = _View(self.alphabet, self._mask([self.initial]), self._step,
                     lambda s: bool(s & finals))
        view.explore(max_states)
        names = [subset_name(self._members(s)) for s in view.states]
        accepting = [name for name, final in zip(names, view.values) if final]
        return Dfa(names, self.alphabet, view.named_delta(names), names[0], accepting)
