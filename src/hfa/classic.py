"""Classical finite automata: complete DFAs, possibly partial NFAs, and the
subset construction connecting them.

State and symbol order is significant everywhere: it fixes iteration order,
construction output, and therefore byte-level reproducibility of anything
serialized downstream.

Every automaton kind is the deterministic machine it runs (a _Machine),
from which the one fold over a word and the one view builder derive.  One
checker, known, checks each state or symbol that a lookup names, the fold's
too, so a kind's _step only gets symbols of its alphabet.

Inside an Nfa a subset of states is an int with bit i set for the i-th
declared state, and one step ORs the successor masks of its members, which
are built once per symbol at construction.  Subsets become frozensets of
names only at the API boundary (``extended``) and get a name (subset_name)
only when a construction names its states.

The structural rules of every automaton kind live here, each written once as
a checker that yields every break of its rule: the alphabet, the state list
and initial state, declared names, and totality.  A constructor raises the
first break (raise_first); the document parser reports them all.
"""

from __future__ import annotations

from typing import Callable, Container, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    ClosureBudgetExceeded, HfaError, IncompleteTransition, InvalidAutomaton, UnknownState,
    UnknownSymbol,
)

__all__ = ["DEFAULT_MAX_VECTORS", "Dfa", "Nfa", "subset_name", "WORD_SEPARATOR"]

# Reserved on the command line to separate multi-character symbols in a word.
WORD_SEPARATOR = "."

# The one exploration budget: the most states _View.explore may number.
DEFAULT_MAX_VECTORS = 100_000


def alphabet_errors(symbols: Sequence[str]) -> Iterator[HfaError]:
    """Each break of the alphabet rules: it is non-empty, and its symbols are
    distinct non-empty strings free of whitespace and WORD_SEPARATOR."""
    if not symbols:
        yield InvalidAutomaton("alphabet must be non-empty")
    seen: set[str] = set()
    for s in symbols:
        if not isinstance(s, str) or not s or any(c.isspace() for c in s) or WORD_SEPARATOR in s:
            yield InvalidAutomaton(f"alphabet symbol {s!r} must be non-empty and free of "
                                   f"whitespace and {WORD_SEPARATOR!r}")
        elif s in seen:
            yield InvalidAutomaton(f"duplicate alphabet symbol {s!r}")
        else:
            seen.add(s)


def state_errors(names: Sequence[str]) -> Iterator[HfaError]:
    """Each break of the state list rules: it is non-empty, and its names are
    distinct non-empty strings."""
    if not names:
        yield InvalidAutomaton("state list must be non-empty")
    seen: set[str] = set()
    for n in names:
        if not isinstance(n, str) or not n:
            yield InvalidAutomaton("state names must be non-empty")
        elif n in seen:
            yield InvalidAutomaton(f"duplicate state name {n!r}")
        else:
            seen.add(n)


def undeclared(
    noun: str, names: Iterable[str], declared: Container[str], where: str = ""
) -> Iterator[HfaError]:
    """An UnknownSymbol (``noun`` "symbol") or UnknownState (``noun`` a state's
    role: "state", "initial state", ...) for each of ``names`` not in
    ``declared``, its message prefixed with ``where``."""
    error = UnknownSymbol if noun == "symbol" else UnknownState
    for name in names:
        if name not in declared:
            yield error(f"{where}{noun} {name!r} is not declared")


def known(noun: str, name: str, declared: Container[str]) -> str:
    """``name``, if ``declared`` has it; else an UnknownSymbol or UnknownState for ``noun``."""
    if name not in declared:
        raise (UnknownSymbol if noun == "symbol" else UnknownState)(f"unknown {noun} {name!r}")
    return name


def transition_errors(
    key: tuple[str, ...], targets: Iterable[str], states: Container[str], alphabet: Container[str]
) -> Iterator[HfaError]:
    """The undeclared names of the transition ``key`` = (source, symbol, ...)
    to ``targets``: the source, then the symbol, then each target."""
    where = f"transition {key!r}: "
    yield from undeclared("state", (key[0],), states, where)
    yield from undeclared("symbol", (key[1],), alphabet, where)
    yield from undeclared("state", targets, states, where)


def totality_errors(
    delta: Container[tuple[str, str]], states: Sequence[str], alphabet: Sequence[str]
) -> Iterator[HfaError]:
    """An IncompleteTransition for each (state, symbol) pair ``delta`` lacks."""
    for q in states:
        for a in alphabet:
            if (q, a) not in delta:
                yield IncompleteTransition(f"no transition for ({q!r}, {a!r})")


def raise_first(errors: Iterable[HfaError]) -> None:
    """How a constructor applies a checker: raise its first error, if any."""
    for error in errors:
        raise error


def checked_header(
    alphabet: Iterable[str], states: Iterable[str], initial: str
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The alphabet and the states as tuples, once they and the initial state
    keep their rules, checked in the order of a document's header."""
    alphabet, states = tuple(alphabet), tuple(states)
    raise_first(alphabet_errors(alphabet))
    raise_first(state_errors(states))
    raise_first(undeclared("initial state", (initial,), states))
    return alphabet, states


class _View:
    """A deterministic machine over ``alphabet``, built on demand from a
    start state, a step, a value per state and, to name states, ``name``.
    States are numbered in the order ``step`` first returns them (the start
    is 0); each state's successors and value are computed once, and the
    step that first reached a state is kept as its parent.  The view of
    every kind (_Machine._view) and every product are _Views; explore, the
    one BFS loop, bounds each one."""

    def __init__(self, alphabet: Sequence[str], start: Hashable,
                 step: Callable[[Hashable, str], Hashable], value: Callable,
                 name: Callable[[int, Hashable], str]):
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

    def explore(self, stop: Callable | None = None) -> int | None:
        """Breadth-first search taking successors in alphabet order.

        The numbering, and every name derived from it, is reproducible, and
        following the parents back from a state spells its earliest access
        word in length-then-alphabet order.  More than DEFAULT_MAX_VECTORS
        states, as it reads at call time, raise ClosureBudgetExceeded.
        Returns the first state in number order that satisfies ``stop``, or
        None once every reachable state is numbered.
        """
        budget = DEFAULT_MAX_VECTORS
        # ``states`` grows while it is iterated, which makes it the BFS queue.
        for i, _ in enumerate(self.states):
            if stop is not None and stop(i):
                return i
            for a in self.alphabet:
                self.step(i, a)
                if len(self.states) > budget:
                    raise ClosureBudgetExceeded(f"more than {budget} reachable states")
        return None

    def named(self, numbered: bool = False) -> tuple[list[str], dict[tuple[str, str], str]]:
        """Explores the view, then returns its state names in number order and
        the transitions between them: its own names or, if ``numbered``, v0, v1, ..."""
        self.explore()
        name = _numbered if numbered else self._name
        names = [name(i, q) for i, q in enumerate(self.states)]
        return names, {(names[i], a): names[j] for (i, a), j in self.delta.items()}


def _numbered(i: int, state: Hashable) -> str:
    """The name of the ``i``-th state a view meets: v0, v1, ..."""
    return f"v{i}"


def _escape(name: str) -> str:
    return name.replace("\\", "\\\\").replace(",", "\\,")


def subset_name(members: Iterable[str]) -> str:
    """Canonical name of a state subset: sorted members, comma-joined, braced.

    Backslashes and commas inside member names are backslash-escaped, so
    distinct subsets always get distinct names."""
    return "{" + ",".join(_escape(m) for m in sorted(members)) + "}"


def _product_name(q: str, p: str) -> str:
    """Name of a product state, "(q,p)", escaped like subset names."""
    return f"({_escape(q)},{_escape(p)})"


class _Machine:
    """An automaton kind as the deterministic machine it runs over
    ``alphabet``: a Dfa or Cdthfa its states, an Nfa or Cnthfa its subset
    masks, an Nthfa its value vectors.  Each kind declares ``_start``;
    ``_step(state, symbol)``; ``_value(state)``; and, unless its states are
    numbered v0, v1, ... in the order the view meets them,
    ``_name(number, state)``.  ``_step`` only gets symbols of the alphabet:
    _run checks a word's symbols before it steps them, a view steps its own
    alphabet, and a product checks that its operands share one."""

    def eval(self, w: Sequence[str]):
        """The value of the state that ``w`` leads to from the start."""
        return self._value(self._run(self._start, w))

    def _run(self, state, w: Sequence[str]):
        """The state reached from ``state`` by one step per symbol of ``w``."""
        for a in w:
            state = self._step(state, known("symbol", a, self.alphabet))
        return state

    _name = staticmethod(_numbered)

    def _view(self) -> _View:
        """The machine as a view, built only as far as it is read."""
        return _View(self.alphabet, self._start, self._step, self._value, self._name)


class Dfa(_Machine):
    """Deterministic finite automaton with a total transition function."""

    def __init__(
        self,
        states: Sequence[str],
        alphabet: Sequence[str],
        delta: Mapping[tuple[str, str], str],
        initial: str,
        finals: Iterable[str],
    ):
        self.alphabet, self.states = checked_header(alphabet, states, initial)
        self.initial = initial
        self._state_set = frozenset(self.states)
        self.delta = dict(delta)
        for (q, a), p in self.delta.items():
            if q not in self._state_set or a not in self.alphabet or p not in self._state_set:
                raise_first(transition_errors((q, a), (p,), self._state_set, self.alphabet))
        self.finals = frozenset(finals)
        raise_first(undeclared("final state", self.finals, self._state_set))
        raise_first(totality_errors(self.delta, self.states, self.alphabet))
        self._start = initial

    def _step(self, q: str, a: str) -> str:
        return self.delta[(q, a)]

    def _value(self, q: str) -> bool:
        return q in self.finals

    def _name(self, i: int, q: str) -> str:
        return q  # a state is its own name

    accepts = _Machine.eval

    def extended(self, q: str, w: Sequence[str]) -> str:
        """Fold the transition function over ``w`` starting at ``q``."""
        return self._run(known("state", q, self._state_set), w)


class Nfa(_Machine):
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
        self.alphabet, self.states = checked_header(alphabet, states, initial)
        self.initial = initial
        # State name to its bit in subset masks.
        self._position = position = {q: i for i, q in enumerate(self.states)}
        self.delta: dict[tuple[str, str], frozenset[str]] = {}
        successors = {a: [0] * len(self.states) for a in self.alphabet}
        for (q, a), targets in delta.items():
            targets = frozenset(targets)
            if q not in position or a not in successors or not position.keys() >= targets:
                raise_first(transition_errors((q, a), targets, position, self.alphabet))
            if targets:
                self.delta[(q, a)] = targets
                successors[a][position[q]] = self._mask(targets)
        # Per symbol, per state position: the mask of that state's successors.
        self._successors = {a: tuple(row) for a, row in successors.items()}
        self._start = self._mask([initial])
        self.finals = frozenset(finals)
        raise_first(undeclared("final state", self.finals, position))
        self._accepting = self._mask(self.finals)

    def _with_finals(self, finals: Iterable[str]) -> Nfa:
        """This machine with other (declared) final states, sharing its tables."""
        nfa = object.__new__(Nfa)
        nfa.__dict__.update(self.__dict__, finals=frozenset(finals), _accepting=self._mask(finals))
        return nfa

    def _mask(self, states: Iterable[str]) -> int:
        """The subset mask of some declared states."""
        mask = 0
        for q in states:
            mask |= 1 << self._position[q]
        return mask

    def _members(self, subset: int) -> list[str]:
        """The states of a subset mask, in declaration order."""
        return [q for i, q in enumerate(self.states) if subset >> i & 1]

    def extended(self, q: str, w: Sequence[str]) -> frozenset[str]:
        """All states reachable from ``q`` along ``w``; may be empty."""
        start = self._mask([known("state", q, self._position)])
        return frozenset(self._members(self._run(start, w)))

    def _step(self, subset: int, a: str) -> int:
        """The subset mask reached from ``subset`` by reading ``a``."""
        successors = self._successors[a]
        out = 0
        while subset:
            low = subset & -subset
            out |= successors[low.bit_length() - 1]
            subset ^= low
        return out

    def _value(self, subset: int) -> bool:
        """Whether the subset mask holds a final state."""
        return bool(subset & self._accepting)

    def _name(self, i: int, subset: int) -> str:
        return subset_name(self._members(subset))

    accepts = _Machine.eval

    def to_dfa(self) -> Dfa:
        """Reachable-only subset construction.

        Subsets are discovered breadth-first in alphabet order and named
        canonically, so the result is reproducible.  The empty subset, when
        reachable, becomes an explicit non-final sink.  More than
        DEFAULT_MAX_VECTORS subsets raise ClosureBudgetExceeded.
        """
        view = self._view()
        names, delta = view.named()
        accepting = [name for name, final in zip(names, view.values) if final]
        return Dfa(names, self.alphabet, delta, names[0], accepting)
