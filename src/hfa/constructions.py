"""Closure constructions on hesitant automata: union, range computation,
level decomposition and recomposition, crisp embedding, crispification,
determinization, intersection, and an exact equivalence decider.

Every automaton kind is the deterministic machine it runs
(classic._Machine), and its view (its _view method) is that machine built
only as far as it is read: an Nthfa's view steps between its finitely many
reachable value vectors, a Cnthfa's and an Nfa's between reachable subsets,
a LevelDecomposition's between tuples of its levels' subsets, and a Cdthfa
is its own view.  The Nthfa's view is the forward weighted determinization
of Mohri ("Weighted automata algorithms", 2009), valid here only left to
right, because distributivity and inf-monotonicity fail on multi-valued
elements.  Explored in full, a view is the vector automaton or the subset
construction, which range computation, level cuts, recomposition and
crispification read from whatever kind they are given.  Intersection and
equivalence explore the product of two views, so a vector or subset is
computed only once the product reaches it, and equivalence stops at the
first pair whose values differ.  Every exploration, the subset construction
of a classical Nfa included, runs in classic._View.explore under the one
budget classic.DEFAULT_MAX_VECTORS.

Materialized, a view names its states as its kind does (classic._Machine):
a Dfa or Cdthfa state keeps its name, a subset is "{q,p}", and a value
vector or a tuple of level subsets is v0, v1, ... in search order.
decompose alone numbers every kind's states.  embed_cnthfa reads any
hesitant kind as an Nthfa, so union_nthfa and oracle-check take every kind.

recompose is the paper's construction of a machine from its level cuts: the
decomposition's own view, which runs the cuts side by side.  Crispification
and equivalence pass through neither it nor decompose.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .classic import Nfa, _Machine, _numbered, _product_name, _View, raise_first
from .errors import AlphabetMismatch, HfaError, InvalidAutomaton
from .hesitant import Cdthfa, Cnthfa, Nthfa
from .hfe import ONE, ZERO, Thfe, inf_combination, leq, sup_combination, sup_combination_n

__all__ = [
    "EquivalenceVerdict",
    "LevelDecomposition",
    "union_nthfa",
    "compute_range",
    "decompose",
    "eval_decomposition",
    "recompose",
    "embed_cnthfa",
    "crispify_nthfa",
    "determinize_cnthfa",
    "intersect_cdthfa",
    "equivalent",
]


class EquivalenceVerdict(NamedTuple):
    """Outcome of a language comparison; the counterexample, present exactly
    when not equivalent, evaluates to different THFEs under the two inputs."""

    equivalent: bool
    counterexample: tuple[str, ...] | None


class LevelDecomposition(_Machine):
    """A language represented as level cuts: finitely many (key, NFA) pairs
    where each NFA accepts the words whose value dominates its key.  The
    represented value of a word is the join of all applicable keys, {0} when
    none applies.  Its machine runs the levels side by side: a state is the
    tuple of their subset masks, one slot per transition table, so levels
    that share one (decompose's, through Nfa._with_finals) step once."""

    def __init__(self, alphabet: Sequence[str], levels: Iterable[tuple[Thfe, Nfa]]):
        self.alphabet = tuple(alphabet)
        self.levels = tuple(levels)
        raise_first(level_errors(self.alphabet, enumerate(self.levels)))
        slots: dict[int, int] = {}  # a transition table's identity -> its slot
        self._slots = [slots.setdefault(id(nfa._successors), len(slots)) for _, nfa in self.levels]
        self._tables = tuple({i: nfa for (_, nfa), i in zip(self.levels, self._slots)}.values())
        self._start = tuple(nfa._start for nfa in self._tables)

    def _step(self, masks: tuple[int, ...], a: str) -> tuple[int, ...]:
        return tuple([nfa._step(s, a) for nfa, s in zip(self._tables, masks)])

    def _value(self, masks: tuple[int, ...]) -> Thfe:
        """The join of the keys whose subset accepts, {0} when none does."""
        return sup_combination_n([k for (k, nfa), i in zip(self.levels, self._slots)
                                  if nfa._value(masks[i])])


def level_errors(
    alphabet: Sequence[str], levels: Iterable[tuple[int, tuple[Thfe, Nfa]]]
) -> Iterator[HfaError]:
    """Every break of the level rules, each named by its level's number:
    the keys are distinct, and each level NFA reads ``alphabet``."""
    seen: set[Thfe] = set()
    for i, (key, nfa) in levels:
        if key in seen:
            yield InvalidAutomaton(f"level {i}: duplicate level key {key}")
        elif set(nfa.alphabet) != set(alphabet):
            yield AlphabetMismatch(
                f"level {i}: level alphabet {sorted(nfa.alphabet)} differs from "
                f"decomposition alphabet {sorted(alphabet)}"
            )
        seen.add(key)


def _require_same_alphabet(a, b) -> None:
    if set(a.alphabet) != set(b.alphabet):
        raise AlphabetMismatch(
            f"alphabets differ: {sorted(a.alphabet)} vs {sorted(b.alphabet)}"
        )


def union_nthfa(m1: Nthfa | Cnthfa | Cdthfa, m2: Nthfa | Cnthfa | Cdthfa) -> Nthfa:
    """Automaton computing the pointwise join of the two input languages.

    Crisp operands are embedded (embed_cnthfa), then both are copied side by
    side under "L."/"R." prefixes (which guarantees disjoint state names),
    and a fresh initial state mirrors every transition leaving either
    initial state.  Its final value is the join of the two initial final
    values, so the empty word also evaluates to the join.
    """
    _require_same_alphabet(m1, m2)
    m1, m2 = embed_cnthfa(m1), embed_cnthfa(m2)
    fresh = "q0"
    states = [fresh]
    psi: dict[tuple[str, str, str], Thfe] = {}
    final = {fresh: sup_combination(m1.final_map[m1.initial], m2.final_map[m2.initial])}
    for prefix, m in (("L.", m1), ("R.", m2)):
        states += [prefix + q for q in m.states]
        for (q, a, p), value in m.psi.items():
            psi[(prefix + q, a, prefix + p)] = value
            if q == m.initial:
                psi[(fresh, a, prefix + p)] = value
        final.update((prefix + q, value) for q, value in m.final_map.items())
    return Nthfa(states, m1.alphabet, psi, fresh, final)


def _product(a, b, combine: Callable) -> _View:
    """The synchronized product of the views of two operands over the same
    alphabet, explored in the order of ``a``'s, on pairs of their state
    numbers.  A pair's value is ``combine`` of the values of its states, and
    its name is "(q,p)" after theirs.  One view serves both operands when
    they are the same object, so its states are computed once."""
    _require_same_alphabet(a, b)
    va = a._view()
    vb = va if b is a else b._view()
    return _View(
        a.alphabet, (0, 0),
        lambda t, s: (va.step(t[0], s), vb.step(t[1], s)),
        lambda t: combine(va.values[t[0]], vb.values[t[1]]),
        lambda i, t: _product_name(va.name(t[0]), vb.name(t[1])),
    )


def _materialize(view: _View) -> Cdthfa:
    """All reachable states of a view as a Cdthfa, under the view's names.
    For an Nthfa that is its vector automaton, so every word evaluates
    exactly as under the Nthfa."""
    names, delta = view.named()
    return Cdthfa(names, view.alphabet, delta, names[0], dict(zip(names, view.values)))


def compute_range(m: Nthfa | Cnthfa | Cdthfa | LevelDecomposition) -> frozenset[Thfe]:
    """The exact set of values the language attains over all words: the
    values of the states of the machine's view."""
    view = m._view()
    view.explore()
    return frozenset(view.values)


def _level_nfas(d: Cdthfa, keys: Iterable[Thfe]) -> Iterator[tuple[Thfe, Nfa]]:
    """Per key, the Nfa on the transitions of ``d`` whose final states are
    those with a value that dominates the key; the levels share one
    transition table, and each distinct value is compared with each key
    once."""
    nfa = Nfa(d.states, d.alphabet, {key: (p,) for key, p in d.delta.items()}, d.initial, ())
    states_of: dict[Thfe, list[str]] = {}
    for q, v in d.final_map.items():
        states_of.setdefault(v, []).append(q)
    for k in keys:
        finals = [q for v, qs in states_of.items() if leq(k, v) for q in qs]
        yield k, nfa._with_finals(finals)


def decompose(m: Nthfa | Cnthfa | Cdthfa | LevelDecomposition) -> LevelDecomposition:
    """One level automaton per range value, keys sorted ascending: the
    machine's view, states v0, v1, ... in search order, final where their
    value dominates the key (a word's value is the fold over its vectors; it
    may dominate the key although no path's weight does)."""
    d = _materialize(_View(m.alphabet, m._start, m._step, m._value, _numbered))
    keys = sorted(set(d.final_map.values()), key=lambda t: t.degrees)
    return LevelDecomposition(m.alphabet, _level_nfas(d, keys))


def eval_decomposition(l: LevelDecomposition, w: Sequence[str]) -> Thfe:
    """Join of all level keys whose NFA accepts ``w``; {0} when none does."""
    return l.eval(w)


def recompose(l: LevelDecomposition) -> Nthfa:
    """Collapse a level decomposition back into a single Nthfa.

    The decomposition's own view is explored: a state is a tuple of subsets,
    one per level table, and its value is the join of the keys whose subset
    accepts, {0} when none does, which is l.eval pointwise.  Its reachable
    states, named v0, v1, ... in the order the search meets them, form a
    Cdthfa, embedded as an Nthfa with weight {1} on each transition.  No
    levels give one state valued {0}.
    """
    return embed_cnthfa(_materialize(l._view()))


def embed_cnthfa(n: Nthfa | Cnthfa | Cdthfa) -> Nthfa:
    """The Nthfa with weight {1} on every crisp transition of a Cnthfa or a
    Cdthfa and {0} elsewhere; it computes the same language as ``n``.  An
    Nthfa is returned as it is."""
    if isinstance(n, Nthfa):
        return n
    single = isinstance(n, Cdthfa)  # its one target p gives the triple (q, a, p)
    psi = {(q, a, p): ONE for (q, a), targets in n.delta.items()
           for p in ((targets,) if single else targets)}
    return Nthfa(n.states, n.alphabet, psi, n.initial, n.final_map)


def _crispify_zero_one(m: Nthfa) -> Cnthfa:
    sink = "q_aleph"
    while sink in m.states:
        sink += "_"
    states = list(m.states) + [sink]
    delta: dict[tuple[str, str], set[str]] = {(q, a): set() for q in states for a in m.alphabet}
    for q, a, p in m.psi:  # every stored weight is {1}
        delta[(q, a)].add(p)
    for targets in delta.values():
        # Weight-{0} targets route to the sink; its own rows are empty, so it loops.
        if len(targets) < len(m.states):
            targets.add(sink)
    return Cnthfa(states, m.alphabet, delta, m.initial, {**m.final_map, sink: ZERO})


def crispify_nthfa(m: Nthfa) -> Cnthfa:
    """Convert an Nthfa to a crisp-nondeterministic machine, preserving the
    language pointwise.

    Machines whose weights are already all {0} or {1} convert directly: the
    {1}-transitions become crisp edges and a fresh absorbing sink with final
    value {0} picks up every {0} case, adding exactly one state.  General
    machines become their vector automaton, which is crisp, deterministic
    and total (every target set is a singleton); the result's metadata
    records that this normalization happened.
    """
    if m.is_zero_one():
        return _crispify_zero_one(m)
    crisp = _materialize(m._view()).as_cnthfa()
    crisp.metadata = {"normalized": True}
    return crisp


def determinize_cnthfa(n: Cnthfa | Cdthfa) -> Cdthfa:
    """Subset construction lifted to THFE-valued finals.

    Only subsets reachable from {initial} are materialized; a subset's final
    value is the join of its members' final values, and the empty subset
    (reachable when the crisp transition map is partial) gets {0}.  A Cdthfa
    is read as its Cnthfa, so each state q becomes the subset {q}.
    """
    if isinstance(n, Cdthfa):
        n = n.as_cnthfa()
    return _materialize(n._view())


def intersect_cdthfa(a, b) -> Cdthfa:
    """Product automaton computing the pointwise inf-combination of two
    hesitant languages of any kind.  Only the reachable pairs of states of
    the operands' deterministic views are built; a pair "(q,p)" names a
    Cdthfa state, a Cnthfa subset or an Nthfa vector v0, v1, ..., numbered
    in the order the left operand's alphabet explores them."""
    return _materialize(_product(a, b, inf_combination))


def equivalent(a, b) -> EquivalenceVerdict:
    """Decide whether two hesitant automata compute the same language.

    The synchronized product of the two deterministic views (an Nthfa's
    value vectors, a Cnthfa's subsets, a Cdthfa itself) is explored
    breadth-first in alphabet order, and each view computes a state only
    when the search first reaches it.  The languages are equal iff every
    reachable pair carries equal values; the search stops at the first
    violating pair, whose access word is the counterexample and therefore
    the earliest distinguishing word in length-then-alphabet enumeration
    order.
    """
    pairs = _product(a, b, lambda x, y: x != y)
    i = pairs.explore(stop=pairs.values.__getitem__)
    if i is None:
        return EquivalenceVerdict(equivalent=True, counterexample=None)
    word: list[str] = []
    while pairs.parents[i] is not None:
        i, symbol = pairs.parents[i]
        word.append(symbol)
    return EquivalenceVerdict(equivalent=False, counterexample=tuple(reversed(word)))
