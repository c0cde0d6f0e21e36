"""Closure constructions on hesitant automata: union, range computation,
level decomposition and recomposition, crisp embedding, crispification,
determinization, intersection, and an exact equivalence decider.

Every hesitant automaton builds its deterministic view (its _view method),
a crisp, deterministic and total machine computing its language that is
built only as far as it is read: an Nthfa's view steps between its finitely
many reachable value vectors, a Cnthfa's between reachable subsets, and a
Cdthfa is its own view.  The Nthfa's view is the forward weighted
determinization of Mohri ("Weighted automata algorithms", 2009), valid here
only left to right, because distributivity and inf-monotonicity fail on
multi-valued elements.  Explored in full, a view is the vector automaton or
the subset construction, which range computation, level cuts and
crispification read.  Intersection and equivalence explore the product of
two views, so a vector or subset is computed only once the product reaches
it, and equivalence stops at the first pair whose values differ.  Every
exploration, the subset construction of a classical Nfa included, runs in
classic._View.explore under the one budget classic.DEFAULT_MAX_VECTORS.

decompose and recompose remain as the paper's construction of a machine
from its level cuts; crispification and equivalence do not pass through
them.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .classic import Nfa, _pair_name, _View, raise_first
from .errors import AlphabetMismatch, HfaError, InvalidAutomaton
from .hesitant import Cdthfa, Cnthfa, Nthfa
from .hfe import ONE, ZERO, Thfe, inf_combination, leq, sup_combination, sup_combination_n

__all__ = [
    "EquivalenceVerdict",
    "LevelDecomposition",
    "union_nthfa",
    "compute_range",
    "level_automaton",
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


class LevelDecomposition:
    """A language represented as level cuts: finitely many (key, NFA) pairs
    where each NFA accepts the words whose value dominates its key.  The
    represented value of a word is the join of all applicable keys, {0} when
    none applies."""

    def __init__(self, alphabet: Sequence[str], levels: Iterable[tuple[Thfe, Nfa]]):
        self.alphabet = tuple(alphabet)
        self.levels = tuple(levels)
        raise_first(level_errors(self.alphabet, enumerate(self.levels)))


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


def union_nthfa(m1: Nthfa, m2: Nthfa) -> Nthfa:
    """Automaton computing the pointwise join of the two input languages.

    Both input machines are copied side by side under "L."/"R." prefixes
    (which guarantees disjoint state names), and a fresh initial state is
    added that mirrors every transition leaving either original initial
    state.  Its final value is the join of the two initial final values, so
    the empty word also evaluates to the join.
    """
    _require_same_alphabet(m1, m2)
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


def _views(a, b) -> tuple[_View, _View]:
    """The views of two operands; one view serves both when they are the
    same object, so its states are computed once."""
    va = a._view()
    return va, (va if b is a else b._view())


def _product(v1: _View, v2: _View, combine: Callable) -> _View:
    """The synchronized product of two views on pairs of their state
    numbers; a pair's value combines the values of its two states."""
    return _View(
        v1.alphabet, (0, 0),
        lambda pair, a: (v1.step(pair[0], a), v2.step(pair[1], a)),
        lambda pair: combine(v1.values[pair[0]], v2.values[pair[1]]),
        lambda i, pair: _pair_name((v1.name(pair[0]), v2.name(pair[1]))),
    )


def _materialize(view: _View) -> Cdthfa:
    """All reachable states of a view as a Cdthfa.  For an Nthfa that is its
    vector automaton: each final value is the machine value of its vector,
    so every word evaluates exactly as under the Nthfa."""
    view.explore()
    names = [view.name(i) for i in range(len(view.states))]
    final = dict(zip(names, view.values))
    return Cdthfa(names, view.alphabet, view.named_delta(names), names[0], final)


def compute_range(m: Nthfa) -> frozenset[Thfe]:
    """The exact set of values the language attains over all words: the
    values of the machine's reachable vectors."""
    view = m._view()
    view.explore()
    return frozenset(view.values)


def _level_nfas(d: Cdthfa, keys: Iterable[Thfe]) -> Iterator[tuple[Thfe, Nfa]]:
    """Per key, the Nfa on the transitions of ``d`` whose final states are
    those with a value that dominates the key; each distinct value is
    compared with each key once."""
    delta = {key: (p,) for key, p in d.delta.items()}
    states_of: dict[Thfe, list[str]] = {}
    for q, v in d.final_map.items():
        states_of.setdefault(v, []).append(q)
    for k in keys:
        finals = [q for v, qs in states_of.items() if leq(k, v) for q in qs]
        yield k, Nfa(d.states, d.alphabet, delta, d.initial, finals)


def level_automaton(m: Nthfa, k: Thfe) -> Nfa:
    """NFA accepting exactly the words whose value dominates ``k``.

    Built on the vector automaton: states are the reachable value vectors,
    and a vector is final when its machine value dominates ``k``.  Cutting
    individual transition weights at ``k`` instead would not recognize this
    language: a word's value is a join over many paths, and the order is not
    compatible with inf-combination on multi-valued elements, so the value
    may dominate ``k`` although no single path does.  Tracking exact vectors
    sidesteps that entirely.
    """
    return next(_level_nfas(_materialize(m._view()), [k]))[1]


def decompose(m: Nthfa) -> LevelDecomposition:
    """One level automaton per range value, keys sorted ascending."""
    d = _materialize(m._view())
    keys = sorted(set(d.final_map.values()), key=lambda t: t.degrees)
    return LevelDecomposition(m.alphabet, _level_nfas(d, keys))


def eval_decomposition(l: LevelDecomposition, w: Sequence[str]) -> Thfe:
    """Join of all level keys whose NFA accepts ``w``; {0} when none does."""
    return sup_combination_n(k for k, nfa in l.levels if nfa.accepts(w))


def recompose(l: LevelDecomposition) -> Nthfa:
    """Collapse a level decomposition back into a single Nthfa.

    Each level NFA is determinized, turned into a weight-{0}/{1} machine
    whose accepting states carry the level key as final value, and the
    per-level machines are folded together with union_nthfa.  The resulting
    language equals eval_decomposition(l, .) pointwise.
    """
    machines: list[Nthfa] = []
    for key, nfa in l.levels:
        dfa = nfa.to_dfa()
        psi = {(q, a, p): ONE for (q, a), p in dfa.delta.items()}
        final = {q: (key if q in dfa.finals else ZERO) for q in dfa.states}
        machines.append(Nthfa(dfa.states, dfa.alphabet, psi, dfa.initial, final))
    if not machines:
        return Nthfa(["q0"], l.alphabet, {}, "q0", {"q0": ZERO})
    return functools.reduce(union_nthfa, machines)


def embed_cnthfa(n: Cnthfa) -> Nthfa:
    """The Nthfa with weight {1} on every crisp transition and {0} elsewhere;
    it computes the same language as ``n``."""
    psi = {
        (q, a, p): ONE for (q, a), targets in n.delta.items() for p in targets
    }
    return Nthfa(n.states, n.alphabet, psi, n.initial, n.final_map)


def _crispify_zero_one(m: Nthfa) -> Cnthfa:
    sink = "q_aleph"
    while sink in m.states:
        sink += "_"
    states = list(m.states) + [sink]
    delta: dict[tuple[str, str], set[str]] = {}
    for q in states:
        for a in m.alphabet:
            targets = {p for p in m.states if m.psi.get((q, a, p)) == ONE}
            # Weight-{0} targets route to the sink; its own rows are empty, so it loops.
            if len(targets) < len(m.states):
                targets.add(sink)
            delta[(q, a)] = targets
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


def determinize_cnthfa(n: Cnthfa) -> Cdthfa:
    """Subset construction lifted to THFE-valued finals.

    Only subsets reachable from {initial} are materialized; a subset's final
    value is the join of its members' final values, and the empty subset
    (reachable when the crisp transition map is partial) gets {0}.
    """
    return _materialize(n._view())


def intersect_cdthfa(a, b) -> Cdthfa:
    """Product automaton computing the pointwise inf-combination of two
    hesitant languages of any kind.  Only the reachable pairs of states of
    the operands' deterministic views are built; a pair "(q,p)" names a
    Cdthfa state, a Cnthfa subset or an Nthfa vector v0, v1, ..., numbered
    in the order the left operand's alphabet explores them."""
    _require_same_alphabet(a, b)
    return _materialize(_product(*_views(a, b), inf_combination))


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
    _require_same_alphabet(a, b)
    pairs = _product(*_views(a, b), lambda x, y: x != y)
    i = pairs.explore(stop=pairs.values.__getitem__)
    if i is None:
        return EquivalenceVerdict(equivalent=True, counterexample=None)
    word: list[str] = []
    while pairs.parents[i] is not None:
        i, symbol = pairs.parents[i]
        word.append(symbol)
    return EquivalenceVerdict(equivalent=False, counterexample=tuple(reversed(word)))
