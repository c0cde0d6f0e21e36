"""Closure constructions on hesitant automata: union, range computation,
level decomposition and recomposition, crisp embedding, crispification,
determinization, intersection, and an exact equivalence decider.

General machines rest on one backbone: the set of value vectors an Nthfa
can reach is finite, and the step from one vector to the next is
deterministic per symbol.  Saturating that step yields the vector
automaton, a crisp, deterministic and total machine whose states are the
reachable vectors and whose final values are their machine values, so it
computes exactly the input's language.  Range computation, level cuts,
crispification of general machines and the equivalence decider all read
from it.  It is the forward weighted determinization of Mohri ("Weighted
automata algorithms", 2009), which is valid here only left to right,
because distributivity and inf-monotonicity fail on multi-valued elements.

decompose and recompose remain as the paper's construction of a machine
from its level cuts; crispification and equivalence do not pass through
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .classic import Nfa, _explore, _Exploration, _pair_name
from .errors import AlphabetMismatch, ClosureBudgetExceeded
from .hesitant import Cdthfa, Cnthfa, Nthfa
from .hfe import ONE, ZERO, Thfe, inf_combination, leq, sup_combination, sup_combination_n

__all__ = [
    "DEFAULT_MAX_VECTORS",
    "EquivalenceVerdict",
    "LevelDecomposition",
    "union_nthfa",
    "reachable_vectors",
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

DEFAULT_MAX_VECTORS = 100_000


@dataclass(frozen=True)
class EquivalenceVerdict:
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
        seen: set[Thfe] = set()
        for key, nfa in self.levels:
            if key in seen:
                raise ValueError(f"duplicate level key {key}")
            seen.add(key)
            if set(nfa.alphabet) != set(self.alphabet):
                raise AlphabetMismatch(
                    f"level {key} uses alphabet {sorted(nfa.alphabet)}, "
                    f"expected {sorted(self.alphabet)}"
                )


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
    states += [f"L.{q}" for q in m1.states]
    states += [f"R.{q}" for q in m2.states]
    psi: dict[tuple[str, str, str], Thfe] = {}
    for (q, a, p), value in m1.psi.items():
        psi[(f"L.{q}", a, f"L.{p}")] = value
        if q == m1.initial:
            psi[(fresh, a, f"L.{p}")] = value
    for (q, a, p), value in m2.psi.items():
        psi[(f"R.{q}", a, f"R.{p}")] = value
        if q == m2.initial:
            psi[(fresh, a, f"R.{p}")] = value
    final: dict[str, Thfe] = {
        fresh: sup_combination(m1.final_map[m1.initial], m2.final_map[m2.initial])
    }
    for q, value in m1.final_map.items():
        final[f"L.{q}"] = value
    for q, value in m2.final_map.items():
        final[f"R.{q}"] = value
    return Nthfa(states, m1.alphabet, psi, fresh, final)


def _saturate(m: Nthfa, max_vectors: int | None) -> _Exploration:
    """Breadth-first saturation of the reachable value vectors, each a tuple
    in state order; index 0 is the empty-word vector."""
    budget = DEFAULT_MAX_VECTORS if max_vectors is None else max_vectors
    try:
        return _explore(m._start, m._step, m.alphabet, budget)
    except ClosureBudgetExceeded:
        raise ClosureBudgetExceeded(f"more than {budget} reachable value vectors") from None


def _vector_automaton(m: Nthfa, max_vectors: int | None) -> Cdthfa:
    """The vector automaton of ``m``: states v0, v1, ... are the reachable
    value vectors in discovery order, and each final value is the machine
    value of its vector, so every word evaluates exactly as under ``m``."""
    found = _saturate(m, max_vectors)
    names = [f"v{i}" for i in range(len(found.order))]
    final = {name: m._value(vector) for name, vector in zip(names, found.order)}
    return Cdthfa(names, m.alphabet, found.named_delta(names), names[0], final)


def reachable_vectors(
    m: Nthfa, max_vectors: int | None = None
) -> list[dict[str, Thfe]]:
    """All value vectors the machine can reach, in discovery order."""
    return [dict(zip(m.states, vec)) for vec in _saturate(m, max_vectors).order]


def compute_range(m: Nthfa, max_vectors: int | None = None) -> frozenset[Thfe]:
    """The exact set of values the language attains over all words."""
    return frozenset(_vector_automaton(m, max_vectors).final_map.values())


def _level_nfa(d: Cdthfa, key: Thfe) -> Nfa:
    return d.as_cnthfa().as_nfa(q for q in d.states if leq(key, d.final_map[q]))


def level_automaton(m: Nthfa, k: Thfe, max_vectors: int | None = None) -> Nfa:
    """NFA accepting exactly the words whose value dominates ``k``.

    Built on the vector automaton: states are the reachable value vectors,
    and a vector is final when its machine value dominates ``k``.  Cutting
    individual transition weights at ``k`` instead would not recognize this
    language: a word's value is a join over many paths, and the order is not
    compatible with inf-combination on multi-valued elements, so the value
    may dominate ``k`` although no single path does.  Tracking exact vectors
    sidesteps that entirely.
    """
    return _level_nfa(_vector_automaton(m, max_vectors), k)


def decompose(m: Nthfa, max_vectors: int | None = None) -> LevelDecomposition:
    """One level automaton per range value, keys sorted ascending."""
    d = _vector_automaton(m, max_vectors)
    keys = sorted(set(d.final_map.values()), key=lambda t: t.degrees)
    return LevelDecomposition(m.alphabet, ((k, _level_nfa(d, k)) for k in keys))


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
    combined = machines[0]
    for machine in machines[1:]:
        combined = union_nthfa(combined, machine)
    return combined


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
    for q in m.states:
        for a in m.alphabet:
            targets = {p for p in m.states if m.psi.get((q, a, p)) == ONE}
            # Any remaining target carries weight {0}: that case routes to the sink.
            if len(targets) < len(m.states):
                targets.add(sink)
            delta[(q, a)] = targets
    for a in m.alphabet:
        delta[(sink, a)] = {sink}
    final = dict(m.final_map)
    final[sink] = ZERO
    return Cnthfa(states, m.alphabet, delta, m.initial, final)


def crispify_nthfa(m: Nthfa, max_vectors: int | None = None) -> Cnthfa:
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
    crisp = _vector_automaton(m, max_vectors).as_cnthfa()
    crisp.metadata = {"normalized": True}
    return crisp


def determinize_cnthfa(n: Cnthfa) -> Cdthfa:
    """Subset construction lifted to THFE-valued finals.

    Only subsets reachable from {initial} are materialized; a subset's final
    value is the join of its members' final values, and the empty subset
    (reachable when the crisp transition map is partial) gets {0}.
    """
    subsets, names, delta = n.as_nfa()._subsets()
    final = {
        name: sup_combination_n(n.final_map[q] for q in n.states if q in s)
        for name, s in zip(names, subsets)
    }
    return Cdthfa(names, n.alphabet, delta, names[0], final)


def _pair_step(d1: Cdthfa, d2: Cdthfa) -> Callable[[tuple[str, str], str], tuple[str, str]]:
    """Synchronized step of two Cdthfa on pairs of their states."""
    return lambda pair, a: (d1.delta[(pair[0], a)], d2.delta[(pair[1], a)])


def intersect_cdthfa(d1: Cdthfa, d2: Cdthfa) -> Cdthfa:
    """Product automaton computing the pointwise inf-combination of the two
    languages; only reachable state pairs are materialized."""
    _require_same_alphabet(d1, d2)
    found = _explore((d1.initial, d2.initial), _pair_step(d1, d2), d1.alphabet)
    names = [_pair_name(pair) for pair in found.order]
    final = {
        name: inf_combination(d1.final_map[q], d2.final_map[p])
        for name, (q, p) in zip(names, found.order)
    }
    return Cdthfa(names, d1.alphabet, found.named_delta(names), names[0], final)


def _to_cdthfa(a, max_vectors: int | None) -> Cdthfa:
    if isinstance(a, Cdthfa):
        return a
    if isinstance(a, Cnthfa):
        return determinize_cnthfa(a)
    if isinstance(a, Nthfa):
        return _vector_automaton(a, max_vectors)
    raise TypeError(f"not a hesitant automaton: {type(a).__name__}")


def equivalent(a, b, max_vectors: int | None = None) -> EquivalenceVerdict:
    """Decide whether two hesitant automata compute the same language.

    Both inputs are brought to crisp-deterministic form: an Nthfa becomes
    its vector automaton, a Cnthfa its subset construction.  Then the
    reachable pairs of the synchronized product are explored breadth-first
    in alphabet order.  The languages are equal iff every reachable pair
    carries equal final values; the first violating pair found yields the
    counterexample, which is therefore the earliest distinguishing word in
    length-then-alphabet enumeration order.
    """
    _require_same_alphabet(a, b)
    d1 = _to_cdthfa(a, max_vectors)
    d2 = _to_cdthfa(b, max_vectors)
    found = _explore(
        (d1.initial, d2.initial), _pair_step(d1, d2), a.alphabet,
        stop=lambda pair: d1.final_map[pair[0]] != d2.final_map[pair[1]],
    )
    if found.stopped is None:
        return EquivalenceVerdict(equivalent=True, counterexample=None)
    word: list[str] = []
    i = found.stopped
    while found.parents[i] is not None:
        i, symbol = found.parents[i]
        word.append(symbol)
    return EquivalenceVerdict(equivalent=False, counterexample=tuple(reversed(word)))
