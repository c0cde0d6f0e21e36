"""Seeded input generation for the three workloads.

Everything is drawn from one ``random.Random(seed)`` per workload, so the same
seed gives the same machines, words and documents.  The parameters of each
workload are module constants; ``baseline.json`` records them next to the
numbers they produced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import Crisp, Weighted, common_scale, farey

EVAL_WORDS = {
    "states": 5,
    "symbols": 2,
    "density": 0.5,
    "farey": 10,
    "max_cardinality": 3,
    "max_word_length": 12,
    "machines": 512,
    "words_per_machine": 6,
}

# Machines whose vector automaton is large fall off a cliff: with these
# parameters about one draw in eight has more than 64 reachable vectors and
# takes 3-30 s for the five queries, and ROADMAP's 4-state Farey(10) machine
# (333 vectors) never finishes crispify_nthfa.  The workload keeps draws with
# at most 32 vectors, one from each of four bands of about equally likely
# vector counts in every group of four machines, so that the heavy end is
# present in a fixed share.
DECIDE_WEIGHTED = {
    "states": [3, 4],
    "symbols": 2,
    "density": 0.6,
    "farey": 4,
    "max_cardinality": 3,
    "vector_bands": [[26, 32], [1, 12], [20, 25], [13, 19]],
    "machines": 128,
}

CLI_CRISP = {
    "states": 16,
    "symbols": 3,
    "targets_per_transition": [2, 2],
    "farey": 10,
    "max_cardinality": 3,
    "max_word_length": 10,
    "sample_words": 6,
    "document_sets": 48,
}

ALPHABET = ["a", "b", "c"]


def _pool(n: int) -> tuple[int, list[int]]:
    degrees = farey(n)
    scale = common_scale(degrees)
    return scale, [int(d * scale) for d in degrees]


def _thfe(rng: random.Random, pool: list[int], max_cardinality: int) -> frozenset:
    return frozenset(rng.sample(pool, rng.randint(1, max_cardinality)))


def _word(rng: random.Random, alphabet: list[str], max_length: int) -> tuple[str, ...]:
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_length)))


def _weighted(rng, scale, pool, n_states, alphabet, density, max_cardinality) -> Weighted:
    states = [f"q{i}" for i in range(n_states)]
    weights = {}
    for q in states:
        for a in alphabet:
            for p in states:
                if rng.random() < density:
                    weights[(q, a, p)] = _thfe(rng, pool, max_cardinality)
    finals = {q: _thfe(rng, pool, max_cardinality) for q in states}
    return Weighted(scale, states, alphabet, weights, finals)


def eval_words(seed: int, machines: int) -> list[tuple[Weighted, list[tuple[str, ...]]]]:
    """Machines with their words; operation k reads word k // machines of
    machine k % machines, and its length is k % (max_word_length + 1), so
    every stretch of operations has the same mix of lengths."""
    p = EVAL_WORDS
    rng = random.Random(seed)
    scale, pool = _pool(p["farey"])
    alphabet = ALPHABET[: p["symbols"]]
    lengths = p["max_word_length"] + 1
    out = []
    for i in range(machines):
        m = _weighted(rng, scale, pool, p["states"], alphabet, p["density"], p["max_cardinality"])
        words = [
            tuple(rng.choice(alphabet) for _ in range((j * machines + i) % lengths))
            for j in range(p["words_per_machine"])
        ]
        out.append((m, words))
    return out


@dataclass
class DecideInput:
    machine: Weighted
    perturbed: Weighted
    vectors: list[tuple]


def decide_weighted(seed: int, machines: int) -> list[DecideInput]:
    p = DECIDE_WEIGHTED
    rng = random.Random(seed)
    scale, pool = _pool(p["farey"])
    alphabet = ALPHABET[: p["symbols"]]
    bands = p["vector_bands"]
    cap = max(hi for _, hi in bands)
    waiting: list[list] = [[] for _ in bands]
    out = []
    while len(out) < machines:
        band = len(out) % len(bands)
        while not waiting[band]:
            m = _weighted(
                rng, scale, pool, rng.choice(p["states"]), alphabet,
                p["density"], p["max_cardinality"],
            )
            vectors = m.saturate(cap)
            if vectors is None:
                continue
            for b, (lo, hi) in enumerate(bands):
                if lo <= len(vectors) <= hi:
                    waiting[b].append((m, vectors))
        m, vectors = waiting[band].pop(0)
        # Only a final value changes, so the vector automaton stays the same
        # size and the verdict may go either way.
        finals = dict(m.finals)
        finals[rng.choice(m.states)] = _thfe(rng, pool, p["max_cardinality"])
        perturbed = Weighted(scale, m.states, m.alphabet, m.weights, finals)
        out.append(DecideInput(m, perturbed, vectors))
    return out


@dataclass
class CliSet:
    machine: Crisp
    left: Crisp
    right: Crisp
    renamed: Crisp
    perturbed: Crisp
    word: tuple[str, ...]
    samples: list[tuple[str, ...]]


def _derive_deterministic(rng, m: Crisp) -> Crisp:
    delta = {key: frozenset({rng.choice(sorted(targets))}) for key, targets in m.delta.items()}
    return Crisp(m.scale, m.states, m.alphabet, delta, m.finals)


def _renamed(rng, m: Crisp) -> Crisp:
    """Same machine under new state names and a new order; the initial state
    stays first."""
    rest = list(m.states[1:])
    rng.shuffle(rest)
    names = {m.states[0]: "s0"}
    names.update({q: f"s{i + 1}" for i, q in enumerate(rest)})
    states = ["s0"] + [names[q] for q in rest]
    delta = {(names[q], a): frozenset(names[p] for p in ts) for (q, a), ts in m.delta.items()}
    finals = {names[q]: v for q, v in m.finals.items()}
    return Crisp(m.scale, states, m.alphabet, delta, finals)


def _perturbed(rng, m: Crisp, max_length: int) -> Crisp:
    """Copy that differs from ``m`` on a known word: a state the word reaches
    gets final value {1}, which makes the word's value {1}."""
    one = frozenset({m.scale})
    while True:
        w = _word(rng, m.alphabet, max_length)
        if m.value(w) != one:
            break
    finals = dict(m.finals)
    finals[rng.choice(sorted(m.reached(w)))] = one
    return Crisp(m.scale, m.states, m.alphabet, m.delta, finals)


def cli_crisp(seed: int, sets: int) -> list[CliSet]:
    p = CLI_CRISP
    rng = random.Random(seed)
    scale, pool = _pool(p["farey"])
    alphabet = ALPHABET[: p["symbols"]]
    lo, hi = p["targets_per_transition"]
    out = []
    for _ in range(sets):
        states = [f"q{i}" for i in range(p["states"])]
        delta = {
            (q, a): frozenset(rng.sample(states, rng.randint(lo, hi)))
            for q in states
            for a in alphabet
        }
        finals = {q: _thfe(rng, pool, p["max_cardinality"]) for q in states}
        m = Crisp(scale, states, alphabet, delta, finals)
        out.append(
            CliSet(
                machine=m,
                left=_derive_deterministic(rng, m),
                right=_derive_deterministic(rng, m),
                renamed=_renamed(rng, m),
                perturbed=_perturbed(rng, m, p["max_word_length"]),
                word=_word(rng, alphabet, p["max_word_length"]),
                samples=[_word(rng, alphabet, 8) for _ in range(p["sample_words"])],
            )
        )
    return out
