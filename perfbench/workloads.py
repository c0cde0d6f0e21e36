"""The three workloads: their operations, the checks on every output, the
traced replay of each operation, and the inputs of the layer probe.

An operation is addressed by its index; indices past the end of the
generated inputs wrap around.  ``run`` is the untraced operation, ``traced``
does the same work as a chain of public calls with a span around each, and
``check`` compares an output against an answer computed by ``reference``
(or known by construction), never by the code under test alone.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import hfa
import hfa.cli
from hfa import (
    Cdthfa,
    Cnthfa,
    Nthfa,
    Thfe,
    compute_range,
    crispify_nthfa,
    decompose,
    determinize_cnthfa,
    embed_cnthfa,
    equivalent,
    eval_decomposition,
    parse_document,
    recompose,
    union_nthfa,
)
from hfa.oracle import empirical_range, iter_words, languages_agree_up_to, reference_eval

import inputs
from reference import Crisp, Weighted, document, from_degrees, inf, parse_thfe_text, to_fractions

# Words up to this length are evaluated against hfa.oracle.reference_eval on
# the first ORACLE_MACHINES machines; the literal recursion costs about 60 ms
# per length-4 word on a 5-state machine, so it cannot cover every machine.
ORACLE_LENGTH = 4
ORACLE_MACHINES = 8
# Bound of the exhaustive word checks on decide-weighted outputs.
CHECK_LENGTH = 3


class Mismatch(Exception):
    """An output disagrees with the expected answer."""


class UnexpectedExit(Mismatch):
    """A CLI call ended with another exit code than expected."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def to_nthfa(m: Weighted) -> Nthfa:
    weights = {key: to_fractions(m.scale, w) for key, w in m.weights.items()}
    finals = {q: to_fractions(m.scale, v) for q, v in m.finals.items()}
    return Nthfa(m.states, m.alphabet, weights, m.states[0], finals)


def raw(m: Weighted | Crisp, x: Thfe) -> frozenset:
    return from_degrees(m.scale, x.degrees)


def zero_one_support(m: Nthfa) -> Nthfa:
    """The machine with weight {1} wherever ``m`` has a non-zero weight."""
    psi = {key: [1] for key in m.psi}
    return Nthfa(m.states, m.alphabet, psi, m.initial, m.final_map)


def cli_env() -> dict:
    """Environment in which ``python -m hfa`` imports the package under test."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hfa.__file__)))


def run_cli(argv: list[str], workdir: str, env: dict) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "-m", "hfa", *argv], cwd=workdir, env=env,
        capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout


def main_in_process(argv: list[str], workdir: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = hfa.cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def instrument_cli(tr) -> dict:
    """Put spans around the calls ``hfa.cli`` makes into the other layers;
    returns the replaced functions for ``restore_cli``."""
    saved = {}

    def parse(text):
        tr.count("documents.bytes_in", len(text.encode()))
        return tr.call("documents.parse_document", saved["parse_document"], text)

    def serialize(x):
        text = tr.call("documents.serialize_automaton", saved["serialize_automaton"], x)
        tr.count("documents.bytes_out", len(text.encode()))
        return text

    def determinize(n):
        d = tr.call("constructions.determinize_cnthfa", saved["determinize_cnthfa"], n)
        tr.count("constructions.determinize.subsets", len(d.states))
        return d

    def intersect(a, b):
        d = tr.call("constructions.intersect_cdthfa", saved["intersect_cdthfa"], a, b)
        tr.count("constructions.product.pairs", len(d.states))
        return d

    def staged_equivalent(a, b):
        # What equivalent does with Cnthfa inputs, as separate stages.
        if isinstance(a, Cnthfa) and isinstance(b, Cnthfa):
            a, b = determinize(a), determinize(b)
        return tr.call("constructions.equivalent", saved["equivalent"], a, b)

    replacements = {
        "parse_document": parse,
        "validate_text": tr.wrap("documents.validate_text", hfa.cli.validate_text),
        "serialize_automaton": serialize,
        "embed_cnthfa": tr.wrap("constructions.embed_cnthfa", hfa.cli.embed_cnthfa),
        "determinize_cnthfa": determinize,
        "intersect_cdthfa": intersect,
        "equivalent": staged_equivalent,
    }
    for name, fn in replacements.items():
        saved[name] = getattr(hfa.cli, name)
        setattr(hfa.cli, name, fn)
    return saved


def restore_cli(saved: dict) -> None:
    for name, fn in saved.items():
        setattr(hfa.cli, name, fn)


def count_chain(tr, levels, normalized: Nthfa) -> None:
    """Counters of one decompose / recompose stage pair."""
    tr.count("constructions.range_size", len(levels.levels))
    tr.count("constructions.recompose.states", len(normalized.states))
    tr.count("constructions.crispify.dense_lookups",
             len(normalized.states) ** 2 * len(normalized.alphabet))
    if levels.levels:
        vectors = len(levels.levels[0][1].states)
        tr.count("constructions.saturate.vectors", vectors)
        tr.count("constructions.recompose.blowup", len(normalized.states) / vectors)


def layer_probe(tr, machines: list[Nthfa], workdir: str) -> None:
    """One call of every layer's public functions on each probe machine, so
    that every per-layer row is measured on every workload.  The chain is
    the one ``equivalent`` runs on an Nthfa, plus the pieces it hides.  Runs
    with ``instrument_cli`` installed: the documents functions and the crisp
    constructions are called through ``hfa.cli`` to get their spans there."""
    env = cli_env()
    for j, m in enumerate(machines):
        tr.op = f"probe{j}"
        vector = tr.call("hesitant.initial_vector", m.initial_vector)
        for a in m.alphabet * 3:
            vector = tr.call("hesitant.advance", m.advance, vector, a)
        tr.call("hesitant.value_of", m.value_of, vector)
        text = hfa.cli.serialize_automaton(m)
        path = f"probe{j}.json"
        with open(os.path.join(workdir, path), "w", encoding="utf-8") as f:
            f.write(text)
        hfa.cli.parse_document(text)
        values = tr.call("constructions.compute_range", compute_range, m)
        levels = tr.call("constructions.decompose", decompose, m)
        for _, nfa in levels.levels:
            dfa = tr.call("classic.nfa_to_dfa", nfa.to_dfa)
            tr.count("classic.nfa_to_dfa.subsets", len(dfa.states))
        normalized = tr.call("constructions.recompose", recompose, levels)
        count_chain(tr, levels, normalized)
        crisp = tr.call("constructions.crispify_nthfa", crispify_nthfa, normalized)
        det = hfa.cli.determinize_cnthfa(crisp)
        meet = hfa.cli.intersect_cdthfa(det, det)
        # The meet of a language with itself is the language.
        expect(hfa.cli.equivalent(det, meet).equivalent, f"probe machine {j}")
        code, out = tr.call("cli.subprocess", run_cli, ["range", path], workdir, env)
        expect(code == 0 and out == "".join(f"{v}\n" for v in sorted(values, key=lambda t: t.degrees)),
               f"hfa range on probe machine {j}")
        expect(tr.call("cli.main", main_in_process, ["range", path], workdir) == (code, out),
               f"in-process hfa range on probe machine {j}")


class EvalWords:
    """``Nthfa.eval`` on random words; one operation is one word."""

    name = "eval-words"

    def __init__(self, seed: int, workdir: str, size: int | None):
        self.inputs = inputs.eval_words(seed, size or inputs.EVAL_WORDS["machines"])
        self.machines = [to_nthfa(m) for m, _ in self.inputs]
        self.harvested: set[Thfe] = set()
        self._oracle_checked: set[tuple[int, tuple]] = set()

    def _at(self, i: int) -> tuple[int, tuple[str, ...]]:
        k = i % (len(self.inputs) * inputs.EVAL_WORDS["words_per_machine"])
        machine = k % len(self.inputs)
        return machine, self.inputs[machine][1][k // len(self.inputs)]

    def run(self, i: int):
        machine, word = self._at(i)
        return self.machines[machine].eval(word)

    def traced(self, i: int, tr):
        machine, word = self._at(i)
        m = self.machines[machine]
        vector = tr.call("hesitant.initial_vector", m.initial_vector)
        for a in word:
            vector = tr.call("hesitant.advance", m.advance, vector, a)
            if len(self.harvested) < 4000:
                self.harvested.update(vector.values())
        return tr.call("hesitant.value_of", m.value_of, vector)

    def check(self, i: int, result) -> None:
        machine, word = self._at(i)
        ref = self.inputs[machine][0]
        expect(raw(ref, result) == ref.value(word), f"eval {word} on machine {machine}")
        key = (machine, word)
        if machine < ORACLE_MACHINES and len(word) <= ORACLE_LENGTH and key not in self._oracle_checked:
            self._oracle_checked.add(key)
            oracle = reference_eval(self.machines[machine], word, max_length=ORACLE_LENGTH)
            expect(result == oracle, f"eval {word} on machine {machine} against the oracle")

    def probe_machines(self) -> list[Nthfa]:
        return [zero_one_support(m) for m in self.machines[:2]]

    def operands(self) -> list[Thfe]:
        own = [x for m in self.machines[:8] for x in (*m.psi.values(), *m.final_map.values())]
        return own + sorted(self.harvested, key=lambda x: x.degrees)


class DecideWeighted:
    """Five decision queries per general Nthfa; one operation is one query."""

    name = "decide-weighted"
    QUERIES = ("range", "decompose", "crispify", "equiv_perturbed", "equiv_union")

    def __init__(self, seed: int, workdir: str, size: int | None):
        self.inputs = inputs.decide_weighted(seed, size or inputs.DECIDE_WEIGHTED["machines"])
        self.machines = [to_nthfa(x.machine) for x in self.inputs]
        self.perturbed = [to_nthfa(x.perturbed) for x in self.inputs]
        self.words = list(iter_words(inputs.ALPHABET[: inputs.DECIDE_WEIGHTED["symbols"]], CHECK_LENGTH))

    def _at(self, i: int) -> tuple[int, str]:
        k = i % (len(self.inputs) * len(self.QUERIES))
        return k // len(self.QUERIES), self.QUERIES[k % len(self.QUERIES)]

    def run(self, i: int):
        j, query = self._at(i)
        m = self.machines[j]
        if query == "range":
            return compute_range(m)
        if query == "decompose":
            return decompose(m)
        if query == "crispify":
            return crispify_nthfa(m)
        if query == "equiv_perturbed":
            return equivalent(m, self.perturbed[j])
        return equivalent(m, union_nthfa(m, m))

    def _to_cdthfa(self, tr, m: Nthfa) -> Cdthfa:
        """The stages ``equivalent`` runs on a general Nthfa, one span each."""
        crisp = self._crispify(tr, m)
        det = tr.call("constructions.determinize_cnthfa", determinize_cnthfa, crisp)
        tr.count("constructions.determinize.subsets", len(det.states))
        return det

    @staticmethod
    def _crispify(tr, m: Nthfa) -> Cnthfa:
        """The stages ``crispify_nthfa`` runs on a general Nthfa, one span each."""
        levels = tr.call("constructions.decompose", decompose, m)
        normalized = tr.call("constructions.recompose", recompose, levels)
        count_chain(tr, levels, normalized)
        return tr.call("constructions.crispify_nthfa", crispify_nthfa, normalized)

    def traced(self, i: int, tr):
        j, query = self._at(i)
        m = self.machines[j]
        if query == "range":
            return tr.call("constructions.compute_range", compute_range, m)
        if query == "decompose":
            return tr.call("constructions.decompose", decompose, m)
        if query == "crispify":
            return self._crispify(tr, m)
        other = (
            self.perturbed[j] if query == "equiv_perturbed"
            else tr.call("constructions.union_nthfa", union_nthfa, m, m)
        )
        return tr.call(
            "constructions.equivalent", equivalent,
            self._to_cdthfa(tr, m), self._to_cdthfa(tr, other),
        )

    def check(self, i: int, result) -> None:
        j, query = self._at(i)
        x, m = self.inputs[j], self.machines[j]
        ref = x.machine
        ref_range = {ref.value_of(v) for v in x.vectors}
        if query == "range":
            got = {raw(ref, t) for t in result}
            expect(got == ref_range, f"range of machine {j}")
            expect(empirical_range(m, CHECK_LENGTH) <= result, f"range of machine {j} misses a value")
        elif query == "decompose":
            keys = [raw(ref, k) for k, _ in result.levels]
            expect(set(keys) == ref_range and len(keys) == len(ref_range), f"levels of machine {j}")
            for w in self.words:
                expect(raw(ref, eval_decomposition(result, w)) == ref.value(w),
                       f"decomposition of machine {j} on {w}")
        elif query == "crispify":
            expect(isinstance(result, Cnthfa), f"crispify of machine {j} is not a cnthfa")
            for w in self.words:
                expect(raw(ref, result.eval(w)) == ref.value(w), f"crispify of machine {j} on {w}")
        elif query == "equiv_union":
            expect(result.equivalent, f"machine {j} is not equivalent to its union with itself")
        else:
            other = x.perturbed
            same = all(ref.value_of(v) == other.value_of(v) for v in x.vectors)
            expect(result.equivalent == same, f"verdict on machine {j} and its perturbed copy")
            if result.equivalent:
                expect(languages_agree_up_to(m, self.perturbed[j], CHECK_LENGTH).equivalent,
                       f"machine {j} and its perturbed copy disagree on a short word")
            else:
                w = result.counterexample
                expect(ref.value(w) != other.value(w), f"counterexample {w} for machine {j}")

    def probe_machines(self) -> list[Nthfa]:
        return self.machines[:2]

    def operands(self) -> list[Thfe]:
        return [x for m in self.machines for x in (*m.psi.values(), *m.final_map.values())]


class CliCrisp:
    """``python -m hfa <command>`` on generated crisp documents; one operation
    is one invocation."""

    name = "cli-crisp"
    COMMANDS = ("validate", "eval", "embed", "determinize", "intersect",
                "equiv_renamed", "equiv_perturbed")

    def __init__(self, seed: int, workdir: str, size: int | None):
        self.workdir = workdir
        self.sets = inputs.cli_crisp(seed, size or inputs.CLI_CRISP["document_sets"])
        for k, s in enumerate(self.sets):
            for prefix, kind, m in (("c", "cnthfa", s.machine), ("l", "cdthfa", s.left),
                                    ("r", "cdthfa", s.right), ("n", "cnthfa", s.renamed),
                                    ("x", "cnthfa", s.perturbed)):
                with open(os.path.join(workdir, f"{prefix}{k}.json"), "w", encoding="utf-8") as f:
                    f.write(document(kind, m))
        self.env = cli_env()

    def _at(self, i: int) -> tuple[int, str, list[str]]:
        k = i % (len(self.sets) * len(self.COMMANDS))
        j, command = k // len(self.COMMANDS), self.COMMANDS[k % len(self.COMMANDS)]
        c = f"c{j}.json"
        argv = {
            "validate": ["validate", c],
            "eval": ["eval", c, "".join(self.sets[j].word)],
            "embed": ["embed", c],
            "determinize": ["determinize", c],
            "intersect": ["intersect", f"l{j}.json", f"r{j}.json"],
            "equiv_renamed": ["equiv", c, f"n{j}.json"],
            "equiv_perturbed": ["equiv", c, f"x{j}.json"],
        }[command]
        return j, command, argv

    def run(self, i: int):
        return run_cli(self._at(i)[2], self.workdir, self.env)

    def traced(self, i: int, tr):
        argv = self._at(i)[2]
        result = tr.call("cli.subprocess", self.run, i)
        self.check(i, tr.call("cli.main", main_in_process, argv, self.workdir))
        return result

    def check(self, i: int, result) -> None:
        j, command, argv = self._at(i)
        code, out = result
        s = self.sets[j]
        expected_code = 1 if command == "equiv_perturbed" else 0
        if code != expected_code:
            raise UnexpectedExit(f"{' '.join(argv)} exited {code}, expected {expected_code}")
        if command == "validate":
            expect(out == f"{argv[1]}: ok\n", f"validate output {out!r}")
        elif command == "eval":
            expect(parse_thfe_text(s.machine.scale, out) == s.machine.value(s.word),
                   f"eval {s.word} on set {j}")
        elif command == "embed":
            n = parse_document(out).automaton
            edges = {(q, a, p) for (q, a), ts in s.machine.delta.items() for p in ts}
            expect(isinstance(n, Nthfa) and set(n.psi) == edges, f"embedded edges of set {j}")
            expect(all(v == hfa.ONE for v in n.psi.values()), f"embedded weights of set {j}")
            expect(all(raw(s.machine, n.final_map[q]) == s.machine.finals[q]
                       for q in s.machine.states), f"embedded finals of set {j}")
        elif command in ("determinize", "intersect"):
            d = parse_document(out).automaton
            expect(isinstance(d, Cdthfa), f"{command} of set {j} is not a cdthfa")
            for w in s.samples:
                want = (s.machine.value(w) if command == "determinize"
                        else inf(s.left.value(w), s.right.value(w)))
                expect(raw(s.machine, d.eval(w)) == want, f"{command} of set {j} on {w}")
        elif command == "equiv_renamed":
            expect(out == "equivalent\n", f"equiv of set {j} with its renamed copy: {out!r}")
        else:
            lines = out.splitlines()
            expect(len(lines) == 2 and lines[0] == "not equivalent", f"equiv output {out!r}")
            w = tuple(lines[1].removeprefix('counterexample: "').removesuffix('"'))
            expect(s.machine.value(w) != s.perturbed.value(w), f"counterexample {w} for set {j}")

    def probe_machines(self) -> list[Nthfa]:
        return [
            embed_cnthfa(Cnthfa(s.left.states, s.left.alphabet, s.left.delta, s.left.states[0],
                                {q: to_fractions(s.left.scale, v) for q, v in s.left.finals.items()}))
            for s in self.sets[:2]
        ]

    def operands(self) -> list[Thfe]:
        return [Thfe(to_fractions(s.machine.scale, v)) for s in self.sets
                for v in s.machine.finals.values()]


WORKLOADS = {w.name: w for w in (EvalWords, DecideWeighted, CliCrisp)}
