"""Mutation gate: the tests must kill each listed mutant of the program.

    python tests/mutants.py

A mutant is (file, exact old text, new text, the tests expected to kill
it).  The script copies src/, tests/ and pyproject.toml (whose pytest
settings the tests read) into a temporary directory, and first runs every
named test there unmutated: they must pass, so that a failure later is the
mutant's doing and not a stale test name.  Then, one mutant at a time, it
replaces the old text, which must occur exactly once, runs that mutant's
tests and puts the text back.  It exits 1 unless every mutant's tests fail.

Equivalent mutants change no behaviour, so no test can kill them; they are
listed apart with the reason, and the script only checks that their old
text is still there.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
KERNEL_ERRORS = "tests/test_hesitant.py::TestEvaluationKernel::test_errors_and_messages"
EQUIVALENT_TESTS = "tests/test_constructions.py::TestEquivalent"
EARLIEST = f"{EQUIVALENT_TESTS}::test_counterexample_is_verified_and_earliest"
GOLDEN = "tests/test_acceptance.py::test_cli_output_matches_golden"
DECLARED_ORDER = "tests/test_documents.py::TestRoundTrip::test_rows_and_finals_in_declared_order"
AGAINST_FRACTIONS = "tests/test_hfe.py::TestAgainstFractionOrder"


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = {
    "the fold steps a symbol outside the alphabet": Mutant(
        "src/hfa/classic.py",
        'state = self._step(state, known("symbol", a, self.alphabet))',
        "state = self._step(state, a)",
        (KERNEL_ERRORS, "tests/test_classic.py::TestDfa::test_unknown_names_rejected"),
    ),
    "the checker raises UnknownState for an unknown symbol": Mutant(
        "src/hfa/classic.py",
        'raise (UnknownSymbol if noun == "symbol" else UnknownState)(',
        "raise UnknownState(",
        (KERNEL_ERRORS,),
    ),
    "numbered states start at v1": Mutant(
        "src/hfa/classic.py", 'return f"v{i}"', 'return f"v{i + 1}"',
        ("tests/test_constructions.py::TestLevelAutomaton::test_states_are_value_vectors",),
    ),
    "the n-ary join cuts at the least minimum": Mutant(
        "src/hfa/hfe.py",
        "        if r * q < p * s:\n            r, s = p, q\n",
        "        if p * s < r * q:\n            r, s = p, q\n",
        ("tests/test_hfe.py::TestClosedFormsMatchDefinitions::test_sup_combination",
         "tests/test_hfe.py::TestClosedFormsMatchDefinitions::test_sup_combination_n"),
    ),
    "the merge treats an equal pair as a smaller one": Mutant(
        "src/hfa/hfe.py", "if ps == rq:  # an equal pair: keep one", "if False:",
        (f"{AGAINST_FRACTIONS}::test_inf_combination",
         f"{AGAINST_FRACTIONS}::test_sup_combination"),
    ),
    "the meet keeps the operand with the larger maximum as xs": Mutant(
        "src/hfa/hfe.py",
        "    if r * q < p * s:\n        xs, ys, rx, ry, p, q = ys, xs, ry, rx, r, s\n",
        "    if p * s < r * q:\n        xs, ys, rx, ry, p, q = ys, xs, ry, rx, r, s\n",
        ("tests/test_hfe.py::TestClosedFormsMatchDefinitions::test_inf_combination",
         f"{AGAINST_FRACTIONS}::test_inf_combination"),
    ),
    "the join's floor scan also drops degrees equal to the floor": Mutant(
        "src/hfa/hfe.py", "rs[k][0] * s < r * rs[k][1]", "rs[k][0] * s <= r * rs[k][1]",
        ("tests/test_hfe.py::TestClosedFormsMatchDefinitions::test_sup_combination_n",
         f"{AGAINST_FRACTIONS}::test_sup_combination_n"),
    ),
    "leq's first test is reversed": Mutant(
        "src/hfa/hfe.py", "    if r * q < p * s:\n        return False\n",
        "    if p * s < r * q:\n        return False\n",
        ("tests/test_hfe.py::TestClosedFormsMatchDefinitions::test_leq",
         f"{AGAINST_FRACTIONS}::test_leq"),
    ),
    "parse_degree rejects 1": Mutant(
        "src/hfa/hfe.py", "0 <= degree.numerator <= degree.denominator",
        "0 <= degree.numerator < degree.denominator",
        ("tests/test_hfe.py::TestParseDegree::test_bounds_are_inclusive",),
    ),
    "an Nfa transition skips its symbol check": Mutant(
        "src/hfa/classic.py",
        "if q not in position or a not in successors or not position.keys() >= targets:",
        "if q not in position or not position.keys() >= targets:",
        ("tests/test_classic.py::TestNfa::test_transition_with_undeclared_symbol",),
    ),
    "an Nthfa transition skips its target check": Mutant(
        "src/hfa/hesitant.py",
        "if q not in index or a not in incoming or p not in index:",
        "if q not in index or a not in incoming:",
        ("tests/test_hesitant.py::TestNthfa::test_transition_to_undeclared_state",),
    ),
    "Dfa.extended starts from an undeclared state": Mutant(
        "src/hfa/classic.py",
        'return self._run(known("state", q, self._state_set), w)',
        "return self._run(q, w)",
        ("tests/test_classic.py::TestDfa::test_extended_from_unknown_state",),
    ),
    "Nfa.extended starts from an undeclared state": Mutant(
        "src/hfa/classic.py",
        'start = self._mask([known("state", q, self._position)])', "start = self._mask([q])",
        ("tests/test_classic.py::TestNfa::test_extended_from_unknown_state",),
    ),
    "psi_value weighs a triple to an undeclared state": Mutant(
        "src/hfa/hesitant.py",
        "if q not in self._index or p not in self._index:",
        "if q not in self._index:",
        (KERNEL_ERRORS,),
    ),
    "psi_value weighs a triple on an unknown symbol": Mutant(
        "src/hfa/hesitant.py",
        'self.psi.get((q, known("symbol", a, self.alphabet), p), ZERO)',
        "self.psi.get((q, a, p), ZERO)",
        (KERNEL_ERRORS,),
    ),
    "advance checks the symbol before the vector": Mutant(
        "src/hfa/hesitant.py",
        "        entries = self._as_tuple(vector)\n"
        "        return dict(zip(self.states, self._step(entries, known(\"symbol\", a, "
        "self.alphabet))))\n",
        "        a = known(\"symbol\", a, self.alphabet)\n"
        "        entries = self._as_tuple(vector)\n"
        "        return dict(zip(self.states, self._step(entries, a)))\n",
        (KERNEL_ERRORS,),
    ),
    "psi_hat checks p after the run": Mutant(
        "src/hfa/hesitant.py",
        "        i = self._index[known(\"state\", p, self._index)]\n"
        "        return self._run(self._unit(known(\"state\", q, self._index)), w)[i]\n",
        "        entries = self._run(self._unit(known(\"state\", q, self._index)), w)\n"
        "        return entries[self._index[known(\"state\", p, self._index)]]\n",
        (KERNEL_ERRORS,),
    ),
    "a duplicate final state merges silently": Mutant(
        "src/hfa/documents.py",
        'report.warn("CanonicalizedValue", f"duplicate final state {name!r} merged")',
        "pass",
        ("tests/test_documents.py::TestKindSpecificRules"
         "::test_nfa_repairs_warn_and_serialize_canonically",),
    ),
    "an empty target list is dropped silently": Mutant(
        "src/hfa/documents.py", "    if not targets:\n", "    if False:\n",
        ("tests/test_documents.py::TestKindSpecificRules"
         "::test_nfa_repairs_warn_and_serialize_canonically",),
    ),
    "a printed word runs multi-character symbols together": Mutant(
        "src/hfa/cli.py", "    return WORD_SEPARATOR.join(word)", '    return "".join(word)',
        (GOLDEN,),
    ),
    "--lambda takes a word too": Mutant(
        "src/hfa/cli.py", 'if arg not in (None, ""):', "if False:",
        (GOLDEN,),
    ),
    "decompose orders its keys by reversed degree tuples": Mutant(
        "src/hfa/constructions.py", "key=lambda t: t.degrees)", "key=lambda t: t.degrees[::-1])",
        ("tests/test_constructions.py::TestDecompose::test_keys_ascend_by_degree_tuple",),
    ),
    "DegreeCodec.join returns the union": Mutant(
        "src/hfa/hfe.py", "return union & -floor if floor else 1", "return union if floor else 1",
        ("tests/test_hfe.py::TestClosedFormsMatchDefinitions::test_mask_join",),
    ),
    "explore stops one state short of the budget": Mutant(
        "src/hfa/classic.py", "if len(self.states) > budget:", "if len(self.states) >= budget:",
        ("tests/test_classic.py::TestSubsetConstruction::test_to_dfa_budget",),
    ),
    "equivalent spells its counterexample backwards": Mutant(
        "src/hfa/constructions.py", "tuple(reversed(word))", "tuple(word)",
        (EARLIEST, f"{EQUIVALENT_TESTS}::test_agrees_with_word_enumeration"),
    ),
    "an exhausted budget exits 2": Mutant(
        "src/hfa/cli.py",
        "        print(f\"closure-budget-exceeded: {exc}\", file=sys.stderr)\n        return 3\n",
        "        print(f\"closure-budget-exceeded: {exc}\", file=sys.stderr)\n        return 2\n",
        ("tests/test_cli.py::TestExitCodes::test_budget_exhaustion_exits_three",),
    ),
    "a word after --lambda is an unrecognized argument": Mutant(
        "src/hfa/cli.py", "(args.word,) = extra", 'parser.error("unrecognized")',
        (GOLDEN,),
    ),
    "a target list is written in name order": Mutant(
        "src/hfa/documents.py", "ordered = sorted(targets, key=state_index.__getitem__)",
        "ordered = sorted(targets)",
        ("tests/test_documents.py::TestRoundTrip::test_targets_in_declared_order",),
    ),
    "a load warning goes unprinted": Mutant(
        "src/hfa/cli.py", '        print(f"{_shown(path)}: warning: {warning}", file=sys.stderr)\n',
        "        pass\n",
        (GOLDEN,),
    ),
    "a view keeps the start as every state's parent": Mutant(
        "src/hfa/classic.py", "self.parents.append((i, a))", "self.parents.append((0, a))",
        (EARLIEST,),
    ),
    "a level's finals are the states its key dominates": Mutant(
        "src/hfa/constructions.py", "if leq(k, v) for q in qs]", "if leq(v, k) for q in qs]",
        ("tests/test_constructions.py::TestDecompose",
         "tests/test_constructions.py::TestLevelAutomaton"),
    ),
    "levels sharing a table keep a slot each": Mutant(
        "src/hfa/constructions.py", "slots.setdefault(id(nfa._successors), len(slots))",
        "slots.setdefault(id(nfa), len(slots))",
        ("tests/test_constructions.py::TestDecompose::test_levels_on_one_table_step_once",),
    ),
    "crispify routes a full row to the sink": Mutant(
        "src/hfa/constructions.py", "if len(targets) < len(m.states):",
        "if len(targets) <= len(m.states):",
        ("tests/test_constructions.py::TestCrispify",),
    ),
    "a product steps its first slot in both views": Mutant(
        "src/hfa/constructions.py", "vb.step(t[1], s))", "vb.step(t[0], s))",
        (EQUIVALENT_TESTS, "tests/test_constructions.py::TestIntersect"),
    ),
    "a THFE hash mixes in each degree's identity": Mutant(
        "src/hfa/hfe.py", "hash(tuple([d.as_integer_ratio() for d in self.degrees]))",
        "hash(tuple([(d.as_integer_ratio(), id(d)) for d in self.degrees]))",
        ("tests/test_hfe.py::TestThfe"
         "::test_equal_exactly_when_degrees_are_and_equal_ones_hash_equal",
         "tests/test_constructions.py::TestReachableVectors"
         "::test_a_vector_is_numbered_once_whatever_objects_hold_its_degrees"),
    ),
    "a view numbers a state without growing its successor lists": Mutant(
        "src/hfa/classic.py",
        "                for successors in self.successors.values():\n"
        "                    successors.append(None)\n",
        "                pass\n",
        (EQUIVALENT_TESTS, "tests/test_classic.py::TestSubsetConstruction"),
    ),
    "a view names its transitions from another symbol's list": Mutant(
        "src/hfa/classic.py", "names[self.successors[a][i]]",
        "names[self.successors[self.alphabet[0]][i]]",
        (GOLDEN,),
    ),
    "the final row pairs each final with the next state's index": Mutant(
        "src/hfa/hesitant.py", "for x in (i, f))", "for x in ((i + 1) % len(self.states), f))",
        ("tests/test_hesitant.py::TestEvaluationKernel",),
    ),
    "decompose names its view with the machine's own name function": Mutant(
        "src/hfa/constructions.py", "m._step, m._value, _numbered))",
        "m._step, m._value, m._name))",
        ("tests/test_constructions.py::TestCrispConstructionsAgainstOracle"
         "::test_range_and_decompose_match_the_embedding",),
    ),
    "_load leaves the path out": Mutant(
        "src/hfa/cli.py", 'message=f"{_shown(path)}: {d.message}"', "message=d.message",
        ("tests/test_cli.py::TestUnreadableDocuments::test_an_operand_that_is_not_utf8_is_named",),
    ),
    "the object hook ignores a repeated key": Mutant(
        "src/hfa/documents.py", "        if len(obj) < len(pairs):\n", "        if False:\n",
        ("tests/test_documents.py::TestParseErrors"
         "::test_each_repeated_key_is_an_error_and_the_rest_is_checked",),
    ),
    "weighted rows are written in name order": Mutant(
        "src/hfa/documents.py",
        "key=lambda t: (state_index[t[0]], symbol_index[t[1]], state_index[t[2]])",
        "key=lambda t: (t[0], t[1], t[2])",
        (GOLDEN,),
    ),
    "weighted rows are written in target name order": Mutant(
        "src/hfa/documents.py", "symbol_index[t[1]], state_index[t[2]])",
        "symbol_index[t[1]], t[2])",
        (GOLDEN,),
    ),
    "crisp rows are written in state name order": Mutant(
        "src/hfa/documents.py", "    for q in x.states:\n        for a in x.alphabet:\n",
        "    for q in sorted(x.states):\n        for a in x.alphabet:\n",
        (GOLDEN,),
    ),
    "crisp rows are written in symbol name order": Mutant(
        "src/hfa/documents.py", "    for q in x.states:\n        for a in x.alphabet:\n",
        "    for q in x.states:\n        for a in sorted(x.alphabet):\n",
        (DECLARED_ORDER,),
    ),
    "accepting states are written in name order": Mutant(
        "src/hfa/documents.py", 'doc["final"] = [q for q in x.states if q in x.finals]',
        'doc["final"] = sorted(x.finals)',
        (DECLARED_ORDER,),
    ),
    "final entries are written in name order": Mutant(
        "src/hfa/documents.py", "_thfe_json(x.final_map[q]) for q in x.states if",
        "_thfe_json(x.final_map[q]) for q in sorted(x.states) if",
        (GOLDEN,),
    ),
    "a Cnthfa subset always joins its first state": Mutant(
        "src/hfa/hesitant.py", "enumerate(finals) if s >> i & 1)",
        "enumerate(finals) if s >> i & 1 or not i)",
        ("tests/test_hesitant.py",),
    ),
}

# (file, old text, new text, why no test can tell them apart)
EQUIVALENT = {
    "the meet's cut also drops a degree equal to max xs": (
        "src/hfa/hfe.py", "while n and p * ry[n - 1][1] < ry[n - 1][0] * q:",
        "while n and p * ry[n - 1][1] <= ry[n - 1][0] * q:",
        "the cut degree max xs is in xs, so the merge keeps it either way",
    ),
    "!= ZERO in the meet-join": (
        "src/hfa/hesitant.py", "if vector[i] is not ZERO\n", "if vector[i] != ZERO\n",
        "a {0} entry that is not the ZERO object adds only {0} terms, which change no join",
    ),
    "the final row keeps the {0} finals": (
        "src/hfa/hesitant.py", "enumerate(self.final_map.values()) if f != ZERO",
        "enumerate(self.final_map.values())",
        "x (x) {0} = {0}, and {0} is the identity of the join",
    ),
}


def _pytest(workdir: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
    return subprocess.run(command, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _only_once(path: Path, old: str) -> str:
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{path.name}: the old text occurs {text.count(old)} times: {old!r}")
    return text


def main() -> int:
    for name, (file, old, _, _) in EQUIVALENT.items():
        _only_once(ROOT / file, old)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, workdir / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", workdir)
        selection = sorted({t for m in MUTANTS.values() for t in m.tests})
        if _pytest(workdir, selection) != 0:
            print("the selected tests fail on the unmutated program")
            return 1
        survivors = []
        for name, m in MUTANTS.items():
            path = workdir / m.file
            original = _only_once(path, m.old)
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            started = time.perf_counter()
            code = _pytest(workdir, m.tests)
            path.write_text(original, encoding="utf-8")
            verdict = "killed" if code in (1, 2) else f"SURVIVED (pytest exit {code})"
            print(f"{verdict:8} {time.perf_counter() - started:5.1f} s  {name}")
            if code not in (1, 2):
                survivors.append(name)
    for name, (_, _, _, reason) in EQUIVALENT.items():
        print(f"equivalent        {name}: {reason}")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
