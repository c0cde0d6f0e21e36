"""Checklist acceptance tests.

Each test covers one numbered criterion and prints a single PASS/FAIL
line to the real terminal, so a full run reads as a checklist. The
assertions carry the details; the printed line is a summary.

Criterion 1 checks each lattice identity where the algebra promises it.
Two of them, distributivity in either direction and monotonicity of the
inf-combination, are false for multi-valued elements (README, "Known
non-laws"). On random triples the criterion asserts what does hold: the
one-sided inclusion of degree sets for distributivity, and monotonicity
against a singleton operand. On singleton triples, which are ordinary
fuzzy degrees, it asserts all three as identities. It also pins the
non-laws: the identities that fail on the random triples must be exactly
those three. Hand-checkable counterexamples stay pinned in
test_hfe.py::TestKnownNonLaws.
"""

from __future__ import annotations

import filecmp
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from hfa import (
    ONE,
    ZERO,
    Thfe,
    compute_range,
    decompose,
    determinize_cnthfa,
    embed_cnthfa,
    equivalent,
    crispify_nthfa,
    inf_combination,
    intersect_cdthfa,
    leq,
    recompose,
    sup_combination,
    sup_combination_n,
    union_nthfa,
)
from hfa.cli import main as cli_main
from hfa.oracle import (
    empirical_range,
    iter_words,
    languages_agree_up_to,
    reference_eval,
    reference_psi_hat,
)

from support import (
    TIGHT_POOL,
    farey_pool,
    hyperbolic_language_eval,
    path_join,
    perturb_nthfa,
    random_cdthfa,
    random_cnthfa,
    random_nthfa,
    random_small_range_nthfa,
    random_thfe,
    random_zero_one_nthfa,
)


def report(capsys, ok: bool, number: int, label: str, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {label}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)


# Identities that are false on multi-valued elements (README, "Known
# non-laws"). The random sweep must find a counterexample to each of them
# and to nothing else.
NON_LAWS = frozenset(
    {"inf distributes over sup", "sup distributes over inf", "inf monotone"}
)


def test_criterion_01_algebraic_laws(capsys):
    rng = random.Random(20260817)
    pool = farey_pool(10)
    triples = [tuple(random_thfe(rng, pool, 4) for _ in range(3)) for _ in range(1000)]
    singletons = [
        tuple(random_thfe(rng, pool, 1) for _ in range(3)) for _ in range(1000)
    ]

    failures: dict[str, int] = {}
    examples: dict[str, tuple] = {}

    def check(name, ok, witness):
        if not ok:
            failures[name] = failures.get(name, 0) + 1
            examples.setdefault(name, witness)

    inf, sup = inf_combination, sup_combination
    started = time.perf_counter()
    for X, Y, Z in triples:
        check("inf associative", inf(inf(X, Y), Z) == inf(X, inf(Y, Z)), (X, Y, Z))
        check("inf commutative", inf(X, Y) == inf(Y, X), (X, Y))
        check("inf idempotent", inf(X, X) == X, (X,))
        check("inf identity {1}", inf(X, ONE) == X, (X,))
        check("sup associative", sup(sup(X, Y), Z) == sup(X, sup(Y, Z)), (X, Y, Z))
        check("sup commutative", sup(X, Y) == sup(Y, X), (X, Y))
        check("sup idempotent", sup(X, X) == X, (X,))
        check("sup identity {0}", sup(X, ZERO) == X, (X,))
        check("sup annihilator {1}", sup(X, ONE) == ONE, (X,))
        check("inf annihilator {0}", inf(X, ZERO) == ZERO, (X,))
        # Distributivity holds only as an inclusion of degree sets: each
        # min(x, max(y, z)) equals max(min(x, y), min(x, z)), a member of
        # the right side, which may hold more degrees (and dually).
        left, right = inf(X, sup(Y, Z)), sup(inf(X, Y), inf(X, Z))
        check("inf distributes over sup", left == right, (X, Y, Z))
        check(
            "inf distributes over sup, inclusion",
            set(left) <= set(right),
            (X, Y, Z),
        )
        left, right = sup(X, inf(Y, Z)), inf(sup(X, Y), sup(X, Z))
        check("sup distributes over inf", left == right, (X, Y, Z))
        check(
            "sup distributes over inf, inclusion",
            set(left) <= set(right),
            (X, Y, Z),
        )
        # A leq B holds by construction, so the monotonicity, absorption,
        # and transitivity checks below are never vacuous.
        A, B = X, sup(X, Y)
        check("sup monotone", leq(sup(A, Z), sup(B, Z)), (A, B, Z))
        check("inf monotone", leq(inf(A, Z), inf(B, Z)), (A, B, Z))
        # With a singleton {z}, inf is monotone: A leq B means min A <= min B
        # and every a >= min B of A lies in B, and min(., z) keeps both.
        z = Thfe([min(Z)])
        check(
            "inf monotone, singleton operand",
            leq(inf(A, z), inf(B, z)),
            (A, B, z),
        )
        check("bounds {0},{1}", leq(ZERO, X) and leq(X, ONE), (X,))
        check("absorption via inf", leq(A, inf(A, B)), (A, B))
        check("absorption via sup", leq(A, sup(A, B)), (A, B))
        s = sup_combination_n([X, Y, Z])
        check(
            "family upper bound",
            leq(X, s) and leq(Y, s) and leq(Z, s),
            (X, Y, Z),
        )
        check("order reflexive", leq(X, X), (X,))
        if leq(X, Y) and leq(Y, X):
            check("order antisymmetric", X == Y, (X, Y))
        check("order transitive chain", leq(A, sup(B, Z)), (A, B, Z))
        if leq(X, Y) and leq(Y, Z):
            check("order transitive", leq(X, Z), (X, Y, Z))
    # Singletons are ordinary fuzzy degrees, where the non-laws are laws.
    for X, Y, Z in singletons:
        check(
            "singletons: inf distributes over sup",
            inf(X, sup(Y, Z)) == sup(inf(X, Y), inf(X, Z)),
            (X, Y, Z),
        )
        check(
            "singletons: sup distributes over inf",
            sup(X, inf(Y, Z)) == inf(sup(X, Y), sup(X, Z)),
            (X, Y, Z),
        )
        A, B = X, sup(X, Y)
        check("singletons: inf monotone", leq(inf(A, Z), inf(B, Z)), (A, B, Z))
    elapsed = time.perf_counter() - started

    broken = sorted(set(failures) - NON_LAWS)
    missing = sorted(NON_LAWS - set(failures))

    def describe(name):
        witness = ", ".join(str(t) for t in examples[name])
        return f"{name}: {failures[name]} of {len(triples)} triples, e.g. {witness}"

    ok = not broken and not missing and elapsed < 10.0
    detail = f"{len(triples)} triples, {len(singletons)} singleton triples, {elapsed:.1f}s"
    detail += "; non-laws pinned: " + "; ".join(
        describe(name) for name in sorted(NON_LAWS & set(failures))
    )
    if broken:
        detail += "; failing: " + ", ".join(f"{n}: {failures[n]}" for n in broken)
    if missing:
        detail += "; non-laws that held: " + ", ".join(missing)
    report(capsys, ok, 1, "algebraic laws on random triples", detail)

    assert elapsed < 10.0, f"law sweep took {elapsed:.1f}s"
    assert not broken, "laws that fail:\n" + "\n".join(
        f"  {describe(name)}" for name in broken
    )
    assert not missing, (
        "documented non-laws (README, Known non-laws; counterexamples pinned "
        "in test_hfe.py::TestKnownNonLaws) held on every triple: "
        + ", ".join(missing)
    )


def test_criterion_02_degenerate_order_embedding(capsys):
    grid = [Fraction(i, 20) for i in range(21)]
    bad = [
        (x, y)
        for x in grid
        for y in grid
        if leq(Thfe([x]), Thfe([y])) != (x <= y)
    ]
    report(
        capsys,
        not bad,
        2,
        "singleton order matches numeric order",
        f"{len(grid) ** 2} grid pairs",
    )
    assert not bad, f"order embedding breaks at {bad[:3]}"


def test_criterion_03_evaluation_matches_reference(capsys):
    rng = random.Random(303)
    pool = farey_pool(10)
    mismatches = 0
    first = None
    started = time.perf_counter()
    for _ in range(200):
        m = random_nthfa(rng, max_states=3, max_symbols=2, pool=pool)
        for w in iter_words(m.alphabet, 4):
            if m.eval(w) != reference_eval(m, w):
                mismatches += 1
                first = first or ("eval", m, w)
            for q in m.states:
                for p in m.states:
                    if m.psi_hat(q, w, p) != reference_psi_hat(m, q, w, p):
                        mismatches += 1
                        first = first or ("psi_hat", m, w)
    elapsed = time.perf_counter() - started

    ok = mismatches == 0 and elapsed < 60.0
    report(
        capsys,
        ok,
        3,
        "evaluation agrees with the literal recursion",
        f"200 machines, words to length 4, {elapsed:.1f}s",
    )
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    assert mismatches == 0, f"{mismatches} mismatches, first: {first}"


def test_criterion_03_value_is_the_fold_not_the_path_join(capsys):
    """A word's value is the forward fold, which oracle.reference_eval
    computes literally, and not the join over paths of their weights: the
    two differ because distributivity fails (README, "Known non-laws").
    Like criterion 1, this fails if the difference ever stops showing."""
    rng = random.Random(5)
    pairs = mismatches = differ = 0
    for _ in range(60):
        m = random_nthfa(rng, max_states=3, max_symbols=2, pool=farey_pool(6))
        for w in iter_words(m.alphabet, 3):
            pairs += 1
            value = m.eval(w)
            mismatches += value != reference_eval(m, w)
            differ += value != path_join(m, w)

    ok = not mismatches and differ > 0
    detail = f"{pairs} (machine, word) pairs, {differ} differ from the path join"
    report(capsys, ok, 3, "a word's value is the fold, not the join over paths", detail)
    assert not mismatches, f"eval differs from the reference on {mismatches} of {pairs} pairs"
    assert differ, (
        "the join over paths equals eval on every pair; the non-law pinned in "
        "test_hfe.py::TestKnownNonLaws no longer shows"
    )


def test_criterion_04_union_is_pointwise_join(capsys):
    rng = random.Random(404)
    for _ in range(100):
        alphabet = ("a",) if rng.random() < 0.3 else ("a", "b")
        a = random_nthfa(rng, alphabet=alphabet)
        b = random_nthfa(rng, alphabet=alphabet)
        u = union_nthfa(a, b)
        assert len(u.states) == len(a.states) + len(b.states) + 1
        assert u.eval(()) == sup_combination(
            a.final_map[a.initial], b.final_map[b.initial]
        )
        for w in iter_words(alphabet, 4):
            assert u.eval(w) == sup_combination(a.eval(w), b.eval(w)), (
                f"union differs at {w}"
            )
    report(capsys, True, 4, "union is the pointwise join", "100 pairs, words to length 4")


def test_criterion_05_range_levels_round_trip(capsys):
    rng = random.Random(505)
    for _ in range(100):
        m, vector_count = random_small_range_nthfa(rng)
        assert compute_range(m) == empirical_range(m, vector_count)

        evals = {w: m.eval(w) for w in iter_words(m.alphabet, 4)}
        levels = decompose(m)
        for key, nfa in levels.levels:
            for w, value in evals.items():
                assert nfa.accepts(w) == leq(key, value), (
                    f"level {key} misclassifies {w}"
                )

        verdict = equivalent(recompose(levels), m)
        assert verdict.equivalent, f"round trip differs at {verdict.counterexample}"
    report(
        capsys,
        True,
        5,
        "range, level cuts, and recomposition round trip",
        "100 machines",
    )


def test_criterion_06_crisp_pipeline_preserves_language(capsys):
    rng = random.Random(606)

    for _ in range(100):
        n = random_cnthfa(rng)
        e = embed_cnthfa(n)
        assert e.is_zero_one()
        for w in iter_words(n.alphabet, 5):
            assert e.eval(w) == n.eval(w), f"embedding differs at {w}"

    for _ in range(100):
        m = random_zero_one_nthfa(rng)
        c = crispify_nthfa(m)
        assert len(c.states) == len(m.states) + 1
        for w in iter_words(m.alphabet, 5):
            assert c.eval(w) == m.eval(w), f"crispification differs at {w}"

    for _ in range(100):
        n = random_cnthfa(rng)
        d = determinize_cnthfa(n)
        assert len(d.delta) == len(d.states) * len(d.alphabet)
        for w in iter_words(n.alphabet, 5):
            assert d.eval(w) == n.eval(w), f"determinization differs at {w}"

    report(
        capsys,
        True,
        6,
        "embed, crispify, determinize preserve the language",
        "3x100 inputs, words to length 5",
    )


def test_criterion_07_intersection_is_pointwise_meet(capsys):
    rng = random.Random(707)
    for _ in range(100):
        alphabet = ("a",) if rng.random() < 0.3 else ("a", "b")
        a = random_cdthfa(rng, alphabet=alphabet)
        b = random_cdthfa(rng, alphabet=alphabet)
        p = intersect_cdthfa(a, b)
        for w in iter_words(alphabet, 5):
            assert p.eval(w) == inf_combination(a.eval(w), b.eval(w)), (
                f"intersection differs at {w}"
            )
    report(
        capsys, True, 7, "intersection is the pointwise meet", "100 pairs, words to length 5"
    )


def test_criterion_08_equivalence_decider_vs_bounded_oracle(capsys):
    rng = random.Random(808)
    equal_pairs = 0
    distinguished = 0
    beyond_bound = 0

    for i in range(200):
        m = random_nthfa(
            rng, max_states=2, max_symbols=2, pool=TIGHT_POOL, max_cardinality=2
        )
        if i % 2 == 1:
            a, b = m, perturb_nthfa(rng, m)
        elif i % 6 == 0:
            a, b = m, m
        elif i % 6 == 2:
            a, b = union_nthfa(m, m), m
        else:
            a, b = recompose(decompose(m)), m

        verdict = equivalent(a, b)
        oracle = languages_agree_up_to(a, b, 6)

        if verdict.equivalent:
            equal_pairs += 1
            assert oracle.equivalent, (
                f"decider says equivalent, oracle found {oracle.counterexample}"
            )
        else:
            distinguished += 1
            w = verdict.counterexample
            assert a.eval(w) != b.eval(w), f"counterexample {w} does not distinguish"
            for earlier in iter_words(a.alphabet, len(w)):
                if earlier == w:
                    break
                assert a.eval(earlier) == b.eval(earlier), (
                    f"{earlier} distinguishes before reported {w}"
                )
            if len(w) <= 6:
                assert not oracle.equivalent
                assert oracle.counterexample == w
            else:
                # The bounded oracle cannot see past length 6; the verified
                # counterexample above shows the disagreement is legitimate.
                beyond_bound += 1

    assert equal_pairs >= 40 and distinguished >= 40, (
        f"mixture degenerated: {equal_pairs} equal, {distinguished} distinguished"
    )
    report(
        capsys,
        True,
        8,
        "equivalence decider agrees with the bounded oracle",
        f"200 pairs: {equal_pairs} equivalent, {distinguished} distinguished, "
        f"{beyond_bound} past the oracle bound",
    )


def test_criterion_09_hyperbolic_language_growth(capsys):
    for n in range(21):
        value = hyperbolic_language_eval(("a",) * n)
        assert len(value) == n + 1, f"length {n} gives {len(value)} degrees"
        assert min(value) == Fraction(1, 2 ** n + 1)
    report(capsys, True, 9, "hyperbolic language grows one degree per symbol", "lengths 0..20")


CLI_COMMANDS = [
    ("eval", "m1.json", "a"),
    ("eval", "classic_dfa.json", "aa"),
    ("eval", "multi_token.json", "ab.cd"),
    ("union", "m1.json", "n1.json"),
    ("intersect", "det.json", "det2.json"),
    ("determinize", "crisp.json"),
    ("determinize", "classic_nfa.json"),
    ("crispify", "m1.json"),
    ("crispify", "zero_one.json"),
    ("embed", "crisp.json"),
    ("decompose", "m1.json"),
    ("decompose", "zero_one.json"),
    ("recompose", "levels.json"),
    ("range", "m1.json"),
    ("range", "const_half.json"),
    ("equiv", "m1.json", "m1.json"),
    ("equiv", "m1.json", "n1.json"),
    ("equiv", "const_half.json", "const_third.json"),
    ("validate", "m1.json", "partial_dfa.json"),
    ("validate", "bad_number.json", "bad_syntax.json", "bad_partial_cdthfa.json"),
    ("oracle-check", "m1.json"),
    ("oracle-check", "m1.json", "n1.json"),
    ("intersect", "det.json", "zero_one.json"),
    ("intersect", "m1.json", "m1.json"),
    ("determinize", "det.json"),
    ("equiv", "zero_one.json", "crisp.json"),
    ("equiv", "crisp.json", "det.json"),
    ("determinize", "crisp16.json"),
    ("equiv", "crisp16.json", "crisp16_renamed.json"),
    ("intersect", "crisp16_left.json", "crisp16_right.json"),
    ("eval", "crisp16.json", "babbbacc"),
    ("embed", "crisp16.json"),
    ("range", "crisp16.json"),
    ("range", "det.json"),
    ("decompose", "crisp.json"),
    ("decompose", "det.json"),
    ("eval", "levels.json", "aa"),
    ("determinize", "m1.json"),
    ("crispify", "classic_dfa.json"),
    ("embed", "m1.json"),
    ("recompose", "m1.json"),
    ("range", "classic_nfa.json"),
    ("equiv", "m1.json", "levels.json"),
    ("oracle-check", "classic_nfa.json"),
    ("embed", "det.json"),
    ("union", "det.json", "crisp.json"),
    ("union", "zero_one.json", "det.json"),
    ("oracle-check", "det.json"),
    ("decompose", "key_order.json"),
    ("range", "key_order.json"),
    ("eval", "m1.json", "z"),
    ("eval", "multi_token.json", "ab.zz"),
    ("eval", "levels.json", "z"),
    ("eval", "m1.json", "--lambda"),
    ("eval", "m1.json", "a", "--lambda"),
    ("eval", "m1.json"),
    ("equiv", "multi_token.json", "multi_token_tail.json"),
    ("eval", "m1.json", "--lambda", "a"),
    ("eval", "partial_dfa.json", "a"),
]


def run_cli(fixtures_dir: Path, command: tuple[str, ...]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI_COMMANDS entry, its fixture
    names read in ``fixtures_dir``; a usage error's SystemExit gives its code."""
    argv = [command[0]] + [
        str(fixtures_dir / part) if part.endswith(".json") else part for part in command[1:]
    ]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_criterion_10_cli_determinism(capsys, fixtures_dir, tmp_path):
    for command in CLI_COMMANDS:
        first = run_cli(fixtures_dir, command)
        assert first == run_cli(fixtures_dir, command), f"nondeterministic: {command}"

    dirs = (tmp_path / "first", tmp_path / "second")
    for out_dir in dirs:
        code = cli_main(
            ["decompose", str(fixtures_dir / "m1.json"), "-o", str(out_dir)]
        )
        capsys.readouterr()
        assert code == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(*dirs, names, shallow=False)
    assert not mismatch and not errors, f"file outputs differ: {mismatch or errors}"

    report(
        capsys,
        True,
        10,
        "byte-identical command output across runs",
        f"{len(CLI_COMMANDS)} invocations plus {len(names)} written files",
    )


GOLDEN_CLI = Path(__file__).parent / "golden_cli.json"


def cli_outputs(fixtures_dir: Path) -> list[dict]:
    """Exit code, stdout and stderr of every CLI_COMMANDS entry, with the
    fixture directory written as <fixtures>."""
    outputs = []
    for command in CLI_COMMANDS:
        code, out, err = run_cli(fixtures_dir, command)
        outputs.append({
            "command": list(command),
            "exit": code,
            "stdout": out.replace(str(fixtures_dir), "<fixtures>"),
            "stderr": err.replace(str(fixtures_dir), "<fixtures>"),
        })
    return outputs


def test_cli_output_matches_golden(fixtures_dir):
    """The acceptance commands print exactly what golden_cli.json records,
    so a change meant to keep behaviour shows byte-identical output.  After
    an intended output change, rewrite the file with
    ``PYTHONPATH=src python tests/test_acceptance.py``."""
    expected = json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))
    actual = cli_outputs(fixtures_dir)
    assert [o["command"] for o in actual] == [o["command"] for o in expected]
    for got, want in zip(actual, expected):
        assert got == want, f"output of {' '.join(want['command'])} changed"


if __name__ == "__main__":
    outputs = cli_outputs(Path(__file__).resolve().parent / "fixtures")
    GOLDEN_CLI.write_text(json.dumps(outputs, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
