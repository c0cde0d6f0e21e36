import random

import pytest

from hfa import AlphabetMismatch, ONE, Thfe, ZERO
from hfa.errors import WordTooLong
from hfa.oracle import (
    empirical_range,
    iter_words,
    languages_agree_up_to,
    reference_eval,
    reference_psi_hat,
)

from support import constant_automaton, perturb_nthfa, random_nthfa


class TestIterWords:
    def test_enumeration_is_length_then_alphabet_order(self):
        words = list(iter_words(["a", "b"], 2))
        assert words == [
            (),
            ("a",),
            ("b",),
            ("a", "a"),
            ("a", "b"),
            ("b", "a"),
            ("b", "b"),
        ]

    def test_count(self):
        assert sum(1 for _ in iter_words(["a", "b"], 4)) == 31


class TestReferencePsiHat:
    def test_empty_word_is_kronecker(self, m1):
        assert reference_psi_hat(m1, "q0", (), "q0") == ONE
        assert reference_psi_hat(m1, "q0", (), "q1") == ZERO

    def test_single_symbol_reads_psi(self, m1):
        assert reference_psi_hat(m1, "q0", ("a",), "q1") == Thfe(["1/2", "9/10"])

    def test_guards_against_long_words(self, m1):
        with pytest.raises(WordTooLong):
            reference_psi_hat(m1, "q0", ("a",) * 7, "q0")

    def test_matches_fast_path_on_random_machines(self):
        rng = random.Random(23)
        for _ in range(15):
            m = random_nthfa(rng)
            for w in iter_words(m.alphabet, 3):
                for q in m.states:
                    for p in m.states:
                        assert m.psi_hat(q, w, p) == reference_psi_hat(m, q, w, p)


class TestReferenceEval:
    def test_frozen_example(self, m1):
        assert reference_eval(m1, ()) == Thfe(["1/10"])
        assert reference_eval(m1, ("a",)) == Thfe(["1/2", "3/5", "9/10"])

    def test_matches_fast_path_on_random_machines(self):
        rng = random.Random(29)
        for _ in range(15):
            m = random_nthfa(rng)
            for w in iter_words(m.alphabet, 3):
                assert m.eval(w) == reference_eval(m, w)


class TestEmpiricalRange:
    def test_constant_machine(self):
        x = Thfe(["1/3", "2/3"])
        assert empirical_range(constant_automaton(x, ["a"]), 4) == frozenset({x})

    def test_growing_prefix_of_values(self, m1):
        assert empirical_range(m1, 0) == frozenset({Thfe(["1/10"])})
        assert empirical_range(m1, 2) == frozenset(
            {Thfe(["1/10"]), Thfe(["1/2", "3/5", "9/10"]), ZERO}
        )


class TestLanguagesAgreeUpTo:
    def test_machine_agrees_with_itself(self, m1):
        verdict = languages_agree_up_to(m1, m1, 4)
        assert verdict.equivalent
        assert verdict.counterexample is None

    def test_counterexample_is_first_in_enumeration_order(self, m1, n1):
        verdict = languages_agree_up_to(m1, n1, 4)
        assert not verdict.equivalent
        for w in iter_words(m1.alphabet, 4):
            if w == verdict.counterexample:
                break
            assert m1.eval(w) == n1.eval(w)
        assert m1.eval(verdict.counterexample) != n1.eval(verdict.counterexample)

    def test_alphabets_must_match(self, m1):
        other = random_nthfa(random.Random(1), alphabet=["x"])
        with pytest.raises(AlphabetMismatch):
            languages_agree_up_to(m1, other, 2)

    def test_perturbation_usually_detected(self, m1):
        rng = random.Random(31)
        changed = 0
        for _ in range(20):
            other = perturb_nthfa(rng, m1)
            if not languages_agree_up_to(m1, other, 4).equivalent:
                changed += 1
        assert changed > 0
