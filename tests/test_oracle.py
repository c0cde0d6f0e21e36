import random

import pytest

from hfa import (
    AlphabetMismatch, ONE, Thfe, UnknownState, UnknownSymbol, ZERO, decompose, embed_cnthfa,
    recompose,
)
from hfa.errors import WordTooLong
from hfa.oracle import (
    empirical_range,
    iter_words,
    languages_agree_up_to,
    pairwise_inf,
    pairwise_sup_n,
    reference_eval,
    reference_fold,
    reference_psi_hat,
)

from support import (
    constant_automaton, farey_pool, perturb_nthfa, random_cdthfa, random_cnthfa, random_nthfa,
)


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


def value_of_row(m, row: dict[str, Thfe]) -> Thfe:
    """A word's value from its reference_fold row: the join over the states
    of each one's weight met with its final value."""
    return pairwise_sup_n(pairwise_inf(row[r], m.final_map[r]) for r in m.states)


class TestReferenceFold:
    def test_frozen_example(self, m1):
        assert reference_fold(m1, ("a",)) == {"q0": ZERO, "q1": Thfe(["1/2", "9/10"])}
        assert reference_fold(m1, ("a", "a")) == {"q0": ZERO, "q1": ZERO}
        assert reference_fold(m1, (), "q1") == {"q0": ZERO, "q1": ONE}

    def test_unknown_state_and_symbol(self, m1):
        with pytest.raises(UnknownState):
            reference_fold(m1, (), "x")
        with pytest.raises(UnknownSymbol):
            reference_fold(m1, ("z",))

    def test_agrees_with_the_literal_recursion_to_length_5(self):
        rng = random.Random(14)
        for _ in range(6):
            m = random_nthfa(rng)
            for w in iter_words(m.alphabet, 5):
                assert value_of_row(m, reference_fold(m, w)) == reference_eval(m, w, max_length=5)
            q = m.states[-1]
            for w in iter_words(m.alphabet, 3):
                assert reference_fold(m, w, q) == {p: reference_psi_hat(m, q, w, p)
                                                   for p in m.states}

    def test_long_words_of_every_kind(self):
        """Words of length 32-64: an Nthfa's eval, advance and psi_hat; a
        Cnthfa's and a Cdthfa's eval against the fold of their embedding;
        and a decomposition's eval, directly and through recompose."""
        rng = random.Random(64)
        pool = farey_pool(10)
        for _ in range(30):
            m = random_nthfa(rng, max_states=4, pool=pool, max_cardinality=4)
            w = tuple(rng.choice(m.alphabet) for _ in range(rng.randint(32, 64)))
            row = reference_fold(m, w)
            value = value_of_row(m, row)
            assert m.eval(w) == value
            vector = m.initial_vector()
            for a in w:
                vector = m.advance(vector, a)
            assert vector == row
            q, p = rng.choice(m.states), rng.choice(m.states)
            assert m.psi_hat(q, w, p) == reference_fold(m, w, q)[p]
            levels = decompose(m)
            assert levels.eval(w) == recompose(levels).eval(w) == value
            for crisp in (random_cnthfa(rng, max_states=4, pool=pool, alphabet=m.alphabet),
                          random_cdthfa(rng, max_states=4, pool=pool, alphabet=m.alphabet)):
                embedded = embed_cnthfa(crisp)
                assert crisp.eval(w) == value_of_row(embedded, reference_fold(embedded, w))


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
