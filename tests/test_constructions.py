import random
from fractions import Fraction

import pytest

import hfa.classic
from hfa import (
    AlphabetMismatch,
    ClosureBudgetExceeded,
    Cdthfa,
    Cnthfa,
    LevelDecomposition,
    Nfa,
    Nthfa,
    inf_combination,
    ONE,
    Thfe,
    UnknownSymbol,
    ZERO,
    compute_range,
    crispify_nthfa,
    decompose,
    determinize_cnthfa,
    embed_cnthfa,
    equivalent,
    eval_decomposition,
    intersect_cdthfa,
    leq,
    level_automaton,
    recompose,
    sup_combination,
    union_nthfa,
)
from hfa.oracle import (
    empirical_range,
    iter_words,
    languages_agree_up_to,
    pairwise_inf,
    reference_eval,
)

from support import (
    constant_automaton,
    farey_pool,
    h_union_pointwise,
    hyperbolic_language_eval,
    perturb_nthfa,
    random_cdthfa,
    random_cnthfa,
    random_nthfa,
    random_small_range_nthfa,
    random_thfe,
    random_zero_one_nthfa,
    reachable_vectors,
)

F = Fraction


class TestUnion:
    def test_adds_exactly_one_state(self, m1, n1):
        u = union_nthfa(m1, n1)
        assert len(u.states) == len(m1.states) + len(n1.states) + 1
        assert u.initial == "q0"
        assert set(u.states) == {"q0", "L.q0", "L.q1", "R.p0", "R.p1"}

    def test_empty_word_value_joins_initial_finals(self, m1, n1):
        u = union_nthfa(m1, n1)
        assert u.eval(()) == Thfe(["1/10"])
        assert u.final_map["q0"] == Thfe(["1/10"])

    def test_pointwise_join_on_random_pairs(self):
        rng = random.Random(41)
        for _ in range(25):
            a = random_nthfa(rng, alphabet=["a", "b"])
            b = random_nthfa(rng, alphabet=["a", "b"])
            u = union_nthfa(a, b)
            for w in iter_words(("a", "b"), 3):
                assert u.eval(w) == h_union_pointwise(a.eval, b.eval, w)

    def test_alphabets_must_agree(self, m1):
        other = random_nthfa(random.Random(2), alphabet=["x"])
        with pytest.raises(AlphabetMismatch):
            union_nthfa(m1, other)


class TestReachableVectors:
    def test_frozen_vectors(self, m1):
        vectors = reachable_vectors(m1)
        assert vectors[0] == {"q0": ONE, "q1": ZERO}
        assert vectors[1] == {"q0": ZERO, "q1": Thfe(["1/2", "9/10"])}
        assert vectors[2] == {"q0": ZERO, "q1": ZERO}
        assert len(vectors) == 3

    def test_budget_guard(self, monkeypatch):
        m = constant_automaton(Thfe(["1/2"]), ["a"])
        monkeypatch.setattr(hfa.classic, "DEFAULT_MAX_VECTORS", 1)
        with pytest.raises(ClosureBudgetExceeded):
            reachable_vectors(m)

    def test_range_equals_bounded_enumeration(self):
        rng = random.Random(43)
        for _ in range(15):
            m, count = random_small_range_nthfa(rng, max_vectors=6)
            assert compute_range(m) == empirical_range(m, count)

    def test_frozen_range(self, m1):
        assert compute_range(m1) == frozenset(
            {ZERO, Thfe(["1/10"]), Thfe(["1/2", "3/5", "9/10"])}
        )


class TestLevelAutomaton:
    def test_membership_matches_value_dominance(self):
        rng = random.Random(47)
        for _ in range(10):
            m = random_nthfa(rng, max_states=2)
            for k in sorted(compute_range(m), key=lambda t: t.degrees):
                cut = level_automaton(m, k)
                for w in iter_words(m.alphabet, 4):
                    assert cut.accepts(w) == leq(k, m.eval(w))

    def test_arbitrary_keys_allowed(self, m1):
        # Keys outside the range still yield the exact dominance language.
        k = Thfe(["1/2", "3/5"])
        cut = level_automaton(m1, k)
        for w in iter_words(m1.alphabet, 4):
            assert cut.accepts(w) == leq(k, m1.eval(w))

    def test_states_are_value_vectors(self, m1):
        cut = level_automaton(m1, Thfe(["1/10"]))
        assert cut.states == ("v0", "v1", "v2")
        assert cut.initial == "v0"


class TestDecompose:
    def test_keys_are_sorted_range(self, m1):
        d = decompose(m1)
        keys = [k for k, _ in d.levels]
        assert keys == sorted(compute_range(m1), key=lambda t: t.degrees)

    def test_eval_decomposition_matches_machine(self):
        rng = random.Random(53)
        for _ in range(10):
            m = random_nthfa(rng, max_states=2)
            d = decompose(m)
            for w in iter_words(m.alphabet, 4):
                assert eval_decomposition(d, w) == m.eval(w)

    def test_duplicate_keys_rejected(self, m1):
        nfa = level_automaton(m1, ONE)
        with pytest.raises(ValueError):
            LevelDecomposition(m1.alphabet, [(ONE, nfa), (ONE, nfa)])

    def test_level_alphabets_must_match(self, m1):
        nfa = Nfa(["v0"], ["z"], {}, "v0", [])
        with pytest.raises(AlphabetMismatch):
            LevelDecomposition(m1.alphabet, [(ONE, nfa)])


class TestRecompose:
    def test_round_trip_preserves_language(self):
        rng = random.Random(59)
        for _ in range(12):
            m, _ = random_small_range_nthfa(rng, max_vectors=6)
            r = recompose(decompose(m))
            verdict = equivalent(r, m)
            assert verdict.equivalent, verdict

    def test_empty_decomposition_is_constant_zero(self):
        r = recompose(LevelDecomposition(["a"], []))
        for w in iter_words(("a",), 3):
            assert r.eval(w) == ZERO

    def test_result_is_zero_one(self, m1):
        assert recompose(decompose(m1)).is_zero_one()


class TestEmbed:
    def test_language_preserved(self):
        rng = random.Random(61)
        for _ in range(20):
            c = random_cnthfa(rng)
            m = embed_cnthfa(c)
            assert m.is_zero_one()
            for w in iter_words(c.alphabet, 4):
                assert m.eval(w) == c.eval(w)

    def test_weights_are_one_on_edges(self):
        c = random_cnthfa(random.Random(67))
        m = embed_cnthfa(c)
        for (q, a), targets in c.delta.items():
            for p in targets:
                assert m.psi_value(q, a, p) == ONE


class TestCrispify:
    def test_zero_one_input_adds_exactly_one_state(self):
        rng = random.Random(71)
        for _ in range(20):
            m = random_zero_one_nthfa(rng)
            c = crispify_nthfa(m)
            assert len(c.states) == len(m.states) + 1
            assert c.metadata == {}
            for w in iter_words(m.alphabet, 5):
                assert c.eval(w) == m.eval(w)

    def test_sink_is_absorbing_with_zero_final(self):
        m = random_zero_one_nthfa(random.Random(73))
        c = crispify_nthfa(m)
        sink = c.states[-1]
        assert sink == "q_aleph"
        assert c.final_map[sink] == ZERO
        for a in c.alphabet:
            assert c.delta[(sink, a)] == frozenset({sink})

    def test_sink_name_avoids_collisions(self):
        m = Nthfa(
            ["q_aleph"], ["a"], {("q_aleph", "a", "q_aleph"): ONE}, "q_aleph", {}
        )
        c = crispify_nthfa(m)
        assert c.states == ("q_aleph", "q_aleph_")

    def test_general_input_is_normalized_first(self):
        rng = random.Random(79)
        for _ in range(8):
            m, _ = random_small_range_nthfa(rng, max_vectors=6)
            if m.is_zero_one():
                continue
            c = crispify_nthfa(m)
            assert c.metadata == {"normalized": True}
            # The general path yields the vector automaton: deterministic, total.
            assert len(c.states) == len(reachable_vectors(m))
            assert all(len(c.delta[(q, a)]) == 1 for q in c.states for a in c.alphabet)
            # The paper's construction: level cuts, recomposed, then crispified.
            via_levels = crispify_nthfa(recompose(decompose(m)))
            for w in iter_words(m.alphabet, 4):
                assert c.eval(w) == m.eval(w)
                assert via_levels.eval(w) == m.eval(w)


class TestDeterminize:
    def test_language_preserved_and_complete(self):
        rng = random.Random(83)
        for _ in range(20):
            c = random_cnthfa(rng)
            d = determinize_cnthfa(c)
            for q in d.states:
                for a in d.alphabet:
                    assert (q, a) in d.delta
            for w in iter_words(c.alphabet, 5):
                assert d.eval(w) == c.eval(w)

    def test_empty_subset_carries_zero(self):
        c = Cnthfa(["q0"], ["a"], {}, "q0", {"q0": ONE})
        d = determinize_cnthfa(c)
        assert d.states == ("{q0}", "{}")
        assert d.final_map["{}"] == ZERO
        assert d.eval(("a",)) == ZERO

    def test_subset_final_values_join_members(self):
        c = Cnthfa(
            ["q0", "q1", "q2"],
            ["a"],
            {("q0", "a"): {"q1", "q2"}},
            "q0",
            {"q1": Thfe(["0", "1/2"]), "q2": Thfe(["1/4"])},
        )
        d = determinize_cnthfa(c)
        assert d.final_map["{q1,q2}"] == Thfe(["1/4", "1/2"])


class TestIntersect:
    def test_pointwise_inf_combination(self):
        rng = random.Random(89)
        for _ in range(20):
            a = random_cdthfa(rng, alphabet=["a", "b"])
            b = random_cdthfa(rng, alphabet=["a", "b"])
            p = intersect_cdthfa(a, b)
            for w in iter_words(("a", "b"), 4):
                assert p.eval(w) == inf_combination(a.eval(w), b.eval(w))

    def test_state_names_are_pairs(self, m1):
        d = determinize_cnthfa(crispify_nthfa(m1))
        p = intersect_cdthfa(d, d)
        assert p.initial == f"({d.initial},{d.initial})"

    def test_alphabets_must_agree(self):
        rng = random.Random(97)
        a = random_cdthfa(rng, alphabet=["a"])
        b = random_cdthfa(rng, alphabet=["b"])
        with pytest.raises(AlphabetMismatch):
            intersect_cdthfa(a, b)


class TestEquivalent:
    def test_machine_equals_itself_across_forms(self, m1):
        crisp = crispify_nthfa(m1)
        det = determinize_cnthfa(crisp)
        assert equivalent(m1, crisp).equivalent
        assert equivalent(crisp, det).equivalent
        assert equivalent(m1, det).equivalent

    def test_union_with_itself_changes_nothing(self, m1):
        assert equivalent(union_nthfa(m1, m1), m1).equivalent

    def test_counterexample_is_verified_and_earliest(self):
        rng = random.Random(101)
        seen_inequivalent = 0
        for _ in range(25):
            m = random_nthfa(rng, max_states=2)
            other = perturb_nthfa(rng, m)
            verdict = equivalent(m, other)
            if verdict.equivalent:
                continue
            seen_inequivalent += 1
            w = verdict.counterexample
            assert m.eval(w) != other.eval(w)
            for earlier in iter_words(m.alphabet, len(w)):
                if earlier == w:
                    break
                assert m.eval(earlier) == other.eval(earlier)
        assert seen_inequivalent > 5

    def test_distinct_constants_differ_at_lambda(self):
        a = constant_automaton(Thfe(["1/3"]), ["a"])
        b = constant_automaton(Thfe(["2/3"]), ["a"])
        verdict = equivalent(a, b)
        assert not verdict.equivalent
        assert verdict.counterexample == ()

    def test_alphabets_must_agree(self, m1):
        with pytest.raises(AlphabetMismatch):
            equivalent(m1, constant_automaton(ONE, ["z"]))

    def test_agrees_with_word_enumeration(self):
        rng = random.Random(103)
        for _ in range(15):
            m = random_nthfa(rng, max_states=2, max_symbols=2)
            for other in (perturb_nthfa(rng, m), union_nthfa(m, m)):
                verdict = equivalent(m, other)
                oracle = languages_agree_up_to(m, other, 6)
                if not oracle.equivalent:
                    # The oracle's first mismatch in enumeration order is the
                    # earliest distinguishing word.
                    assert verdict.counterexample == oracle.counterexample
                elif not verdict.equivalent:
                    # Only legitimate when the shortest distinguishing word
                    # is longer than the oracle's bound.
                    assert len(verdict.counterexample) > 6

    @pytest.fixture
    def steps(self, monkeypatch):
        """The symbols of the Nthfa._step calls made while a test runs."""
        calls = []
        step = Nthfa._step

        def counted(m, vector, a):
            calls.append(a)
            return step(m, vector, a)

        monkeypatch.setattr(Nthfa, "_step", counted)
        return calls

    def test_differing_initial_values_need_no_step(self, steps):
        rng = random.Random(7)
        for _ in range(6):
            m = random_nthfa(rng, max_states=4, pool=farey_pool(10))
        other = Nthfa(m.states, m.alphabet, m.psi, m.initial,
                      {**m.final_map, m.initial: sup_combination(m.final_map[m.initial], ONE)})
        assert m.final_map[m.initial] != ONE
        assert equivalent(m, other).counterexample == ()
        assert steps == []

    def test_never_more_steps_than_two_saturations(self, steps):
        rng = random.Random(2024)
        lazy = eager = 0
        for i in range(40):
            m = random_nthfa(rng, max_states=3, pool=farey_pool(6))
            other = perturb_nthfa(rng, m) if i % 2 == 0 else union_nthfa(m, m)
            equivalent(m, other)
            calls = len(steps)
            reachable_vectors(m)
            reachable_vectors(other)
            assert calls <= len(steps) - calls
            lazy, eager = lazy + calls, eager + len(steps) - calls
            steps.clear()
        # Inequivalent pairs stop early, so the total is strictly smaller.
        assert lazy < eager

    def test_identical_operands_share_one_view(self, steps):
        rng = random.Random(7)
        for _ in range(6):
            m = random_nthfa(rng, max_states=4, pool=farey_pool(10))
        assert len(reachable_vectors(m)) == 362
        assert len(steps) == 724  # one step per vector and symbol
        steps.clear()
        assert equivalent(m, m).equivalent
        assert len(steps) == 724
        steps.clear()
        product = intersect_cdthfa(m, m)
        assert len(steps) == 724
        # The same pairs, names and values as the product with a copy.
        copy = Nthfa(m.states, m.alphabet, m.psi, m.initial, m.final_map)
        other = intersect_cdthfa(m, copy)
        assert (product.states, product.delta, product.final_map) == (
            other.states, other.delta, other.final_map)


def _oracle_eval(x: Cnthfa | Cdthfa, w) -> Thfe:
    """The literal path recursion on the {0}/{1} embedding of ``x``."""
    return reference_eval(embed_cnthfa(x.as_cnthfa() if isinstance(x, Cdthfa) else x), w)


class TestCrispConstructionsAgainstOracle:
    """The subset and product views of crisp machines against the oracle's
    path recursion, on every word up to length 4."""

    def draws(self, rng: random.Random, count: int):
        """Cnthfas, and every third a Cdthfa, over one alphabet."""
        for i in range(count):
            draw = random_cdthfa if i % 3 == 2 else random_cnthfa
            yield draw(rng, max_states=3, alphabet=["a", "b"])

    def test_eval(self):
        empty = 0
        for x in self.draws(random.Random(10), 30):
            for w in iter_words(x.alphabet, 4):
                assert x.eval(w) == _oracle_eval(x, w)
                if isinstance(x, Cnthfa):
                    empty += not x.as_nfa().extended(x.initial, w)
        # Some runs reach the empty subset, whose value is {0}.
        assert empty
        n = random_cnthfa(random.Random(10), max_states=3, alphabet=["a", "b"])
        with pytest.raises(UnknownSymbol) as excinfo:
            n.eval(["a", "z"])
        assert excinfo.value.args == ("unknown symbol 'z'",)

    def test_determinize(self):
        for x in self.draws(random.Random(11), 30):
            d = determinize_cnthfa(x.as_cnthfa() if isinstance(x, Cdthfa) else x)
            for w in iter_words(x.alphabet, 4):
                assert d.eval(w) == _oracle_eval(x, w)

    def test_intersect(self):
        draws = list(self.draws(random.Random(12), 30))
        for a, b in zip(draws, draws[1:]):
            product = intersect_cdthfa(a, b)
            for w in iter_words(a.alphabet, 4):
                assert product.eval(w) == pairwise_inf(_oracle_eval(a, w), _oracle_eval(b, w))

    def test_equivalent(self):
        rng = random.Random(13)
        verdicts = []
        for x in self.draws(rng, 30):
            n = x.as_cnthfa() if isinstance(x, Cdthfa) else x
            # The same machine with renamed states in reverse order, and with
            # one final value re-rolled, which may or may not show.
            names = {q: f"r{q}" for q in n.states}
            renamed = Cnthfa([names[q] for q in reversed(n.states)], n.alphabet,
                             {(names[q], a): {names[p] for p in targets}
                              for (q, a), targets in n.delta.items()},
                             names[n.initial], {names[q]: v for q, v in n.final_map.items()})
            perturbed = Cnthfa(n.states, n.alphabet, n.delta, n.initial,
                               {**n.final_map, rng.choice(n.states): random_thfe(rng)})
            y = random_cnthfa(rng, max_states=3, alphabet=["a", "b"])
            for other in (renamed, perturbed, y):
                verdict = equivalent(x, other)
                verdicts.append(verdict.equivalent)
                if verdict.equivalent:
                    words = iter_words(x.alphabet, 4)
                else:
                    words = [verdict.counterexample]
                for w in words:
                    told_apart = _oracle_eval(x, w) != _oracle_eval(other, w)
                    assert told_apart == (not verdict.equivalent)
        assert 30 < verdicts.count(True) < len(verdicts)


class TestConstantAutomaton:
    def test_every_word_has_the_given_value(self):
        x = Thfe(["1/4", "2/3"])
        m = constant_automaton(x, ["a", "b"])
        for w in iter_words(m.alphabet, 3):
            assert m.eval(w) == x

    def test_range_is_singleton(self):
        x = Thfe(["1/2"])
        assert compute_range(constant_automaton(x, ["a"])) == frozenset({x})


class TestHyperbolicLanguage:
    def test_cardinality_grows_with_length(self):
        for n in range(8):
            value = hyperbolic_language_eval(("a",) * n)
            assert len(value) == n + 1

    def test_exact_degrees(self):
        assert hyperbolic_language_eval(()) == Thfe(["1/2"])
        assert hyperbolic_language_eval(("a",)) == Thfe(["1/2", "1/3"])
        assert hyperbolic_language_eval(("a", "a")) == Thfe([F(1, 2), F(1, 3), F(1, 5)])
