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
    parse_document,
    recompose,
    serialize_automaton,
    sup_combination,
    union_nthfa,
)
from hfa.oracle import (
    empirical_range,
    iter_words,
    languages_agree_up_to,
    pairwise_inf,
    pairwise_sup_n,
    reference_eval,
)

from support import (
    as_nfa,
    constant_automaton,
    farey_pool,
    h_union_pointwise,
    hyperbolic_language_eval,
    level_automaton,
    perturb_nthfa,
    random_cdthfa,
    random_cnthfa,
    random_nthfa,
    random_relabeling,
    random_small_range_nthfa,
    random_thfe,
    random_zero_one_nthfa,
    reachable_vectors,
    relabel,
    relabel_nthfa,
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

    def test_a_vector_is_numbered_once_whatever_objects_hold_its_degrees(self):
        """A machine built twice, the second time with a new Fraction for
        each degree (as a machine read from integers is): each view numbers
        equal vectors once, and the two agree on every construction."""
        rng = random.Random(26)
        for _ in range(30):
            m = random_nthfa(rng, max_states=3, pool=farey_pool(6))
            twin = with_new_fractions(m)
            assert compute_range(twin) == compute_range(m)
            sizes = [len(nfa.states) for _, nfa in decompose(m).levels]
            assert [len(nfa.states) for _, nfa in decompose(twin).levels] == sizes
            view = twin._view()
            view.explore()
            assert len({tuple(x.degrees for x in v) for v in view.states}) == len(view.states)
            assert len(view.states) == sizes[0]
            assert equivalent(m, twin).equivalent


def with_new_fractions(m: Nthfa) -> Nthfa:
    """``m`` with a new Fraction object for each degree of each weight and
    final value."""
    def new(x: Thfe) -> list[Fraction]:
        return [Fraction(d.numerator, d.denominator) for d in x]
    return Nthfa(m.states, m.alphabet, {key: new(w) for key, w in m.psi.items()}, m.initial,
                 {q: new(v) for q, v in m.final_map.items()})


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

    def test_keys_ascend_by_degree_tuple(self, fixtures_dir):
        """{0, 1} sorts before {1/2} by ascending degree tuples, and after
        it by reversed ones."""
        m = parse_document((fixtures_dir / "key_order.json").read_text("utf-8")).automaton
        keys = [k for k, _ in decompose(m).levels]
        assert keys == [ZERO, Thfe(["0", "1"]), Thfe(["1/2"])]
        assert keys != sorted(keys, key=lambda t: t.degrees[::-1])

    def test_eval_decomposition_matches_machine(self):
        rng = random.Random(53)
        for _ in range(10):
            m = random_nthfa(rng, max_states=2)
            d = decompose(m)
            assert equivalent(d, m).equivalent
            assert compute_range(d) == compute_range(m)
            p = intersect_cdthfa(d, m)
            for w in iter_words(m.alphabet, 4):
                assert eval_decomposition(d, w) == m.eval(w) == p.eval(w)

    def test_levels_on_one_table_step_once(self, monkeypatch):
        """decompose's levels share one transition table, so a word steps it
        once per symbol; levels on tables of their own step one each."""
        rng = random.Random(7)
        for _ in range(6):
            m = random_nthfa(rng, max_states=4, pool=farey_pool(10))
        l = decompose(m)
        assert len(l.levels) == 56
        first = LevelDecomposition(l.alphabet, l.levels[:3])
        copies = LevelDecomposition(l.alphabet, [
            (k, Nfa(nfa.states, nfa.alphabet, nfa.delta, nfa.initial, nfa.finals))
            for k, nfa in first.levels
        ])
        words = list(iter_words(m.alphabet, 6))
        assert len(words) == 127
        calls = []
        step = Nfa._step

        def counted(nfa, subset, a):
            calls.append(a)
            return step(nfa, subset, a)

        monkeypatch.setattr(Nfa, "_step", counted)
        values = [l.eval(w) for w in words]
        assert len(calls) == sum(map(len, words)) == 642
        calls.clear()
        assert [copies.eval(w) for w in words] == [first.eval(w) for w in words]
        assert len(calls) == 4 * 642  # 3 for the copies, 1 for the shared table
        monkeypatch.undo()
        assert values == [m.eval(w) for w in words]

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
        l = LevelDecomposition(["a", "b"], [])
        r = recompose(l)
        assert r.states == ("v0",)
        for w in iter_words(("a", "b"), 3):
            assert r.eval(w) == value_by_runs(l, w) == ZERO
        for x in (l, r):
            with pytest.raises(UnknownSymbol, match="unknown symbol 'z'"):
                x.eval(("z",))

    def test_result_is_zero_one(self, m1):
        assert recompose(decompose(m1)).is_zero_one()

    def test_arbitrary_levels_against_runs(self):
        rng = random.Random(2027)
        nondeterministic = partial = reordered = 0
        for _ in range(40):
            l = random_levels(rng)
            r = recompose(l)
            assert r.states == tuple(f"v{i}" for i in range(len(r.states)))
            for w in iter_words(l.alphabet, 4):
                assert r.eval(w) == l.eval(w) == value_by_runs(l, w), (l.levels, w)
            assert equivalent(l, r).equivalent
            for _, nfa in l.levels:
                rows = [nfa.delta.get((q, a), ()) for q in nfa.states for a in nfa.alphabet]
                nondeterministic += any(len(targets) > 1 for targets in rows)
                partial += any(not targets for targets in rows)
                reordered += nfa.alphabet != l.alphabet
        assert min(nondeterministic, partial, reordered) > 10

    def test_unfaithful_levels(self):
        # Level {1/2} rejects "b" although "b" is worth {1}: the document is
        # no set of level cuts, and recompose still computes its value.
        l = LevelDecomposition(["a", "b"], [
            (Thfe(["1/2"]), Nfa(["s", "t"], ["a", "b"], {("s", "a"): ["t"]}, "s", ["t"])),
            (ONE, Nfa(["s", "t"], ["a", "b"], {("s", "b"): ["t"]}, "s", ["t"])),
        ])
        r = recompose(l)
        assert [r.eval(w) for w in [(), ("a",), ("b",), ("a", "b")]] == [
            ZERO, Thfe(["1/2"]), ONE, ZERO]
        for w in iter_words(l.alphabet, 4):
            assert r.eval(w) == value_by_runs(l, w)

    def test_states_at_most_the_vectors(self):
        rng = random.Random(2024)
        for _ in range(30):
            m = random_nthfa(rng, max_states=3, pool=farey_pool(6))
            assert len(recompose(decompose(m)).states) <= len(reachable_vectors(m))


def accepts_by_runs(nfa: Nfa, w, q: str | None = None) -> bool:
    """Whether some run of ``nfa`` on ``w`` from ``q`` (default the initial
    state) ends in a final state, every run followed through ``nfa.delta``."""
    q = nfa.initial if q is None else q
    if not w:
        return q in nfa.finals
    return any(accepts_by_runs(nfa, w[1:], p) for p in nfa.delta.get((q, w[0]), ()))


def value_by_runs(l: LevelDecomposition, w) -> Thfe:
    """The value a level document gives ``w``: the pairwise join of the keys
    of the levels that accept it."""
    return pairwise_sup_n(k for k, nfa in l.levels if accepts_by_runs(nfa, w))


def random_levels(rng: random.Random) -> LevelDecomposition:
    """Up to four levels over a, b with distinct keys, each a random,
    usually nondeterministic and partial NFA, half of them declaring the
    alphabet as b, a."""
    levels: dict[Thfe, Nfa] = {}
    for _ in range(rng.randint(1, 4)):
        states = [f"s{j}" for j in range(rng.randint(1, 3))]
        alphabet = rng.choice([["a", "b"], ["b", "a"]])
        delta = {}
        for q in states:
            for a in alphabet:
                delta[(q, a)] = [p for p in states if rng.random() < 0.45]
        finals = [q for q in states if rng.random() < 0.5]
        levels[random_thfe(rng)] = Nfa(states, alphabet, delta, states[0], finals)
    return LevelDecomposition(["a", "b"], levels.items())


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

    def test_nthfa_is_returned_as_it_is(self, m1):
        assert embed_cnthfa(m1) is m1


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

    def test_row_with_one_zero_target_goes_to_sink(self):
        # Row (q0, a) has one {0} target, q1; row (q1, a) has none.
        m = Nthfa(["q0", "q1"], ["a"], {
            ("q0", "a", "q0"): ONE, ("q1", "a", "q0"): ONE, ("q1", "a", "q1"): ONE,
        }, "q0", {"q1": ONE})
        c = crispify_nthfa(m)
        assert c.delta[("q0", "a")] == frozenset({"q0", "q_aleph"})
        assert c.delta[("q1", "a")] == frozenset({"q0", "q1"})
        assert c.delta[("q_aleph", "a")] == frozenset({"q_aleph"})

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


def _oracle_eval(x: Nthfa | Cnthfa | Cdthfa, w) -> Thfe:
    """The literal path recursion on ``x``, a crisp machine on its {0}/{1}
    embedding."""
    return reference_eval(embed_cnthfa(x), w)


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
                    empty += not as_nfa(x).extended(x.initial, w)
        # Some runs reach the empty subset, whose value is {0}.
        assert empty
        for draw in (random_cnthfa, random_cdthfa):
            x = draw(random.Random(10), max_states=3, alphabet=["a", "b"])
            with pytest.raises(UnknownSymbol) as excinfo:
                x.eval(["a", "z"])
            assert excinfo.value.args == ("unknown symbol 'z'",)

    def test_range_and_decompose_match_the_embedding(self):
        """compute_range and decompose of a crisp machine equal those of its
        {0}/{1} embedding, the decomposition byte for byte."""
        empty = 0
        for x in self.draws(random.Random(14), 60):
            m = embed_cnthfa(x)
            assert compute_range(x) == compute_range(m)
            assert serialize_automaton(decompose(x)) == serialize_automaton(decompose(m))
            if isinstance(x, Cnthfa):
                empty += "{}" in determinize_cnthfa(x).states
        # Some partial Cnthfas reach the empty subset, whose value is {0}.
        assert empty

    def test_determinize(self):
        for x in self.draws(random.Random(11), 30):
            d = determinize_cnthfa(x)
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


class TestWeightedConstructionsAgainstOracle:
    """union, crispify and recompose against the oracle's path recursion on
    their inputs, on every word up to length 3."""

    def test_union(self):
        rng = random.Random(15)
        draws = (random_nthfa, random_cnthfa, random_cdthfa)
        for draw_a in draws:
            for draw_b in draws:
                for _ in range(3):
                    a = draw_a(rng, max_states=3, alphabet=["a", "b"])
                    b = draw_b(rng, max_states=3, alphabet=["a", "b"])
                    u = union_nthfa(a, b)
                    for w in iter_words(u.alphabet, 3):
                        want = pairwise_sup_n([_oracle_eval(a, w), _oracle_eval(b, w)])
                        assert u.eval(w) == want, (a, b, w)

    def test_crispify_and_recompose(self):
        rng = random.Random(16)
        normalized = 0
        for i in range(20):
            draw = random_zero_one_nthfa if i % 2 else random_nthfa
            m = draw(rng, max_states=3, alphabet=["a", "b"])
            c, r = crispify_nthfa(m), recompose(decompose(m))
            normalized += bool(c.metadata)
            for w in iter_words(m.alphabet, 3):
                assert c.eval(w) == r.eval(w) == reference_eval(m, w), (m, w)
        # Both crispify paths: the zero-one sink and the vector automaton.
        assert 0 < normalized < 20


class TestMetamorphicLaws:
    """Degrees matter only by their order, and states only by their names.
    No operation creates a degree and the closed forms only compare degrees,
    so a strictly increasing relabeling f of the degrees that fixes 0 and 1
    commutes with every construction; and permuting an Nthfa's declared
    states changes no output whose states are numbered v0, v1, ... .  Both
    laws hold at any length, so they need no oracle."""

    POOL = farey_pool(6)

    def draws(self, seed: int, count: int):
        """Nthfas on 1-3 states with Farey(6) degrees over one alphabet, each
        with a second machine (re-rolled, its own union, or drawn anew) and
        its own relabeling."""
        rng = random.Random(seed)
        for i in range(count):
            a = random_nthfa(rng, max_states=3, alphabet=["a", "b"], pool=self.POOL)
            if i % 3 == 0:
                b = perturb_nthfa(rng, a)
            elif i % 3 == 1:
                b = union_nthfa(a, a)
            else:
                b = random_nthfa(rng, max_states=3, alphabet=["a", "b"], pool=self.POOL)
            yield a, b, random_relabeling(rng, self.POOL)

    def test_relabeling_commutes_with_eval_range_and_decompose(self):
        for m, _, f in self.draws(281, 30):
            fm = relabel_nthfa(f, m)
            for w in iter_words(m.alphabet, 4):
                assert fm.eval(w) == relabel(f, m.eval(w)), (m, w)
            assert compute_range(fm) == {relabel(f, x) for x in compute_range(m)}
            levels, relabeled = decompose(m).levels, decompose(fm).levels
            assert [k for k, _ in relabeled] == [relabel(f, k) for k, _ in levels]
            assert ([serialize_automaton(nfa) for _, nfa in relabeled]
                    == [serialize_automaton(nfa) for _, nfa in levels])

    def test_relabeling_commutes_with_union_and_equivalent(self):
        verdicts = []
        for a, b, f in self.draws(282, 30):
            fa, fb = relabel_nthfa(f, a), relabel_nthfa(f, b)
            assert equivalent(union_nthfa(fa, fb), relabel_nthfa(f, union_nthfa(a, b))).equivalent
            verdict = equivalent(a, b)
            assert equivalent(fa, fb) == verdict, (a, b)
            verdicts.append(verdict.equivalent)
        # Both verdicts occur, so counterexamples are compared too.
        assert 0 < verdicts.count(True) < len(verdicts)

    def test_permuting_states_changes_no_numbered_output(self):
        rng = random.Random(283)
        general = 0
        for m, _, _ in self.draws(284, 30):
            states = rng.sample(m.states, len(m.states))
            p = Nthfa(states, m.alphabet, m.psi, m.initial, m.final_map)
            outputs = [decompose, lambda x: recompose(decompose(x))]
            if not m.is_zero_one():
                outputs.append(crispify_nthfa)  # the vector automaton
                general += 1
            for output in outputs:
                assert serialize_automaton(output(p)) == serialize_automaton(output(m)), m
        assert general


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
