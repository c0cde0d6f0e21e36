import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hfa.classic
from hfa import Cnthfa, Dfa, Nfa, UnknownState, UnknownSymbol, determinize_cnthfa, subset_name
from hfa.errors import ClosureBudgetExceeded, IncompleteTransition

from support import as_nfa, random_cnthfa, successors


def even_a_dfa() -> Dfa:
    return Dfa(
        ["even", "odd"],
        ["a", "b"],
        {
            ("even", "a"): "odd",
            ("even", "b"): "even",
            ("odd", "a"): "even",
            ("odd", "b"): "odd",
        },
        "even",
        ["even"],
    )


def ends_in_ab_nfa() -> Nfa:
    return Nfa(
        ["s", "sa", "sab"],
        ["a", "b"],
        {
            ("s", "a"): {"s", "sa"},
            ("s", "b"): {"s"},
            ("sa", "b"): {"sab"},
        },
        "s",
        ["sab"],
    )


class TestDfa:
    def test_accepts_counts_a_parity(self):
        d = even_a_dfa()
        assert d.accepts(())
        assert not d.accepts(("a",))
        assert d.accepts(("a", "b", "a"))

    def test_extended_from_arbitrary_state(self):
        d = even_a_dfa()
        assert d.extended("odd", ("a",)) == "even"

    def test_partial_delta_rejected(self):
        with pytest.raises(IncompleteTransition):
            Dfa(["q"], ["a"], {}, "q", [])

    def test_unknown_names_rejected(self):
        with pytest.raises(UnknownState):
            Dfa(["q"], ["a"], {("q", "a"): "r"}, "q", [])
        with pytest.raises(UnknownState):
            Dfa(["q"], ["a"], {("q", "a"): "q"}, "missing", [])
        with pytest.raises(UnknownSymbol):
            Dfa(["q"], ["a"], {("q", "a"): "q", ("q", "b"): "q"}, "q", [])
        with pytest.raises(UnknownSymbol):
            even_a_dfa().extended("even", ("c",))

    def test_extended_from_unknown_state(self):
        for word in (("a",), ("z",)):  # the state is checked before the word
            with pytest.raises(UnknownState) as caught:
                even_a_dfa().extended("nope", word)
            assert caught.value.args == ("unknown state 'nope'",)

    def test_alphabet_rules(self):
        with pytest.raises(ValueError):
            Dfa(["q"], [], {}, "q", [])
        with pytest.raises(ValueError):
            Dfa(["q"], ["a", "a"], {("q", "a"): "q"}, "q", [])
        with pytest.raises(ValueError):
            Dfa(["q"], ["x.y"], {("q", "x.y"): "q"}, "q", [])


class TestNfa:
    def test_partial_delta_allowed_and_empty_reach(self):
        n = ends_in_ab_nfa()
        assert n.extended("sab", ("a",)) == frozenset()
        assert not n.accepts(("a", "a", "b", "b"))
        assert n.accepts(("b", "a", "b"))

    def test_empty_target_sets_are_dropped(self):
        n = Nfa(["q"], ["a"], {("q", "a"): set()}, "q", [])
        assert ("q", "a") not in n.delta

    def test_transition_with_undeclared_symbol(self):
        with pytest.raises(UnknownSymbol) as caught:
            Nfa(["q"], ["a"], {("q", "b"): ["q"]}, "q", [])
        assert caught.value.args == ("transition ('q', 'b'): symbol 'b' is not declared",)

    def test_extended_from_unknown_state(self):
        for word in (("a",), ("z",)):  # the state is checked before the word
            with pytest.raises(UnknownState) as caught:
                ends_in_ab_nfa().extended("nope", word)
            assert caught.value.args == ("unknown state 'nope'",)

    def test_successors_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            successors(ends_in_ab_nfa(), "s", "z")


class TestSubsetConstruction:
    def test_subset_name_sorts_members(self):
        assert subset_name({"b", "a"}) == "{a,b}"
        assert subset_name(()) == "{}"
        # Separators inside member names are escaped, keeping names injective.
        assert subset_name({"a,b"}) == "{a\\,b}" != subset_name({"a", "b"})
        assert subset_name({"a\\", "b"}) == "{a\\\\,b}"

    def test_to_dfa_structure(self):
        d = ends_in_ab_nfa().to_dfa()
        assert d.initial == "{s}"
        assert d.states == ("{s}", "{s,sa}", "{s,sab}")
        assert d.finals == frozenset({"{s,sab}"})
        assert d.delta[("{s,sab}", "b")] == "{s}"

    def test_to_dfa_materializes_empty_subset_as_sink(self):
        n = Nfa(["q0", "q1"], ["a"], {("q0", "a"): {"q1"}}, "q0", ["q1"])
        d = n.to_dfa()
        assert d.states == ("{q0}", "{q1}", "{}")
        assert d.delta[("{q1}", "a")] == "{}"
        assert d.delta[("{}", "a")] == "{}"
        assert "{}" not in d.finals

    def test_to_dfa_preserves_language(self):
        rng = random.Random(7)
        for _ in range(30):
            n = as_nfa(random_cnthfa(rng))
            finals = [q for q in n.states if rng.random() < 0.5]
            n = Nfa(n.states, n.alphabet, n.delta, n.initial, finals)
            d = n.to_dfa()
            words = [()]
            for _ in range(40):
                length = rng.randint(1, 5)
                words.append(tuple(rng.choice(n.alphabet) for _ in range(length)))
            for w in words:
                assert n.accepts(w) == d.accepts(w)

    def test_to_dfa_budget(self, monkeypatch):
        n = ends_in_ab_nfa()
        monkeypatch.setattr(hfa.classic, "DEFAULT_MAX_VECTORS", 3)
        assert len(n.to_dfa().states) == 3
        monkeypatch.setattr(hfa.classic, "DEFAULT_MAX_VECTORS", 2)
        with pytest.raises(ClosureBudgetExceeded, match="more than 2 reachable states"):
            n.to_dfa()

    def test_to_dfa_is_bounded_by_default(self, monkeypatch):
        # One budget, read when a construction runs, bounds the subsets of an
        # Nfa and of a Cnthfa on the same transitions alike.
        n = ends_in_ab_nfa()
        monkeypatch.setattr(hfa.classic, "DEFAULT_MAX_VECTORS", 2)
        with pytest.raises(ClosureBudgetExceeded):
            n.to_dfa()
        crisp = Cnthfa(n.states, n.alphabet, n.delta, n.initial, {})
        with pytest.raises(ClosureBudgetExceeded, match="more than 2 reachable states"):
            determinize_cnthfa(crisp)

    def test_to_dfa_is_deterministic(self):
        a = ends_in_ab_nfa().to_dfa()
        b = ends_in_ab_nfa().to_dfa()
        assert a.states == b.states
        assert a.delta == b.delta


@st.composite
def nfas(draw) -> Nfa:
    """Nfas of 1-5 states over 1-2 symbols whose transition map may be
    partial and may list empty target sets."""
    states = [f"q{i}" for i in range(draw(st.integers(1, 5)))]
    alphabet = ["a", "b"][: draw(st.integers(1, 2))]
    delta = draw(st.dictionaries(
        st.tuples(st.sampled_from(states), st.sampled_from(alphabet)),
        st.frozensets(st.sampled_from(states)),
    ))
    return Nfa(states, alphabet, delta, states[0], [])


def step_by_definition(n: Nfa, subset: frozenset, a: str) -> frozenset:
    return frozenset(p for q in subset for p in successors(n, q, a))


class TestSubsetMasks:
    """Subsets run as int masks inside an Nfa; they must behave as the
    frozensets of state names they stand for."""

    @given(nfas(), st.data())
    def test_step_is_the_union_of_successors(self, n, data):
        subset = data.draw(st.frozensets(st.sampled_from(n.states)))  # {} included
        a = data.draw(st.sampled_from(n.alphabet))
        expected = step_by_definition(n, subset, a)
        assert n._step(n._mask(subset), a) == n._mask(expected)
        assert frozenset(n._members(n._mask(expected))) == expected

    @given(nfas(), st.data())
    def test_extended_folds_the_step(self, n, data):
        q = data.draw(st.sampled_from(n.states))
        w = data.draw(st.lists(st.sampled_from(n.alphabet), max_size=6))
        expected = frozenset({q})
        for a in w:
            expected = step_by_definition(n, expected, a)
        assert n.extended(q, w) == expected

    def test_unknown_symbol_from_the_empty_subset(self):
        n = Nfa(["q0", "q1"], ["a"], {("q0", "a"): {"q1"}}, "q0", [])
        assert n.extended("q0", ["a", "a"]) == frozenset()
        with pytest.raises(UnknownSymbol):
            n.extended("q0", ["a", "a", "z"])
