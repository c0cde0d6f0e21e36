import random
from fractions import Fraction

import pytest

from hfa import (
    Cdthfa,
    Cnthfa,
    Nthfa,
    ONE,
    Thfe,
    UnknownState,
    UnknownSymbol,
    ZERO,
)
from hfa.errors import IncompleteTransition
from hfa.oracle import pairwise_inf, pairwise_sup_n

from support import as_nfa, farey_pool, random_cdthfa, random_cnthfa, random_nthfa, random_thfe

F = Fraction


class TestNthfa:
    def test_frozen_evaluations(self, m1):
        assert m1.eval(()) == Thfe(["1/10"])
        assert m1.eval(("a",)) == Thfe(["1/2", "3/5", "9/10"])
        # No transition leaves q1, so two symbols reach nothing.
        assert m1.eval(("a", "a")) == ZERO

    def test_zero_weights_are_dropped(self):
        m = Nthfa(["q"], ["a"], {("q", "a", "q"): ZERO}, "q", {"q": ONE})
        assert m.psi == {}
        assert m.psi_value("q", "a", "q") == ZERO

    def test_final_map_defaults_to_zero(self, n1):
        assert n1.final_map["p0"] == ZERO

    def test_is_zero_one(self, m1):
        assert not m1.is_zero_one()
        m = Nthfa(["q"], ["a"], {("q", "a", "q"): ONE}, "q", {"q": Thfe(["1/3"])})
        assert m.is_zero_one()

    def test_psi_hat_base_cases(self, m1):
        assert m1.psi_hat("q0", (), "q0") == ONE
        assert m1.psi_hat("q0", (), "q1") == ZERO
        assert m1.psi_hat("q0", ("a",), "q1") == Thfe(["1/2", "9/10"])

    def test_unknown_names_rejected(self, m1):
        with pytest.raises(UnknownState):
            m1.psi_hat("nope", (), "q0")
        with pytest.raises(UnknownSymbol):
            m1.eval(("z",))
        with pytest.raises(UnknownState):
            Nthfa(["q"], ["a"], {}, "q", {"ghost": ONE})

    def test_transition_to_undeclared_state(self):
        with pytest.raises(UnknownState) as caught:
            Nthfa(["q"], ["a"], {("q", "a", "x"): ["1"]}, "q", {})
        assert caught.value.args == ("transition ('q', 'a', 'x'): state 'x' is not declared",)

    def test_metadata_is_copied(self):
        metadata = {"note": "x"}
        m = Nthfa(["q"], ["a"], {}, "q", {}, metadata)
        metadata["note"] = "changed"
        assert m.metadata == {"note": "x"}


class TestEvaluationKernel:
    """advance and value_of against a dense loop over every state pair,
    written with the oracle's literal operations."""

    # Degrees outside Farey(10), so that vectors carry degrees the machine
    # has nowhere.
    FOREIGN = (F(1, 11), F(4, 13), F(12, 17))

    @staticmethod
    def dense_advance(m, vector, a):
        return {
            p: pairwise_sup_n(
                pairwise_inf(vector[q], m.psi_value(q, a, p)) for q in m.states
            )
            for p in m.states
        }

    @staticmethod
    def dense_value(m, vector):
        return pairwise_sup_n(pairwise_inf(vector[q], m.final_map[q]) for q in m.states)

    @staticmethod
    def random_vector(rng, m, pool):
        # Thfe(["0"]) is equal to ZERO but another object.
        return {
            q: rng.choices([random_thfe(rng, pool), ZERO, Thfe(["0"])], weights=(6, 2, 1))[0]
            for q in m.states
        }

    def test_advance_matches_dense_loop(self):
        rng = random.Random(44)
        farey = farey_pool(10)
        pool = farey + self.FOREIGN
        foreign_seen = 0
        for _ in range(80):
            m = random_nthfa(rng, max_states=4, max_symbols=2, pool=farey, density=0.5)
            for _ in range(4):
                vector = self.random_vector(rng, m, pool)
                foreign_seen += any(d in self.FOREIGN for x in vector.values() for d in x)
                for a in m.alphabet:
                    assert m.advance(vector, a) == self.dense_advance(m, vector, a)
                assert m.value_of(vector) == self.dense_value(m, vector)
        assert foreign_seen > 50

    def test_errors_and_messages(self, m1):
        vector = m1.initial_vector()
        cases = [
            (lambda: m1.advance(vector, "z"), UnknownSymbol, "unknown symbol 'z'"),
            (lambda: m1.eval(("a", "z")), UnknownSymbol, "unknown symbol 'z'"),
            (lambda: m1.psi_hat("q0", ("z",), "q1"), UnknownSymbol, "unknown symbol 'z'"),
            (lambda: m1.psi_hat("q0", (), "nope"), UnknownState, "unknown state 'nope'"),
            (lambda: m1.psi_hat("nope", ("a",), "q0"), UnknownState, "unknown state 'nope'"),
            # psi_hat names an unknown p before it reads q or the word.
            (lambda: m1.psi_hat("nope", ("z",), "nope2"), UnknownState, "unknown state 'nope2'"),
            (lambda: m1.psi_hat("q0", ("z",), "nope"), UnknownState, "unknown state 'nope'"),
            (lambda: m1.initial_vector("nope"), UnknownState, "unknown state 'nope'"),
            (lambda: m1.advance({"q0": ONE}, "a"), UnknownState,
             "the vector has no entry for state 'q1'"),
            (lambda: m1.value_of({"q0": ONE}), UnknownState,
             "the vector has no entry for state 'q1'"),
            # A missing entry is reported before an unknown symbol.
            (lambda: m1.advance({"q0": ONE}, "z"), UnknownState,
             "the vector has no entry for state 'q1'"),
            (lambda: m1.psi_value("q0", "a", "nope"), UnknownState,
             "unknown state in ('q0', 'a', 'nope')"),
            (lambda: m1.psi_value("q0", "z", "q1"), UnknownSymbol, "unknown symbol 'z'"),
            (lambda: m1.psi_value("nope", "z", "q1"), UnknownState,
             "unknown state in ('nope', 'z', 'q1')"),
        ]
        for call, error, message in cases:
            with pytest.raises(error) as caught:
                call()
            assert caught.value.args == (message,)


class TestCnthfa:
    def test_eval_joins_reached_finals(self):
        c = Cnthfa(
            ["q0", "q1", "q2"],
            ["a"],
            {("q0", "a"): {"q1", "q2"}},
            "q0",
            {"q1": Thfe(["0", "1/2"]), "q2": Thfe(["1/4"])},
        )
        # Pairwise maxima of {0, 1/2} and {1/4}, not a set union.
        assert c.eval(("a",)) == Thfe(["1/4", "1/2"])

    def test_empty_reach_evaluates_to_zero(self):
        c = Cnthfa(["q0"], ["a"], {}, "q0", {"q0": ONE})
        assert c.eval(("a",)) == ZERO

    def test_as_nfa_roundtrip(self):
        rng = random.Random(3)
        c = random_cnthfa(rng)
        n = as_nfa(c, finals=[c.states[0]])
        assert n.states == c.states
        assert n.delta == c.delta
        assert n.finals == frozenset({c.states[0]})


class TestCdthfa:
    def test_eval_follows_unique_run(self):
        d = Cdthfa(
            ["q0", "q1"],
            ["a"],
            {("q0", "a"): "q1", ("q1", "a"): "q0"},
            "q0",
            {"q0": Thfe(["1/3"]), "q1": Thfe(["2/3"])},
        )
        assert d.eval(()) == Thfe(["1/3"])
        assert d.eval(("a",)) == Thfe(["2/3"])
        assert d.eval(("a", "a")) == Thfe(["1/3"])

    def test_partial_delta_rejected(self):
        with pytest.raises(IncompleteTransition):
            Cdthfa(["q"], ["a"], {}, "q", {})

    def test_as_cnthfa_preserves_language(self):
        rng = random.Random(11)
        for _ in range(20):
            d = random_cdthfa(rng)
            c = d.as_cnthfa()
            for _ in range(20):
                w = tuple(rng.choice(d.alphabet) for _ in range(rng.randint(0, 5)))
                assert c.eval(w) == d.eval(w)
