from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfa import (
    ONE,
    ZERO,
    ClosureBudgetExceeded,
    DegreeOutOfRange,
    InvalidDegree,
    InvalidTHFE,
    Thfe,
    format_degree,
    inf_combination,
    leq,
    parse_degree,
    sup_combination,
    sup_combination_n,
)
from hfa.hfe import DegreeCodec, _trusted
from hfa.hesitant import Nthfa
from hfa.oracle import pairwise_inf, pairwise_leq, pairwise_sup, pairwise_sup_n, reference_eval
from support import generated_closure, is_degenerate, path_join

F = Fraction

degrees = st.fractions(min_value=0, max_value=1, max_denominator=12)
thfes = st.builds(Thfe, st.lists(degrees, min_size=1, max_size=4))


def spellings(d: Fraction) -> st.SearchStrategy:
    """The spellings of ``d`` that Thfe takes: reduced and unreduced "p/q"
    text, a decimal where one is exact, and a new Fraction object each draw."""
    texts = [f"{d.numerator}/{d.denominator}", f"{3 * d.numerator}/{3 * d.denominator}"]
    for places in range(19):
        if (d * 10**places).denominator == 1:
            whole, part = divmod(int(d * 10**places), 10**places)
            texts.append(f"{whole}.{part:0{places}d}" if places else str(whole))
            break
    return st.sampled_from(texts) | st.builds(lambda: Fraction(d.numerator, d.denominator))


class TestParseDegree:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("0", F(0)),
            ("1", F(1)),
            ("1/2", F(1, 2)),
            ("2/4", F(1, 2)),
            ("9/10", F(9, 10)),
            ("0.5", F(1, 2)),
            ("0.35", F(7, 20)),
            ("0.125", F(1, 8)),
            ("1.0", F(1)),
            ("0.000000000000000001", F(1, 10**18)),
        ],
    )
    def test_exact_text_forms(self, text, expected):
        assert parse_degree(text) == expected

    def test_decimal_and_fraction_spellings_coincide(self):
        assert parse_degree("0.5") == parse_degree("1/2")

    def test_int_and_fraction_inputs(self):
        assert parse_degree(1) == F(1)
        assert parse_degree(F(3, 7)) == F(3, 7)

    def test_float_rejected(self):
        with pytest.raises(InvalidDegree):
            parse_degree(0.5)

    @pytest.mark.parametrize("text", [
        "", "abc", "1/0", "-1/2", "1e-3", ".5", "1/2/3",
        # More digits than int() converts by default (4300).
        pytest.param("1/" + "1" * 5000, id="long-denominator"),
        pytest.param("1" * 5000 + "/2", id="long-numerator"),
        pytest.param("0" * 5000 + ".5", id="long-decimal"),
    ])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(InvalidDegree):
            parse_degree(text)

    def test_more_than_18_fractional_digits_rejected(self):
        with pytest.raises(InvalidDegree):
            parse_degree("0." + "1" * 19)

    @pytest.mark.parametrize("value", ["3/2", "1.5", 2, F(-1, 2)])
    def test_out_of_range_rejected(self, value):
        with pytest.raises(DegreeOutOfRange):
            parse_degree(value)

    @pytest.mark.parametrize("value, expected", [
        (0, F(0)), (1, F(1)), ("1/1", F(1)), ("5/5", F(1)), (F(1, 10**40), F(1, 10**40)),
    ])
    def test_bounds_are_inclusive(self, value, expected):
        assert parse_degree(value) == expected

    @pytest.mark.parametrize("value, shown", [
        ("3/2", "3/2"), (2, "2"), (F(-1, 3), "-1/3"),
        (F(10**40 + 1, 10**40), f"{10**40 + 1}/{10**40}"),
    ])
    def test_out_of_range_message(self, value, shown):
        with pytest.raises(DegreeOutOfRange, match=rf"^degree {shown} outside \[0, 1\]$"):
            parse_degree(value)


class TestFormatDegree:
    def test_integers_render_plain(self):
        assert format_degree(F(0)) == "0"
        assert format_degree(F(1)) == "1"

    def test_fractions_render_reduced(self):
        assert format_degree(F(1, 2)) == "1/2"
        assert format_degree(F(2, 4)) == "1/2"

    @given(degrees)
    def test_round_trips_through_parse(self, d):
        assert parse_degree(format_degree(d)) == d


class TestThfe:
    def test_canonicalizes_duplicates_and_order(self):
        assert Thfe(["0.5", "1/2", "1/4"]).degrees == (F(1, 4), F(1, 2))

    def test_empty_rejected(self):
        with pytest.raises(InvalidTHFE):
            Thfe([])

    def test_equality_and_hash_follow_degrees(self):
        assert Thfe(["1/2", "1"]) == Thfe(["1", "2/4"])
        assert hash(Thfe(["1/2"])) == hash(Thfe(["0.5"]))
        assert Thfe(["1/2"]) != Thfe(["1/3"])
        x, y = Thfe([F(1, 2), F(3, 4)]), Thfe([F(3, 4), F(1, 2)])
        assert x.degrees[0] is not y.degrees[0]
        assert len({x, y, Thfe(["0.5", "6/8"]), Thfe(["2/4", "0.75"])}) == 1

    @settings(max_examples=100)
    @given(st.lists(degrees, min_size=1, max_size=4), st.lists(degrees, min_size=1, max_size=4),
           st.booleans(), st.data())
    def test_equal_exactly_when_degrees_are_and_equal_ones_hash_equal(self, xs, ys, same, data):
        """Whatever spelling or Fraction object holds each degree: "1/2",
        "2/4", "0.5" and each new Fraction(1, 2) make one THFE."""
        if same:
            ys = data.draw(st.permutations(xs))
        x = Thfe([data.draw(spellings(d)) for d in xs])
        y = Thfe([data.draw(spellings(d)) for d in ys])
        assert (x == y) == (x.degrees == y.degrees) == (set(xs) == set(ys))
        if x == y:
            assert hash(x) == hash(y)
            assert len({x, y}) == 1

    def test_immutable(self):
        x = Thfe(["1/2"])
        with pytest.raises(AttributeError):
            x.degrees = ()

    def test_container_protocol(self):
        x = Thfe(["1/4", "3/4"])
        assert len(x) == 2
        assert F(1, 4) in x
        assert F(1, 2) not in x
        assert list(x) == [F(1, 4), F(3, 4)]

    def test_text_forms(self):
        x = Thfe(["9/10", "1/2"])
        assert str(x) == "{1/2, 9/10}"
        assert repr(x) == "Thfe(['1/2', '9/10'])"

    def test_is_degenerate(self):
        assert is_degenerate(Thfe(["1/2"]))
        assert not is_degenerate(Thfe(["0", "1"]))


class TestCombinations:
    def test_inf_combination_example(self):
        x = Thfe(["1/2", "9/10"])
        y = Thfe(["3/5", "1"])
        assert inf_combination(x, y) == Thfe(["1/2", "3/5", "9/10"])

    def test_sup_combination_example(self):
        x = Thfe(["0", "1/4"])
        y = Thfe(["0", "1/2"])
        assert sup_combination(x, y) == Thfe(["0", "1/4", "1/2"])

    @given(thfes)
    def test_identities(self, x):
        assert inf_combination(x, ONE) == x
        assert sup_combination(x, ZERO) == x

    @given(thfes)
    def test_annihilators(self, x):
        assert inf_combination(x, ZERO) == ZERO
        assert sup_combination(x, ONE) == ONE

    @given(thfes, thfes)
    def test_commutative(self, x, y):
        assert inf_combination(x, y) == inf_combination(y, x)
        assert sup_combination(x, y) == sup_combination(y, x)

    @settings(max_examples=60)
    @given(thfes, thfes, thfes)
    def test_associative(self, x, y, z):
        assert inf_combination(inf_combination(x, y), z) == inf_combination(
            x, inf_combination(y, z)
        )
        assert sup_combination(sup_combination(x, y), z) == sup_combination(
            x, sup_combination(y, z)
        )

    @given(thfes)
    def test_idempotent(self, x):
        assert inf_combination(x, x) == x
        assert sup_combination(x, x) == x

    def test_nary_sup_of_nothing_is_zero(self):
        assert sup_combination_n([]) == ZERO

    def test_nary_sup_folds_left(self):
        family = [Thfe(["1/4"]), Thfe(["1/2", "3/4"]), Thfe(["0"])]
        expected = sup_combination(
            sup_combination(sup_combination(ZERO, family[0]), family[1]), family[2]
        )
        assert sup_combination_n(family) == expected


class TestClosedFormsMatchDefinitions:
    """The closed forms against the literal pairwise operations of
    hfa.oracle; every result must also be in canonical form, since the
    closed forms wrap their degree tuples without re-parsing them."""

    @given(thfes, thfes)
    def test_inf_combination(self, x, y):
        result = inf_combination(x, y)
        assert result == pairwise_inf(x, y)
        assert result == Thfe(result.degrees)

    @given(thfes, thfes)
    def test_sup_combination(self, x, y):
        result = sup_combination(x, y)
        assert result == pairwise_sup(x, y)
        assert result == Thfe(result.degrees)

    @given(st.lists(thfes, max_size=4))
    def test_sup_combination_n(self, family):
        result = sup_combination_n(family)
        assert result == pairwise_sup_n(family)
        assert result == Thfe(result.degrees)
        assert sup_combination_n(iter(family)) == result

    @given(st.lists(thfes, max_size=5), st.lists(thfes, max_size=3))
    def test_mask_join(self, family, others):
        # The universe may hold degrees no member has, as it does when a
        # machine's subset joins only some of its final values.
        codec = DegreeCodec(family + others)
        joined = codec.decode(codec.join(codec.encode(x) for x in family))
        assert joined == sup_combination_n(family) == pairwise_sup_n(family)

    @given(thfes, thfes, st.booleans())
    def test_leq(self, x, y, lift):
        # Lifting y to a join above x makes the order hold often enough to
        # exercise both answers.
        if lift:
            y = pairwise_sup(x, y)
        assert leq(x, y) == pairwise_leq(x, y)


# Degrees that stress a comparison made on numerators and denominators:
# the bounds, one value held by distinct objects ("0.5", "2/4", a new
# Fraction each draw), and neighbours whose cross products differ by one.
_NEAR = 10**30
stress_degrees = st.one_of(
    st.sampled_from([0, 1, "0", "1/1", "0.5", "2/4", F(2, 4), F(1, 2),
                     F(_NEAR, _NEAR + 1), F(_NEAR + 1, _NEAR + 2), F(_NEAR - 1, _NEAR),
                     F(1, _NEAR), F(1, _NEAR + 1)]),
    st.builds(lambda: F(1, 2)),
    st.builds(lambda: F(_NEAR, _NEAR + 1)),
    degrees,
)
stress_thfes = st.builds(Thfe, st.lists(stress_degrees, min_size=1, max_size=8))


def _ascending(values) -> tuple[Fraction, ...]:
    """A set of degrees in Fraction's own order."""
    return tuple(sorted(set(values)))


class TestAgainstFractionOrder:
    """The closed forms compare degrees on their integers; these laws build
    each expected value with Fraction's own ordering (min, max, sorted,
    set) instead, so a slip that the integer oracle shared would show."""

    @settings(max_examples=200)
    @given(stress_thfes, stress_thfes)
    def test_inf_combination(self, x, y):
        expected = _ascending(min(a, b) for a in x for b in y)
        assert inf_combination(x, y).degrees == expected

    @settings(max_examples=200)
    @given(stress_thfes, stress_thfes)
    def test_sup_combination(self, x, y):
        expected = _ascending(max(a, b) for a in x for b in y)
        assert sup_combination(x, y).degrees == expected

    @settings(max_examples=200)
    @given(st.lists(stress_thfes, max_size=4))
    def test_sup_combination_n(self, family):
        expected = {F(0)}
        for x in family:
            expected = {max(a, b) for a in expected for b in x}
        assert sup_combination_n(family).degrees == _ascending(expected)

    @settings(max_examples=200)
    @given(stress_thfes, stress_thfes, st.booleans())
    def test_leq(self, x, y, lift):
        if lift:
            y = Thfe(max(a, b) for a in x for b in y)
        expected = _ascending(max(a, b) for a in x for b in y) == y.degrees
        assert leq(x, y) == expected

    def test_degrees_are_compared_on_their_integers(self):
        """No degree takes part in a rich comparison: each of these raises."""

        class Uncomparable(Fraction):
            def _refuse(self, other):
                raise AssertionError("a degree was compared as a Fraction")

            __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _refuse
            __hash__ = Fraction.__hash__

        def thfe(*pairs):
            return _trusted(tuple(Uncomparable(p, q) for p, q in pairs))

        def ratios(x):
            return [d.as_integer_ratio() for d in x.degrees]

        x, y = thfe((0, 1), (1, 3), (1, 2)), thfe((1, 4), (1, 2), (1, 1))
        assert ratios(inf_combination(x, y)) == [(0, 1), (1, 4), (1, 3), (1, 2)]
        assert ratios(sup_combination(x, y)) == [(1, 4), (1, 3), (1, 2), (1, 1)]
        assert ratios(sup_combination_n([x, y, thfe((1, 3))])) == [(1, 3), (1, 2), (1, 1)]
        assert leq(x, sup_combination(x, y)) and not leq(y, x)
        assert parse_degree(Uncomparable(1, 1)).as_integer_ratio() == (1, 1)
        with pytest.raises(DegreeOutOfRange):
            parse_degree(Uncomparable(4, 3))


class TestOrder:
    @given(thfes)
    def test_reflexive(self, x):
        assert leq(x, x)

    @given(thfes, thfes)
    def test_antisymmetric(self, x, y):
        if leq(x, y) and leq(y, x):
            assert x == y

    @settings(max_examples=60)
    @given(thfes, thfes, thfes)
    def test_transitive(self, x, y, z):
        if leq(x, y) and leq(y, z):
            assert leq(x, z)

    @given(thfes)
    def test_bounded_by_zero_and_one(self, x):
        assert leq(ZERO, x)
        assert leq(x, ONE)

    @given(thfes, thfes)
    def test_join_is_an_upper_bound(self, x, y):
        join = sup_combination(x, y)
        assert leq(x, join)
        assert leq(y, join)

    @given(thfes, thfes, thfes)
    def test_join_monotone_in_each_argument(self, x, y, z):
        # If x is below y then joining z on both sides preserves that.
        if leq(x, y):
            assert leq(sup_combination(x, z), sup_combination(y, z))

    @given(thfes, thfes)
    def test_absorption(self, x, y):
        if leq(x, y):
            assert leq(x, inf_combination(x, y))
            assert leq(x, sup_combination(x, y))

    @given(st.lists(thfes, min_size=1, max_size=5))
    def test_every_member_below_family_join(self, family):
        join = sup_combination_n(family)
        assert all(leq(member, join) for member in family)

    def test_degenerate_elements_order_like_numbers(self):
        grid = [F(i, 10) for i in range(11)]
        for x in grid:
            for y in grid:
                assert leq(Thfe([x]), Thfe([y])) == (x <= y)


class TestKnownNonLaws:
    """Identities that hold for degenerate elements but fail on multi-valued
    ones.  These pin concrete counterexamples so nobody "fixes" an apparent
    bug by assuming them elsewhere."""

    def test_inf_does_not_distribute_over_sup(self):
        x = Thfe(["0", "1/2"])
        y = Thfe(["1/4"])
        z = Thfe(["1/2"])
        left = inf_combination(x, sup_combination(y, z))
        right = sup_combination(inf_combination(x, y), inf_combination(x, z))
        assert left == Thfe(["0", "1/2"])
        assert right == Thfe(["0", "1/4", "1/2"])
        assert left != right

    def test_sup_does_not_distribute_over_inf(self):
        x = Thfe(["1/2", "1"])
        y = Thfe(["3/4"])
        z = Thfe(["1/2"])
        left = sup_combination(x, inf_combination(y, z))
        right = inf_combination(sup_combination(x, y), sup_combination(x, z))
        assert left == Thfe(["1/2", "1"])
        assert right == Thfe(["1/2", "3/4", "1"])
        assert left != right

    def test_inf_combination_is_not_monotone(self):
        x = Thfe(["1/2"])
        y = Thfe(["1"])
        z = Thfe(["0", "1"])
        assert leq(x, y)
        assert inf_combination(x, z) == Thfe(["0", "1/2"])
        assert inf_combination(y, z) == Thfe(["0", "1"])
        assert not leq(inf_combination(x, z), inf_combination(y, z))

    def test_word_value_is_not_the_join_over_paths(self):
        """The fold joins {1/4} into {1/2, 1} at q0 before the final
        inf-combination; the join over paths keeps 1/4 apart."""
        m = Nthfa(
            ["q0", "q1"], ["a"],
            {("q0", "a", "q0"): Thfe(["1/2", "1"]), ("q0", "a", "q1"): Thfe(["1/4"]),
             ("q1", "a", "q0"): ONE},
            "q0", {"q0": Thfe(["0", "1"]), "q1": ZERO},
        )
        w = ("a", "a")
        assert m.eval(w) == reference_eval(m, w) == Thfe(["0", "1/2", "1"])
        assert path_join(m, w) == Thfe(["0", "1/4", "1/2", "1"])


class TestGeneratedClosure:
    def test_bounds_are_a_fixed_point(self):
        assert generated_closure([ZERO, ONE]) == frozenset({ZERO, ONE})

    def test_contains_seed(self):
        seed = [Thfe(["1/4"]), Thfe(["1/2", "3/4"])]
        closure = generated_closure(seed)
        assert set(seed) <= closure

    def test_closed_under_both_combinations(self):
        seed = [Thfe(["0", "1/2"]), Thfe(["1/4", "1"]), Thfe(["3/4"])]
        closure = generated_closure(seed)
        for x in closure:
            for y in closure:
                assert inf_combination(x, y) in closure
                assert sup_combination(x, y) in closure

    def test_empty_seed_rejected(self):
        with pytest.raises(InvalidTHFE):
            generated_closure([])

    def test_budget_guard(self):
        seed = [Thfe(["1/7", "6/7"]), Thfe(["3/7", "5/7"])]
        assert len(generated_closure(seed)) > 2
        with pytest.raises(ClosureBudgetExceeded):
            generated_closure(seed, max_size=2)


class TestDegreeCodec:
    @given(st.lists(thfes, max_size=5))
    def test_decode_inverts_encode(self, values):
        codec = DegreeCodec(values)
        for x in [*values, ZERO, ONE]:
            decoded = codec.decode(codec.encode(x))
            assert decoded == x
            assert decoded == Thfe(decoded.degrees)

    def test_universe_is_sorted_and_holds_zero_and_one(self):
        codec = DegreeCodec([Thfe(["1/2", "1/3"]), Thfe(["1/3"])])
        assert codec.universe == (F(0), F(1, 3), F(1, 2), F(1))
        assert codec.encode(ZERO) == 1
        assert codec.encode(Thfe(["1/3", "1"])) == 0b1010
        assert codec.join([]) == codec.encode(ZERO)
