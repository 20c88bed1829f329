"""Ground structures and uncertainty functionals.

The laws checked here (product rule, subadditivity, strong transitivity)
are what the higher layers lean on, so they get property tests; the rest
are pinned exact values.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from uvinfo import (
    CardinalityPower,
    DiameterPlusOne,
    ExplicitWeights,
    FiniteGround,
    IncompatibleGround,
    IntervalUnion,
    LebesguePlusOffset,
    PointOutsideRange,
    UncertainPair,
    UvinfoError,
    format_ratio,
    ratio,
)

F = Fraction

small_fractions = st.builds(F, st.integers(-20, 20), st.integers(1, 12))
finite_subsets = st.frozensets(st.integers(0, 9), max_size=10)
nonempty_subsets = st.frozensets(st.integers(0, 9), min_size=1, max_size=10)


def interval_unions(min_pieces=0, max_pieces=4):
    pair = st.tuples(small_fractions, small_fractions).map(
        lambda t: (min(t), max(t)))
    return st.lists(pair, min_size=min_pieces, max_size=max_pieces).map(
        IntervalUnion.of)


# ---------------------------------------------------------------------------
# ratios


class TestRatio:
    def test_accepts_ints_strings_fractions(self):
        assert ratio(3) == F(3)
        assert ratio("3/4") == F(3, 4)
        assert ratio(F(5, 6)) == F(5, 6)
        assert ratio(" -2/7 ") == F(-2, 7)

    @pytest.mark.parametrize("bad", ["0.5", "1e-3", "2.0", "1E2"])
    def test_rejects_decimal_notation(self, bad):
        with pytest.raises(UvinfoError, match="not exact"):
            ratio(bad)

    @pytest.mark.parametrize("bad", ["1/0", "x", "", None, 1.5])
    def test_rejects_garbage(self, bad):
        with pytest.raises(UvinfoError):
            ratio(bad)

    @given(small_fractions)
    def test_format_round_trips(self, q):
        assert ratio(format_ratio(q)) == q


# ---------------------------------------------------------------------------
# interval unions


class TestIntervalUnion:
    def test_merges_overlapping_pieces(self):
        iu = IntervalUnion.of([(0, 2), (1, 3), (5, 6)])
        assert iu.pieces == ((F(0), F(3)), (F(5), F(6)))
        assert iu.measure() == F(4)

    def test_merges_touching_pieces(self):
        iu = IntervalUnion.of([(0, 1), (1, 2)])
        assert iu.pieces == ((F(0), F(2)),)

    def test_degenerate_point_piece(self):
        iu = IntervalUnion.of([(F(1, 2), F(1, 2))])
        assert not iu.is_empty()
        assert iu.measure() == 0
        assert iu.contains(F(1, 2))
        assert not iu.contains(F(1, 3))

    def test_intersect(self):
        a = IntervalUnion.of([(0, 10)])
        b = IntervalUnion.of([(5, 15), (20, 30)])
        assert a.intersect(b).pieces == ((F(5), F(10)),)
        assert IntervalUnion.empty().intersect(a).is_empty()

    def test_covers(self):
        big = IntervalUnion.of([(0, 10)])
        assert big.covers(IntervalUnion.of([(2, 3), (4, 5)]))
        assert not IntervalUnion.of([(2, 3)]).covers(big)

    @given(interval_unions(), interval_unions())
    def test_operators_match_the_named_methods(self, a, b):
        assert a & b == a.intersect(b)
        assert a | b == a.union(b)
        assert bool(a) is not a.is_empty()

    def test_truthiness(self):
        assert not IntervalUnion.empty()
        assert IntervalUnion.of([(F(1, 2), F(1, 2))])
        assert not IntervalUnion.of([(0, 1)]) & IntervalUnion.of([(2, 3)])

    @given(interval_unions(), interval_unions())
    def test_union_measure_inclusion_exclusion_bound(self, a, b):
        union = a.union(b)
        assert union.measure() <= a.measure() + b.measure()
        assert union.measure() >= max(a.measure(), b.measure())

    @given(interval_unions(), st.data())
    def test_contains_respects_pieces(self, iu, data):
        if iu.is_empty():
            assert not iu.contains(F(0))
            return
        lo, hi = iu.pieces[0]
        assert iu.contains(lo) and iu.contains(hi)


# ---------------------------------------------------------------------------
# uncertainty functionals


class TestCardinalityPower:
    def test_plain_counting(self):
        m = CardinalityPower(19)
        assert m.of(frozenset([1, 7, 13])) == F(3, 19)
        assert m.of(frozenset()) == 0

    def test_exponent_cubes_values(self):
        m = CardinalityPower(19, 3)
        assert m.of(frozenset([1])) == F(1, 6859)
        assert m.of(frozenset(range(7))) == F(343, 6859)

    def test_rejects_bad_parameters(self):
        with pytest.raises(UvinfoError):
            CardinalityPower(0)
        with pytest.raises(UvinfoError):
            CardinalityPower(3, 0)

    def test_needs_finite_subsets(self):
        with pytest.raises(IncompatibleGround):
            CardinalityPower(2).of(IntervalUnion.of([(0, 1)]))

    @given(nonempty_subsets, nonempty_subsets, st.integers(1, 4))
    def test_product_rule_any_exponent(self, s1, s2, e):
        """Cartesian products factorize for every exponent."""
        base = 10
        m = CardinalityPower(base, e)
        m_sq = CardinalityPower(base * base, e)
        product = frozenset((a, b) for a in s1 for b in s2)
        assert m_sq.of(product) == m.of(s1) * m.of(s2)

    @given(finite_subsets, finite_subsets)
    def test_subadditive_at_exponent_one(self, s1, s2):
        m = CardinalityPower(10)
        assert m.of(s1 | s2) <= m.of(s1) + m.of(s2)

    def test_subadditivity_fails_above_exponent_one(self):
        m = CardinalityPower(2, 2)
        s1, s2 = frozenset([0]), frozenset([1])
        assert m.of(s1 | s2) > m.of(s1) + m.of(s2)

    @given(st.integers(1, 40), st.sampled_from([1, 2, 3]), st.randoms())
    def test_size_table_matches_fresh_fractions(self, base, e, rng):
        m = CardinalityPower(base, e)
        subsets = [frozenset(rng.sample(range(base), k)) for k in range(base + 1)]
        rng.shuffle(subsets)
        for _ in range(2):
            for s in subsets:
                assert m.of(s) == F(len(s), base) ** e

    def test_used_measure_equals_fresh_one(self):
        used = CardinalityPower(7, 2)
        for k in range(8):
            used.of(frozenset(range(k)))
        fresh = CardinalityPower(7, 2)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "CardinalityPower(base_size=7, exponent=2)"
        assert {used, fresh} == {fresh}

    def test_warm_table_still_needs_finite_subsets(self):
        m = CardinalityPower(2)
        m.of(frozenset([0]))
        with pytest.raises(IncompatibleGround):
            m.of(IntervalUnion.of([(0, 1)]))


class TestLebesguePlusOffset:
    def test_walkers_style_values(self):
        m = LebesguePlusOffset(10)
        assert m.of(IntervalUnion.of([(0, 15)])) == 25
        assert m.of(IntervalUnion.of([(10, 15)])) == 15
        assert m.of(IntervalUnion.empty()) == 0

    def test_offset_must_be_nonnegative(self):
        with pytest.raises(UvinfoError):
            LebesguePlusOffset(F(-1))

    def test_zero_offset_is_refused(self):
        # a single point would measure 0, though it is not empty
        with pytest.raises(UvinfoError, match="positive"):
            LebesguePlusOffset(0)

    def test_needs_interval_subsets(self):
        with pytest.raises(IncompatibleGround):
            LebesguePlusOffset(1).of(frozenset([1]))

    @given(interval_unions(min_pieces=1), interval_unions(min_pieces=1))
    def test_strongly_transitive(self, a, b):
        m = LebesguePlusOffset(F(1, 3))
        assert max(m.of(a), m.of(b)) <= m.of(a.union(b))


class TestDiameterPlusOne:
    def test_hamming_diameters(self):
        m = DiameterPlusOne(5)
        assert m.of(frozenset(["0000"])) == F(1, 5)
        assert m.of(frozenset(["0000", "1111"])) == 1
        assert m.of(frozenset(["0000", "0011", "0001"])) == F(3, 5)
        assert m.of(frozenset()) == 0

    def test_rejects_mixed_lengths(self):
        with pytest.raises(UvinfoError):
            DiameterPlusOne(3).of(frozenset(["01", "011"]))

    def test_rejects_strings_other_than_bits(self):
        with pytest.raises(IncompatibleGround, match="0/1"):
            DiameterPlusOne(3).of(frozenset(["01", "0a"]))

    def test_empty_strings_have_diameter_zero(self):
        assert DiameterPlusOne(3).of(frozenset([""])) == F(1, 3)

    def test_rejects_non_string_labels(self):
        with pytest.raises(IncompatibleGround):
            DiameterPlusOne(3).of(frozenset([1, 7]))

    @given(st.frozensets(st.text(alphabet="01", min_size=3, max_size=3),
                         min_size=1, max_size=8),
           st.frozensets(st.text(alphabet="01", min_size=3, max_size=3),
                         min_size=1, max_size=8))
    def test_strongly_transitive(self, a, b):
        m = DiameterPlusOne(4)
        assert max(m.of(a), m.of(b)) <= m.of(a | b)


class TestExplicitWeights:
    def test_sums_and_normalizes(self):
        m = ExplicitWeights.of_mapping({"a": F(1, 2), "b": 2, "c": 1},
                                       normalizer=7)
        assert m.of(frozenset(["a", "b"])) == F(5, 14)
        assert m.of(frozenset()) == 0

    def test_missing_label_is_an_error(self):
        m = ExplicitWeights.of_mapping({"a": 1})
        with pytest.raises(IncompatibleGround, match="no weight"):
            m.of(frozenset(["z"]))

    def test_missing_labels_message(self):
        m = ExplicitWeights.of_mapping({"a": 1, "b": 2})
        assert m.of(frozenset(["a", "b"])) == 3
        with pytest.raises(IncompatibleGround) as info:
            m.of(frozenset(["a", "z", "y"]))
        assert str(info.value) == """no weight for labels ["'y'", "'z'"]"""
        assert m == ExplicitWeights.of_mapping({"a": 1, "b": 2})

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(UvinfoError):
            ExplicitWeights.of_mapping({"a": 0})


# ---------------------------------------------------------------------------
# uncertain pairs


def walkers_pair() -> UncertainPair:
    return UncertainPair.hybrid({
        "a": IntervalUnion.of([(0, 15)]),
        "ab": IntervalUnion.of([(10, 15)]),
        "b": IntervalUnion.of([(10, 30)]),
        "bc": IntervalUnion.of([(20, 30)]),
        "c": IntervalUnion.of([(20, 30)]),
    })


class TestFinitePair:
    def test_marginals_and_conditionals(self):
        pair = UncertainPair.finite([(1, "u"), (1, "v"), (2, "v")])
        assert pair.marginal_range("X") == frozenset([1, 2])
        assert pair.marginal_range("Y") == frozenset(["u", "v"])
        assert pair.conditional_range("Y", 1) == frozenset(["u", "v"])
        assert pair.conditional_range("X", "v") == frozenset([1, 2])

    def test_point_outside_range(self):
        pair = UncertainPair.finite([(1, "u")])
        with pytest.raises(PointOutsideRange):
            pair.conditional_range("Y", 9)

    def test_reassembles(self):
        pair = UncertainPair.finite([(1, "u"), (2, "u"), (2, "w")])
        assert pair.reassembles()

    @pytest.mark.parametrize("joint,stray", [
        ([(1, "u"), (3, "u")], (3, "u")),
        ([(1, "u"), (2, "w")], (2, "w")),
    ], ids=["x-outside", "y-outside"])
    def test_joint_outside_the_grounds(self, joint, stray):
        with pytest.raises(UvinfoError) as info:
            UncertainPair.finite(joint, x_ground=FiniteGround.of([1, 2]),
                                 y_ground=FiniteGround.of(["u", "v"]))
        assert str(info.value) == f"joint pair {stray!r} outside the grounds"

    @given(st.frozensets(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
        max_size=12))
    def test_every_finite_joint_reassembles(self, joint):
        assert UncertainPair.finite(joint).reassembles()


class TestHybridPair:
    def test_marginals(self):
        pair = walkers_pair()
        assert pair.marginal_range("X") == frozenset(["a", "ab", "b", "bc", "c"])
        assert pair.marginal_range("Y").pieces == ((F(0), F(30)),)

    def test_conditional_sections(self):
        pair = walkers_pair()
        assert pair.conditional_range("X", 12) == frozenset(["a", "ab", "b"])
        assert pair.conditional_range("X", 17) == frozenset(["b"])
        assert pair.conditional_range("X", 25) == frozenset(["b", "bc", "c"])
        assert pair.conditional_range("Y", "ab").pieces == ((F(10), F(15)),)

    def test_point_outside_support(self):
        with pytest.raises(PointOutsideRange):
            walkers_pair().conditional_range("X", 31)

    def test_arrangement_groups_by_section(self):
        cells = walkers_pair().arrangement()
        sections = sorted(tuple(sorted(c.xset)) for c in cells)
        assert sections == [("a",), ("a", "ab", "b"), ("b",),
                            ("b", "bc", "c")]
        assert all(c.multi_point for c in cells)

    def test_reassembles(self):
        assert walkers_pair().reassembles()

    @given(st.lists(interval_unions(min_pieces=1), min_size=1, max_size=5))
    def test_every_interval_pair_reassembles(self, cells):
        pair = UncertainPair.hybrid(dict(enumerate(cells)))
        assert pair.reassembles()
        for cell in pair.arrangement():
            assert all(cell.support.contains(rep) for rep in cell.reps)
            assert cell.multi_point == (len(cell.reps) > 1
                                        or cell.support.measure() > 0)

    def test_empty_cell_rejected(self):
        with pytest.raises(UvinfoError):
            UncertainPair.hybrid({"a": IntervalUnion.empty()})

    def test_arrangement_needs_interval_axis(self):
        pair = UncertainPair.finite([(1, 2)])
        with pytest.raises(UvinfoError):
            pair.arrangement()
