"""Association structure, overlap families, and delta-mutual information.

The running fixture is a hybrid pair of five labels over [0, 30] whose
association values and families are known exactly in every regime.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from uvinfo import (
    CardinalityPower,
    EmptyPair,
    IntervalUnion,
    LebesguePlusOffset,
    NotDisassociated,
    OverlapFamily,
    UncertainPair,
    UvinfoError,
    association_sets,
    classify_levels,
    delta_components,
    mutual_information,
    overlap_family,
    taxicab_family,
)
from uvinfo.infocalc import side_profile

F = Fraction
M_X = CardinalityPower(5)
M_Y = LebesguePlusOffset(10)


@pytest.fixture
def pair() -> UncertainPair:
    return UncertainPair.hybrid({
        "a": IntervalUnion.of([(0, 15)]),
        "ab": IntervalUnion.of([(10, 15)]),
        "b": IntervalUnion.of([(10, 30)]),
        "bc": IntervalUnion.of([(20, 30)]),
        "c": IntervalUnion.of([(20, 30)]),
    })


def per_point_profile(pair, side):
    """A side profile built the slow way, one ``conditional_range`` scan per
    opposite point: the reference for the one-pass sections."""
    if pair.is_hybrid() and side == "X":
        cells = pair.arrangement()
        ranges = [c.xset for c in cells]
        counts = [2 if c.multi_point else 1 for c in cells]
    else:
        opposite = "Y" if side == "X" else "X"
        groups = {}
        for point in pair.marginal_range(opposite):
            rng = pair.conditional_range(side, point)
            groups[rng] = min(2, groups.get(rng, 0) + 1)
        ranges, counts = list(groups), list(groups.values())

    def key(i):
        s = ranges[i]
        return tuple(sorted(s)) if isinstance(s, frozenset) else s.pieces
    order = sorted(range(len(ranges)), key=key)
    return (side, pair.marginal_range(side), tuple(ranges[i] for i in order),
            tuple(counts[i] for i in order))


def profile_fields(profile):
    return profile.side, profile.marginal, profile.ranges, profile.counts


# rows drawn from a few small subsets, so that equal sections recur on both
# sides
finite_rows = st.lists(st.frozensets(st.sampled_from("uvw"), min_size=1),
                       min_size=1, max_size=8)
small_fractions = st.builds(F, st.integers(0, 12), st.integers(1, 4))
nonempty_unions = st.lists(
    st.tuples(small_fractions, small_fractions).map(lambda t: (min(t), max(t))),
    min_size=1, max_size=3).map(IntervalUnion.of)


class TestSideProfile:
    @given(finite_rows, st.sampled_from("XY"))
    @example([frozenset("uv"), frozenset("uv"), frozenset("w")], "Y")
    @example([frozenset("uv"), frozenset("uv"), frozenset("w")], "X")
    def test_finite_matches_per_point_scan(self, rows, side):
        pair = UncertainPair.finite(
            (x, y) for x, row in enumerate(rows) for y in row)
        assert profile_fields(side_profile(pair, side)) == \
            per_point_profile(pair, side)

    @given(st.lists(nonempty_unions, min_size=1, max_size=5),
           st.sampled_from("XY"))
    def test_interval_matches_per_point_scan(self, cells, side):
        pair = UncertainPair.hybrid(dict(enumerate(cells)))
        assert profile_fields(side_profile(pair, side)) == \
            per_point_profile(pair, side)


class TestAssociationSets:
    def test_walkers_values(self, pair):
        assoc = association_sets(pair, M_X, M_Y)
        assert assoc.a_xy == frozenset([F(1, 5), F(3, 5)])
        assert assoc.a_yx == frozenset([F(3, 8), F(1, 2)])

    def test_finite_pair_values(self):
        # two x's sharing one of two outputs: the only X-side overlap is
        # the shared column {1, 2} against the marginal {1, 2}
        p = UncertainPair.finite([(1, "u"), (1, "v"), (2, "v")])
        assoc = association_sets(p, CardinalityPower(2), CardinalityPower(2))
        assert assoc.a_yx == frozenset([F(1, 2)])
        assert assoc.a_xy == frozenset([F(1, 2)])

    def test_disjoint_rows_have_no_association(self):
        p = UncertainPair.finite([(1, "u"), (2, "v")])
        assoc = association_sets(p, CardinalityPower(2), CardinalityPower(2))
        assert assoc.a_yx == frozenset()
        assert assoc.a_xy == frozenset()

    def test_empty_pair_rejected(self):
        p = UncertainPair.finite([])
        with pytest.raises(EmptyPair):
            association_sets(p, M_X, M_X)

    @given(st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=1, max_size=12))
    def test_values_live_in_unit_interval(self, joint):
        p = UncertainPair.finite(joint)
        m_x = CardinalityPower(len(p.marginal_range("X")))
        m_y = CardinalityPower(len(p.marginal_range("Y")))
        assoc = association_sets(p, m_x, m_y)
        for v in assoc.a_xy | assoc.a_yx:
            assert 0 < v <= 1


class TestClassifyLevels:
    @pytest.mark.parametrize("d1,d2,variant", [
        (F(1, 6), F(1, 4), "disassociated"),
        (F(3, 5), F(1, 2), "associated"),
        (F(1, 4), F(1, 4), "neither"),
        (F(0), F(0), "disassociated"),
        (F(1), F(1), "associated"),
    ])
    def test_walkers_regimes(self, pair, d1, d2, variant):
        assoc = association_sets(pair, M_X, M_Y)
        assert classify_levels(assoc, d1, d2).variant == variant

    def test_witness_names_the_binding_values(self, pair):
        assoc = association_sets(pair, M_X, M_Y)
        status = classify_levels(assoc, F(1, 6), F(1, 4))
        assert any("1/5" in note for note in status.witness)

    def test_levels_outside_unit_interval_rejected(self, pair):
        assoc = association_sets(pair, M_X, M_Y)
        with pytest.raises(UvinfoError):
            classify_levels(assoc, F(3, 2), F(0))

    @given(st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=1, max_size=10),
           st.fractions(min_value=0, max_value=1),
           st.fractions(min_value=0, max_value=1))
    def test_regimes_are_mutually_exclusive(self, joint, d1, d2):
        p = UncertainPair.finite(joint)
        m_x = CardinalityPower(len(p.marginal_range("X")))
        m_y = CardinalityPower(len(p.marginal_range("Y")))
        status = classify_levels(association_sets(p, m_x, m_y), d1, d2)
        assert status.variant in ("disassociated", "associated", "neither")


class TestOverlapFamily:
    def test_disassociated_x_family_is_one_component(self, pair):
        fam = overlap_family(pair, M_X, M_Y, F(1, 6), "X")
        assert fam is not None
        assert fam.regime == "disassociated"
        assert fam.sets == (frozenset(["a", "ab", "b", "bc", "c"]),)

    def test_intermediate_level_has_no_family(self, pair):
        assert overlap_family(pair, M_X, M_Y, F(1, 4), "X") is None

    def test_associated_x_family_lists_distinct_sections(self, pair):
        fam = overlap_family(pair, M_X, M_Y, F(3, 5), "X")
        assert fam.regime == "associated"
        assert fam.count == 4

    def test_disassociated_y_family_covers_the_support(self, pair):
        fam = overlap_family(pair, M_X, M_Y, F(1, 4), "Y")
        assert fam.regime == "disassociated"
        assert fam.count == 1
        assert fam.sets[0].pieces == ((F(0), F(30)),)

    def test_delta_outside_unit_interval(self, pair):
        with pytest.raises(UvinfoError):
            overlap_family(pair, M_X, M_Y, F(3, 2), "X")


def reference_family(pair, m_x, m_y, delta, side):
    """The overlap family read off its definition at one level: both
    association sets in full, and the components from ``delta_components``,
    which reads the side again.  The reference for the one-reading
    construction."""
    assoc = association_sets(pair, m_x, m_y)
    values, opposite = (assoc.a_xy, assoc.a_yx) if side == "X" \
        else (assoc.a_yx, assoc.a_xy)
    if all(v <= delta for v in values):
        return OverlapFamily(side_profile(pair, side).ranges, "associated", delta)
    if all(v > delta for v in values) and opposite:
        components = delta_components(pair, m_x if side == "X" else m_y,
                                      delta, side)
        return OverlapFamily(tuple(components), "disassociated", delta)
    return None


def every_level_matches(pair, m_x, m_y, side) -> None:
    """0, 1, each association value of the side and each midpoint between
    neighbouring ones."""
    assoc = association_sets(pair, m_x, m_y)
    points = sorted({F(0), F(1)} | (assoc.a_xy if side == "X" else assoc.a_yx))
    levels = points + [(a + b) / 2 for a, b in zip(points, points[1:])]
    for delta in levels:
        assert overlap_family(pair, m_x, m_y, delta, side) == \
            reference_family(pair, m_x, m_y, delta, side)


class TestOverlapFamilyMatchesDefinition:
    @given(finite_rows, st.sampled_from("XY"))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_finite_pairs(self, rows, side):
        pair = UncertainPair.finite(
            (x, y) for x, row in enumerate(rows) for y in row)
        every_level_matches(pair, CardinalityPower(len(rows)),
                            CardinalityPower(3), side)

    @given(st.lists(nonempty_unions, min_size=1, max_size=5),
           st.sampled_from("XY"))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_interval_pairs(self, cells, side):
        pair = UncertainPair.hybrid(dict(enumerate(cells)))
        every_level_matches(pair, CardinalityPower(len(cells)), M_Y, side)

    def test_walkers_at_every_level(self, pair):
        for side in "XY":
            every_level_matches(pair, M_X, M_Y, side)


class TestDeltaComponents:
    def test_partition_below_every_overlap(self, pair):
        comps = delta_components(pair, M_X, F(1, 6), "X")
        assert comps == [frozenset(["a", "ab", "b", "bc", "c"])]

    def test_not_defined_at_or_above_an_overlap(self, pair):
        with pytest.raises(NotDisassociated, match="1/5"):
            delta_components(pair, M_X, F(1, 5), "X")

    def test_finite_pair_splits_disjoint_rows(self):
        p = UncertainPair.finite([(1, "u"), (2, "v"), (3, "v")])
        comps = delta_components(p, CardinalityPower(2), F(0), "Y")
        assert comps == [frozenset(["u"]), frozenset(["v"])]


class TestMutualInformation:
    def test_disassociated_count(self, pair):
        res = mutual_information(pair, M_X, M_Y, F(1, 6), "XgivenY")
        assert (res.count, res.status) == (1, "disassociated")
        assert res.render() == "0"

    def test_no_family_counts_one(self, pair):
        res = mutual_information(pair, M_X, M_Y, F(1, 4), "XgivenY")
        assert (res.count, res.status) == (1, "no_family")
        assert res.family is None

    def test_associated_count(self, pair):
        res = mutual_information(pair, M_X, M_Y, F(3, 5), "XgivenY")
        assert (res.count, res.status) == (4, "associated")
        assert res.render() == "2"

    def test_y_direction(self, pair):
        res = mutual_information(pair, M_X, M_Y, F(1, 4), "YgivenX")
        assert (res.count, res.status) == (1, "disassociated")

    def test_unknown_direction(self, pair):
        with pytest.raises(UvinfoError, match="direction"):
            mutual_information(pair, M_X, M_Y, F(0), "sideways")

    def test_render_non_power_of_two(self):
        p = UncertainPair.finite([(1, 1), (2, 2), (3, 3)])
        m = CardinalityPower(3)
        res = mutual_information(p, m, m, F(0), "YgivenX")
        assert res.count == 3
        assert res.render() == "log2(3)"


class TestTaxicabFamily:
    def test_walkers_single_component(self, pair):
        fam = taxicab_family(pair, M_X, M_Y, F(1, 6), F(1, 4))
        assert fam.exists
        assert len(fam.sets) == 1

    def test_high_levels_disconnect_the_cells(self, pair):
        fam = taxicab_family(pair, M_X, M_Y, F(2, 3), F(2, 3))
        assert not fam.exists
        assert fam.reason

    def test_finite_pair_components_match_y_components(self):
        p = UncertainPair.finite([(1, "u"), (2, "v"), (3, "v")])
        m = CardinalityPower(2)
        fam = taxicab_family(p, CardinalityPower(3), m, F(0), F(0))
        assert fam.exists
        assert len(fam.sets) == 2

    def test_empty_pair_rejected(self):
        with pytest.raises(EmptyPair):
            taxicab_family(UncertainPair.finite([]), M_X, M_Y, F(0), F(0))


class TestSymmetry:
    """In the disassociated regime the two directions count the same
    family, and the taxicab components witness it."""

    @given(st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=1, max_size=12))
    def test_counts_agree_below_the_association_floor(self, joint):
        p = UncertainPair.finite(joint)
        m_x = CardinalityPower(len(p.marginal_range("X")))
        m_y = CardinalityPower(len(p.marginal_range("Y")))
        assoc = association_sets(p, m_x, m_y)
        if not (assoc.a_xy and assoc.a_yx):
            return
        d1 = min(assoc.a_xy) / 2
        d2 = min(assoc.a_yx) / 2
        lhs = mutual_information(p, m_x, m_y, d2, "YgivenX")
        rhs = mutual_information(p, m_x, m_y, d1, "XgivenY")
        assert lhs.status == rhs.status == "disassociated"
        assert lhs.count == rhs.count
        fam = taxicab_family(p, m_x, m_y, d1, d2)
        if fam.exists:
            assert len(fam.sets) == lhs.count
