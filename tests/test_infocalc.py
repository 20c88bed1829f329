"""Association structure, overlap families, and delta-mutual information.

The running fixture is a hybrid pair of five labels over [0, 30] whose
association values and families are known exactly in every regime.
"""

import random
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
from uvinfo.infocalc import (
    TaxicabFamily,
    _find,
    _taxicab_nodes,
    side_profile,
)
from uvinfo.uvcore import UncertaintyFunction, level

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


# ---------------------------------------------------------------------------
# the taxicab family against a copy of the code that checked containment and
# the projection-overlap bounds loop by loop


def reference_taxicab_family(pair: UncertainPair, m_x: UncertaintyFunction,
                             m_y: UncertaintyFunction, delta1: Fraction,
                             delta2: Fraction) -> TaxicabFamily:
    """Taxicab-connected components of the joint range, property-checked.

    Moves between joint points: same x with the two points' x-side ranges
    overlapping strictly above ``delta1 * m(marginal X)``, or same point
    with the two x's y-side ranges overlapping strictly above
    ``delta2 * m(marginal Y)``.  The components are returned as the
    candidate family; ``exists`` is false when any family property fails
    (cover is automatic, so what can fail is column/row containment or the
    projection-overlap bounds).
    """
    delta1 = level(delta1, 1, closed=True, name="delta1")
    delta2 = level(delta2, 1, closed=True, name="delta2")
    if pair.is_empty():
        raise EmptyPair("the joint range is empty")
    points, rows = _taxicab_nodes(pair)
    total_x = m_x.of(pair.marginal_range("X"))
    total_y = m_y.of(pair.marginal_range("Y"))
    nodes = []
    for pid, xset, _cell in points:
        for x in sorted(xset):
            nodes.append((x, pid))
    index = {node: k for k, node in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def join(a, b) -> None:
        parent[_find(parent, index[a])] = _find(parent, index[b])

    # A1 moves: same x across two points, gated on the x-side overlap.  The
    # two representatives of a multi-point cell are among these pairs; their
    # gate is the section's self-overlap.
    for i, (pid_i, xset_i, _) in enumerate(points):
        for pid_j, xset_j, _ in points[i + 1:]:
            inter = xset_i & xset_j
            if inter and m_x.of(inter) > delta1 * total_x:
                for x in inter:
                    join((x, pid_i), (x, pid_j))
    # A2 moves: same point across two x's, gated on the y-side overlap.
    for pid, xset, _ in points:
        xs = sorted(xset)
        for i, x1 in enumerate(xs):
            for x2 in xs[i + 1:]:
                inter = rows[x1] & rows[x2]
                if inter and m_y.of(inter) > delta2 * total_y:
                    join((x1, pid), (x2, pid))

    components: dict[int, set] = {}
    for node in nodes:
        components.setdefault(_find(parent, index[node]), set()).add(node)
    comp_list = sorted(components.values(), key=min)

    # a multi-point cell whose twin representatives are separated means the
    # true family would need infinitely many sets
    for pid, xset, cell in points:
        if cell is not None and cell.multi_point and pid[1] == 0:
            for x in xset:
                if _find(parent, index[(x, pid)]) != _find(parent, index[(x, (pid[0], 1))]):
                    return TaxicabFamily((), (delta1, delta2), False,
                                         "a multi-point class splits; no finite family")

    reason = ""
    exists = True
    # every column and every row must sit inside one component (this is both
    # the singly-connected containment property and, together with the
    # components covering everything, the contains-a-column/row property)
    for pid, xset, _ in points:
        roots = {_find(parent, index[(x, pid)]) for x in xset}
        if len(roots) > 1:
            exists, reason = False, "a column crosses components"
            break
    if exists:
        for x, yrange in rows.items():
            roots = set()
            for pid, xset, _ in points:
                if x in xset:
                    roots.add(_find(parent, index[(x, pid)]))
            if len(roots) > 1:
                exists, reason = False, "a row crosses components"
                break
    if exists:
        # projection overlap bounds
        xprojs = [frozenset(x for x, _ in comp) for comp in comp_list]
        for i in range(len(xprojs)):
            for j in range(i + 1, len(xprojs)):
                inter = xprojs[i] & xprojs[j]
                if inter and m_x.of(inter) > delta1 * total_x:
                    exists, reason = False, "x-projections overlap beyond delta1"
        if exists and not pair.is_hybrid():
            yprojs = [frozenset(pid for _, pid in comp) for comp in comp_list]
            for i in range(len(yprojs)):
                for j in range(i + 1, len(yprojs)):
                    inter = yprojs[i] & yprojs[j]
                    if inter and m_y.of(inter) > delta2 * total_y:
                        exists, reason = False, "y-projections overlap beyond delta2"
        # interval pairs: distinct cells are disjoint point classes, so two
        # components never share y points and the delta2 bound holds with
        # intersection measure zero

    if not exists:
        return TaxicabFamily((), (delta1, delta2), False, reason)

    cell_support = {}
    for pid, _, cell in points:
        if cell is not None:
            cell_support[pid] = cell.support
    sets = []
    for comp in comp_list:
        if pair.is_hybrid():
            by_x: dict[object, IntervalUnion] = {}
            for x, pid in comp:
                if pid[1] == 1:
                    continue
                by_x[x] = by_x.get(x, IntervalUnion.empty()) | cell_support[pid]
            sets.append(frozenset(by_x.items()))
        else:
            sets.append(frozenset(comp))
    return TaxicabFamily(tuple(sets), (delta1, delta2), True)


def random_taxicab_pairs(seed: int, count: int):
    """Finite pairs with int and with tuple y labels, and interval pairs
    whose cells have up to three pieces, all drawn from one seed."""
    rng = random.Random(seed)
    tuples = [(a, b) for a in range(2) for b in range(3)]
    for _ in range(count):
        xs = range(rng.randint(1, 5))
        labels = rng.choice([list(range(5)), tuples])
        yield UncertainPair.finite(
            (x, y) for x in xs for y in rng.sample(labels, rng.randint(1, 3)))
        yield UncertainPair.hybrid({x: IntervalUnion.of(
            sorted(rng.sample(range(13), 2)) for _ in range(rng.randint(1, 3)))
            for x in xs})


class TestTaxicabFamilyMatchesReference:
    def test_seeded_pairs_at_every_level_pair(self):
        outcomes = {}
        for pair in random_taxicab_pairs(27, 150):
            m_x = CardinalityPower(len(pair.marginal_range("X")))
            m_y = M_Y if pair.is_hybrid() else \
                CardinalityPower(len(pair.marginal_range("Y")))
            for delta1 in (F(0), F(1, 4), F(1, 2), F(1)):
                for delta2 in (F(0), F(1, 3), F(1)):
                    fam = taxicab_family(pair, m_x, m_y, delta1, delta2)
                    assert fam == reference_taxicab_family(
                        pair, m_x, m_y, delta1, delta2)
                    outcomes[fam.reason] = outcomes.get(fam.reason, 0) + 1
        assert sorted(outcomes) == [
            "", "a column crosses components",
            "a multi-point class splits; no finite family",
            "a row crosses components"]
