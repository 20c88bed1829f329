"""Set-valued channels and exact (N, delta)-capacity.

The 19-symbol fixture has three blocks of identical images (1-6, 7-12,
13-19); the first two blocks overlap in two outputs, the third is disjoint
from both.  Every capacity breakpoint of that channel is known in closed
form, which makes it the anchor oracle throughout.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from uvinfo import (
    CapacityResult,
    CardinalityPower,
    Channel,
    EquivocationMatrix,
    DeltaOutOfRange,
    ExplicitWeights,
    NotNormalized,
    UvinfoError,
    association_sets,
    capacity,
    check_distinguishable,
    induced_pair,
    matrix_capacity,
    mi_sup_oracle,
    format_ratio,
    overlap_family,
    verify_coding_theorem,
)
from uvinfo import chancap
from uvinfo.chancap import (
    AlphabetTooLarge,
    CodingTheoremReport,
    CodingTheoremRow,
    MISupResult,
    SamePoint,
    as_codebook,
    average_overlap,
    avg_overlap_capacity,
    ball_channel,
    distinct_image_representatives,
    equivocation,
)
from uvinfo.memoryless import (
    ProductChannel,
    Rate,
    _horizon_one_sup,
    product_uncertainty,
    rate_at_horizon,
)

F = Fraction
M1 = CardinalityPower(19)
M3 = CardinalityPower(19, 3)


@pytest.fixture(scope="module")
def fig5() -> Channel:
    block1 = frozenset([1, 2, 3, 4, 5, 6, 11])
    block2 = frozenset([7, 8, 9, 10, 11, 12, 2])
    block3 = frozenset(range(13, 20))
    mapping = {x: block1 for x in range(1, 7)}
    mapping.update({x: block2 for x in range(7, 13)})
    mapping.update({x: block3 for x in range(13, 20)})
    return Channel.of(mapping)


class TestChannel:
    def test_symbols_and_images(self, fig5):
        assert fig5.x_symbols == tuple(range(1, 20))
        assert fig5.y_symbols == tuple(range(1, 20))
        assert fig5.image(1) == frozenset([1, 2, 3, 4, 5, 6, 11])
        assert fig5.image(1) == fig5.image(6)

    def test_min_image_uncertainty(self, fig5):
        assert fig5.min_image_uncertainty(M1) == F(7, 19)
        assert fig5.min_image_uncertainty(M3) == F(343, 6859)

    def test_empty_mapping_rejected(self):
        with pytest.raises(UvinfoError):
            Channel.of({})

    def test_empty_image_rejected(self):
        with pytest.raises(UvinfoError, match="empty"):
            Channel.of({1: frozenset()})

    def test_alphabet_must_cover_images(self):
        with pytest.raises(UvinfoError, match="not in the output alphabet"):
            Channel.of({1: frozenset([1, 2])}, y_alphabet=[1])

    @pytest.mark.parametrize("mapping", [{1: {"a"}, "b": {"a"}},
                                         {1: {"a", 2}}])
    def test_incomparable_symbols_rejected(self, mapping):
        with pytest.raises(UvinfoError, match="mutually comparable"):
            Channel.of(mapping)

    def test_unknown_input_symbol(self, fig5):
        with pytest.raises(UvinfoError):
            fig5.image(99)

    def test_distinct_image_representatives(self, fig5):
        assert distinct_image_representatives(fig5) == (1, 7, 13)


class TestEquivocation:
    def test_cross_block_overlaps(self, fig5):
        assert equivocation(fig5, M1, 1, 7) == F(2, 19)
        assert equivocation(fig5, M1, 1, 2) == F(7, 19)
        assert equivocation(fig5, M1, 1, 13) == 0
        assert equivocation(fig5, M1, 7, 13) == 0

    def test_cubing_the_uncertainty(self, fig5):
        assert equivocation(fig5, M3, 1, 7) == F(8, 6859)

    def test_same_point_rejected(self, fig5):
        with pytest.raises(SamePoint):
            equivocation(fig5, M1, 4, 4)

    def test_output_alphabet_must_be_normalized(self, fig5):
        with pytest.raises(NotNormalized, match="19/20"):
            equivocation(fig5, CardinalityPower(20), 1, 2)

    def test_as_codebook_sorts_and_validates(self, fig5):
        assert as_codebook(fig5, [13, 1, 7]) == (1, 7, 13)
        with pytest.raises(UvinfoError):
            as_codebook(fig5, [])
        with pytest.raises(UvinfoError):
            as_codebook(fig5, [99])


class TestCheckDistinguishable:
    def test_pass_reports_threshold(self, fig5):
        result = check_distinguishable(fig5, M1, (1, 7, 13), F(4, 9))
        assert result.ok
        assert result.threshold == F(4, 27)

    def test_failure_reports_first_violation(self, fig5):
        result = check_distinguishable(fig5, M1, (1, 2, 13), F(4, 9))
        assert not result.ok
        assert result.violating_pair == (1, 2)
        assert result.violating_value == F(7, 19)

    def test_delta_domain(self, fig5):
        with pytest.raises(DeltaOutOfRange):
            check_distinguishable(fig5, M1, (1, 13), F(1))


class TestCapacity:
    @pytest.mark.parametrize("delta,count,witness", [
        (F(0), 2, (1, 13)),
        (F(2, 9), 2, (1, 7)),
        (F(6, 19), 3, (1, 7, 13)),
        (F(4, 9), 3, (1, 7, 13)),
    ])
    def test_fig5_breakpoints(self, fig5, delta, count, witness):
        res = capacity(fig5, M1, delta)
        assert (res.count, res.witness) == (count, witness)

    def test_threshold_is_exact(self, fig5):
        # count 3 needs every pair <= delta/3; the binding pair value is
        # 2/19, so the breakpoint is exactly 6/19
        assert capacity(fig5, M1, F(6, 19)).count == 3
        assert capacity(fig5, M1, F(6, 19) - F(1, 10 ** 9)).count == 2

    def test_cubed_uncertainty_breakpoint(self, fig5):
        assert capacity(fig5, M3, F(24, 6859)).count == 3
        assert capacity(fig5, M3, F(23, 6859)).count == 2

    def test_per_size_structure(self, fig5):
        res = capacity(fig5, M1, F(2, 9))
        assert res.per_size_feasibility == ((1, True), (2, True), (3, False))
        assert res.thresholds == ((1, F(2, 9)), (2, F(1, 9)), (3, F(2, 27)))

    def test_render_bits(self, fig5):
        assert capacity(fig5, M1, F(0)).render_bits() == "1"
        assert capacity(fig5, M1, F(4, 9)).render_bits() == "log2(3)"

    def test_delta_domain(self, fig5):
        with pytest.raises(DeltaOutOfRange):
            capacity(fig5, M1, F(-1, 2))
        with pytest.raises(DeltaOutOfRange):
            capacity(fig5, M1, F(1))

    def test_ball_channel_packing(self):
        ch = ball_channel(range(7), lambda a, b: abs(a - b), 1)
        res = capacity(ch, CardinalityPower(7), F(0))
        assert res.count == 3
        assert res.witness == (0, 3, 6)


class TestDeltaDomain:
    @pytest.mark.parametrize("call, message", [
        (lambda ch: capacity(ch, M1, F(-1, 2)),
         "need 0 <= delta < 1, got -1/2"),
        (lambda ch: check_distinguishable(ch, M1, (1, 13), F(1)),
         "need 0 <= delta < 1, got 1"),
        (lambda ch: mi_sup_oracle(ch, M1, F(7, 19)),
         "need 0 <= delta < m(V_N) = 7/19, got 7/19"),
        (lambda ch: matrix_capacity(
            EquivocationMatrix.of(["a", "b"], {}, v_min=F(1, 2)), F(3, 4)),
         "need 0 <= delta < v_min = 1/2, got 3/4"),
    ], ids=["capacity", "check-distinguishable", "mi-sup-oracle",
            "matrix-capacity"])
    def test_messages(self, fig5, call, message):
        with pytest.raises(DeltaOutOfRange) as info:
            call(fig5)
        assert str(info.value) == message


class TestInducedPair:
    def test_joint_is_the_graph_of_the_restriction(self, fig5):
        pair = induced_pair(fig5, (1, 13))
        assert pair.marginal_range("X") == frozenset([1, 13])
        assert pair.conditional_range("Y", 13) == frozenset(range(13, 20))
        assert pair.marginal_range("Y") == frozenset([1, 2, 3, 4, 5, 6, 11]) \
            | frozenset(range(13, 20))


class TestMISupOracle:
    def test_matches_capacity_on_the_fixture(self, fig5):
        res = mi_sup_oracle(fig5, M3, F(336, 6859))
        assert res.count == 3
        assert res.codebook == (1, 7, 13)
        assert res.delta_tilde == F(24, 6859)

    def test_noise_floor_is_enforced(self, fig5):
        with pytest.raises(DeltaOutOfRange, match="7/19"):
            mi_sup_oracle(fig5, M1, F(7, 19))

    def test_unrestricted_never_smaller(self, fig5):
        delta = F(1, 5)
        feas = mi_sup_oracle(fig5, M1, delta)
        free = per_level_oracle(fig5, M1, delta, feasible_only=False)
        assert free.count >= feas.count


class TestAverageOverlap:
    def test_one_per_block_codebook(self, fig5):
        assert average_overlap(fig5, M1, (1, 7, 13)) == F(2, 21)
        assert average_overlap(fig5, M1, (1, 13)) == 0
        assert average_overlap(fig5, M1, (5,)) == 0

    def test_relaxed_capacity_breakpoint(self, fig5):
        assert avg_overlap_capacity(fig5, M1, F(2, 21)).count == 3
        assert avg_overlap_capacity(fig5, M1, F(1, 11)).count == 2

    def test_relaxation_never_loses_to_pairwise(self, fig5):
        for delta in (F(0), F(1, 9), F(2, 9), F(4, 9)):
            assert avg_overlap_capacity(fig5, M1, delta).count \
                >= capacity(fig5, M1, delta).count


# ---------------------------------------------------------------------------
# randomized cross-checks


def channels(max_inputs=5, max_outputs=5):
    def build(images):
        return Channel.of({x: frozenset(img) for x, img in enumerate(images)},
                          y_alphabet=range(max_outputs))
    return st.lists(
        st.frozensets(st.integers(0, max_outputs - 1), min_size=1,
                      max_size=max_outputs),
        min_size=1, max_size=max_inputs).map(build)


def whole(result: CapacityResult) -> tuple:
    """A capacity result with the thresholds it derives, as the oracles
    give them."""
    return result, result.thresholds


def ratios(values) -> set:
    """Pair values as the integer ratios ``(p, q)`` that the engine reads."""
    return {v.as_integer_ratio() for v in values}


def brute_force_capacity(symbols, value, delta) -> tuple:
    """Exhaustive subset search over every size: the least feasible subset
    of each size in combinations order, the largest size with one, and the
    sizes up to the first without one, with the threshold ``delta / k`` of
    each, as ``whole`` gives a result."""
    least = {}
    for k in range(1, len(symbols) + 1):
        least[k] = next(
            (cb for cb in itertools.combinations(symbols, k)
             if all(value(a, b) <= delta / k
                    for a, b in itertools.combinations(cb, 2))), None)
    count = max(k for k, cb in least.items() if cb is not None)
    sizes = range(1, min(count + 1, len(symbols)) + 1)
    return (CapacityResult(count, least[count],
                           tuple((k, least[k] is not None) for k in sizes),
                           delta),
            tuple((k, delta / k) for k in sizes))


def channel_oracle(ch, m, delta) -> tuple:
    def value(a, b):
        return m.of(ch.image(a) & ch.image(b))
    return brute_force_capacity(ch.x_symbols, value, delta)


def random_channel(rng, inputs, outputs, image_sizes) -> Channel:
    return Channel.of(
        {x: frozenset(rng.sample(range(outputs), rng.randint(*image_sizes)))
         for x in range(inputs)}, y_alphabet=range(outputs))


class TestAgainstBruteForce:
    @given(channels(), st.sampled_from([F(0), F(1, 7), F(1, 3), F(3, 5)]))
    @settings(max_examples=120, deadline=None)
    def test_capacity_equals_subset_search(self, ch, delta):
        m = CardinalityPower(len(ch.y_symbols))
        assert whole(capacity(ch, m, delta)) == channel_oracle(ch, m, delta)

    @pytest.mark.parametrize("seed", range(6))
    def test_larger_channels_where_colouring_prunes(self, seed, monkeypatch):
        rng = random.Random(seed)
        ch = random_channel(rng, rng.randint(9, 10), 12, (2, 5))
        m = CardinalityPower(12)
        pruned = []
        search = chancap._clique

        def recording(adj, non, cand, need, budget):
            found = search(adj, non, cand, need, budget)
            if found is None and need > 0 and cand.bit_count() >= need:
                pruned.append(need)
            return found

        monkeypatch.setattr(chancap, "_clique", recording)
        for delta in (F(0), F(1, 6), F(1, 2)):
            assert whole(capacity(ch, m, delta)) == channel_oracle(ch, m, delta)
        # some search was refuted by the colouring bound, not by counting
        assert pruned

    def test_shared_warm_measure_matches_fresh_ones(self):
        rng = random.Random(11)
        shared = CardinalityPower(12)
        for _ in range(30):
            ch = random_channel(rng, rng.randint(3, 14), 12, (1, 8))
            for delta in (F(0), F(1, 6), F(1, 2)):
                assert capacity(ch, shared, delta) == capacity(
                    ch, CardinalityPower(12), delta)

    @pytest.mark.parametrize("seed", range(8))
    def test_matrix_capacity_equals_subset_search(self, seed):
        rng = random.Random(seed)
        labels = [f"l{i}" for i in range(rng.randint(2, 8))]
        levels = [F(0), F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(1)]
        mapping = {pair: rng.choice(levels)
                   for pair in itertools.combinations(labels, 2)}
        em = EquivocationMatrix.of(labels, mapping, v_min=F(3, 4))
        for delta in (F(0), F(1, 4), F(1, 2), F(2, 3)):
            assert whole(matrix_capacity(em, delta)) == brute_force_capacity(
                em.labels, em.value, delta)

    @pytest.mark.parametrize("seed", range(8))
    def test_matrix_capacity_with_unshared_values(self, seed):
        # "p/q" strings parse to a fresh Fraction per entry, and missing
        # pairs default to fresh zeros, so equal values are distinct objects
        rng = random.Random(100 + seed)
        labels = [f"l{i}" for i in range(rng.randint(2, 9))]
        levels = ["0", "1/8", "1/4", "1/3", "1/2", "1"]
        mapping = {pair: rng.choice(levels)
                   for pair in itertools.combinations(labels, 2)
                   if rng.random() < 0.8}
        em = EquivocationMatrix.of(labels, mapping, v_min=F(3, 4))
        for delta in (F(0), F(1, 4), F(1, 2), F(2, 3)):
            assert whole(matrix_capacity(em, delta)) == brute_force_capacity(
                em.labels, em.value, delta)

    @pytest.mark.parametrize("images", [
        {0: {0}, 1: {1}, 2: {2}},                   # identity
        {0: {0, 1}, 1: {1, 2}, 2: {2, 0}},          # cycle
        {0: {0}, 1: {0, 1}, 2: {2}},                # nested images
    ])
    def test_dense_products(self, images):
        base = Channel.of(images)
        ch = ProductChannel(base, 2).materialize()
        m = product_uncertainty(CardinalityPower(3), 2)
        for delta in (F(0), F(1, 9), F(1, 3), F(2, 3)):
            assert whole(capacity(ch, m, delta)) == channel_oracle(ch, m, delta)

    @given(channels(max_inputs=12, max_outputs=6),
           st.sampled_from([F(0), F(1, 7), F(1, 3), F(3, 5)]))
    @settings(max_examples=100, deadline=None)
    def test_ranking_does_not_depend_on_shared_values(self, ch, delta):
        # a measure shares one Fraction per value; the engine must rank
        # equal values equally when every pair holds its own object
        shared = chancap._pair_values(ch, CardinalityPower(len(ch.y_symbols)))
        fresh = [F(v.numerator, v.denominator) for v in shared]
        assert not any(a is b for a, b in zip(shared, fresh))
        assert chancap._capacity_search(ch.x_symbols, fresh, delta) == \
            chancap._capacity_search(ch.x_symbols, shared, delta)

    @given(channels(max_inputs=8, max_outputs=6))
    @settings(max_examples=60, deadline=None)
    def test_delta_grid_is_every_scaled_value_below_the_floor(self, ch):
        m = CardinalityPower(len(ch.y_symbols))
        values = chancap._pair_values(ch, m)
        v_min = ch.min_image_uncertainty(m)
        expected = {F(0)} | {k * e for e in values if e > 0
                             for k in range(1, len(ch.x_symbols) + 1)
                             if k * e < v_min}
        assert chancap._delta_grid(ch, m, ratios(values)) == sorted(expected)

    @given(channels(), st.sampled_from([F(0), F(1, 7), F(1, 3)]),
           st.sampled_from([F(1, 2), F(3, 5), F(9, 10)]))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_delta(self, ch, d1, d2):
        m = CardinalityPower(len(ch.y_symbols))
        lo, hi = min(d1, d2), max(d1, d2)
        assert capacity(ch, m, lo).count <= capacity(ch, m, hi).count

    @given(channels(max_inputs=4, max_outputs=4))
    @settings(max_examples=60, deadline=None)
    def test_coding_theorem_on_small_channels(self, ch):
        m = CardinalityPower(len(ch.y_symbols))
        v_min = ch.min_image_uncertainty(m)
        grid = sorted({F(0), v_min / 3, v_min * F(9, 10)})
        report = verify_coding_theorem(ch, m, grid)
        assert report.ok
        for row in report.rows:
            assert row.capacity_count == row.sup_count == row.unrestricted_count


def per_level_oracle(ch, m, delta, feasible_only=True) -> MISupResult:
    """The information sup swept level by level: for each codebook, 0,
    every output association value up to the allowed level, and that level
    itself, in increasing order.  The reference for the two-level oracle, in
    the feasible-set mode or, with ``feasible_only`` false, the unrestricted
    one, where a missing family scores 0 bits."""
    reps = distinct_image_representatives(ch)
    best = None
    for size in range(1, len(reps) + 1):
        for cb in itertools.combinations(reps, size):
            pair = induced_pair(ch, cb)
            m_x = chancap._uniform_x(pair)
            theta_max = delta / (m.of(pair.marginal_range("Y")) * size)
            values = association_sets(pair, m_x, m).a_yx
            for theta in sorted({F(0), theta_max}
                                | {v for v in values if v <= theta_max}):
                family = overlap_family(pair, m_x, m, theta, "Y")
                if family is None and feasible_only:
                    continue
                count = 1 if family is None else family.count
                if best is None or count > best.count:
                    best = MISupResult(count, cb, theta * size)
    return best


def oracle_case(seed) -> tuple:
    """A seeded channel of 1-5 inputs, a cardinality or weighted measure,
    and the increasing deltas below its noise floor where a sup can change,
    with three more."""
    rng = random.Random(seed)
    # small images overlap a lot; wide ones can overlap by several small
    # values that all fit under a codebook's allowed level
    outputs, sizes = rng.choice([(rng.randint(4, 9), (1, 4)),
                                 (rng.randint(12, 24), (6, 12))])
    ch = random_channel(rng, rng.randint(1, 5), outputs, sizes)
    if rng.random() < 0.5:
        m = CardinalityPower(outputs, rng.randint(1, 2))
    else:
        weights = {y: rng.randint(1, 9) for y in range(outputs)}
        m = ExplicitWeights.of_mapping(weights, sum(weights.values()))
    v_min = ch.min_image_uncertainty(m)
    deltas = set(chancap._delta_grid(ch, m, ratios(chancap._pair_values(ch, m))))
    deltas |= {v_min * F(k, 4) for k in range(1, 4)}
    return ch, m, sorted(deltas)


def outcome(call, *args):
    """A call's whole result, or the type and message of what it raised."""
    try:
        return call(*args)
    except UvinfoError as exc:
        return type(exc), str(exc)


class TestOracleMatchesPerLevelSweep:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_whole_results(self, seed):
        ch, m, deltas = oracle_case(seed)
        for delta in deltas:
            for feasible_only in (True, False):
                assert mi_sup_oracle(ch, m, delta) \
                    == per_level_oracle(ch, m, delta, feasible_only)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_whole_verify_reports(self, seed):
        ch, m, deltas = oracle_case(seed)
        rows = []
        for delta in deltas:
            cap = capacity(ch, m, delta)
            sup = per_level_oracle(ch, m, delta)
            free = per_level_oracle(ch, m, delta, False)
            rows.append(CodingTheoremRow(
                delta, cap.count, cap.witness, sup.count, sup.codebook,
                sup.delta_tilde, free.count, cap.count == sup.count == free.count))
        assert verify_coding_theorem(ch, m, deltas) \
            == CodingTheoremReport(tuple(rows), all(row.match for row in rows))
        # each delta is checked in grid order, so a refused one raises what
        # the capacity search or the oracle raises for it, wherever it is
        v_min = ch.min_image_uncertainty(m)
        floor = (DeltaOutOfRange, "need 0 <= delta < m(V_N) = "
                 f"{format_ratio(v_min)}, got {format_ratio(v_min)}")
        one = (DeltaOutOfRange, "need 0 <= delta < 1, got 1")
        for grid, refusal in (([v_min], floor), (deltas + [v_min], floor),
                              ([F(1)], one), (deltas + [F(1)], one),
                              ([v_min, F(1)], floor), ([F(1), v_min], one)):
            if v_min < 1 or refusal == one:
                assert outcome(verify_coding_theorem, ch, m, grid) == refusal
        # more distinct images than the oracle's cap: refused at the first
        # delta that the capacity search accepts, and only there
        wide = Channel.of({x: {x} for x in range(13)})
        m13 = CardinalityPower(13)
        assert outcome(verify_coding_theorem, wide, m13, [F(1), F(0)]) == one
        assert outcome(verify_coding_theorem, wide, m13, [F(0), F(1)]) == (
            AlphabetTooLarge, "13 distinct images exceed the brute-force cap of 12")
        assert verify_coding_theorem(wide, m13, []) == CodingTheoremReport((), True)


class TestCertificateReuse:
    """A clique found at one size certifies every later size while it stays a
    clique of enough vertices in that size's graph, and the witness scan
    commits its members without a query."""

    def test_near_identity_product_needs_few_searches(self, monkeypatch):
        # identity images except 21 -> {20, 21}: at horizon 2 the 441 blocks
        # over symbols 0-20 are pairwise disjoint, and no 442 are
        base = {i: {i} for i in range(22)}
        base[21] = {20, 21}
        ch = ProductChannel(Channel.of(base), 2).materialize()
        m = product_uncertainty(CardinalityPower(22), 2)
        top_level = []
        search = chancap._clique

        # the search keeps its own stack, so every call is a top-level one
        def recording(adj, non, cand, need, budget):
            top_level.append(need)
            return search(adj, non, cand, need, budget)

        monkeypatch.setattr(chancap, "_clique", recording)
        sizes = range(1, 443)
        assert whole(capacity(ch, m, F(0))) == (CapacityResult(
            441, tuple(itertools.product(range(21), repeat=2)),
            tuple((k, k <= 441) for k in sizes), F(0)),
            tuple((k, F(0)) for k in sizes))
        # the greedy completion at size 1 finds a maximal clique of 441, so
        # the one search refutes size 442; proving each size anew would take
        # 442 searches, and the witness scan more
        assert len(top_level) <= 4


def is_clique(adj, bits) -> bool:
    """Whether the vertex bitset ``bits`` is pairwise adjacent in ``adj``."""
    return all(bits & ~adj[v] == 1 << v for v in range(len(adj)) if bits >> v & 1)


def subset_search(symbols, value, delta) -> tuple:
    """The least feasible codebook of each size, in combinations order, up
    to the first size with none: no larger size has one, since every
    k-subset of a feasible (k + 1)-codebook is feasible at delta / k.  Each
    pair value is read once.  The result and its thresholds, as ``whole``
    gives them."""
    values = {pair: value(*pair) for pair in itertools.combinations(symbols, 2)}
    per_size, least = [], None
    for k in range(1, len(symbols) + 1):
        close = {pair for pair, v in values.items() if v <= delta / k}
        found = next((cb for cb in itertools.combinations(symbols, k)
                      if close.issuperset(itertools.combinations(cb, 2))), None)
        per_size.append((k, found is not None))
        if found is None:
            break
        least = found
    return (CapacityResult(len(least), least, tuple(per_size), delta),
            tuple((k, delta / k) for k, _ in per_size))


def repaired(call) -> tuple:
    """``call()`` and the number of its clique queries that the repair
    settled: each had a hint that is no clique of the query's graph, and
    none ran a colouring search."""
    query, search = chancap._Graph.clique, chancap._clique
    settled, searches = [], []

    def counting(*args):
        searches.append(1)
        return search(*args)

    def recording(graph, cand, need, hint=0):
        before = len(searches)
        found = query(graph, cand, need, hint)
        if found is not None and len(searches) == before and \
                not is_clique(graph.adj, hint & cand):
            settled.append(need)
        return found

    with mock.patch.object(chancap, "_clique", counting), \
            mock.patch.object(chancap._Graph, "clique", recording):
        return call(), len(settled)


def searched_afresh(call):
    """``call()`` with every clique query answered by a colouring search
    over its whole candidate set, with no hint and no greedy completion."""
    def clique(graph, cand, need, hint=0):
        found = graph._branch_and_bound(cand, need)
        return None if found is None else chancap._maximal(graph.adj, found, cand)

    with mock.patch.object(chancap._Graph, "clique", clique):
        return call()


def top_level_searches(call) -> tuple:
    """``call()`` and the ``need`` of each colouring search it ran; the
    search keeps its own stack, so every call is a top-level one."""
    search, needs = chancap._clique, []

    def recording(adj, non, cand, need, budget):
        needs.append(need)
        return search(adj, non, cand, need, budget)

    with mock.patch.object(chancap, "_clique", recording):
        return call(), needs


REPAIR_DELTAS = (F(1, 3), F(1, 2))
REPAIR_IMAGES = ((3, 8), (6, 14))


class TestCertificateRepair:
    """A graph that drops pairs the last certificate used keeps the rest of
    it, completed greedily, and searches only when that is too small; no
    result, witness included, may depend on it.  The channels are those of
    the benchmark's tail, where the certificate breaks at most sizes."""

    def test_few_searches_on_ninety_inputs(self):
        def run():
            counts = []
            for seed in range(8):
                rng = random.Random(900 + seed)
                ch = random_channel(rng, 90, 30, REPAIR_IMAGES[seed % 2])
                counts.append(capacity(ch, CardinalityPower(30), F(1, 2)).count)
            return counts

        counts, needs = top_level_searches(run)
        assert counts == [15, 7] * 4
        # 13 searches when measured (1-3 per query, the refutation of
        # count + 1 among them); searching every size that drops a pair of
        # the certificate took 84
        assert len(needs) <= 16

    def test_surviving_certificate_needs_no_search(self):
        # c-f are pairwise 0 and a-b is 1/7; every other pair is 1.  Size 3
        # searches and finds c-f; size 4 drops a-b, so a greedy completion
        # from a alone stops at {a}, but c-f survive whole and certify size 4
        mapping = {pair: 1 for pair in itertools.combinations("abcdef", 2)}
        mapping.update({pair: 0 for pair in itertools.combinations("cdef", 2)})
        mapping["a", "b"] = F(1, 7)
        em = EquivocationMatrix.of("abcdef", mapping)
        result, needs = top_level_searches(lambda: matrix_capacity(em, F(1, 2)))
        assert whole(result) == brute_force_capacity(em.labels, em.value, F(1, 2))
        assert result.witness == tuple("cdef")
        # the searches at sizes 3 and 5; the queries of a and b have fewer
        # candidates than they need and are refuted with no search
        assert needs == [3, 5]

    def test_witness_query_starts_from_the_certificate(self):
        # the triangles a-d-e and c-d-e, and the edge a-b; size 3 finds
        # c-d-e, so the query of a is settled by d-e, where a greedy
        # completion from b alone would stop at {b}
        edges = {("a", "b"), ("a", "d"), ("a", "e"), ("c", "d"), ("c", "e"),
                 ("d", "e")}
        em = EquivocationMatrix.of("abcde", {
            pair: 0 if pair in edges else 1
            for pair in itertools.combinations("abcde", 2)})
        result, needs = top_level_searches(lambda: matrix_capacity(em, F(1, 2)))
        assert whole(result) == brute_force_capacity(em.labels, em.value, F(1, 2))
        assert result.witness == tuple("ade")
        # the searches at sizes 3 and 4; the query of b has no candidate
        # and is refuted with no search
        assert needs == [3, 4]

    @pytest.mark.parametrize("seed", range(8))
    def test_small_channels_against_subset_search(self, seed):
        rng = random.Random(1000 + seed)
        ch = random_channel(rng, rng.randint(10, 20), 30, REPAIR_IMAGES[seed % 2])
        m = CardinalityPower(30)

        def value(a, b):
            return m.of(ch.image(a) & ch.image(b))

        for delta in REPAIR_DELTAS:
            assert whole(capacity(ch, m, delta)) == subset_search(
                ch.x_symbols, value, delta)

    @pytest.mark.parametrize("seed", range(6))
    def test_large_channels_against_both_front_ends(self, seed):
        rng = random.Random(1100 + seed)
        ch = random_channel(rng, rng.randint(40, 90), 30, REPAIR_IMAGES[seed % 2])
        m = CardinalityPower(30)
        pair_values = chancap._pair_values(ch, m)
        settled = 0
        for delta in REPAIR_DELTAS:
            result, used = repaired(lambda: capacity(ch, m, delta))
            settled += used
            assert result == chancap._capacity_search(
                ch.x_symbols, pair_values, delta)
            assert result == searched_afresh(lambda: capacity(ch, m, delta))
        assert settled

    @pytest.mark.parametrize("seed", range(6))
    def test_horizon_two_products(self, seed):
        rng = random.Random(1200 + seed)
        base = random_channel(rng, 4, 6, (2, 4))
        ch = ProductChannel(base, 2).materialize()
        m = product_uncertainty(CardinalityPower(6), 2)

        def value(a, b):
            return m.of(ch.image(a) & ch.image(b))

        for delta in REPAIR_DELTAS:
            result = capacity(ch, m, delta)
            assert whole(result) == subset_search(ch.x_symbols, value, delta)
            assert result == searched_afresh(lambda: capacity(ch, m, delta))
            assert rate_at_horizon(base, CardinalityPower(6), delta, 2) == \
                Rate(result.count, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_matrix_capacity(self, seed):
        rng = random.Random(1300 + seed)
        labels = [f"l{i}" for i in range(rng.randint(10, 18))]
        levels = [F(0), F(1, 30), F(1, 15), F(1, 10), F(1, 6), F(1, 4), F(1)]
        mapping = {pair: rng.choice(levels)
                   for pair in itertools.combinations(labels, 2)}
        em = EquivocationMatrix.of(labels, mapping, v_min=F(3, 4))
        for delta in REPAIR_DELTAS:
            result = matrix_capacity(em, delta)
            assert whole(result) == subset_search(em.labels, em.value, delta)
            assert result == searched_afresh(lambda: matrix_capacity(em, delta))


class _HeavierZero(CardinalityPower):
    """A cardinality measure whose output 0 counts twice: its ``of`` no
    longer depends on the size alone, so the size table must not be used."""

    def of(self, subset):
        return Fraction(len(subset) + (0 in subset), self.base_size + 1)


def pair_loop_rows(ch) -> dict:
    """``rows[s][i]`` built pair by pair from the image intersections."""
    rows: dict = {}
    for i, j in itertools.permutations(range(len(ch.x_symbols)), 2):
        row = rows.setdefault(len(ch.images[i] & ch.images[j]), {})
        row[i] = row.get(i, 0) | 1 << j
    return rows


def table_rows(width, table) -> dict:
    """``rows[s][i]`` read field by field from a pair-count table, whose
    own fields must be all ones."""
    rows: dict = {}
    for i, row in enumerate(table):
        fields = [int.from_bytes(row[k:k + width], "big")
                  for k in range(0, len(row), width)][::-1]
        assert fields[i] == 256 ** width - 1
        for j, s in enumerate(fields):
            if j != i:
                bits = rows.setdefault(s, {})
                bits[i] = bits.get(i, 0) | 1 << j
    return rows


def cut_adjacency(rows, sizes) -> dict:
    """The OR of ``rows[s]`` over ``sizes``: ``{input: neighbours}``."""
    adj: dict = {}
    for s in sizes:
        for i, bits in rows.get(s, {}).items():
            adj[i] = adj.get(i, 0) | bits
    return adj


def every_cut_matches(ch, top) -> None:
    """The table's sizes up to ``top``, and its adjacency at every size up
    to ``top``, against the pair loop, in input numbering.  The adjacency
    changes only at a size some pair has, so each such size, the one below
    it, 0 and ``top`` cover every size."""
    n = len(ch.images)
    width, table = chancap._count_table(ch.images)
    expected = pair_loop_rows(ch)
    assert chancap._table_sizes(width, table, top) == \
        sorted(s for s in expected if s <= top)
    for size in {0, top, *expected, *(s - 1 for s in expected)}:
        if 0 <= size <= top:
            want = cut_adjacency(expected, [s for s in expected if s <= size])
            assert chancap._at_most(width, table, size) == \
                [want.get(i, 0) for i in range(n)]


class TestCountFrontEnd:
    """For a CardinalityPower the engine reads its graphs from one packed
    table of pair counts; the table, every cut's adjacency and every result
    must match the pair loop and the Fraction front end exactly."""

    @given(channels(max_inputs=14, max_outputs=7))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_the_pair_loop(self, ch):
        assert table_rows(*chancap._count_table(ch.images)) == pair_loop_rows(ch)

    @given(channels(max_inputs=4, max_outputs=3), st.integers(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_rows_match_the_pair_loop_on_products(self, base, n):
        ch = ProductChannel(base, n).materialize()
        assert table_rows(*chancap._count_table(ch.images)) == pair_loop_rows(ch)
        # filled from the base's counts: the built blocks are in the
        # Kronecker order of the base's inputs too
        assert table_rows(*chancap._count_table(base.images, n)) == \
            pair_loop_rows(ch)
        every_cut_matches(ch, max(map(len, ch.images)))

    @given(channels(max_inputs=10, max_outputs=6), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_results_match_the_fraction_front_end(self, ch, exponent):
        m = CardinalityPower(len(ch.y_symbols), exponent)
        pair_values = chancap._pair_values(ch, m)
        # every grid delta sits exactly on a threshold size * value
        for delta in chancap._delta_grid(ch, m, ratios(pair_values)) + [F(1, 2)]:
            assert capacity(ch, m, delta) == chancap._capacity_search(
                ch.x_symbols, pair_values, delta)

    @pytest.mark.parametrize("seed", range(6))
    def test_other_measures_take_the_fraction_path(self, seed, monkeypatch):
        def refuse(images):
            raise AssertionError("count table built for a non-size measure")

        monkeypatch.setattr(chancap, "_count_table", refuse)
        rng = random.Random(seed)
        ch = random_channel(rng, rng.randint(2, 9), 6, (1, 4))
        weights = {y: rng.randint(1, 4) for y in ch.y_symbols}
        for m in (ExplicitWeights.of_mapping(weights, sum(weights.values())),
                  _HeavierZero(6)):
            for delta in (F(0), F(1, 7), F(1, 3), F(3, 5)):
                assert whole(capacity(ch, m, delta)) == channel_oracle(ch, m, delta)

    @given(channels(max_inputs=14, max_outputs=7), st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_saturated_rows_match_the_pair_loop(self, ch, top):
        # a top below the largest intersection leaves the larger sizes out
        every_cut_matches(ch, min(top, max(map(len, ch.images))))

    @given(channels(max_inputs=14, max_outputs=7),
           st.sampled_from([F(0), F(1, 7), F(1, 3), F(3, 5), F(1)]),
           st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_front_end_renumbers_the_pair_loop_rows(self, ch, limit, exponent):
        m = CardinalityPower(len(ch.y_symbols), exponent)
        numbering, values, (width, table, fields) = \
            chancap._front_end(ch, m, limit)
        # ascending image size |N(i)|, ties broken by index
        n = len(ch.images)
        order = sorted(range(n), key=lambda i: (len(ch.images[i]), i))
        assert [numbering[i] for i in order] == list(range(n))
        back = chancap._permutation(numbering)
        expected = {s: row for s, row in pair_loop_rows(ch).items()
                    if m.of_size(s) <= limit}
        sizes = sorted(expected)
        assert [F(p, q) for p, q in values] == [m.of_size(s) for s in sizes]
        assert fields == sizes
        # below the value of size 1 the table is the zero graph itself
        assert (width == 0) == (limit < m.of_size(1))
        for cut in range(1, len(sizes) + 1):
            adj = chancap._at_most(width, table, fields[cut - 1]) if width \
                else table
            want = cut_adjacency(expected, sizes[:cut])
            assert [back(adj[numbering[i]]) for i in range(n)] == \
                [want.get(i, 0) for i in range(n)]

    @pytest.mark.parametrize("seed", range(4))
    def test_wide_fields(self, seed):
        # images of up to 300 outputs need 2-byte fields, and sizes past
        # 255 compare across both bytes of a field
        rng = random.Random(500 + seed)
        ch = random_channel(rng, rng.randint(2, 7), 300, (240, 300))
        width, table = chancap._count_table(ch.images)
        assert width == 2
        assert table_rows(width, table) == pair_loop_rows(ch)
        every_cut_matches(ch, 300)
        expected = pair_loop_rows(ch)
        for size in (254, 255, 256, 257):
            want = cut_adjacency(expected, [s for s in expected if s <= size])
            assert chancap._at_most(width, table, size) == \
                [want.get(i, 0) for i in range(len(ch.images))]
        m = CardinalityPower(300)
        pair_values = chancap._pair_values(ch, m)
        for delta in (F(0), F(1, 2), F(5, 6), F(9, 10), F(99, 100)):
            assert capacity(ch, m, delta) == chancap._capacity_search(
                ch.x_symbols, pair_values, delta)

    @pytest.mark.parametrize("largest, width", [(254, 1), (255, 2), (65534, 2),
                                                (65535, 4), (65537, 4)])
    def test_field_width_leaves_room_for_the_own_mark(self, largest, width):
        # the own field is all ones, above every count a pair can have; with
        # 4-byte fields, 0 and 1 share 65536 outputs when largest is 65537,
        # so a count that is larger in one byte is smaller in a later one
        # than the sizes near 300 that input 3 has with the others
        ch = Channel.of({0: range(largest), 1: range(1, largest),
                         2: range(largest - 1, largest + 1),
                         3: range(min(largest, 300))})
        found, table = chancap._count_table(ch.images)
        assert found == width
        assert table_rows(width, table) == pair_loop_rows(ch)
        every_cut_matches(ch, largest)
        m = CardinalityPower(largest + 1)
        for delta in (F(0), F(1, 2), F(largest - 1, largest + 1)):
            assert whole(capacity(ch, m, delta)) == channel_oracle(ch, m, delta)


class _SameCardinality(CardinalityPower):
    """A cardinality measure that is not ``CardinalityPower`` itself, so
    the engine ranks its pair values instead of reading counts."""


def pair_loop_ranks(n, pair_values, limit) -> tuple:
    """The distinct values in increasing order and ``rows[r][i]`` built
    pair by pair from the rank ``r`` of each pair's value, ranks past the
    values at most ``limit`` held at their number."""
    values = sorted(set(pair_values))
    top = sum(v <= limit for v in values)
    rows: dict = {}
    for (i, j), v in zip(itertools.combinations(range(n), 2), pair_values):
        row = rows.setdefault(min(values.index(v), top), {})
        row[i] = row.get(i, 0) | 1 << j
        row[j] = row.get(j, 0) | 1 << i
    return values, rows


def every_rank_cut_matches(n, pair_values, limit) -> int:
    """The rank table of the pair values, and its adjacency at every cut,
    against the pair loop; returns the table's field width."""
    values, (width, table, fields) = chancap._rank_table(n, pair_values, limit)
    expected, rows = pair_loop_ranks(n, pair_values, limit)
    top = sum(v <= limit for v in expected)
    assert values == [v.as_integer_ratio() for v in expected[:top]]
    assert list(fields) == list(range(top))
    assert len(table) == n
    assert table_rows(width, table) == rows
    for cut in range(1, top + 1):
        want = cut_adjacency(rows, range(cut))
        assert chancap._at_most(width, table, fields[cut - 1]) == \
            [want.get(i, 0) for i in range(n)]
    return width


LEVELS = (F(0), F(1, 9), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1))


@st.composite
def pair_value_lists(draw, max_vertices=12):
    """``n`` and one value per pair, every other one a fresh ``Fraction``
    object, so that equal values are often distinct objects."""
    n = draw(st.integers(1, max_vertices))
    chosen = draw(st.lists(st.sampled_from(LEVELS), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2))
    return n, [F(v) if k % 2 else v for k, v in enumerate(chosen)]


# values whose floats are equal although the values are not: 1/3 and its
# neighbours closer than a float's precision, zero and values that round to
# 0.0, and values past the largest float, which all read as infinity
TIED = (F(0), F(1, 10 ** 400), F(2, 10 ** 400), F(1, 3),
        F(10 ** 20, 3 * 10 ** 20 + 1), F(10 ** 20 + 1, 3 * 10 ** 20 + 2),
        F(1, 3) + F(1, 10 ** 30), F(1, 2), F(10 ** 400), F(10 ** 400 + 1),
        F(3 * 10 ** 400, 2))


@st.composite
def tied_value_lists(draw, max_vertices=10):
    n = draw(st.integers(1, max_vertices))
    chosen = draw(st.lists(st.sampled_from(TIED), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2))
    return n, [F(v) if k % 2 else v for k, v in enumerate(chosen)]


class TestRankFrontEnd:
    """Every other measure, and a matrix, ranks its pair values into one
    table in the count table's layout; the table and every cut's adjacency
    must match a pair loop, and the results those of the count table."""

    @given(tied_value_lists(), st.sampled_from(TIED))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_values_sort_exactly_where_floats_tie(self, drawn, limit):
        # the float sort key must order them as sorted(Fraction) does
        every_rank_cut_matches(*drawn, limit)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_float_ties_sort_as_fractions(self, seed):
        # runs of up to six distinct values that share a float (steps of
        # 10^-400 are far below the precision of a float at these centres,
        # and 0.0 and infinity absorb them), drawn in random order: the
        # values and their cut must be those of a Fraction-keyed sort
        rng = random.Random(700 + seed)
        pool = []
        for _ in range(40):
            centre = rng.choice([F(0), F(10 ** 400),
                                 F(rng.randint(1, 999), rng.randint(1, 999))])
            pool += [centre + F(k, 10 ** 400) for k in range(rng.randint(1, 6))]
        assert len(set(pool)) > 40
        n = 30
        pair_values = [rng.choice(pool) for _ in range(n * (n - 1) // 2)]
        limit = rng.choice(pool)
        assert every_rank_cut_matches(n, pair_values, limit) == 1

    @given(pair_value_lists(), st.sampled_from(LEVELS))
    @settings(max_examples=150, deadline=None)
    def test_every_cut_matches_the_pair_loop(self, drawn, limit):
        # zero values and values above the limit among them
        assert every_rank_cut_matches(*drawn, limit) == 1

    def test_equal_values_in_distinct_objects_share_a_rank(self):
        values = [F(1, 3), F(2, 6), F(1, 3), F(0), F(1, 3), F(2, 3)]
        assert len({id(v) for v in values}) == len(values)
        assert every_rank_cut_matches(4, values, F(1, 2)) == 1
        _, (_, table, _) = chancap._rank_table(4, values, F(1, 2))
        # field j of row i is the rank of {i, j}, from field 3 down to 0;
        # 2/3 is past the limit and held at 2
        assert table == [b"\x01\x01\x01\xff", b"\x01\x00\xff\x01",
                         b"\x02\xff\x00\x01", b"\xff\x02\x01\x01"]

    @pytest.mark.parametrize("values, limit", [
        ([], F(1, 2)),
        ([F(0)], F(0)),
        ([F(1, 3)], F(0)),
        ([F(1, 3)], F(1, 2)),
    ])
    def test_one_and_two_vertices(self, values, limit):
        n = 1 if not values else 2
        assert every_rank_cut_matches(n, values, limit) == 1

    @pytest.mark.parametrize("top, width", [(254, 1), (255, 2), (300, 2)])
    def test_wide_fields(self, top, width):
        # 26 vertices have 325 pairs, all of distinct values: the first top
        # are at most the limit, the rest are held at top
        rng = random.Random(top)
        pair_values = [F(k, 400) for k in rng.sample(range(325), 325)]
        assert every_rank_cut_matches(26, pair_values, F(top - 1, 400)) == width

    @pytest.mark.parametrize("seed", range(4))
    def test_subclass_matches_the_count_table(self, seed, monkeypatch):
        rng = random.Random(500 + seed)
        ch = random_channel(rng, rng.randint(2, 7), 300, (240, 300))
        deltas = (F(0), F(1, 2), F(5, 6), F(9, 10), F(99, 100))
        counted = [capacity(ch, CardinalityPower(300), d) for d in deltas]

        def refuse(images):
            raise AssertionError("count table built for a subclass")

        monkeypatch.setattr(chancap, "_count_table", refuse)
        assert [capacity(ch, _SameCardinality(300), d) for d in deltas] == \
            counted

    @pytest.mark.parametrize("largest", [254, 255, 65535])
    def test_subclass_matches_the_count_table_past_a_byte(self, largest):
        ch = Channel.of({0: range(largest), 1: range(1, largest),
                         2: range(largest - 1, largest + 1),
                         3: range(min(largest, 300))})
        for delta in (F(0), F(1, 2), F(largest - 1, largest + 1)):
            assert capacity(ch, _SameCardinality(largest + 1), delta) == \
                capacity(ch, CardinalityPower(largest + 1), delta)


def grid_deltas(ch, m) -> list:
    """Every delta of the breakpoint grid of ``ch`` under ``m``, where
    some threshold delta / k ties a pair value exactly, then 0 and 1/2.
    The grid is read from every pair value, and must be the one that the
    front end's own value list gives."""
    v_min = ch.min_image_uncertainty(m)
    grid = chancap._delta_grid(ch, m, ratios(chancap._pair_values(ch, m)))
    assert grid == chancap._delta_grid(
        ch, m, chancap._front_end(ch, m, v_min)[1])
    return grid + [F(0), F(1, 2)]


class TestIntegerCuts:
    """The engine finds every cut from integer ratios and derives its
    thresholds.  The whole result, thresholds included, must equal the
    subset search, which compares Fractions against delta / k, at every
    breakpoint, where delta / k ties a pair value exactly."""

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_cardinality_powers(self, seed):
        rng = random.Random(seed)
        exponent = rng.randint(1, 3)
        if rng.random() < 0.5:
            outputs = rng.randint(4, 7)
            ch = random_channel(rng, rng.randint(2, 10), outputs, (2, 4))
            m = CardinalityPower(outputs, exponent)
        else:
            outputs = rng.randint(3, 4)
            base = random_channel(rng, rng.randint(2, 3), outputs, (2, 3))
            ch = ProductChannel(base, 2).materialize()
            m = product_uncertainty(CardinalityPower(outputs, exponent), 2)

        def value(a, b):
            return m.of(ch.image(a) & ch.image(b))

        for delta in grid_deltas(ch, m):
            assert whole(capacity(ch, m, delta)) == subset_search(
                ch.x_symbols, value, delta)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_explicit_weights_and_matrices(self, seed):
        rng = random.Random(seed)
        outputs = rng.randint(4, 7)
        ch = random_channel(rng, rng.randint(2, 10), outputs, (2, 4))
        weights = {y: rng.randint(1, 5) for y in ch.y_symbols}
        m = ExplicitWeights.of_mapping(weights, sum(weights.values()))

        def value(a, b):
            return m.of(ch.image(a) & ch.image(b))

        em = EquivocationMatrix.of(
            ch.x_symbols, {pair: value(*pair)
                           for pair in itertools.combinations(ch.x_symbols, 2)},
            v_min=ch.min_image_uncertainty(m))

        for delta in grid_deltas(ch, m):
            expected = subset_search(ch.x_symbols, value, delta)
            assert whole(capacity(ch, m, delta)) == expected
            if delta < em.v_min:
                assert whole(matrix_capacity(em, delta)) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_matrices_at_every_scaled_level(self, seed):
        rng = random.Random(1400 + seed)
        labels = [f"l{i}" for i in range(rng.randint(2, 10))]
        levels = [F(0), F(1, 12), F(1, 8), F(1, 6), F(1, 4), F(1, 3), F(1)]
        mapping = {pair: rng.choice(levels)
                   for pair in itertools.combinations(labels, 2)}
        em = EquivocationMatrix.of(labels, mapping, v_min=F(3, 4))
        deltas = {F(0), F(1, 2)} | {k * v for v in levels
                                    for k in range(1, len(labels) + 1)
                                    if k * v < em.v_min}
        for delta in sorted(deltas):
            assert whole(matrix_capacity(em, delta)) == subset_search(
                em.labels, em.value, delta)


def under_both_budgets(call) -> tuple:
    """``call()`` run twice: with every top-level clique search stalled at
    its first node, so that each graph is searched in smallest-last order,
    and with no search ever stalled; also the sizes of the graphs that the
    first run renumbered."""
    relabel, renumbered = chancap._smallest_last, []

    def recording(adj):
        renumbered.append(len(adj))
        return relabel(adj)

    with mock.patch.object(chancap, "_STALL_NODES_PER_VERTEX", 0), \
            mock.patch.object(chancap, "_smallest_last", recording):
        forced = call()
    with mock.patch.object(chancap, "_STALL_NODES_PER_VERTEX", math.inf):
        unlimited = call()
    return forced, unlimited, renumbered


class TestStalledSearchRestart:
    """A top-level clique search that runs out of nodes is dropped and run
    again in smallest-last order.  No result, witness included, may depend
    on whether or where that happens."""

    @given(channels(max_inputs=9, max_outputs=6),
           st.sampled_from([F(0), F(1, 7), F(1, 3), F(3, 5)]), st.integers(1, 2))
    @settings(max_examples=80, deadline=None)
    def test_random_channels(self, ch, delta, exponent):
        m = CardinalityPower(len(ch.y_symbols), exponent)
        forced, unlimited, renumbered = under_both_budgets(
            lambda: capacity(ch, m, delta))
        assert whole(forced) == whole(unlimited) == channel_oracle(ch, m, delta)
        # a graph is renumbered when a search runs on it; the refutation of
        # count + 1 always searches, and when every input fits, the greedy
        # completion at size 1 finds them all and nothing searches
        assert bool(renumbered) == (forced.count < len(ch.x_symbols))

    @given(channels(max_inputs=3, max_outputs=3),
           st.sampled_from([F(0), F(1, 9), F(1, 3), F(2, 3)]))
    @settings(max_examples=40, deadline=None)
    def test_horizon_two_products(self, base, delta):
        ch = ProductChannel(base, 2).materialize()
        m = product_uncertainty(CardinalityPower(len(base.y_symbols)), 2)
        forced, unlimited, _ = under_both_budgets(lambda: capacity(ch, m, delta))
        assert whole(forced) == whole(unlimited) == channel_oracle(ch, m, delta)
        rates = under_both_budgets(lambda: rate_at_horizon(
            base, CardinalityPower(len(base.y_symbols)), delta, 2))
        assert rates[0] == rates[1] == Rate(forced.count, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_explicit_weights(self, seed):
        rng = random.Random(200 + seed)
        ch = random_channel(rng, rng.randint(2, 9), 6, (1, 4))
        weights = {y: rng.randint(1, 4) for y in ch.y_symbols}
        m = ExplicitWeights.of_mapping(weights, sum(weights.values()))
        for delta in (F(0), F(1, 7), F(1, 3), F(3, 5)):
            forced, unlimited, _ = under_both_budgets(
                lambda: capacity(ch, m, delta))
            assert whole(forced) == whole(unlimited) == channel_oracle(ch, m, delta)

    @pytest.mark.parametrize("seed", range(6))
    def test_matrix_capacity(self, seed):
        rng = random.Random(300 + seed)
        labels = [f"l{i}" for i in range(rng.randint(2, 9))]
        levels = ["0", "1/8", "1/4", "1/3", "1/2", "1"]
        mapping = {pair: rng.choice(levels)
                   for pair in itertools.combinations(labels, 2)}
        em = EquivocationMatrix.of(labels, mapping, v_min=F(3, 4))
        for delta in (F(0), F(1, 4), F(1, 2), F(2, 3)):
            forced, unlimited, _ = under_both_budgets(
                lambda: matrix_capacity(em, delta))
            assert whole(forced) == whole(unlimited) == brute_force_capacity(
                em.labels, em.value, delta)

    @pytest.mark.parametrize("seed", range(3))
    def test_wide_images(self, seed):
        # images of up to 300 outputs: 2-byte fields in the count table
        rng = random.Random(600 + seed)
        ch = random_channel(rng, rng.randint(3, 8), 300, (200, 300))
        m = CardinalityPower(300)
        pair_values = chancap._pair_values(ch, m)
        for delta in (F(0), F(1, 2), F(9, 10), F(99, 100)):
            forced, unlimited, _ = under_both_budgets(
                lambda: capacity(ch, m, delta))
            assert forced == unlimited == chancap._capacity_search(
                ch.x_symbols, pair_values, delta)

    @pytest.mark.parametrize("seed", range(6))
    def test_horizon_one_sweep(self, seed):
        rng = random.Random(400 + seed)
        ch = random_channel(rng, rng.randint(2, 9), 6, (1, 4))
        weights = {y: rng.randint(1, 4) for y in ch.y_symbols}
        for m in (CardinalityPower(6),
                  ExplicitWeights.of_mapping(weights, sum(weights.values()))):
            best = max((channel_oracle(ch, m, d)[0].count, -d) for d in
                       chancap._delta_grid(ch, m, ratios(chancap._pair_values(ch, m))))
            forced, unlimited, _ = under_both_budgets(
                lambda: _horizon_one_sup(ch, m))
            assert forced == unlimited == (best[0], -best[1])

    def test_hard_horizon_three_base(self, monkeypatch):
        # numbered in input order, the search that refutes 37 took about
        # 59,000 nodes (6.9 s); the built product numbered by collision mass
        # took 111, and the blocks in the Kronecker order of the base's
        # numbering take 1, by image size as by collision mass
        base = Channel.of({0: {0, 4, 5}, 1: {0, 6, 8}, 2: {5, 6, 8}, 3: {2, 4},
                           4: {3, 5}, 5: {1, 4, 5}, 6: {0, 2}}, y_alphabet=range(9))
        nodes = []
        search = chancap._clique

        # each node takes one from the budget; an unlimited search is given
        # a finite one so that its nodes can be counted
        def counting(adj, non, cand, need, budget):
            start = min(budget[0], 10 ** 9)
            left = [start]
            try:
                return search(adj, non, cand, need, left)
            finally:
                nodes.append(start - left[0])

        monkeypatch.setattr(chancap, "_clique", counting)
        assert rate_at_horizon(base, CardinalityPower(9), F(1, 10), 3) == Rate(36, 3)
        assert sum(nodes) <= 5000


def collision_mass_order(ch) -> list:
    """The inputs by ascending collision mass, the sum over ``y`` in
    ``N(i)`` of the inputs that see ``y`` (ties by index): the count front
    end's numbering before it numbered by image size."""
    hits = Counter(itertools.chain.from_iterable(ch.images))
    mass = [sum(hits[y] for y in image) for image in ch.images]
    return sorted(range(len(mass)), key=lambda i: (mass[i], i))


def vertex_orders(ch) -> list:
    """Three numberings of the inputs, each as the input of every vertex:
    ascending image size (the front end's own), ascending collision mass
    and input order."""
    n = len(ch.images)
    return [sorted(range(n), key=lambda i: (len(ch.images[i]), i)),
            collision_mass_order(ch), list(range(n))]


def kronecker(numbers, horizon) -> list:
    """The number of each block, in ``itertools.product`` order of its
    inputs, in the Kronecker order of the inputs' ``numbers``."""
    blocks = list(numbers)
    for _ in range(horizon - 1):
        blocks = [a * len(blocks) + b for a in numbers for b in blocks]
    return blocks


def renumbered(front, order, horizon=1) -> tuple:
    """The count front end ``front`` with its inputs numbered by ``order``
    (the input of each vertex) instead, blocks in the Kronecker order of
    that numbering: the rows of the table and the fields of each row move,
    the values and the field of each cut stay.  A row's fields run from the
    last vertex to the first."""
    numbering, values, (width, rows, fields) = front
    old = kronecker([numbering[i] for i in order], horizon)
    cells = [[row[k:k + width] for k in range(0, len(row), width)][::-1]
             for row in rows]
    table = [b"".join(map(cells[v].__getitem__, old[::-1])) for v in old]
    return (sorted(range(len(order)), key=order.__getitem__), values,
            (width, table, fields))


def renumbered_graph(front, order) -> tuple:
    """The zero-error front end ``front``, whose table of width 0 holds the
    graph itself, with its inputs numbered by ``order`` instead: the
    vertices of the graph move, the values and the field stay."""
    numbering, values, (width, adj, fields) = front
    old = [numbering[i] for i in order]
    into = chancap._permutation(old)
    return (sorted(range(len(order)), key=order.__getitem__), values,
            (width, [into(adj[v]) for v in old], fields))


def repeating_channel(rng, inputs, outputs, image_sizes) -> Channel:
    """A random channel whose inputs draw their images from a pool of half
    as many, so that images repeat."""
    pool = [frozenset(rng.sample(range(outputs), rng.randint(*image_sizes)))
            for _ in range(max(1, inputs // 2))]
    return Channel.of({x: rng.choice(pool) for x in range(inputs)},
                      y_alphabet=range(outputs))


class TestVertexOrder:
    """The count front end numbers the inputs by ascending image size; the
    whole result, witness included, is the same under the retired collision
    mass numbering, under input order and on the materialized product."""

    @pytest.mark.parametrize("seed", range(8))
    def test_channels(self, seed):
        rng = random.Random(2300 + seed)
        make = repeating_channel if seed % 2 else random_channel
        ch = make(rng, rng.randint(12, 60), 30, (2, 8))
        m = CardinalityPower(30)
        pair_values = chancap._pair_values(ch, m)
        n = len(ch.images)
        zero = cut_adjacency(pair_loop_rows(ch), [0])
        for delta in (F(0), F(1, 10), F(1, 3), F(1, 2)):
            want = chancap._capacity_search(ch.x_symbols, pair_values, delta)
            front = chancap._front_end(ch, m, delta)
            # in input order, the table is the one built in that order, and
            # at delta 0 the zero graph is the pair loop's
            move = renumbered if delta else renumbered_graph
            assert move(front, range(n))[2][:2] == (
                chancap._count_table(ch.images) if delta
                else (0, [zero.get(i, 0) for i in range(n)]))
            for order in vertex_orders(ch):
                assert whole(chancap._search(
                    ch.x_symbols, *move(front, order), delta)) == whole(want)
            assert capacity(ch, m, delta) == want

    @pytest.mark.parametrize("seed, horizon",
                             [(seed, 2) for seed in range(4)] +
                             [(seed, 3) for seed in range(2)])
    def test_products(self, seed, horizon):
        rng = random.Random(2400 + seed)
        make = repeating_channel if seed % 2 else random_channel
        base = make(rng, 5, 5, (1, 3))
        m = CardinalityPower(5)
        pm = product_uncertainty(m, horizon)
        ch = ProductChannel(base, horizon).materialize()
        for delta in (F(0), F(1, 10), F(1, 3)):
            want = capacity(ch, pm, delta)
            front = chancap._front_end(base, pm, delta, horizon)
            assert renumbered(front, range(5), horizon)[2][:2] == \
                chancap._count_table(base.images, horizon)
            for order in vertex_orders(base):
                numbering, values, table = renumbered(front, order, horizon)
                assert whole(chancap._search(
                    ch.x_symbols, kronecker(numbering, horizon), values, table,
                    delta)) == whole(want)
            assert rate_at_horizon(base, m, delta, horizon) == \
                Rate(want.count, horizon)

def recursive_clique(adj, cand, need, budget):
    """The colouring search written as a recursion, one call per node: the
    reference for the order, the answers and the budget of ``_clique``."""
    if need <= 0:
        return 0
    budget[0] -= 1
    if budget[0] < 0:
        raise chancap._Stalled
    coloured, uncoloured, colour = [], cand, 0
    while uncoloured:
        colour += 1
        free = uncoloured
        while free:
            v = (free & -free).bit_length() - 1
            coloured.append((colour, v))
            uncoloured ^= 1 << v
            free &= ~(adj[v] | 1 << v)
    if colour == len(coloured):
        return cand if colour >= need else None
    for c, v in reversed(coloured):
        if c < need:
            return None
        found = recursive_clique(adj, cand & adj[v], need - 1, budget)
        if found is not None:
            return found | 1 << v
        cand ^= 1 << v
    return None


def random_graph(rng, n, p) -> list:
    adj = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < p:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


class TestDeepSearch:
    """The search keeps its own stack: the same nodes in the same order as
    a recursion, with no depth limit."""

    @pytest.mark.parametrize("seed", range(12))
    def test_same_nodes_as_the_recursion(self, seed):
        rng = random.Random(700 + seed)
        n = rng.randint(1, 40)
        adj = random_graph(rng, n, rng.choice([0.3, 0.6, 0.85]))
        non = chancap._complements(adj)
        for _ in range(10):
            cand = rng.getrandbits(n) | rng.choice([0, (1 << n) - 1])
            need = rng.randint(0, n + 1)
            budget, left = [10 ** 9], [10 ** 9]
            found = recursive_clique(adj, cand, need, budget)
            assert chancap._clique(adj, non, cand, need, left) == found
            assert left == budget
            # a budget of exactly the nodes visited is enough, and any
            # smaller one stalls
            nodes = 10 ** 9 - budget[0]
            assert chancap._clique(adj, non, cand, need, [nodes]) == found
            for limit in {0, nodes // 2, nodes - 1} if nodes else ():
                with pytest.raises(chancap._Stalled):
                    chancap._clique(adj, non, cand, need, [limit])

    def test_cocktail_party_clique_needs_no_recursion(self):
        # each of 2 x 1100 vertices misses only its partner: every colouring
        # node on the way down has one branch, and the search goes 1100
        # levels deep, past the interpreter's recursion limit
        n = 2200
        everyone = (1 << n) - 1
        adj = [everyone ^ 1 << v ^ 1 << (v ^ 1) for v in range(n)]
        found = chancap._clique(adj, chancap._complements(adj), everyone, 1100,
                                [math.inf])
        assert found.bit_count() == 1100 and is_clique(adj, found)
        # a query completes a clique greedily before it searches, and here
        # that alone finds one of 1100
        greedy = chancap._Graph(adj).clique(everyone, 1100)
        assert greedy.bit_count() == 1100 and is_clique(adj, greedy)
        assert chancap._Graph(adj).clique(everyone, 1101) is None


def built_graphs(call) -> tuple:
    """``call()`` and the adjacency of every graph the engine built."""
    built, init = [], chancap._Graph.__init__

    def recording(graph, adj):
        built.append(tuple(adj))
        init(graph, adj)

    with mock.patch.object(chancap._Graph, "__init__", recording):
        return call(), built


def sparse_first_case(seed) -> Channel:
    """A channel of 1-45 inputs: random, with repeated images, the identity
    (every size feasible at every delta, so no size is refuted) or one whose
    images all share output 0 (no pair is disjoint)."""
    rng = random.Random(2600 + seed)
    n, outputs = rng.randint(1, 20 if seed % 3 else 45), rng.randint(3, 12)
    kind = seed % 4
    if kind == 0:
        return random_channel(rng, n, outputs, (1, outputs // 2))
    if kind == 1:
        return repeating_channel(rng, n, outputs, (1, 4))
    if kind == 2:
        return Channel.of({x: {x} for x in range(n)})
    return Channel.of({x: {0, *rng.sample(range(1, outputs), rng.randint(0, 3))}
                       for x in range(n)}, y_alphabet=range(outputs))


class TestSparseFirst:
    """Each search builds size n's graph first, whose greedy clique proves
    the sizes up to its own, and at zero error the front end reads the
    disjointness graph off the output columns with no table.  Whole results
    must match the rank front end, which keeps its table, and subset search;
    no cut's graph is built twice in one search."""

    @pytest.mark.parametrize("seed", range(24))
    def test_against_the_rank_front_end_and_subset_search(self, seed,
                                                          monkeypatch):
        ch = sparse_first_case(seed)
        n, count_table = len(ch.x_symbols), chancap._count_table

        def refuse(images, horizon=1):
            raise AssertionError("count table built at zero error")

        for exponent in (1, 2, 3):
            m = CardinalityPower(len(ch.y_symbols), exponent)
            pair_values = chancap._pair_values(ch, m)
            one = m.of_size(1)  # the value of one shared output
            grid = chancap._delta_grid(ch, m, ratios(pair_values))
            for delta in sorted({F(0), one - F(1, 10 ** 6), one, *grid[:6],
                                 F(1, 2)}):
                monkeypatch.setattr(chancap, "_count_table",
                                    refuse if delta < one else count_table)
                result, built = built_graphs(lambda: capacity(ch, m, delta))
                monkeypatch.setattr(chancap, "_count_table", count_table)
                assert len(set(built)) == len(built)
                assert result == chancap._capacity_search(
                    ch.x_symbols, pair_values, delta)
                if n <= 20:
                    assert whole(result) == subset_search(
                        ch.x_symbols,
                        lambda a, b: m.of(ch.image(a) & ch.image(b)), delta)
                if seed % 4 == 2:  # the identity: every size, one graph
                    assert result.per_size_feasibility[-1] == (n, True)
                    assert len(built) == 1
                if seed % 4 == 3 and delta < one:  # no disjoint pair
                    assert result.count == 1
