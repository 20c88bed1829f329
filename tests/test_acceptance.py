"""Acceptance suite: thirteen end-to-end criteria, one test each.

Every check is exact (rational equality, never approximate) and every
randomized criterion runs on a fixed seed so the suite is reproducible.
Each test ends with a single PASS line naming the criterion (visible with
``pytest -s``); a failure of criterion N fails test ``test_acNN_*``.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from uvinfo import (
    BitString,
    CardinalityPower,
    Channel,
    ConfidenceSequence,
    IntervalUnion,
    LebesguePlusOffset,
    UncertainPair,
    association_sets,
    capacity,
    classify_levels,
    hamming_distance_bound,
    hamming_equivocation,
    information_rate_at_horizon,
    mutual_information,
    overlap_family,
    rate_at_horizon,
    single_letter_check,
    taxicab_family,
    tensorization_check,
    verify_coding_theorem,
)
from uvinfo.chancap import avg_overlap_capacity

# the exhaustive-subset capacity reference, shared with the solver tests
from test_chancap import channel_oracle, whole

F = Fraction


# ---------------------------------------------------------------------------
# shared fixtures and generators


def walkers_pair() -> UncertainPair:
    return UncertainPair.hybrid({
        "a": IntervalUnion.of([(0, 15)]),
        "ab": IntervalUnion.of([(10, 15)]),
        "b": IntervalUnion.of([(10, 30)]),
        "bc": IntervalUnion.of([(20, 30)]),
        "c": IntervalUnion.of([(20, 30)]),
    })


@pytest.fixture(scope="module")
def fig5() -> Channel:
    block1 = frozenset([1, 2, 3, 4, 5, 6, 11])
    block2 = frozenset([7, 8, 9, 10, 11, 12, 2])
    block3 = frozenset(range(13, 20))
    mapping = {x: block1 for x in range(1, 7)}
    mapping.update({x: block2 for x in range(7, 13)})
    mapping.update({x: block3 for x in range(13, 20)})
    return Channel.of(mapping)


def random_channel(rng: random.Random, max_inputs=6, max_outputs=6) -> Channel:
    ny = rng.randint(1, max_outputs)
    nx = rng.randint(1, max_inputs)
    mapping = {}
    for x in range(nx):
        size = rng.randint(1, ny)
        mapping[x] = frozenset(rng.sample(range(ny), size))
    return Channel.of(mapping, y_alphabet=range(ny))


def random_finite_pair(rng: random.Random, max_side=4) -> UncertainPair:
    nx = rng.randint(1, max_side)
    ny = rng.randint(1, max_side)
    points = [(x, y) for x in range(nx) for y in range(ny)]
    size = rng.randint(1, len(points))
    return UncertainPair.finite(rng.sample(points, size))


def uniform_ms(pair: UncertainPair):
    m_x = CardinalityPower(len(pair.marginal_range("X")))
    m_y = CardinalityPower(len(pair.marginal_range("Y")))
    return m_x, m_y


def straddling_grid(ch: Channel, m) -> list:
    """Zero, every distinct pairwise overlap ratio below the noise floor,
    and a point strictly between each consecutive pair (and before the
    floor), so feasibility flips inside the grid wherever it can."""
    v_min = ch.min_image_uncertainty(m)
    ratios = sorted({m.of(ch.image(a) & ch.image(b))
                     for a, b in itertools.combinations(ch.x_symbols, 2)})
    anchors = [F(0)] + [r for r in ratios if 0 < r < v_min]
    grid = set(anchors)
    for lo, hi in zip(anchors, anchors[1:]):
        grid.add((lo + hi) / 2)
    grid.add((anchors[-1] + v_min) / 2)
    return sorted(grid)


# ---------------------------------------------------------------------------
# overlap-family axiom checker (independent of the construction code)


def conditional_sections(pair: UncertainPair, side: str) -> list:
    """The distinct conditional ranges of one side as frozensets."""
    if pair.is_hybrid():
        assert side == "X", "only the finite side is checked exhaustively"
        return sorted({cell.xset for cell in pair.arrangement()},
                      key=sorted)
    other = "Y" if side == "X" else "X"
    out = {pair.conditional_range(side, p)
           for p in pair.marginal_range(other)}
    return sorted(out, key=sorted)


class _Connectivity:
    """Chain connectivity through conditional ranges whose consecutive
    overlaps exceed delta times the marginal uncertainty."""

    def __init__(self, sections, m, total, delta):
        self.sections = sections
        k = len(sections)
        parent = list(range(k))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in itertools.combinations(range(k), 2):
            inter = sections[i] & sections[j]
            if inter and m.of(inter) > delta * total:
                parent[find(i)] = find(j)
        self.component = [find(i) for i in range(k)]

    def connected(self, x1, x2) -> bool:
        comps1 = {self.component[i] for i, s in enumerate(self.sections)
                  if x1 in s}
        comps2 = {self.component[i] for i, s in enumerate(self.sections)
                  if x2 in s}
        return bool(comps1 & comps2)


def check_family_axioms(pair, side, m_side, delta, family) -> None:
    """The three defining properties, re-derived from scratch."""
    sections = conditional_sections(pair, side)
    marginal = frozenset().union(*sections)
    total = m_side.of(marginal)
    conn = _Connectivity(sections, m_side, total, delta)

    # covering family of distinct sets
    assert frozenset().union(*family.sets) == marginal
    assert len(set(family.sets)) == len(family.sets)
    for s in family.sets:
        # (1) delta-connected, and contains a whole conditional range
        for x1, x2 in itertools.combinations(sorted(s), 2):
            assert conn.connected(x1, x2)
        assert any(sec <= s for sec in sections)
    # (2) pairwise overlap at most delta * m(marginal)
    for s1, s2 in itertools.combinations(family.sets, 2):
        assert m_side.of(s1 & s2) <= delta * total
    # (3) every conditional range inside some family set
    for sec in sections:
        assert any(sec <= s for s in family.sets)

    if family.regime == "disassociated":
        _check_isolated_partition_maximality(
            sections, family, conn, m_side, delta, total, marginal)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block + [first]] + smaller[i + 1:]
        yield smaller + [[first]]


def _check_isolated_partition_maximality(sections, family, conn, m, delta,
                                         total, marginal) -> None:
    # partition
    for s1, s2 in itertools.combinations(family.sets, 2):
        assert not (s1 & s2)
    # delta-isolated
    for s1, s2 in itertools.combinations(family.sets, 2):
        for x1 in s1:
            for x2 in s2:
                assert not conn.connected(x1, x2)
    # maximal among delta-isolated partitions (exhaustive over groupings
    # of the distinct conditional ranges)
    if len(sections) > 6:
        return
    best = 0
    for grouping in _set_partitions(list(range(len(sections)))):
        blocks = [frozenset().union(*(sections[i] for i in group))
                  for group in grouping]
        if any(b1 & b2 for b1, b2 in itertools.combinations(blocks, 2)):
            continue
        isolated = all(
            not conn.connected(x1, x2)
            for b1, b2 in itertools.combinations(blocks, 2)
            for x1 in b1 for x2 in b2)
        if isolated:
            best = max(best, len(blocks))
    assert len(family.sets) == best


# ---------------------------------------------------------------------------
# the thirteen criteria


def test_ac01_walkers_association_and_regimes():
    started = time.monotonic()
    pair = walkers_pair()
    m_x, m_y = CardinalityPower(5), LebesguePlusOffset(10)
    assoc = association_sets(pair, m_x, m_y)
    assert assoc.a_xy == frozenset([F(1, 5), F(3, 5)])
    assert assoc.a_yx == frozenset([F(3, 8), F(1, 2)])
    assert classify_levels(assoc, F(1, 6), F(1, 4)).variant == "disassociated"
    assert classify_levels(assoc, F(3, 5), F(1, 2)).variant == "associated"
    assert classify_levels(assoc, F(1, 4), F(1, 4)).variant == "neither"
    # the printed thresholds themselves: at the values the strict/weak
    # comparisons flip exactly
    assert classify_levels(assoc, F(1, 5), F(1, 4)).variant == "neither"
    assert classify_levels(assoc, F(3, 5), F(3, 8)).variant == "neither"
    elapsed = time.monotonic() - started
    assert elapsed < 1
    print(f"AC1 PASS: walkers association sets and regimes exact "
          f"({elapsed:.3f}s)")


def test_ac02_sup_capacity_certificate(fig5):
    started = time.monotonic()
    m = CardinalityPower(19)
    cert = single_letter_check(
        fig5, m, "T12", codebook=(1, 7, 13), delta1=F(2, 9),
        delta_bar=F(1, 6),
        sequence=ConfidenceSequence.geometric(F(7, 342), first=F(2, 9)))
    assert cert.certifies
    assert cert.level == F(1, 6)
    assert cert.capacity_count == 2 and cert.render_bits() == "1"
    rate = rate_at_horizon(fig5, m, F(2, 9), 1)
    assert rate.count == 2 and rate.render() == "1"
    assert time.monotonic() - started < 5
    print("AC2 PASS: geometric-tail certificate gives 1 bit, matching the "
          "horizon-1 rate")


def test_ac03_zero_error_certificate(fig5):
    started = time.monotonic()
    m = CardinalityPower(19)
    cert = single_letter_check(fig5, m, "Cor2", codebook=(1, 7, 13))
    assert cert.certifies
    assert cert.capacity_count == 2 and cert.render_bits() == "1"
    assert capacity(fig5, m, F(0)).count == 2
    assert time.monotonic() - started < 5
    print("AC3 PASS: zero-error certificate gives 1 bit, capacity count 2")


def test_ac04_inf_capacity_certificate(fig5):
    started = time.monotonic()
    m = CardinalityPower(19, 3)
    growth = 3 * F(7, 19) ** 3
    cert = single_letter_check(
        fig5, m, "T13", codebook=(1, 7, 13), delta1=F(2, 6) ** 3,
        delta_bar=F(2, 6) ** 3,
        sequence=ConfidenceSequence.geometric(growth,
                                              scale=F(2, 6) ** 3 / growth))
    assert cert.certifies
    assert cert.delta_hat == F(7, 19) ** 3
    assert cert.capacity_count == 3 and cert.render_bits() == "log2(3)"
    assert time.monotonic() - started < 5
    print("AC4 PASS: cubed-uncertainty certificate gives log2(3) with "
          "delta_hat = (7/19)^3")


def test_ac05_vanishing_capacity_certificate(fig5):
    started = time.monotonic()
    cert = single_letter_check(fig5, CardinalityPower(19, 3), "T14")
    assert cert.certifies
    assert cert.delta_hat * len(cert.codebook) == F(1029, 6859)
    assert F(1029, 6859) < 1
    assert cert.capacity_count == 3 and cert.render_bits() == "log2(3)"
    assert time.monotonic() - started < 5
    print("AC5 PASS: vanishing-sequence certificate gives log2(3), spread "
          "1029/6859 < 1")


def test_ac06_coding_theorem_equality(fig5):
    started = time.monotonic()
    rng = random.Random(2026_08_06)
    channels = 0
    rows = 0
    while channels < 200:
        ch = random_channel(rng)
        m = CardinalityPower(len(ch.y_symbols))
        report = verify_coding_theorem(ch, m, straddling_grid(ch, m))
        assert report.ok
        channels += 1
        rows += len(report.rows)
    fig_report = verify_coding_theorem(fig5, CardinalityPower(19),
                                       [F(0), F(2, 9)])
    assert fig_report.ok
    elapsed = time.monotonic() - started
    assert elapsed < 300
    print(f"AC6 PASS: capacity == information sup on 200 channels "
          f"({rows} grid rows) plus the 19-symbol fixture ({elapsed:.1f}s)")


def test_ac07_block_rate_equality():
    started = time.monotonic()
    rng = random.Random(2026_08_07)
    checked = 0
    while checked < 50:
        ch = random_channel(rng, max_inputs=3, max_outputs=3)
        m = CardinalityPower(len(ch.y_symbols))
        v = ch.min_image_uncertainty(m)
        for n in (1, 2):
            for frac in (F(0), F(1, 3), F(5, 6)):
                delta_n = v ** n * frac
                lhs = rate_at_horizon(ch, m, delta_n, n)
                rhs = information_rate_at_horizon(ch, m, delta_n, n)
                assert lhs.count == rhs.count
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300
    print(f"AC7 PASS: horizon-1/2 rate equals the information rate on 50 "
          f"channels, 6 levels each ({elapsed:.1f}s)")


def test_ac08_tensorization():
    started = time.monotonic()
    rng = random.Random(2026_08_08)
    satisfied = 0
    skipped_reports = 0
    attempts = 0
    while satisfied < 100:
        attempts += 1
        assert attempts < 3000, "instance generation exhausted"
        pairs = [random_finite_pair(rng, max_side=3) for _ in range(2)]
        base = max(len(p.marginal_range("Y")) for p in pairs)
        m = CardinalityPower(base + rng.randint(0, 2))
        at_zero = tensorization_check(pairs, m, F(0))
        assert at_zero.status in ("ok", "skipped")
        if at_zero.status == "skipped":
            skipped_reports += 1
            continue
        assert at_zero.holds and at_zero.equality
        bound = min(
            min(m.of(p.conditional_range("Y", x))
                for x in p.marginal_range("X"))
            for p in pairs) / max(len(p.marginal_range("X")) for p in pairs)
        positive = tensorization_check(pairs, m, bound / 2)
        if positive.status == "ok":
            assert positive.holds
        else:
            skipped_reports += 1
        satisfied += 1
    # deliberate hypothesis violations surface as skips, never failures
    probe = [random_finite_pair(rng, max_side=3) for _ in range(2)]
    high = tensorization_check(probe, CardinalityPower(4), F(99, 100))
    assert high.status == "skipped"
    wrong_exp = tensorization_check(probe, CardinalityPower(4, 2), F(0))
    assert wrong_exp.status == "skipped"
    elapsed = time.monotonic() - started
    assert elapsed < 120
    print(f"AC8 PASS: tensorization equality at zero on 100 instances, "
          f"inequality under the hypotheses ({skipped_reports} honest "
          f"skips), violators skipped ({elapsed:.1f}s)")


def test_ac09_information_symmetry():
    started = time.monotonic()
    rng = random.Random(2026_08_09)
    confirmed = 0
    attempts = 0
    while confirmed < 100:
        attempts += 1
        assert attempts < 5000, "instance generation exhausted"
        pair = random_finite_pair(rng)
        m_x, m_y = uniform_ms(pair)
        assoc = association_sets(pair, m_x, m_y)
        if not (assoc.a_xy and assoc.a_yx):
            continue
        d1 = min(assoc.a_xy) * F(rng.randint(1, 9), 10)
        d2 = min(assoc.a_yx) * F(rng.randint(1, 9), 10)
        fam = taxicab_family(pair, m_x, m_y, d1, d2)
        if not fam.exists:
            continue
        about_y = mutual_information(pair, m_x, m_y, d2, "YgivenX")
        about_x = mutual_information(pair, m_x, m_y, d1, "XgivenY")
        assert about_y.status == about_x.status == "disassociated"
        assert about_y.count == about_x.count == len(fam.sets)
        confirmed += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120
    print(f"AC9 PASS: both information directions equal the taxicab count "
          f"on 100 disassociated instances ({elapsed:.1f}s)")


def test_ac10_average_overlap_bounds():
    started = time.monotonic()
    rng = random.Random(2026_08_10)
    confirmed = 0
    attempts = 0
    while confirmed < 50:
        attempts += 1
        assert attempts < 3000, "instance generation exhausted"
        ch = random_channel(rng)
        m = CardinalityPower(len(ch.y_symbols))
        v = ch.min_image_uncertainty(m)
        delta = v * F(rng.randint(0, 8), 128)
        pairwise = capacity(ch, m, delta)
        relaxed_level = delta / (2 * v)
        relaxed = avg_overlap_capacity(ch, m, relaxed_level)
        # the pairwise capacity never beats the relaxation at the
        # translated level
        assert pairwise.count <= relaxed.count
        tilde = avg_overlap_capacity(ch, m, delta)
        back_level = delta * v * 2 * tilde.count ** 2
        if not back_level < 1:
            continue
        assert tilde.count <= capacity(ch, m, back_level).count
        confirmed += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300
    print(f"AC10 PASS: both capacity translations hold on {confirmed} "
          f"instances ({attempts} drawn) ({elapsed:.1f}s)")


def test_ac11_family_axioms():
    started = time.monotonic()
    rng = random.Random(2026_08_11)
    # the hybrid fixture's finite side, in its disassociated regime
    pair = walkers_pair()
    m_x, m_y = CardinalityPower(5), LebesguePlusOffset(10)
    fam = overlap_family(pair, m_x, m_y, F(1, 6), "X")
    check_family_axioms(pair, "X", m_x, F(1, 6), fam)
    fam = overlap_family(pair, m_x, m_y, F(3, 5), "X")
    check_family_axioms(pair, "X", m_x, F(3, 5), fam)
    checked = 2
    attempts = 0
    while checked < 120:
        attempts += 1
        assert attempts < 5000, "instance generation exhausted"
        p = random_finite_pair(rng)
        mx, my = uniform_ms(p)
        delta = F(rng.randint(0, 4), 5)
        for side, m_side in (("X", mx), ("Y", my)):
            family = overlap_family(p, mx, my, delta, side)
            if family is None:
                continue
            check_family_axioms(p, side, m_side, delta, family)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300
    print(f"AC11 PASS: defining properties verified on {checked} families, "
          f"with exhaustive partition maximality under disassociation "
          f"({elapsed:.1f}s)")


def test_ac12_adversarial_distance_bound():
    started = time.monotonic()
    rng = random.Random(2026_08_12)

    def greedy_codebook(n, tau, delta):
        """Largest greedy codebook over all words at a fixed pair budget."""
        best: list = []
        for k in range(2, 9):
            chosen: list = []
            for value in range(2 ** n):
                cand = BitString(n, value)
                if all(hamming_equivocation(cand, c, tau) <= delta / k
                       for c in chosen):
                    chosen.append(cand)
                    if len(chosen) == k:
                        break
            if len(chosen) == k:
                best = chosen
            else:
                break
        return best

    settings_checked = 0
    attempts = 0
    while settings_checked < 20:
        attempts += 1
        assert attempts < 500, "setting generation exhausted"
        n = rng.randint(3, 10)
        tau = F(rng.randint(0, n // 2), n)
        delta = F(rng.randint(0, 3), 4)
        cb = greedy_codebook(n, tau, delta)
        if len(cb) < 2:
            continue
        report = hamming_distance_bound(cb, tau, delta)
        for row in report.rows:
            assert row.distance >= row.bound
        settings_checked += 1

    # the 7-bit distance-3 greedy code meets the bound with equality
    words: list = []
    for value in range(2 ** 7):
        cand = BitString(7, value)
        if all(cand.distance(w) >= 3 for w in words):
            words.append(cand)
    report = hamming_distance_bound(words, F(1, 7), F(0))
    assert report.min_distance == 3
    assert max(row.bound for row in report.rows) == 3
    assert any(row.distance == row.bound == 3 for row in report.rows)
    elapsed = time.monotonic() - started
    assert elapsed < 300
    print(f"AC12 PASS: distance bound holds for 20 searched settings; the "
          f"7-bit code meets it with equality ({elapsed:.1f}s)")


def test_ac13_solver_exactness():
    started = time.monotonic()
    rng = random.Random(2026_08_13)
    for _ in range(60):
        ch = random_channel(rng, max_inputs=8, max_outputs=5)
        m = CardinalityPower(len(ch.y_symbols))
        grid = sorted({F(0), F(1, 7), F(1, 3), F(2, 3), F(9, 10)})
        previous = None
        for delta in grid:
            result = capacity(ch, m, delta)
            assert whole(result) == channel_oracle(ch, m, delta)
            count = result.count
            if previous is not None:
                assert count >= previous
            previous = count
    elapsed = time.monotonic() - started
    assert elapsed < 300
    print(f"AC13 PASS: capacity matches the exhaustive-subset oracle and is "
          f"monotone on 60 channels x 5 levels ({elapsed:.1f}s)")
