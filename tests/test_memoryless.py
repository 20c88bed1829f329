"""Product channels, block rates, confidence sequences, and the
single-letter capacity certificates.

Certificates are checked in both directions: the worked parameter choices
must certify, and each individually broken hypothesis must fail exactly
its own named condition (never by weakening the reported value).
"""

import dataclasses
import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uvinfo import (
    CardinalityPower,
    Channel,
    ConfidenceSequence,
    DeltaOutOfRange,
    ExplicitWeights,
    HorizonTooLarge,
    LebesguePlusOffset,
    NonProductUncertainty,
    NotCapacityAchieving,
    ProductChannel,
    Rate,
    UvinfoError,
    capacity,
    capacity_profile,
    induced_pair,
    mi_sup_oracle,
    overlap_family,
    parse_sequence_spec,
    product_pair,
    product_uncertainty,
    rate_at_horizon,
    single_letter_check,
    tensorization_check,
)
from uvinfo import chancap, infocalc, memoryless
from uvinfo.chancap import _uniform_x, as_codebook, distinct_image_representatives
from uvinfo.memoryless import (
    _NOTIONS,
    Condition,
    ProfileReport,
    ProfileRow,
    SingleLetterCertificate,
    _containment_condition,
    _horizon_one_sup,
    _noise_floor_condition,
    _product_rule_condition,
    _subadditivity_condition,
    information_rate_at_horizon,
)
from uvinfo.uvcore import format_ratio, ratio

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


def geometric_tail() -> ConfidenceSequence:
    """delta_1 = 2/9, then delta_n = (7/342)^n."""
    return ConfidenceSequence.geometric(F(7, 342), first=F(2, 9))


def cubed_floor_tail() -> ConfidenceSequence:
    """delta_1 = 1/27, then growing by 3*(7/19)^3 per letter."""
    growth = 3 * F(7, 19) ** 3
    return ConfidenceSequence.geometric(growth, scale=F(1, 27) / growth)


# ---------------------------------------------------------------------------
# products


class TestProductUncertainty:
    def test_squares_the_base(self):
        m2 = product_uncertainty(M1, 2)
        assert m2.base_size == 361
        assert m2.exponent == 1
        assert m2.of(frozenset([(1, 1), (1, 2)])) == F(2, 361)

    def test_preserves_the_exponent(self):
        m2 = product_uncertainty(M3, 2)
        assert (m2.base_size, m2.exponent) == (361, 3)

    def test_identity_at_one_letter(self):
        assert product_uncertainty(M1, 1) == M1

    def test_only_cardinality_powers_factorize(self):
        with pytest.raises(NonProductUncertainty):
            product_uncertainty(LebesguePlusOffset(1), 2)


class TestProductChannel:
    def test_two_letter_block(self, fig5):
        block = ProductChannel(fig5, 2).materialize()
        assert len(block.x_symbols) == 361
        assert block.image((1, 13)) \
            == frozenset((a, b) for a in fig5.image(1) for b in fig5.image(13))

    def test_factorized_equivocation(self, fig5):
        block = ProductChannel(fig5, 2).materialize()
        m2 = product_uncertainty(M1, 2)
        value = m2.of(block.image((1, 1)) & block.image((7, 7)))
        assert value == F(2, 19) ** 2

    def test_size_cap(self, fig5):
        with pytest.raises(HorizonTooLarge, match=rf"^{19 ** 4} block inputs "):
            ProductChannel(fig5, 4).materialize()


class TestRate:
    def test_renders(self):
        assert Rate(2, 1).render() == "1"
        assert Rate(3, 1).render() == "log2(3)"
        assert Rate(3, 2).render() == "log2(3)/2"
        assert Rate(8, 2).render() == "3/2"
        assert Rate(4, 2).render() == "1"
        assert Rate(1, 3).render() == "0"

    def test_exact_comparison_across_horizons(self):
        # 3 per letter vs 8 per two letters: 3^2 = 9 > 8
        assert Rate(3, 1).compare(Rate(8, 2)) > 0
        assert Rate(2, 1).compare(Rate(4, 2)) == 0
        assert Rate(2, 1).compare(Rate(9, 2)) < 0

    @given(st.integers(1, 50), st.integers(1, 4),
           st.integers(1, 50), st.integers(1, 4))
    def test_compare_is_antisymmetric(self, c1, h1, c2, h2):
        a, b = Rate(c1, h1), Rate(c2, h2)
        assert (a.compare(b) > 0) == (b.compare(a) < 0)
        assert (a.compare(b) == 0) == (c1 ** h2 == c2 ** h1)


class TestRateAtHorizon:
    @pytest.mark.parametrize("delta,count,bits", [
        (F(2, 9), 2, "1"),
        (F(4, 9), 3, "log2(3)"),
        (F(6, 19), 3, "log2(3)"),
    ])
    def test_one_letter_rates(self, fig5, delta, count, bits):
        rate = rate_at_horizon(fig5, M1, delta, 1)
        assert (rate.count, rate.render()) == (count, bits)

    def test_two_letter_rate(self, fig5):
        rate = rate_at_horizon(fig5, M1, F(49, 116964), 2)
        assert rate.count == 4
        assert rate.horizon == 2
        assert rate.render() == "1"

    def test_cross_check_against_information_sup(self, fig5):
        rate = rate_at_horizon(fig5, M1, F(6, 19), 1)
        assert rate == information_rate_at_horizon(fig5, M1, F(6, 19), 1)
        assert rate.count == 3

    def test_cross_check_needs_the_noise_floor(self, fig5):
        # the information-side sup is only defined below m(V_N)
        assert rate_at_horizon(fig5, M1, F(4, 9), 1).count == 3
        with pytest.raises(DeltaOutOfRange):
            information_rate_at_horizon(fig5, M1, F(4, 9), 1)

    def test_horizon_cap(self, fig5):
        with pytest.raises(HorizonTooLarge):
            rate_at_horizon(fig5, M1, F(0), 4)

    def test_horizon_cap_counts_the_block_length(self):
        # one input and one output: a single block, but of n symbols
        one = Channel.of({"a": {"x"}})
        assert rate_at_horizon(one, CardinalityPower(1), F(0), 500).count == 1
        with pytest.raises(HorizonTooLarge, match="horizon 501 exceeds"):
            ProductChannel(one, 501).materialize()

    @pytest.mark.parametrize("mapping,m,count", [
        ({i: [i % 30] for i in range(600)}, CardinalityPower(30), 30),
        ({0: range(4000), 1: range(4000, 7001)}, CardinalityPower(7001), 2),
    ], ids=["600-inputs", "7001-outputs"])
    def test_horizon_one_is_within_every_cap(self, mapping, m, count):
        # one-symbol blocks are the base's own inputs and outputs, so a base
        # past a block cap still has its horizon-1 rate and profile row
        ch = Channel.of(mapping)
        assert capacity(ch, m, F(0)).count == count
        assert rate_at_horizon(ch, m, F(0), 1) == Rate(count, 1)
        report = capacity_profile(ch, m, ConfidenceSequence.zero(), 2)
        assert [(row.horizon, row.rate) for row in report.rows] == \
            [(1, Rate(count, 1))]
        assert report.notes[0].startswith("horizon 2 skipped: ")

    def test_products_match_the_materialized_product(self):
        # bases of 1-6 inputs, some sharing an image, at horizons 2 and 3,
        # and 4 within 500 block inputs, at fixed deltas and at the base's
        # own breakpoints: the count filled from the base's pair counts is
        # the capacity count of the built product
        rng = random.Random(22)
        cases = 0
        for _ in range(40):
            outputs = rng.randint(1, 4)
            shared = [frozenset(rng.sample(range(outputs), rng.randint(1, outputs)))
                      for _ in range(rng.randint(1, 3))]
            inputs = rng.randint(1, 6)
            images = {x: rng.choice(shared) if rng.random() < 0.5 else
                      frozenset(rng.sample(range(outputs), rng.randint(1, outputs)))
                      for x in range(inputs)}
            base = Channel.of(images, y_alphabet=range(outputs))
            for exponent in (1, 2, 3, 64):
                m = CardinalityPower(outputs, exponent)
                grid = chancap._noise_floor_search(base, m)[1]
                for n in (2, 3, 4):
                    if inputs ** n > 500:
                        continue
                    block = ProductChannel(base, n).materialize()
                    m_n = product_uncertainty(m, n)
                    for delta in {F(0), F(1, 10), F(1, 2), F(9, 10), *grid}:
                        assert rate_at_horizon(base, m, delta, n) == \
                            Rate(capacity(block, m_n, delta).count, n)
                        cases += 1
        assert cases > 1500

    def test_products_build_no_block(self, fig5, monkeypatch):
        def refuse(*args):
            raise AssertionError("a block channel was built")

        monkeypatch.setattr(ProductChannel, "materialize", refuse)
        monkeypatch.setattr(Channel, "of", staticmethod(refuse))
        assert rate_at_horizon(fig5, M1, F(2, 9), 2) == Rate(5, 2)
        assert rate_at_horizon(fig5, M3, F(0), 2) == Rate(4, 2)
        with pytest.raises(AssertionError, match="block channel"):
            rate_at_horizon(fig5, M1, F(2, 9), 1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_labelled_measure_is_refused_at_every_horizon(self, n):
        ch = Channel.of({"00": {"00", "01"}, "11": {"10", "11"}},
                        y_alphabet=("00", "01", "10", "11"))
        m = ExplicitWeights.of_mapping(dict.fromkeys(ch.y_symbols, 1), 4)
        with pytest.raises(NonProductUncertainty,
                           match="uncertainty kind 'explicit_weights'"):
            rate_at_horizon(ch, m, F(0), n)

    @pytest.mark.parametrize("base,m,delta,n,error,message", [
        ("fig5", M1, F(0), 3, HorizonTooLarge,
         "6859 block inputs exceed the cap of 500"),
        ("fig5", M1, F(0), 10 ** 6, HorizonTooLarge,
         "19^1000000 block inputs exceed the cap of 500"),
        ("wide", CardinalityPower(90), F(0), 2, HorizonTooLarge,
         "8100 block outputs exceed the cap of 7000"),
        ("one", CardinalityPower(1), F(0), 501, HorizonTooLarge,
         "horizon 501 exceeds the cap of 500 on block inputs"),
        # the caps come first, then the measure, its normalization and delta
        ("fig5", LebesguePlusOffset(1), F(2), 3, HorizonTooLarge,
         "6859 block inputs exceed the cap of 500"),
        ("fig5", LebesguePlusOffset(1), F(2), 2, NonProductUncertainty,
         "no product extension for uncertainty kind 'lebesgue_plus_offset'"),
        ("fig5", CardinalityPower(20), F(1), 2, chancap.NotNormalized,
         "m(output alphabet) = 361/400, expected 1"),
        ("fig5", M1, F(1), 2, DeltaOutOfRange,
         "need 0 <= delta < 1, got 1"),
        ("fig5", M1, F(-1, 2), 2, DeltaOutOfRange,
         "need 0 <= delta < 1, got -1/2"),
        ("fig5", M1, F(0), 0, UvinfoError,
         "the horizon must be a positive integer"),
    ])
    def test_refusals_keep_their_order_and_words(self, fig5, base, m, delta,
                                                 n, error, message):
        ch = {"fig5": fig5,
              "wide": Channel.of({0: range(45), 1: range(45, 90)}),
              "one": Channel.of({"a": {"x"}})}[base]
        for route in (
                lambda: rate_at_horizon(ch, m, delta, n),
                lambda: capacity(ProductChannel(ch, n).materialize(),
                                 product_uncertainty(m, n), delta)):
            with pytest.raises(error) as caught:
                route()
            assert str(caught.value) == message


# ---------------------------------------------------------------------------
# confidence sequences


class TestConfidenceSequence:
    def test_geometric_values(self):
        seq = geometric_tail()
        assert seq.value_at(1) == F(2, 9)
        assert seq.value_at(2) == F(7, 342) ** 2
        assert seq.value_at(5) == F(7, 342) ** 5

    def test_explicit_is_zero_beyond_the_list(self):
        seq = ConfidenceSequence.explicit(["1/2", "1/4"])
        assert seq.value_at(2) == F(1, 4)
        assert seq.value_at(3) == 0

    def test_constant_and_zero(self):
        assert ConfidenceSequence.constant(F(1, 3)).value_at(9) == F(1, 3)
        assert ConfidenceSequence.zero(first=F(1, 8)).value_at(1) == F(1, 8)
        assert ConfidenceSequence.zero().value_at(7) == 0

    def test_parse_round_trip(self):
        seq = parse_sequence_spec(
            {"kind": "geometric", "base": "7/342", "first": "2/9"})
        assert seq.value_at(1) == F(2, 9)
        assert seq.value_at(3) == F(7, 342) ** 3

    def test_parse_rejects_stray_fields(self):
        with pytest.raises(UvinfoError, match="unknown sequence field"):
            parse_sequence_spec({"kind": "zero", "base": "1/2"})

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(UvinfoError, match="unknown sequence kind"):
            parse_sequence_spec({"kind": "polynomial"})

    def test_tail_at_most_power_binds_at_two(self):
        ok, reason = geometric_tail().tail_at_most_power(F(7, 342))
        assert ok and "n = 2" in reason
        ok, _ = geometric_tail().tail_at_most_power(F(1, 100))
        assert not ok

    def test_tail_at_least_geometric(self):
        ok, _ = cubed_floor_tail().tail_at_least_geometric(
            F(1, 27), 3 * F(343, 6859))
        assert ok
        # an explicit list is zero beyond its entries, so it can never
        # dominate a positive geometric floor
        seq = ConfidenceSequence.explicit(["1/27", "1/27"])
        ok, _ = seq.tail_at_least_geometric(F(1, 27), F(1, 2))
        assert not ok

    def test_tail_below_one(self):
        assert ConfidenceSequence.constant(F(5, 6)).tail_below_one()[0]
        assert not ConfidenceSequence.constant(F(1)).tail_below_one()[0]
        assert not ConfidenceSequence.geometric(F(3, 2)).tail_below_one()[0]

    def test_notes_name_the_horizon_or_the_bound(self):
        assert geometric_tail().tail_at_most_power(F(0)) \
            == (False, "violated at n = 2")
        assert ConfidenceSequence.explicit(["1/2", "1"]).tail_below_one() \
            == (False, "delta_2 = 1, not < 1")
        assert ConfidenceSequence.constant(F(1, 2)).tail_at_least_geometric(
            F(1, 4), F(2)) == (False, "tail ratio below the floor")

    def test_first_zero_over_a_listed_value_is_identically_zero(self):
        seq = ConfidenceSequence.explicit(["1/2", "0"], first="0")
        assert [seq.value_at(n) for n in (1, 2, 3)] == [0, 0, 0]
        assert seq.is_identically_zero()


@dataclasses.dataclass(frozen=True)
class PerKindSequence:
    """A confidence sequence decided the slow way, by a case split on its
    kind: the reference for the one normal form and its single rule."""

    kind: str
    values: tuple = ()
    scale: Fraction = Fraction(1)
    base: Fraction = Fraction(0)
    level: Fraction = Fraction(0)
    first: object = None

    def value_at(self, n):
        if n == 1 and self.first is not None:
            return self.first
        if self.kind == "explicit":
            return self.values[n - 1] if n <= len(self.values) else Fraction(0)
        if self.kind == "geometric":
            return self.scale * self.base ** n
        if self.kind == "constant":
            return self.level
        return Fraction(0)

    def vanishes(self):
        if self.kind in ("zero", "explicit"):
            return True
        if self.kind == "geometric":
            return self.scale == 0 or self.base < 1
        return self.level == 0

    def is_identically_zero(self):
        if self.first not in (None, 0):
            return False
        if self.kind == "explicit":
            return all(v == 0 for v in self.values)
        if self.kind == "geometric":
            return self.scale == 0 or self.base == 0
        if self.kind == "constant":
            return self.level == 0
        return True

    def tail_at_most_power(self, q):
        if self.kind in ("zero",) or self.is_identically_zero():
            return True
        if self.kind == "explicit":
            return all(v <= q ** i
                       for i, v in enumerate(self.values[1:], start=2))
        if self.kind == "constant":
            if self.level == 0:
                return True
            return q >= 1 and self.level <= q * q
        if self.scale == 0 or self.base == 0:
            return True
        if q == 0:
            return False
        if self.base / q <= 1:
            return self.scale * self.base ** 2 <= q * q
        return False

    def tail_at_least_geometric(self, floor_scale, floor_base):
        if floor_scale == 0 or floor_base == 0:
            return True
        if self.kind == "zero" or self.is_identically_zero():
            return False
        if self.kind == "explicit":
            return False
        if self.kind == "constant":
            return floor_base <= 1 and self.level >= floor_scale * floor_base
        if self.base >= floor_base:
            return self.scale * self.base ** 2 >= floor_scale * floor_base
        return False

    def tail_below_one(self):
        if self.kind == "zero" or self.is_identically_zero():
            return True
        if self.kind == "explicit":
            return all(v < 1 for v in self.values[1:])
        if self.kind == "constant":
            return self.level < 1
        if self.scale == 0 or self.base == 0:
            return True
        if self.base < 1:
            return self.scale * self.base ** 2 < 1
        if self.base == 1:
            return self.scale < 1
        return False


# bounds and sequence parameters share one grid, so tail bases tie with
# q and floor bases, and 0 and 1 are both in reach
_GRID = [F(0), F(1, 50), F(1, 9), F(1, 3), F(1, 2), F(3, 4), F(1), F(3, 2),
         F(3)]


def _random_sequences(seed):
    """The same random sequence twice: in the normal form and per kind."""
    rng = random.Random(seed)
    first = rng.choice([None, None, F(-1, 2)] + _GRID)
    kind = rng.choice(("zero", "constant", "geometric", "explicit"))
    if kind == "zero":
        seq, ref = ConfidenceSequence.zero(first), PerKindSequence("zero")
    elif kind == "constant":
        level = rng.choice(_GRID)
        seq = ConfidenceSequence.constant(level, first)
        ref = PerKindSequence("constant", level=level)
    elif kind == "geometric":
        base, scale = rng.choice(_GRID), rng.choice(_GRID)
        seq = ConfidenceSequence.geometric(base, scale, first)
        ref = PerKindSequence("geometric", scale=scale, base=base)
    else:
        values = tuple(rng.choices(_GRID, k=rng.randint(0, 4)))
        seq = ConfidenceSequence.explicit(values, first)
        ref = PerKindSequence("explicit", values=values)
    return rng, seq, dataclasses.replace(ref, first=first)


class TestNormalFormMatchesPerKind:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_decisions_and_values(self, seed):
        rng, seq, ref = _random_sequences(seed)
        q, fs, fb = rng.choice(_GRID), rng.choice(_GRID), rng.choice(_GRID)
        assert [seq.value_at(n) for n in range(1, 9)] \
            == [ref.value_at(n) for n in range(1, 9)]
        assert seq.vanishes() == ref.vanishes()
        if ref.kind == "explicit" and ref.first == 0:
            # the per-kind check read the listed delta_1 under `first`
            assert seq.is_identically_zero() == (not any(ref.values[1:]))
        else:
            assert seq.is_identically_zero() == ref.is_identically_zero()
        assert seq.tail_at_most_power(q)[0] == ref.tail_at_most_power(q)
        assert seq.tail_at_least_geometric(fs, fb)[0] \
            == ref.tail_at_least_geometric(fs, fb)
        assert seq.tail_below_one()[0] == ref.tail_below_one()

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_a_tail_that_holds_holds_at_every_checked_horizon(self, seed):
        rng, seq, _ = _random_sequences(seed)
        q, fs, fb = rng.choice(_GRID), rng.choice(_GRID), rng.choice(_GRID)
        delta = {n: seq.value_at(n) for n in range(1, 41)}
        if seq.tail_at_most_power(q)[0]:
            assert all(delta[n] <= q ** n for n in range(2, 41))
        if seq.tail_at_least_geometric(fs, fb)[0]:
            assert all(delta[n] >= fs * fb ** (n - 1) for n in range(2, 41))
        if seq.tail_below_one()[0]:
            assert all(delta[n] < 1 for n in range(2, 41))


# ---------------------------------------------------------------------------
# single-letter certificates


class TestSupCertificate:
    def test_worked_parameters_certify(self, fig5):
        cert = single_letter_check(
            fig5, M1, "T12", codebook=(1, 7, 13), delta1=F(2, 9),
            sequence=geometric_tail())
        assert cert.level == F(1, 6)
        assert cert.certifies
        assert cert.capacity_count == 2
        assert cert.render_bits() == "1"
        assert len(cert.conditions) == 6

    def test_constant_sequence_fails_only_the_tail(self, fig5):
        cert = single_letter_check(
            fig5, M1, "T12", codebook=(1, 7, 13), delta1=F(2, 9),
            sequence=ConfidenceSequence.constant(F(2, 9)))
        assert not cert.certifies
        failing = [c.name for c in cert.conditions if not c.holds]
        assert failing == ["tail bound"]

    def test_non_achieving_codebook_rejected(self, fig5):
        with pytest.raises(NotCapacityAchieving):
            single_letter_check(
                fig5, M1, "T12", codebook=(1, 2), delta1=F(2, 9),
                sequence=geometric_tail())


class TestZeroErrorCertificate:
    def test_block_representatives_certify(self, fig5):
        cert = single_letter_check(fig5, M1, "Cor2", codebook=(1, 7, 13))
        assert cert.certifies
        assert cert.capacity_count == 2
        assert cert.render_bits() == "1"

    def test_two_blocks_fail_only_containment(self, fig5):
        # {1, 13} attains the zero-error count, but the uncovered middle
        # block's images fit in neither family set
        cert = single_letter_check(fig5, M1, "Cor2", codebook=(1, 13))
        assert not cert.certifies
        failing = [c.name for c in cert.conditions if not c.holds]
        assert failing == ["uncovered-codeword containment"]

    def test_subadditivity_names_the_kind_of_a_measure_with_no_exponent(
            self, fig5):
        # uniform weights give the values of card:19, but no exponent
        weights = ExplicitWeights.of_mapping(
            {y: 1 for y in fig5.y_symbols}, 19)
        cert = single_letter_check(fig5, weights, "Cor2", codebook=(1, 7, 13))
        assert cert.conditions[-1] == Condition(
            "union subadditivity", False,
            "kind 'explicit_weights' is not checked for subadditivity")
        assert _subadditivity_condition(M3) == Condition(
            "union subadditivity", False, "fails for exponents above 1")


class TestInfCertificate:
    def test_worked_parameters_certify(self, fig5):
        cert = single_letter_check(
            fig5, M3, "T13", codebook=(1, 7, 13), delta1=F(1, 27),
            sequence=cubed_floor_tail())
        assert cert.certifies
        assert cert.delta_hat == F(7, 19) ** 3
        assert cert.capacity_count == 3
        assert cert.render_bits() == "log2(3)"

    def test_fast_vanishing_sequence_fails_the_floor(self, fig5):
        cert = single_letter_check(
            fig5, M3, "T13", codebook=(1, 7, 13), delta1=F(1, 27),
            sequence=ConfidenceSequence.geometric(F(1, 1000),
                                                  first=F(1, 27)))
        assert not cert.certifies
        failing = [c.name for c in cert.conditions if not c.holds]
        assert failing == ["tail floor"]


class TestVanishingCertificate:
    def test_auto_search_finds_the_achiever(self, fig5):
        cert = single_letter_check(fig5, M3, "T14")
        assert cert.codebook == (1, 7, 13)
        assert cert.level == F(24, 6859)
        assert cert.certifies
        assert cert.capacity_count == 3
        assert cert.delta_hat * len(cert.codebook) == F(1029, 6859)

    def test_explicit_codebook_needs_delta_star(self, fig5):
        with pytest.raises(UvinfoError, match="delta_star"):
            single_letter_check(fig5, M3, "T14", codebook=(1, 7, 13))

    def test_explicit_parameters_match_the_auto_search(self, fig5):
        cert = single_letter_check(fig5, M3, "T14", codebook=(1, 7, 13),
                                   delta_star=F(24, 6859))
        assert cert.certifies
        assert cert.capacity_count == 3

    def test_spread_bound_fails_at_exponent_one(self, fig5):
        # the same codebook at plain counting uncertainty has spread
        # 3 * (7/19) = 21/19 >= 1
        cert = single_letter_check(fig5, M1, "T14", codebook=(1, 7, 13),
                                   delta_star=F(6, 19))
        assert not cert.certifies
        failing = [c.name for c in cert.conditions if not c.holds]
        assert failing == ["spread bound"]

    def test_unknown_variant(self, fig5):
        with pytest.raises(UvinfoError, match="variant"):
            single_letter_check(fig5, M1, "T99")


# the inputs each certificate variant reads; any other is refused
READS = {"T12": ("codebook", "delta1", "delta_bar", "sequence"),
         "T13": ("codebook", "delta1", "delta_bar", "sequence"),
         "Cor2": ("codebook",), "T14": ("codebook", "delta_star")}


@pytest.mark.parametrize("variant,name", [
    (variant, name) for variant in READS
    for name in ("delta1", "delta_bar", "sequence", "delta_star")
    if name not in READS[variant]])
def test_unread_inputs_are_refused(fig5, variant, name):
    given = {"codebook": (1, 7, 13), "delta1": F(2, 9), "delta_bar": F(1, 6),
             "sequence": geometric_tail(), "delta_star": F(24, 6859)}
    kwargs = {k: v for k, v in given.items() if k in READS[variant]}
    with pytest.raises(UvinfoError) as info:
        single_letter_check(fig5, M1, variant, **kwargs, **{name: given[name]})
    assert str(info.value) == f"{variant} takes no {name}"


# ---------------------------------------------------------------------------
# capacity profiles


class TestCapacityProfile:
    def test_geometric_tail_profile(self, fig5):
        report = capacity_profile(fig5, M1, geometric_tail(), 2)
        assert [r.rate.count for r in report.rows] == [2, 4]
        assert [r.label for r in report.rows] \
            == ["horizon-1 bound", "horizon-2 bound"]
        assert report.inf_rate.render() == "1"
        assert report.sup_rate.render() == "1"
        assert {c.theorem for c in report.certificates} == {"T12"}

    def test_zero_sequence_profile(self, fig5):
        report = capacity_profile(fig5, M1, ConfidenceSequence.zero(), 1)
        assert report.rows[0].rate.count == 2
        assert {c.theorem for c in report.certificates} \
            == {"Cor2", "T12", "T13"}

    def test_cubed_profile_certifies_both_inf_variants(self, fig5):
        report = capacity_profile(fig5, M3, cubed_floor_tail(), 1)
        assert report.rows[0].rate.count == 3
        assert {c.theorem for c in report.certificates} == {"T13", "T14"}
        assert all(c.certifies for c in report.certificates)

    def test_first_level_outside_the_unit_interval(self, fig5):
        seq = ConfidenceSequence.constant(F(3, 2))
        with pytest.raises(DeltaOutOfRange, match="outside"):
            capacity_profile(fig5, M1, seq, 1)

    @pytest.mark.parametrize("seq,theorems", [
        (ConfidenceSequence.zero(), 3),
        (geometric_tail(), 2),
        (ConfidenceSequence.constant(F(1, 50)), 2),
    ])
    def test_one_capacity_search_per_level(self, monkeypatch, seq, theorems):
        # six distinct images give 63 candidate codebooks per theorem; the
        # rows take one search per horizon (horizon 1 through capacity, the
        # others through the product search), and the walked theorems none:
        # T12, Cor2 and T13 all test delta_1, whose count the horizon-1 row
        # holds; T14, which also reaches _certify when the sequence
        # vanishes, none either
        calls, tried = [], set()

        def counting(search):
            def counted(*args):
                calls.append(args[2])
                return search(*args)
            return counted

        def trying(variant, *args):
            tried.add(variant)
            return certify(variant, *args)

        certify = memoryless._certify
        monkeypatch.setattr(memoryless, "capacity", counting(capacity))
        monkeypatch.setattr(memoryless, "_product_search",
                            counting(memoryless._product_search))
        monkeypatch.setattr(memoryless, "_certify", trying)
        ch = Channel.of({x: frozenset([x, (x + 1) % 6, 6]) for x in range(6)})
        capacity_profile(ch, CardinalityPower(7), seq, 2)
        assert len(tried) == theorems + seq.vanishes()
        assert ("T14" in tried) == seq.vanishes()
        assert calls == [seq.value_at(1), seq.value_at(2)]

    @pytest.mark.parametrize("m,seq", [
        (M1, ConfidenceSequence.zero()),
        (M1, geometric_tail()),
        (M3, cubed_floor_tail()),
    ])
    def test_fig5_certificates_take_one_capacity_search(
            self, monkeypatch, fig5, m, seq):
        reference = _ref_profile(fig5, m, seq, 1)
        calls = []

        def counting(*args):
            calls.append(args[2])
            return capacity(*args)

        monkeypatch.setattr(memoryless, "capacity", counting)
        report = capacity_profile(fig5, m, seq, 1)
        assert report == reference and report.certificates
        assert calls == [seq.value_at(1)]  # the row, which the theorems read


# ---------------------------------------------------------------------------
# the certificate search against a copy of the per-codebook loop it replaced


def _ref_family(ch, m, codebook, theta):
    if not 0 <= theta <= 1:
        raise NotCapacityAchieving(
            f"level {format_ratio(theta)} for codebook {codebook} outside [0, 1]")
    pair = induced_pair(ch, codebook)
    family = overlap_family(pair, _uniform_x(pair), m, theta, "Y")
    return pair, family


def _ref_require(theorem, family, expected, codebook, theta):
    if family is None:
        raise NotCapacityAchieving(
            f"{theorem}: codebook {codebook} has no overlap family at level "
            f"{format_ratio(theta)} (not in the feasible set)")
    if family.count != expected:
        raise NotCapacityAchieving(
            f"{theorem}: codebook {codebook} yields {family.count} family "
            f"sets but the one-dimensional capacity count is {expected}")


def _ref_t12(ch, m, codebook, delta1, delta_bar, sequence):
    if codebook is None or delta1 is None or sequence is None:
        raise UvinfoError("T12 needs a codebook, delta_1, and a sequence")
    cb = as_codebook(ch, codebook)
    delta1 = ratio(delta1)
    cap1 = capacity(ch, m, delta1)
    pair = induced_pair(ch, cb)
    m_out = m.of(pair.marginal_range("Y"))
    if delta_bar is None:
        delta_bar = (delta1 / m_out) / (1 + Fraction(1, len(cb)))
    else:
        delta_bar = ratio(delta_bar)
    theta = delta_bar / len(cb)
    _, family = _ref_family(ch, m, cb, theta)
    _ref_require("T12", family, cap1.count, cb, theta)
    v_min = ch.min_image_uncertainty(m)
    q = delta_bar * v_min / len(cb)
    tail_ok, tail_note = sequence.tail_at_most_power(q)
    level_lhs = delta_bar * (1 + Fraction(1, len(cb)))
    level_rhs = delta1 / m_out
    conditions = (
        _noise_floor_condition(delta1, v_min),
        _containment_condition(ch, cb, family.sets),
        Condition("level bound", level_lhs <= level_rhs,
                  f"delta_bar(1 + 1/|X|) = {format_ratio(level_lhs)} vs "
                  f"delta_1/m(Y) = {format_ratio(level_rhs)}"),
        Condition("tail bound", tail_ok,
                  f"delta_n <= ({format_ratio(q)})^n for n >= 2: {tail_note}"),
        _product_rule_condition(m),
        _subadditivity_condition(m),
    )
    count = family.count if all(c.holds for c in conditions) else None
    return SingleLetterCertificate("T12", _NOTIONS["T12"], cb, delta_bar,
                                   conditions, count)


def _ref_cor2(ch, m, codebook):
    if codebook is None:
        raise UvinfoError("Cor2 needs a codebook")
    cb = as_codebook(ch, codebook)
    cap0 = capacity(ch, m, Fraction(0))
    _, family = _ref_family(ch, m, cb, Fraction(0))
    _ref_require("Cor2", family, cap0.count, cb, Fraction(0))
    conditions = (
        _containment_condition(ch, cb, family.sets),
        _product_rule_condition(m),
        _subadditivity_condition(m),
    )
    count = family.count if all(c.holds for c in conditions) else None
    return SingleLetterCertificate("Cor2", _NOTIONS["Cor2"], cb, Fraction(0),
                                   conditions, count)


def _ref_t13(ch, m, codebook, delta1, delta_bar, sequence):
    if codebook is None or delta1 is None or sequence is None:
        raise UvinfoError("T13 needs a codebook, delta_1, and a sequence")
    cb = as_codebook(ch, codebook)
    delta1 = ratio(delta1)
    cap1 = capacity(ch, m, delta1)
    pair = induced_pair(ch, cb)
    m_out = m.of(pair.marginal_range("Y"))
    delta_bar = delta1 / m_out if delta_bar is None else ratio(delta_bar)
    theta = delta_bar / len(cb)
    _, family = _ref_family(ch, m, cb, theta)
    _ref_require("T13", family, cap1.count, cb, theta)
    v_min = ch.min_image_uncertainty(m)
    delta_hat = max(m.of(s) / m_out for s in family.sets)
    growth = delta_hat * len(cb)
    low_ok, low_note = sequence.tail_at_least_geometric(delta_bar, growth)
    up_ok, up_note = sequence.tail_below_one()
    conditions = (
        _noise_floor_condition(delta1, v_min),
        Condition("level bound", delta_bar <= delta1 / m_out,
                  f"delta_bar = {format_ratio(delta_bar)} vs "
                  f"delta_1/m(Y) = {format_ratio(delta1 / m_out)}"),
        Condition("tail floor", low_ok,
                  f"delta_n >= {format_ratio(delta_bar)}*"
                  f"({format_ratio(growth)})^(n-1) for n >= 2: {low_note}"),
        Condition("tail below one", up_ok, up_note),
        _product_rule_condition(m),
    )
    count = family.count if all(c.holds for c in conditions) else None
    return SingleLetterCertificate("T13", _NOTIONS["T13"], cb, delta_bar,
                                   conditions, count, delta_hat=delta_hat)


def _ref_t14(ch, m, codebook, delta_star):
    best_count, best_delta = _horizon_one_sup(ch, m)
    if codebook is None:
        sup = mi_sup_oracle(ch, m, best_delta)
        cb = sup.codebook
        delta_star = sup.delta_tilde
    else:
        cb = as_codebook(ch, codebook)
        if delta_star is None:
            raise UvinfoError("T14 with an explicit codebook needs delta_star")
        delta_star = ratio(delta_star)
    theta = delta_star / len(cb)
    pair, family = _ref_family(ch, m, cb, theta)
    _ref_require("T14", family, best_count, cb, theta)
    m_out = m.of(pair.marginal_range("Y"))
    delta_hat = max(m.of(s) / m_out for s in family.sets)
    spread = delta_hat * len(cb)
    conditions = (
        Condition("achieves the one-dimensional sup", True,
                  f"count {best_count} attained (sup swept below the noise "
                  f"floor, witness level {format_ratio(best_delta)})"),
        Condition("spread bound", spread < 1,
                  f"delta_hat*|X| = {format_ratio(spread)} vs 1"),
        _product_rule_condition(m),
    )
    count = family.count if all(c.holds for c in conditions) else None
    return SingleLetterCertificate("T14", _NOTIONS["T14"], cb, delta_star,
                                   conditions, count, delta_hat=delta_hat)


def _ref_single_letter(ch, m, variant, *, codebook=None, delta1=None,
                       delta_bar=None, sequence=None, delta_star=None):
    if variant not in _NOTIONS:
        raise UvinfoError(f"unknown certificate variant {variant!r}")
    if variant == "T12":
        return _ref_t12(ch, m, codebook, delta1, delta_bar, sequence)
    if variant == "Cor2":
        return _ref_cor2(ch, m, codebook)
    if variant == "T13":
        return _ref_t13(ch, m, codebook, delta1, delta_bar, sequence)
    return _ref_t14(ch, m, codebook, delta_star)


def _ref_profile(ch, m, seq, n_max):
    if n_max < 1:
        raise UvinfoError("n_max must be a positive integer")
    if not 0 <= seq.value_at(1) < 1:
        raise DeltaOutOfRange(
            f"delta_1 = {format_ratio(seq.value_at(1))} outside [0, 1)")
    ok, reason = seq.tail_below_one()
    if not ok:
        raise DeltaOutOfRange(f"sequence leaves [0, 1): {reason}")
    rows = []
    notes = []
    for n in range(1, n_max + 1):
        try:
            rate = rate_at_horizon(ch, m, seq.value_at(n), n)
        except HorizonTooLarge as exc:
            notes.append(f"horizon {n} skipped: {exc}")
            break
        rows.append(ProfileRow(n, seq.value_at(n), rate, f"horizon-{n} bound"))
    if not rows:
        raise HorizonTooLarge("no horizon fits the exact-search caps")

    def order(a, b):
        return a.compare(b) or (a.horizon - b.horizon)

    inf_rate = min((r.rate for r in rows), key=functools.cmp_to_key(order))
    sup_rate = max((r.rate for r in rows), key=functools.cmp_to_key(order))
    span = rows[-1].horizon
    reps = distinct_image_representatives(ch)
    every = [cb for size in range(1, len(reps) + 1)
             for cb in itertools.combinations(reps, size)]
    delta1 = seq.value_at(1)
    certificates = []
    for variant, applicable, codebooks, kwargs in (
            ("T12", True, every, {"delta1": delta1, "sequence": seq}),
            ("Cor2", seq.is_identically_zero(), every, {}),
            ("T13", True, every, {"delta1": delta1, "sequence": seq}),
            ("T14", seq.vanishes(), (None,), {})):
        if not applicable:
            continue
        for cb in codebooks:
            try:
                cert = _ref_single_letter(ch, m, variant, codebook=cb, **kwargs)
            except NotCapacityAchieving:
                continue
            if cert.certifies:
                certificates.append(cert)
                break
    return ProfileReport(
        tuple(rows), inf_rate, sup_rate,
        f"inf over horizons 1..{span} (upper bound on the infinite-horizon inf)",
        f"sup over horizons 1..{span} (lower bound on the infinite-horizon sup)",
        tuple(certificates), tuple(notes))


def _outcome(call, *args, **kwargs):
    """A call's whole result, or the type and message of what it raised."""
    try:
        return call(*args, **kwargs)
    except UvinfoError as exc:
        return type(exc), str(exc)


_LEVELS = [F(0), F(1, 50), F(1, 20), F(1, 9), F(1, 5), F(2, 9), F(1, 3),
           F(1, 2), F(3, 4)]


def _random_case(seed):
    """A channel of 2-7 inputs on 2-6 outputs, a cardinality measure of
    exponent 1 or 2, and a sequence of any kind."""
    rng = random.Random(seed)
    ny = rng.randint(2, 6)
    mapping = {x: frozenset(rng.sample(range(ny), rng.randint(1, ny)))
               for x in range(rng.randint(2, 7))}
    ch = Channel.of(mapping, y_alphabet=range(ny))
    m = CardinalityPower(ny, rng.choice((1, 2)))
    first = rng.choice([None] + _LEVELS)
    kind = rng.choice(("zero", "constant", "geometric", "explicit"))
    if kind == "zero":
        seq = ConfidenceSequence.zero(first=first)
    elif kind == "constant":
        seq = ConfidenceSequence.constant(rng.choice(_LEVELS), first=first)
    elif kind == "geometric":
        seq = ConfidenceSequence.geometric(
            rng.choice(_LEVELS), rng.choice((F(1), F(1, 2), F(3))), first=first)
    else:
        seq = ConfidenceSequence.explicit(
            rng.choices(_LEVELS, k=rng.randint(0, 3)), first=first)
    return rng, ch, m, seq


class TestCertificateSearchMatchesTheReference:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_profiles(self, seed):
        _, ch, m, seq = _random_case(seed)
        n_max = 1 + seed % 2
        assert _outcome(capacity_profile, ch, m, seq, n_max) \
            == _outcome(_ref_profile, ch, m, seq, n_max)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_single_letter_checks(self, seed):
        rng, ch, m, seq = _random_case(seed)
        codebook = tuple(rng.sample(ch.x_symbols,
                                    rng.randint(1, len(ch.x_symbols))))
        variant = rng.choice(("T12", "Cor2", "T13", "T14"))
        # each argument is left out now and then, to reach every refusal;
        # only the inputs the variant reads are given, and T14 reads no
        # delta_star without a codebook
        kwargs = {"codebook": rng.choice((codebook,) * 3 + (None,)),
                  "delta1": rng.choice(_LEVELS * 2 + [None]),
                  "delta_bar": rng.choice((None, None, rng.choice(_LEVELS))),
                  "sequence": rng.choice((seq,) * 3 + (None,)),
                  "delta_star": rng.choice((None, rng.choice(_LEVELS)))}
        kwargs = {k: v for k, v in kwargs.items() if k in READS[variant]}
        if variant == "T14" and kwargs["codebook"] is None:
            del kwargs["delta_star"]
        assert _outcome(single_letter_check, ch, m, variant, **kwargs) \
            == _outcome(_ref_single_letter, ch, m, variant, **kwargs)


def _twelve_images(seed):
    """A seeded channel of 12 distinct images of 2-5 of 14 outputs."""
    rng = random.Random(seed)
    images = set()
    while len(images) < 12:
        images.add(frozenset(rng.sample(range(14), rng.randint(2, 5))))
    return Channel.of(dict(enumerate(sorted(images, key=sorted))),
                      y_alphabet=range(14))


class TestOneReadingPerSide:
    """Each codebook's output side is read once for every level, and its
    input side at most once, when a level below its least association value
    is first asked for."""

    def reads(self, monkeypatch, call, *args):
        read, original = Counter(), infocalc.side_profile

        def counting(pair, side):
            read[frozenset(pair.marginal_range("X")), side] += 1
            return original(pair, side)

        for module in (infocalc, chancap, memoryless):
            if getattr(module, "side_profile", None) is original:
                monkeypatch.setattr(module, "side_profile", counting)
        call(*args)
        return read

    def test_rows_read_the_output_side_once(self, monkeypatch):
        ch = _twelve_images(2)
        read = self.reads(monkeypatch, chancap._codebook_rows, ch,
                          CardinalityPower(14))
        assert len(read) == 2 ** 12 - 1
        assert set(read.values()) == {1}
        assert {side for _, side in read} == {"Y"}

    def test_a_profile_reads_each_side_at_most_once(self, monkeypatch):
        ch = _twelve_images(2)
        read = self.reads(monkeypatch, capacity_profile, ch,
                          CardinalityPower(14), ConfidenceSequence.zero(), 1)
        assert set(read.values()) == {1}
        assert sum(side == "Y" for _, side in read) == 2 ** 12 - 1


# ---------------------------------------------------------------------------
# tensorization


class TestTensorization:
    def pair_of(self, fig5, codebook):
        return induced_pair(fig5, codebook)

    def test_equality_at_zero(self, fig5):
        p = self.pair_of(fig5, (1, 13))
        report = tensorization_check([p, p], M1, F(0))
        assert report.status == "ok"
        assert report.holds and report.equality
        assert report.lhs_count == 4
        assert report.rhs_counts == (2, 2)

    def test_inequality_at_a_small_positive_level(self, fig5):
        p = self.pair_of(fig5, (1, 13))
        report = tensorization_check([p, p], M1, F(1, 57))
        assert report.status == "ok"
        assert report.holds

    def test_single_component_is_trivial(self, fig5):
        p = self.pair_of(fig5, (1, 13))
        report = tensorization_check([p], M1, F(0))
        assert report.status == "ok"
        assert report.holds and report.equality

    def test_skips_above_the_component_range_bound(self, fig5):
        p = self.pair_of(fig5, (1, 13))
        report = tensorization_check([p, p], M1, F(1, 2))
        assert report.status == "skipped"
        assert "component range bound" in report.reason

    def test_skips_non_subadditive_exponents(self, fig5):
        p = self.pair_of(fig5, (1, 13))
        report = tensorization_check([p, p], M3, F(0))
        assert report.status == "skipped"
        assert "exponent 3" in report.reason

    def test_skips_interval_components(self, fig5):
        from uvinfo import IntervalUnion, UncertainPair
        p = UncertainPair.hybrid({1: IntervalUnion.of([(0, 1)])})
        report = tensorization_check([self.pair_of(fig5, (1, 13)), p], M1, F(0))
        assert (report.status, report.reason) == (
            "skipped", "interval components have no materialized product")

    def test_skips_a_measure_without_the_product_rule(self, fig5):
        p = self.pair_of(fig5, (1, 13))
        report = tensorization_check([p, p], LebesguePlusOffset(1), F(0))
        assert (report.status, report.reason) == (
            "skipped",
            "product rule fails for uncertainty kind 'lebesgue_plus_offset'")

    @pytest.mark.parametrize("m", [M1, M3])
    @pytest.mark.parametrize("where", ["alone", "first", "last"])
    def test_empty_component_raises_before_any_hypothesis(self, fig5, m, where):
        from uvinfo import EmptyPair, UncertainPair
        empty, p = UncertainPair.finite(frozenset()), self.pair_of(fig5, (1, 13))
        pairs = {"alone": [empty], "first": [empty, p], "last": [p, empty]}[where]
        with pytest.raises(EmptyPair, match="^the joint range is empty$"):
            tensorization_check(pairs, m, F(0))

    def test_product_pair_materializes_tuples(self, fig5):
        p = self.pair_of(fig5, (1, 13))
        prod = product_pair([p, p])
        assert ((1, 13), (2, 14)) in prod.joint
        assert len(prod.marginal_range("X")) == 4

    @given(st.frozensets(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         min_size=1, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_random_pairs_at_zero(self, joint):
        from uvinfo import UncertainPair
        p = UncertainPair.finite(joint)
        m = CardinalityPower(len(p.marginal_range("Y")))
        report = tensorization_check([p, p], m, F(0))
        if report.status == "ok":
            assert report.holds
            assert report.equality
