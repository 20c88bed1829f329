"""Bit-flip channels, equivocation matrices, and confusion-data ingestion."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uvinfo import (
    BitString,
    CardinalityPower,
    Channel,
    DeltaOutOfRange,
    EquivocationMatrix,
    LengthMismatch,
    NotDistinguishable,
    UvinfoError,
    capacity,
    confusion_ingest,
    hamming_distance_bound,
    hamming_equivocation,
    label_uncertainty,
    matrix_capacity,
)
from uvinfo.apps import LengthTooLarge, MalformedRow

F = Fraction


def bs(text: str) -> BitString:
    return BitString.of(text)


class TestBitString:
    def test_parse_and_render(self):
        word = bs("0101")
        assert (word.length, word.bits) == (4, 5)
        assert str(word) == "0101"
        assert str(BitString(4, 1)) == "0001"

    def test_distance_is_xor_weight(self):
        assert bs("0000").distance(bs("1111")) == 4
        assert bs("1010").distance(bs("1001")) == 2

    def test_rejects_non_binary_text(self):
        for bad in ("", "012", "ab"):
            with pytest.raises(UvinfoError):
                BitString.of(bad)

    def test_rejects_mixed_lengths(self):
        with pytest.raises(LengthMismatch):
            bs("01").distance(bs("011"))

    def test_orders_like_integers(self):
        assert sorted([bs("10"), bs("01")]) == [bs("01"), bs("10")]

    @pytest.mark.parametrize("length,bits,message", [
        (3, "1", "value '1' does not fit in 3 bits"),
        (3, True, "value True does not fit in 3 bits"),
        (3, 1.0, "value 1.0 does not fit in 3 bits"),
        (3, 8, "value 8 does not fit in 3 bits"),
        ("3", 1, "the bit-string length must be a positive integer"),
        (True, 1, "the bit-string length must be a positive integer"),
        (0, 0, "the bit-string length must be a positive integer"),
    ])
    def test_refuses_what_is_not_an_int_in_range(self, length, bits, message):
        with pytest.raises(UvinfoError) as info:
            BitString(length, bits)
        assert str(info.value) == message


class TestHammingEquivocation:
    def test_disjoint_balls(self):
        assert hamming_equivocation(bs("0000"), bs("1111"), F(1, 4)) == 0

    def test_touching_balls(self):
        # radius 1, centers at distance 2: the intersection is the two
        # midpoints at mutual distance 2
        assert hamming_equivocation(bs("0000"), bs("1100"), F(1, 4)) == F(3, 5)

    def test_wide_balls_reach_full_uncertainty(self):
        assert hamming_equivocation(bs("0000"), bs("1111"), F(1, 2)) == 1

    def test_identical_codewords_rejected(self):
        with pytest.raises(UvinfoError):
            hamming_equivocation(bs("01"), bs("01"), F(1, 4))

    def test_tau_domain(self):
        with pytest.raises(UvinfoError, match="tau"):
            hamming_equivocation(bs("0000"), bs("1111"), F(3, 2))

    def test_codewords_must_be_bit_strings(self):
        with pytest.raises(UvinfoError, match="must be a BitString, got '01'"):
            hamming_equivocation("01", bs("10"), F(1, 4))
        with pytest.raises(UvinfoError, match="must be a BitString, got '01'"):
            hamming_distance_bound(["01", "10"], 0, 0)

    def test_length_cap(self):
        long1 = BitString(13, 0)
        long2 = BitString(13, 1)
        with pytest.raises(LengthTooLarge):
            hamming_equivocation(long1, long2, F(1, 4))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.data())
    def test_symmetric_and_zero_iff_disjoint(self, n, data):
        x1 = BitString(n, data.draw(st.integers(0, 2 ** n - 1)))
        x2 = BitString(n, data.draw(st.integers(0, 2 ** n - 1)))
        if x1 == x2:
            return
        tau = data.draw(st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2)]))
        e12 = hamming_equivocation(x1, x2, tau)
        assert e12 == hamming_equivocation(x2, x1, tau)
        r = (tau * n).__floor__()
        disjoint = x1.distance(x2) > 2 * r
        assert (e12 == 0) == disjoint


class TestDistanceBound:
    def test_repetition_pair(self):
        report = hamming_distance_bound([bs("0000"), bs("1111")],
                                        F(1, 4), F(1, 2))
        assert report.radius == 1
        assert report.threshold == F(1, 4)
        assert report.min_distance == 4
        assert report.correctable == 1
        (row,) = report.rows
        assert (row.distance, row.bound) == (4, F(7, 4))

    def test_not_distinguishable_names_the_pair(self):
        with pytest.raises(NotDistinguishable,
                           match=r"e\(0000, 1100\) = 3/5"):
            hamming_distance_bound([bs("0000"), bs("1100")], F(1, 4), F(0))

    def test_singleton_codebook_is_vacuous(self):
        report = hamming_distance_bound([bs("101")], F(1, 3), F(0))
        assert report.rows == ()
        assert report.min_distance is None
        assert report.correctable is None

    def test_greedy_lexicode_attains_the_bound(self):
        # greedy distance-3 lexicode on 7 bits: 16 words, and at delta = 0
        # the guaranteed distance 2r + 1 = 3 is exactly the minimum distance
        words: list[BitString] = []
        for value in range(2 ** 7):
            cand = BitString(7, value)
            if all(cand.distance(w) >= 3 for w in words):
                words.append(cand)
        assert len(words) == 16
        report = hamming_distance_bound(words, F(1, 7), F(0))
        assert report.radius == 1
        assert report.min_distance == 3
        assert report.correctable == 1
        assert max(row.bound for row in report.rows) == 3
        assert any(row.distance == row.bound for row in report.rows)

    def test_bound_never_exceeds_distance(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(3, 9)
            words = {BitString(n, rng.randrange(2 ** n)) for _ in range(4)}
            tau = F(rng.randint(0, n), 3 * n)
            delta = F(rng.randint(0, 2), 3)
            try:
                report = hamming_distance_bound(sorted(words), tau, delta)
            except NotDistinguishable:
                continue
            for row in report.rows:
                assert row.distance >= row.bound


class TestEquivocationMatrix:
    def heavy_matrix(self) -> EquivocationMatrix:
        return EquivocationMatrix.of(
            ["a", "b", "c", "d"],
            {("a", "b"): F(3, 4), ("a", "c"): F(1, 8), ("b", "d"): F(1, 8)},
            v_min=F(1, 2))

    def test_missing_pairs_default_to_zero(self):
        em = self.heavy_matrix()
        assert em.value("a", "b") == F(3, 4)
        assert em.value("b", "a") == F(3, 4)
        assert em.value("c", "d") == 0
        with pytest.raises(UvinfoError, match=r"^unknown label pair \('a', 'z'\)$"):
            em.value("z", "a")
        with pytest.raises(UvinfoError, match="^no diagonal equivocation$"):
            em.value("a", "a")

    def test_rejects_unknown_labels(self):
        with pytest.raises(UvinfoError):
            EquivocationMatrix.of(["a"], {("a", "z"): F(1, 2)})
        with pytest.raises(UvinfoError,
                           match=r"^unknown label in pair \('a', 'z'\)$"):
            EquivocationMatrix.of(["a", "b"], {("a", "z"): F(1, 2)})

    def test_rejects_values_outside_unit_interval(self):
        with pytest.raises(UvinfoError):
            EquivocationMatrix.of(["a", "b"], {("a", "b"): F(3, 2)})

    def test_rejects_bad_v_min(self):
        with pytest.raises(UvinfoError):
            EquivocationMatrix.of(["a", "b"], {}, v_min=0)

    @pytest.mark.parametrize("labels", [[1, "a"], [["a"], "b"]])
    def test_rejects_unsortable_labels(self, labels):
        with pytest.raises(UvinfoError, match="mutually comparable"):
            EquivocationMatrix.of(labels, {})

    def test_capacity_on_the_heavy_matrix(self):
        res = matrix_capacity(self.heavy_matrix(), F(1, 4))
        assert res.count == 2
        assert res.witness == ("a", "c")

    def test_all_zero_matrix_is_free(self):
        em = EquivocationMatrix.of(list("abcde"), {})
        assert matrix_capacity(em, F(0)).count == 5

    def test_delta_must_stay_below_v_min(self):
        with pytest.raises(DeltaOutOfRange):
            matrix_capacity(self.heavy_matrix(), F(1, 2))

    def test_from_channel_matches_direct_capacity(self):
        block1 = frozenset([1, 2, 3, 4, 5, 6, 11])
        block2 = frozenset([7, 8, 9, 10, 11, 12, 2])
        block3 = frozenset(range(13, 20))
        mapping = {x: block1 for x in range(1, 7)}
        mapping.update({x: block2 for x in range(7, 13)})
        mapping.update({x: block3 for x in range(13, 20)})
        ch = Channel.of(mapping)
        m = CardinalityPower(19)
        em = EquivocationMatrix.of(
            ch.x_symbols,
            {(a, b): m.of(ch.image(a) & ch.image(b))
             for a, b in itertools.combinations(ch.x_symbols, 2)},
            v_min=ch.min_image_uncertainty(m))
        assert em.v_min == F(7, 19)
        assert em.value(1, 7) == F(2, 19)
        for delta in (F(0), F(2, 9), F(6, 19) - F(1, 100)):
            assert matrix_capacity(em, delta).count \
                == capacity(ch, m, delta).count


class TestConfusionIngest:
    CSV = "true,predicted\ncat,cat\ncat,dog\ndog,dog\nfox,fox\n"

    def test_csv_round_trip(self):
        ch = confusion_ingest(self.CSV)
        assert ch.x_symbols == ("cat", "dog", "fox")
        assert ch.image("cat") == frozenset(["cat", "dog"])
        assert ch.image("fox") == frozenset(["fox"])

    def test_csv_reads_as_the_mapping_channel(self):
        mapping = {"cat": ["cat", "dog"], "dog": ["dog"], "fox": ["fox"]}
        assert confusion_ingest(self.CSV) \
            == Channel.of(mapping, y_alphabet=["cat", "dog", "fox"])

    @pytest.mark.parametrize("source", [
        {"cat": ["cat", "dog"]}, [("cat", "dog")], b"true,predicted\na,a\n"],
        ids=["a mapping", "a pair list", "bytes"])
    def test_only_csv_text_is_read(self, source):
        with pytest.raises(MalformedRow, match="^not CSV text: "):
            confusion_ingest(source)

    def test_bad_header_rejected(self):
        with pytest.raises(MalformedRow, match="header"):
            confusion_ingest("a,b\nx,y\n")

    def test_short_row_rejected(self):
        with pytest.raises(MalformedRow):
            confusion_ingest("true,predicted\nonlyone\n")

    def test_empty_input_rejected(self):
        with pytest.raises(MalformedRow):
            confusion_ingest("true,predicted\n")

    def test_label_uncertainty_normalizes_the_output_axis(self):
        ch = confusion_ingest(self.CSV)
        m = label_uncertainty(ch)
        assert m == CardinalityPower(3)
        assert m.of(frozenset(ch.y_symbols)) == 1

    def test_confused_labels_shrink_the_capacity(self):
        ch = confusion_ingest("true,predicted\na,a\na,b\nb,b\nb,a\nc,c\n")
        res = capacity(ch, label_uncertainty(ch), F(0))
        assert res.count == 2
        assert res.witness == ("a", "c")
