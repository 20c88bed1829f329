"""The library's exit contract, the twin of the CLI's ``TestExitContract``:
every call of a public function ends in a result or a ``UvinfoError``,
whatever its arguments.  A delta or a level is read exactly: an int, a
``Fraction`` or a "p/q" string gives the result of its ``Fraction``, and a
float, a decimal string, a boolean or ``None`` is refused.  A horizon, a
size or a length is an int of at least 1, and anything else is refused."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uvinfo import (
    BitString,
    CardinalityPower,
    Channel,
    ConfidenceSequence,
    DeltaOutOfRange,
    EquivocationMatrix,
    ExplicitWeights,
    IntervalUnion,
    LengthMismatch,
    ProductChannel,
    Rate,
    UncertainPair,
    UvinfoError,
    association_sets,
    capacity,
    capacity_profile,
    check_distinguishable,
    classify_levels,
    confusion_ingest,
    delta_components,
    hamming_distance_bound,
    hamming_equivocation,
    induced_pair,
    information_rate_at_horizon,
    matrix_capacity,
    mi_sup_oracle,
    mutual_information,
    overlap_family,
    parse_sequence_spec,
    product_pair,
    product_uncertainty,
    rate_at_horizon,
    single_letter_check,
    taxicab_family,
    tensorization_check,
    verify_coding_theorem,
)
from uvinfo.apps import MalformedRow
from uvinfo.chancap import (AlphabetTooLarge, average_overlap,
                            avg_overlap_capacity, ball_channel)

F = Fraction
WORDS = (BitString.of("0011"), BitString.of("1100"), BitString.of("0101"))


def channels():
    def build(images):
        return Channel.of({x: img for x, img in enumerate(images)},
                          y_alphabet=range(4))
    return st.lists(st.frozensets(st.integers(0, 3), min_size=1),
                    min_size=1, max_size=5).map(build)


def deltas():
    """``(delta, exact)``: a delta in some spelling, and the ``Fraction`` it
    must be read as, or None when it must be refused."""
    exact = st.fractions(-1, 2, max_denominator=12)
    return st.one_of(
        exact.map(lambda f: (f, f)),
        st.integers(-2, 2).map(lambda i: (i, F(i))),
        st.integers(-2, 2).map(lambda i: (str(i), F(i))),
        exact.map(lambda f: (f" {f.numerator}/{f.denominator} ", f)),
        exact.map(lambda f: (f"{float(f):.3f}", None)),
        exact.map(lambda f: (f"{float(f):e}", None)),
        st.floats().map(lambda x: (x, None)),
        st.sampled_from(["", "abc", "1/0", "1//2", "one"]).map(
            lambda text: (text, None)),
        st.sampled_from([True, False, None, []]).map(lambda v: (v, None)),
    )


def _pair(ch):
    """The induced pair of the whole input alphabet, with its uniform input
    measure."""
    return induced_pair(ch, ch.x_symbols), CardinalityPower(len(ch.x_symbols))


def _matrix(ch, m):
    """The equivocation matrix of the channel, with its noise floor."""
    return EquivocationMatrix.of(
        ch.x_symbols, {(a, b): m.of(ch.image(a) & ch.image(b))
                       for a, b in itertools.combinations(ch.x_symbols, 2)},
        v_min=ch.min_image_uncertainty(m))


def _assoc(ch, m):
    pair, m_x = _pair(ch)
    return association_sets(pair, m_x, m)


DELTA_CALLS = {
    "capacity": lambda ch, m, d: capacity(ch, m, d),
    "check_distinguishable": lambda ch, m, d:
        check_distinguishable(ch, m, ch.x_symbols[:2], d),
    "mi_sup_oracle": lambda ch, m, d: mi_sup_oracle(ch, m, d),
    "verify_coding_theorem": lambda ch, m, d:
        verify_coding_theorem(ch, m, [F(0), d]),
    "rate_at_horizon 1": lambda ch, m, d: rate_at_horizon(ch, m, d, 1),
    "rate_at_horizon 2": lambda ch, m, d: rate_at_horizon(ch, m, d, 2),
    "information_rate_at_horizon 2": lambda ch, m, d:
        information_rate_at_horizon(ch, m, d, 2),
    "avg_overlap_capacity": lambda ch, m, d: avg_overlap_capacity(ch, m, d),
    "matrix_capacity": lambda ch, m, d:
        matrix_capacity(_matrix(ch, m), d),
    "tensorization_check": lambda ch, m, d:
        tensorization_check([induced_pair(ch, ch.x_symbols)], m, d),
    "hamming_distance_bound, delta": lambda ch, m, d:
        hamming_distance_bound(WORDS, F(1, 4), d),
    "hamming_distance_bound, tau": lambda ch, m, d:
        hamming_distance_bound(WORDS, d, F(1, 2)),
    "single_letter_check T12": lambda ch, m, d: single_letter_check(
        ch, m, "T12", codebook=ch.x_symbols[:1], delta1=d,
        sequence=ConfidenceSequence.zero()),
    "overlap_family": lambda ch, m, d:
        overlap_family(*_pair(ch), m, d, "Y"),
    "mutual_information": lambda ch, m, d:
        mutual_information(*_pair(ch), m, d, "XgivenY"),
    "delta_components": lambda ch, m, d:
        delta_components(_pair(ch)[0], m, d, "Y"),
    "taxicab_family, delta1": lambda ch, m, d:
        taxicab_family(*_pair(ch), m, d, F(1, 2)),
    "taxicab_family, delta2": lambda ch, m, d:
        taxicab_family(*_pair(ch), m, F(1, 2), d),
    "classify_levels, delta1": lambda ch, m, d:
        classify_levels(_assoc(ch, m), d, F(1, 2)),
    "classify_levels, delta2": lambda ch, m, d:
        classify_levels(_assoc(ch, m), F(1, 2), d),
}

# every count input: a horizon, a size or a length
COUNT_CALLS = {
    "rate_at_horizon": lambda ch, m, n: rate_at_horizon(ch, m, 0, n),
    "information_rate_at_horizon": lambda ch, m, n:
        information_rate_at_horizon(ch, m, 0, n),
    "capacity_profile": lambda ch, m, n:
        capacity_profile(ch, m, ConfidenceSequence.zero(), n),
    "ProductChannel": lambda ch, m, n: ProductChannel(ch, n),
    "product_uncertainty": lambda ch, m, n: product_uncertainty(m, n),
    "value_at": lambda ch, m, n: ConfidenceSequence.zero().value_at(n),
    "CardinalityPower base_size": lambda ch, m, n: CardinalityPower(n),
    "CardinalityPower exponent": lambda ch, m, n: CardinalityPower(4, n),
    "BitString length": lambda ch, m, n: BitString(n, 0),
    "Rate count": lambda ch, m, n: Rate(n, 1),
    "Rate horizon": lambda ch, m, n: Rate(2, n),
}


def counts():
    """``(value, valid)``: a count in some spelling, and whether it must be
    taken."""
    return st.one_of(
        st.integers(1, 2).map(lambda i: (i, True)),
        st.integers(-2, 0).map(lambda i: (i, False)),
        st.sampled_from([True, False, None]).map(lambda v: (v, False)),
        st.sampled_from([1.0, 2.0, 1.5, 0.5, float("nan")]).map(
            lambda v: (v, False)),
        st.sampled_from(["1", "2", " 2 ", "1/1", "0"]).map(
            lambda v: (v, False)),
    )


CODEBOOK_CALLS = {
    "check_distinguishable": lambda ch, m, cb:
        check_distinguishable(ch, m, cb, F(1, 3)),
    "induced_pair": lambda ch, m, cb: induced_pair(ch, cb),
    "average_overlap": lambda ch, m, cb: average_overlap(ch, m, cb),
    "single_letter_check Cor2": lambda ch, m, cb:
        single_letter_check(ch, m, "Cor2", codebook=cb),
    "single_letter_check T14": lambda ch, m, cb:
        single_letter_check(ch, m, "T14", codebook=cb, delta_star=0),
}


# inputs whose structure is wrong where each value is read
STRUCTURAL_CALLS = {
    "Channel.of, a list": lambda: Channel.of([1, 2]),
    "Channel.of, an int image": lambda: Channel.of({1: 5}),
    "IntervalUnion.of, a pair of one": lambda: IntervalUnion.of([(1,)]),
    "UncertainPair.finite, ints for pairs": lambda: UncertainPair.finite([1, 2]),
    "confusion_ingest, an int": lambda: confusion_ingest(5),
    "EquivocationMatrix.of, an int key":
        lambda: EquivocationMatrix.of([1, 2], {1: "1/2"}),
    "EquivocationMatrix.of, a list":
        lambda: EquivocationMatrix.of(["a", "b"], [("a", "b")]),
    "ExplicitWeights.of_mapping, incomparable labels":
        lambda: ExplicitWeights.of_mapping({1: 1, "a": 1}),
    "ball_channel, incomparable points":
        lambda: ball_channel([1, "a"], lambda a, b: 0, 1),
    "UncertainPair.finite, incomparable labels":
        lambda: UncertainPair.finite([(1, "a"), ("b", 2)]),
    "UncertainPair.finite, incomparable y labels":
        lambda: UncertainPair.finite([(1, "a"), (2, 3)]),
    "UncertainPair.hybrid, an int cell": lambda: UncertainPair.hybrid({1: 5}),
    "UncertainPair.hybrid, a list": lambda: UncertainPair.hybrid([(1, 2)]),
    "UncertainPair.hybrid, incomparable x labels": lambda: UncertainPair.hybrid(
        {1: IntervalUnion.of([(0, 1)]), "a": IntervalUnion.of([(0, 1)])}),
    "ExplicitWeights.of_mapping, a list": lambda: ExplicitWeights.of_mapping([1, 2]),
    "BitString.of, an int": lambda: BitString.of(5),
    "hamming_distance_bound, an int codebook":
        lambda: hamming_distance_bound(5, 0, 0),
    "ConfidenceSequence.explicit, an int": lambda: ConfidenceSequence.explicit(5),
    "verify_coding_theorem, an int grid": lambda: verify_coding_theorem(
        Channel.of({1: {0}}), CardinalityPower(1), 0),
    "tensorization_check, an int": lambda: tensorization_check(
        5, CardinalityPower(4), 0),
    "tensorization_check, an int component": lambda: tensorization_check(
        [5], CardinalityPower(4), 0),
    "product_pair, an int": lambda: product_pair(5),
    "product_pair, an int component": lambda: product_pair([5]),
    "Channel.image, an unhashable symbol":
        lambda: Channel.of({1: {0}}).image([1]),
    "capacity_profile, an int sequence": lambda: capacity_profile(
        Channel.of({1: {0}, 3: {1}}), CardinalityPower(2), 5, 1),
    "single_letter_check, an int sequence": lambda: single_letter_check(
        Channel.of({1: {0}, 3: {1}}), CardinalityPower(2), "T12",
        codebook=(1, 3), delta1=0, sequence=5),
    "single_letter_check, a list for the variant": lambda: single_letter_check(
        Channel.of({1: {0}}), CardinalityPower(1), ["T12"]),
    **{f"{name}, incomparable symbols": lambda call=call: call(
        Channel.of({1: {0}, 2: {1}}), CardinalityPower(2), [1, "a"])
       for name, call in CODEBOOK_CALLS.items()},
}


# refusals pinned by class and message
B = BitString.of
PINNED_REFUSALS = {
    "hamming_equivocation, lengths": (
        lambda: hamming_equivocation(B("01"), B("011"), 0),
        LengthMismatch, "lengths differ: 2 vs 3"),
    "hamming_distance_bound, empty": (
        lambda: hamming_distance_bound([], 0, 0),
        UvinfoError, "the codebook is empty"),
    "hamming_distance_bound, lengths": (
        lambda: hamming_distance_bound([B("011"), B("01")], 0, 0),
        LengthMismatch, "lengths differ: 2 vs 3"),
    "EquivocationMatrix.of, a diagonal entry": (
        lambda: EquivocationMatrix.of([1, 2], {(1, 1): 0}),
        UvinfoError, "diagonal entry for 1 is not allowed"),
    "EquivocationMatrix.of, asymmetric entries": (
        lambda: EquivocationMatrix.of([1, 2], {(1, 2): "1/2", (2, 1): "1/3"}),
        UvinfoError, "asymmetric entries for pair (1, 2): 1/2 vs 1/3"),
    "confusion_ingest, empty text": (
        lambda: confusion_ingest(""), MalformedRow, "empty CSV input"),
    "confusion_ingest, not CSV text": (
        lambda: confusion_ingest({"cat": ["dog"]}),
        MalformedRow, "not CSV text: {'cat': ['dog']}"),
    "avg_overlap_capacity, 21 inputs": (
        lambda: avg_overlap_capacity(Channel.of({x: {x} for x in range(21)}),
                                     CardinalityPower(21), 0),
        AlphabetTooLarge, "21 inputs exceed the brute-force cap of 20"),
    "parse_sequence_spec, no base": (
        lambda: parse_sequence_spec({"kind": "geometric"}),
        UvinfoError, "a geometric sequence needs a base"),
    "parse_sequence_spec, no value": (
        lambda: parse_sequence_spec({"kind": "constant"}),
        UvinfoError, "a constant sequence needs a value"),
    "tensorization_check, no component": (
        lambda: tensorization_check([], CardinalityPower(4), 0),
        UvinfoError, "at least one component pair is needed"),
    "product_pair, an interval pair": (
        lambda: product_pair([UncertainPair.hybrid({1: IntervalUnion.of([(0, 1)])})]),
        UvinfoError, "only finite pairs have a materialized product"),
    "IntervalUnion.of, endpoints out of order": (
        lambda: IntervalUnion.of([(2, 1)]),
        UvinfoError, "interval endpoints out of order: [2, 1]"),
    "UncertainPair.hybrid, no cell": (
        lambda: UncertainPair.hybrid({}),
        UvinfoError, "an interval pair needs at least one x"),
    "Channel.image, an unhashable symbol": (
        lambda: Channel.of({1: {0}}).image([1]),
        UvinfoError, "[1] is not an input symbol"),
    # an input the certificate variant never reads
    "single_letter_check, T12 with delta_star": (
        lambda: single_letter_check(
            Channel.of({1: {0}, 2: {1}}), CardinalityPower(2), "T12",
            codebook=(1, 2), delta1=0, sequence=ConfidenceSequence.zero(),
            delta_star="1/5"),
        UvinfoError, "T12 takes no delta_star"),
    "single_letter_check, T13 with delta_star": (
        lambda: single_letter_check(
            Channel.of({1: {0}, 2: {1}}), CardinalityPower(2), "T13",
            codebook=(1, 2), delta1=0, sequence=ConfidenceSequence.zero(),
            delta_star="1/5"),
        UvinfoError, "T13 takes no delta_star"),
    "single_letter_check, Cor2 with delta1": (
        lambda: single_letter_check(
            Channel.of({1: {0}, 2: {1}}), CardinalityPower(2), "Cor2",
            codebook=(1, 2), delta1="1/2"),
        UvinfoError, "Cor2 takes no delta1"),
    "single_letter_check, T14 with a sequence": (
        lambda: single_letter_check(
            Channel.of({1: {0}, 2: {1}}), CardinalityPower(2), "T14",
            sequence=ConfidenceSequence.zero()),
        UvinfoError, "T14 takes no sequence"),
    "single_letter_check, T14 with delta_star and no codebook": (
        lambda: single_letter_check(
            Channel.of({1: {0}, 2: {1}}), CardinalityPower(2), "T14",
            delta_star="1/5"),
        UvinfoError, "T14 without a codebook takes no delta_star"),
    # a rate renders log2(count)/horizon, so neither can be 0 or less
    **{f"Rate, {name}": (
        lambda args=args: Rate(*args),
        UvinfoError, f"the {field} must be a positive integer")
       for name, args, field in (
           ("no codeword", (0, 1), "count"), ("horizon 0", (3, 0), "horizon"),
           ("a negative horizon", (2, -1), "horizon"),
           ("a boolean count", (True, 1), "count"))},
}


def outcome(call, *args) -> tuple:
    """``(None, result)`` of ``call(*args)``, or the type and message of the
    ``UvinfoError`` it raised; any other exception propagates."""
    try:
        return None, call(*args)
    except UvinfoError as exc:
        return type(exc), str(exc)


class TestLibraryContract:
    @given(channels(), deltas(), st.sampled_from(sorted(DELTA_CALLS)))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_every_delta_is_read_exactly_or_refused(self, ch, drawn, name):
        call, (delta, exact) = DELTA_CALLS[name], drawn
        m = CardinalityPower(4)
        if exact is None:
            with pytest.raises(UvinfoError):
                call(ch, m, delta)
        else:
            assert outcome(call, ch, m, delta) == outcome(call, ch, m, exact)

    @given(channels(), st.lists(st.integers(-1, 5), max_size=4),
           st.sampled_from(sorted(CODEBOOK_CALLS)))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_every_codebook_is_a_result_or_refused(self, ch, codebook, name):
        refused, _ = outcome(CODEBOOK_CALLS[name], ch, CardinalityPower(4),
                             codebook)
        if not codebook or not set(codebook) <= set(ch.x_symbols):
            assert refused is not None

    @given(channels(), counts(), st.sampled_from(sorted(COUNT_CALLS)))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_every_count_is_a_positive_int_or_refused(self, ch, drawn, name):
        call, (n, valid) = COUNT_CALLS[name], drawn
        refused, message = outcome(call, ch, CardinalityPower(4), n)
        counted = refused is UvinfoError and message.endswith(
            "must be a positive integer")
        assert counted != valid

    @pytest.mark.parametrize("name", sorted(STRUCTURAL_CALLS))
    def test_a_malformed_structure_is_refused(self, name):
        with pytest.raises(UvinfoError):
            STRUCTURAL_CALLS[name]()

    @pytest.mark.parametrize("name", sorted(PINNED_REFUSALS))
    def test_a_refusal_keeps_its_class_and_message(self, name):
        call, refusal, message = PINNED_REFUSALS[name]
        assert outcome(call) == (refusal, message)

    def test_the_knife_edge_is_read_exactly(self):
        # the two ranges [Y|1] and [Y|2] overlap in 3 of 10 outputs, so the
        # level 3/10 associates them; the float 0.3 lies just below 3/10
        pair = UncertainPair.finite(
            {(1, y) for y in range(5)} | {(2, y) for y in range(2, 10)})
        m_x, m_y = CardinalityPower(2), CardinalityPower(10)
        with pytest.raises(UvinfoError, match="not a valid ratio: 0.3"):
            mutual_information(pair, m_x, m_y, 0.3, "YgivenX")
        result = mutual_information(pair, m_x, m_y, "3/10", "YgivenX")
        assert (result.count, result.status) == (2, "associated")
        with pytest.raises(DeltaOutOfRange):
            mutual_information(pair, m_x, m_y, "-3/10", "YgivenX")
