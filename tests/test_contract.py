"""The library's exit contract, the twin of the CLI's ``TestExitContract``:
every call of a public function ends in a result or a ``UvinfoError``,
whatever its arguments.  A delta is read exactly: an int, a ``Fraction`` or
a "p/q" string gives the result of its ``Fraction``, and a float, a decimal
string, a boolean or ``None`` is refused."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uvinfo import (
    BitString,
    CardinalityPower,
    Channel,
    ConfidenceSequence,
    EquivocationMatrix,
    UvinfoError,
    capacity,
    check_distinguishable,
    hamming_distance_bound,
    induced_pair,
    information_rate_at_horizon,
    matrix_capacity,
    mi_sup_oracle,
    rate_at_horizon,
    single_letter_check,
    tensorization_check,
    verify_coding_theorem,
)
from uvinfo.chancap import average_overlap, avg_overlap_capacity

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


DELTA_CALLS = {
    "capacity": lambda ch, m, d: capacity(ch, m, d),
    "check_distinguishable": lambda ch, m, d:
        check_distinguishable(ch, m, ch.x_symbols[:2], d),
    "mi_sup_oracle": lambda ch, m, d: mi_sup_oracle(ch, m, d),
    "mi_sup_oracle, every level": lambda ch, m, d:
        mi_sup_oracle(ch, m, d, feasible_only=False),
    "verify_coding_theorem": lambda ch, m, d:
        verify_coding_theorem(ch, m, [F(0), d]),
    "rate_at_horizon 1": lambda ch, m, d: rate_at_horizon(ch, m, d, 1),
    "rate_at_horizon 2": lambda ch, m, d: rate_at_horizon(ch, m, d, 2),
    "information_rate_at_horizon 2": lambda ch, m, d:
        information_rate_at_horizon(ch, m, d, 2),
    "avg_overlap_capacity": lambda ch, m, d: avg_overlap_capacity(ch, m, d),
    "matrix_capacity": lambda ch, m, d:
        matrix_capacity(EquivocationMatrix.from_channel(ch, m), d),
    "tensorization_check": lambda ch, m, d:
        tensorization_check([induced_pair(ch, ch.x_symbols)], m, d),
    "hamming_distance_bound, delta": lambda ch, m, d:
        hamming_distance_bound(WORDS, F(1, 4), d),
    "hamming_distance_bound, tau": lambda ch, m, d:
        hamming_distance_bound(WORDS, d, F(1, 2)),
    "single_letter_check T12": lambda ch, m, d: single_letter_check(
        ch, m, "T12", codebook=ch.x_symbols[:1], delta1=d,
        sequence=ConfidenceSequence.zero()),
}

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
