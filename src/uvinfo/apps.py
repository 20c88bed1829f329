"""Applied capacity calculations: adversarial bit-flip channels with the
Hamming-distance bound, and label-equivocation capacities for classifiers.

The bit-flip channel lives on {0,1}^n with balls of integer radius r = floor
of tau*n; its uncertainty function is diameter-based (D(S)+1, normalized by
n+1) rather than cardinality-based, so the equivocation is computed here
directly instead of through a Channel.  The classifier applications reduce to
the generic pairwise-equivocation clique search.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction
from collections.abc import Iterable, Mapping
from functools import cached_property

from .uvcore import (CardinalityPower, UvinfoError, _frozen, _items,
                     _sorted_symbols, format_ratio, hamming_diameter, level,
                     positive_int, ratio)
from .chancap import Channel, _capacity_search, CapacityResult

HAMMING_MAX_LENGTH = 12


class LengthMismatch(UvinfoError):
    """Bit strings in one codebook must share a length."""


class LengthTooLarge(UvinfoError):
    """Exhaustive ball enumeration is capped at n <= 12."""


class NotDistinguishable(UvinfoError):
    """The codebook fails the pairwise equivocation threshold."""


class MalformedRow(UvinfoError):
    """A confusion observation does not parse as (true, predicted)."""


# ---------------------------------------------------------------------------
# bit strings and Hamming geometry


@_frozen(order=True)
class BitString:
    """A fixed-length binary word, kept as an int for cheap XOR distances."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        positive_int(self.length, "the bit-string length")
        if type(self.bits) is not int or not 0 <= self.bits < 1 << self.length:
            raise UvinfoError(
                f"value {self.bits!r} does not fit in {self.length} bits")

    @staticmethod
    def of(text: str) -> "BitString":
        if not isinstance(text, str) or not text or set(text) - {"0", "1"}:
            raise UvinfoError(f"not a bit string: {text!r}")
        return BitString(len(text), int(text, 2))

    def distance(self, other: "BitString") -> int:
        if self.length != other.length:
            raise LengthMismatch(
                f"lengths differ: {self.length} vs {other.length}")
        return (self.bits ^ other.bits).bit_count()

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b")


def _require_length(n: int) -> None:
    if n > HAMMING_MAX_LENGTH:
        raise LengthTooLarge(
            f"length {n} exceeds the exhaustive cap of {HAMMING_MAX_LENGTH}")


def _radius(tau, n: int) -> int:
    # Balls have integer radii; the fractional tau*n is floored once here and
    # used consistently in both the equivocation and the distance bound.
    return math.floor(level(tau, 1, closed=True, name="tau") * n)


def _ball(center: int, radius: int, n: int) -> list:
    return [y for y in range(1 << n)
            if (y ^ center).bit_count() <= radius]


def hamming_equivocation(x1: BitString, x2: BitString, tau) -> Fraction:
    """The diameter-based equivocation of two radius-floor(tau*n) balls:
    (D + 1)/(n + 1) over the ball intersection, zero when the balls are
    disjoint.  Exhaustive over {0,1}^n, so capped at n <= 12."""
    _items((x1, x2), "the codewords", BitString)
    if x1 == x2:
        raise UvinfoError("equivocation needs two distinct codewords")
    distance, n = x1.distance(x2), x1.length
    _require_length(n)
    r = _radius(tau, n)
    if distance > 2 * r:
        return Fraction(0)
    shared = [y for y in _ball(x1.bits, r, n)
              if (y ^ x2.bits).bit_count() <= r]
    if not shared:
        return Fraction(0)
    return Fraction(hamming_diameter(shared, min(2 * r, n)) + 1, n + 1)


@_frozen
class DistanceBoundRow:
    pair: tuple                  # (BitString, BitString)
    distance: int
    bound: Fraction              # the guaranteed lower bound on the distance
    correctable: int             # floor((distance - 1) / 2)


@_frozen
class DistanceBoundReport:
    rows: tuple
    radius: int
    threshold: Fraction          # delta_n / |codebook|
    min_distance: int | None  # None for codebooks without pairs

    @property
    def correctable(self) -> int | None:
        if self.min_distance is None:
            return None
        return (self.min_distance - 1) // 2


def hamming_distance_bound(codebook: Iterable[BitString], tau,
                           delta_n) -> DistanceBoundReport:
    """Check distinguishability of a bit-string codebook and report the
    guaranteed pairwise distance H >= 2r - delta_n(n+1)/|codebook| + 1.

    The codebook must be (r, delta_n)-distinguishable (every pairwise
    equivocation at most delta_n/|codebook|), otherwise NotDistinguishable
    is raised naming the first violating pair.  The bound itself is a
    theorem, so it is asserted, not reported as checkable."""
    cb = tuple(sorted(set(_items(codebook, "a codebook", BitString))))
    if not cb:
        raise UvinfoError("the codebook is empty")
    n = cb[0].length
    for w in cb[1:]:
        if w.length != n:
            raise LengthMismatch(f"lengths differ: {n} vs {w.length}")
    _require_length(n)
    r = _radius(tau, n)
    delta_n = level(delta_n, None)
    threshold = delta_n / len(cb)
    if len(cb) == 1:
        return DistanceBoundReport((), r, threshold, None)
    pairs = list(itertools.combinations(cb, 2))
    for x1, x2 in pairs:
        e = hamming_equivocation(x1, x2, tau)
        if e > threshold:
            raise NotDistinguishable(
                f"e({x1}, {x2}) = {format_ratio(e)} exceeds "
                f"delta/|codebook| = {format_ratio(threshold)}")
    bound = 2 * r - delta_n * (n + 1) / len(cb) + 1
    rows = []
    for x1, x2 in pairs:
        d = x1.distance(x2)
        assert d >= bound, (x1, x2, d, bound)
        rows.append(DistanceBoundRow((x1, x2), d, bound, (d - 1) // 2))
    return DistanceBoundReport(tuple(rows), r, threshold,
                               min(row.distance for row in rows))


# ---------------------------------------------------------------------------
# label equivocation matrices


@_frozen
class EquivocationMatrix:
    """Pairwise label equivocations with the noise-floor analogue v_min.

    The entries are the caller's e(l1, l2) values in [0, 1]; symmetry is
    enforced at construction.  v_min plays the role of m(V_N) and bounds the
    admissible delta for matrix_capacity.
    """

    labels: tuple
    entries: tuple               # ((l1, l2), value) with l1 < l2 sorted
    v_min: Fraction

    @staticmethod
    def of(labels, mapping: Mapping, v_min=1) -> "EquivocationMatrix":
        if not isinstance(mapping, Mapping):
            raise UvinfoError(
                f"a matrix maps label pairs to values, got {mapping!r}")
        labs = _sorted_symbols(labels, "label")
        if len(labs) < 2:
            raise UvinfoError("a matrix needs at least two labels")
        floor = ratio(v_min)
        if not 0 < floor <= 1:
            raise UvinfoError("v_min must lie in (0, 1]")
        known = set(labs)
        table = {}
        for key, value in mapping.items():
            try:
                l1, l2 = key
            except (TypeError, ValueError):
                raise UvinfoError(f"a matrix key is a label pair, got {key!r}") from None
            if l1 == l2:
                raise UvinfoError(f"diagonal entry for {l1!r} is not allowed")
            if l1 not in known or l2 not in known:
                raise UvinfoError(f"unknown label in pair ({l1!r}, {l2!r})")
            v = level(value, 1, closed=True, name=f"e({l1!r}, {l2!r})")
            pair = (min(l1, l2), max(l1, l2))
            if pair in table and table[pair] != v:
                raise UvinfoError(
                    f"asymmetric entries for pair {pair!r}: "
                    f"{format_ratio(table[pair])} vs {format_ratio(v)}")
            table[pair] = v
        entries = tuple((pair, table.get(pair, Fraction(0)))
                        for pair in itertools.combinations(labs, 2))
        return EquivocationMatrix(labs, entries, floor)

    @cached_property
    def _by_pair(self) -> dict:
        return dict(self.entries)

    def value(self, l1, l2) -> Fraction:
        if l1 == l2:
            raise UvinfoError("no diagonal equivocation")
        pair = (min(l1, l2), max(l1, l2))
        try:
            return self._by_pair[pair]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise UvinfoError(f"unknown label pair {pair!r}") from None


def matrix_capacity(em: EquivocationMatrix, delta) -> CapacityResult:
    """The largest label subset with pairwise e <= delta/|subset| — the
    clique solver of the channel capacity, driven by a matrix."""
    delta = level(delta, em.v_min, f"v_min = {format_ratio(em.v_min)}")
    return _capacity_search(em.labels, [v for _, v in em.entries], delta)


# ---------------------------------------------------------------------------
# confusion ingestion


def confusion_ingest(text: str) -> Channel:
    """Build a label channel l -> N(l) from classification observations:
    CSV text with header ``true,predicted``, one observation a row.

    The input alphabet is the set of true labels; the output alphabet is
    every label seen on either side.  A mapping label -> predicted labels
    is already a channel: ``Channel.of(mapping, y_alphabet=...)``.
    """
    if not isinstance(text, str):
        raise MalformedRow(f"not CSV text: {text!r}")
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedRow("empty CSV input") from None
    if [h.strip() for h in header] != ["true", "predicted"]:
        raise MalformedRow(f"expected header 'true,predicted', got {header!r}")
    images: dict = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2 or not row[0].strip() or not row[1].strip():
            raise MalformedRow(f"line {lineno}: {row!r}")
        true, predicted = row[0].strip(), row[1].strip()
        images.setdefault(true, set()).add(predicted)
    if not images:
        raise MalformedRow("no observations")
    return Channel.of({l: frozenset(ns) for l, ns in images.items()},
                      y_alphabet=set(images).union(*images.values()))


def label_uncertainty(ch: Channel) -> CardinalityPower:
    """The normalized counting measure over the channel's label alphabet —
    the measure under which confusion capacities are computed."""
    return CardinalityPower(len(ch.y_symbols))
