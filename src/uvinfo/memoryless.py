"""Memoryless product channels, rate sequences, and single-letter certificates.

A stationary memoryless channel applies the same set-valued map independently
at every position, so the horizon-n noise image of a codeword is the product
of its per-symbol images and the natural uncertainty on output blocks is the
n-fold product functional.  Everything infinite-horizon here is handled with
care: finite horizons are computed exactly and labeled as bounds, and an
infinite-horizon capacity value is only ever reported when one of the
single-letter sufficient-condition certificates passes, in which case it
equals the one-symbol mutual information of the certified codebook.

Exactness discipline: rates are carried as (count, horizon) so that
log2(count)/horizon comparisons reduce to integer power comparisons, and the
"for all n" tail conditions of the certificates are decided in closed form
on one normal form of the sequence (listed values, then a geometric tail)
rather than by sampling horizons.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .uvcore import (
    CardinalityPower,
    UncertainPair,
    UncertaintyFunction,
    UvinfoError,
    _frozen,
    _items,
    format_log2,
    format_ratio,
    level,
    positive_int,
    ratio,
)
from .infocalc import EmptyPair, mutual_information, overlap_family
from .chancap import (
    AlphabetTooLarge,
    Channel,
    DeltaOutOfRange,
    _codebook_row,
    _codebook_rows,
    _noise_floor_search,
    _product_search,
    _require_normalized,
    _sup,
    _uniform_x,
    as_codebook,
    capacity,
    mi_sup_oracle,
)

CLIQUE_SEARCH_MAX_POINTS = 500
FAMILY_MAX_POINTS = 7000


class NonProductUncertainty(UvinfoError):
    """The uncertainty function has no factorizing n-fold extension."""


class HorizonTooLarge(UvinfoError):
    """The product space exceeds the exact-search size caps."""


class NotCapacityAchieving(UvinfoError):
    """The supplied codebook does not attain the one-dimensional optimum."""


def product_uncertainty(m: UncertaintyFunction, n: int) -> UncertaintyFunction:
    """The n-fold product functional, normalized so the full output block
    space has uncertainty 1.

    Only the cardinality-power family factorizes ((|A x B| / b^2)^e splits
    into per-factor terms); for it the product is cardinality-power again,
    over the n-fold output alphabet.
    """
    positive_int(n, "the horizon")
    if not isinstance(m, CardinalityPower):
        raise NonProductUncertainty(
            f"no product extension for uncertainty kind {m.kind!r}")
    if n == 1:
        return m
    return CardinalityPower(m.base_size ** n, m.exponent)


@_frozen
class ProductChannel:
    """The horizon-n extension of a base channel; images are per-symbol
    products, built only within the exact-search caps, which bound rates."""

    base: Channel
    horizon: int

    def __post_init__(self) -> None:
        positive_int(self.horizon, "the horizon")

    def materialize(self) -> Channel:
        self._require_caps()
        mapping = {}
        for block in itertools.product(self.base.x_symbols, repeat=self.horizon):
            mapping[block] = frozenset(
                itertools.product(*(self.base.image(x) for x in block)))
        y_blocks = itertools.product(self.base.y_symbols, repeat=self.horizon)
        return Channel.of(mapping, y_alphabet=tuple(y_blocks))

    def _require_caps(self) -> None:
        n = self.horizon
        if n == 1:  # one-symbol blocks are the base's own inputs and outputs
            return
        for side, size, cap in (
                ("inputs", len(self.base.x_symbols), CLIQUE_SEARCH_MAX_POINTS),
                ("outputs", len(self.base.y_symbols), FAMILY_MAX_POINTS)):
            # size ** n > cap for every n past cap.bit_length() (size >= 2),
            # and a block holds n symbols even over one symbol, so a huge
            # horizon is refused without building its power or a block
            if size > 1 and (n > cap.bit_length() or size ** n > cap):
                shown = size ** n if n <= cap.bit_length() else f"{size}^{n}"
                raise HorizonTooLarge(
                    f"{shown} block {side} exceed the cap of {cap}")
            if n > cap:
                raise HorizonTooLarge(
                    f"horizon {n} exceeds the cap of {cap} on block {side}")


@_frozen
class Rate:
    """log2(count)/horizon bits per symbol, kept exact as the pair; both
    are ints of at least 1, so every rate renders."""

    count: int
    horizon: int

    def __post_init__(self) -> None:
        positive_int(self.count, "the count")
        positive_int(self.horizon, "the horizon")

    @property
    def bits(self) -> float:
        return math.log2(self.count) / self.horizon

    def compare(self, other: "Rate") -> int:
        left = self.count ** other.horizon
        right = other.count ** self.horizon
        return (left > right) - (left < right)

    def render(self) -> str:
        return format_log2(self.count, self.horizon)


def rate_at_horizon(ch: Channel, m: UncertaintyFunction, delta_n: Fraction,
                    n: int) -> Rate:
    """The largest distinguishable rate at one horizon: the exact capacity
    count of the n-fold product channel, as a per-symbol rate.  The two are
    provably equal to ``information_rate_at_horizon``, the second route.
    Past horizon 1 no block is built: the base's counts fill the product's;
    a measure with no product extension is refused at every horizon."""
    product = ProductChannel(ch, n)
    if n == 1:
        return Rate(capacity(product.materialize(), product_uncertainty(m, 1), delta_n).count, 1)
    product._require_caps()
    return Rate(_product_search(ch, product_uncertainty(m, n), delta_n, n).count, n)


def information_rate_at_horizon(ch: Channel, m: UncertaintyFunction,
                                delta_n: Fraction, n: int) -> Rate:
    """The information side of the horizon-n rate equality: the product-space
    mutual-information sup as a per-symbol rate."""
    mat = ProductChannel(ch, n).materialize()
    return Rate(mi_sup_oracle(mat, product_uncertainty(m, n), delta_n).count, n)


# ---------------------------------------------------------------------------
# confidence sequences


# (strict test, weak test) per relation: the strict one decides each n, the
# weak one whether the tail's ratio against the bound ever turns against it
_RELATIONS = {"<=": (operator.le, operator.le),
              "<": (operator.lt, operator.le),
              ">=": (operator.ge, operator.ge)}


@_frozen
class ConfidenceSequence:
    """An exact description of {delta_n} in one normal form: the listed
    values delta_1..delta_L of ``head``, then delta_n = scale * base**n for
    n > L.

    The constructors cover the four kinds: ``explicit`` (listed values, zero
    tail), ``geometric`` (scale * base^n), ``constant`` (base 1) and
    ``zero``.  Each takes ``first``, which overrides delta_1 — the worked
    sequences pair a standalone delta_1 with a geometric tail for n >= 2.
    """

    head: tuple = ()
    scale: Fraction = Fraction(0)
    base: Fraction = Fraction(0)

    @staticmethod
    def _of(head=(), scale=Fraction(0), base=Fraction(0), first=None):
        if first is not None:
            head = (ratio(first),) + head[1:]
        return ConfidenceSequence(head, scale, base)

    @staticmethod
    def explicit(values, first=None) -> "ConfidenceSequence":
        vals = tuple(level(v, None, name="delta_n")
                     for v in _items(values, "the listed values"))
        return ConfidenceSequence._of(vals, first=first)

    @staticmethod
    def geometric(base, scale=1, first=None) -> "ConfidenceSequence":
        b, s = level(base, None, name="base"), level(scale, None, name="scale")
        return ConfidenceSequence._of(scale=s, base=b, first=first)

    @staticmethod
    def constant(value, first=None) -> "ConfidenceSequence":
        v = level(value, None, name="delta_n")
        return ConfidenceSequence._of(scale=v, base=Fraction(1), first=first)

    @staticmethod
    def zero(first=None) -> "ConfidenceSequence":
        return ConfidenceSequence._of(first=first)

    def value_at(self, n: int) -> Fraction:
        if positive_int(n, "the horizon") <= len(self.head):
            return self.head[n - 1]
        return self.scale * self.base ** n

    def _decide(self, rel: str, c: Fraction, r: Fraction,
                bound: str) -> tuple[bool, str]:
        """Exactly decide delta_n <rel> c * r**n for every n >= 2, for
        c, r >= 0: the listed values one by one, then the tail, whose ratio
        (scale/c) * (base/r)**n to the bound is monotone in n.  So either the
        first tail horizon decides, or the tail fails eventually."""
        strict, weak = _RELATIONS[rel]
        n0 = max(2, len(self.head) + 1)
        for n in range(2, n0):
            if not strict(self.head[n - 1], c * r ** n):
                v = format_ratio(self.head[n - 1])
                return False, f"delta_{n} = {v}, not {rel} {bound}"
        if self.scale * self.base == 0:
            ok = strict(0, c * r)
            return ok, "zero tail" if ok else f"zero tail, not {rel} {bound}"
        if c * r != 0 and not weak(self.base, r):
            side = "below" if rel == ">=" else "above"
            return False, f"tail ratio {side} {bound}"
        ok = strict(self.value_at(n0), c * r ** n0)
        return ok, f"{'worst case' if ok else 'violated'} at n = {n0}"

    def vanishes(self) -> bool:
        """Whether delta_n -> 0 (the achievable-rate regime)."""
        return self.scale == 0 or self.base < 1

    def is_identically_zero(self) -> bool:
        return not any(self.head) and self.scale * self.base == 0

    def tail_at_most_power(self, q: Fraction) -> tuple[bool, str]:
        """Exactly decide delta_n <= q**n for all n >= 2."""
        return self._decide("<=", 1, q, "q^n")

    def tail_at_least_geometric(self, floor_scale: Fraction,
                                floor_base: Fraction) -> tuple[bool, str]:
        """Exactly decide delta_n >= floor_scale * floor_base**(n-1) for all
        n >= 2."""
        if floor_scale == 0 or floor_base == 0:
            return True, "zero floor"
        return self._decide(">=", floor_scale / floor_base, floor_base,
                            "the floor")

    def tail_below_one(self) -> tuple[bool, str]:
        """Exactly decide delta_n < 1 for all n >= 2."""
        return self._decide("<", 1, 1, "1")


def parse_sequence_spec(obj: dict) -> ConfidenceSequence:
    """Build a sequence from its JSON form, e.g.
    {"kind": "geometric", "base": "7/342", "first": "2/9"}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UvinfoError("a sequence spec is an object with a 'kind' field")
    kind = obj["kind"]
    known = {"explicit": {"values", "first"},
             "geometric": {"base", "scale", "first"},
             "constant": {"value", "first"},
             "zero": {"first"}}
    if not isinstance(kind, str) or kind not in known:
        raise UvinfoError(f"unknown sequence kind {kind!r}")
    stray = set(obj) - known[kind] - {"kind"}
    if stray:
        raise UvinfoError(f"unknown sequence field {sorted(stray)[0]!r}")
    first = obj.get("first")
    if kind == "explicit":
        values = obj.get("values", [])
        if not isinstance(values, list):
            raise UvinfoError("an explicit sequence needs a list of values")
        return ConfidenceSequence.explicit(values, first=first)
    if kind == "geometric":
        if "base" not in obj:
            raise UvinfoError("a geometric sequence needs a base")
        return ConfidenceSequence.geometric(obj["base"], obj.get("scale", 1),
                                            first=first)
    if kind == "constant":
        if "value" not in obj:
            raise UvinfoError("a constant sequence needs a value")
        return ConfidenceSequence.constant(obj["value"], first=first)
    return ConfidenceSequence.zero(first=first)


# ---------------------------------------------------------------------------
# single-letter certificates


@_frozen
class Condition:
    name: str
    holds: bool
    detail: str


@_frozen
class SingleLetterCertificate:
    theorem: str           # "T12" | "Cor2" | "T13" | "T14"
    notion: str            # which capacity the certificate pins down
    codebook: tuple
    level: Fraction        # the one-dimensional feasibility level used
    conditions: tuple
    capacity_count: int | None
    delta_hat: Fraction | None = None

    def __post_init__(self) -> None:
        assert (self.capacity_count is not None) == all(c.holds for c in self.conditions), \
            "a capacity value is reported exactly when every condition holds"

    @property
    def certifies(self) -> bool:
        return self.capacity_count is not None

    @property
    def bits(self) -> float:
        assert self.capacity_count is not None
        return math.log2(self.capacity_count)

    def render_bits(self) -> str:
        assert self.capacity_count is not None
        return format_log2(self.capacity_count)


_NOTIONS = {"T12": "C_N({delta_n})^*", "Cor2": "C_N^{0*}",
            "T13": "C_N({delta_n})_*", "T14": "C_N({down 0})_*"}
# the inputs each variant reads: giving any other is refused
_READS = {"T12": ("codebook", "delta1", "delta_bar", "sequence"),
          "T13": ("codebook", "delta1", "delta_bar", "sequence"),
          "Cor2": ("codebook",), "T14": ("codebook", "delta_star")}


def _containment_condition(ch: Channel, codebook, sets) -> Condition:
    outside = sorted(set(ch.x_symbols).difference(codebook))
    for x in outside:
        if not any(ch.image(x) <= s for s in sets):
            return Condition(
                "uncovered-codeword containment", False,
                f"image of {x!r} fits inside no family set")
    return Condition(
        "uncovered-codeword containment", True,
        f"all {len(outside)} non-codebook images fit inside family sets")


def _product_rule_condition(m: UncertaintyFunction) -> Condition:
    ok = isinstance(m, CardinalityPower)
    return Condition(
        "product rule", ok,
        "cardinality-power factorizes" if ok
        else f"kind {m.kind!r} has no product extension")


def _subadditivity_condition(m: UncertaintyFunction) -> Condition:
    if not isinstance(m, CardinalityPower):
        return Condition("union subadditivity", False,
                         f"kind {m.kind!r} is not checked for subadditivity")
    ok = m.exponent == 1
    return Condition(
        "union subadditivity", ok,
        "exponent 1" if ok else "fails for exponents above 1")


def _noise_floor_condition(delta1: Fraction, v_min: Fraction) -> Condition:
    ok = 0 <= delta1 < v_min
    return Condition(
        "one-dimensional level below the noise floor", ok,
        f"{format_ratio(delta1)} vs m(V_N) = {format_ratio(v_min)}")


def _horizon_one_sup(ch: Channel, m: UncertaintyFunction):
    """The largest capacity count over 0 <= delta_1 < m(V_N), found by
    sweeping the finitely many thresholds where per-size feasibility can
    change (delta = size * equivocation), plus zero."""
    _require_normalized(ch, m)
    # the least delta of the largest count wins
    search, grid = _noise_floor_search(ch, m)
    return max(((search(d).count, d) for d in grid), key=operator.itemgetter(0))


def single_letter_check(ch: Channel, m: UncertaintyFunction, variant: str, *,
                        codebook=None, delta1=None, delta_bar=None,
                        sequence: ConfidenceSequence | None = None,
                        delta_star=None) -> SingleLetterCertificate:
    """Evaluate one of the sufficient-condition certificates exactly.

    T12 and T13 read codebook, delta1, delta_bar and sequence, Cor2 only
    codebook, and T14 codebook and delta_star; any other input is refused.

    The supplied codebook must attain the one-dimensional optimum (capacity
    count at delta_1 for T12/Cor2/T13; the sup over delta_1 below the noise
    floor for T14) with its output family at the checked level — otherwise
    ``NotCapacityAchieving`` is raised.  All remaining hypotheses are
    reported as named conditions with exact values; the capacity value is
    emitted only when every condition holds, and equals the log-count of the
    one-dimensional family.
    """
    if not isinstance(variant, str) or variant not in _NOTIONS:
        raise UvinfoError(f"unknown certificate variant {variant!r}")
    for name, value in (("delta1", delta1), ("delta_bar", delta_bar),
                        ("sequence", sequence), ("delta_star", delta_star)):
        if value is not None and name not in _READS[variant]:
            raise UvinfoError(f"{variant} takes no {name}")
    if variant == "T14":
        best = _horizon_one_sup(ch, m)
        if codebook is None:
            return _certify_t14(ch, m, _codebook_rows(ch, m), *best)
        cb = as_codebook(ch, codebook)
        if delta_star is None:
            raise UvinfoError("T14 with an explicit codebook needs delta_star")
        return _certify("T14", ch, m, _codebook_row(ch, m, cb), *best,
                        ratio(delta_star), None)
    if variant == "Cor2":
        if codebook is None:
            raise UvinfoError("Cor2 needs a codebook")
        delta1 = Fraction(0)
    elif (codebook is None or delta1 is None
          or not isinstance(sequence, ConfidenceSequence)):
        raise UvinfoError(f"{variant} needs a codebook, delta_1, and a sequence")
    cb = as_codebook(ch, codebook)
    delta1 = ratio(delta1)
    expected = capacity(ch, m, delta1).count
    delta_bar = None if delta_bar is None else ratio(delta_bar)
    return _certify(variant, ch, m, _codebook_row(ch, m, cb), expected, delta1,
                    delta_bar, sequence)


def _certify_t14(ch: Channel, m: UncertaintyFunction, rows: list,
                 best_count: int, best_delta: Fraction) -> SingleLetterCertificate:
    """T14 on the codebook and level of the information sup at
    ``best_delta``, the least delta_1 of the largest capacity count."""
    _, delta_tilde, row = _sup(rows, best_delta)
    return _certify("T14", ch, m, row, best_count, best_delta, delta_tilde,
                    None)


def _certify(variant: str, ch: Channel, m: UncertaintyFunction, row,
             expected: int, delta1: Fraction, delta_bar: Fraction | None,
             sequence: ConfidenceSequence | None) -> SingleLetterCertificate:
    """The certificate of the codebook of ``row`` (``chancap._codebook_row``),
    whose family at level delta_bar / |X| must have ``expected`` sets: the
    capacity count at delta_1 (0 for Cor2), or for T14 the sup below the
    noise floor, attained at delta_1, with delta_bar = delta_star.  An unset
    ``delta_bar`` is the largest the level bound allows."""
    cb, levels = row
    m_out = levels.m_marginal
    if variant == "Cor2":
        delta_bar = Fraction(0)
    elif variant != "T14":
        level_rhs = delta1 / m_out
        if delta_bar is None:
            delta_bar = level_rhs
            if variant == "T12":
                delta_bar /= 1 + Fraction(1, len(cb))
    theta = delta_bar / len(cb)
    # a level outside [0, 1] has no family, so the codebook is not in the
    # feasible set (T13 reaches one when delta_1 passes m(Y) * |X|)
    if not 0 <= theta <= 1:
        raise NotCapacityAchieving(
            f"level {format_ratio(theta)} for codebook {cb} outside [0, 1]")
    sets = levels.family(theta)
    if sets is None:
        raise NotCapacityAchieving(
            f"{variant}: codebook {cb} has no overlap family at level "
            f"{format_ratio(theta)} (not in the feasible set)")
    if len(sets) != expected:
        raise NotCapacityAchieving(
            f"{variant}: codebook {cb} yields {len(sets)} family "
            f"sets but the one-dimensional capacity count is {expected}")
    v_min = ch.min_image_uncertainty(m)
    delta_hat = (max(m.of(s) / m_out for s in sets)
                 if variant in ("T13", "T14") else None)
    if variant == "Cor2":
        conditions = (
            _containment_condition(ch, cb, sets),
            _product_rule_condition(m),
            _subadditivity_condition(m),
        )
    elif variant == "T12":
        q = delta_bar * v_min / len(cb)
        tail_ok, tail_note = sequence.tail_at_most_power(q)
        level_lhs = delta_bar * (1 + Fraction(1, len(cb)))
        conditions = (
            _noise_floor_condition(delta1, v_min),
            _containment_condition(ch, cb, sets),
            Condition("level bound", level_lhs <= level_rhs,
                      f"delta_bar(1 + 1/|X|) = {format_ratio(level_lhs)} vs "
                      f"delta_1/m(Y) = {format_ratio(level_rhs)}"),
            Condition("tail bound", tail_ok,
                      f"delta_n <= ({format_ratio(q)})^n for n >= 2: {tail_note}"),
            _product_rule_condition(m),
            _subadditivity_condition(m),
        )
    elif variant == "T13":
        growth = delta_hat * len(cb)
        low_ok, low_note = sequence.tail_at_least_geometric(delta_bar, growth)
        up_ok, up_note = sequence.tail_below_one()
        conditions = (
            _noise_floor_condition(delta1, v_min),
            Condition("level bound", delta_bar <= level_rhs,
                      f"delta_bar = {format_ratio(delta_bar)} vs "
                      f"delta_1/m(Y) = {format_ratio(level_rhs)}"),
            Condition("tail floor", low_ok,
                      f"delta_n >= {format_ratio(delta_bar)}*"
                      f"({format_ratio(growth)})^(n-1) for n >= 2: {low_note}"),
            Condition("tail below one", up_ok, up_note),
            _product_rule_condition(m),
        )
    else:
        spread = delta_hat * len(cb)
        conditions = (
            Condition("achieves the one-dimensional sup", True,
                      f"count {expected} attained (sup swept below the noise "
                      f"floor, witness level {format_ratio(delta1)})"),
            Condition("spread bound", spread < 1,
                      f"delta_hat*|X| = {format_ratio(spread)} vs 1"),
            _product_rule_condition(m),
        )
    count = len(sets) if all(c.holds for c in conditions) else None
    return SingleLetterCertificate(variant, _NOTIONS[variant], cb, delta_bar,
                                   conditions, count, delta_hat=delta_hat)


# ---------------------------------------------------------------------------
# capacity profiles


@_frozen
class ProfileRow:
    horizon: int
    delta_n: Fraction
    rate: Rate
    label: str


@_frozen
class ProfileReport:
    rows: tuple
    inf_rate: Rate
    sup_rate: Rate
    inf_label: str
    sup_label: str
    certificates: tuple
    notes: tuple


def _first_certificates(ch: Channel, m: UncertaintyFunction,
                        seq: ConfidenceSequence, rows: list,
                        expected: int) -> tuple:
    """The first certifying codebook of each applicable theorem, trying the
    codebook ``rows`` in their order (by size, then in combination order);
    every walked theorem tests delta_1 (Cor2 applies only when it is 0), and
    below ``expected``, the capacity count there, a codebook has too few
    family sets, so the walk starts at that count."""
    found = []
    delta1 = seq.value_at(1)
    zero = seq.is_identically_zero()
    for variant in ("T12", "Cor2", "T13") if zero else ("T12", "T13"):
        for row in itertools.dropwhile(lambda r: len(r[0]) < expected, rows):
            try:
                cert = _certify(variant, ch, m, row, expected, delta1, None, seq)
            except NotCapacityAchieving:
                continue
            if cert.certifies:
                found.append(cert)
                break
    if seq.vanishes():
        # T14 finds its own codebook
        try:
            found.append(_certify_t14(ch, m, rows, *_horizon_one_sup(ch, m)))
        except NotCapacityAchieving:
            pass
    return tuple(cert for cert in found if cert.certifies)


def capacity_profile(ch: Channel, m: UncertaintyFunction,
                     seq: ConfidenceSequence, n_max: int) -> ProfileReport:
    """Exact rates for horizons 1..n_max plus any passing single-letter
    certificates.

    Horizon rows and their inf/sup are always labeled as finite-horizon
    bounds; the infinite-horizon capacities appear only in certificates,
    found by trying the distinct-image codebooks against the applicable
    theorems (T12 always, the zero-error corollary when the sequence is
    identically zero, T13 always, the vanishing-limit theorem when the
    sequence vanishes).  Past ``MI_SUP_MAX_SYMBOLS`` distinct images no
    certificate is tried, and ``notes`` says so.
    """
    positive_int(n_max, "n_max")
    if not isinstance(seq, ConfidenceSequence):
        raise UvinfoError(f"the sequence must be a ConfidenceSequence, got {seq!r}")
    # same domain as rate_at_horizon: every delta_n in [0, 1); the stricter
    # noise-floor constraints live inside the individual certificates
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
    by_rate = sorted((r.rate for r in rows), key=functools.cmp_to_key(
        lambda a, b: a.compare(b) or a.horizon - b.horizon))
    inf_rate, sup_rate = by_rate[0], by_rate[-1]
    horizon_span = rows[-1].horizon
    certificates = ()
    try:
        codebooks = _codebook_rows(ch, m)
    except AlphabetTooLarge as exc:
        notes.append(f"certificates skipped: {exc}")
    else:
        certificates = _first_certificates(ch, m, seq, codebooks,
                                           rows[0].rate.count)
    return ProfileReport(
        tuple(rows), inf_rate, sup_rate,
        f"inf over horizons 1..{horizon_span} (upper bound on the "
        "infinite-horizon inf)",
        f"sup over horizons 1..{horizon_span} (lower bound on the "
        "infinite-horizon sup)",
        certificates, tuple(notes))


# ---------------------------------------------------------------------------
# tensorization


@_frozen
class TensorizationReport:
    status: str                 # "ok" | "skipped"
    reason: str
    delta: Fraction
    lhs_count: int | None = None
    rhs_counts: tuple = ()
    holds: bool | None = None
    equality: bool | None = None


def product_pair(base_pairs) -> UncertainPair:
    """The coordinatewise product of finite pairs: joint points are tuples
    of per-component joint points."""
    base_pairs = _items(base_pairs, "the component pairs", UncertainPair)
    if any(pair.is_hybrid() for pair in base_pairs):
        raise UvinfoError("only finite pairs have a materialized product")
    joints = [sorted(pair.joint) for pair in base_pairs]
    size = math.prod(len(j) for j in joints)
    if size > FAMILY_MAX_POINTS:
        raise HorizonTooLarge(
            f"{size} product joint points exceed the cap of {FAMILY_MAX_POINTS}")
    combined = frozenset(
        (tuple(x for x, _ in combo), tuple(y for _, y in combo))
        for combo in itertools.product(*joints))
    return UncertainPair.finite(combined)


def tensorization_check(base_pairs, m: UncertaintyFunction,
                        delta: Fraction) -> TensorizationReport:
    """Compare the product-pair information at level delta^n against the sum
    of component informations at level delta.

    Hypotheses (factorizing uncertainty, exponent-1 subadditivity, delta
    below the component range bound, and each component associated at
    (1, delta) or disassociated at (0, delta)) are verified first; any
    failure yields a ``skipped`` report, never a thrown error.  When they
    hold, the inequality is asserted — with equality at delta = 0.  An
    empty component raises ``EmptyPair`` before any hypothesis is tried.

    The classifiability hypothesis matters even at delta = 0: a component
    whose conditioned side overlaps (so it is not associated) while the
    other side has no association at all (so it is not disassociated
    either) carries no family, yet its product with another pair can still
    split, and the count comparison would be vacuous.
    """
    delta = level(delta, None)
    base_pairs = _items(base_pairs, "the component pairs", UncertainPair)
    if not base_pairs:
        raise UvinfoError("at least one component pair is needed")
    if any(p.is_empty() for p in base_pairs):
        raise EmptyPair("the joint range is empty")
    n = len(base_pairs)

    def skipped(reason):
        return TensorizationReport("skipped", reason, delta)

    if any(p.is_hybrid() for p in base_pairs):
        return skipped("interval components have no materialized product")
    if not isinstance(m, CardinalityPower):
        return skipped(f"product rule fails for uncertainty kind {m.kind!r}")
    if m.exponent != 1:
        return skipped(f"subadditivity fails for exponent {m.exponent}")
    bound = min(m.of(section) for pair in base_pairs for _, section in pair.cells)
    bound /= max(len(pair.marginal_range("X")) for pair in base_pairs)
    if not delta < bound:
        return skipped(f"delta {format_ratio(delta)} not below the component "
                       f"range bound {format_ratio(bound)}")
    rhs_counts = []
    for i, pair in enumerate(base_pairs):
        family = overlap_family(pair, _uniform_x(pair), m, delta, "Y")
        if family is None:
            return skipped(
                f"component {i} is neither associated at (1, delta) nor "
                "disassociated at (0, delta)")
        rhs_counts.append(family.count)
    combined = product_pair(base_pairs)
    m_product = product_uncertainty(m, n)
    lhs = mutual_information(combined, _uniform_x(combined), m_product,
                             delta ** n, "YgivenX")
    product = math.prod(rhs_counts)
    holds = lhs.count <= product
    equality = (lhs.count == product) if delta == 0 else None
    return TensorizationReport("ok", "", delta, lhs.count, tuple(rhs_counts),
                               holds, equality)


__all__ = [
    "CLIQUE_SEARCH_MAX_POINTS",
    "Condition",
    "ConfidenceSequence",
    "FAMILY_MAX_POINTS",
    "HorizonTooLarge",
    "NonProductUncertainty",
    "NotCapacityAchieving",
    "ProductChannel",
    "ProfileReport",
    "ProfileRow",
    "Rate",
    "SingleLetterCertificate",
    "TensorizationReport",
    "capacity_profile",
    "information_rate_at_horizon",
    "parse_sequence_spec",
    "product_pair",
    "product_uncertainty",
    "rate_at_horizon",
    "single_letter_check",
    "tensorization_check",
]
