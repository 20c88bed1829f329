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
"for all n" tail conditions of the certificates are decided by closed-form
case analysis on the sequence kind rather than by sampling horizons.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .uvcore import (
    CardinalityPower,
    UncertainPair,
    UncertaintyFunction,
    UvinfoError,
    format_log2,
    format_ratio,
    ratio,
)
from .infocalc import mutual_information, overlap_family
from .chancap import (
    Channel,
    DeltaOutOfRange,
    _capacity_search,
    _delta_grid,
    _pair_values,
    _require_normalized,
    _uniform_x,
    as_codebook,
    capacity,
    distinct_image_representatives,
    induced_pair,
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
    over the n-fold ground.
    """
    if n < 1:
        raise UvinfoError("the horizon must be a positive integer")
    if not isinstance(m, CardinalityPower):
        raise NonProductUncertainty(
            f"no product extension for uncertainty kind {m.kind!r}")
    if n == 1:
        return m
    return CardinalityPower(m.base_size ** n, m.exponent)


@dataclass(frozen=True)
class ProductChannel:
    """The horizon-n extension of a base channel; images are per-symbol
    products and are only materialized within the exact-search caps."""

    base: Channel
    horizon: int

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise UvinfoError("the horizon must be a positive integer")

    def input_count(self) -> int:
        return len(self.base.x_symbols) ** self.horizon

    def output_count(self) -> int:
        return len(self.base.y_symbols) ** self.horizon

    def materialize(self) -> Channel:
        n = self.horizon
        for side, size, cap in (
                ("inputs", len(self.base.x_symbols), CLIQUE_SEARCH_MAX_POINTS),
                ("outputs", len(self.base.y_symbols), FAMILY_MAX_POINTS)):
            # size ** n > cap for every n past cap.bit_length() (size >= 2),
            # so a huge horizon is refused without building its power
            if size > 1 and (n > cap.bit_length() or size ** n > cap):
                shown = size ** n if n <= cap.bit_length() else f"{size}^{n}"
                raise HorizonTooLarge(
                    f"{shown} block {side} exceed the cap of {cap}")
        mapping = {}
        for block in itertools.product(self.base.x_symbols, repeat=n):
            mapping[block] = frozenset(
                itertools.product(*(self.base.image(x) for x in block)))
        y_blocks = itertools.product(self.base.y_symbols, repeat=n)
        return Channel.of(mapping, y_alphabet=tuple(y_blocks))


@dataclass(frozen=True)
class Rate:
    """log2(count)/horizon bits per symbol, kept exact as the pair."""

    count: int
    horizon: int

    @property
    def bits(self) -> float:
        return math.log2(self.count) / self.horizon

    def compare(self, other: "Rate") -> int:
        left = self.count ** other.horizon
        right = other.count ** self.horizon
        return (left > right) - (left < right)

    def same_rate(self, other: "Rate") -> bool:
        return self.compare(other) == 0

    def render(self) -> str:
        return format_log2(self.count, self.horizon)


def rate_at_horizon(ch: Channel, m: UncertaintyFunction, delta_n: Fraction,
                    n: int, *, cross_check: bool = False) -> Rate:
    """The largest distinguishable rate at one horizon: the exact capacity
    count of the n-fold product channel, as a per-symbol rate.

    With ``cross_check`` the result is also matched against the product-space
    mutual-information sup (the two are provably equal; the check is a
    belt-and-braces oracle for tests).
    """
    pc = ProductChannel(ch, n)
    mat = pc.materialize()
    m_n = product_uncertainty(m, n)
    result = capacity(mat, m_n, delta_n)
    if cross_check:
        sup = mi_sup_oracle(mat, m_n, delta_n)
        if sup.count != result.count:
            raise UvinfoError(
                f"rate/information mismatch at horizon {n}: "
                f"{result.count} vs {sup.count}")
    return Rate(result.count, n)


def information_rate_at_horizon(ch: Channel, m: UncertaintyFunction,
                                delta_n: Fraction, n: int) -> Rate:
    """The information side of the horizon-n rate equality: the product-space
    mutual-information sup as a per-symbol rate."""
    pc = ProductChannel(ch, n)
    mat = pc.materialize()
    m_n = product_uncertainty(m, n)
    return Rate(mi_sup_oracle(mat, m_n, delta_n).count, n)


# ---------------------------------------------------------------------------
# confidence sequences


@dataclass(frozen=True)
class ConfidenceSequence:
    """An exact description of {delta_n}, closed under the tail analyses the
    certificates need.

    Kinds: ``explicit`` (listed values, zero beyond the list), ``geometric``
    (scale * base^n), ``constant``, and ``zero``.  ``first`` overrides
    delta_1 — the worked sequences pair a standalone delta_1 with a geometric
    tail for n >= 2.
    """

    kind: str
    values: tuple = ()
    scale: Fraction = Fraction(1)
    base: Fraction = Fraction(0)
    level: Fraction = Fraction(0)
    first: Optional[Fraction] = None

    @staticmethod
    def explicit(values, first=None) -> "ConfidenceSequence":
        vals = tuple(ratio(v) for v in values)
        if any(v < 0 for v in vals):
            raise UvinfoError("sequence values must be nonnegative")
        return ConfidenceSequence("explicit", values=vals,
                                  first=None if first is None else ratio(first))

    @staticmethod
    def geometric(base, scale=1, first=None) -> "ConfidenceSequence":
        b, s = ratio(base), ratio(scale)
        if b < 0 or s < 0:
            raise UvinfoError("geometric parameters must be nonnegative")
        return ConfidenceSequence("geometric", base=b, scale=s,
                                  first=None if first is None else ratio(first))

    @staticmethod
    def constant(value, first=None) -> "ConfidenceSequence":
        v = ratio(value)
        if v < 0:
            raise UvinfoError("the constant level must be nonnegative")
        return ConfidenceSequence("constant", level=v,
                                  first=None if first is None else ratio(first))

    @staticmethod
    def zero(first=None) -> "ConfidenceSequence":
        return ConfidenceSequence("zero",
                                  first=None if first is None else ratio(first))

    def value_at(self, n: int) -> Fraction:
        if n < 1:
            raise UvinfoError("the horizon must be a positive integer")
        if n == 1 and self.first is not None:
            return self.first
        if self.kind == "explicit":
            return self.values[n - 1] if n <= len(self.values) else Fraction(0)
        if self.kind == "geometric":
            return self.scale * self.base ** n
        if self.kind == "constant":
            return self.level
        return Fraction(0)

    def vanishes(self) -> bool:
        """Whether delta_n -> 0 (the achievable-rate regime)."""
        if self.kind in ("zero", "explicit"):
            return True
        if self.kind == "geometric":
            return self.scale == 0 or self.base < 1
        return self.level == 0

    def is_identically_zero(self) -> bool:
        if self.first not in (None, 0):
            return False
        if self.kind == "explicit":
            return all(v == 0 for v in self.values)
        if self.kind == "geometric":
            return self.scale == 0 or self.base == 0
        if self.kind == "constant":
            return self.level == 0
        return True

    def within_noise_floor(self, v_min: Fraction) -> tuple[bool, str]:
        """Exactly decide 0 <= delta_n < v_min**n for every n, by kind."""
        if not 0 < v_min <= 1:
            raise UvinfoError("the noise floor must lie in (0, 1]")
        first = self.value_at(1)
        if not 0 <= first < v_min:
            return False, (f"delta_1 = {format_ratio(first)} outside "
                           f"[0, {format_ratio(v_min)})")
        if self.kind == "explicit":
            for i, v in enumerate(self.values[1:], start=2):
                if not 0 <= v < v_min ** i:
                    return False, f"delta_{i} = {format_ratio(v)} outside range"
            return True, "all listed values inside, zero beyond the list"
        if self.kind == "zero":
            return True, "identically zero"
        if self.kind == "constant":
            if self.level == 0:
                return True, "identically zero"
            if v_min == 1:
                ok = self.level < 1
                return ok, "constant against a unit floor"
            return False, "a positive constant leaves [0, v_min^n) eventually"
        # geometric tail for n >= 2
        if self.scale == 0 or self.base == 0:
            return True, "zero tail"
        r = self.base / v_min
        if r < 1:
            ok = self.scale * self.base ** 2 < v_min ** 2
            return ok, "worst case at n = 2" if ok else "violated at n = 2"
        if r == 1:
            ok = self.scale < 1
            return ok, "ratio 1 needs scale < 1"
        return False, "tail ratio above the noise floor"

    def tail_at_most_power(self, q: Fraction) -> tuple[bool, str]:
        """Exactly decide delta_n <= q**n for all n >= 2."""
        if self.kind in ("zero",) or self.is_identically_zero():
            return True, "zero tail"
        if self.kind == "explicit":
            for i, v in enumerate(self.values[1:], start=2):
                if v > q ** i:
                    return False, f"delta_{i} = {format_ratio(v)} > q^{i}"
            return True, "listed tail below q^n, zero beyond the list"
        if self.kind == "constant":
            if self.level == 0:
                return True, "zero tail"
            if q >= 1:
                ok = self.level <= q * q
                return ok, "worst case at n = 2"
            return False, "a positive constant exceeds q^n eventually"
        if self.scale == 0 or self.base == 0:
            return True, "zero tail"
        if q == 0:
            return False, "positive tail against q = 0"
        r = self.base / q
        if r <= 1:
            ok = self.scale * self.base ** 2 <= q * q
            return ok, "worst case at n = 2" if ok else "violated at n = 2"
        return False, "tail grows relative to q^n"

    def tail_at_least_geometric(self, floor_scale: Fraction,
                                floor_base: Fraction) -> tuple[bool, str]:
        """Exactly decide delta_n >= floor_scale * floor_base**(n-1) for all
        n >= 2."""
        if floor_scale == 0 or floor_base == 0:
            return True, "zero floor"
        if self.kind == "zero" or self.is_identically_zero():
            return False, "zero tail against a positive floor"
        if self.kind == "explicit":
            for i, v in enumerate(self.values[1:], start=2):
                if v < floor_scale * floor_base ** (i - 1):
                    return False, f"delta_{i} below the floor"
            # beyond the listed prefix the sequence is zero, which cannot
            # stay above a positive geometric floor
            return False, "zero beyond the list falls below the floor"
        if self.kind == "constant":
            if floor_base <= 1:
                ok = self.level >= floor_scale * floor_base
                return ok, "worst case at n = 2"
            return False, "the floor grows without bound"
        if self.base >= floor_base:
            ok = self.scale * self.base ** 2 >= floor_scale * floor_base
            return ok, "worst case at n = 2" if ok else "violated at n = 2"
        return False, "the floor eventually overtakes the tail"

    def tail_below_one(self) -> tuple[bool, str]:
        """Exactly decide delta_n < 1 for all n >= 2."""
        if self.kind == "zero" or self.is_identically_zero():
            return True, "zero tail"
        if self.kind == "explicit":
            for i, v in enumerate(self.values[1:], start=2):
                if v >= 1:
                    return False, f"delta_{i} >= 1"
            return True, "all listed values below 1"
        if self.kind == "constant":
            ok = self.level < 1
            return ok, "constant level"
        if self.scale == 0 or self.base == 0:
            return True, "zero tail"
        if self.base < 1:
            ok = self.scale * self.base ** 2 < 1
            return ok, "worst case at n = 2" if ok else "violated at n = 2"
        if self.base == 1:
            ok = self.scale < 1
            return ok, "flat tail"
        return False, "growing tail reaches 1"


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
    if kind not in known:
        raise UvinfoError(f"unknown sequence kind {kind!r}")
    stray = set(obj) - known[kind] - {"kind"}
    if stray:
        raise UvinfoError(f"unknown sequence field {sorted(stray)[0]!r}")
    first = obj.get("first")
    if kind == "explicit":
        return ConfidenceSequence.explicit(obj.get("values", ()), first=first)
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


@dataclass(frozen=True)
class Condition:
    name: str
    holds: bool
    detail: str


@dataclass(frozen=True)
class SingleLetterCertificate:
    theorem: str           # "T12" | "Cor2" | "T13" | "T14"
    notion: str            # which capacity the certificate pins down
    codebook: tuple
    level: Fraction        # the one-dimensional feasibility level used
    conditions: tuple
    capacity_count: Optional[int]
    delta_hat: Optional[Fraction] = None

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


def _one_dim_family(ch: Channel, m: UncertaintyFunction, codebook,
                    theta: Fraction):
    pair = induced_pair(ch, codebook)
    family = overlap_family(pair, _uniform_x(pair), m, theta, "Y")
    return pair, family


def _containment_condition(ch: Channel, codebook, family) -> Condition:
    outside = [x for x in ch.x_symbols if x not in set(codebook)]
    for x in outside:
        if not any(ch.image(x) <= s for s in family.sets):
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
    ok = isinstance(m, CardinalityPower) and m.exponent == 1
    return Condition(
        "union subadditivity", ok,
        "exponent 1" if ok else "fails for exponents above 1")


def _noise_floor_condition(delta1: Fraction, v_min: Fraction) -> Condition:
    ok = 0 <= delta1 < v_min
    return Condition(
        "one-dimensional level below the noise floor", ok,
        f"{format_ratio(delta1)} vs m(V_N) = {format_ratio(v_min)}")


def _require_achieving(theorem: str, family, expected: int, codebook,
                       theta: Fraction) -> None:
    if family is None:
        raise NotCapacityAchieving(
            f"{theorem}: codebook {codebook} has no overlap family at level "
            f"{format_ratio(theta)} (not in the feasible set)")
    if family.count != expected:
        raise NotCapacityAchieving(
            f"{theorem}: codebook {codebook} yields {family.count} family "
            f"sets but the one-dimensional capacity count is {expected}")


def _horizon_one_sup(ch: Channel, m: UncertaintyFunction):
    """The largest capacity count over 0 <= delta_1 < m(V_N), found by
    sweeping the finitely many thresholds where per-size feasibility can
    change (delta = size * equivocation), plus zero."""
    _require_normalized(ch, m)
    values = _pair_values(ch, m)
    best_count, best_delta = 1, Fraction(0)
    for delta in _delta_grid(ch, m, values):
        count = _capacity_search(ch.x_symbols, values, delta).count
        if count > best_count:
            best_count, best_delta = count, delta
    return best_count, best_delta


def single_letter_check(ch: Channel, m: UncertaintyFunction, variant: str, *,
                        codebook=None, delta1=None, delta_bar=None,
                        sequence: Optional[ConfidenceSequence] = None,
                        delta_star=None) -> SingleLetterCertificate:
    """Evaluate one of the sufficient-condition certificates exactly.

    The supplied codebook must attain the one-dimensional optimum (capacity
    count at delta_1 for T12/Cor2/T13; the sup over delta_1 below the noise
    floor for T14) with its output family at the checked level — otherwise
    ``NotCapacityAchieving`` is raised.  All remaining hypotheses are
    reported as named conditions with exact values; the capacity value is
    emitted only when every condition holds, and equals the log-count of the
    one-dimensional family.
    """
    if variant not in _NOTIONS:
        raise UvinfoError(f"unknown certificate variant {variant!r}")
    if variant == "T12":
        return _check_t12(ch, m, codebook, delta1, delta_bar, sequence)
    if variant == "Cor2":
        return _check_cor2(ch, m, codebook)
    if variant == "T13":
        return _check_t13(ch, m, codebook, delta1, delta_bar, sequence)
    return _check_t14(ch, m, codebook, delta_star)


def _check_t12(ch, m, codebook, delta1, delta_bar, sequence):
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
    _, family = _one_dim_family(ch, m, cb, theta)
    _require_achieving("T12", family, cap1.count, cb, theta)
    v_min = ch.min_image_uncertainty(m)
    q = delta_bar * v_min / len(cb)
    tail_ok, tail_note = sequence.tail_at_most_power(q)
    level_lhs = delta_bar * (1 + Fraction(1, len(cb)))
    level_rhs = delta1 / m_out
    conditions = (
        _noise_floor_condition(delta1, v_min),
        _containment_condition(ch, cb, family),
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


def _check_cor2(ch, m, codebook):
    if codebook is None:
        raise UvinfoError("Cor2 needs a codebook")
    cb = as_codebook(ch, codebook)
    cap0 = capacity(ch, m, Fraction(0))
    _, family = _one_dim_family(ch, m, cb, Fraction(0))
    _require_achieving("Cor2", family, cap0.count, cb, Fraction(0))
    conditions = (
        _containment_condition(ch, cb, family),
        _product_rule_condition(m),
        _subadditivity_condition(m),
    )
    count = family.count if all(c.holds for c in conditions) else None
    return SingleLetterCertificate("Cor2", _NOTIONS["Cor2"], cb, Fraction(0),
                                   conditions, count)


def _check_t13(ch, m, codebook, delta1, delta_bar, sequence):
    if codebook is None or delta1 is None or sequence is None:
        raise UvinfoError("T13 needs a codebook, delta_1, and a sequence")
    cb = as_codebook(ch, codebook)
    delta1 = ratio(delta1)
    cap1 = capacity(ch, m, delta1)
    pair = induced_pair(ch, cb)
    m_out = m.of(pair.marginal_range("Y"))
    delta_bar = delta1 / m_out if delta_bar is None else ratio(delta_bar)
    theta = delta_bar / len(cb)
    _, family = _one_dim_family(ch, m, cb, theta)
    _require_achieving("T13", family, cap1.count, cb, theta)
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


def _check_t14(ch, m, codebook, delta_star):
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
    pair, family = _one_dim_family(ch, m, cb, theta)
    _require_achieving("T14", family, best_count, cb, theta)
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


# ---------------------------------------------------------------------------
# capacity profiles


@dataclass(frozen=True)
class ProfileRow:
    horizon: int
    delta_n: Fraction
    rate: Rate
    label: str


@dataclass(frozen=True)
class ProfileReport:
    rows: tuple
    inf_rate: Rate
    sup_rate: Rate
    inf_label: str
    sup_label: str
    certificates: tuple
    notes: tuple


def _certificate_candidates(ch: Channel):
    reps = distinct_image_representatives(ch)
    for size in range(1, len(reps) + 1):
        yield from itertools.combinations(reps, size)


def capacity_profile(ch: Channel, m: UncertaintyFunction,
                     seq: ConfidenceSequence, n_max: int) -> ProfileReport:
    """Exact rates for horizons 1..n_max plus any passing single-letter
    certificates.

    Horizon rows and their inf/sup are always labeled as finite-horizon
    bounds; the infinite-horizon capacities appear only in certificates,
    found by trying every distinct-image codebook against the applicable
    theorems (T12 always, the zero-error corollary when the sequence is
    identically zero, T13 always, the vanishing-limit theorem when the
    sequence vanishes).
    """
    if n_max < 1:
        raise UvinfoError("n_max must be a positive integer")
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
    if not rows:
        raise HorizonTooLarge("no horizon fits the exact-search caps")
    def _rate_order(a: Rate, b: Rate) -> int:
        return a.compare(b) or (a.horizon - b.horizon)

    inf_rate = min((r.rate for r in rows), key=functools.cmp_to_key(_rate_order))
    sup_rate = max((r.rate for r in rows), key=functools.cmp_to_key(_rate_order))
    horizon_span = rows[-1].horizon
    certificates = []

    def attempt(variant, codebooks, **kwargs):
        for cb in codebooks:
            try:
                cert = single_letter_check(ch, m, variant, codebook=cb, **kwargs)
            except NotCapacityAchieving:
                continue
            if cert.certifies:
                return cert
        return None

    delta1 = seq.value_at(1)
    # T14 finds its own codebook: one attempt, with none supplied
    for variant, applicable, codebooks, kwargs in (
            ("T12", True, _certificate_candidates(ch),
             {"delta1": delta1, "sequence": seq}),
            ("Cor2", seq.is_identically_zero(), _certificate_candidates(ch), {}),
            ("T13", True, _certificate_candidates(ch),
             {"delta1": delta1, "sequence": seq}),
            ("T14", seq.vanishes(), (None,), {})):
        if not applicable:
            continue
        cert = attempt(variant, codebooks, **kwargs)
        if cert is not None:
            certificates.append(cert)
    return ProfileReport(
        tuple(rows), inf_rate, sup_rate,
        f"inf over horizons 1..{horizon_span} (upper bound on the "
        "infinite-horizon inf)",
        f"sup over horizons 1..{horizon_span} (lower bound on the "
        "infinite-horizon sup)",
        tuple(certificates), tuple(notes))


# ---------------------------------------------------------------------------
# tensorization


@dataclass(frozen=True)
class TensorizationReport:
    status: str                 # "ok" | "skipped"
    reason: str
    delta: Fraction
    lhs_count: Optional[int] = None
    rhs_counts: tuple = ()
    holds: Optional[bool] = None
    equality: Optional[bool] = None

    @property
    def rhs_product(self) -> int:
        return math.prod(self.rhs_counts)


def product_pair(base_pairs) -> UncertainPair:
    """The coordinatewise product of finite pairs: joint points are tuples
    of per-component joint points."""
    joints = []
    for pair in base_pairs:
        if pair.is_hybrid():
            raise UvinfoError("only finite pairs have a materialized product")
        joints.append(sorted(pair.joint))
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
    hold, the inequality is asserted — with equality at delta = 0.

    The classifiability hypothesis matters even at delta = 0: a component
    whose conditioned side overlaps (so it is not associated) while the
    other side has no association at all (so it is not disassociated
    either) carries no family, yet its product with another pair can still
    split, and the count comparison would be vacuous.
    """
    delta = ratio(delta)
    if not base_pairs:
        raise UvinfoError("at least one component pair is needed")
    if delta < 0:
        raise UvinfoError("delta must be nonnegative")
    n = len(base_pairs)

    def skipped(reason):
        return TensorizationReport("skipped", reason, delta)

    if any(p.is_hybrid() for p in base_pairs):
        return skipped("interval components have no materialized product")
    if not isinstance(m, CardinalityPower):
        return skipped(f"product rule fails for uncertainty kind {m.kind!r}")
    if m.exponent != 1:
        return skipped(f"subadditivity fails for exponent {m.exponent}")
    bound = None
    for pair in base_pairs:
        for x in pair.marginal_range("X"):
            value = m.of(pair.conditional_range("Y", x))
            bound = value if bound is None else min(bound, value)
    max_inputs = max(len(p.marginal_range("X")) for p in base_pairs)
    bound = bound / max_inputs
    if not delta < bound:
        return skipped(f"delta {format_ratio(delta)} not below the component "
                       f"range bound {format_ratio(bound)}")
    for i, pair in enumerate(base_pairs):
        family = overlap_family(pair, _uniform_x(pair), m, delta, "Y")
        if family is None:
            return skipped(
                f"component {i} is neither associated at (1, delta) nor "
                "disassociated at (0, delta)")
    combined = product_pair(base_pairs)
    m_product = product_uncertainty(m, n) if n > 1 else m
    lhs = mutual_information(combined, _uniform_x(combined), m_product,
                             delta ** n, "YgivenX")
    rhs_counts = tuple(
        mutual_information(pair, _uniform_x(pair), m, delta, "YgivenX").count
        for pair in base_pairs)
    product = math.prod(rhs_counts)
    holds = lhs.count <= product
    equality = (lhs.count == product) if delta == 0 else None
    return TensorizationReport("ok", "", delta, lhs.count, rhs_counts,
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
